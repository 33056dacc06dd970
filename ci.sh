#!/bin/sh
# Tier-1 gate: build, test, lint, format. Run from the repo root.
set -eux

cargo build --release --workspace
cargo build --release --examples
# `cargo test` at the root runs only the root package's tests; the
# crates' own property tests and unit-test modules need --workspace,
# which also runs every root test.
cargo test -q --workspace
# The end-to-end benchmark is a separate Cargo workspace that
# `--workspace` never compiles; build and test it so a change to the
# public API cannot break it silently.
cargo build --release --manifest-path perfbench/Cargo.toml --target-dir target/perfbench
cargo test --release --manifest-path perfbench/Cargo.toml --target-dir target/perfbench
cargo clippy -- -D warnings
cargo clippy -p wm-lint -- -D warnings
# The root package uses the experiment crate only in its tests, so the
# plain clippy above never lints it.
cargo clippy -p wm-bench -- -D warnings
cargo fmt --check

# Static analysis: fails on findings above lint-baseline.json (new
# debt) or below it (stale baseline — ratchet down with
# --update-baseline).
cargo run -p wm-lint --release --quiet -- --deny-new

# Schema-stable JSON artifact (findings + panic roots) for downstream
# tooling; must parse and carry the version marker.
lint_json="$(mktemp)"
target/release/wm-lint --format json > "$lint_json"
grep -q '"version": 1' "$lint_json"
grep -q '"roots"' "$lint_json"
rm -f "$lint_json"

# The linter holds itself to the full rule pack: its own crate must be
# clean with no baseline entries at all.
if target/release/wm-lint | grep "crates/lint/src/"; then
    echo "wm-lint has findings in its own sources" >&2
    exit 1
fi

# Every registered rule id must explain itself.
for rule in $(target/release/wm-lint --rules); do
    target/release/wm-lint --explain "$rule" > /dev/null
done

# Smoke test: a tiny corpus through the single-pass analysis engine,
# then through the segment store (index compacts into time-sharded
# segments, analyze serves from them). (Plain grep, not -q: quitting at
# the first match closes the pipe mid-print.)
smoke_dir="$(mktemp -d)"
target/release/ovh-weather generate --out "$smoke_dir" --from 2022-02-01 --to 2022-02-02 --map europe --scale 0.05
# Extraction reproduces the generator's YAML byte for byte at one thread
# and at two: a copy of the smoke corpus's SVGs is extracted each time
# and its YAML tree must equal the one the generator wrote.
extract_dir="$(mktemp -d)"
mkdir -p "$extract_dir/europe"
cp -R "$smoke_dir/europe/svg" "$extract_dir/europe/"
for threads in 1 2; do
    rm -rf "$extract_dir/europe/yaml"
    target/release/ovh-weather extract --in "$extract_dir" --map europe --threads "$threads" --metrics > "$smoke_dir/extract_metrics.txt"
    diff -r "$smoke_dir/europe/yaml" "$extract_dir/europe/yaml"
done
# `--metrics` heads each map's report with its counts.
grep "^Europe: [0-9]* processed, [0-9]* failed of [0-9]* files$" "$smoke_dir/extract_metrics.txt" > /dev/null
# An SVG that is not UTF-8 is refused as invalid-xml, named on stderr,
# and the rest of the map is still extracted: of 12 files with one
# 0xFF byte in the third, 11 come out as YAML. The generator's YAML of
# all 12 is there beforehand, so the refused file's old YAML must be
# removed, not left for `analyze` to count.
rm -rf "$extract_dir/europe"
mkdir -p "$extract_dir/europe/svg/2022/02/01" "$extract_dir/europe/yaml/2022/02/01"
for file in $(find "$smoke_dir/europe/svg" -name '*.svg' | sort | head -n 12); do
    cp "$file" "$extract_dir/europe/svg/2022/02/01/"
    yaml="$(echo "$file" | sed 's|/svg/|/yaml/|; s|[.]svg$|.yaml|')"
    cp "$yaml" "$extract_dir/europe/yaml/2022/02/01/"
done
test "$(find "$extract_dir/europe/yaml" -name '*.yaml' | wc -l)" -eq 12
bad_svg="$(find "$extract_dir/europe/svg" -name '*.svg' | sort | sed -n 3p)"
printf '\377' | dd of="$bad_svg" bs=1 seek=100 count=1 conv=notrunc 2> /dev/null
target/release/ovh-weather extract --in "$extract_dir" --map europe --threads 2 --metrics \
    > "$smoke_dir/extract_utf8.txt" 2> "$smoke_dir/extract_utf8.err"
grep "^Europe: 11 processed, 1 failed of 12 files$" "$smoke_dir/extract_utf8.txt" > /dev/null
grep "^ *invalid-xml  *1$" "$smoke_dir/extract_utf8.txt" > /dev/null
grep "$bad_svg: not UTF-8 at byte 100" "$smoke_dir/extract_utf8.err" > /dev/null
grep "1 stale YAML removed$" "$smoke_dir/extract_utf8.txt" > /dev/null
test "$(find "$extract_dir/europe/yaml" -name '*.yaml' | wc -l)" -eq 11
rm -rf "$extract_dir"
# Extraction memory is bounded by the thread count, not by the corpus:
# `extract --threads 1` over three days of Europe peaks within 1.2x of
# its peak over one day (the child's peak RSS). A loop that holds its
# input in memory reads about 2.9x here.
rss_dir="$(mktemp -d)"
for days in 1 3; do
    target/release/ovh-weather generate --out "$rss_dir/$days" --from 2022-02-01 \
        --to "2022-02-0$((1 + days))" --map europe --scale 0.2 > /dev/null
    python3 -c 'import resource, subprocess, sys; subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL); print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)' \
        target/release/ovh-weather extract --in "$rss_dir/$days" --map europe --threads 1 > "$rss_dir/peak_$days"
done
awk -v one="$(cat "$rss_dir/peak_1")" -v three="$(cat "$rss_dir/peak_3")" \
    'BEGIN { printf "extract peak RSS: %d KiB for one day, %d KiB for three\n", one, three; exit !(three <= 1.2 * one) }'
rm -rf "$rss_dir"
target/release/ovh-weather analyze --in "$smoke_dir" --map europe --threads 2 --metrics
target/release/ovh-weather index --in "$smoke_dir" --map europe --threads 2
# A topology is stored once per run of snapshots that share it, not
# once per snapshot: the segments take under 0.057 of the YAML's bytes
# (0.0840 when every snapshot's topology was stored, 0.0308 with rows).
segment_bytes="$(find "$smoke_dir/europe/.segments" -type f -exec cat {} + | wc -c)"
yaml_bytes="$(find "$smoke_dir/europe/yaml" -type f -name '*.yaml' -exec cat {} + | wc -c)"
awk -v s="$segment_bytes" -v y="$yaml_bytes" 'BEGIN { exit !(s < 0.057 * y) }'
# A segment written under another format version (bytes 8..12 of the
# file) is rebuilt from YAML, and `index` names it stale instead of
# calling the load a cache hit; the next `index` hits.
segment="$(find "$smoke_dir/europe/.segments" -name 'seg-*.seg' | sort | head -n 1)"
printf '\001\000\000\000' | dd of="$segment" bs=1 seek=8 count=4 conv=notrunc 2> /dev/null
target/release/ovh-weather index --in "$smoke_dir" --map europe --threads 2 > "$smoke_dir/index_stale.txt"
grep "stale" "$smoke_dir/index_stale.txt" > /dev/null
if grep "cache hit" "$smoke_dir/index_stale.txt"; then
    echo "index calls a load that rebuilt a stale segment a cache hit" >&2
    exit 1
fi
target/release/ovh-weather index --in "$smoke_dir" --map europe --threads 2 | grep "cache hit" > /dev/null
# A whole tree written by the previous format (the manifest's and every
# segment's version bytes) is rewritten from YAML, and every rewritten
# segment file counts as rebuilt.
segment_count="$(find "$smoke_dir/europe/.segments" -name 'seg-*.seg' | wc -l)"
for file in "$smoke_dir/europe/.segments/manifest" $(find "$smoke_dir/europe/.segments" -name 'seg-*.seg'); do
    printf '\001\000\000\000' | dd of="$file" bs=1 seek=8 count=4 conv=notrunc 2> /dev/null
done
target/release/ovh-weather index --in "$smoke_dir" --map europe --threads 2 --metrics \
    | grep "^segments: $segment_count touched, $segment_count rebuilt$" > /dev/null
target/release/ovh-weather analyze --in "$smoke_dir" --map europe --threads 2 --cache --metrics | grep "segments:" > /dev/null
# The report does not depend on where the store came from: no cache,
# the warm segment store, and a forced rebuild print identical output.
target/release/ovh-weather analyze --in "$smoke_dir" --map europe --threads 2 > "$smoke_dir/plain.txt"
target/release/ovh-weather analyze --in "$smoke_dir" --map europe --threads 2 --cache > "$smoke_dir/cached.txt"
target/release/ovh-weather analyze --in "$smoke_dir" --map europe --threads 2 --cache=rebuild > "$smoke_dir/rebuilt.txt"
diff "$smoke_dir/plain.txt" "$smoke_dir/cached.txt"
diff "$smoke_dir/plain.txt" "$smoke_dir/rebuilt.txt"
# Thread count never changes an answer: the suite (fresh and through the
# segment store) and a query print the same at one thread and at three,
# where the kernels' snapshot chunks are uneven.
for threads in 1 3; do
    target/release/ovh-weather analyze --in "$smoke_dir" --map europe --threads "$threads" > "$smoke_dir/plain_$threads.txt"
    target/release/ovh-weather analyze --in "$smoke_dir" --map europe --threads "$threads" --cache > "$smoke_dir/cached_$threads.txt"
    target/release/ovh-weather query --in "$smoke_dir" --map europe --threads "$threads" --op heatmap --window 1 --json > "$smoke_dir/heatmap_$threads.json"
done
diff "$smoke_dir/plain_1.txt" "$smoke_dir/plain_3.txt"
diff "$smoke_dir/cached_1.txt" "$smoke_dir/cached_3.txt"
diff "$smoke_dir/heatmap_1.json" "$smoke_dir/heatmap_3.json"
# A copy of the map's tree under an alias spelling (`eu/` for Europe)
# is not the map's directory: listing and reading both use the slug
# alone, so the copy changes no report, with or without the store.
cp -R "$smoke_dir/europe" "$smoke_dir/eu"
target/release/ovh-weather analyze --in "$smoke_dir" --map europe --threads 2 > "$smoke_dir/alias_plain.txt"
target/release/ovh-weather analyze --in "$smoke_dir" --map europe --threads 2 --cache=rebuild > "$smoke_dir/alias_rebuilt.txt"
diff "$smoke_dir/plain.txt" "$smoke_dir/alias_plain.txt"
diff "$smoke_dir/plain.txt" "$smoke_dir/alias_rebuilt.txt"
rm -rf "$smoke_dir/eu"
# Reshaped YAML: the schema reader takes whatever the grammar allows.
# In a copy of the corpus every `name:`, `a:` and `b:` value is quoted
# and full-line and trailing comments are added; one file gets CRLF
# line ends and another lists `links:` above `nodes:`. Read fresh and
# through a rebuilt segment store, the copy reports what the original
# does.
reshaped_dir="$(mktemp -d)"
mkdir -p "$reshaped_dir/europe"
cp -R "$smoke_dir/europe/yaml" "$reshaped_dir/europe/"
for file in $(find "$reshaped_dir/europe/yaml" -name '*.yaml'); do
    awk '
        /^(nodes|links):/ { print "# the " $1 " block follows" }
        /^ *(- )?(name|a|b): [^"]/ { sub(/: /, ": \""); $0 = $0 "\"" }
        /^ *(- )?kind: / { $0 = $0 "  # trailing comment" }
        { print }
    ' "$file" > "$file.tmp"
    mv "$file.tmp" "$file"
done
set -- $(find "$reshaped_dir/europe/yaml" -name '*.yaml' | sort)
awk '{ printf "%s\r\n", $0 }' "$1" > "$1.tmp"
mv "$1.tmp" "$1"
awk '
    /^# the nodes/ || /^nodes:/ { block = "nodes" }
    /^# the links/ || /^links:/ { block = "links" }
    block == "" { print; next }
    block == "nodes" { nodes = nodes $0 "\n"; next }
    { links = links $0 "\n" }
    END { printf "%s%s", links, nodes }
' "$2" > "$2.tmp"
mv "$2.tmp" "$2"
grep -q '^links:' "$2"
target/release/ovh-weather analyze --in "$reshaped_dir" --map europe --threads 2 > "$reshaped_dir/plain.txt"
target/release/ovh-weather analyze --in "$reshaped_dir" --map europe --threads 2 --cache=rebuild > "$reshaped_dir/rebuilt.txt"
diff "$smoke_dir/plain.txt" "$reshaped_dir/plain.txt"
diff "$smoke_dir/plain.txt" "$reshaped_dir/rebuilt.txt"
rm -rf "$reshaped_dir"
# Near repeats: a file equal to the one its worker read last outside
# its load and timestamp values is read as those values alone. In a
# copy of the corpus, eight mid-series files carry one edit each: two
# the schema refuses (a load of 101, a signed timestamp) and six it
# accepts (a load of +42 and of 042, a trailing comment after a load,
# a renamed link end, a changed label, CRLF line ends). A second copy
# gives every file a comment line of its own, so no file repeats its
# predecessor and every file takes the full read; both copies must
# report the same, and exactly the two refused files fail.
repeat_dir="$(mktemp -d)"
mkdir -p "$repeat_dir/edited/europe" "$repeat_dir/commented/europe"
cp -R "$smoke_dir/europe/yaml" "$repeat_dir/edited/europe/"
set -- $(find "$repeat_dir/edited/europe/yaml" -name '*.yaml' | sort)
shift 100
sed -i '0,/a_load: [0-9]*/s//a_load: 101/' "$1"
sed -i 's/^timestamp: 2/timestamp: -/' "$6"
sed -i '0,/b_load: [0-9]*/s//b_load: +42/' "${11}"
sed -i '0,/a_load: [0-9]*/s//a_load: 042/' "${16}"
sed -i '0,/b_load: [0-9]*/s//& # trailing/' "${21}"
sed -i '0,/^    b: .*/s//    b: RENAMED/' "${26}"
sed -i '0,/"#1"/s//"#99"/' "${31}"
sed -i 's/$/\r/' "${36}"
test "$(diff -rq "$smoke_dir/europe/yaml" "$repeat_dir/edited/europe/yaml" | wc -l)" -eq 8
cp -R "$repeat_dir/edited/europe/yaml" "$repeat_dir/commented/europe/"
n=0
for file in $(find "$repeat_dir/commented/europe/yaml" -name '*.yaml' | sort); do
    n=$((n + 1))
    printf '# %d\n' "$n" >> "$file"
done
for flags in "--threads 1" "--threads 3" "--threads 2 --cache=rebuild"; do
    for copy in edited commented; do
        target/release/ovh-weather analyze --in "$repeat_dir/$copy" --map europe $flags > "$repeat_dir/$copy.txt"
    done
    diff "$repeat_dir/edited.txt" "$repeat_dir/commented.txt"
done
for copy in edited commented; do
    target/release/ovh-weather analyze --in "$repeat_dir/$copy" --map europe --threads 2 --metrics \
        | grep "^corpus: 287 files, 285 parsed, 2 failed," > /dev/null
done
rm -rf "$repeat_dir"
# Serve a six-hour window from only the segments it intersects; the
# windowed report is the same with and without the segment store.
target/release/ovh-weather analyze --in "$smoke_dir" --map europe --threads 2 --cache --metrics \
    --from 2022-02-01T06:00:00Z --to 2022-02-01T12:00:00Z | grep "segments:" > /dev/null
target/release/ovh-weather analyze --in "$smoke_dir" --map europe --threads 2 \
    --from 2022-02-01T06:00:00Z --to 2022-02-01T12:00:00Z > "$smoke_dir/window_plain.txt"
target/release/ovh-weather analyze --in "$smoke_dir" --map europe --threads 2 --cache \
    --from 2022-02-01T06:00:00Z --to 2022-02-01T12:00:00Z > "$smoke_dir/window_cached.txt"
diff "$smoke_dir/window_plain.txt" "$smoke_dir/window_cached.txt"
# Vectorized query engine: a windowed ad-hoc query over the compacted
# corpus, text and JSON modes.
target/release/ovh-weather query --in "$smoke_dir" --map europe --threads 2 --op topk --k 5 \
    --from 2022-02-01T06:00:00Z --to 2022-02-01T12:00:00Z | grep "snapshots," > /dev/null
target/release/ovh-weather query --in "$smoke_dir" --map europe --threads 2 --op percentiles --window 1 \
    --from 2022-02-01T06:00:00Z --to 2022-02-01T12:00:00Z --json | grep '"op":"percentiles"' > /dev/null
# Append past a seal: the next day lands in the indexed corpus, so the
# first cached load fills and seals the old tail and starts a new one
# from decoded segments plus the fresh files. What it serves must equal
# a build without the segment store, for the suite and for a query
# whose window straddles the seal.
target/release/ovh-weather generate --out "$smoke_dir" --from 2022-02-02 --to 2022-02-03 --map europe --scale 0.05
target/release/ovh-weather analyze --in "$smoke_dir" --map europe --threads 2 --cache > "$smoke_dir/appended_cached.txt"
target/release/ovh-weather analyze --in "$smoke_dir" --map europe --threads 2 > "$smoke_dir/appended_plain.txt"
diff "$smoke_dir/appended_plain.txt" "$smoke_dir/appended_cached.txt"
target/release/ovh-weather query --in "$smoke_dir" --map europe --threads 2 --op sites --json --cache \
    --from 2022-02-01T18:00:00Z --to 2022-02-02T06:00:00Z > "$smoke_dir/appended_query_cached.json"
target/release/ovh-weather query --in "$smoke_dir" --map europe --threads 2 --op sites --json --cache=off \
    --from 2022-02-01T18:00:00Z --to 2022-02-02T06:00:00Z > "$smoke_dir/appended_query_off.json"
diff "$smoke_dir/appended_query_off.json" "$smoke_dir/appended_query_cached.json"
# The appended store must be the bytes a fresh build writes: keep a copy,
# rebuild every segment from YAML and compare the two trees.
cp -R "$smoke_dir/europe/.segments" "$smoke_dir/appended_segments"
target/release/ovh-weather index --in "$smoke_dir" --map europe --threads 2 --cache=rebuild > /dev/null
diff -r "$smoke_dir/appended_segments" "$smoke_dir/europe/.segments"
rm -rf "$smoke_dir"

# The paper's artifacts run through the one pipeline (SVG files on disk,
# the library's extract loop, the segment store, the suite) and print
# their paper-versus-measured rows.
exp_out="$(mktemp)"
target/release/reproduce fig4 fig5 fig6 > "$exp_out"
grep "^routers with a single link  *paper: .* measured: " "$exp_out" > /dev/null
grep "^median peak hour  *paper: .* measured: " "$exp_out" > /dev/null
grep "^inferred per-link capacity  *paper: .* measured: " "$exp_out" > /dev/null
# Table 1 at its full-scale default: every map's routers / internal /
# external links equal the paper's, exactly by construction.
target/release/reproduce table1 > "$exp_out"
for row in "Europe:113/744/265" "World:16/76/0" "North America:60/407/214" "Asia Pacific:23/96/39"; do
    map="${row%%:*}"
    counts="${row#*:}"
    grep "^$map routers / internal / external  *paper:  *$counts   measured:  *$counts$" "$exp_out" > /dev/null
done
rm -f "$exp_out"
