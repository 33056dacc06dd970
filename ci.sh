#!/bin/sh
# Tier-1 gate: build, test, lint, format. Run from the repo root.
set -eux

cargo build --release --workspace
cargo build --release --examples
cargo test -q
cargo test -q --test scheduling_equivalence
cargo test -q --test analysis_equivalence
cargo test -q --test segment_robustness
cargo test -q --test segment_equivalence
cargo test -q --test query_proptest
cargo test -q --test query_equivalence
# The end-to-end benchmark is a separate Cargo workspace that
# `--workspace` never compiles; build and test it so a change to the
# public API cannot break it silently.
cargo build --release --manifest-path perfbench/Cargo.toml --target-dir target/perfbench
cargo test --release --manifest-path perfbench/Cargo.toml --target-dir target/perfbench
cargo clippy -- -D warnings
cargo clippy -p wm-lint -- -D warnings
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
target/release/ovh-weather analyze --in "$smoke_dir" --map europe --threads 2 --metrics
target/release/ovh-weather index --in "$smoke_dir" --map europe --threads 2
target/release/ovh-weather analyze --in "$smoke_dir" --map europe --threads 2 --cache --metrics | grep "segments:" > /dev/null
# The report does not depend on where the store came from: no cache,
# the warm segment store, and a forced rebuild print identical output.
target/release/ovh-weather analyze --in "$smoke_dir" --map europe --threads 2 > "$smoke_dir/plain.txt"
target/release/ovh-weather analyze --in "$smoke_dir" --map europe --threads 2 --cache > "$smoke_dir/cached.txt"
target/release/ovh-weather analyze --in "$smoke_dir" --map europe --threads 2 --cache=rebuild > "$smoke_dir/rebuilt.txt"
diff "$smoke_dir/plain.txt" "$smoke_dir/cached.txt"
diff "$smoke_dir/plain.txt" "$smoke_dir/rebuilt.txt"
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
rm -rf "$smoke_dir"
