//! The corpus store: writing, reading and enumerating snapshot files.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use wm_model::{MapKind, Timestamp};

use crate::paths::{parse_path, relative_path, FileKind};

/// A corpus rooted at one directory.
///
/// The store is deliberately plain — files on disk in a documented layout,
/// no database — matching how the real dataset is distributed (a tree of
/// SVG and YAML files plus wrapper scripts).
#[derive(Debug, Clone)]
pub struct DatasetStore {
    root: PathBuf,
}

/// One enumerated corpus file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetEntry {
    /// Which map.
    pub map: MapKind,
    /// SVG or YAML.
    pub kind: FileKind,
    /// The snapshot instant, recovered from the path.
    pub timestamp: Timestamp,
    /// Size in bytes.
    pub size: u64,
}

impl DatasetStore {
    /// Opens (or prepares to populate) a corpus rooted at `root`.
    ///
    /// The directory is created if missing.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<DatasetStore> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(DatasetStore { root })
    }

    /// Opens a corpus that must already exist at `root`.
    ///
    /// Read-only consumers (analyses, stats, re-extraction) want a typo'd
    /// path to fail loudly, not to silently create an empty tree and
    /// report an empty corpus — use this instead of [`DatasetStore::open`]
    /// whenever the caller does not intend to write.
    pub fn open_existing(root: impl Into<PathBuf>) -> io::Result<DatasetStore> {
        let root = root.into();
        if root.is_dir() {
            Ok(DatasetStore { root })
        } else {
            Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!(
                    "corpus root {} is not a directory (DatasetStore::open creates one for writing)",
                    root.display()
                ),
            ))
        }
    }

    /// The root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Absolute path of a snapshot file.
    #[must_use]
    pub fn path_of(&self, map: MapKind, kind: FileKind, t: Timestamp) -> PathBuf {
        self.root.join(relative_path(map, kind, t))
    }

    /// Writes a snapshot file, creating date directories as needed. An
    /// error keeps its kind and names the file.
    ///
    /// The write is tried first: a day directory holds hundreds of
    /// files, so only the first write into it finds no directory
    /// (`NotFound`), creates it and tries once more.
    pub fn write(
        &self,
        map: MapKind,
        kind: FileKind,
        t: Timestamp,
        contents: &[u8],
    ) -> io::Result<()> {
        let path = self.path_of(map, kind, t);
        match fs::write(&path, contents) {
            Err(err) if err.kind() == io::ErrorKind::NotFound => path
                .parent()
                .map_or(Err(err), fs::create_dir_all)
                .and_then(|()| fs::write(&path, contents)),
            written => written,
        }
        .map_err(|err| io::Error::new(err.kind(), format!("writing {}: {err}", path.display())))
    }

    /// Reads a snapshot file. An error keeps its kind and names the
    /// file.
    pub fn read(&self, map: MapKind, kind: FileKind, t: Timestamp) -> io::Result<Vec<u8>> {
        let path = self.path_of(map, kind, t);
        fs::read(&path)
            .map_err(|err| io::Error::new(err.kind(), format!("reading {}: {err}", path.display())))
    }

    /// Removes a snapshot file. Returns `false` when there was none; any
    /// other error keeps its kind and names the file.
    pub fn remove(&self, map: MapKind, kind: FileKind, t: Timestamp) -> io::Result<bool> {
        let path = self.path_of(map, kind, t);
        match fs::remove_file(&path) {
            Ok(()) => Ok(true),
            Err(err) if err.kind() == io::ErrorKind::NotFound => Ok(false),
            Err(err) => Err(io::Error::new(
                err.kind(),
                format!("removing {}: {err}", path.display()),
            )),
        }
    }

    /// Whether a snapshot file exists.
    #[must_use]
    pub fn contains(&self, map: MapKind, kind: FileKind, t: Timestamp) -> bool {
        self.path_of(map, kind, t).is_file()
    }

    /// Enumerates all well-formed corpus files, sorted by `(map, kind,
    /// timestamp)`.
    ///
    /// Files whose paths do not follow the layout are ignored (the store
    /// never treats foreign files as corpus members).
    pub fn entries(&self) -> io::Result<Vec<DatasetEntry>> {
        let mut out = Vec::new();
        if self.root.is_dir() {
            self.walk(&self.root, &mut out)?;
        }
        out.sort_by_key(|e| (e.map, e.kind, e.timestamp));
        Ok(out)
    }

    /// Enumerates the entries of one map and kind, sorted by timestamp:
    /// exactly [`Self::entries`] filtered to `(map, kind)`, but walking
    /// only `<root>/<slug>/<kind>/`, the one directory [`parse_path`]
    /// accepts for them.
    pub fn entries_of(&self, map: MapKind, kind: FileKind) -> io::Result<Vec<DatasetEntry>> {
        let mut out = Vec::new();
        let kind_dir = self.root.join(map.slug()).join(kind.as_str());
        if kind_dir.is_dir() {
            self.walk(&kind_dir, &mut out)?;
        }
        out.sort_by_key(|e| e.timestamp);
        Ok(out)
    }

    /// Directory holding one map's segment files and manifest.
    ///
    /// Dot-prefixed, so nothing under it can ever surface from
    /// [`Self::entries`].
    #[must_use]
    pub fn segments_dir(&self, map: MapKind) -> PathBuf {
        self.root.join(map.slug()).join(".segments")
    }

    /// Absolute path of one map's segment manifest.
    #[must_use]
    pub fn manifest_path(&self, map: MapKind) -> PathBuf {
        self.segments_dir(map).join("manifest")
    }

    /// Absolute path of one named segment file.
    #[must_use]
    pub fn segment_path(&self, map: MapKind, name: &str) -> PathBuf {
        self.segments_dir(map).join(name)
    }

    /// Writes one segment file atomically (temporary sibling + rename).
    pub fn write_segment_file(&self, map: MapKind, name: &str, bytes: &[u8]) -> io::Result<()> {
        publish(&self.segment_path(map, name), bytes)
    }

    /// Reads one segment file; `Ok(None)` when it does not exist.
    pub fn read_segment_file(&self, map: MapKind, name: &str) -> io::Result<Option<Vec<u8>>> {
        match fs::read(self.segment_path(map, name)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(err) if err.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(err) => Err(err),
        }
    }

    /// Deletes one segment file if present.
    pub fn remove_segment_file(&self, map: MapKind, name: &str) -> io::Result<()> {
        match fs::remove_file(self.segment_path(map, name)) {
            Ok(()) => Ok(()),
            Err(err) if err.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(err) => Err(err),
        }
    }

    /// Writes one map's segment manifest atomically.
    pub fn write_manifest_bytes(&self, map: MapKind, bytes: &[u8]) -> io::Result<()> {
        publish(&self.manifest_path(map), bytes)
    }

    /// Reads one map's segment manifest; `Ok(None)` when absent.
    pub fn read_manifest_bytes(&self, map: MapKind) -> io::Result<Option<Vec<u8>>> {
        match fs::read(self.manifest_path(map)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(err) if err.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(err) => Err(err),
        }
    }

    /// Names of the segment files present on disk (`seg-*.seg`), sorted.
    ///
    /// Used to garbage-collect files a rewritten manifest no longer
    /// references and to recover a manifest from segment headers.
    pub fn list_segment_files(&self, map: MapKind) -> io::Result<Vec<String>> {
        let dir = self.segments_dir(map);
        if !dir.is_dir() {
            return Ok(Vec::new());
        }
        let mut names = Vec::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            if let Some(name) = entry.file_name().to_str() {
                if name.starts_with("seg-") && name.ends_with(".seg") {
                    names.push(name.to_owned());
                }
            }
        }
        names.sort();
        Ok(names)
    }

    /// Removes one map's whole segment directory (forced reindex).
    pub fn remove_segments(&self, map: MapKind) -> io::Result<()> {
        match fs::remove_dir_all(self.segments_dir(map)) {
            Ok(()) => Ok(()),
            Err(err) if err.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(err) => Err(err),
        }
    }

    /// Collects the corpus files under directory `dir`, following
    /// symlinked directories as [`Path::is_dir`] does.
    fn walk(&self, dir: &Path, out: &mut Vec<DatasetEntry>) -> io::Result<()> {
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let path = entry.path();
            // Dot-prefixed names (the cache file, editor droppings) are
            // never corpus members; skip them before any path parsing.
            if path
                .file_name()
                .is_some_and(|name| name.as_encoded_bytes().starts_with(b"."))
            {
                continue;
            }
            // The directory entry's own type costs no system call; only
            // a symlink needs a stat to learn what it points to.
            let file_type = entry.file_type()?;
            if file_type.is_dir() || (file_type.is_symlink() && path.is_dir()) {
                self.walk(&path, out)?;
            } else if let Ok(relative) = path.strip_prefix(&self.root) {
                if let Some((map, kind, timestamp)) = parse_path(relative) {
                    out.push(DatasetEntry {
                        map,
                        kind,
                        timestamp,
                        size: entry.metadata()?.len(),
                    });
                }
            }
        }
        Ok(())
    }
}

/// Publishes `bytes` at `path` atomically: the bytes go to a temporary
/// sibling (`<name>.tmp`) that is then renamed over the target, so a
/// reader sees the old file or the new one, never a partial write.
fn publish(path: &Path, bytes: &[u8]) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> DatasetStore {
        let dir =
            std::env::temp_dir().join(format!("wm-dataset-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        DatasetStore::open(dir).expect("temp store")
    }

    #[test]
    fn write_read_round_trip() {
        let store = temp_store("rw");
        let t = Timestamp::from_ymd_hms(2021, 3, 5, 10, 5, 0);
        store
            .write(MapKind::Europe, FileKind::Svg, t, b"<svg/>")
            .unwrap();
        assert!(store.contains(MapKind::Europe, FileKind::Svg, t));
        let bytes = store.read(MapKind::Europe, FileKind::Svg, t).unwrap();
        assert_eq!(&bytes[..], b"<svg/>");
        fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn entries_enumerate_and_sort() {
        let store = temp_store("enum");
        let base = Timestamp::from_ymd_hms(2021, 3, 5, 10, 0, 0);
        for i in (0..5).rev() {
            let t = base + wm_model::Duration::from_minutes(5 * i);
            store
                .write(MapKind::Europe, FileKind::Svg, t, b"x")
                .unwrap();
        }
        store
            .write(MapKind::AsiaPacific, FileKind::Yaml, base, b"yy")
            .unwrap();
        let entries = store.entries().unwrap();
        assert_eq!(entries.len(), 6);
        let europe = store.entries_of(MapKind::Europe, FileKind::Svg).unwrap();
        assert_eq!(europe.len(), 5);
        assert!(europe.windows(2).all(|w| w[0].timestamp < w[1].timestamp));
        assert_eq!(europe[0].size, 1);
        fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn narrow_listing_equals_the_filtered_full_walk() {
        let store = temp_store("narrow");
        let t = Timestamp::from_ymd_hms(2022, 2, 1, 10, 0, 0);
        let later = t + wm_model::Duration::from_minutes(5);
        // Both kinds for Europe, YAML only for World (its SVG directory
        // is missing), nothing for the other maps.
        for (map, kind, at) in [
            (MapKind::Europe, FileKind::Svg, t),
            (MapKind::Europe, FileKind::Svg, later),
            (MapKind::Europe, FileKind::Yaml, later),
            (MapKind::World, FileKind::Yaml, t),
        ] {
            store.write(map, kind, at, b"snapshot").unwrap();
        }
        // Foreign files at every level, a dot-directory holding a
        // well-formed layout, a map directory under an alias spelling,
        // a file whose four-byte stem is not four digits, and a
        // symlinked day directory.
        let root = store.root();
        fs::write(root.join("README.txt"), "x").unwrap();
        fs::write(root.join("europe/yaml/2022/02/01/1é1.yaml"), "not digits").unwrap();
        fs::write(root.join("europe/notes.md"), "x").unwrap();
        fs::write(root.join("europe/yaml/2022/02/01/1000.svg"), "x").unwrap();
        fs::create_dir_all(root.join("europe/.segments/yaml/2022/02/01")).unwrap();
        fs::write(root.join("europe/.segments/yaml/2022/02/01/1100.yaml"), "x").unwrap();
        fs::create_dir_all(root.join(".hidden/europe/yaml/2022/02/01")).unwrap();
        fs::write(root.join(".hidden/europe/yaml/2022/02/01/1200.yaml"), "x").unwrap();
        fs::create_dir_all(root.join("eu/yaml/2022/02/02")).unwrap();
        fs::write(root.join("eu/yaml/2022/02/02/0000.yaml"), "alias").unwrap();
        fs::create_dir_all(root.join("elsewhere/03")).unwrap();
        fs::write(root.join("elsewhere/03/0000.yaml"), "linked").unwrap();
        #[cfg(unix)]
        std::os::unix::fs::symlink(
            root.join("elsewhere/03"),
            root.join("world/yaml/2022/02/03"),
        )
        .unwrap();

        let all = store.entries().unwrap();
        assert!(
            all.iter().all(|e| e.size != 5),
            "alias directory not listed"
        );
        assert!(all.iter().all(|e| e.size != 10), "non-digit stem skipped");
        #[cfg(unix)]
        assert!(
            all.iter().any(|e| e.size == 6),
            "symlinked directory followed"
        );
        for map in MapKind::ALL {
            for kind in FileKind::ALL {
                let filtered: Vec<DatasetEntry> = all
                    .iter()
                    .filter(|e| e.map == map && e.kind == kind)
                    .cloned()
                    .collect();
                assert_eq!(
                    store.entries_of(map, kind).unwrap(),
                    filtered,
                    "{map} {kind:?}"
                );
            }
        }
        fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn open_existing_rejects_missing_roots() {
        let dir = std::env::temp_dir().join(format!(
            "wm-dataset-test-absent-{}-does-not-exist",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let err = DatasetStore::open_existing(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert!(!dir.exists(), "open_existing must not create the root");

        // Once the tree exists, the same path opens fine.
        let created = temp_store("absent-then-present");
        let reopened = DatasetStore::open_existing(created.root()).unwrap();
        assert_eq!(reopened.root(), created.root());
        fs::remove_dir_all(created.root()).unwrap();
    }

    #[test]
    fn foreign_files_are_ignored() {
        let store = temp_store("foreign");
        fs::write(store.root().join("README.txt"), "hello").unwrap();
        fs::create_dir_all(store.root().join("europe/svg/2021/03/05")).unwrap();
        fs::write(store.root().join("europe/svg/2021/03/05/notes.md"), "x").unwrap();
        assert!(store.entries().unwrap().is_empty());
        fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn cache_and_dotfiles_never_surface_as_entries() {
        let store = temp_store("dotfiles");
        let t = Timestamp::from_ymd_hms(2022, 2, 1, 0, 0, 0);
        store
            .write(MapKind::Europe, FileKind::Yaml, t, b"map: europe")
            .unwrap();

        // A leftover cache file from older releases, a torn temporary,
        // editor backups next to a real snapshot, and a hidden swap file
        // in a date directory.
        fs::write(
            store.root().join("europe/.longitudinal.cache"),
            b"cache bytes",
        )
        .unwrap();
        fs::write(store.root().join("europe/.longitudinal.cache.tmp"), b"torn").unwrap();
        let date_dir = store.root().join("europe/yaml/2022/02/01");
        fs::write(date_dir.join("0000.yaml~"), b"backup").unwrap();
        fs::write(date_dir.join(".0000.yaml.swp"), b"swap").unwrap();
        fs::write(date_dir.join("0000.yaml.bak"), b"bak").unwrap();

        let entries = store.entries().unwrap();
        assert_eq!(entries.len(), 1, "only the real snapshot: {entries:?}");
        assert_eq!(entries[0].timestamp, t);
        assert_eq!(entries[0].size, 11);
        fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn segment_files_round_trip_and_stay_invisible() {
        let store = temp_store("segfiles");
        let t = Timestamp::from_ymd_hms(2022, 2, 1, 0, 0, 0);
        store
            .write(MapKind::Europe, FileKind::Yaml, t, b"map: europe")
            .unwrap();

        assert_eq!(store.read_manifest_bytes(MapKind::Europe).unwrap(), None);
        assert!(store
            .list_segment_files(MapKind::Europe)
            .unwrap()
            .is_empty());

        store
            .write_segment_file(MapKind::Europe, "seg-00.seg", b"one")
            .unwrap();
        store
            .write_segment_file(MapKind::Europe, "seg-01.seg", b"two")
            .unwrap();
        store.write_manifest_bytes(MapKind::Europe, b"mf").unwrap();
        assert_eq!(
            store.list_segment_files(MapKind::Europe).unwrap(),
            vec!["seg-00.seg".to_owned(), "seg-01.seg".to_owned()]
        );
        assert_eq!(
            store
                .read_segment_file(MapKind::Europe, "seg-00.seg")
                .unwrap()
                .as_deref(),
            Some(&b"one"[..])
        );
        assert_eq!(
            store
                .read_manifest_bytes(MapKind::Europe)
                .unwrap()
                .as_deref(),
            Some(&b"mf"[..])
        );
        // No temporaries linger after the atomic writes.
        assert!(!store
            .segments_dir(MapKind::Europe)
            .join("seg-00.seg.tmp")
            .exists());
        assert!(!store
            .segments_dir(MapKind::Europe)
            .join("manifest.tmp")
            .exists());

        // The dot-prefixed directory never pollutes corpus enumeration.
        let entries = store.entries().unwrap();
        assert_eq!(entries.len(), 1, "only the snapshot: {entries:?}");

        store
            .remove_segment_file(MapKind::Europe, "seg-01.seg")
            .unwrap();
        store
            .remove_segment_file(MapKind::Europe, "seg-01.seg")
            .unwrap();
        assert_eq!(
            store.list_segment_files(MapKind::Europe).unwrap(),
            vec!["seg-00.seg".to_owned()]
        );
        store.remove_segments(MapKind::Europe).unwrap();
        assert!(!store.segments_dir(MapKind::Europe).exists());
        store.remove_segments(MapKind::Europe).unwrap();
        fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn missing_file_read_errors() {
        let store = temp_store("missing");
        let t = Timestamp::from_unix(0);
        let err = store.read(MapKind::World, FileKind::Svg, t).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        let path = store.path_of(MapKind::World, FileKind::Svg, t);
        assert!(
            err.to_string().contains(&path.display().to_string()),
            "the error names the file: {err}"
        );
        assert!(!store.contains(MapKind::World, FileKind::Svg, t));
        fs::remove_dir_all(store.root()).unwrap();
    }

    /// A regular file where a directory of the path should be fails the
    /// directory creation, and a directory at the file's own path fails
    /// the write; each error keeps its kind and names the file.
    #[test]
    fn write_errors_name_the_file() {
        let store = temp_store("write-errors");
        let t = Timestamp::from_unix(0);
        let path = store.path_of(MapKind::World, FileKind::Svg, t);
        let blocker = store.root().join("world").join("svg");
        fs::create_dir_all(store.root().join("world")).unwrap();
        fs::write(&blocker, b"not a directory").unwrap();
        let expected = fs::create_dir_all(path.parent().unwrap())
            .unwrap_err()
            .kind();
        let err = store
            .write(MapKind::World, FileKind::Svg, t, b"<svg/>")
            .unwrap_err();
        assert_eq!(err.kind(), expected);
        assert!(
            err.to_string().contains(&path.display().to_string()),
            "the error names the file: {err}"
        );

        fs::remove_file(&blocker).unwrap();
        fs::create_dir_all(&path).unwrap();
        let expected = fs::write(&path, b"").unwrap_err().kind();
        let err = store
            .write(MapKind::World, FileKind::Svg, t, b"<svg/>")
            .unwrap_err();
        assert_eq!(err.kind(), expected);
        assert!(
            err.to_string().contains(&path.display().to_string()),
            "the error names the file: {err}"
        );
        fs::remove_dir_all(store.root()).unwrap();
    }

    /// The write that finds no day directory creates it; a regular file
    /// where the day directory belongs fails the write, and the error
    /// names the file.
    #[test]
    fn write_creates_a_missing_day_directory_once() {
        let store = temp_store("write-dirs");
        let first = Timestamp::from_ymd_hms(2021, 3, 5, 10, 5, 0);
        let second = Timestamp::from_ymd_hms(2021, 3, 5, 10, 10, 0);
        for t in [first, second] {
            store
                .write(MapKind::Europe, FileKind::Yaml, t, b"x")
                .unwrap();
            assert_eq!(
                store.read(MapKind::Europe, FileKind::Yaml, t).unwrap(),
                b"x"
            );
        }

        let t = Timestamp::from_ymd_hms(2021, 3, 6, 0, 0, 0);
        let path = store.path_of(MapKind::Europe, FileKind::Yaml, t);
        let day = path.parent().unwrap();
        fs::write(day, b"not a directory").unwrap();
        let err = store
            .write(MapKind::Europe, FileKind::Yaml, t, b"x")
            .unwrap_err();
        assert!(
            err.to_string().contains(&path.display().to_string()),
            "the error names the file: {err}"
        );
        assert_eq!(fs::read(day).unwrap(), b"not a directory");
        fs::remove_dir_all(store.root()).unwrap();
    }

    #[test]
    fn overwrite_is_allowed() {
        // Re-collection replaces the snapshot, like the paper's scraper
        // overwriting the most recent file.
        let store = temp_store("overwrite");
        let t = Timestamp::from_unix(0);
        store
            .write(MapKind::Europe, FileKind::Svg, t, b"v1")
            .unwrap();
        store
            .write(MapKind::Europe, FileKind::Svg, t, b"v2!")
            .unwrap();
        assert_eq!(
            &store.read(MapKind::Europe, FileKind::Svg, t).unwrap()[..],
            b"v2!"
        );
        let entries = store.entries().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].size, 3);
        fs::remove_dir_all(store.root()).unwrap();
    }
}
