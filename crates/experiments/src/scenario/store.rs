//! Persistent content-addressed case store — the second level of the
//! case cache.
//!
//! The in-process memo ([`super::engine`]) only helps within one run of
//! the binary; this store persists scored [`CasePoint`]s on disk so a
//! *fresh process* replays them instead of re-simulating. Entries are
//! addressed by the engine's content key (every field that feeds the
//! simulation — see [`super::engine::content_key`]) and stamped with the
//! build's code fingerprint (`BPS_CODE_FINGERPRINT`, computed by
//! `build.rs` over every workspace source file), so a binary built from
//! different sources never replays entries it did not produce.
//!
//! ## Guarantees
//!
//! - **Bit-exact replay.** Each entry file is one sealed line of
//!   [`crate::persist`], the run journal's format: every `f64` is the
//!   16-hex-digit encoding of its IEEE-754 bits, so a cache-served report
//!   is byte-identical to a cold one.
//! - **Torn writes never poison a run.** A sealed line ends in the FNV-1a
//!   of every byte before it; a truncated or bit-flipped entry fails the
//!   check and is treated as a miss (silently recomputed). `reproduce
//!   cache verify` names such entries.
//! - **Concurrent writers are safe.** Entries are written to a
//!   process-unique temp file and atomically renamed into place; two
//!   processes racing on one key leave one complete entry, never an
//!   interleaving.
//! - **Failures never persist.** A point whose every seed failed (panic,
//!   timeout) is environment-dependent and is not written.
//!
//! ## Control surface
//!
//! The CLI installs the store at [`env_dir`] unless `--no-cache` is
//! given; `BPS_CACHE_DIR` overrides the default location (the build's
//! `target/bps-cache/`). `reproduce cache stats|verify|clear` inspects
//! and manages the store.

use crate::persist::{self, fnv1a, metric_fields, read_metrics, seal, unseal};
use crate::runner::CasePoint;
use serde::Value;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

pub use crate::persist::code_fingerprint;

/// On-disk entry format version (bumped on layout changes; a version
/// mismatch is a miss).
pub const VERSION: u64 = 2;

static STORE_HITS: AtomicU64 = AtomicU64::new(0);
static STORE_MISSES: AtomicU64 = AtomicU64::new(0);

/// Lifetime (hits, misses) counters of the persistent store — `hits`
/// counts cases served from disk, `misses` lookups that fell through to
/// simulation (absent, stale, or corrupt entries).
pub fn store_stats() -> (u64, u64) {
    (
        STORE_HITS.load(Ordering::Relaxed),
        STORE_MISSES.load(Ordering::Relaxed),
    )
}

/// Why an on-disk entry cannot be served.
enum EntryState {
    /// Valid and written by this build: the stored key and point.
    Fresh(String, CasePoint),
    /// Structurally valid but written by another build or format version.
    /// Carries the human-readable reason and the foreign origin marker
    /// (`build <fingerprint>` or `format v<N>`) `cache stats` groups by.
    Stale(String, String),
    /// Torn, bit-flipped, or otherwise unparseable.
    Corrupt(String),
}

/// Render a complete entry file: one sealed line.
fn encode_entry(key: &str, point: &CasePoint) -> String {
    let mut fields = persist::stamp(VERSION).to_vec();
    fields.push(("key".to_string(), Value::Str(key.to_string())));
    fields.push(("label".to_string(), Value::Str(point.label.clone())));
    fields.extend(metric_fields(
        [point.exec_s, point.iops, point.bw, point.arpt, point.bps].map(Some),
        point
            .extra
            .iter()
            .map(|(name, x)| (name.as_str(), Some(*x))),
    ));
    seal(fields) + "\n"
}

/// The stored point of an unsealed entry, or `None` if a field is
/// missing, malformed or undefined.
fn read_point(entry: &Value) -> Option<CasePoint> {
    let ([exec_s, iops, bw, arpt, bps], extra) = read_metrics(entry)?;
    Some(CasePoint {
        label: persist::text(entry, "label")?.to_string(),
        iops: iops?,
        bw: bw?,
        arpt: arpt?,
        bps: bps?,
        exec_s: exec_s?,
        extra: extra
            .into_iter()
            .map(|(name, x)| Some((name, x?)))
            .collect::<Option<_>>()?,
        failed: None,
    })
}

/// Classify one entry file's bytes: fresh (servable), stale, or corrupt.
fn parse_entry(bytes: &[u8]) -> EntryState {
    let entry = match unseal(bytes.strip_suffix(b"\n").unwrap_or(bytes)) {
        Ok(entry) => entry,
        Err(why) => return EntryState::Corrupt(why.to_string()),
    };
    if let Err((why, origin)) = persist::check_stamp(&entry, VERSION) {
        return EntryState::Stale(why, origin);
    }
    match (persist::text(&entry, "key"), read_point(&entry)) {
        (Some(key), Some(point)) => EntryState::Fresh(key.to_string(), point),
        _ => EntryState::Corrupt("malformed case point".to_string()),
    }
}

/// Aggregate counts from one walk of the store directory.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct StoreStats {
    /// Entry files present.
    pub entries: usize,
    /// Entries this build can serve.
    pub fresh: usize,
    /// Entries written by another build or format version.
    pub stale: usize,
    /// Torn or bit-flipped entries.
    pub corrupt: usize,
    /// Total bytes of all entry files.
    pub bytes: u64,
    /// Stale entries grouped by origin (`build <fingerprint>` or
    /// `format v<N>`), most numerous first, ties by name — so `cache
    /// stats` can say *which* rebuild orphaned them.
    pub stale_origins: Vec<(String, usize)>,
}

/// One unservable entry, named for `cache verify`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntryProblem {
    /// The entry's file name inside the store directory.
    pub file: String,
    /// Why it cannot be served.
    pub reason: String,
}

/// A content-addressed directory of scored case points.
pub struct CaseStore {
    dir: PathBuf,
}

impl CaseStore {
    /// A store rooted at `dir` (created lazily on first insert).
    pub fn at(dir: impl Into<PathBuf>) -> CaseStore {
        CaseStore { dir: dir.into() }
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The entry file a key lives in: the FNV-1a hash of the key, in
    /// hex. The full key is stored *inside* the entry and compared on
    /// read, so a filename collision degrades to a miss, never a wrong
    /// answer.
    fn entry_path(&self, key: &str) -> PathBuf {
        self.dir
            .join(format!("{:016x}.case", fnv1a(key.as_bytes())))
    }

    /// The stored point for a content key, or `None` (entry absent,
    /// stale, corrupt, or a filename collision). Misses are silent —
    /// the engine just simulates.
    pub fn lookup(&self, key: &str) -> Option<CasePoint> {
        use bps_telemetry::Counter;
        let found =
            fs::read(self.entry_path(key))
                .ok()
                .and_then(|bytes| match parse_entry(&bytes) {
                    EntryState::Fresh(stored_key, point) if stored_key == key => Some(point),
                    EntryState::Stale(..) => {
                        bps_telemetry::incr(Counter::CacheL2Stale);
                        None
                    }
                    EntryState::Corrupt(_) => {
                        bps_telemetry::incr(Counter::CacheL2Corrupt);
                        None
                    }
                    EntryState::Fresh(..) => None,
                });
        match &found {
            Some(_) => {
                STORE_HITS.fetch_add(1, Ordering::Relaxed);
                bps_telemetry::incr(Counter::CacheL2Hits);
            }
            None => {
                STORE_MISSES.fetch_add(1, Ordering::Relaxed);
                bps_telemetry::incr(Counter::CacheL2Misses);
            }
        };
        found
    }

    /// Persist a scored point under its content key. Failed points are
    /// skipped (a timeout on this machine says nothing about the next),
    /// and I/O errors are reported but never fatal — losing cache
    /// durability must not kill a healthy run.
    pub fn insert(&self, key: &str, point: &CasePoint) {
        if point.failed.is_some() {
            return;
        }
        if let Err(e) = self.try_insert(key, point) {
            eprintln!(
                "warning: case store: cannot write entry under {}: {e}",
                self.dir.display()
            );
        } else {
            bps_telemetry::incr(bps_telemetry::Counter::CacheL2Writes);
        }
    }

    fn try_insert(&self, key: &str, point: &CasePoint) -> io::Result<()> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        fs::create_dir_all(&self.dir)?;
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::write(&tmp, encode_entry(key, point))?;
        fs::rename(&tmp, self.entry_path(key)).inspect_err(|_| {
            fs::remove_file(&tmp).ok();
        })
    }

    /// Every entry file, in name order (deterministic listings).
    fn entry_files(&self) -> Vec<PathBuf> {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut files: Vec<PathBuf> = entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "case"))
            .collect();
        files.sort();
        files
    }

    /// Walk the store and count entries by state.
    pub fn stats(&self) -> StoreStats {
        let mut s = StoreStats::default();
        let mut origins: Vec<(String, usize)> = Vec::new();
        for path in self.entry_files() {
            s.entries += 1;
            s.bytes += fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            match fs::read(&path).map(|b| parse_entry(&b)) {
                Ok(EntryState::Fresh(..)) => s.fresh += 1,
                Ok(EntryState::Stale(_, origin)) => {
                    s.stale += 1;
                    match origins.iter_mut().find(|(o, _)| *o == origin) {
                        Some((_, n)) => *n += 1,
                        None => origins.push((origin, 1)),
                    }
                }
                _ => s.corrupt += 1,
            }
        }
        origins.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        s.stale_origins = origins;
        s
    }

    /// Walk the store and name every entry that cannot be served,
    /// with the reason. Returns `(entries checked, problems)`.
    pub fn verify(&self) -> (usize, Vec<EntryProblem>) {
        let mut checked = 0;
        let mut problems = Vec::new();
        for path in self.entry_files() {
            checked += 1;
            let file = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            let reason = match fs::read(&path).map(|b| parse_entry(&b)) {
                Ok(EntryState::Fresh(..)) => continue,
                Ok(EntryState::Stale(r, _)) => format!("stale: {r}"),
                Ok(EntryState::Corrupt(r)) => format!("corrupt: {r}"),
                Err(e) => format!("unreadable: {e}"),
            };
            problems.push(EntryProblem { file, reason });
        }
        (checked, problems)
    }

    /// Remove every entry (and any leftover temp file); returns the
    /// number of entries removed.
    pub fn clear(&self) -> io::Result<usize> {
        let mut removed = 0;
        let entries = match fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e),
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.extension().is_some_and(|x| x == "case") {
                fs::remove_file(&path)?;
                removed += 1;
            } else if name.starts_with(".tmp-") {
                fs::remove_file(&path).ok();
            }
        }
        Ok(removed)
    }
}

fn active_slot() -> &'static Mutex<Option<Arc<CaseStore>>> {
    static ACTIVE: OnceLock<Mutex<Option<Arc<CaseStore>>>> = OnceLock::new();
    ACTIVE.get_or_init(Default::default)
}

/// Install (or clear) the process-wide store the engine consults. The
/// CLI installs the store at [`env_dir`] unless `--no-cache` is given; the
/// engine's own unit tests never install one, so in-process tests stay
/// hermetic.
pub fn set_active(store: Option<Arc<CaseStore>>) {
    *active_slot().lock().expect("case store slot poisoned") = store;
}

/// The process-wide store, if one is installed.
pub fn active() -> Option<Arc<CaseStore>> {
    active_slot()
        .lock()
        .expect("case store slot poisoned")
        .clone()
}

/// The store directory the environment selects: `BPS_CACHE_DIR` if set,
/// else `bps-cache/` under the build's `target/` directory (found from
/// the running binary's path), else `target/bps-cache` relative to the
/// working directory.
pub fn env_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("BPS_CACHE_DIR") {
        return PathBuf::from(dir);
    }
    if let Ok(exe) = std::env::current_exe() {
        if let Some(target) = exe
            .ancestors()
            .find(|a| a.file_name().is_some_and(|n| n == "target"))
        {
            return target.join("bps-cache");
        }
    }
    PathBuf::from("target/bps-cache")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bps_store_tests-{}-{name}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        dir
    }

    fn point(x: f64) -> CasePoint {
        CasePoint {
            label: "hdd".to_string(),
            iops: x,
            bw: x * 0.5,
            arpt: f64::NAN,
            bps: -x,
            exec_s: x + 0.125,
            extra: vec![("P99".to_string(), x * 2.0)],
            failed: None,
        }
    }

    #[test]
    fn round_trips_bits_exactly_including_nan() {
        let store = CaseStore::at(tmp("roundtrip"));
        let p = point(std::f64::consts::PI);
        store.insert("case-a", &p);
        let back = store.lookup("case-a").expect("entry written");
        assert_eq!(back.label, p.label);
        assert_eq!(back.iops.to_bits(), p.iops.to_bits());
        assert_eq!(back.bw.to_bits(), p.bw.to_bits());
        // NaN survives bit-for-bit — the point of the hex encoding.
        assert_eq!(back.arpt.to_bits(), p.arpt.to_bits());
        assert_eq!(back.bps.to_bits(), p.bps.to_bits());
        assert_eq!(back.exec_s.to_bits(), p.exec_s.to_bits());
        assert_eq!(back.extra.len(), 1);
        assert_eq!(back.extra[0].0, "P99");
        assert_eq!(back.extra[0].1.to_bits(), p.extra[0].1.to_bits());
        fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn absent_entry_is_a_miss() {
        let store = CaseStore::at(tmp("absent"));
        assert!(store.lookup("nothing-here").is_none());
    }

    #[test]
    fn truncated_entry_is_a_silent_miss_and_verify_names_it() {
        let store = CaseStore::at(tmp("torn"));
        store.insert("case-t", &point(1.0));
        let path = store
            .dir()
            .join(format!("{:016x}.case", fnv1a("case-t".as_bytes())));
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() - 20]).unwrap();
        assert!(store.lookup("case-t").is_none());
        let (checked, problems) = store.verify();
        assert_eq!(checked, 1);
        assert_eq!(problems.len(), 1);
        assert!(problems[0].reason.contains("torn"), "{:?}", problems[0]);
        assert!(path.to_string_lossy().contains(&problems[0].file));
        fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn bit_flipped_payload_fails_the_checksum() {
        let store = CaseStore::at(tmp("flip"));
        store.insert("case-f", &point(2.0));
        let path = store
            .dir()
            .join(format!("{:016x}.case", fnv1a("case-f".as_bytes())));
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() - 10;
        bytes[mid] ^= 0x20;
        fs::write(&path, &bytes).unwrap();
        assert!(store.lookup("case-f").is_none());
        let (_, problems) = store.verify();
        assert_eq!(problems.len(), 1);
        assert!(
            problems[0].reason.contains("checksum")
                || problems[0].reason.contains("unparseable")
                || problems[0].reason.contains("malformed"),
            "{:?}",
            problems[0]
        );
        fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn foreign_fingerprint_is_stale_not_served() {
        let store = CaseStore::at(tmp("stale"));
        store.insert("case-s", &point(3.0));
        let path = store
            .dir()
            .join(format!("{:016x}.case", fnv1a("case-s".as_bytes())));
        // Rewrite the entry as a different build would have: swap the
        // fingerprint and reseal, so the checksum still holds.
        let Ok(Value::Object(mut fields)) = unseal(fs::read(&path).unwrap().trim_ascii_end())
        else {
            panic!("entry unseals to an object");
        };
        for (name, value) in &mut fields {
            if name == "fingerprint" {
                *value = Value::Str("deadbeefdeadbeef".to_string());
            }
        }
        fs::write(&path, seal(fields)).unwrap();
        assert!(store.lookup("case-s").is_none());
        let stats = store.stats();
        assert_eq!((stats.entries, stats.stale, stats.corrupt), (1, 1, 0));
        fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn filename_collision_degrades_to_a_miss() {
        let store = CaseStore::at(tmp("collide"));
        store.insert("key-a", &point(4.0));
        // Simulate two keys hashing to one file: move a's entry where
        // b's would live. The embedded key no longer matches -> miss.
        let a = store.dir().join(format!("{:016x}.case", fnv1a(b"key-a")));
        let b = store.dir().join(format!("{:016x}.case", fnv1a(b"key-b")));
        fs::rename(&a, &b).unwrap();
        assert!(store.lookup("key-b").is_none());
        assert!(store.lookup("key-a").is_none());
        fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn failed_points_are_never_persisted() {
        let store = CaseStore::at(tmp("failed"));
        let mut p = point(5.0);
        p.failed = Some(crate::supervise::FailureKind::Timeout);
        store.insert("case-x", &p);
        assert!(store.lookup("case-x").is_none());
        assert_eq!(store.stats().entries, 0);
        fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn stats_verify_clear_round_trip() {
        let store = CaseStore::at(tmp("admin"));
        for i in 0..3 {
            store.insert(&format!("case-{i}"), &point(i as f64));
        }
        let s = store.stats();
        assert_eq!((s.entries, s.fresh, s.stale, s.corrupt), (3, 3, 0, 0));
        assert!(s.bytes > 0);
        let (checked, problems) = store.verify();
        assert_eq!((checked, problems.len()), (3, 0));
        assert_eq!(store.clear().unwrap(), 3);
        assert_eq!(store.stats().entries, 0);
        assert_eq!(store.clear().unwrap(), 0);
        fs::remove_dir_all(store.dir()).ok();
    }
}
