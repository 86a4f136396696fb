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
//! - **Bit-exact replay.** Every `f64` is stored as the 16-hex-digit
//!   encoding of its IEEE-754 bits — the journal's encoding — so a
//!   cache-served report is byte-identical to a cold one.
//! - **Torn writes never poison a run.** Each entry is a header line
//!   carrying the payload length and an FNV-1a checksum; a truncated or
//!   bit-flipped entry fails the check and is treated as a miss
//!   (silently recomputed). `reproduce cache verify` names such entries.
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

use crate::journal::{f64_from_value, f64_to_value};
use crate::runner::CasePoint;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// On-disk entry format version (bumped on layout changes; a version
/// mismatch is a miss).
pub const VERSION: u64 = 1;

/// The fingerprint of the sources this binary was built from, stamped
/// into every entry it writes.
pub fn code_fingerprint() -> &'static str {
    env!("BPS_CODE_FINGERPRINT")
}

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

/// FNV-1a over a byte string — entry addressing and checksums, here and
/// in the journal's unit lines. Matches the `build.rs` fingerprint hash.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
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

fn point_to_value(key: &str, point: &CasePoint) -> serde::Value {
    let extra = serde::Value::Array(
        point
            .extra
            .iter()
            .map(|(name, v)| {
                serde::Value::Array(vec![serde::Value::Str(name.clone()), f64_to_value(*v)])
            })
            .collect(),
    );
    serde::Value::Object(vec![
        ("version".to_string(), serde::Value::UInt(VERSION)),
        (
            "fingerprint".to_string(),
            serde::Value::Str(code_fingerprint().to_string()),
        ),
        ("key".to_string(), serde::Value::Str(key.to_string())),
        ("label".to_string(), serde::Value::Str(point.label.clone())),
        ("exec_s".to_string(), f64_to_value(point.exec_s)),
        ("iops".to_string(), f64_to_value(point.iops)),
        ("bw".to_string(), f64_to_value(point.bw)),
        ("arpt".to_string(), f64_to_value(point.arpt)),
        ("bps".to_string(), f64_to_value(point.bps)),
        ("extra".to_string(), extra),
    ])
}

fn point_from_value(v: &serde::Value) -> Option<(String, CasePoint)> {
    let str_field = |name: &str| match v.field(name).ok()? {
        serde::Value::Str(s) => Some(s.clone()),
        _ => None,
    };
    let f64_field = |name: &str| f64_from_value(v.field(name).ok()?);
    let extra = match v.field("extra").ok()? {
        serde::Value::Array(items) => {
            let mut extra = Vec::with_capacity(items.len());
            for item in items {
                match item {
                    serde::Value::Array(pair) if pair.len() == 2 => {
                        let name = match &pair[0] {
                            serde::Value::Str(n) => n.clone(),
                            _ => return None,
                        };
                        extra.push((name, f64_from_value(&pair[1])?));
                    }
                    _ => return None,
                }
            }
            extra
        }
        _ => return None,
    };
    let point = CasePoint {
        label: str_field("label")?,
        iops: f64_field("iops")?,
        bw: f64_field("bw")?,
        arpt: f64_field("arpt")?,
        bps: f64_field("bps")?,
        exec_s: f64_field("exec_s")?,
        extra,
        failed: None,
    };
    Some((str_field("key")?, point))
}

/// Render a complete entry file: `bps-case <version> <payload-len>
/// <payload-checksum>` on the first line, the one-line JSON payload on
/// the second.
fn encode_entry(key: &str, point: &CasePoint) -> String {
    let payload =
        serde_json::to_string(&point_to_value(key, point)).expect("case point encodes to JSON");
    format!(
        "bps-case {VERSION} {} {:016x}\n{payload}\n",
        payload.len(),
        fnv1a(payload.as_bytes())
    )
}

/// Classify one entry file's text: fresh (servable), stale, or corrupt.
fn parse_entry(text: &str) -> EntryState {
    let corrupt = |r: &str| EntryState::Corrupt(r.to_string());
    let Some((header, rest)) = text.split_once('\n') else {
        return corrupt("missing header line");
    };
    let fields: Vec<&str> = header.split(' ').collect();
    let [magic, version, len, sum] = fields.as_slice() else {
        return corrupt("malformed header");
    };
    if *magic != "bps-case" {
        return corrupt("bad magic");
    }
    let (Ok(version), Ok(len), Ok(sum)) = (
        version.parse::<u64>(),
        len.parse::<usize>(),
        u64::from_str_radix(sum, 16),
    ) else {
        return corrupt("malformed header");
    };
    if version != VERSION {
        return EntryState::Stale(
            format!("format version {version}; this build reads {VERSION}"),
            format!("format v{version}"),
        );
    }
    let Some(payload) = rest.get(..len) else {
        return corrupt(&format!(
            "torn entry: payload is {} of {len} byte(s)",
            rest.len().saturating_sub(1)
        ));
    };
    if fnv1a(payload.as_bytes()) != sum {
        return corrupt("checksum mismatch");
    }
    let Ok(v) = serde_json::from_str::<serde::Value>(payload) else {
        return corrupt("unparseable payload");
    };
    if let Ok(serde::Value::Str(fp)) = v.field("fingerprint") {
        if fp != code_fingerprint() {
            return EntryState::Stale(
                format!(
                    "written by build {fp}; this build is {}",
                    code_fingerprint()
                ),
                format!("build {fp}"),
            );
        }
    } else {
        return corrupt("missing fingerprint");
    }
    match point_from_value(&v) {
        Some((key, point)) => EntryState::Fresh(key, point),
        None => corrupt("malformed case point"),
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
            fs::read_to_string(self.entry_path(key))
                .ok()
                .and_then(|text| match parse_entry(&text) {
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
            match fs::read_to_string(&path).map(|t| parse_entry(&t)) {
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
            let reason = match fs::read_to_string(&path).map(|t| parse_entry(&t)) {
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
        // fingerprint and restamp the header so the checksum still holds.
        let text = fs::read_to_string(&path).unwrap();
        let payload = text.split_once('\n').unwrap().1.trim_end();
        let forged = payload.replace(code_fingerprint(), "deadbeefdeadbeef");
        assert_ne!(forged, payload, "fingerprint must appear in the payload");
        fs::write(
            &path,
            format!(
                "bps-case {VERSION} {} {:016x}\n{forged}\n",
                forged.len(),
                fnv1a(forged.as_bytes())
            ),
        )
        .unwrap();
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
