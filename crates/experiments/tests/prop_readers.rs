//! The experiment readers of on-disk input never panic: scenario JSON,
//! the run journal and case-store entries. Arbitrary text, truncated
//! valid files and bit-flipped valid files all end in a result the
//! caller classifies — an `EngineError`, an `io::Error`, a skipped torn
//! journal line, or a store miss that `cache verify` names.

use bps_experiments::journal::Journal;
use bps_experiments::persist::fnv1a;
use bps_experiments::runner::{CasePoint, UnitValues};
use bps_experiments::scenario::engine;
use bps_experiments::scenario::registry;
use bps_experiments::scenario::store::CaseStore;
use proptest::prelude::*;
use std::path::{Path, PathBuf};

/// Far deeper than any parser stack could recurse through.
fn deep_nesting() -> String {
    "[".repeat(1_000_000)
}

/// A high surrogate followed by an escape that is not a low surrogate.
const BAD_SURROGATE: &str = r#"{"name":"\ud800\u0041"}"#;

/// Valid scenario documents: a bundled figure and a JSON-only example.
fn valid_scenarios() -> Vec<String> {
    vec![
        serde_json::to_string_pretty(&registry::find("fig9").expect("bundled fig9")).unwrap(),
        include_str!("../../../examples/scenarios/custom-topology.json")
            .trim_end()
            .to_string(),
    ]
}

/// Text biased towards JSON structure and escapes, so the parser gets
/// past the first byte.
fn jsonish_text() -> impl Strategy<Value = String> {
    let piece = prop_oneof![
        Just("[".to_string()),
        Just("]".to_string()),
        Just("{".to_string()),
        Just("}".to_string()),
        Just("\"".to_string()),
        Just("\\u".to_string()),
        Just("\\ud800".to_string()),
        Just(":".to_string()),
        Just(",".to_string()),
        Just("\n".to_string()),
        Just("\"kind\":\"unit\"".to_string()),
        (0u32..0x1_0000).prop_map(|v| format!("{v:04x}")),
        any::<u32>().prop_map(|v| char::from_u32(v % 0x11_0000)
            .unwrap_or('\u{fffd}')
            .to_string()),
    ];
    proptest::collection::vec(piece, 0..64).prop_map(|v| v.concat())
}

/// A scratch directory for one case; unique per process and case.
fn scratch(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "bps_prop_readers-{}-{tag}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn flip_bits(bytes: &mut [u8], flips: &[(usize, u8)]) {
    let len = bytes.len();
    for (at, bit) in flips {
        bytes[at % len] ^= 1 << bit;
    }
}

/// A journal holding one header and one unit line.
fn valid_journal(dir: &Path) -> Vec<u8> {
    let path = dir.join("valid.jsonl");
    let journal = Journal::create(&path, &["run".to_string(), "fig4".to_string()]).unwrap();
    let values = UnitValues {
        iops: Some(1.5),
        bw: None,
        arpt: Some(0.25),
        bps: Some(3e4),
        exec_s: 2.0,
        extra: vec![("p99".to_string(), Some(0.5))],
    };
    journal.record("case#1", "hdd", 1, &values);
    drop(journal);
    std::fs::read(&path).unwrap()
}

/// `Journal::open_resume` on `bytes` returns `Ok` or an `io::Error`.
fn resume_bytes(dir: &Path, bytes: &[u8]) -> std::io::Result<usize> {
    let path = dir.join("journal.jsonl");
    std::fs::write(&path, bytes).unwrap();
    Journal::open_resume(&path).map(|(j, _)| j.replayed_units())
}

const KEY: &str = "case-key|Scale { .. }|[\"BPS\"]";

fn point() -> CasePoint {
    CasePoint {
        label: "hdd".to_string(),
        iops: 1.5,
        bw: 2.5,
        arpt: 0.25,
        bps: 3e4,
        exec_s: 2.0,
        extra: vec![("p99".to_string(), 0.5)],
        failed: None,
    }
}

/// A store holding one entry for [`KEY`], and that entry's file.
fn store_with_entry(dir: &Path) -> (CaseStore, PathBuf) {
    let store = CaseStore::at(dir.join("store"));
    store.insert(KEY, &point());
    let file = std::fs::read_dir(store.dir())
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "case"))
        .expect("entry written");
    (store, file)
}

fn bits(p: &CasePoint) -> Vec<u64> {
    let mut v = vec![
        p.iops.to_bits(),
        p.bw.to_bits(),
        p.arpt.to_bits(),
        p.bps.to_bits(),
        p.exec_s.to_bits(),
    ];
    v.extend(p.extra.iter().map(|(_, x)| x.to_bits()));
    v
}

/// Replace the entry file with `bytes`: a lookup either serves exactly
/// the stored point (the damage missed everything the reader checks) or
/// misses, and then `verify` names the file.
fn check_store_entry(store: &CaseStore, file: &Path, bytes: &[u8]) {
    std::fs::write(file, bytes).unwrap();
    let (checked, problems) = store.verify();
    prop_assert_eq!(checked, 1);
    let name = file.file_name().unwrap().to_string_lossy().into_owned();
    match store.lookup(KEY) {
        Some(served) => {
            prop_assert_eq!(&served.label, "hdd");
            prop_assert_eq!(bits(&served), bits(&point()));
            prop_assert!(problems.is_empty(), "served but flagged: {:?}", problems);
        }
        None => {
            prop_assert!(
                problems.iter().any(|p| p.file == name),
                "missed entry {} not named by verify: {:?}",
                name,
                problems
            );
        }
    }
}

/// A store entry sealed around `payload`: the sum holds, so the reader
/// gets as far as parsing the JSON.
fn entry_around(payload: &str) -> String {
    format!(
        "{payload},\"sum\":\"{:016x}\"}}\n",
        fnv1a(payload.as_bytes())
    )
}

#[test]
fn deep_nesting_and_bad_surrogates_are_classified() {
    for text in [deep_nesting(), BAD_SURROGATE.to_string()] {
        let e = engine::load_str(&text).unwrap_err();
        assert_eq!(e.kind(), engine::EngineErrorKind::InvalidSpec, "{e}");

        let dir = scratch("fixed");
        // As the header line there is no header: an InvalidData error.
        let err = resume_bytes(&dir, text.as_bytes()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // After a valid journal it is a torn line: skipped, and the
        // valid unit still replays.
        let mut journal = valid_journal(&dir);
        journal.extend_from_slice(text.as_bytes());
        journal.push(b'\n');
        assert_eq!(resume_bytes(&dir, &journal).unwrap(), 1);

        let (store, file) = store_with_entry(&dir);
        std::fs::write(&file, entry_around(&text)).unwrap();
        assert!(store.lookup(KEY).is_none());
        let (_, problems) = store.verify();
        assert_eq!(problems.len(), 1);
        assert_eq!(problems[0].reason, "corrupt: unparseable payload");
        std::fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    #[test]
    fn arbitrary_text_never_panics(
        text in jsonish_text(),
        raw in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let _ = engine::load_str(&text);
        let dir = scratch("arbitrary");
        let _ = resume_bytes(&dir, text.as_bytes());
        let _ = resume_bytes(&dir, &raw);
        let mut journal = valid_journal(&dir);
        journal.extend_from_slice(text.as_bytes());
        prop_assert!(resume_bytes(&dir, &journal).is_ok());
        let (store, file) = store_with_entry(&dir);
        check_store_entry(&store, &file, text.as_bytes());
        check_store_entry(&store, &file, entry_around(&text).as_bytes());
        check_store_entry(&store, &file, &raw);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_inputs_never_panic(cut in any::<usize>()) {
        for doc in valid_scenarios() {
            let cut = cut % doc.len();
            let text = String::from_utf8_lossy(&doc.as_bytes()[..cut]);
            prop_assert!(engine::load_str(&text).is_err());
        }
        let dir = scratch("truncated");
        let journal = valid_journal(&dir);
        let _ = resume_bytes(&dir, &journal[..cut % journal.len()]);
        let (store, file) = store_with_entry(&dir);
        let entry = std::fs::read(&file).unwrap();
        check_store_entry(&store, &file, &entry[..cut % entry.len()]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flipped_inputs_never_panic(
        flips in proptest::collection::vec((any::<usize>(), 0u8..8), 1..4),
    ) {
        for doc in valid_scenarios() {
            let mut bytes = doc.into_bytes();
            flip_bits(&mut bytes, &flips);
            let _ = engine::load_str(&String::from_utf8_lossy(&bytes));
        }
        let dir = scratch("flipped");
        let mut journal = valid_journal(&dir);
        flip_bits(&mut journal, &flips);
        let _ = resume_bytes(&dir, &journal);
        let (store, file) = store_with_entry(&dir);
        let mut entry = std::fs::read(&file).unwrap();
        flip_bits(&mut entry, &flips);
        check_store_entry(&store, &file, &entry);
        std::fs::remove_dir_all(&dir).ok();
    }
}
