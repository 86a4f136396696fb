//! The one on-disk record format round-trips every `f64` bit pattern
//! through both record kinds, and rejects every single-byte change to a
//! sealed line.

use bps_experiments::journal::Journal;
use bps_experiments::persist::{seal, unseal};
use bps_experiments::runner::{CasePoint, UnitValues};
use bps_experiments::scenario::store::CaseStore;
use proptest::prelude::*;
use serde::Value;
use std::path::PathBuf;

/// A scratch directory for one case; unique per process and case.
fn scratch() -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "bps_prop_persist-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Any bit pattern, weighted towards the ones decimal codecs lose: NaN
/// payloads, signed zeros, infinities and subnormals.
fn any_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<u64>().prop_map(f64::from_bits),
        (any::<bool>(), any::<u64>()).prop_map(|(neg, m)| f64::from_bits(
            ((neg as u64) << 63) | 0x7ff0_0000_0000_0000 | (m >> 12).max(1)
        )),
        (any::<bool>(), any::<u64>())
            .prop_map(|(neg, m)| f64::from_bits(((neg as u64) << 63) | (m >> 12))),
        Just(0.0),
        Just(-0.0),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
    ]
}

fn bits(x: Option<f64>) -> Option<u64> {
    x.map(f64::to_bits)
}

proptest! {
    #[test]
    fn f64_bits_survive_a_journal_line_and_a_store_entry(
        xs in proptest::collection::vec(any_f64(), 6),
        undefined in proptest::collection::vec(any::<bool>(), 5),
    ) {
        let opt = |i: usize| (!undefined[i]).then_some(xs[i]);
        let dir = scratch();

        let unit = UnitValues {
            iops: opt(0),
            bw: opt(1),
            arpt: opt(2),
            bps: opt(3),
            exec_s: xs[4],
            extra: vec![("P99".to_string(), opt(4)), ("MaxQD".to_string(), Some(xs[5]))],
        };
        let path = dir.join("run.jsonl");
        Journal::create(&path, &["fig4".to_string()]).unwrap().record("k#1", "hdd", 1, &unit);
        let (journal, args) = Journal::open_resume(&path).unwrap();
        prop_assert_eq!(args, vec!["fig4".to_string()]);
        let back = journal.lookup("k#1").expect("unit replays");
        prop_assert_eq!(
            [back.iops, back.bw, back.arpt, back.bps, Some(back.exec_s)].map(bits),
            [unit.iops, unit.bw, unit.arpt, unit.bps, Some(unit.exec_s)].map(bits)
        );
        prop_assert_eq!(
            back.extra.iter().map(|(n, x)| (n.clone(), bits(*x))).collect::<Vec<_>>(),
            unit.extra.iter().map(|(n, x)| (n.clone(), bits(*x))).collect::<Vec<_>>()
        );

        let point = CasePoint {
            label: "hdd".to_string(),
            iops: xs[0],
            bw: xs[1],
            arpt: xs[2],
            bps: xs[3],
            exec_s: xs[4],
            extra: vec![("P99".to_string(), xs[5])],
            failed: None,
        };
        let store = CaseStore::at(dir.join("store"));
        store.insert("case", &point);
        let back = store.lookup("case").expect("entry served");
        prop_assert_eq!(&back.label, "hdd");
        prop_assert_eq!(
            [back.iops, back.bw, back.arpt, back.bps, back.exec_s, back.extra[0].1].map(f64::to_bits).to_vec(),
            xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Every position of a sealed line, each substituted by an arbitrary
    /// byte and by its ASCII case twin (`a` for `A` reads as the same hex
    /// digit to a lenient parser).
    #[test]
    fn every_single_byte_substitution_is_rejected(
        label in proptest::collection::vec(any::<u32>(), 0..12),
        x in any_f64(),
        byte in any::<u8>(),
    ) {
        // Half ASCII, so quotes, backslashes and control characters that
        // the writer must escape turn up often.
        let label = label
            .iter()
            .filter_map(|&c| char::from_u32(if c % 2 == 0 { c % 0x80 } else { c % 0x11_0000 }))
            .collect();
        let line = seal(vec![
            ("label".to_string(), Value::Str(label)),
            ("x".to_string(), Value::Str(format!("{:016x}", x.to_bits()))),
        ]);
        prop_assert!(unseal(line.as_bytes()).is_ok());
        for at in 0..line.len() {
            let original = line.as_bytes()[at];
            for substitute in [byte, original ^ 0x20] {
                if substitute == original {
                    continue;
                }
                let mut bytes = line.clone().into_bytes();
                bytes[at] = substitute;
                prop_assert!(
                    unseal(&bytes).is_err(),
                    "{}",
                    String::from_utf8_lossy(&bytes)
                );
            }
        }
    }
}
