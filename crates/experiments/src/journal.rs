//! Append-only run journal: checkpoint/resume for supervised sweeps.
//!
//! `reproduce run --journal <path>` writes one JSONL line per completed
//! `(case, seed)` unit, flushed as it lands, so a killed run loses at
//! most its in-flight units. `reproduce resume <path>` replays the
//! journal — completed units are served from it instead of re-simulated
//! — and re-runs the rest, producing byte-identical output to an
//! uninterrupted run at any thread count.
//!
//! ## Format
//!
//! Every line is a sealed line of [`crate::persist`]: one JSON object
//! whose last field, `sum`, is the FNV-1a of every byte before `,"sum":`.
//! The first line is a header recording the format version, the build's
//! code fingerprint and the original CLI arguments (minus the `--journal`
//! pair), which is how `resume` reconstructs the run:
//!
//! ```text
//! {"kind":"header","version":3,"fingerprint":"<16 hex digits>","args":["run","fig4","--tiny"],"sum":"<16 hex digits>"}
//! {"kind":"unit","key":"<case-key>#<seed>","label":"hdd","seed":1,
//!  "exec_s":"3fe8a3d70a3d70a4","iops":"40f86a0000000000",...,"extra":[...],
//!  "sum":"<16 hex digits>"}
//! ```
//!
//! `resume` refuses a journal whose header fails its sum, or that another
//! format version or another build wrote: a rebuilt binary must not mix
//! its numbers with the old build's.
//!
//! Units are content-keyed exactly like the cross-figure memo cache
//! (`case_key(case, scale, selection)` plus the seed), so a journal is
//! valid across any target list that shares cases and is simply ignored
//! for units whose content changed. The metric values are the bit-exact
//! hex encoding [`crate::persist`] gives every record, so resume
//! reproduces cold-run bytes exactly.
//!
//! A unit line that is torn, corrupted, not UTF-8 or unparseable (a
//! SIGKILL mid-write, a flipped bit) is skipped with a warning; the
//! affected unit just re-runs.

use crate::persist::{self, metric_fields, read_metrics, seal, unseal};
use crate::runner::UnitValues;
use serde::Value;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Journal format version (the header's `version` field).
const VERSION: u64 = 3;

/// An open run journal: an append handle plus the replay map of every
/// unit already on disk.
pub struct Journal {
    path: PathBuf,
    file: Mutex<File>,
    replay: HashMap<String, UnitValues>,
}

/// The original CLI arguments of a journal's unsealed header, or why
/// this build does not resume it.
fn parse_header(header: &Value) -> Result<Vec<String>, String> {
    if persist::text(header, "kind") != Some("header") {
        return Err("no journal header line".to_string());
    }
    persist::check_stamp(header, VERSION).map_err(|(why, _)| format!("journal {why}"))?;
    let Ok(Value::Array(items)) = header.field("args") else {
        return Err("journal header has no arguments".to_string());
    };
    Ok(items
        .iter()
        .filter_map(|i| match i {
            Value::Str(s) => Some(s.clone()),
            _ => None,
        })
        .collect())
}

/// The `(key, values)` of an unsealed unit line; `None` for any other
/// record.
fn parse_unit(unit: &Value) -> Option<(String, UnitValues)> {
    if persist::text(unit, "kind") != Some("unit") {
        return None;
    }
    let ([exec_s, iops, bw, arpt, bps], extra) = read_metrics(unit)?;
    let values = UnitValues {
        iops,
        bw,
        arpt,
        bps,
        exec_s: exec_s?,
        extra,
    };
    Some((persist::text(unit, "key")?.to_string(), values))
}

impl Journal {
    /// Create (truncating) a journal at `path`, stamping the header with
    /// the run's CLI arguments.
    pub fn create(path: &Path, args: &[String]) -> io::Result<Journal> {
        let mut file = File::create(path)?;
        let args = args.iter().map(|a| Value::Str(a.clone())).collect();
        let mut fields = vec![("kind".to_string(), Value::Str("header".to_string()))];
        fields.extend(persist::stamp(VERSION));
        fields.push(("args".to_string(), Value::Array(args)));
        let header = seal(fields);
        writeln!(file, "{header}")?;
        file.flush()?;
        Ok(Journal {
            path: path.to_path_buf(),
            file: Mutex::new(file),
            replay: HashMap::new(),
        })
    }

    /// Open an existing journal for resumption: parse the header and every
    /// unit line (skipping torn ones with a warning), then reopen the file
    /// in append mode. Returns the journal and the original CLI arguments
    /// from the header.
    pub fn open_resume(path: &Path) -> io::Result<(Journal, Vec<String>)> {
        let bytes = std::fs::read(path)?;
        let invalid = |msg: String| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {msg}", path.display()),
            )
        };
        let mut lines = bytes
            .split(|&b| b == b'\n')
            .filter(|l| !l.trim_ascii().is_empty());
        let header = lines
            .next()
            .ok_or("empty file")
            .and_then(unseal)
            .map_err(|why| invalid(format!("bad journal header line ({why})")))?;
        let args = parse_header(&header).map_err(invalid)?;
        let mut replay = HashMap::new();
        let mut torn = 0usize;
        for line in lines {
            match unseal(line).ok().and_then(|unit| parse_unit(&unit)) {
                // Later lines win: a re-run unit appended after a resume
                // supersedes (bit-identically) its earlier record.
                Some((key, values)) => {
                    replay.insert(key, values);
                }
                None => torn += 1,
            }
        }
        if torn > 0 {
            eprintln!(
                "warning: {}: skipped {torn} torn/unparseable journal line(s); \
                 those units will re-run",
                path.display()
            );
        }
        let mut file = OpenOptions::new().append(true).open(path)?;
        // End a torn tail line, or the next unit would be sealed onto it.
        if bytes.last().is_some_and(|&b| b != b'\n') {
            file.write_all(b"\n")?;
        }
        Ok((
            Journal {
                path: path.to_path_buf(),
                file: Mutex::new(file),
                replay,
            },
            args,
        ))
    }

    /// The journal's path on disk.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// How many completed units the journal replays.
    pub fn replayed_units(&self) -> usize {
        self.replay.len()
    }

    /// The recorded values of a unit, if the journal has it.
    pub fn lookup(&self, key: &str) -> Option<UnitValues> {
        self.replay.get(key).cloned()
    }

    /// Append one completed unit and flush, so the line survives a SIGKILL
    /// arriving right after. A write error is reported, not fatal — losing
    /// journal durability should not kill a healthy sweep.
    pub fn record(&self, key: &str, label: &str, seed: u64, values: &UnitValues) {
        let mut fields = vec![
            ("kind".to_string(), Value::Str("unit".to_string())),
            ("key".to_string(), Value::Str(key.to_string())),
            ("label".to_string(), Value::Str(label.to_string())),
            ("seed".to_string(), Value::UInt(seed)),
        ];
        fields.extend(metric_fields(
            [
                Some(values.exec_s),
                values.iops,
                values.bw,
                values.arpt,
                values.bps,
            ],
            values.extra.iter().map(|(name, x)| (name.as_str(), *x)),
        ));
        let line = seal(fields);
        let mut file = self.file.lock().expect("journal file poisoned");
        if let Err(e) = writeln!(file, "{line}").and_then(|()| file.flush()) {
            eprintln!(
                "warning: journal: cannot append to {}: {e}",
                self.path.display()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("bps_journal_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.jsonl", std::process::id()))
    }

    fn values(x: f64) -> UnitValues {
        UnitValues {
            iops: Some(x),
            bw: None,
            arpt: Some(x * 0.5),
            bps: Some(f64::NAN),
            exec_s: x + 0.125,
            extra: vec![("P99".to_string(), Some(x)), ("MaxQD".to_string(), None)],
        }
    }

    #[test]
    fn round_trips_bits_exactly_including_nan() {
        let path = tmp("roundtrip");
        let j = Journal::create(&path, &["run".into(), "fig4".into()]).unwrap();
        let v = values(std::f64::consts::PI);
        j.record("k#1", "hdd", 1, &v);
        drop(j);
        let (j, args) = Journal::open_resume(&path).unwrap();
        assert_eq!(args, vec!["run".to_string(), "fig4".to_string()]);
        assert_eq!(j.replayed_units(), 1);
        let back = j.lookup("k#1").unwrap();
        assert_eq!(back.iops.unwrap().to_bits(), v.iops.unwrap().to_bits());
        assert_eq!(back.bw, None);
        assert_eq!(back.arpt.unwrap().to_bits(), v.arpt.unwrap().to_bits());
        // NaN survives bit-for-bit — the whole point of the hex encoding.
        assert_eq!(back.bps.unwrap().to_bits(), v.bps.unwrap().to_bits());
        assert_eq!(back.exec_s.to_bits(), v.exec_s.to_bits());
        assert_eq!(back.extra, v.extra);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_line_is_skipped_not_fatal() {
        let path = tmp("torn");
        let j = Journal::create(&path, &["fig5".into()]).unwrap();
        j.record("a#1", "c", 1, &values(1.0));
        j.record("b#2", "c", 2, &values(2.0));
        drop(j);
        // Simulate a SIGKILL mid-write: chop the last line in half.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 25]).unwrap();
        let (j, _) = Journal::open_resume(&path).unwrap();
        assert_eq!(j.replayed_units(), 1);
        assert!(j.lookup("a#1").is_some());
        assert!(j.lookup("b#2").is_none());
        // The re-run unit lands on a line of its own, after the torn one.
        j.record("b#2", "c", 2, &values(2.0));
        drop(j);
        let (j, _) = Journal::open_resume(&path).unwrap();
        assert_eq!(j.replayed_units(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn line_with_a_flipped_digit_is_skipped() {
        let path = tmp("flipped");
        let j = Journal::create(&path, &[]).unwrap();
        j.record("a#1", "c", 1, &values(1.0));
        j.record("b#1", "c", 1, &values(2.0));
        drop(j);
        let text = std::fs::read_to_string(&path).unwrap();
        let at = text.rfind("\"iops\":\"").unwrap() + 12;
        let digit = if &text[at..=at] == "0" { "1" } else { "0" };
        std::fs::write(&path, format!("{}{digit}{}", &text[..at], &text[at + 1..])).unwrap();
        let (j, _) = Journal::open_resume(&path).unwrap();
        assert_eq!(j.replayed_units(), 1);
        assert!(j.lookup("b#1").is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn line_that_is_not_utf8_is_a_torn_line() {
        let path = tmp("not-utf8");
        let j = Journal::create(&path, &[]).unwrap();
        j.record("a#1", "c", 1, &values(1.0));
        drop(j);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"{\"kind\":\"unit\",\"label\":\"\xFF\"}\n");
        std::fs::write(&path, bytes).unwrap();
        let (j, _) = Journal::open_resume(&path).unwrap();
        assert_eq!(j.replayed_units(), 1);
        assert!(j.lookup("a#1").is_some());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_appends_after_replay() {
        let path = tmp("append");
        let j = Journal::create(&path, &[]).unwrap();
        j.record("a#1", "c", 1, &values(1.0));
        drop(j);
        let (j, _) = Journal::open_resume(&path).unwrap();
        j.record("b#1", "c", 1, &values(2.0));
        drop(j);
        let (j, _) = Journal::open_resume(&path).unwrap();
        assert_eq!(j.replayed_units(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_header_is_an_error() {
        let path = tmp("headerless");
        std::fs::write(&path, "{\"kind\":\"unit\"}\n").unwrap();
        let e = match Journal::open_resume(&path) {
            Err(e) => e,
            Ok(_) => panic!("headerless journal must not open"),
        };
        assert!(e.to_string().contains("header"), "{e}");
        std::fs::remove_file(&path).ok();
    }
}
