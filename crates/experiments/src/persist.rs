//! The one on-disk record format, shared by the run journal
//! ([`crate::journal`]) and the persistent case store
//! ([`crate::scenario::store`]). Only this module reads or writes it.
//!
//! ## Sealed lines
//!
//! Every record is one *sealed line*: a one-line JSON object whose last
//! field, `sum`, is the FNV-1a of every byte before `,"sum":`, in 16
//! lowercase hex digits:
//!
//! ```text
//! {"kind":"unit","key":"<case-key>#1","label":"hdd","seed":1,"exec_s":"3fe8a3d70a3d70a4",
//!  "iops":"40f86a0000000000","bw":null,...,"extra":[["P99","3f50624dd2f1a9fc"]],"sum":"<16 hex digits>"}
//! ```
//!
//! [`unseal`] rejects a torn line (a SIGKILL mid-write), a line whose sum
//! fails, and bytes that are not UTF-8 JSON, each with a reason. Each FNV-1a
//! step is a bijection of the running hash, so one changed byte always
//! changes the sum.
//!
//! ## Stamps and metric fields
//!
//! A journal header and a case-store entry carry a stamp: the record
//! kind's format version and the [`code_fingerprint`] of the build that
//! wrote it. A reader refuses a record of another version or another
//! build rather than mix the numbers of two builds.
//!
//! Journal unit lines and case-store entries carry the same metric
//! fields, `exec_s`, `iops`, `bw`, `arpt`, `bps` and `extra` (`[name,
//! value]` pairs), through one codec. Every `f64` is the 16-hex-digit
//! big-endian encoding of its IEEE-754 bits, and `null` is an undefined
//! value. The JSON writer renders non-finite floats as `null` and decimal
//! round-trips are not bit-exact, while the bits encoding is, so a
//! resumed or cache-served report reproduces a cold run's bytes.

use serde::Value;

/// The fingerprint of the sources this binary was built from
/// (`BPS_CODE_FINGERPRINT`, computed by `build.rs` over every workspace
/// source file). Journal headers and case-store entries carry it, so a
/// build never replays numbers another build produced.
pub fn code_fingerprint() -> &'static str {
    env!("BPS_CODE_FINGERPRINT")
}

/// FNV-1a over a byte string: the sum of a sealed line and the file name
/// of a case-store entry. Matches the `build.rs` fingerprint hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What separates a sealed line's payload from its sum.
const SUM_FIELD: &[u8] = b",\"sum\":\"";

/// The bytes after the payload: `,"sum":"`, 16 hex digits and `"}`.
const TRAILER: usize = SUM_FIELD.len() + 16 + 2;

/// Render `fields` (at least one) as a sealed line, without a newline.
pub fn seal(fields: Vec<(String, Value)>) -> String {
    let json = serde_json::to_string(&Value::Object(fields)).expect("a value always renders");
    let payload = json.strip_suffix('}').expect("an object ends in `}`");
    format!("{payload},\"sum\":\"{:016x}\"}}", fnv1a(payload.as_bytes()))
}

/// The object a sealed line holds, without its `sum`, or why the line
/// cannot be trusted.
pub fn unseal(line: &[u8]) -> Result<Value, &'static str> {
    let (payload, trailer) = line.split_at(line.len().saturating_sub(TRAILER));
    let sum = trailer
        .strip_prefix(SUM_FIELD)
        .and_then(|t| t.strip_suffix(b"\"}"))
        .filter(|sum| sum.len() == 16)
        .ok_or("torn or unsealed line")?;
    if sum != format!("{:016x}", fnv1a(payload)).as_bytes() {
        return Err("checksum mismatch");
    }
    match std::str::from_utf8(line).map(serde_json::from_str::<Value>) {
        Ok(Ok(Value::Object(mut fields))) => {
            fields.pop();
            Ok(Value::Object(fields))
        }
        _ => Err("unparseable payload"),
    }
}

/// The format version and build fingerprint a record carries.
pub(crate) fn stamp(version: u64) -> [(String, Value); 2] {
    [
        ("version".to_string(), Value::UInt(version)),
        (
            "fingerprint".to_string(),
            Value::Str(code_fingerprint().to_string()),
        ),
    ]
}

/// `Ok` if this build [`stamp`]ed `record` at `version`, else why not and
/// the record's origin (`format v<N>` or `build <fingerprint>`). A
/// missing version reads as 0.
pub(crate) fn check_stamp(record: &Value, version: u64) -> Result<(), (String, String)> {
    let found = match record.field("version") {
        Ok(&Value::UInt(n)) => n,
        _ => 0,
    };
    if found != version {
        return Err((
            format!("format version {found}; this build reads {version}"),
            format!("format v{found}"),
        ));
    }
    let fp = text(record, "fingerprint").unwrap_or("(none)");
    if fp != code_fingerprint() {
        return Err((
            format!(
                "written by build {fp}; this build is {}",
                code_fingerprint()
            ),
            format!("build {fp}"),
        ));
    }
    Ok(())
}

/// The string field `name` of a record.
pub(crate) fn text<'a>(record: &'a Value, name: &str) -> Option<&'a str> {
    match record.field(name) {
        Ok(Value::Str(s)) => Some(s),
        _ => None,
    }
}

/// The metric fields every record carries, in the order they are written.
const METRICS: [&str; 5] = ["exec_s", "iops", "bw", "arpt", "bps"];

/// Values for `exec_s`, `iops`, `bw`, `arpt` and `bps`, then the `extra`
/// `(name, value)` pairs; `None` is an undefined value.
pub(crate) type Metrics = ([Option<f64>; 5], Vec<(String, Option<f64>)>);

fn f64_to_value(x: Option<f64>) -> Value {
    match x {
        Some(x) => Value::Str(format!("{:016x}", x.to_bits())),
        None => Value::Null,
    }
}

/// The inverse of [`f64_to_value`]; the outer `None` is a malformed value.
fn f64_from_value(v: &Value) -> Option<Option<f64>> {
    match v {
        Value::Null => Some(None),
        Value::Str(s) if s.len() == 16 => u64::from_str_radix(s, 16)
            .ok()
            .map(|bits| Some(f64::from_bits(bits))),
        _ => None,
    }
}

/// The metric fields of a record: `exec_s`, `iops`, `bw`, `arpt`, `bps`
/// from `values`, and `extra` from `(name, value)` pairs.
pub(crate) fn metric_fields<'a>(
    values: [Option<f64>; 5],
    extra: impl Iterator<Item = (&'a str, Option<f64>)>,
) -> impl Iterator<Item = (String, Value)> {
    let extra = extra
        .map(|(name, x)| Value::Array(vec![Value::Str(name.to_string()), f64_to_value(x)]))
        .collect();
    METRICS
        .iter()
        .zip(values)
        .map(|(name, x)| (name.to_string(), f64_to_value(x)))
        .chain([("extra".to_string(), Value::Array(extra))])
}

/// The metric fields [`metric_fields`] wrote into `record`, or `None`
/// if one is missing or malformed.
pub(crate) fn read_metrics(record: &Value) -> Option<Metrics> {
    let mut values = [None; 5];
    for (slot, name) in values.iter_mut().zip(METRICS) {
        *slot = f64_from_value(record.field(name).ok()?)?;
    }
    let Value::Array(items) = record.field("extra").ok()? else {
        return None;
    };
    let extra = items
        .iter()
        .map(|item| match item {
            Value::Array(pair) => match pair.as_slice() {
                [Value::Str(name), x] => Some((name.clone(), f64_from_value(x)?)),
                _ => None,
            },
            _ => None,
        })
        .collect::<Option<_>>()?;
    Some((values, extra))
}
