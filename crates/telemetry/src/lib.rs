//! Run telemetry: counters and scoped phase timers, collected by one
//! process-wide [`AtomicCollector`].
//!
//! Until a collector is installed, instrumentation sites cost one atomic
//! load and emit nothing;
//! [`snapshot`] then reports every counter as 0 and [`drain_events`]
//! returns nothing. Installing an [`AtomicCollector`] (done by
//! `reproduce --telemetry` / `reproduce profile`) flips the flag and routes
//! counter increments into a fixed array of atomics and span events into a
//! mutex-guarded buffer.
//!
//! Design constraints:
//!
//! - This crate sits at the bottom of the workspace dependency graph — it
//!   must not depend on any other `bps-*` crate, because `bps-core`,
//!   `bps-sim`, `bps-fs`, and `bps-experiments` all instrument through it.
//! - Telemetry must never perturb simulation results: collection is
//!   observation-only (no RNG draws, no virtual-clock access), so golden
//!   outputs stay byte-identical whether it is on or off.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Every counter the harness can report, in registry order.
///
/// The discriminant doubles as the index into [`AtomicCollector`]'s counter
/// array, and [`Counter::ALL`] is the single source of truth for the
/// generated `telemetry.md` reference page and the final JSONL snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Simulator process wake-ups across all runs.
    EngineWakes,
    /// I/O records emitted into record sinks.
    SinkRecords,
    /// In-process memo (L1) cache hits in the scenario engine.
    CacheL1Hits,
    /// In-process memo (L1) cache misses in the scenario engine.
    CacheL1Misses,
    /// Persistent case-store (L2) hits.
    CacheL2Hits,
    /// Persistent case-store (L2) lookups that fell through to
    /// simulation (absent, stale, or corrupt entries).
    CacheL2Misses,
    /// Persistent case-store (L2) entries rejected as stale.
    CacheL2Stale,
    /// Persistent case-store (L2) entries rejected as corrupt.
    CacheL2Corrupt,
    /// Case results written into the persistent store.
    CacheL2Writes,
    /// Injected transient device errors.
    FaultDeviceErrors,
    /// Injected network chunk losses.
    FaultLinkLosses,
    /// I/O attempts refused because a server outage window was active.
    FaultOutageRefusals,
    /// I/O issues whose service time was scaled by a slowdown window.
    FaultSlowdowns,
    /// Retry attempts issued by the bounded-backoff retry layer.
    RetryAttempts,
    /// Operations abandoned by the retry layer (deadline exceeded).
    RetryAbandoned,
    /// Operations that exhausted every retry attempt.
    RetryExhausted,
    /// Sweep units (case × seed) executed to completion.
    SweepUnits,
    /// Sweep units that failed (panic, timeout, or error).
    SweepFailures,
}

impl Counter {
    /// Registry order; index == discriminant.
    pub const ALL: [Counter; 18] = [
        Counter::EngineWakes,
        Counter::SinkRecords,
        Counter::CacheL1Hits,
        Counter::CacheL1Misses,
        Counter::CacheL2Hits,
        Counter::CacheL2Misses,
        Counter::CacheL2Stale,
        Counter::CacheL2Corrupt,
        Counter::CacheL2Writes,
        Counter::FaultDeviceErrors,
        Counter::FaultLinkLosses,
        Counter::FaultOutageRefusals,
        Counter::FaultSlowdowns,
        Counter::RetryAttempts,
        Counter::RetryAbandoned,
        Counter::RetryExhausted,
        Counter::SweepUnits,
        Counter::SweepFailures,
    ];

    /// Stable dotted name used in JSONL snapshots and reference docs.
    pub fn name(self) -> &'static str {
        match self {
            Counter::EngineWakes => "engine.wakes",
            Counter::SinkRecords => "sink.records",
            Counter::CacheL1Hits => "cache.l1.hits",
            Counter::CacheL1Misses => "cache.l1.misses",
            Counter::CacheL2Hits => "cache.l2.hits",
            Counter::CacheL2Misses => "cache.l2.misses",
            Counter::CacheL2Stale => "cache.l2.stale",
            Counter::CacheL2Corrupt => "cache.l2.corrupt",
            Counter::CacheL2Writes => "cache.l2.writes",
            Counter::FaultDeviceErrors => "fault.device-errors",
            Counter::FaultLinkLosses => "fault.link-losses",
            Counter::FaultOutageRefusals => "fault.outage-refusals",
            Counter::FaultSlowdowns => "fault.slowdowns",
            Counter::RetryAttempts => "retry.attempts",
            Counter::RetryAbandoned => "retry.abandoned",
            Counter::RetryExhausted => "retry.exhausted",
            Counter::SweepUnits => "sweep.units",
            Counter::SweepFailures => "sweep.failures",
        }
    }

    /// One-line description for the generated reference page.
    pub fn describe(self) -> &'static str {
        match self {
            Counter::EngineWakes => "simulator process wake-ups across all runs",
            Counter::SinkRecords => "I/O records emitted into record sinks",
            Counter::CacheL1Hits => "in-process memo (L1) hits in the scenario engine",
            Counter::CacheL1Misses => "in-process memo (L1) misses in the scenario engine",
            Counter::CacheL2Hits => "persistent case-store (L2) hits",
            Counter::CacheL2Misses => {
                "persistent case-store (L2) lookups that fell through to simulation"
            }
            Counter::CacheL2Stale => {
                "persistent case-store (L2) entries rejected as stale (foreign build fingerprint)"
            }
            Counter::CacheL2Corrupt => {
                "persistent case-store (L2) entries rejected as corrupt (checksum or framing)"
            }
            Counter::CacheL2Writes => "case results written into the persistent store",
            Counter::FaultDeviceErrors => "injected transient device errors",
            Counter::FaultLinkLosses => "injected network chunk losses",
            Counter::FaultOutageRefusals => {
                "I/O attempts refused because a server outage window was active"
            }
            Counter::FaultSlowdowns => {
                "I/O issues whose service time was scaled by a slowdown window"
            }
            Counter::RetryAttempts => "retry attempts issued by the bounded-backoff retry layer",
            Counter::RetryAbandoned => {
                "operations abandoned by the retry layer (deadline exceeded)"
            }
            Counter::RetryExhausted => "operations that exhausted every retry attempt",
            Counter::SweepUnits => "sweep units (case × seed) executed to completion",
            Counter::SweepFailures => "sweep units that failed (panic, timeout, or error)",
        }
    }
}

/// A timestamped interval captured by the collector. Times are offsets from
/// the collector's installation instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A named phase span (target run, engine stage, ...).
    Phase {
        name: String,
        start: Duration,
        end: Duration,
    },
    /// One sweep unit: a single (case, seed) simulation.
    Unit {
        case: String,
        seed: u64,
        start: Duration,
        end: Duration,
    },
}

/// Thread-safe collector: counters in a fixed array of atomics, events in a
/// mutex-guarded buffer. Counter updates are monotone non-decreasing.
pub struct AtomicCollector {
    epoch: Instant,
    counters: [AtomicU64; Counter::ALL.len()],
    events: Mutex<Vec<Event>>,
}

impl AtomicCollector {
    /// A collector with every counter at 0 and no events, its epoch now.
    pub fn new() -> Self {
        AtomicCollector {
            epoch: Instant::now(),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            events: Mutex::new(Vec::new()),
        }
    }

    fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    fn phase_span(&self, name: &str, start: Duration, end: Duration) {
        self.events.lock().unwrap().push(Event::Phase {
            name: name.to_string(),
            start,
            end,
        });
    }

    fn unit_span(&self, case: &str, seed: u64, start: Duration, end: Duration) {
        self.events.lock().unwrap().push(Event::Unit {
            case: case.to_string(),
            seed,
            start,
            end,
        });
    }

    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    fn snapshot(&self) -> Vec<(Counter, u64)> {
        Counter::ALL
            .iter()
            .map(|&c| (c, self.counters[c as usize].load(Ordering::Relaxed)))
            .collect()
    }

    fn drain_events(&self) -> Vec<Event> {
        std::mem::take(&mut *self.events.lock().unwrap())
    }
}

impl Default for AtomicCollector {
    fn default() -> Self {
        Self::new()
    }
}

static COLLECTOR: OnceLock<Arc<AtomicCollector>> = OnceLock::new();

/// The installed collector, if any. The off-path cost of every
/// instrumentation site is this one atomic load.
#[inline(always)]
fn collector() -> Option<&'static AtomicCollector> {
    COLLECTOR.get().map(|c| &**c)
}

/// True once a collector has been installed.
#[inline(always)]
pub fn enabled() -> bool {
    collector().is_some()
}

/// Install the process-wide collector. First install wins (the CLI installs
/// exactly once, before any work runs); later calls are ignored.
pub fn install(collector: Arc<AtomicCollector>) {
    let _ = COLLECTOR.set(collector);
}

/// Add `n` to a counter. No-op (one atomic load) when telemetry is off.
#[inline]
pub fn add(counter: Counter, n: u64) {
    if let Some(c) = collector() {
        if n > 0 {
            c.add(counter, n);
        }
    }
}

/// Increment a counter by one.
#[inline]
pub fn incr(counter: Counter) {
    add(counter, 1);
}

/// Scoped phase timer: records a [`Event::Phase`] span when dropped.
/// Constructing one while telemetry is off is free (no allocation, no clock
/// read).
pub struct PhaseGuard {
    inner: Option<(&'static AtomicCollector, String, Duration)>,
}

impl PhaseGuard {
    /// A guard that records nothing.
    pub fn disabled() -> Self {
        PhaseGuard { inner: None }
    }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if let Some((c, name, start)) = self.inner.take() {
            c.phase_span(&name, start, c.now());
        }
    }
}

/// Open a scoped phase span named `name`.
pub fn phase(name: &str) -> PhaseGuard {
    PhaseGuard {
        inner: collector().map(|c| (c, name.to_string(), c.now())),
    }
}

/// Offset of "now" from the collector epoch, for callers that time a region
/// manually (sweep units). Returns [`Duration::ZERO`] when off.
pub fn now() -> Duration {
    collector().map_or(Duration::ZERO, AtomicCollector::now)
}

/// Record one completed sweep unit (a single case × seed simulation).
pub fn unit(case: &str, seed: u64, start: Duration) {
    if let Some(c) = collector() {
        c.unit_span(case, seed, start, c.now());
    }
}

/// Snapshot every counter in registry order; all 0 while no collector is
/// installed.
pub fn snapshot() -> Vec<(Counter, u64)> {
    match collector() {
        Some(c) => c.snapshot(),
        None => Counter::ALL.iter().map(|&c| (c, 0)).collect(),
    }
}

/// Drain buffered span events; none while no collector is installed.
pub fn drain_events() -> Vec<Event> {
    collector().map_or_else(Vec::new, AtomicCollector::drain_events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_registry_is_consistent() {
        // Discriminants index ALL, and names are unique and dotted.
        for (i, &c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c as usize, i, "{:?} out of registry order", c);
            assert!(c.name().contains('.'), "{:?} name not dotted", c);
            assert!(!c.describe().is_empty());
        }
        let mut names: Vec<_> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::ALL.len(), "duplicate counter names");
    }

    #[test]
    fn atomic_collector_accumulates_and_snapshots() {
        let c = AtomicCollector::new();
        c.add(Counter::EngineWakes, 5);
        c.add(Counter::EngineWakes, 7);
        c.add(Counter::RetryAttempts, 1);
        let snap = c.snapshot();
        assert_eq!(snap.len(), Counter::ALL.len());
        let get = |want: Counter| snap.iter().find(|(c, _)| *c == want).unwrap().1;
        assert_eq!(get(Counter::EngineWakes), 12);
        assert_eq!(get(Counter::RetryAttempts), 1);
        assert_eq!(get(Counter::SweepUnits), 0);
    }

    #[test]
    fn atomic_collector_buffers_spans_in_order() {
        let c = AtomicCollector::new();
        c.phase_span("expand", Duration::from_micros(1), Duration::from_micros(2));
        c.unit_span("hdd", 3, Duration::from_micros(2), Duration::from_micros(9));
        let events = c.drain_events();
        assert_eq!(events.len(), 2);
        assert!(matches!(&events[0], Event::Phase { name, .. } if name == "expand"));
        assert!(
            matches!(&events[1], Event::Unit { case, seed, .. } if case == "hdd" && *seed == 3)
        );
        assert!(c.drain_events().is_empty(), "drain must consume");
    }

    #[test]
    fn counters_are_monotone_under_concurrency() {
        let c = Arc::new(AtomicCollector::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    c.add(Counter::SinkRecords, 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = c.snapshot();
        let records = snap
            .iter()
            .find(|(k, _)| *k == Counter::SinkRecords)
            .unwrap()
            .1;
        assert_eq!(records, 4000);
    }

    /// No test in this binary installs a collector, so the process-wide
    /// entry points stay on their off path.
    #[test]
    fn noop_collector_reports_zeros() {
        add(Counter::EngineWakes, 99);
        incr(Counter::SweepUnits);
        drop(phase("expand"));
        unit("hdd", 3, now());
        assert!(!enabled());
        assert_eq!(now(), Duration::ZERO);
        let snap = snapshot();
        assert_eq!(snap.len(), Counter::ALL.len());
        assert!(snap.iter().all(|&(_, v)| v == 0));
        assert!(drain_events().is_empty());
    }
}
