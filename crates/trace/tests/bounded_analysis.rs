//! Ratchet on the memory of stored-trace analysis: the passes over a
//! stored trace hold its busy frontier, not a copy of it.
//!
//! A counting global allocator tracks the live heap. Over a trace of
//! 200,000 records from 16 processes in completion order, whose requests
//! rarely touch so that every union has about one busy period per request,
//! the peak live bytes each analysis adds beyond the trace must stay under
//! 1 MiB; the summary of every registered metric may add the latency
//! percentiles' retained response times on top, 8 bytes per application
//! record, and nothing more: a percentile that copies them to select in
//! does not fit. A pass that collects the trace's intervals, or a union
//! that never forgets behind the watermark, needs several MiB here.
//! Loading the trace from its `.bpstrc` file may hold the decoded trace,
//! 48 bytes per record, plus 1 MiB: a reader that holds the
//! 32-byte-per-record file image next to it does not fit.

use bps_core::metrics::MetricSelection;
use bps_core::record::{FileId, IoOp, IoRecord, Layer, ProcessId};
use bps_core::report::{per_process, MetricsSummary};
use bps_core::time::{Dur, Nanos};
use bps_core::trace::Trace;
use bps_core::window::windowed_series;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting live bytes and their peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters only add and
// subtract sizes and never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // Counted as a fresh block next to the old one: a moving
            // realloc holds both for the copy.
            grew(new_size);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Peak live bytes `f` adds to the heap while it runs, its result
/// included.
fn peak_added<T>(f: impl FnOnce() -> T) -> usize {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    black_box(f());
    PEAK.load(Ordering::Relaxed) - base
}

const PROCESSES: u64 = 16;
const REQUESTS: u64 = 6_250;
const SLOT_NS: u64 = 10_000;

/// Every process issues its requests in its own slot of a round robin,
/// so requests rarely touch and each is its own busy period; one in eight
/// lasts two and a half slots and completes after the requests of the
/// next processes. Each request leaves a file-system record inside its
/// application record. Records arrive in completion order.
fn trace() -> Trace {
    let mut records = Vec::with_capacity((2 * PROCESSES * REQUESTS) as usize);
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for k in 0..REQUESTS {
        for p in 0..PROCESSES {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let start = Nanos((k * PROCESSES + p) * SLOT_NS + x % 2_000);
            let len = if x.is_multiple_of(8) {
                25_000
            } else {
                3_000 + x % 4_000
            };
            let end = start + Dur(len);
            let rec = |layer, from: Nanos, to: Nanos| {
                IoRecord::new(
                    ProcessId(p as u32),
                    IoOp::Read,
                    FileId(0),
                    0,
                    64 << 10,
                    from,
                    to,
                    layer,
                )
            };
            records.push(rec(Layer::FileSystem, start + Dur(500), end - Dur(500)));
            records.push(rec(Layer::Application, start, end));
        }
    }
    records.sort_by_key(|r| r.end);
    Trace::from_records(records)
}

#[test]
fn stored_trace_analysis_holds_its_frontier() {
    const MIB: usize = 1 << 20;
    let trace = trace();
    let app = trace.layer(Layer::Application).count();
    assert_eq!(trace.len(), 200_000);
    let path = std::env::temp_dir().join(format!("bps_bounded-{}.bpstrc", std::process::id()));
    bps_trace::format::write_binary_file(&trace, &path).unwrap();
    let decode = peak_added(|| bps_trace::format::load_path(&path).unwrap());
    std::fs::remove_file(&path).ok();

    let checks: [(&str, usize, usize); 7] = [
        ("load_path(.bpstrc)", decode, 48 * trace.len() + MIB),
        (
            "overlapped_io_time",
            peak_added(|| trace.overlapped_io_time(Layer::Application)),
            MIB,
        ),
        (
            "validate",
            peak_added(|| bps_trace::validate::validate(&trace)),
            MIB,
        ),
        (
            "windowed_series(100 ms)",
            peak_added(|| windowed_series(&trace, Dur::from_millis(100))),
            MIB,
        ),
        (
            "from_trace_selected(paper)",
            peak_added(|| MetricsSummary::from_trace_selected(&trace, &MetricSelection::paper())),
            MIB,
        ),
        ("per_process", peak_added(|| per_process(&trace)), MIB),
        (
            "from_trace",
            peak_added(|| MetricsSummary::from_trace(&trace)),
            8 * app + MIB,
        ),
    ];
    let over: Vec<String> = checks
        .iter()
        .filter(|&&(_, peak, bound)| peak >= bound)
        .map(|(name, peak, bound)| format!("{name}: {peak} B, bound {bound} B"))
        .collect();
    assert!(
        over.is_empty(),
        "analyses over their memory bound: {over:?} (all: {checks:?})"
    );
}
