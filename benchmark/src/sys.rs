//! Process accounting: CPU time and peak resident memory of this process.

#[cfg(not(target_os = "linux"))]
compile_error!("the benchmark reads Linux process accounting (getrusage, /proc/self/status)");

/// `struct rusage` from `<sys/resource.h>` on 64-bit Linux: two
/// `timeval`s followed by fourteen `long` counters.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    counters: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User plus system CPU seconds consumed by every thread of this process
/// so far, including threads that have exited. Microsecond resolution,
/// unlike the clock ticks of `/proc/self/stat`.
pub fn cpu_seconds() -> f64 {
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        counters: [0; 14],
    };
    // SAFETY: `usage` is a live, writable value laid out as the C
    // `struct rusage` of this target, which `getrusage` fills and does
    // not retain; RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with valid arguments"
    );
    let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 * 1e-6;
    secs(usage.utime) + secs(usage.stime)
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}
