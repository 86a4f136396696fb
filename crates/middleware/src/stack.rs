//! The assembled I/O stack: application entry points over a file system.
//!
//! [`IoStack`] is what a simulated application talks to. Its methods are
//! the instrumentation point of the paper's methodology: every call records
//! one application-layer [`bps_core::record::IoRecord`] with the process
//! id, the *required* size, and the call's start/end — while the file
//! system below records what actually moved.

use crate::prefetch::{PrefetchConfig, PrefetchDecision, PrefetchState};
use crate::sieving::{plan_read, SievingConfig};
use bps_core::error::IoError;
use bps_core::extent::{Extent, Run};
use bps_core::record::{FileId, IoOp, IoRecord, Layer, ProcessId};
use bps_core::sink::RecordSink;
use bps_core::time::{Dur, Nanos};
use bps_core::trace::Trace;
use bps_fs::cluster::Cluster;
use bps_fs::localfs::LocalFs;
use bps_fs::pfs::ParallelFs;
use bps_sim::resource::ByteRate;
use std::collections::HashMap;

/// How the stack reacts to failed or over-long requests: bounded retries
/// with exponential backoff and an optional per-request timeout.
///
/// Every abandoned attempt is recorded as a [`Layer::Retry`] record (which
/// never counts toward the paper's four metrics); the successful attempt
/// records normally, so a degraded run shows longer application records
/// plus retry sub-records rather than a panic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per request (first try + retries). At least 1.
    pub max_attempts: u32,
    /// Backoff before retry `n` is `base_backoff * 2^(n-1)`, capped at
    /// [`RetryPolicy::max_backoff`].
    pub base_backoff: Dur,
    /// Upper bound on a single backoff pause.
    pub max_backoff: Dur,
    /// Abandon an attempt that has not completed after this long
    /// (`None` = wait forever).
    pub timeout: Option<Dur>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Dur::from_millis(1),
            max_backoff: Dur::from_millis(100),
            timeout: None,
        }
    }
}

impl RetryPolicy {
    /// Backoff pause before retrying after failed attempt `attempt`
    /// (1-based): exponential, capped.
    fn backoff(&self, attempt: u32) -> Dur {
        let factor = 1u64 << (attempt - 1).min(16);
        Dur(self.base_backoff.0.saturating_mul(factor)).min(self.max_backoff)
    }
}

/// The file system under the middleware.
pub enum FsBackend {
    /// A local file system on one device (the paper's HDD/SSD cases).
    Local(LocalFs),
    /// The striped parallel file system (the paper's PVFS2 cases).
    Parallel(ParallelFs),
}

impl FsBackend {
    #[allow(clippy::too_many_arguments)]
    fn io<S: RecordSink>(
        &mut self,
        cluster: &mut Cluster<S>,
        pid: ProcessId,
        client: usize,
        file: FileId,
        extent: Extent,
        op: IoOp,
        now: Nanos,
    ) -> Result<Nanos, IoError> {
        match self {
            FsBackend::Local(fs) => fs.io(cluster, pid, file, extent.offset, extent.len, op, now),
            FsBackend::Parallel(fs) => fs.io(
                cluster,
                pid,
                client,
                file,
                extent.offset,
                extent.len,
                op,
                now,
            ),
        }
    }

    /// Size of a file.
    pub fn file_size(&self, file: FileId) -> u64 {
        match self {
            FsBackend::Local(fs) => fs.file_size(file),
            FsBackend::Parallel(fs) => fs.meta(file).size,
        }
    }
}

/// The middleware + file system + cluster, as one environment for the
/// simulation engine.
///
/// Generic over the [`RecordSink`] observing the record stream: the
/// default [`Trace`] materializes every record as before, while e.g.
/// [`bps_core::sink::StreamingMetrics`] folds them into constant-size
/// accumulators as each request completes.
pub struct IoStack<S: RecordSink = Trace> {
    /// The simulated machines and the record sink being fed.
    pub cluster: Cluster<S>,
    /// The file system below.
    pub backend: FsBackend,
    /// Data sieving configuration for noncontiguous reads.
    pub sieving: SievingConfig,
    /// Sequential read-ahead; `None` disables prefetching.
    pub prefetch: Option<PrefetchConfig>,
    /// Memory-copy rate for prefetch hits and sieving extraction.
    memcpy_rate: ByteRate,
    /// Barrier state for collective calls (group size 0 = disabled).
    pub collective: crate::collective_exec::CollectiveState,
    /// Timeout/retry/backoff behavior for faulted requests.
    pub retry: RetryPolicy,
    prefetch_states: HashMap<(ProcessId, FileId), PrefetchState>,
    /// Start instants of the calls spanning several engine wakes that have
    /// not recorded yet: noncontiguous reads between their first and last
    /// covering read, and collective arrivals parked at the barrier. Their
    /// application records start here, behind the current wake.
    open_calls: Vec<Nanos>,
}

impl<S: RecordSink> IoStack<S> {
    /// Assemble a stack with ROMIO-default sieving and no prefetching.
    pub fn new(cluster: Cluster<S>, backend: FsBackend) -> Self {
        IoStack {
            cluster,
            backend,
            sieving: SievingConfig::romio_default(),
            prefetch: None,
            memcpy_rate: ByteRate::new(10_000_000_000),
            collective: crate::collective_exec::CollectiveState::default(),
            retry: RetryPolicy::default(),
            prefetch_states: HashMap::new(),
            open_calls: Vec::new(),
        }
    }

    /// Note a call started at `start` whose application record a later
    /// wake emits.
    pub(crate) fn open_call(&mut self, start: Nanos) {
        self.open_calls.push(start);
    }

    /// Close one call opened at `start`, recorded or abandoned.
    pub(crate) fn close_call(&mut self, start: Nanos) {
        let i = self
            .open_calls
            .iter()
            .position(|&s| s == start)
            .expect("closing a call that was never opened");
        self.open_calls.swap_remove(i);
    }

    /// Tell the sink that no record from a wake at `now` on starts before
    /// `now` or the start of a still-open call. Engine wakes come in time
    /// order, and every record a wake emits starts at the wake or later,
    /// except the application record of an open call.
    pub(crate) fn watermark(&mut self, now: Nanos) {
        let t = self.open_calls.iter().fold(now, |t, &s| t.min(s));
        self.cluster.sink.on_watermark(t);
    }

    pub(crate) fn memcpy_cost(&mut self, bytes: u64) -> Dur {
        self.memcpy_rate.price(bytes)
    }

    #[allow(clippy::too_many_arguments)]
    fn record_app(
        &mut self,
        pid: ProcessId,
        file: FileId,
        offset: u64,
        bytes: u64,
        op: IoOp,
        start: Nanos,
        end: Nanos,
    ) {
        self.cluster.record(IoRecord::new(
            pid,
            op,
            file,
            offset,
            bytes,
            start,
            end,
            Layer::Application,
        ));
    }

    /// Issue one request through the backend under this stack's
    /// [`RetryPolicy`]: transient failures back off exponentially and
    /// retry (each abandoned attempt recorded as [`Layer::Retry`]);
    /// over-long attempts are abandoned at the timeout and retried; the
    /// final attempt's result is accepted as-is. Non-transient errors
    /// (EOF) propagate immediately.
    fn issue(
        &mut self,
        pid: ProcessId,
        client: usize,
        file: FileId,
        extent: Extent,
        op: IoOp,
        now: Nanos,
    ) -> Result<Nanos, IoError> {
        use bps_telemetry::Counter;
        let policy = self.retry;
        let abandon = |cluster: &mut Cluster<S>, start: Nanos, end: Nanos| {
            bps_telemetry::incr(Counter::RetryAbandoned);
            cluster.record_retry(pid, file, extent.offset, extent.len, op, start, end);
        };
        let mut t = now;
        let mut attempt = 1u32;
        loop {
            let last = attempt >= policy.max_attempts;
            if attempt > 1 {
                bps_telemetry::incr(Counter::RetryAttempts);
            }
            match self
                .backend
                .io(&mut self.cluster, pid, client, file, extent, op, t)
            {
                Ok(done) => match policy.timeout {
                    // An attempt that outlived the timeout was abandoned
                    // by the client even though the work finished — retry
                    // unless this was the last attempt (then take the
                    // slow completion).
                    Some(timeout) if !last && done.since(t) > timeout => {
                        let abandoned = t + timeout;
                        abandon(&mut self.cluster, t, abandoned);
                        t = abandoned + policy.backoff(attempt);
                    }
                    _ => return Ok(done),
                },
                Err(e) if !e.is_transient() => return Err(e),
                Err(e) => {
                    let detected = e.fail_time().unwrap_or(t);
                    abandon(&mut self.cluster, t, detected);
                    if last {
                        bps_telemetry::incr(Counter::RetryExhausted);
                        return Err(IoError::RetriesExhausted {
                            attempts: attempt,
                            at: detected,
                        });
                    }
                    t = detected + policy.backoff(attempt);
                }
            }
            attempt += 1;
        }
    }

    /// POSIX-style contiguous read. Returns the completion instant, or the
    /// typed error once every retry is exhausted (the failed attempts are
    /// already in the record stream as [`Layer::Retry`]).
    pub fn read(
        &mut self,
        pid: ProcessId,
        client: usize,
        file: FileId,
        extent: Extent,
        now: Nanos,
    ) -> Result<Nanos, IoError> {
        let result = match self.prefetch {
            Some(cfg) => {
                let file_size = self.backend.file_size(file);
                let state = self.prefetch_states.entry((pid, file)).or_default();
                match state.on_read(extent, &cfg, file_size) {
                    PrefetchDecision::Hit => Ok(now + self.memcpy_cost(extent.len)),
                    PrefetchDecision::Fetch(fetch) => {
                        self.issue(pid, client, file, fetch, IoOp::Read, now)
                    }
                }
            }
            None => self.issue(pid, client, file, extent, IoOp::Read, now),
        };
        let done = result?;
        self.record_app(pid, file, extent.offset, extent.len, IoOp::Read, now, done);
        Ok(done)
    }

    /// POSIX-style contiguous write. Returns the completion instant, or
    /// the typed error once every retry is exhausted.
    pub fn write(
        &mut self,
        pid: ProcessId,
        client: usize,
        file: FileId,
        extent: Extent,
        now: Nanos,
    ) -> Result<Nanos, IoError> {
        let done = self.issue(pid, client, file, extent, IoOp::Write, now)?;
        self.record_app(pid, file, extent.offset, extent.len, IoOp::Write, now, done);
        Ok(done)
    }

    /// Plan a noncontiguous read under this stack's sieving configuration.
    pub fn plan_noncontig(&self, regions: &[Run]) -> crate::sieving::SievePlan {
        plan_read(regions, &self.sieving)
    }

    /// One raw file-system read on behalf of a larger middleware operation:
    /// records only the file-system layer (the caller records the
    /// application-level call once it completes).
    pub fn fs_read_raw(
        &mut self,
        pid: ProcessId,
        client: usize,
        file: FileId,
        extent: Extent,
        now: Nanos,
    ) -> Result<Nanos, IoError> {
        self.issue(pid, client, file, extent, IoOp::Read, now)
    }

    /// Record one application-level read call (used by multi-wake
    /// middleware operations; plain reads record automatically).
    pub fn record_app_read(
        &mut self,
        pid: ProcessId,
        file: FileId,
        offset: u64,
        bytes: u64,
        start: Nanos,
        end: Nanos,
    ) {
        self.record_app(pid, file, offset, bytes, IoOp::Read, start, end);
    }

    /// Finish a run: stamp the application execution time into the sink and
    /// pull it out (for the default [`Trace`] sink this is the collected
    /// trace, exactly as before).
    pub fn finish(&mut self, exec_time: Dur) -> S
    where
        S: Default,
    {
        debug_assert!(
            self.open_calls.is_empty(),
            "finish with a multi-wake call still open"
        );
        self.cluster.sink.on_execution_time(exec_time);
        std::mem::take(&mut self.cluster.sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::run_workload;
    use bps_fs::cluster::{ClusterConfig, DeviceSpec};
    use bps_fs::layout::StripeLayout;
    use bps_sim::device::DiskSched;
    use bps_sim::engine::RunOutcome;
    use bps_sim::rng::Jitter;
    use bps_workloads::spec::{AppOp, OpStream, Workload};

    fn ram_cluster(servers: usize) -> Cluster {
        faulted_ram_cluster(servers, bps_sim::fault::FaultPlan::none())
    }

    fn faulted_ram_cluster(servers: usize, fault: bps_sim::fault::FaultPlan) -> Cluster {
        Cluster::new(&ClusterConfig {
            servers,
            clients: 2,
            device: DeviceSpec::Ram {
                fixed: Dur::from_micros(100),
                rate: 100_000_000,
                capacity: 1 << 40,
            },
            sched: DiskSched::Fifo,
            server_cpu: Dur::from_micros(25),
            jitter: Jitter::NONE,
            seed: 5,
            record_net_layer: false,
            fault,
        })
    }

    fn local_stack() -> (IoStack, FileId) {
        faulted_local_stack(bps_sim::fault::FaultPlan::none())
    }

    /// A local FS with a 50 µs per-op overhead over one RAM device.
    fn faulted_local_stack(fault: bps_sim::fault::FaultPlan) -> (IoStack, FileId) {
        let cluster = faulted_ram_cluster(1, fault);
        let mut fs = LocalFs::new(0).with_overhead(Dur::from_micros(50));
        let f = fs.create(64 << 20);
        (IoStack::new(cluster, FsBackend::Local(fs)), f)
    }

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff(1), Dur::from_millis(1));
        assert_eq!(p.backoff(2), Dur::from_millis(2));
        assert_eq!(p.backoff(3), Dur::from_millis(4));
        assert_eq!(p.backoff(9), Dur::from_millis(100));
        assert_eq!(p.backoff(60), Dur::from_millis(100));
    }

    #[test]
    fn transient_failures_back_off_then_succeed() {
        // The server is offline for the first 2 ms: each refused attempt
        // is detected when it reaches the device, 50 µs after issue.
        let outage = bps_sim::fault::Outage {
            server: 0,
            start: Nanos::ZERO,
            end: Nanos::from_millis(2),
        };
        let (mut stack, f) =
            faulted_local_stack(bps_sim::fault::FaultPlan::none().with_outage(outage));
        let extent = Extent::new(0, 4096);
        let done = stack.read(ProcessId(0), 0, f, extent, Nanos::ZERO).unwrap();
        // Attempt 1 fails at 50 µs, backs off 1 ms; attempt 2 fails 50 µs
        // later, backs off 2 ms; attempt 3 succeeds like a healthy read
        // issued then.
        let third = Nanos::ZERO
            + Dur::from_micros(50)
            + Dur::from_millis(1)
            + Dur::from_micros(50)
            + Dur::from_millis(2);
        let (mut healthy, g) = local_stack();
        assert_eq!(
            done,
            healthy.read(ProcessId(0), 0, g, extent, third).unwrap()
        );
        let trace = stack.finish(done.since(Nanos::ZERO));
        let retries: Vec<(Nanos, Nanos)> = trace
            .layer(Layer::Retry)
            .map(|r| (r.start, r.end))
            .collect();
        let second = Nanos::ZERO + Dur::from_micros(1050);
        assert_eq!(
            retries,
            [
                (Nanos::ZERO, Nanos::ZERO + Dur::from_micros(50)),
                (second, second + Dur::from_micros(50)),
            ]
        );
    }

    #[test]
    fn exhausted_retries_report_attempt_count() {
        let (mut stack, f) =
            faulted_local_stack(bps_sim::fault::FaultPlan::none().with_device_errors(1.0));
        match stack.read(ProcessId(0), 0, f, Extent::new(0, 4096), Nanos::ZERO) {
            Err(IoError::RetriesExhausted { attempts, .. }) => assert_eq!(attempts, 4),
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
        let trace = stack.finish(Dur::ZERO);
        assert_eq!(trace.layer(Layer::Retry).count(), 4);
        assert_eq!(trace.layer(Layer::Application).count(), 0);
    }

    #[test]
    fn timeout_abandons_slow_attempts() {
        let (mut stack, f) = local_stack();
        stack.retry = RetryPolicy {
            timeout: Some(Dur::from_micros(10)),
            ..RetryPolicy::default()
        };
        // Every attempt outlives the timeout; the last one's completion
        // is accepted after three abandoned attempts and 1 + 2 + 4 ms of
        // backoff.
        let done = stack
            .read(ProcessId(0), 0, f, Extent::new(0, 4096), Nanos::ZERO)
            .unwrap();
        assert!(done.since(Nanos::ZERO) > Dur::from_millis(7));
        let trace = stack.finish(done.since(Nanos::ZERO));
        assert_eq!(trace.layer(Layer::Retry).count(), 3);
    }

    #[test]
    fn read_records_app_and_fs_layers() {
        let (mut stack, f) = local_stack();
        let done = stack
            .read(ProcessId(0), 0, f, Extent::new(0, 4096), Nanos::ZERO)
            .unwrap();
        assert!(done > Nanos::ZERO);
        let trace = stack.finish(done.since(Nanos::ZERO));
        assert_eq!(trace.layer(Layer::Application).count(), 1);
        assert_eq!(trace.layer(Layer::FileSystem).count(), 1);
        assert_eq!(trace.bytes(Layer::Application), 4096);
        assert_eq!(trace.bytes(Layer::FileSystem), 4096);
    }

    /// One process issuing one noncontiguous read call over `regions`.
    struct OneCall(Vec<Extent>);

    impl Workload for OneCall {
        fn name(&self) -> &'static str {
            "one-call"
        }

        fn processes(&self) -> usize {
            1
        }

        fn file_sizes(&self) -> Vec<u64> {
            vec![64 << 20]
        }

        fn stream(&self, _pid: usize) -> OpStream {
            let regions = self.0.clone().into();
            Box::new(std::iter::once(AppOp::ReadNoncontig { file: 0, regions }))
        }
    }

    /// Run one noncontiguous call on a local FS over a RAM device, through
    /// the engine path every experiment takes.
    fn noncontig_call(regions: Vec<Extent>, sieving: SievingConfig) -> (Trace, RunOutcome) {
        let (mut stack, f) = local_stack();
        stack.sieving = sieving;
        run_workload(stack, &OneCall(regions), &[f], Dur::ZERO)
    }

    #[test]
    fn sieved_read_moves_more_than_required() {
        let regions: Vec<Extent> = (0..16).map(|i| Extent::new(i * 4096, 256)).collect();
        let (trace, _) = noncontig_call(regions, SievingConfig::romio_default());
        assert_eq!(trace.bytes(Layer::Application), 16 * 256);
        // Hull = 15*4096 + 256 bytes.
        assert_eq!(trace.bytes(Layer::FileSystem), 15 * 4096 + 256);
        // One app record for the whole MPI-IO call; one FS read (fits the
        // 4 MB buffer).
        assert_eq!(trace.layer(Layer::Application).count(), 1);
        assert_eq!(trace.layer(Layer::FileSystem).count(), 1);
    }

    #[test]
    fn unsieved_read_issues_per_region_fs_ops() {
        let regions: Vec<Extent> = (0..16).map(|i| Extent::new(i * 4096, 256)).collect();
        let (trace, _) = noncontig_call(regions, SievingConfig::disabled());
        assert_eq!(trace.layer(Layer::FileSystem).count(), 16);
        assert_eq!(trace.bytes(Layer::FileSystem), 16 * 256);
    }

    #[test]
    fn sieving_is_faster_when_holes_are_small() {
        // Dense regions: sieving's one big read beats 64 per-region reads
        // that each pay the per-op overhead.
        let regions: Vec<Extent> = (0..64).map(|i| Extent::new(i * 512, 256)).collect();
        let (_, sieve) = noncontig_call(regions.clone(), SievingConfig::romio_default());
        let (_, direct) = noncontig_call(regions, SievingConfig::disabled());
        let (t_sieve, t_direct) = (sieve.makespan(), direct.makespan());
        assert!(t_sieve < t_direct, "sieve {t_sieve} direct {t_direct}");
    }

    #[test]
    fn empty_noncontig_read_is_instant() {
        let (trace, _) = noncontig_call(Vec::new(), SievingConfig::romio_default());
        assert_eq!(trace.layer(Layer::Application).count(), 1);
        assert_eq!(trace.layer(Layer::FileSystem).count(), 0);
        assert_eq!(trace.bytes(Layer::Application), 0);
        assert_eq!(trace.summed_io_time(Layer::Application), Dur::ZERO);
    }

    #[test]
    fn prefetch_hits_after_warmup() {
        let (mut stack, f) = local_stack();
        stack.prefetch = Some(PrefetchConfig { window: 64 << 10 });
        let mut now = Nanos::ZERO;
        let mut durations = Vec::new();
        for i in 0..8u64 {
            let start = now;
            now = stack
                .read(ProcessId(0), 0, f, Extent::new(i * 4096, 4096), now)
                .unwrap();
            durations.push(now.since(start));
        }
        // Reads 3.. are hits: far cheaper than the first fetch.
        assert!(durations[3] < durations[0] / 10, "{durations:?}");
        let trace = stack.finish(now.since(Nanos::ZERO));
        // FS moved at least as much as the app required.
        assert!(trace.bytes(Layer::FileSystem) >= trace.bytes(Layer::Application));
        // Fewer FS ops than app ops.
        assert!(trace.layer(Layer::FileSystem).count() < trace.layer(Layer::Application).count());
    }

    #[test]
    fn parallel_backend_stripes() {
        let cluster = ram_cluster(4);
        let mut pfs = ParallelFs::new(4);
        let f = pfs.create(16 << 20, StripeLayout::default_over(4));
        let mut stack = IoStack::new(cluster, FsBackend::Parallel(pfs));
        let done = stack
            .read(ProcessId(0), 0, f, Extent::new(0, 1 << 20), Nanos::ZERO)
            .unwrap();
        let trace = stack.finish(done.since(Nanos::ZERO));
        assert_eq!(trace.layer(Layer::Application).count(), 1);
        assert_eq!(trace.layer(Layer::FileSystem).count(), 16);
        assert_eq!(stack.backend.file_size(f), 16 << 20);
    }
}
