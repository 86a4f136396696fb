//! Simulated application processes and the workload runner.
//!
//! An [`AppProcess`] drives one workload op stream through the
//! [`IoStack`] under the `bps-sim` engine: it issues its next operation at
//! each wake, sleeps until the operation completes (plus a per-op CPU
//! cost), and finishes when the stream is exhausted. Concurrency across
//! processes — the paper's Set 3 — emerges from the engine interleaving
//! wakes in global time order.
//!
//! Each wake first raises the record sink's watermark to the wake's
//! instant (or the start of a still-open call); the records the wake then
//! completes reach the sink one at a time, as each access completes.

use crate::stack::IoStack;
use bps_core::extent::Extent;
use bps_core::record::{FileId, ProcessId};
use bps_core::sink::RecordSink;
use bps_core::time::{Dur, Nanos};
use bps_sim::engine::{run_processes, Process, RunOutcome, Wake, Waker};
use bps_workloads::spec::{AppOp, OpStream, Workload};
use std::collections::VecDeque;

/// An in-flight noncontiguous call being executed one covering read per
/// wake, so one process never advances shared resources more than one
/// file-system request into the future.
struct PendingNoncontig {
    file: FileId,
    fs_reads: VecDeque<Extent>,
    required: u64,
    moved: u64,
    sieved: bool,
    first_offset: u64,
    started: Nanos,
}

/// One simulated application process.
pub struct AppProcess {
    /// Trace process id.
    pub pid: ProcessId,
    /// Client node this process runs on.
    pub client: usize,
    /// Workload file index → simulated file id.
    pub files: Vec<FileId>,
    /// Remaining operations.
    ops: OpStream,
    /// CPU cost charged between operations (request preparation, user
    /// computation on the data).
    pub cpu_per_op: Dur,
    /// This process's index in the engine's process vector (used to park
    /// and release peers at collective barriers).
    pub engine_idx: usize,
    pending: Option<PendingNoncontig>,
}

impl AppProcess {
    /// Build a process starting at time zero.
    pub fn new(pid: ProcessId, client: usize, files: Vec<FileId>, ops: OpStream) -> Self {
        AppProcess {
            pid,
            client,
            files,
            ops,
            cpu_per_op: Dur::from_micros(5),
            engine_idx: pid.0 as usize,
            pending: None,
        }
    }

    /// Advance an in-flight noncontiguous call: issue its next covering
    /// read, or finish it and record the application-level call. If a
    /// covering read exhausts its retries, the whole call is abandoned —
    /// its failed attempts are already in the record stream as
    /// `Layer::Retry` — and the process moves on at the failure instant.
    fn step_noncontig<S: RecordSink>(&mut self, now: Nanos, stack: &mut IoStack<S>) -> Wake {
        // Invariant: callers enter only while a call is in flight.
        let pending = self.pending.as_mut().expect("no noncontig call in flight");
        match pending.fs_reads.pop_front() {
            Some(extent) => {
                let file = pending.file;
                match stack.fs_read_raw(self.pid, self.client, file, extent, now) {
                    Ok(done) => Wake::At(done),
                    Err(e) => {
                        let at = e.fail_time().unwrap_or(now);
                        stack.close_call(pending.started);
                        self.pending = None;
                        Wake::At(at + self.cpu_per_op)
                    }
                }
            }
            None => {
                let pending = self.pending.take().expect("pending call");
                // Copying the requested pieces out of the sieve buffers.
                let end = if pending.sieved {
                    now + stack.memcpy_cost(pending.moved)
                } else {
                    now
                };
                stack.record_app_read(
                    self.pid,
                    pending.file,
                    pending.first_offset,
                    pending.required,
                    pending.started,
                    end,
                );
                stack.close_call(pending.started);
                Wake::At(end + self.cpu_per_op)
            }
        }
    }

    /// Override the per-op CPU cost.
    pub fn with_cpu_per_op(mut self, cpu: Dur) -> Self {
        self.cpu_per_op = cpu;
        self
    }

    /// One wake's worth of work; the public [`Process::wake`] raises the
    /// sink's watermark first.
    fn dispatch<S: RecordSink>(
        &mut self,
        now: Nanos,
        stack: &mut IoStack<S>,
        waker: &mut Waker,
    ) -> Wake {
        if self.pending.is_some() {
            return self.step_noncontig(now, stack);
        }
        match self.ops.next() {
            None => Wake::Done,
            Some(AppOp::Compute { dur }) => Wake::At(now + dur),
            Some(AppOp::Read { file, extent }) => {
                // An exhausted request is abandoned: its attempts are in
                // the record stream as `Layer::Retry`, and the process
                // moves on at the instant the failure was detected.
                let done = match stack.read(self.pid, self.client, self.files[file], extent, now) {
                    Ok(t) => t,
                    Err(e) => e.fail_time().unwrap_or(now),
                };
                Wake::At(done + self.cpu_per_op)
            }
            Some(AppOp::Write { file, extent }) => {
                let done = match stack.write(self.pid, self.client, self.files[file], extent, now) {
                    Ok(t) => t,
                    Err(e) => e.fail_time().unwrap_or(now),
                };
                Wake::At(done + self.cpu_per_op)
            }
            Some(AppOp::ReadNoncontig { file, regions }) => {
                let plan = stack.plan_noncontig(&regions);
                stack.open_call(now);
                self.pending = Some(PendingNoncontig {
                    file: self.files[file],
                    fs_reads: VecDeque::from(plan.fs_reads),
                    required: plan.required,
                    moved: plan.moved,
                    sieved: plan.sieved,
                    first_offset: regions.first_offset(),
                    started: now,
                });
                self.step_noncontig(now, stack)
            }
            Some(AppOp::CollectiveReadNoncontig { file, regions }) => {
                use crate::collective_exec::{CollectiveArrival, CollectiveOutcome};
                let outcome = stack.collective_arrive(
                    CollectiveArrival {
                        engine_idx: self.engine_idx,
                        pid: self.pid,
                        client: self.client,
                        regions,
                        at: now,
                    },
                    self.files[file],
                );
                match outcome {
                    CollectiveOutcome::Wait => Wake::Park,
                    CollectiveOutcome::Complete(finishes) => {
                        let mut own = now;
                        for (idx, t) in finishes {
                            if idx == self.engine_idx {
                                own = t;
                            } else {
                                waker.wake_at(idx, t + self.cpu_per_op);
                            }
                        }
                        Wake::At(own + self.cpu_per_op)
                    }
                }
            }
        }
    }
}

impl<S: RecordSink> Process<IoStack<S>> for AppProcess {
    fn wake(&mut self, now: Nanos, stack: &mut IoStack<S>, waker: &mut Waker) -> Wake {
        // Nothing from here on starts before this wake or an open call.
        stack.watermark(now);
        self.dispatch(now, stack, waker)
    }
}

/// Run a whole workload against a stack: one [`AppProcess`] per workload
/// process (client nodes assigned round-robin), engine until completion.
/// Returns the finished record sink — with the application execution time
/// set to the run's makespan, as the paper measures it — and the engine
/// outcome. With the default [`bps_core::trace::Trace`] sink this is the
/// collected trace; a streaming sink yields ready-made metrics instead.
pub fn run_workload<S: RecordSink + Default>(
    mut stack: IoStack<S>,
    workload: &dyn Workload,
    file_map: &[FileId],
    cpu_per_op: Dur,
) -> (S, RunOutcome) {
    let clients = stack.cluster.client_count();
    // Collective calls gather the whole workload group.
    stack.collective.group_size = workload.processes();
    let mut procs: Vec<AppProcess> = (0..workload.processes())
        .map(|p| {
            AppProcess::new(
                ProcessId(p as u32),
                p % clients,
                file_map.to_vec(),
                workload.stream(p),
            )
            .with_cpu_per_op(cpu_per_op)
        })
        .collect();
    let outcome = run_processes(&mut procs, &mut stack);
    let sink = stack.finish(outcome.makespan());
    (sink, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::FsBackend;
    use bps_core::interval::max_depth;
    use bps_core::record::Layer;
    use bps_fs::cluster::{Cluster, ClusterConfig};
    use bps_fs::layout::StripeLayout;
    use bps_fs::pfs::ParallelFs;
    use bps_sim::device::{DeviceNode, DiskSched};
    use bps_sim::rng::Jitter;
    use bps_workloads::iozone::Iozone;

    fn ram_cluster(servers: usize, clients: usize) -> Cluster {
        Cluster::new(&ClusterConfig {
            servers,
            clients,
            device: DeviceNode::Ram {
                fixed_us: 100,
                rate: 100_000_000,
                capacity: 1 << 40,
            },
            sched: DiskSched::Fifo,
            server_cpu: Dur::from_micros(25),
            jitter: Jitter::NONE,
            seed: 11,
            record_net_layer: false,
            fault: bps_sim::fault::FaultPlan::none(),
        })
    }

    fn pfs_stack_with_files(
        servers: usize,
        clients: usize,
        workload: &dyn Workload,
        layout_for: impl Fn(usize) -> StripeLayout,
    ) -> (IoStack, Vec<FileId>) {
        let cluster = ram_cluster(servers, clients);
        let mut pfs = ParallelFs::new(servers);
        let files: Vec<FileId> = workload
            .file_sizes()
            .iter()
            .enumerate()
            .map(|(i, &size)| pfs.create(size, layout_for(i)))
            .collect();
        (IoStack::new(cluster, FsBackend::Parallel(pfs)), files)
    }

    /// Every application record's in-flight interval, unmerged.
    fn app_intervals(trace: &bps_core::trace::Trace) -> Vec<bps_core::interval::Interval> {
        trace
            .layer(Layer::Application)
            .map(|r| r.interval())
            .collect()
    }

    #[test]
    fn single_process_sequential_run() {
        let w = Iozone::seq_read(4 << 20, 64 << 10);
        let (stack, files) = pfs_stack_with_files(2, 1, &w, |_| StripeLayout::default_over(2));
        let (trace, outcome) = run_workload(stack, &w, &files, Dur::from_micros(5));
        assert_eq!(trace.layer(Layer::Application).count(), 64);
        assert_eq!(trace.bytes(Layer::Application), 4 << 20);
        assert!(outcome.makespan() > Dur::ZERO);
        assert_eq!(trace.execution_time(), outcome.makespan());
        // Sequential process: app I/O intervals never overlap.
        assert_eq!(max_depth(&app_intervals(&trace)), 1);
    }

    #[test]
    fn throughput_mode_runs_concurrently() {
        // 4 processes, each with its own file pinned to its own server.
        let w = Iozone {
            processes: 4,
            ..Iozone::seq_read(1 << 20, 64 << 10)
        };
        let (stack, files) = pfs_stack_with_files(4, 4, &w, StripeLayout::pinned);
        let (trace, _) = run_workload(stack, &w, &files, Dur::from_micros(5));
        let depth = max_depth(&app_intervals(&trace));
        assert!(depth >= 3, "depth {depth}");
        // All four processes appear in the trace.
        let pids: std::collections::BTreeSet<_> =
            trace.layer(Layer::Application).map(|r| r.pid).collect();
        assert_eq!(pids.len(), 4);
    }

    #[test]
    fn concurrency_shortens_makespan() {
        let total = 16 << 20;
        let run = |n: usize| {
            let w = Iozone {
                processes: n,
                ..Iozone::seq_read(total / n as u64, 64 << 10)
            };
            let (stack, files) = pfs_stack_with_files(n, n, &w, StripeLayout::pinned);
            let (_, outcome) = run_workload(stack, &w, &files, Dur::from_micros(5));
            outcome.makespan().as_secs_f64()
        };
        let t1 = run(1);
        let t4 = run(4);
        assert!(t4 < t1 * 0.55, "t1 {t1} t4 {t4}");
    }

    #[test]
    fn deterministic_runs() {
        let build = || {
            let w = Iozone {
                processes: 2,
                ..Iozone::seq_read(1 << 20, 64 << 10)
            };
            let (stack, files) = pfs_stack_with_files(2, 2, &w, StripeLayout::pinned);
            run_workload(stack, &w, &files, Dur::from_micros(5))
        };
        let (ta, oa) = build();
        let (tb, ob) = build();
        assert_eq!(oa.ended_at, ob.ended_at);
        assert_eq!(ta.records(), tb.records());
    }
}
