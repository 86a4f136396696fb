//! The virtual-time event loop.
//!
//! Simulation here is *process-driven*: each simulated process (an
//! application process issuing I/O) is a state machine implementing
//! [`Process`]. The engine wakes processes in global time order; a woken
//! process interacts with the shared environment (the simulated I/O stack),
//! decides when it next needs the CPU, and returns that instant.
//!
//! Resource queueing (disks, NICs) is handled *analytically* inside the
//! environment via [`crate::resource::FifoResource`]: because those
//! resources are non-preemptive FIFO servers, a request's completion time is
//! fully determined at arrival. The engine only has to guarantee that
//! arrivals happen in nondecreasing global time order — which the wake heap
//! does — for the analytic bookkeeping to be exact.
//!
//! The wake heap ([`crate::heap`]) pops in time order with ties broken by
//! insertion order. A process is pushed only at start, after its own pop,
//! or when a [`Waker`] releases it from a park, so it is never in the heap
//! twice.

use crate::heap::WakeHeap;
use bps_core::time::Nanos;

/// What a process wants after a wake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// Wake me again at this instant (must be ≥ the current time).
    At(Nanos),
    /// Sleep until another process wakes me through the [`Waker`] —
    /// barrier/collective semantics.
    Park,
    /// The process has finished all its work.
    Done,
}

/// Cross-process wake requests, handed to every [`Process::wake`] call.
/// The last process to reach a barrier uses this to release its peers.
#[derive(Debug, Default)]
pub struct Waker {
    requests: Vec<(usize, Nanos)>,
}

impl Waker {
    /// Schedule process `idx` to wake at `at`. The target must currently be
    /// parked (checked by the engine).
    pub fn wake_at(&mut self, idx: usize, at: Nanos) {
        self.requests.push((idx, at));
    }
}

/// A simulated sequential process.
///
/// `E` is the shared environment — typically the simulated I/O stack plus
/// the trace being collected. The engine hands each process exclusive
/// (`&mut`) access during its wake, so no synchronization is needed and the
/// simulation is deterministic. Every process first wakes at
/// [`Nanos::ZERO`].
pub trait Process<E> {
    /// Called at `now`; do work against `env`, optionally release parked
    /// peers through `waker`, and say when to wake next.
    fn wake(&mut self, now: Nanos, env: &mut E, waker: &mut Waker) -> Wake;
}

/// Result of running a set of processes to completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// Instant each process returned [`Wake::Done`] (index-aligned with the
    /// input process vector).
    pub finish_times: Vec<Nanos>,
    /// The latest finish among all processes (simulation end).
    pub ended_at: Nanos,
    /// Total number of wakes dispatched.
    pub wakes: u64,
}

impl RunOutcome {
    /// Wall time of the whole run, from the common start at zero to the
    /// latest finish — the "application execution time" the paper
    /// correlates metrics with.
    pub fn makespan(&self) -> bps_core::time::Dur {
        self.ended_at.since(Nanos::ZERO)
    }
}

/// Run all processes to completion against a shared environment.
///
/// Ties on wake time are broken by insertion sequence, so reruns with the
/// same inputs produce byte-identical traces.
///
/// # Panics
///
/// Panics if a process asks to wake in its own past (which would break the
/// arrival-order guarantee the analytic queues rely on), if a waker
/// targets a process that is not parked, or if the run deadlocks with
/// parked processes left over.
pub fn run_processes<E, P: Process<E>>(processes: &mut [P], env: &mut E) -> RunOutcome {
    let mut heap = WakeHeap::with_capacity(processes.len());
    let mut parked = vec![false; processes.len()];
    let mut waker = Waker::default();

    for idx in 0..processes.len() {
        heap.push(Nanos::ZERO, idx);
    }

    let mut finish_times = vec![Nanos::ZERO; processes.len()];
    let mut ended_at = Nanos::ZERO;
    let mut wakes: u64 = 0;

    while let Some((now, idx)) = heap.pop() {
        wakes += 1;
        debug_assert!(!parked[idx], "parked process {idx} dispatched");
        match processes[idx].wake(now, env, &mut waker) {
            Wake::At(next) => {
                assert!(
                    next >= now,
                    "process {idx} scheduled a wake in the past ({next} < {now})"
                );
                heap.push(next, idx);
            }
            Wake::Park => parked[idx] = true,
            Wake::Done => {
                finish_times[idx] = now;
                ended_at = ended_at.max(now);
            }
        }
        // Release peers the woken process asked for.
        for (target, at) in waker.requests.drain(..) {
            assert!(
                parked[target],
                "waker targeted process {target}, which is not parked"
            );
            assert!(
                at >= now,
                "waker scheduled process {target} in the past ({at} < {now})"
            );
            parked[target] = false;
            heap.push(at, target);
        }
    }

    assert!(
        parked.iter().all(|&p| !p),
        "deadlock: processes still parked at end of run"
    );
    bps_telemetry::add(bps_telemetry::Counter::EngineWakes, wakes);

    RunOutcome {
        finish_times,
        ended_at,
        wakes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bps_core::time::Dur;

    /// A process that appends (its id, wake time) to a shared log a fixed
    /// number of times with a fixed period, from `start` on (its first
    /// wake, at zero, only sleeps until then).
    struct Ticker {
        id: usize,
        period: Dur,
        remaining: u32,
        start: Nanos,
    }

    impl Process<Vec<(usize, Nanos)>> for Ticker {
        fn wake(&mut self, now: Nanos, log: &mut Vec<(usize, Nanos)>, _waker: &mut Waker) -> Wake {
            if now < self.start {
                return Wake::At(self.start);
            }
            log.push((self.id, now));
            if self.remaining == 0 {
                return Wake::Done;
            }
            self.remaining -= 1;
            Wake::At(now + self.period)
        }
    }

    #[test]
    fn interleaves_in_time_order() {
        let mut procs = vec![
            Ticker {
                id: 0,
                period: Dur::from_millis(10),
                remaining: 3,
                start: Nanos::ZERO,
            },
            Ticker {
                id: 1,
                period: Dur::from_millis(15),
                remaining: 2,
                start: Nanos::from_millis(1),
            },
        ];
        let mut log = Vec::new();
        let out = run_processes(&mut procs, &mut log);
        // Log must be nondecreasing in time.
        for w in log.windows(2) {
            assert!(w[0].1 <= w[1].1, "{log:?}");
        }
        // Proc 0 finishes at 30 ms, proc 1 at 31 ms.
        assert_eq!(out.finish_times[0], Nanos::from_millis(30));
        assert_eq!(out.finish_times[1], Nanos::from_millis(31));
        assert_eq!(out.ended_at, Nanos::from_millis(31));
        assert_eq!(out.makespan(), Dur::from_millis(31));
        // Proc 1's first wake only slept until its start.
        assert_eq!(out.wakes as usize, log.len() + 1);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut procs: Vec<Ticker> = (0..4)
            .map(|id| Ticker {
                id,
                period: Dur::from_millis(10),
                remaining: 1,
                start: Nanos::ZERO,
            })
            .collect();
        let mut log = Vec::new();
        run_processes(&mut procs, &mut log);
        let first_round: Vec<usize> = log.iter().take(4).map(|&(id, _)| id).collect();
        assert_eq!(first_round, vec![0, 1, 2, 3]);
    }

    #[test]
    fn empty_run_is_trivial() {
        let mut procs: Vec<Ticker> = Vec::new();
        let mut log = Vec::new();
        let out = run_processes(&mut procs, &mut log);
        assert_eq!(out.wakes, 0);
        assert_eq!(out.makespan(), Dur::ZERO);
    }

    #[test]
    #[should_panic(expected = "wake in the past")]
    fn waking_in_the_past_panics() {
        struct Bad;
        impl Process<()> for Bad {
            fn wake(&mut self, now: Nanos, _env: &mut (), _waker: &mut Waker) -> Wake {
                match now {
                    Nanos::ZERO => Wake::At(Nanos::from_millis(5)),
                    _ => Wake::At(Nanos::ZERO),
                }
            }
        }
        run_processes(&mut [Bad], &mut ());
    }

    /// A process that parks at a shared barrier; the last arriver releases
    /// everyone at the arrival time.
    struct BarrierProc {
        id: usize,
        arrive_at: Nanos,
        done_after: bool,
    }

    #[derive(Default)]
    struct BarrierEnv {
        arrived: Vec<usize>,
        expected: usize,
        released_at: Option<Nanos>,
    }

    impl Process<BarrierEnv> for BarrierProc {
        fn wake(&mut self, now: Nanos, env: &mut BarrierEnv, waker: &mut Waker) -> Wake {
            if now < self.arrive_at {
                return Wake::At(self.arrive_at);
            }
            if self.done_after {
                return Wake::Done;
            }
            self.done_after = true;
            env.arrived.push(self.id);
            if env.arrived.len() == env.expected {
                env.released_at = Some(now);
                for &peer in &env.arrived {
                    if peer != self.id {
                        waker.wake_at(peer, now);
                    }
                }
                Wake::At(now)
            } else {
                Wake::Park
            }
        }
    }

    #[test]
    fn barrier_releases_all_at_last_arrival() {
        let mut procs: Vec<BarrierProc> = (0..4)
            .map(|id| BarrierProc {
                id,
                arrive_at: Nanos::from_millis(10 * (id as u64 + 1)),
                done_after: false,
            })
            .collect();
        let mut env = BarrierEnv {
            expected: 4,
            ..Default::default()
        };
        let out = run_processes(&mut procs, &mut env);
        // Everyone finishes at the last arrival (40 ms).
        assert_eq!(env.released_at, Some(Nanos::from_millis(40)));
        for t in &out.finish_times {
            assert_eq!(*t, Nanos::from_millis(40));
        }
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn permanent_park_is_a_deadlock() {
        struct Sleeper;
        impl Process<()> for Sleeper {
            fn wake(&mut self, _now: Nanos, _env: &mut (), _waker: &mut Waker) -> Wake {
                Wake::Park
            }
        }
        run_processes(&mut [Sleeper], &mut ());
    }

    #[test]
    #[should_panic(expected = "not parked")]
    fn waking_unparked_process_panics() {
        struct Rogue;
        impl Process<()> for Rogue {
            fn wake(&mut self, now: Nanos, _env: &mut (), waker: &mut Waker) -> Wake {
                waker.wake_at(0, now); // targets itself, which is running
                Wake::Done
            }
        }
        run_processes(&mut [Rogue], &mut ());
    }

    #[test]
    fn deterministic_repeat() {
        let build = || {
            vec![
                Ticker {
                    id: 0,
                    period: Dur::from_micros(7),
                    remaining: 50,
                    start: Nanos::ZERO,
                },
                Ticker {
                    id: 1,
                    period: Dur::from_micros(11),
                    remaining: 30,
                    start: Nanos::ZERO,
                },
            ]
        };
        let mut log_a = Vec::new();
        run_processes(&mut build(), &mut log_a);
        let mut log_b = Vec::new();
        run_processes(&mut build(), &mut log_b);
        assert_eq!(log_a, log_b);
    }
}
