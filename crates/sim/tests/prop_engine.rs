//! Property tests for the engine: global time ordering, determinism,
//! barrier correctness, and dispatch order equal to a naive reference
//! scheduler under randomized schedules.

use bps_core::time::{Dur, Nanos};
use bps_sim::engine::{run_processes, Process, RunOutcome, Wake, Waker};
use proptest::prelude::*;

/// One scripted step: wait (zero-length waits tie with other wakes), park
/// until another process releases this one, or release a parked peer.
#[derive(Debug, Clone, Copy)]
enum Step {
    Wait(u64),
    Park,
    /// Release the parked peer chosen by the first field, `delay` after
    /// now, then wait `delay` too.
    Release(usize, u64),
}

/// The state the scripted processes share: the dispatch log, which
/// processes are parked (in park order), and how many are not done.
#[derive(Debug, Default, PartialEq)]
struct World {
    log: Vec<(Nanos, usize)>,
    parked: Vec<usize>,
    live: usize,
}

/// A process that runs its script, parking only while another process is
/// still running and, as the last running one, releasing every parked
/// peer when it finishes, so no schedule deadlocks.
#[derive(Debug, Clone)]
struct Scripted {
    id: usize,
    script: Vec<Step>,
    next: usize,
}

impl Scripted {
    fn step(&mut self, now: Nanos, w: &mut World, release: &mut dyn FnMut(usize, Nanos)) -> Wake {
        w.log.push((now, self.id));
        let Some(&step) = self.script.get(self.next) else {
            w.live -= 1;
            if w.live == w.parked.len() {
                for p in w.parked.drain(..) {
                    release(p, now);
                }
            }
            return Wake::Done;
        };
        self.next += 1;
        match step {
            Step::Wait(d) => Wake::At(now + Dur(d)),
            Step::Park if w.live > w.parked.len() + 1 => {
                w.parked.push(self.id);
                Wake::Park
            }
            Step::Park => Wake::At(now),
            Step::Release(pick, delay) => {
                if !w.parked.is_empty() {
                    let p = w.parked.remove(pick % w.parked.len());
                    release(p, now + Dur(delay));
                }
                Wake::At(now + Dur(delay))
            }
        }
    }
}

impl Process<World> for Scripted {
    fn wake(&mut self, now: Nanos, w: &mut World, waker: &mut Waker) -> Wake {
        self.step(now, w, &mut |p, at| waker.wake_at(p, at))
    }
}

/// The scheduler by definition: keep every pending wake in a list, take
/// the one with the smallest `(time, seq)` by linear scan, and number
/// every push, releases in request order after the woken process's own.
/// Every process first wakes at zero, in index order.
fn reference(procs: &mut [Scripted], w: &mut World) -> RunOutcome {
    let mut pending: Vec<(Nanos, u64, usize)> = (0..procs.len())
        .map(|i| (Nanos::ZERO, i as u64, i))
        .collect();
    let mut seq = procs.len() as u64;
    let mut finish_times = vec![Nanos::ZERO; procs.len()];
    let mut ended_at = Nanos::ZERO;
    let mut wakes = 0;
    while !pending.is_empty() {
        let k = (0..pending.len())
            .min_by_key(|&k| (pending[k].0, pending[k].1))
            .unwrap();
        let (now, _, idx) = pending.swap_remove(k);
        wakes += 1;
        let mut released = Vec::new();
        match procs[idx].step(now, w, &mut |p, at| released.push((p, at))) {
            Wake::At(t) => {
                pending.push((t, seq, idx));
                seq += 1;
            }
            Wake::Park => {}
            Wake::Done => {
                finish_times[idx] = now;
                ended_at = ended_at.max(now);
            }
        }
        for (p, at) in released {
            pending.push((at, seq, p));
            seq += 1;
        }
    }
    RunOutcome {
        finish_times,
        ended_at,
        wakes,
    }
}

/// Up to nine processes over a narrow time range, so wakes tie often; each
/// script opens with a wait of its own, a quarter of the steps park and a
/// quarter release.
fn scripts() -> impl Strategy<Value = Vec<Scripted>> {
    let step = (0u8..8, 0usize..8, 0u64..40).prop_map(|(kind, pick, d)| match kind {
        0 | 1 => Step::Wait(0),
        2 | 3 => Step::Wait(d),
        4 | 5 => Step::Park,
        _ => Step::Release(pick, d % 3),
    });
    let process = (0u64..30, proptest::collection::vec(step, 0..24));
    proptest::collection::vec(process, 0..10).prop_map(|ps| {
        ps.into_iter()
            .enumerate()
            .map(|(id, (start, script))| Scripted {
                id,
                script: [Step::Wait(start)].into_iter().chain(script).collect(),
                next: 0,
            })
            .collect()
    })
}

/// A process that logs its wakes and sleeps random-ish (but deterministic)
/// periods.
struct Logger {
    id: usize,
    periods: Vec<u64>,
    next: usize,
}

impl Process<Vec<(Nanos, usize)>> for Logger {
    fn wake(&mut self, now: Nanos, log: &mut Vec<(Nanos, usize)>, _w: &mut Waker) -> Wake {
        log.push((now, self.id));
        match self.periods.get(self.next) {
            Some(&p) => {
                self.next += 1;
                Wake::At(now + Dur(p))
            }
            None => Wake::Done,
        }
    }
}

/// Per process, its periods; the first, up to 1 ms, staggers the starts.
fn schedules() -> impl Strategy<Value = Vec<Vec<u64>>> {
    proptest::collection::vec(
        (
            0u64..1_000_000,
            proptest::collection::vec(1u64..100_000, 0..20),
        )
            .prop_map(|(start, periods)| [start].into_iter().chain(periods).collect()),
        1..8,
    )
}

proptest! {
    /// The engine dispatches wakes in nondecreasing global time order, and
    /// every process gets exactly periods+1 wakes.
    #[test]
    fn wakes_globally_ordered(scheds in schedules()) {
        let mut procs: Vec<Logger> = scheds
            .iter()
            .enumerate()
            .map(|(id, periods)| Logger {
                id,
                periods: periods.clone(),
                next: 0,
            })
            .collect();
        let mut log = Vec::new();
        let out = run_processes(&mut procs, &mut log);
        prop_assert!(log.windows(2).all(|w| w[0].0 <= w[1].0));
        for (id, periods) in scheds.iter().enumerate() {
            let wakes = log.iter().filter(|&&(_, i)| i == id).count();
            prop_assert_eq!(wakes, periods.len() + 1);
        }
        prop_assert_eq!(out.wakes as usize, log.len());
        // Finish time of each process = the sum of its periods.
        for (id, periods) in scheds.iter().enumerate() {
            prop_assert_eq!(out.finish_times[id], Nanos(periods.iter().sum::<u64>()));
        }
    }

    /// Reruns are byte-identical.
    #[test]
    fn engine_deterministic(scheds in schedules()) {
        let build = || -> Vec<Logger> {
            scheds
                .iter()
                .enumerate()
                .map(|(id, periods)| Logger {
                    id,
                    periods: periods.clone(),
                    next: 0,
                })
                .collect()
        };
        let mut a = Vec::new();
        run_processes(&mut build(), &mut a);
        let mut b = Vec::new();
        run_processes(&mut build(), &mut b);
        prop_assert_eq!(a, b);
    }

    /// Barrier: whatever the arrival times, everyone is released exactly at
    /// the last arrival and nobody runs between their arrival and release.
    #[test]
    fn barrier_release_time_is_max_arrival(arrivals in proptest::collection::vec(0u64..1_000_000, 2..8)) {
        struct B {
            id: usize,
            at: u64,
            phase: u8,
        }
        #[derive(Default)]
        struct Env {
            arrived: Vec<usize>,
            n: usize,
            release: Option<Nanos>,
        }
        impl Process<Env> for B {
            fn wake(&mut self, now: Nanos, env: &mut Env, w: &mut Waker) -> Wake {
                if now < Nanos(self.at) {
                    return Wake::At(Nanos(self.at));
                }
                match self.phase {
                    0 => {
                        self.phase = 1;
                        env.arrived.push(self.id);
                        if env.arrived.len() == env.n {
                            env.release = Some(now);
                            for &p in &env.arrived {
                                if p != self.id {
                                    w.wake_at(p, now);
                                }
                            }
                            Wake::At(now)
                        } else {
                            Wake::Park
                        }
                    }
                    _ => Wake::Done,
                }
            }
        }
        let mut procs: Vec<B> = arrivals
            .iter()
            .enumerate()
            .map(|(id, &at)| B { id, at, phase: 0 })
            .collect();
        let mut env = Env {
            n: arrivals.len(),
            ..Default::default()
        };
        let out = run_processes(&mut procs, &mut env);
        let max_arrival = Nanos(*arrivals.iter().max().unwrap());
        prop_assert_eq!(env.release, Some(max_arrival));
        for t in &out.finish_times {
            prop_assert_eq!(*t, max_arrival);
        }
    }

    /// `run_processes` dispatches exactly as the naive reference scheduler
    /// does, wake for wake, and returns the same outcome, on schedules with
    /// ties, parks and `Waker` releases.
    #[test]
    fn dispatch_order_matches_naive_reference(procs in scripts()) {
        let world = || World { live: procs.len(), ..World::default() };
        let mut engine_world = world();
        let engine = run_processes(&mut procs.clone(), &mut engine_world);
        let mut reference_world = world();
        let expected = reference(&mut procs.clone(), &mut reference_world);
        prop_assert_eq!(&engine_world, &reference_world);
        prop_assert_eq!(engine, expected);
        prop_assert!(engine_world.parked.is_empty());
    }
}
