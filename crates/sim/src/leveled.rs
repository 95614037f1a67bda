//! Levelized intra-netlist multi-threading for the compiled engine.
//!
//! [`crate::CompiledSim`] already evaluates 64 vectors per sweep, and the
//! equivalence/error drivers scale further by running *many independent
//! sweeps* on separate threads. That leaves one workload stranded: a
//! single large netlist whose sweeps are inherently serial — switching
//! activity, where every word's toggles are counted against the previous
//! word, so sweep `k+1` cannot start before sweep `k` finishes.
//!
//! This module parallelizes *inside* one sweep instead. Ops on the same
//! topological level (recorded by [`CompiledNetlist::compile`]) are
//! mutually independent, so each sufficiently wide level is sharded
//! across a persistent worker team; runs of narrow levels (a ripple
//! adder's carry tail) are fused into serial stages executed by the
//! caller's thread with no synchronization inside the run. The only
//! synchronization is one [`SpinBarrier`] rendezvous per stage boundary —
//! cheap enough that a 32-bit multiplier netlist (a few thousand ops per
//! sweep) scales across cores.
//!
//! The executor is a bit-exact twin of [`crate::CompiledSim`]: same value
//! planes, same lane-wise toggle accounting, identical results for any
//! thread count (each value and toggle slot is written by exactly one
//! owner, and every count is an exact integer).
//!
//! # Examples
//!
//! ```
//! use sdlc_netlist::Netlist;
//! use sdlc_sim::{CompiledNetlist, CompiledSim};
//!
//! let mut n = Netlist::new("adder");
//! let a = n.add_input_bus("a", 8);
//! let b = n.add_input_bus("b", 8);
//! let s = sdlc_netlist::adders::ripple_add(&mut n, &a, &b);
//! n.set_output_bus("p", s);
//!
//! let program = CompiledNetlist::compile(&n);
//! let stimulus = vec![0x1234u64; 16];
//! let parallel_toggles = program.run_leveled(4, |sim| {
//!     sim.apply(&vec![0u64; 16]);
//!     sim.apply(&stimulus);
//!     sim.toggles_per_net()
//! });
//! let mut reference = CompiledSim::new(&program);
//! reference.apply(&vec![0u64; 16]);
//! reference.apply(&stimulus);
//! assert_eq!(parallel_toggles, reference.toggles_per_net());
//! ```

use std::sync::atomic::{AtomicBool, Ordering};

use sdlc_wideint::parallel::{chunk_range, SpinBarrier};

use crate::compile::{eval_op, CompiledNetlist, SLOT_CONST1};

/// Levels narrower than this run serially (fused with neighboring narrow
/// levels into one barrier-free run on the caller's thread): below ~200
/// ops, the work saved by sharding a level is smaller than the barrier
/// rendezvous it costs.
const PARALLEL_LEVEL_MIN_OPS: usize = 192;

/// One execution stage: a contiguous range of the level-ordered op
/// schedule, either sharded across all threads (one wide level) or run
/// serially by thread 0 (a fused run of narrow levels).
#[derive(Debug, Clone, Copy)]
struct Stage {
    start: usize,
    end: usize,
    parallel: bool,
}

/// Op schedule grouped by topological level with the stage plan.
#[derive(Debug)]
struct LevelSchedule {
    /// Op indices sorted by (level, program order).
    order: Vec<u32>,
    stages: Vec<Stage>,
}

impl LevelSchedule {
    fn plan(program: &CompiledNetlist) -> Self {
        let levels = program.op_levels();
        let max_level = program.max_level() as usize;
        // Counting sort by level; program order within a level is kept
        // (irrelevant for correctness — same-level ops are independent —
        // but cache-friendlier).
        let mut counts = vec![0usize; max_level + 2];
        for &l in levels {
            counts[l as usize + 1] += 1;
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let mut order = vec![0u32; levels.len()];
        let mut next = counts.clone();
        for (op, &l) in levels.iter().enumerate() {
            order[next[l as usize]] = op as u32;
            next[l as usize] += 1;
        }
        // Stage plan: wide levels become parallel stages; runs of narrow
        // levels fuse into serial stages.
        let mut stages = Vec::new();
        let mut serial_start = None;
        for level in 1..=max_level {
            // Level L's ops occupy order[counts[L]..counts[L + 1]]
            // (counts[k] = ops with level < k).
            let (start, end) = (counts[level], counts[level + 1]);
            if end - start >= PARALLEL_LEVEL_MIN_OPS {
                if let Some(s) = serial_start.take() {
                    stages.push(Stage {
                        start: s,
                        end: start,
                        parallel: false,
                    });
                }
                stages.push(Stage {
                    start,
                    end,
                    parallel: true,
                });
            } else if serial_start.is_none() {
                serial_start = Some(start);
            }
        }
        if let Some(s) = serial_start {
            stages.push(Stage {
                start: s,
                end: order.len(),
                parallel: false,
            });
        }
        // Protocol invariant: every sweep needs at least one stage
        // barrier *after* the start barrier. The workers read the
        // `stop`/`toggled` flags right after the start rendezvous, and
        // thread 0 must not be able to publish the next sweep's (or the
        // dismissal's) flags until those reads are done — which the first
        // stage barrier guarantees, since thread 0 cannot pass it before
        // every worker has arrived. A fully-folded program (zero ops)
        // would otherwise let thread 0 race a whole sweep ahead and
        // deadlock the team.
        if stages.is_empty() {
            stages.push(Stage {
                start: 0,
                end: 0,
                parallel: false,
            });
        }
        Self { order, stages }
    }
}

/// Raw views of the shared value/toggle arrays. Safety rests on the
/// ownership discipline documented at the `unsafe` sites: every slot is
/// written by exactly one thread per sweep, and all cross-thread
/// read-after-write pairs are separated by a barrier rendezvous (whose
/// Release/Acquire generation counter provides the happens-before edge).
struct SharedLanes {
    values: *mut u64,
    toggles: *mut u64,
}

unsafe impl Sync for SharedLanes {}

/// Everything the worker team shares for the lifetime of one
/// [`CompiledNetlist::run_leveled`] call.
struct TeamContext<'p> {
    program: &'p CompiledNetlist,
    schedule: LevelSchedule,
    lanes: SharedLanes,
    barrier: SpinBarrier,
    stop: AtomicBool,
    toggled: AtomicBool,
    threads: usize,
}

impl TeamContext<'_> {
    /// Executes this thread's share of every stage of one sweep, with a
    /// barrier after each stage. Called with identical stage/barrier
    /// sequencing by thread 0 (from [`LeveledSim::apply`]) and by every
    /// worker, so the rendezvous counts always line up.
    fn run_stages(&self, thread: usize, toggled: bool) {
        for stage in &self.schedule.stages {
            let (lo, hi) = if stage.parallel {
                let (lo, hi) = chunk_range(stage.end - stage.start, self.threads, thread);
                (stage.start + lo, stage.start + hi)
            } else if thread == 0 {
                (stage.start, stage.end)
            } else {
                (0, 0)
            };
            let p = self.program;
            for &op in &self.schedule.order[lo..hi] {
                let op = op as usize;
                let (s0, s1, s2) = (p.src0[op], p.src1[op], p.src2[op]);
                let d = p.dst[op] as usize;
                // SAFETY: sources were fully written in earlier stages
                // (barrier-ordered) or, within a serial stage, earlier in
                // this thread's own program-ordered run; `d` is this op's
                // unique destination slot, owned by exactly this thread
                // for the whole sweep.
                unsafe {
                    let a = *self.lanes.values.add(s0 as usize);
                    let b = *self.lanes.values.add(s1 as usize);
                    let c = *self.lanes.values.add(s2 as usize);
                    let new = eval_op(p.code[op], a, b, c);
                    let slot = self.lanes.values.add(d);
                    if toggled {
                        let t = self.lanes.toggles.add(d);
                        *t += u64::from((*slot ^ new).count_ones());
                    }
                    *slot = new;
                }
            }
            self.barrier.wait();
        }
    }
}

fn worker_loop(ctx: &TeamContext<'_>, thread: usize) {
    loop {
        // Start-of-sweep rendezvous (doubles as the exit rendezvous).
        ctx.barrier.wait();
        // These reads are race-free because thread 0 publishes the flags
        // before its own arrival and cannot publish new values until the
        // sweep's first stage barrier — which exists for every program
        // (see the LevelSchedule::plan invariant) and which this thread
        // has not arrived at yet.
        if ctx.stop.load(Ordering::Acquire) {
            break;
        }
        let toggled = ctx.toggled.load(Ordering::Acquire);
        ctx.run_stages(thread, toggled);
    }
}

/// Multi-threaded levelized executor over a compiled program — the
/// [`crate::CompiledSim`] twin handed to the closure of
/// [`CompiledNetlist::run_leveled`].
pub struct LeveledSim<'t, 'p> {
    ctx: &'t TeamContext<'p>,
    words_applied: u64,
}

impl LeveledSim<'_, '_> {
    fn sweep(&mut self, stimulus: &[u64], toggled: bool) {
        let ctx = self.ctx;
        let p = ctx.program;
        assert_eq!(
            stimulus.len(),
            p.input_slots().len(),
            "stimulus width mismatch"
        );
        // Thread 0 owns the input slots; workers are parked at the
        // start-of-sweep barrier while these are written.
        for (&slot, &word) in p.input_slots().iter().zip(stimulus) {
            let slot = slot as usize;
            // SAFETY: exclusive access — workers only run between the two
            // barrier rendezvous below.
            unsafe {
                let v = ctx.lanes.values.add(slot);
                if toggled {
                    let t = ctx.lanes.toggles.add(slot);
                    *t += u64::from((*v ^ word).count_ones());
                }
                *v = word;
            }
        }
        if ctx.threads == 1 {
            ctx.run_stages(0, toggled);
        } else {
            ctx.toggled.store(toggled, Ordering::Release);
            ctx.barrier.wait(); // release the team into this sweep
            ctx.run_stages(0, toggled);
        }
    }

    /// Applies one stimulus word per primary input and settles all lanes,
    /// accumulating lane-wise toggle counts against the previous word —
    /// bit-identical to [`crate::CompiledSim::apply`] for every thread
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if the stimulus length differs from the input count.
    pub fn apply(&mut self, stimulus: &[u64]) {
        self.sweep(stimulus, self.words_applied > 0);
        self.words_applied += 1;
    }

    /// Settles all lanes *without* toggle accounting.
    ///
    /// # Panics
    ///
    /// Panics if the stimulus length differs from the input count.
    pub fn evaluate(&mut self, stimulus: &[u64]) {
        self.sweep(stimulus, false);
    }

    /// Current 64-lane plane of one net.
    #[must_use]
    pub fn plane(&self, net: sdlc_netlist::NetId) -> u64 {
        // SAFETY: the team is parked between sweeps; reads race nothing.
        unsafe { *self.ctx.lanes.values.add(self.ctx.program.slot_of(net)) }
    }

    /// Lane-`lane` value of one net.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64`.
    #[must_use]
    pub fn lane_value(&self, net: sdlc_netlist::NetId, lane: u32) -> bool {
        assert!(lane < 64);
        (self.plane(net) >> lane) & 1 == 1
    }

    /// Per-net toggle counts summed over all 64 lanes, scattered to the
    /// source netlist's net indexing — identical to
    /// [`crate::CompiledSim::toggles_per_net`].
    #[must_use]
    pub fn toggles_per_net(&self) -> Vec<u64> {
        let count = self.ctx.program.slot_count();
        // SAFETY: the team is parked between sweeps; reads race nothing.
        let toggles: Vec<u64> = (0..count)
            .map(|i| unsafe { *self.ctx.lanes.toggles.add(i) })
            .collect();
        self.ctx.program.scatter_toggles(&toggles)
    }

    /// Number of stimulus words applied with toggle accounting.
    #[must_use]
    pub fn words_applied(&self) -> u64 {
        self.words_applied
    }

    /// Total vectors that produced countable transitions:
    /// `(words − 1) × 64`.
    #[must_use]
    pub fn transition_vectors(&self) -> u64 {
        self.words_applied.saturating_sub(1) * 64
    }
}

impl CompiledNetlist {
    /// Runs `f` with a levelized multi-threaded executor backed by
    /// `threads` scoped threads (the caller's thread plus `threads − 1`
    /// persistent workers; `threads <= 1` degrades to a serial sweep with
    /// no synchronization at all).
    ///
    /// The executor produces values and toggle totals bit-identical to
    /// [`crate::CompiledSim`] regardless of `threads` — the thread count
    /// only changes wall-clock time. Workers live for the whole closure,
    /// so the per-sweep cost is a handful of spin-barrier rendezvous, not
    /// thread spawns.
    pub fn run_leveled<R>(
        &self,
        threads: usize,
        f: impl FnOnce(&mut LeveledSim<'_, '_>) -> R,
    ) -> R {
        let threads = threads.max(1);
        let mut values = vec![0u64; self.slot_count()];
        values[SLOT_CONST1 as usize] = u64::MAX;
        let mut toggles = vec![0u64; self.slot_count()];
        let ctx = TeamContext {
            program: self,
            schedule: LevelSchedule::plan(self),
            lanes: SharedLanes {
                values: values.as_mut_ptr(),
                toggles: toggles.as_mut_ptr(),
            },
            barrier: SpinBarrier::new(threads),
            stop: AtomicBool::new(false),
            toggled: AtomicBool::new(false),
            threads,
        };
        if threads == 1 {
            let mut sim = LeveledSim {
                ctx: &ctx,
                words_applied: 0,
            };
            return f(&mut sim);
        }
        std::thread::scope(|scope| {
            for t in 1..threads {
                let ctx = &ctx;
                scope.spawn(move || worker_loop(ctx, t));
            }
            // Release the team into its exit path on BOTH the normal
            // return and an unwind out of `f` (workers are parked at the
            // start-of-sweep barrier between sweeps; without this, a
            // panicking closure would leave `scope` joining spinning
            // workers forever).
            struct Dismiss<'a, 'p>(&'a TeamContext<'p>);
            impl Drop for Dismiss<'_, '_> {
                fn drop(&mut self) {
                    self.0.stop.store(true, Ordering::Release);
                    self.0.barrier.wait();
                }
            }
            let dismiss = Dismiss(&ctx);
            let mut sim = LeveledSim {
                ctx: dismiss.0,
                words_applied: 0,
            };
            f(&mut sim)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CompiledSim;
    use sdlc_netlist::Netlist;
    use sdlc_wideint::SplitMix64;

    fn adder(width: u32) -> Netlist {
        let mut n = Netlist::new("adder");
        let a = n.add_input_bus("a", width);
        let b = n.add_input_bus("b", width);
        let s = sdlc_netlist::adders::ripple_add(&mut n, &a, &b);
        n.set_output_bus("p", s);
        n
    }

    #[test]
    fn matches_compiled_sim_for_every_thread_count() {
        let n = adder(10);
        let program = CompiledNetlist::compile(&n);
        let mut rng = SplitMix64::new(0x1EE7);
        let words: Vec<Vec<u64>> = (0..9)
            .map(|_| (0..20).map(|_| rng.next_u64()).collect())
            .collect();
        let mut reference = CompiledSim::new(&program);
        for word in &words {
            reference.apply(word);
        }
        for threads in [1usize, 2, 3, 5] {
            let (toggles, planes) = program.run_leveled(threads, |sim| {
                for word in &words {
                    sim.apply(word);
                }
                assert_eq!(sim.words_applied(), words.len() as u64);
                assert_eq!(sim.transition_vectors(), reference.transition_vectors());
                let planes: Vec<u64> = n.gates().iter().map(|g| sim.plane(g.output)).collect();
                (sim.toggles_per_net(), planes)
            });
            assert_eq!(toggles, reference.toggles_per_net(), "{threads} threads");
            let reference_planes: Vec<u64> = n
                .gates()
                .iter()
                .map(|g| reference.plane(g.output))
                .collect();
            assert_eq!(planes, reference_planes, "{threads} threads");
        }
    }

    #[test]
    fn evaluate_skips_toggles_and_multiple_runs_compose() {
        let n = adder(6);
        let program = CompiledNetlist::compile(&n);
        program.run_leveled(2, |sim| {
            sim.evaluate(&[u64::MAX; 12]);
            assert!(sim.toggles_per_net().iter().all(|&t| t == 0));
            assert_eq!(sim.words_applied(), 0);
            // A fresh apply after evaluate establishes state for free.
            sim.apply(&[0u64; 12]);
            assert_eq!(sim.transition_vectors(), 0);
        });
        // A second team over the same program starts from scratch.
        program.run_leveled(2, |sim| {
            sim.apply(&[0u64; 12]);
            assert_eq!(sim.words_applied(), 1);
        });
    }

    /// Two uniformly wide levels (both above the parallel threshold) —
    /// the shape where a stage plan that mis-indexes level ranges drops
    /// the deepest level entirely.
    fn wide_two_level(width: u32) -> Netlist {
        let mut n = Netlist::new("wide2");
        let a = n.add_input_bus("a", width);
        let xs: Vec<_> = (0..width as usize)
            .map(|i| n.xor2(a[i], a[(i + 7) % width as usize]))
            .collect();
        let ys: Vec<_> = (0..width as usize)
            .map(|i| n.and2(xs[i], xs[(i + 13) % width as usize]))
            .collect();
        n.set_output_bus("p", ys.iter().rev().take(8).copied().collect());
        n
    }

    #[test]
    fn wide_parallel_levels_match_compiled_sim() {
        let n = wide_two_level(300);
        let program = CompiledNetlist::compile(&n);
        // Both logic levels are wide enough to shard.
        let schedule = LevelSchedule::plan(&program);
        assert!(schedule.stages.iter().filter(|s| s.parallel).count() >= 2);
        let mut rng = SplitMix64::new(0x51DE);
        let words: Vec<Vec<u64>> = (0..5)
            .map(|_| (0..300).map(|_| rng.next_u64()).collect())
            .collect();
        let mut reference = CompiledSim::new(&program);
        for word in &words {
            reference.apply(word);
        }
        let toggles = program.run_leveled(3, |sim| {
            for word in &words {
                sim.apply(word);
            }
            let planes: Vec<u64> = n.gates().iter().map(|g| sim.plane(g.output)).collect();
            let reference_planes: Vec<u64> = n
                .gates()
                .iter()
                .map(|g| reference.plane(g.output))
                .collect();
            assert_eq!(planes, reference_planes);
            sim.toggles_per_net()
        });
        assert_eq!(toggles, reference.toggles_per_net());
    }

    #[test]
    fn stage_plan_covers_every_op_exactly_once() {
        // Both all-narrow (serial-fused) and all-wide (parallel) shapes.
        for n in [adder(12), wide_two_level(256)] {
            let program = CompiledNetlist::compile(&n);
            let schedule = LevelSchedule::plan(&program);
            assert_eq!(schedule.order.len(), program.op_count());
            let mut seen = vec![false; program.op_count()];
            let mut covered = 0;
            for stage in &schedule.stages {
                assert!(stage.start <= stage.end && stage.end <= schedule.order.len());
                for &op in &schedule.order[stage.start..stage.end] {
                    assert!(!seen[op as usize], "op {op} scheduled twice");
                    seen[op as usize] = true;
                    covered += 1;
                }
            }
            assert_eq!(covered, program.op_count(), "{}", n.name());
            // Levels never decrease along the schedule.
            let levels = program.op_levels();
            for pair in schedule.order.windows(2) {
                assert!(levels[pair[0] as usize] <= levels[pair[1] as usize]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "stimulus width mismatch")]
    fn wrong_stimulus_width_panics() {
        let n = adder(4);
        let program = CompiledNetlist::compile(&n);
        program.run_leveled(2, |sim| sim.apply(&[0]));
    }
}
