//! ECO re-optimization: re-running the search after a netlist edit.
//!
//! [`Optimizer::rerun_after_edit`] optimizes the *post-edit* problem while
//! reusing what the pre-edit run learned:
//!
//! * the previous solution's input vector, and
//! * the seed and per-unit best vectors recorded in a checkpoint file of
//!   any plan (a single run's or a portfolio's),
//!
//! are re-evaluated as feasible incumbents on the post-edit problem and
//! fed to the shared cross-worker bound before the branch and bound
//! starts: a one-member Heuristic 2 plan with warm vectors.
//!
//! # Soundness: value reuse, not exploration skipping
//!
//! Recorded *subtree exploration* cannot be replayed after a functional
//! edit — a rewire preserves every count a checkpoint's meta line records
//! while changing the circuit function, so "the subtree was fully
//! explored" no longer means anything about the post-edit tree. What
//! *does* survive an edit is that any complete input vector is still a
//! complete input vector: re-evaluating it on the post-edit problem
//! yields a genuine feasible leaf value, an upper bound on the post-edit
//! optimum. Feeding such values to the shared incumbent (whose prune is
//! strict `>`) can only speed convergence; the returned solution is
//! bit-identical to a cold run at any thread count. Edits are mostly
//! local (Kitahara-style selective methodologies), so the previous
//! vector's value usually lands close to the new optimum and prunes most
//! of the tree immediately.

use std::path::Path;
use std::sync::Mutex;

use svtox_exec::{ExecConfig, SearchStats};
use svtox_netlist::EditTrace;

use crate::checkpoint;
use crate::error::OptError;
use crate::solution::Solution;

use super::engine::Run;
use super::portfolio::{Plan, Strategy};
use super::Optimizer;

/// Outcome of pre-search warm seeding ([`Optimizer::rerun_after_edit`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WarmStats {
    /// Candidate vectors offered.
    pub candidates: usize,
    /// Candidates whose length matched the problem and were evaluated.
    pub evaluated: usize,
    /// Best (lowest) warm leakage value, if any candidate was evaluated.
    pub best: Option<f64>,
}

/// A caller-owned record of how a search converges, counted in evaluated
/// leaves instead of wall time, so two runs can be compared on the same
/// amount of work (the `suite --eco-bench` race).
///
/// Every leaf the search evaluates counts once, and so do the Heuristic 1
/// seed and each evaluated warm vector. The trajectory holds one
/// `(leaves, cost)` point per new best leaf value, stamped with the
/// count that includes that leaf. A run whose count reaches the cap
/// evaluates no further leaf: it stops like a cancelled one and returns
/// its best so far. With one worker the
/// trajectory and the stopping point are deterministic; with more they
/// depend on scheduling.
#[derive(Debug)]
pub struct Convergence {
    cap: u64,
    state: Mutex<(u64, Vec<(u64, f64)>)>,
}

impl Convergence {
    /// An empty record that stops the run after `leaf_cap` leaves.
    #[must_use]
    pub fn new(leaf_cap: u64) -> Self {
        Self {
            cap: leaf_cap,
            state: Mutex::new((0, Vec::new())),
        }
    }

    /// Leaves counted so far.
    #[must_use]
    pub fn leaves(&self) -> u64 {
        self.state.lock().expect("convergence lock").0
    }

    /// The `(leaves, cost)` points, strictly decreasing in cost.
    #[must_use]
    pub fn trajectory(&self) -> Vec<(u64, f64)> {
        self.state.lock().expect("convergence lock").1.clone()
    }

    /// Whether the count has reached the cap.
    pub(crate) fn spent(&self) -> bool {
        self.leaves() >= self.cap
    }

    /// Counts one evaluated leaf of value `cost`, or `None` for a leaf
    /// abandoned under a cutoff (it could not have been a new best, so it
    /// adds no point); true once the cap is reached.
    pub(crate) fn leaf(&self, cost: Option<f64>) -> bool {
        let mut state = self.state.lock().expect("convergence lock");
        state.0 += 1;
        let count = state.0;
        if let Some(cost) = cost {
            if state.1.last().is_none_or(|&(_, best)| cost < best) {
                state.1.push((count, cost));
            }
        }
        count >= self.cap
    }
}

/// What an ECO re-optimization did: the new solution plus reuse stats.
#[derive(Debug, Clone)]
pub struct EcoReport {
    /// The post-edit optimum (bit-identical to a cold re-run).
    pub solution: Solution,
    /// Search statistics of the re-run.
    pub stats: SearchStats,
    /// Warm-seeding outcome (candidates offered / evaluated / best value).
    pub warm: WarmStats,
    /// Vectors recovered from the checkpoint file (0 without one).
    pub checkpoint_vectors: usize,
    /// Pre-edit gates that survived the edit (reused assignments context).
    pub gates_carried: usize,
    /// Gates in the post-edit netlist.
    pub gates_total: usize,
}

impl EcoReport {
    /// Fraction of post-edit gates carried over from before the edit.
    #[must_use]
    pub fn carry_ratio(&self) -> f64 {
        if self.gates_total == 0 {
            return 0.0;
        }
        self.gates_carried as f64 / self.gates_total as f64
    }
}

impl<'a> Optimizer<'a> {
    /// Re-optimizes after a netlist edit, warm-seeded by the previous
    /// solution and (optionally) a checkpoint file from the pre-edit run.
    ///
    /// `self` must be built on the **post-edit** problem. `trace` is the
    /// edit's id mapping (used for reuse reporting); `prev` is the
    /// pre-edit solution, `checkpoint` a checkpoint file of any pre-edit
    /// run whose seed and per-unit best vectors are mined as additional
    /// warm candidates (best-effort: an unreadable or foreign file
    /// contributes nothing). `watch` optionally records the run's
    /// convergence in leaves and caps its work; with neither `prev` nor
    /// `checkpoint` this is a cold [`Optimizer::run`] that records it.
    ///
    /// The returned solution is **bit-identical** to a cold
    /// [`Optimizer::run`] on the same problem at any thread count — reuse
    /// affects speed, not the answer. Candidate
    /// vectors whose length no longer matches (the edit changed the
    /// primary-input count) are skipped silently.
    ///
    /// # Errors
    ///
    /// Returns an error on library lookup failure.
    pub fn rerun_after_edit(
        &self,
        exec: &ExecConfig,
        prev: Option<&Solution>,
        trace: &EditTrace,
        checkpoint: Option<&Path>,
        watch: Option<&Convergence>,
    ) -> Result<EcoReport, OptError> {
        let _span = self.obs.span("core.eco.rerun");
        let mut warm_vectors: Vec<Vec<bool>> = Vec::new();
        if let Some(sol) = prev {
            warm_vectors.push(sol.vector.clone());
        }
        let mut checkpoint_vectors = 0usize;
        if let Some(path) = checkpoint {
            if let Ok(Some(loaded)) = checkpoint::load(path) {
                let mut push = |v: &Vec<bool>| {
                    if !warm_vectors.contains(v) {
                        warm_vectors.push(v.clone());
                        checkpoint_vectors += 1;
                    }
                };
                if let Some(seed) = &loaded.meta.seed {
                    push(&seed.vector);
                }
                for task in loaded.tasks.values() {
                    if let Some(sol) = &task.solution {
                        push(&sol.vector);
                    }
                }
            }
        }
        let run = Run {
            warm: &warm_vectors,
            watch,
            ..Run::new(Plan::single(Strategy::Heuristic2(self.input_order)))
        };
        let (outcome, warm) = self.search(exec, &exec.budget(), &run)?;
        let gates_total = self.problem.netlist().num_gates();
        let gates_carried = trace.gates_carried().min(gates_total);
        self.obs.add("core.eco.runs", 1);
        self.obs
            .add("core.eco.warm_candidates", warm.candidates as u64);
        self.obs
            .add("core.eco.warm_evaluated", warm.evaluated as u64);
        self.obs
            .add("core.eco.checkpoint_vectors", checkpoint_vectors as u64);
        self.obs.add("core.eco.gates_carried", gates_carried as u64);
        self.obs.add("core.eco.gates_total", gates_total as u64);
        Ok(EcoReport {
            solution: outcome.best,
            stats: outcome.stats,
            warm,
            checkpoint_vectors,
            gates_carried,
            gates_total,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svtox_cells::{Library, LibraryOptions};
    use svtox_netlist::generators::{random_dag, RandomDagSpec};
    use svtox_netlist::{EditScript, Netlist};
    use svtox_sta::TimingConfig;
    use svtox_tech::Technology;

    use crate::problem::{DelayPenalty, Mode, Problem};

    fn library() -> Library {
        Library::new(Technology::predictive_65nm(), LibraryOptions::default()).unwrap()
    }

    fn base() -> Netlist {
        random_dag(&RandomDagSpec::new("eco-small", 8, 4, 40, 6)).unwrap()
    }

    /// A cold, completed run at `threads` workers.
    fn cold(opt: &Optimizer<'_>, threads: usize) -> Solution {
        match opt.run(&ExecConfig::with_threads(threads), None) {
            crate::outcome::RunOutcome::Complete { solution, .. } => solution,
            other => panic!("expected a complete run, got {other:?}"),
        }
    }

    /// A small functional edit: add two gates, rewire a PO driver pin,
    /// retag one output.
    fn edit(netlist: &mut Netlist) -> EditTrace {
        let pi0 = netlist.net(netlist.inputs()[0]).name().to_string();
        let pi1 = netlist.net(netlist.inputs()[1]).name().to_string();
        let po0 = netlist.net(netlist.outputs()[0]).name().to_string();
        let script = EditScript::parse(&format!(
            "add eco_a = NAND({pi0}, {pi1})\nadd eco_b = NOT(eco_a)\nrewire {po0} 0 eco_b\n"
        ))
        .unwrap();
        script.apply(netlist).unwrap()
    }

    #[test]
    fn a_leaf_cap_stops_a_serial_run_at_the_same_leaf_every_time() {
        let lib = library();
        let pre = base();
        let problem = Problem::new(&pre, &lib, TimingConfig::default()).unwrap();
        let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
        let prev = cold(&opt, 1);
        let mut post = pre.clone();
        let trace = edit(&mut post);
        let post_problem = Problem::new(&post, &lib, TimingConfig::default()).unwrap();
        let post_opt = post_problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);

        let capped = |cap: u64| {
            let watch = Convergence::new(cap);
            let report = post_opt
                .rerun_after_edit(
                    &ExecConfig::serial(),
                    Some(&prev),
                    &trace,
                    None,
                    Some(&watch),
                )
                .unwrap();
            (watch.leaves(), watch.trajectory(), report.solution)
        };
        let (leaves, trajectory, solution) = capped(5);
        // The seed, the warm vector, then three search leaves.
        assert_eq!(leaves, 5);
        assert_eq!(trajectory.first().map(|p| p.0), Some(1));
        assert!(trajectory
            .windows(2)
            .all(|w| w[0].0 < w[1].0 && w[0].1 > w[1].1));
        let (again, trajectory_again, solution_again) = capped(5);
        assert_eq!((leaves, &trajectory), (again, &trajectory_again));
        assert!(solution.same_assignment(&solution_again));
        // The cut run answers with the best leaf it evaluated, the warm
        // vector included.
        assert_eq!(
            Some(solution.leakage.value()),
            trajectory.last().map(|p| p.1)
        );

        // With a cap the run never reaches, the record only watches: the
        // answer is the cold one.
        let watch = Convergence::new(u64::MAX);
        let report = post_opt
            .rerun_after_edit(
                &ExecConfig::serial(),
                Some(&prev),
                &trace,
                None,
                Some(&watch),
            )
            .unwrap();
        assert!(report.solution.same_assignment(&cold(&post_opt, 1)));
        assert_eq!(
            watch.leaves(),
            2 + report.stats.leaves_evaluated(),
            "seed + warm vector + every search leaf"
        );
        let last = watch.trajectory().last().unwrap().1;
        assert!(last <= report.solution.leakage.value());
    }

    #[test]
    fn eco_rerun_is_bit_identical_to_cold_at_every_thread_count() {
        let lib = library();
        let pre = base();
        let problem = Problem::new(&pre, &lib, TimingConfig::default()).unwrap();
        let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
        let prev = cold(&opt, 2);

        let mut post = pre.clone();
        let trace = edit(&mut post);
        let post_problem = Problem::new(&post, &lib, TimingConfig::default()).unwrap();
        let post_opt = post_problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);

        let cold = cold(&post_opt, 1);
        for threads in [1usize, 2, 4] {
            let report = post_opt
                .rerun_after_edit(
                    &ExecConfig::with_threads(threads),
                    Some(&prev),
                    &trace,
                    None,
                    None,
                )
                .unwrap();
            assert!(
                report.solution.same_assignment(&cold),
                "threads={threads}: eco {} vs cold {}",
                report.solution,
                cold
            );
            assert_eq!(report.warm.candidates, 1);
            assert_eq!(report.warm.evaluated, 1);
            let warm_best = report.warm.best.unwrap();
            assert!(
                warm_best >= cold.leakage.value() - 1e-12,
                "warm value {warm_best} below the optimum"
            );
            assert_eq!(report.gates_total, post.num_gates());
            assert_eq!(report.gates_carried, pre.num_gates());
            assert!(report.carry_ratio() > 0.9);
        }
    }

    #[test]
    fn stale_vector_lengths_are_skipped() {
        let lib = library();
        let netlist = base();
        let problem = Problem::new(&netlist, &lib, TimingConfig::default()).unwrap();
        let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
        // A "previous" solution with the wrong input count.
        let mut prev = cold(&opt, 1);
        prev.vector.pop();
        let trace = EditTrace {
            gate_map: Vec::new(),
            net_map: Vec::new(),
            added_gates: 0,
            removed_gates: 0,
            rewired_pins: 0,
            retagged_outputs: 0,
        };
        let report = opt
            .rerun_after_edit(&ExecConfig::serial(), Some(&prev), &trace, None, None)
            .unwrap();
        assert_eq!(report.warm.candidates, 1);
        assert_eq!(report.warm.evaluated, 0);
        assert_eq!(report.warm.best, None);
        assert!(report.solution.same_assignment(&cold(&opt, 1)));
    }

    #[test]
    fn checkpoint_vectors_feed_the_warm_seed() {
        use crate::checkpoint::CheckpointSpec;

        let lib = library();
        let pre = base();
        let problem = Problem::new(&pre, &lib, TimingConfig::default()).unwrap();
        let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
        let dir = std::env::temp_dir().join(format!("svtox-eco-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pre.ckpt");
        let exec = ExecConfig::with_threads(2);
        let prev = match opt.run(&exec, Some(&CheckpointSpec::fresh(&path))) {
            crate::outcome::RunOutcome::Complete { solution, .. } => solution,
            other => panic!("expected a complete run, got {other:?}"),
        };

        let mut post = pre.clone();
        let trace = edit(&mut post);
        let post_problem = Problem::new(&post, &lib, TimingConfig::default()).unwrap();
        let post_opt = post_problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
        let report = post_opt
            .rerun_after_edit(&exec, Some(&prev), &trace, Some(&path), None)
            .unwrap();
        // The checkpoint contributed at least the H1 seed vector (tasks
        // may or may not record distinct ones), and everything offered
        // with a matching length got evaluated.
        assert!(report.checkpoint_vectors >= 1);
        assert_eq!(report.warm.candidates, 1 + report.checkpoint_vectors);
        assert_eq!(report.warm.evaluated, report.warm.candidates);
        assert!(report.solution.same_assignment(&cold(&post_opt, 1)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn portfolio_checkpoints_feed_the_warm_seed_too() {
        use crate::checkpoint::CheckpointSpec;
        use crate::state_search::portfolio::Plan;
        use svtox_exec::Budget;

        let lib = library();
        let pre = base();
        let problem = Problem::new(&pre, &lib, TimingConfig::default()).unwrap();
        let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
        let path =
            std::env::temp_dir().join(format!("svtox-eco-portfolio-{}.ckpt", std::process::id()));
        let plan = Plan {
            restarts: 4,
            ..Plan::default().without_exact()
        };
        opt.run_portfolio(
            &ExecConfig::serial(),
            &Budget::unlimited(),
            &plan,
            Some(&CheckpointSpec::fresh(&path)),
        )
        .unwrap();

        let mut post = pre.clone();
        let trace = edit(&mut post);
        let post_problem = Problem::new(&post, &lib, TimingConfig::default()).unwrap();
        let post_opt = post_problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
        let report = post_opt
            .rerun_after_edit(&ExecConfig::serial(), None, &trace, Some(&path), None)
            .unwrap();
        // The portfolio's one file holds at least the Heuristic 1 seed.
        assert!(report.checkpoint_vectors >= 1);
        assert_eq!(report.warm.evaluated, report.checkpoint_vectors);
        assert!(report.solution.same_assignment(&cold(&post_opt, 1)));
        std::fs::remove_file(&path).ok();
    }
}
