//! The production entry point: fault-tolerant, checkpointed search.
//!
//! [`Optimizer::run`] is a one-member Heuristic 2 plan over the search
//! engine, under the degradation contract of
//! [`crate::outcome::RunOutcome`]:
//!
//! * the execution engine runs with the optimizer's fault handle and
//!   retry policy, so injected (or real) task panics retry with rebuilt
//!   worker state and dead workers respawn — see `svtox_exec::run_pool`;
//! * any shortfall that still leaves an incumbent (deadline, cancel,
//!   exhausted retry/respawn budgets) degrades instead of erroring,
//!   carrying the best solution found and the reason;
//! * with a [`CheckpointSpec`], every exhaustively explored unit is
//!   appended to a JSONL file as it finishes, and a resumed run replays
//!   those records instead of recomputing them — the final solution is
//!   bit-identical to an uninterrupted run (same assignment for any
//!   thread count on either side; additionally the same leaf count
//!   serially).

use svtox_exec::{Budget, ExecConfig};

use crate::checkpoint::CheckpointSpec;
use crate::outcome::RunOutcome;

use super::engine::Run;
use super::portfolio::{Plan, Strategy};
use super::Optimizer;

impl<'a> Optimizer<'a> {
    /// Runs the Heuristic 2 search under the full robustness contract:
    /// retries and respawns per the engine's
    /// [`svtox_exec::RetryPolicy`], fault injection at every registered
    /// site, optional checkpointing, and a typed [`RunOutcome`] instead
    /// of an error that would discard the incumbent.
    ///
    /// Heuristic 1 seeds the search; the result is bit-identical for any
    /// thread count when nothing goes wrong.
    pub fn run(&self, exec: &ExecConfig, checkpoint: Option<&CheckpointSpec>) -> RunOutcome {
        self.run_with_budget(exec, &exec.budget_faulted(self.fault), checkpoint)
    }

    /// [`Optimizer::run`] under a caller-supplied [`Budget`].
    ///
    /// The caller owns the budget's deadline and cancellation token, so
    /// an external actor — a Ctrl-C handler, a job-cancel endpoint, a
    /// server shutdown — can stop the run cooperatively; the outcome is
    /// then [`RunOutcome::Degraded`] with
    /// [`crate::outcome::DegradeReason::Cancelled`] (or `DeadlineExpired`
    /// when the budget's own deadline fired first). Note the budget
    /// bypasses the `clock.skew` fault site, which only
    /// [`Optimizer::run`] routes through.
    pub fn run_with_budget(
        &self,
        exec: &ExecConfig,
        budget: &Budget,
        checkpoint: Option<&CheckpointSpec>,
    ) -> RunOutcome {
        let _span = self.obs.span("core.run");
        let run = Run {
            checkpoint,
            ..Run::new(Plan::single(Strategy::Heuristic2(self.input_order)))
        };
        match self.search(exec, budget, &run) {
            Ok((outcome, _)) => outcome.into_run_outcome(),
            Err(error) => RunOutcome::Failed { error },
        }
    }
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    use svtox_cells::{Library, LibraryOptions};
    use svtox_exec::{ExecConfig, RetryPolicy};
    use svtox_fault::{Fault, FaultPlan, Site, Trigger};
    use svtox_netlist::generators::{random_dag, RandomDagSpec};
    use svtox_netlist::Netlist;
    use svtox_sta::TimingConfig;
    use svtox_tech::Technology;

    use crate::checkpoint::CheckpointSpec;
    use crate::outcome::{DegradeReason, RunOutcome};
    use crate::problem::{DelayPenalty, Mode, Problem};

    fn small() -> (Netlist, Library) {
        let spec = RandomDagSpec::new("resilient-small", 7, 4, 32, 5);
        (
            random_dag(&spec).unwrap(),
            Library::new(Technology::predictive_65nm(), LibraryOptions::default()).unwrap(),
        )
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "svtox-resilient-{tag}-{}.jsonl",
            std::process::id()
        ))
    }

    /// The completed solution of a fault-free run.
    fn reference(opt: &crate::Optimizer<'_>, exec: &ExecConfig) -> crate::Solution {
        match opt.run(exec, None) {
            RunOutcome::Complete { solution, .. } => solution,
            other => panic!("fault-free run must complete, got {other}"),
        }
    }

    #[test]
    fn fault_free_run_is_thread_count_invariant() {
        let (n, lib) = small();
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
        let serial = reference(&opt, &ExecConfig::serial());
        let outcome = opt.run(&ExecConfig::with_threads(2), None);
        let RunOutcome::Complete { solution, stats } = outcome else {
            panic!("fault-free run must complete, got {outcome}");
        };
        assert!(stats.completed);
        assert!(solution.same_assignment(&serial));
        assert!(solution.leaves_explored > 1, "the search ran past the seed");
    }

    #[test]
    fn mid_search_kill_then_resume_is_bit_identical() {
        let (n, lib) = small();
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
        let exec = ExecConfig::with_threads(1);
        let reference = reference(&opt, &exec);

        let path = temp_path("kill-resume");
        let plan = FaultPlan::new(11).with_rule(Site::CoreLeaf, Trigger::Nth(5));
        let fault = Fault::new(&plan);
        let killed = opt
            .with_fault(&fault)
            .run(&exec, Some(&CheckpointSpec::fresh(&path)));
        let RunOutcome::Degraded { reason, best, .. } = killed else {
            panic!("the kill fault must degrade the run, got {killed}");
        };
        assert_eq!(reason, DegradeReason::Cancelled);
        assert!(best.leakage.value() <= opt.heuristic1().unwrap().leakage.value() + 1e-12);

        let resumed = opt.run(&exec, Some(&CheckpointSpec::resume(&path)));
        let RunOutcome::Complete { solution, .. } = resumed else {
            panic!("resume must complete, got {resumed}");
        };
        assert!(solution.same_assignment(&reference));
        // Serially the replay is exact to the leaf count as well.
        assert_eq!(solution.leaves_explored, reference.leaves_explored);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn external_cancel_degrades_with_a_flushed_checkpoint() {
        use svtox_exec::{Budget, CancelToken};
        let (n, lib) = small();
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
        let exec = ExecConfig::with_threads(1);
        let reference = reference(&opt, &exec);

        // A pre-cancelled external token: the run must degrade with
        // `Cancelled` (not the deadline) and still write a checkpoint a
        // later uncancelled run can resume bit-identically.
        let token = CancelToken::new();
        token.cancel();
        let budget = Budget::linked(None, token);
        let path = temp_path("external-cancel");
        let cancelled = opt.run_with_budget(&exec, &budget, Some(&CheckpointSpec::fresh(&path)));
        let RunOutcome::Degraded { reason, best, .. } = cancelled else {
            panic!("a cancelled run must degrade, got {cancelled}");
        };
        assert_eq!(reason, DegradeReason::Cancelled);
        assert!(best.same_assignment(&opt.heuristic1().unwrap()));

        let resumed = opt.run(&exec, Some(&CheckpointSpec::resume(&path)));
        let RunOutcome::Complete { solution, .. } = resumed else {
            panic!("resume must complete, got {resumed}");
        };
        assert!(solution.same_assignment(&reference));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn foreign_checkpoint_is_a_typed_failure() {
        let (n, lib) = small();
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
        let exec = ExecConfig::with_threads(1);
        let path = temp_path("foreign");
        let RunOutcome::Complete { .. } = opt.run(&exec, Some(&CheckpointSpec::fresh(&path)))
        else {
            panic!("baseline run must complete");
        };
        // Same circuit, different penalty: the identity check must fire.
        let other = problem.optimizer(DelayPenalty::new(0.25).unwrap(), Mode::Proposed);
        let outcome = other.run(&exec, Some(&CheckpointSpec::resume(&path)));
        let RunOutcome::Failed { error } = outcome else {
            panic!("mismatched checkpoint must fail, got {outcome}");
        };
        assert!(error.to_string().contains("penalty"), "got {error}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dispatch_panic_storm_degrades_but_keeps_a_valid_incumbent() {
        let (n, lib) = small();
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
        let h1 = opt.heuristic1().unwrap();
        // Every dispatch panics and retries are exhausted instantly: all
        // tasks fail, yet the outcome still carries the seed.
        let plan = FaultPlan::new(3).with_rule(Site::ExecDispatch, Trigger::EveryNth(1));
        let fault = Fault::new(&plan);
        let exec = ExecConfig::with_threads(2).with_retries(RetryPolicy {
            max_task_retries: 1,
            max_respawns: 0,
        });
        let outcome = opt.with_fault(&fault).run(&exec, None);
        let RunOutcome::Degraded { reason, best, .. } = outcome else {
            panic!("a storm over every task must degrade, got {outcome}");
        };
        assert!(
            matches!(reason, DegradeReason::TasksFailed { .. }),
            "{reason}"
        );
        assert!(best.same_assignment(&h1), "the incumbent is the H1 seed");
        best.verify(&problem).unwrap();
    }
}
