//! Cross-thread determinism of the search engine.
//!
//! The engine's contract is that parallelism is *invisible* in the answer:
//! for any worker count, a plan returns the same vector, the same per-gate
//! choices, and bit-identical leakage/delay as the serial reference search
//! (`svtox_check::reference`). These tests pin that contract on small
//! circuits where the serial searches exhaust their trees.

use std::time::Duration;

use svtox_check::domain::circuit;
use svtox_check::reference;
use svtox_core::{
    BranchOrder, Budget, DelayPenalty, ExecConfig, Mode, Plan, Problem, RunOutcome, Solution,
    Strategy,
};
use svtox_sta::TimingConfig;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

#[test]
fn exact_parallel_matches_serial_for_all_thread_counts() {
    let (n, lib) = circuit("pd-exact", 5, 14, 4);
    let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
    let penalty = DelayPenalty::new(0.10).unwrap();
    let opt = problem.optimizer(penalty, Mode::Proposed);
    let serial = reference::exact(&problem, penalty, Mode::Proposed, 8).unwrap();
    let plan = Plan::single(Strategy::Exact(BranchOrder::default()));
    for threads in THREAD_COUNTS {
        let exec = ExecConfig::with_threads(threads);
        let outcome = opt
            .run_portfolio(&exec, &Budget::unlimited(), &plan, None)
            .unwrap();
        let (sol, stats) = (outcome.best, outcome.stats);
        assert_eq!(sol.vector, serial.vector, "threads={threads}");
        assert_eq!(sol.choices, serial.choices, "threads={threads}");
        assert_eq!(sol.leakage, serial.leakage, "threads={threads}");
        assert_eq!(sol.delay, serial.delay, "threads={threads}");
        assert!(stats.completed, "threads={threads}");
        assert!(stats.leaves_evaluated() > 0, "threads={threads}");
        sol.verify(&problem).unwrap();
    }
}

#[test]
fn heuristic2_parallel_matches_exhausted_serial_for_all_thread_counts() {
    let (n, lib) = circuit("pd-h2", 8, 40, 6);
    let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
    let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
    // 8 inputs = 256 leaves: a generous serial budget exhausts the tree.
    let serial = reference::heuristic2(
        &problem,
        DelayPenalty::five_percent(),
        Mode::Proposed,
        Duration::from_secs(120),
    )
    .unwrap();
    for threads in THREAD_COUNTS {
        let exec = ExecConfig::with_threads(threads);
        let sol = complete(opt.run(&exec, None));
        assert_eq!(sol.vector, serial.vector, "threads={threads}");
        assert_eq!(sol.choices, serial.choices, "threads={threads}");
        assert_eq!(sol.leakage, serial.leakage, "threads={threads}");
        assert_eq!(sol.delay, serial.delay, "threads={threads}");
        sol.verify(&problem).unwrap();
    }
}

#[test]
fn heuristic2_parallel_is_exec_config_invariant() {
    // Beyond thread counts: an unbudgeted run and a huge-budget run agree,
    // and both modes of the same circuit stay internally consistent.
    let (n, lib) = circuit("pd-cfg", 7, 30, 5);
    let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
    let opt = problem.optimizer(DelayPenalty::new(0.25).unwrap(), Mode::Proposed);
    let unbudgeted = complete(opt.run(&ExecConfig::with_threads(3), None));
    let budgeted = complete(opt.run(
        &ExecConfig::with_threads(5).with_time_budget(Duration::from_secs(600)),
        None,
    ));
    assert_eq!(unbudgeted.vector, budgeted.vector);
    assert_eq!(unbudgeted.choices, budgeted.choices);
    assert_eq!(unbudgeted.leakage, budgeted.leakage);
}

#[test]
fn zero_budget_cancels_promptly_and_returns_the_incumbent() {
    let (n, lib) = circuit("pd-cancel", 8, 40, 6);
    let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
    let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
    let h1 = opt.heuristic1().unwrap();
    let exec = ExecConfig::with_threads(4).with_time_budget(Duration::ZERO);
    let RunOutcome::Degraded {
        best: sol, stats, ..
    } = opt.run(&exec, None)
    else {
        panic!("a zero budget degrades the run");
    };
    // The budget expired before any improvement pass could run, so the
    // Heuristic 1 incumbent comes back unchanged — no panic, no hang.
    assert_eq!(sol.vector, h1.vector);
    assert_eq!(sol.leakage, h1.leakage);
    assert!(!stats.completed);
    assert_eq!(stats.tasks_skipped() as usize, stats.tasks_total);
    sol.verify(&problem).unwrap();
}

#[test]
fn exact_parallel_rejects_wide_circuits_and_ignores_budgets() {
    let (n, lib) = circuit("pd-wide", 6, 12, 4);
    let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
    let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
    assert!(opt.exact(4).is_err());
    // Exact takes no budget at all: it always runs to completion.
    let sol = opt.exact(8).unwrap();
    sol.verify(&problem).unwrap();
}

/// The solution of a run that must complete.
fn complete(outcome: RunOutcome) -> Solution {
    match outcome {
        RunOutcome::Complete { solution, .. } => solution,
        other => panic!("an unbudgeted run completes, got {}", other.status()),
    }
}
