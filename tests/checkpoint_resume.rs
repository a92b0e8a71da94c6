//! Kill-at-every-Nth-expansion checkpoint/resume harness.
//!
//! The robustness contract for `Optimizer::run` is that a checkpointed
//! run killed at *any* point resumes to the bit-identical solution of a
//! run that was never interrupted — same sleep vector, same per-gate
//! choices, same leakage and delay bits. These tests sweep the kill point
//! across every leaf expansion of a small exhaustible circuit, at 1, 2
//! and 4 worker threads, chaining resumes until the run completes.

use std::path::PathBuf;

use svtox_check::domain::circuit;
use svtox_core::{CheckpointSpec, DelayPenalty, ExecConfig, Mode, Problem, RunOutcome, Solution};
use svtox_fault::{Fault, FaultPlan, Site, Trigger};
use svtox_sta::TimingConfig;

/// A scratch checkpoint path unique to this test process and tag.
fn scratch(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "svtox-ckpt-resume-{tag}-{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

/// Kills a checkpointed run at leaf expansion `kill_n`, then resumes it
/// fault-free to completion. Returns the final solution and whether the
/// kill actually fired (a tree with fewer than `kill_n` expansions just
/// completes; a checkpoint only records *fully explored* subtrees, so a
/// re-armed kill inside one task could never make progress).
fn run_killed_then_resumed(
    problem: &Problem,
    exec: &ExecConfig,
    kill_n: u64,
    path: &PathBuf,
) -> (Solution, bool) {
    let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
    let plan = FaultPlan::new(kill_n).with_rule(Site::CoreLeaf, Trigger::Nth(kill_n));
    let fault = Fault::new(&plan);
    match opt
        .with_fault(&fault)
        .run(exec, Some(&CheckpointSpec::fresh(path)))
    {
        RunOutcome::Complete { solution, .. } => (solution, false),
        RunOutcome::Degraded { best, .. } => {
            // The incumbent carried out of a kill must already be a
            // feasible solution — the anytime guarantee.
            best.verify(problem).expect("degraded incumbent verifies");
            let resumed = opt.run(exec, Some(&CheckpointSpec::resume(path)));
            let RunOutcome::Complete { solution, .. } = resumed else {
                panic!(
                    "resume after a kill at leaf {kill_n} did not complete: {}",
                    resumed.status()
                )
            };
            (solution, true)
        }
        RunOutcome::Failed { error } => panic!("run failed outright: {error}"),
    }
}

/// The core sweep: for every kill point N and every thread count, the
/// chained kill/resume run lands on the uninterrupted solution bits.
#[test]
fn killed_and_resumed_runs_are_bit_identical_to_uninterrupted() {
    let (n, lib) = circuit("ckpt-sweep", 6, 24, 5);
    let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
    let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);

    for threads in [1usize, 2, 4] {
        let exec = ExecConfig::with_threads(threads);
        let RunOutcome::Complete {
            solution: reference,
            ..
        } = opt.run(&exec, None)
        else {
            panic!("uninterrupted run did not complete (threads={threads})")
        };

        // Kill at every Nth leaf expansion: early kills exercise the
        // nothing-recorded-yet path, later kills the partial-frontier
        // append-and-replay path.
        let mut fired = 0;
        for kill_n in 1..=12u64 {
            let path = scratch(&format!("sweep-t{threads}-n{kill_n}"));
            let (solution, killed) = run_killed_then_resumed(&problem, &exec, kill_n, &path);
            fired += usize::from(killed);
            assert!(
                solution.same_assignment(&reference),
                "threads={threads} kill_n={kill_n} killed={killed}: \
                 resumed {} vs uninterrupted {}",
                solution.leakage,
                reference.leakage
            );
            std::fs::remove_file(&path).ok();
        }
        assert!(fired > 0, "threads={threads}: no kill point ever fired");
    }
}

/// A serial resume additionally reproduces the exact leaf count: replayed
/// tasks contribute their recorded leaves, so the total matches a run
/// that never died.
#[test]
fn serial_resume_preserves_the_leaf_count() {
    let (n, lib) = circuit("ckpt-leaves", 6, 24, 5);
    let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
    let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
    let exec = ExecConfig::serial();
    let RunOutcome::Complete {
        solution: reference,
        ..
    } = opt.run(&exec, None)
    else {
        panic!("uninterrupted run did not complete")
    };
    let path = scratch("serial-leaves");
    let (solution, killed) = run_killed_then_resumed(&problem, &exec, 5, &path);
    assert!(killed, "the kill fault never fired");
    assert!(solution.same_assignment(&reference));
    assert_eq!(solution.leaves_explored, reference.leaves_explored);
    std::fs::remove_file(&path).ok();
}

/// The unit split does not depend on the thread count, so a checkpoint
/// written by a serial run resumes at 4 threads to the bit-identical
/// uninterrupted solution.
#[test]
fn a_checkpoint_resumes_at_any_thread_count() {
    let (n, lib) = circuit("ckpt-threads", 6, 24, 5);
    let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
    let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
    let RunOutcome::Complete {
        solution: reference,
        ..
    } = opt.run(&ExecConfig::serial(), None)
    else {
        panic!("uninterrupted run did not complete")
    };
    let path = scratch("thread-change");

    let plan = FaultPlan::new(3).with_rule(Site::CoreLeaf, Trigger::Nth(3));
    let fault = Fault::new(&plan);
    let killed = opt
        .with_fault(&fault)
        .run(&ExecConfig::serial(), Some(&CheckpointSpec::fresh(&path)));
    assert!(
        matches!(killed, RunOutcome::Degraded { .. }),
        "expected a degraded run, got {}",
        killed.status()
    );

    let outcome = opt.run(
        &ExecConfig::with_threads(4),
        Some(&CheckpointSpec::resume(&path)),
    );
    let RunOutcome::Complete { solution, .. } = outcome else {
        panic!(
            "resume at 4 threads must complete, got {}",
            outcome.status()
        )
    };
    assert!(solution.same_assignment(&reference));
    assert_eq!(
        solution.leakage.value().to_bits(),
        reference.leakage.value().to_bits()
    );
    assert_eq!(
        solution.delay.value().to_bits(),
        reference.delay.value().to_bits()
    );
    std::fs::remove_file(&path).ok();
}

/// A file of the older single-strategy format (no member slugs, a
/// thread-derived split depth) is a typed failure on resume — never a
/// panic, never a silent replay.
#[test]
fn an_old_format_checkpoint_is_a_typed_failure() {
    let (n, lib) = circuit("ckpt-old", 6, 24, 5);
    let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
    let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
    let path = scratch("old-format");
    std::fs::write(
        &path,
        format!(
            "{{\"type\":\"meta\",\"version\":1,\"circuit\":\"{}\",\"inputs\":{},\
             \"gates\":{},\"penalty\":\"{:016x}\",\"mode\":\"proposed\",\"k\":3,\
             \"seed\":{{\"vector\":\"000000\",\"choices\":[],\"leakage\":\"0\",\
             \"delay\":\"0\",\"leaves\":1}}}}\n\
             {{\"type\":\"task\",\"index\":0,\"leaves\":4,\"solution\":null}}\n",
            n.name(),
            n.num_inputs(),
            n.num_gates(),
            0.05f64.to_bits()
        ),
    )
    .unwrap();
    let outcome = opt.run(&ExecConfig::serial(), Some(&CheckpointSpec::resume(&path)));
    let RunOutcome::Failed { error } = outcome else {
        panic!("an old-format file must fail, got {}", outcome.status())
    };
    assert!(
        error.to_string().contains("older checkpoint format"),
        "{error}"
    );
    std::fs::remove_file(&path).ok();
}
