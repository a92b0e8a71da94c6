//! Absolute result pins.
//!
//! The other determinism suites compare one search path against another
//! (serial against parallel, resumed against uninterrupted), so a bug in
//! the shared search kernel would move both sides together and go
//! unnoticed. These tests pin the results themselves: leakage bits, input
//! vectors and per-gate choices of fixed problems, and the Heuristic 1
//! leakage of every built-in suite circuit at the paper's three delay
//! penalties (Tables 2–5).
//!
//! A mismatch prints every pin of the failing test in the table's format,
//! so an intended change of results is re-pinned by pasting the printout.

use svtox_check::domain::test_library;
use svtox_core::{Budget, DelayPenalty, ExecConfig, Mode, Plan, Problem, RunOutcome, Solution};
use svtox_netlist::generators::{benchmark, benchmark_names, random_dag, RandomDagSpec};
use svtox_netlist::Netlist;
use svtox_sta::TimingConfig;

/// The fixed problems: small enough for the exact search.
fn dags() -> Vec<Netlist> {
    [
        ("golden-a", 4, 2, 8, 3),
        ("golden-b", 5, 3, 10, 4),
        ("golden-c", 6, 3, 12, 4),
    ]
    .into_iter()
    .map(|(name, i, o, g, d)| random_dag(&RandomDagSpec::new(name, i, o, g, d)).unwrap())
    .collect()
}

fn penalty(pct: u32) -> DelayPenalty {
    DelayPenalty::new(f64::from(pct) / 100.0).unwrap()
}

/// One pin line: the leakage bits, the vector and the choices.
fn pin(tag: &str, sol: &Solution) -> String {
    let vector: String = sol
        .vector
        .iter()
        .map(|&b| if b { '1' } else { '0' })
        .collect();
    let choices: String = sol.choices.iter().map(u8::to_string).collect();
    format!(
        "{tag} leak={:016x} vec={vector} choices={choices}",
        sol.leakage.value().to_bits()
    )
}

fn assert_pins(actual: &[String], expected: &[&str]) {
    assert_eq!(
        actual,
        expected,
        "pinned results moved; actual pins:\n{}",
        actual.join("\n")
    );
}

#[test]
fn serial_run_results_are_pinned() {
    let lib = test_library();
    let mut actual = Vec::new();
    for n in dags() {
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        for pct in [5, 25] {
            let opt = problem.optimizer(penalty(pct), Mode::Proposed);
            let RunOutcome::Complete { solution, .. } = opt.run(&ExecConfig::serial(), None) else {
                panic!("{}: an unbudgeted run completes", n.name());
            };
            actual.push(pin(&format!("run {} {pct}%", n.name()), &solution));
        }
    }
    assert_pins(
        &actual,
        &[
            "run golden-a 5% leak=4082a3c8a0400785 vec=0000 choices=01103010",
            "run golden-a 25% leak=4074e1c501b2fc27 vec=0000 choices=00001010",
            "run golden-b 5% leak=4081d57c3521b590 vec=00011 choices=0003001201",
            "run golden-b 25% leak=406f2ee6b97a40f6 vec=00011 choices=0000000000",
            "run golden-c 5% leak=407cd8861aeae544 vec=111010 choices=001000030010",
            "run golden-c 25% leak=40711b709da39b86 vec=110000 choices=000000000000",
        ],
    );
}

#[test]
fn exact_results_are_pinned() {
    let lib = test_library();
    let mut actual = Vec::new();
    for n in dags() {
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let opt = problem.optimizer(penalty(5), Mode::Proposed);
        actual.push(pin(&format!("exact {}", n.name()), &opt.exact(12).unwrap()));
    }
    assert_pins(
        &actual,
        &[
            "exact golden-a leak=4082a3c8a0400784 vec=0000 choices=01103010",
            "exact golden-b leak=40805019a36bc065 vec=00011 choices=0003001300",
            "exact golden-c leak=407cd8861aeae540 vec=111010 choices=001000030010",
        ],
    );
}

#[test]
fn portfolio_results_are_pinned() {
    let lib = test_library();
    let mut actual = Vec::new();
    for n in dags() {
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let opt = problem.optimizer(penalty(5), Mode::Proposed);
        let outcome = opt
            .run_portfolio(
                &ExecConfig::serial(),
                &Budget::unlimited(),
                &Plan::default(),
                None,
            )
            .unwrap();
        assert!(
            outcome.reason.is_none(),
            "an unbudgeted portfolio completes"
        );
        actual.push(format!(
            "portfolio {} winner={} leak={:016x} rounds={}",
            n.name(),
            outcome.winner,
            outcome.best.leakage.value().to_bits(),
            outcome.rounds
        ));
    }
    assert_pins(
        &actual,
        &[
            "portfolio golden-a winner=exact-influence leak=4082a3c8a0400784 rounds=16",
            "portfolio golden-b winner=exact-natural leak=40805019a36bc065 rounds=16",
            "portfolio golden-c winner=exact-influence leak=407cd8861aeae540 rounds=16",
        ],
    );
}

#[test]
fn heuristic1_suite_leakage_is_pinned() {
    let lib = test_library();
    let mut actual = Vec::new();
    for name in benchmark_names() {
        let n = benchmark(name).unwrap();
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let bits: Vec<String> = [5, 10, 25]
            .into_iter()
            .map(|pct| {
                let sol = problem
                    .optimizer(penalty(pct), Mode::Proposed)
                    .heuristic1()
                    .unwrap();
                format!("{:016x}", sol.leakage.value().to_bits())
            })
            .collect();
        actual.push(format!("h1 {name} 5/10/25% {}", bits.join(" ")));
    }
    assert_pins(
        &actual,
        &[
            "h1 c432 5/10/25% 40c5fd2676d13858 40c26523513c0387 40b6fb54ff6b08bd",
            "h1 c499 5/10/25% 40f3ae2566830d41 40e552e505394cc6 40d5a6cf9d031470",
            "h1 c880 5/10/25% 40d0a33e12484429 40cc9b2e08e0fd35 40c76b4a6e9a93cf",
            "h1 c1355 5/10/25% 40f4a439f295122c 40e9e60dba4fbd54 40da74babe1aeaa5",
            "h1 c1908 5/10/25% 40d5c1380b954e9c 40d0ed41d60a2b3c 40cb7d943260731d",
            "h1 c2670 5/10/25% 40e47ff1059580fd 40e1123e8610fc37 40db9f63459e338d",
            "h1 c3540 5/10/25% 40e554b540ce1393 40e275f83b01559e 40de4db3df983570",
            "h1 c5315 5/10/25% 40f132289954a549 40ee04a893e8b91a 40ea6da9db23ffe6",
            "h1 c6288 5/10/25% 4105ac3642252b6b 4103312e08034069 40fbe5d9c7954288",
            "h1 c7552 5/10/25% 40f251ac9313b5bd 40f1b7105ba552a5 40f027f560ec37a0",
            "h1 alu64 5/10/25% 40f58235e1320f94 40f4484e9925cc1c 40f06b08bbd4232b",
        ],
    );
}
