//! End-to-end integration tests spanning every crate: benchmark generation →
//! library characterization → optimization → independent re-verification.

use std::time::Duration;

use svtox_cells::{Library, LibraryOptions, TradeoffPoints};
use svtox_check::domain::test_library as library;
use svtox_core::{DelayPenalty, ExecConfig, Mode, Problem};
use svtox_netlist::generators::benchmark;
use svtox_netlist::{insert_sleep_vector, map_to_primitives, MappingOptions};
use svtox_sim::{random_average_leakage, vector_leakage};
use svtox_sta::TimingConfig;
use svtox_tech::{Technology, Time};

#[test]
fn c432_heuristic1_five_percent_matches_paper_shape() {
    let lib = library();
    let n = benchmark("c432").unwrap();
    let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
    let sol = problem
        .optimizer(DelayPenalty::five_percent(), Mode::Proposed)
        .heuristic1()
        .unwrap();
    sol.verify(&problem).unwrap();
    let avg = random_average_leakage(&n, &lib, 2000, 42).unwrap().total;
    let x = sol.reduction_vs(avg);
    // Paper Table 3: c432 @5% = 3.6x (Heu1). Allow a generous band for the
    // substituted circuit and models; the qualitative claim is >2.5x.
    assert!(x > 2.5, "reduction {x:.2}x");
    assert!(sol.delay <= problem.delay_budget(DelayPenalty::five_percent()) + Time::new(1e-6));
}

#[test]
fn larger_penalty_gives_larger_reduction_on_c880() {
    let lib = library();
    let n = benchmark("c880").unwrap();
    let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
    let avg = random_average_leakage(&n, &lib, 1000, 7).unwrap().total;
    let mut xs = Vec::new();
    for p in [0.05, 0.10, 0.25] {
        let sol = problem
            .optimizer(DelayPenalty::new(p).unwrap(), Mode::Proposed)
            .heuristic1()
            .unwrap();
        xs.push(sol.reduction_vs(avg));
    }
    assert!(xs[0] <= xs[1] * 1.02 && xs[1] <= xs[2] * 1.02, "{xs:?}");
    // Paper: c880 improves 5.7x → 7.1x between 5% and 25%.
    assert!(xs[2] > xs[0], "{xs:?}");
}

#[test]
fn proposed_beats_state_and_vt_beats_state_only_on_c1908() {
    let lib = library();
    let n = benchmark("c1908").unwrap();
    let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
    let penalty = DelayPenalty::five_percent();
    let only = problem
        .optimizer(penalty, Mode::StateOnly)
        .heuristic1()
        .unwrap();
    let vt = problem
        .optimizer(penalty, Mode::StateAndVt)
        .heuristic1()
        .unwrap();
    let proposed = problem
        .optimizer(penalty, Mode::Proposed)
        .heuristic1()
        .unwrap();
    // Table 4's qualitative ordering, including the ~2x margin of the
    // proposed method over state+Vt.
    assert!(vt.leakage < only.leakage);
    assert!(proposed.leakage.value() < 0.7 * vt.leakage.value());
    // State assignment alone achieves only a small gain (paper: ~6%).
    let avg = random_average_leakage(&n, &lib, 1000, 3).unwrap().total;
    let x_only = only.reduction_vs(avg);
    assert!(
        x_only < 2.0,
        "state-only reduction suspiciously large: {x_only:.2}x"
    );
}

#[test]
fn two_option_library_is_close_to_four_option() {
    let tech = Technology::predictive_65nm();
    let four = Library::new(tech.clone(), LibraryOptions::default()).unwrap();
    let two = Library::new(
        tech,
        LibraryOptions {
            tradeoff_points: TradeoffPoints::Two,
            ..Default::default()
        },
    )
    .unwrap();
    let n = benchmark("c432").unwrap();
    let p4 = Problem::new(&n, &four, TimingConfig::default()).unwrap();
    let p2 = Problem::new(&n, &two, TimingConfig::default()).unwrap();
    let s4 = p4
        .optimizer(DelayPenalty::five_percent(), Mode::Proposed)
        .heuristic1()
        .unwrap();
    let s2 = p2
        .optimizer(DelayPenalty::five_percent(), Mode::Proposed)
        .heuristic1()
        .unwrap();
    // Paper Table 5: "very little leakage current penalty" moving 4→2.
    let ratio = s2.leakage.value() / s4.leakage.value();
    assert!(ratio < 1.35, "2-option / 4-option = {ratio:.2}");
}

#[test]
fn uniform_stack_costs_little() {
    let tech = Technology::predictive_65nm();
    let individual = Library::new(tech.clone(), LibraryOptions::default()).unwrap();
    let uniform = Library::new(
        tech,
        LibraryOptions {
            uniform_stack: true,
            ..Default::default()
        },
    )
    .unwrap();
    let n = benchmark("c880").unwrap();
    let pi = Problem::new(&n, &individual, TimingConfig::default()).unwrap();
    let pu = Problem::new(&n, &uniform, TimingConfig::default()).unwrap();
    let si = pi
        .optimizer(DelayPenalty::five_percent(), Mode::Proposed)
        .heuristic1()
        .unwrap();
    let su = pu
        .optimizer(DelayPenalty::five_percent(), Mode::Proposed)
        .heuristic1()
        .unwrap();
    // Paper Table 5: uniform stacks cost ~10% on average.
    let ratio = su.leakage.value() / si.leakage.value();
    assert!(ratio < 1.5, "uniform / individual = {ratio:.2}");
}

#[test]
fn heuristic2_improves_or_matches_on_c432() {
    let lib = library();
    let n = benchmark("c432").unwrap();
    let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
    let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
    let h1 = opt.heuristic1().unwrap();
    let exec = ExecConfig::serial().with_time_budget(Duration::from_secs(2));
    let h2 = opt.run(&exec, None).best().unwrap().clone();
    assert!(h2.leakage.value() <= h1.leakage.value() + 1e-9);
    h2.verify(&problem).unwrap();
}

#[test]
fn breakdown_shows_the_papers_mechanism_on_c432() {
    let lib = library();
    let n = benchmark("c432").unwrap();
    let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
    let penalty = DelayPenalty::new(0.25).unwrap();
    let vt = problem
        .optimizer(penalty, Mode::StateAndVt)
        .heuristic1()
        .unwrap();
    let proposed = problem
        .optimizer(penalty, Mode::Proposed)
        .heuristic1()
        .unwrap();
    let (vt_isub, vt_igate) = vt.leakage_breakdown(&problem).unwrap();
    let (p_isub, p_igate) = proposed.leakage_breakdown(&problem).unwrap();
    // State+Vt collapses Isub, so what remains is gate-tunneling dominated.
    assert!(
        vt_igate.value() > vt_isub.value(),
        "after Vt-only, igate {vt_igate} should dominate isub {vt_isub}"
    );
    // The proposed method removes most of that remaining gate leakage.
    assert!(
        p_igate.value() < 0.4 * vt_igate.value(),
        "proposed igate {p_igate} vs vt igate {vt_igate}"
    );
    // Components always sum to the recorded total.
    assert!((p_isub.value() + p_igate.value() - proposed.leakage.value()).abs() < 1e-6);
}

#[test]
fn four_input_library_works_end_to_end() {
    // Build an arity-4 library and a circuit mapped to fan-in 4; the whole
    // flow (characterization, options, timing, optimization) must handle
    // NAND4/NOR4 cells.
    let lib = Library::new(
        Technology::predictive_65nm(),
        LibraryOptions {
            max_arity: 4,
            ..Default::default()
        },
    )
    .unwrap();
    let wide = map_to_primitives(
        &benchmark("c432").unwrap(),
        MappingOptions {
            max_fanin: 4,
            ..Default::default()
        },
    )
    .unwrap();
    let problem = Problem::new(&wide, &lib, TimingConfig::default()).unwrap();
    let sol = problem
        .optimizer(DelayPenalty::five_percent(), Mode::Proposed)
        .heuristic1()
        .unwrap();
    sol.verify(&problem).unwrap();
    let avg = random_average_leakage(&wide, &lib, 500, 1).unwrap().total;
    assert!(sol.reduction_vs(avg) > 2.0);
}

#[test]
fn sleep_gated_netlist_realizes_the_optimized_leakage() {
    // Self-composition: optimize, gate the inputs with the sleep vector,
    // and check that asserting `sleep` puts the gated netlist's *original*
    // gates into exactly the optimized standby states (all-fast leakage of
    // the forced state matches), with only the gating logic on top.
    let lib = library();
    let n = benchmark("c432").unwrap();
    let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
    let sol = problem
        .optimizer(DelayPenalty::five_percent(), Mode::Proposed)
        .heuristic1()
        .unwrap();
    let gated = insert_sleep_vector(&n, &sol.vector).unwrap();
    // All-fast leakage of the original at the standby vector…
    let original = vector_leakage(&n, &lib, &sol.vector).unwrap().total;
    // …vs the gated design in sleep mode with adversarial pin values.
    let mut asleep = vec![true; gated.num_inputs()];
    *asleep.last_mut().unwrap() = true; // sleep asserted
    for (i, v) in asleep.iter_mut().enumerate().take(n.num_inputs()) {
        *v = i % 3 == 0; // junk on the functional pins
    }
    let gated_leak = vector_leakage(&gated, &lib, &asleep).unwrap().total;
    // The gated total = original standby leakage + gating-cell leakage;
    // the overhead is bounded by the added gates' worst-case contribution.
    assert!(gated_leak >= original);
    let overhead = gated_leak - original;
    let per_added_gate = overhead.value() / (2 * n.num_inputs() + 1) as f64;
    assert!(
        per_added_gate < 300.0,
        "gating overhead {per_added_gate:.1} nA/gate is implausible"
    );
}

#[test]
fn heuristic1_is_deterministic() {
    let lib = library();
    let n = benchmark("c880").unwrap();
    let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
    let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
    let a = opt.heuristic1().unwrap();
    let b = opt.heuristic1().unwrap();
    assert_eq!(a.vector, b.vector);
    assert_eq!(a.choices, b.choices);
    assert_eq!(a.leakage, b.leakage);
}

#[test]
fn two_option_library_degrades_state_and_vt_gracefully() {
    // The 2-option library stores only {fast, min-leak}; min-leak versions
    // use thick oxide, so the StateAndVt baseline collapses toward
    // state-only there — an edge case the mode filter must survive.
    let two = Library::new(
        Technology::predictive_65nm(),
        LibraryOptions {
            tradeoff_points: TradeoffPoints::Two,
            ..Default::default()
        },
    )
    .unwrap();
    let n = benchmark("c432").unwrap();
    let problem = Problem::new(&n, &two, TimingConfig::default()).unwrap();
    let vt = problem
        .optimizer(DelayPenalty::five_percent(), Mode::StateAndVt)
        .heuristic1()
        .unwrap();
    let only = problem
        .optimizer(DelayPenalty::five_percent(), Mode::StateOnly)
        .heuristic1()
        .unwrap();
    vt.verify(&problem).unwrap();
    // Still never worse than state-only (some states' min-leak version is
    // Vt-only, e.g. NAND2 state 00, so a small margin usually remains).
    assert!(vt.leakage.value() <= only.leakage.value() + 1e-9);
}

#[test]
fn every_benchmark_solves_at_five_percent() {
    let lib = library();
    for name in ["c432", "c499", "c880", "c1355", "c1908"] {
        let n = benchmark(name).unwrap();
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let sol = problem
            .optimizer(DelayPenalty::five_percent(), Mode::Proposed)
            .heuristic1()
            .unwrap();
        sol.verify(&problem).unwrap();
        assert!(
            sol.delay <= problem.delay_budget(DelayPenalty::five_percent()) + Time::new(1e-6),
            "{name} violates its budget"
        );
        let avg = random_average_leakage(&n, &lib, 500, 1).unwrap().total;
        assert!(sol.reduction_vs(avg) > 1.5, "{name} reduction too small");
    }
}
