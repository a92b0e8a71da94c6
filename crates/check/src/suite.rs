//! The built-in differential oracle suite.
//!
//! Each property pits two independent code paths against each other (or a
//! cheap exhaustive enumeration against an optimized search) on randomly
//! generated circuits, so a bug in either path surfaces as a disagreement
//! and shrinks to a small witness:
//!
//! | property | oracle |
//! |---|---|
//! | `opt.heuristic_not_below_exact` | heuristic cost ≥ exact B&B cost; exact ≤ exhaustive all-fast enumeration; budgets met |
//! | `opt.parallel_bit_identity` | the serial reference `exact`/`heuristic2` DFS vs the search engine at 2–4 workers: a one-member exact plan and `run` |
//! | `core.eco_eq_cold` | warm-seeded `rerun_after_edit` vs a cold re-optimization of the edited netlist, bit for bit at 1/2/4 workers |
//! | `netlist.strash_preserves_function` | structurally-hashed netlist vs the original, lane-for-lane under `PackedSimulator`; census and idempotence |
//! | `netlist.edit_eq_rebuild` | a random edit script applied incrementally vs a from-scratch rebuild of the same structure |
//! | `core.tfo_eq_reference` | `Problem::tfo`'s support-word sweep vs the per-input DFS reference, element for element, on random DAGs of 40–160 inputs (across the 64- and 128-input block edges) with idle inputs and inputs that are also primary outputs |
//! | `core.bound_eq_reference` | event-driven, table-driven `BoundTracker` vs the static-cone `possible_states` reference, bit for bit after every step of a random DFS walk (repeats and X-undo included) on DAGs and c432/c880 |
//! | `core.bound_sound` | `BoundTracker::bound()` ≤ the exhaustive minimum of Σ `min_leak` over every completion of a random partial vector, in all three modes; equal once every input is decided |
//! | `core.leaf_eq_reference` | `Optimizer::evaluate_leaf` (greedy and exact gate trees) vs the cloned-config references: choices, leakage and delay bits over two leaves on one analyzer; after a greedy leaf every net's timing and load bits equal a fresh analyzer's, after an exact leaf the delay is within the engine epsilon of a `recompute` |
//! | `core.leaf_cutoff_eq_full` | `Optimizer::evaluate_leaf_under` (both gate trees) vs the full `evaluate_leaf`, under bars at the full value, one ulp either side, ±1 % and ∞: `Some` exactly when `v < below && v <= at_most`, then choices, leakage and delay bits equal; after every greedy cutoff leaf the analyzer's net bits equal a fresh one's |
//! | `core.greedy_leaf_feasible` | a greedy leaf's delay is within the budget plus the engine's boundary epsilon, and a cold analyzer agrees with it |
//! | `sim.tri_covers_two` | `TriSimulator` possible-state sets vs two-valued `Simulator` |
//! | `sim.packed_eq_scalar_two` | word-level `PackedSimulator` vs scalar `Simulator`, lane-for-lane on random vector batches (ragged tails included) |
//! | `sim.packed_eq_scalar_tri` | dual-plane `PackedTriSimulator` vs scalar `TriSimulator` on random three-valued batches |
//! | `sta.incremental_equals_cold` | incremental arrival updates vs full recompute under random dirty-sets |
//! | `sta.floor_eq_reference` | `Sta::recompute` with random options and a random relaxed subset vs a naive cold analysis flooring over every version × pin: every net's arrival bits |
//! | `sta.trial_eq_set_gate` | `Sta::try_option` vs `set_option` + `max_delay` on a clone, under random relaxed masks and limits around the current delay: same verdict; on accept every net's timing and load bits equal the clone's, on reject the pre-trial bits |
//! | `sta.relaxed_is_lower` | with any subset relaxed, the circuit delay is ≤ that of a random concrete completion. Known incomplete: the floor is not a per-net lower bound (DESIGN.md §5), so a draw that puts such a net on the critical path can fail it with no code change; CI runs it at a fixed seed |
//! | `sim.vector_leakage_consistent` | repeated evaluation, component sums, and `.bench` round-trip |
//! | `parse.bench_never_panics` | mutated `.bench` text: typed errors only; `Ok` implies re-emittable |
//! | `rng.gen_index_unbiased` | empirical uniformity of the workspace's index generator |
//! | `tech.calibration_pinned` | the DESIGN.md device ratios, width-invariant |
//! | `cells.library_eq_solve` | a library built under random `LibraryOptions` (one stack memo per cell, fixed-point bisections) vs a fresh `solve_leakage` of every table entry and every state option on its physical state, bit for bit |
//! | `fault.degradation_invariants` | random fault plan × random DAG: never a hang or `Failed`, incumbent verifies and stays ≤ the H1 seed |
//! | `fault.resume_bit_identical` | mid-search kill with a checkpoint, then resume: bit-identical to the uninterrupted run at 1/2/4 workers |
//! | `portfolio.thread_count_invariant` | the strategy portfolio at 2/4 workers vs serial: same winner, cost bits, rounds, and per-member node, leaf and incumbent-update counts |
//! | `portfolio.kill_resume_bit_identical` | mid-portfolio kill with a checkpoint, then resume: bit-identical to the uninterrupted portfolio |
//! | `serve.journal_roundtrip` | random job lifecycles through the write-ahead journal vs a replay: specs, states and f64 bit patterns identical, torn tails dropped without losing intact records |

use std::time::Duration;

use svtox_cells::{
    solve_leakage, InputState, LeakageBreakdown, Library, LibraryOptions, TradeoffPoints,
    VtSitePolicy,
};
use svtox_core::{
    BoundTracker, BranchOrder, Budget, CheckpointSpec, Cutoff, DelayPenalty, GateOrder, LeafKind,
    Mode, Plan, PortfolioOutcome, Problem, RunOutcome, Solution, Strategy,
};
use svtox_exec::rng::Xoshiro256pp;
use svtox_fault::{Fault, FaultPlan, Site, Trigger};
use svtox_netlist::generators::{benchmark, random_dag};
use svtox_netlist::{parse_bench, strash, GateKind, Netlist};
use svtox_sim::{
    vector_leakage, vector_leakage_batch, Logic, PackedSimulator, PackedTriSimulator, PackedTriVec,
    PackedVec, Simulator, TriSimulator, LANES,
};
use svtox_sta::{GateConfig, Sta, TimingConfig};
use svtox_tech::{Current, Device, MosType, OxideClass, Technology, Time, Voltage, VtClass};

use crate::domain::{
    random_circuit, random_edit_script, rebuild_netlist, test_library, with_idle_inputs,
    BenchMutations, DagStrategy, OptConfigStrategy,
};
use crate::reference::{self, ReferenceBoundTracker};
use crate::report::PropertyReport;
use crate::runner::{check_property, CheckConfig};
use crate::strategy::{choice, int_range, AnyU64};

/// Absolute slack for comparing leakage currents (nA scale).
const LEAK_EPS: f64 = 1e-6;

/// Whether two solutions agree bit for bit: vector, choices, leakage and
/// delay.
fn same_bits(a: &Solution, b: &Solution) -> bool {
    a.vector == b.vector && a.choices == b.choices && a.leakage == b.leakage && a.delay == b.delay
}

/// A uniformly random option of a uniformly random input state.
fn random_config(lib: &Library, kind: GateKind, rng: &mut Xoshiro256pp) -> GateConfig {
    let cell = lib.cell(kind).expect("test circuits use library kinds");
    let arity = kind.arity();
    let state = InputState::from_bits(rng.gen_index(1 << arity) as u16, arity);
    let options = cell.options_for(state);
    GateConfig::from(&options[rng.gen_index(options.len())])
}

/// A random primary-input vector of `n`.
fn random_vector(n: &Netlist, rng: &mut Xoshiro256pp) -> Vec<bool> {
    (0..n.num_inputs()).map(|_| rng.gen_bool(0.5)).collect()
}

/// The solution of a completed run, or why there is none.
fn complete(outcome: RunOutcome) -> Result<Solution, String> {
    match outcome {
        RunOutcome::Complete { solution, .. } => Ok(solution),
        other => Err(format!("run did not complete: {}", other.status())),
    }
}

/// Runs every built-in property (optionally filtered by substring) under
/// `config`. Heavy exact-oracle properties run a reduced case count so the
/// suite stays within a CI budget; the reduction is deterministic.
#[must_use]
pub fn run_builtin_suite(config: &CheckConfig, filter: Option<&str>) -> Vec<PropertyReport> {
    let scaled = |weight: f64| {
        let mut c = config.clone();
        c.cases = (((config.cases as f64) * weight).ceil() as usize).max(1);
        c
    };
    let wanted = |name: &str| filter.is_none_or(|f| name.contains(f));
    let mut reports = Vec::new();
    let lib = test_library();

    // --- Optimizer vs exact branch and bound, with an exhaustive
    // enumeration as independent ground truth. -------------------------
    if wanted("opt.heuristic_not_below_exact") {
        let strategy = (DagStrategy::small(), OptConfigStrategy);
        reports.push(check_property(
            "opt.heuristic_not_below_exact",
            &strategy,
            |(spec, opt_config)| {
                let n = random_dag(spec).map_err(|e| format!("generator: {e}"))?;
                let problem =
                    Problem::new(&n, &lib, TimingConfig::default()).map_err(|e| e.to_string())?;
                let penalty = opt_config.delay_penalty();
                let opt = problem.optimizer(penalty, opt_config.mode);
                let exact = opt.exact(12).map_err(|e| format!("exact: {e}"))?;
                let h1 = opt.heuristic1().map_err(|e| format!("heuristic1: {e}"))?;
                exact
                    .verify(&problem)
                    .map_err(|e| format!("exact.verify: {e}"))?;
                h1.verify(&problem).map_err(|e| format!("h1.verify: {e}"))?;
                let budget = problem.delay_budget(penalty) + Time::new(1e-6);
                if exact.delay > budget || h1.delay > budget {
                    return Err(format!(
                        "budget violated: exact {} / h1 {} vs {budget}",
                        exact.delay, h1.delay
                    ));
                }
                if h1.leakage.value() < exact.leakage.value() - LEAK_EPS {
                    return Err(format!(
                        "heuristic {} beat the exact optimum {}",
                        h1.leakage, exact.leakage
                    ));
                }
                // Independent exhaustive ground truth: enumerate every
                // input state and take the best all-fast leakage through
                // the simulator path. The exact search also optimizes the
                // gate assignment, so it can never do worse.
                let vectors: Vec<Vec<bool>> = (0u64..(1 << n.num_inputs()))
                    .map(|bits| (0..n.num_inputs()).map(|i| bits >> i & 1 == 1).collect())
                    .collect();
                let mut brute = Current::new(f64::INFINITY);
                for totals in vector_leakage_batch(&n, &lib, &vectors).map_err(|e| e.to_string())? {
                    brute = brute.min(totals.total);
                }
                if exact.leakage.value() > brute.value() + LEAK_EPS {
                    return Err(format!(
                        "exact {} worse than exhaustive all-fast minimum {brute}",
                        exact.leakage
                    ));
                }
                Ok(())
            },
            &scaled(0.25),
        ));
    }

    // --- Serial vs parallel bit-identity. ------------------------------
    if wanted("opt.parallel_bit_identity") {
        let strategy = (DagStrategy::small(), choice(&[2usize, 3, 4]));
        reports.push(check_property(
            "opt.parallel_bit_identity",
            &strategy,
            |(spec, threads)| {
                let n = random_dag(spec).map_err(|e| format!("generator: {e}"))?;
                let problem =
                    Problem::new(&n, &lib, TimingConfig::default()).map_err(|e| e.to_string())?;
                let opt = problem.optimizer(
                    svtox_core::DelayPenalty::five_percent(),
                    svtox_core::Mode::Proposed,
                );
                let exec = svtox_core::ExecConfig::with_threads(*threads);
                let penalty = svtox_core::DelayPenalty::five_percent();
                let serial = reference::exact(&problem, penalty, Mode::Proposed, 12)
                    .map_err(|e| e.to_string())?;
                let plan = Plan::single(Strategy::Exact(BranchOrder::default()));
                let parallel = opt
                    .run_portfolio(&exec, &Budget::unlimited(), &plan, None)
                    .map_err(|e| e.to_string())?
                    .best;
                if !same_bits(&parallel, &serial) {
                    return Err(format!(
                        "exact plan at {threads} workers diverged: {} vs serial {}",
                        parallel.leakage, serial.leakage
                    ));
                }
                let h2 = reference::heuristic2(
                    &problem,
                    penalty,
                    Mode::Proposed,
                    Duration::from_secs(120),
                )
                .map_err(|e| e.to_string())?;
                let RunOutcome::Complete { solution: h2p, .. } = opt.run(&exec, None) else {
                    return Err(format!("run at {threads} workers did not complete"));
                };
                if !same_bits(&h2p, &h2) {
                    return Err(format!(
                        "run at {threads} workers diverged: {} vs serial {}",
                        h2p.leakage, h2.leakage
                    ));
                }
                Ok(())
            },
            &scaled(0.25),
        ));
    }

    // --- ECO rerun vs cold re-optimization of the edited netlist. ------
    // Warm seeding feeds the pre-edit solution to the shared incumbent
    // bound only; the result must stay bit-identical to a cold run at any
    // worker count (see the soundness note in svtox-core's eco module).
    if wanted("core.eco_eq_cold") {
        let strategy = (
            (DagStrategy::small(), AnyU64),
            (int_range(1, 6), choice(&[1usize, 2, 4])),
        );
        reports.push(check_property(
            "core.eco_eq_cold",
            &strategy,
            |((spec, seed), (num_ops, threads))| {
                let pre = random_dag(spec).map_err(|e| format!("generator: {e}"))?;
                let problem =
                    Problem::new(&pre, &lib, TimingConfig::default()).map_err(|e| e.to_string())?;
                let opt = problem.optimizer(
                    svtox_core::DelayPenalty::five_percent(),
                    svtox_core::Mode::Proposed,
                );
                let prev = complete(opt.run(&svtox_core::ExecConfig::serial(), None))
                    .map_err(|e| format!("pre-edit run: {e}"))?;
                let script = random_edit_script(&pre, *seed, *num_ops);
                let mut post = pre.clone();
                let trace = script.apply(&mut post).map_err(|e| format!("apply: {e}"))?;
                post.take_dirty();
                let post_problem = Problem::new(&post, &lib, TimingConfig::default())
                    .map_err(|e| e.to_string())?;
                let post_opt = post_problem.optimizer(
                    svtox_core::DelayPenalty::five_percent(),
                    svtox_core::Mode::Proposed,
                );
                let cold = complete(post_opt.run(&svtox_core::ExecConfig::serial(), None))
                    .map_err(|e| format!("cold run: {e}"))?;
                let report = post_opt
                    .rerun_after_edit(
                        &svtox_core::ExecConfig::with_threads(*threads),
                        Some(&prev),
                        &trace,
                        None,
                        None,
                    )
                    .map_err(|e| format!("eco({threads}): {e}"))?;
                let eco = &report.solution;
                if !eco.same_assignment(&cold)
                    || eco.leakage.value().to_bits() != cold.leakage.value().to_bits()
                    || eco.delay.value().to_bits() != cold.delay.value().to_bits()
                {
                    return Err(format!(
                        "eco rerun at {threads} worker(s) diverged after {} op(s): \
                         {} vs cold {}",
                        script.len(),
                        eco.leakage,
                        cold.leakage
                    ));
                }
                // Edits never touch the primary inputs, so the previous
                // vector is always offered and always evaluable.
                if report.warm.candidates != 1 || report.warm.evaluated != 1 {
                    return Err(format!(
                        "warm seeding broke: {} candidate(s), {} evaluated",
                        report.warm.candidates, report.warm.evaluated
                    ));
                }
                eco.verify(&post_problem)
                    .map_err(|e| format!("eco verify: {e}"))?;
                Ok(())
            },
            &scaled(0.15),
        ));
    }

    // --- Structural hashing vs the original, under packed simulation. --
    if wanted("netlist.strash_preserves_function") {
        let strategy = (DagStrategy::medium(), AnyU64, int_range(1, 130));
        reports.push(check_property(
            "netlist.strash_preserves_function",
            &strategy,
            |(spec, seed, num_vectors)| {
                let n = random_dag(spec).map_err(|e| format!("generator: {e}"))?;
                let (s, stats) = strash(&n);
                if stats.hits + stats.misses != n.num_gates() as u64
                    || s.num_gates() as u64 != stats.misses
                {
                    return Err(format!(
                        "census mismatch: {} gates, {} hits + {} misses, {} survivors",
                        n.num_gates(),
                        stats.hits,
                        stats.misses,
                        s.num_gates()
                    ));
                }
                if s.num_inputs() != n.num_inputs() || s.num_outputs() != n.num_outputs() {
                    return Err(format!(
                        "interface changed: {}i/{}o vs {}i/{}o",
                        s.num_inputs(),
                        s.num_outputs(),
                        n.num_inputs(),
                        n.num_outputs()
                    ));
                }
                for (&po_n, &po_s) in n.outputs().iter().zip(s.outputs()) {
                    if n.net(po_n).name() != s.net(po_s).name() {
                        return Err(format!(
                            "output renamed: `{}` vs `{}`",
                            s.net(po_s).name(),
                            n.net(po_n).name()
                        ));
                    }
                }
                let mut rng = Xoshiro256pp::seed_from_u64(*seed);
                let mut original = PackedSimulator::new(&n);
                let mut hashed = PackedSimulator::new(&s);
                let mut remaining = *num_vectors;
                while remaining > 0 {
                    let lanes = remaining.min(LANES);
                    let vectors: Vec<Vec<bool>> = (0..lanes)
                        .map(|_| (0..n.num_inputs()).map(|_| rng.gen_bool(0.5)).collect())
                        .collect();
                    let batch = PackedVec::from_vectors(&vectors);
                    original.set_inputs(&batch);
                    hashed.set_inputs(&batch);
                    for lane in 0..lanes {
                        for (i, (&po_n, &po_s)) in n.outputs().iter().zip(s.outputs()).enumerate() {
                            if original.lane(po_n, lane) != hashed.lane(po_s, lane) {
                                return Err(format!(
                                    "output {i} lane {lane}: original {} vs strashed {}",
                                    original.lane(po_n, lane),
                                    hashed.lane(po_s, lane)
                                ));
                            }
                        }
                    }
                    remaining -= lanes;
                }
                // Structural idempotence: a second pass finds nothing
                // left to merge. (Bit-identity is NOT promised — the
                // corpus holds a shrunk case where the rebuilt netlist's
                // FIFO-Kahn topo order differs from its insertion order,
                // so a second pass renumbers gates while merging nothing.)
                let (s2, st2) = strash(&s);
                if st2.hits != 0 || s2.num_gates() != s.num_gates() {
                    return Err(format!(
                        "second strash pass still merged: {} hit(s), {} -> {} gates",
                        st2.hits,
                        s.num_gates(),
                        s2.num_gates()
                    ));
                }
                Ok(())
            },
            &scaled(0.5),
        ));
    }

    // --- Incremental editing vs a from-scratch rebuild. ----------------
    // The edit API promises an edited netlist is bit-identical — ids,
    // sorted fanouts, topological order, content hash — to rebuilding the
    // same structure through the builder.
    if wanted("netlist.edit_eq_rebuild") {
        let strategy = (DagStrategy::medium(), AnyU64, int_range(1, 12));
        reports.push(check_property(
            "netlist.edit_eq_rebuild",
            &strategy,
            |(spec, seed, num_ops)| {
                let n = random_dag(spec).map_err(|e| format!("generator: {e}"))?;
                let script = random_edit_script(&n, *seed, *num_ops);
                let mut edited = n.clone();
                let trace = script
                    .apply(&mut edited)
                    .map_err(|e| format!("apply: {e}"))?;
                let rebuilt = rebuild_netlist(&edited);
                if edited != rebuilt {
                    return Err(format!(
                        "edited netlist diverged from its from-scratch rebuild \
                         after {} op(s)",
                        script.len()
                    ));
                }
                if edited.content_hash() != rebuilt.content_hash() {
                    return Err("content hashes diverged on equal netlists".to_string());
                }
                if edited.num_gates() + trace.removed_gates != n.num_gates() + trace.added_gates {
                    return Err(format!(
                        "gate census broke: {} gates from {} after +{} / -{}",
                        edited.num_gates(),
                        n.num_gates(),
                        trace.added_gates,
                        trace.removed_gates
                    ));
                }
                // The trace's net map must point at the same-named nets.
                for ((_, pre_net), slot) in n.nets().zip(&trace.net_map) {
                    if let Some(post) = slot {
                        if edited.net(*post).name() != pre_net.name() {
                            return Err(format!(
                                "net map broke: `{}` mapped onto `{}`",
                                pre_net.name(),
                                edited.net(*post).name()
                            ));
                        }
                    }
                }
                Ok(())
            },
            &scaled(0.5),
        ));
    }

    // --- Event-driven bound tracker vs the static-cone reference. -------
    // DFS-style walks: descend on a fresh input, re-set the top input to
    // its own value, flip it to the sibling branch, or undo it to X. Every
    // step must leave the two totals bit-identical.
    if wanted("core.bound_eq_reference") {
        let strategy = (choice(&[0usize, 1, 2]), DagStrategy::medium(), AnyU64);
        reports.push(check_property(
            "core.bound_eq_reference",
            &strategy,
            |(source, spec, walk_seed)| {
                let n = match source {
                    0 => random_dag(spec),
                    1 => benchmark("c432"),
                    _ => benchmark("c880"),
                }
                .map_err(|e| format!("generator: {e}"))?;
                let problem =
                    Problem::new(&n, &lib, TimingConfig::default()).map_err(|e| e.to_string())?;
                let mut rng = Xoshiro256pp::seed_from_u64(*walk_seed);
                let mode = Mode::ALL[rng.gen_index(Mode::ALL.len())];
                let mut fast = BoundTracker::new(&problem, mode);
                let mut slow = ReferenceBoundTracker::new(&problem, mode);
                let inputs = n.num_inputs();
                let mut levels = vec![Logic::X; inputs];
                let mut stack: Vec<usize> = Vec::new();
                for step in 0..(3 * inputs).min(150) {
                    let (input, value) = match (rng.gen_index(10), stack.last()) {
                        (0..=4, _) | (_, None) if stack.len() < inputs => {
                            let free: Vec<usize> =
                                (0..inputs).filter(|&i| levels[i] == Logic::X).collect();
                            let input = free[rng.gen_index(free.len())];
                            stack.push(input);
                            (input, Logic::from(rng.gen_bool(0.5)))
                        }
                        (5, Some(&top)) => (top, levels[top]),
                        (6, Some(&top)) => (top, levels[top].not()),
                        (_, top) => {
                            let top = *top.expect("a full stack is non-empty");
                            stack.pop();
                            (top, Logic::X)
                        }
                    };
                    levels[input] = value;
                    fast.set_input(input, value);
                    slow.set_input(input, value);
                    let (got, want) = (fast.bound().value(), slow.bound().value());
                    if got.to_bits() != want.to_bits() {
                        return Err(format!(
                            "{mode:?} step {step}: set_input({input}, {value:?}) gave \
                             bound {got:e}, reference {want:e}"
                        ));
                    }
                }
                Ok(())
            },
            &scaled(0.5),
        ));
    }

    // --- Transitive-fanout cones vs the per-input DFS. -----------------
    if wanted("core.tfo_eq_reference") {
        let dags = DagStrategy {
            inputs: (40, 160),
            gates: (1, 320),
            depth: (2, 8),
        };
        reports.push(check_property(
            "core.tfo_eq_reference",
            &(dags, AnyU64),
            |(spec, seed)| {
                let dag = random_dag(spec).map_err(|e| format!("generator: {e}"))?;
                let n = with_idle_inputs(&dag, *seed);
                let problem =
                    Problem::new(&n, &lib, TimingConfig::default()).map_err(|e| e.to_string())?;
                for (i, want) in reference::transitive_fanouts(&n).iter().enumerate() {
                    let got = problem.tfo(i);
                    if got != &want[..] {
                        return Err(format!(
                            "input {i} of {}: tfo {got:?}, reference {want:?}",
                            n.num_inputs()
                        ));
                    }
                }
                Ok(())
            },
            config,
        ));
    }

    // --- Bound soundness against exhaustive completion. ----------------
    if wanted("core.bound_sound") {
        let strategy = (
            DagStrategy {
                inputs: (2, 10),
                gates: (4, 48),
                depth: (2, 6),
            },
            AnyU64,
        );
        reports.push(check_property(
            "core.bound_sound",
            &strategy,
            |(spec, seed)| {
                let n = random_dag(spec).map_err(|e| format!("generator: {e}"))?;
                let problem =
                    Problem::new(&n, &lib, TimingConfig::default()).map_err(|e| e.to_string())?;
                let mut rng = Xoshiro256pp::seed_from_u64(*seed);
                let mut sim = Simulator::new(&n);
                for mode in Mode::ALL {
                    let partial: Vec<Option<bool>> = (0..n.num_inputs())
                        .map(|_| rng.gen_bool(0.5).then(|| rng.gen_bool(0.5)))
                        .collect();
                    let mut tracker = BoundTracker::new(&problem, mode);
                    for (i, v) in partial.iter().enumerate() {
                        if let Some(v) = v {
                            tracker.set_input(i, Logic::from(*v));
                        }
                    }
                    let bound = tracker.bound().value();
                    // Every completion's Σ min_leak(kind, state).
                    let free: Vec<usize> = (0..partial.len())
                        .filter(|&i| partial[i].is_none())
                        .collect();
                    let mut best: Option<(f64, Vec<bool>)> = None;
                    for bits in 0u32..(1 << free.len()) {
                        let mut vector: Vec<bool> =
                            partial.iter().map(|v| v.unwrap_or(false)).collect();
                        for (k, &i) in free.iter().enumerate() {
                            vector[i] = bits >> k & 1 == 1;
                        }
                        sim.set_inputs(&vector);
                        let sum: f64 = n
                            .gates()
                            .map(|(gid, g)| {
                                problem
                                    .min_leak(g.kind(), sim.gate_state(gid), mode)
                                    .value()
                            })
                            .sum();
                        if best.as_ref().is_none_or(|(b, _)| sum < *b) {
                            best = Some((sum, vector));
                        }
                    }
                    let (floor, witness) = best.expect("at least one completion");
                    // Only summation order separates the two totals.
                    let slack = 1e-9 * floor.abs();
                    if bound > floor + slack {
                        return Err(format!(
                            "{mode:?}: bound {bound:e} above the best completion {floor:e} \
                             of {partial:?}"
                        ));
                    }
                    for &i in &free {
                        tracker.set_input(i, Logic::from(witness[i]));
                    }
                    let exact = tracker.bound().value();
                    if (exact - floor).abs() > slack {
                        return Err(format!(
                            "{mode:?}: decided bound {exact:e} differs from its sum {floor:e}"
                        ));
                    }
                }
                Ok(())
            },
            &scaled(0.5),
        ));
    }

    // --- Gate-tree kernels vs their cloned-config references. ----------
    // Two leaves per case on one analyzer each, so a restore that leaves
    // stale state behind changes the second leaf's bits.
    if wanted("core.leaf_eq_reference") {
        let strategy = (DagStrategy::small(), OptConfigStrategy, AnyU64);
        reports.push(check_property(
            "core.leaf_eq_reference",
            &strategy,
            |(spec, config, seed)| {
                let n = random_dag(spec).map_err(|e| format!("generator: {e}"))?;
                let problem =
                    Problem::new(&n, &lib, TimingConfig::default()).map_err(|e| e.to_string())?;
                let penalty = DelayPenalty::new(config.penalty).map_err(|e| e.to_string())?;
                let mut rng = Xoshiro256pp::seed_from_u64(*seed);
                let order = if rng.gen_bool(0.5) {
                    GateOrder::SavingsDescending
                } else {
                    GateOrder::Topological
                };
                let opt = problem
                    .optimizer(penalty, config.mode)
                    .with_gate_order(order);
                let budget = opt.budget();
                let new_sta = || Sta::new(&n, &lib, problem.timing()).map_err(|e| e.to_string());
                let (mut fast, mut slow) = (new_sta()?, new_sta()?);
                let fresh_bits = fast.net_bits();
                for leaf in [LeafKind::Greedy, LeafKind::Exact] {
                    for round in 0..2 {
                        let vector = random_vector(&n, &mut rng);
                        let got = opt.evaluate_leaf(&vector, leaf, &mut fast);
                        let states = reference::gate_states(&problem, &vector);
                        let want = match leaf {
                            LeafKind::Greedy => reference::greedy_assign(
                                &problem,
                                &states,
                                config.mode,
                                order,
                                budget,
                                &mut slow,
                            ),
                            LeafKind::Exact => reference::exact_assign(
                                &problem,
                                &states,
                                config.mode,
                                budget,
                                &mut slow,
                            ),
                        };
                        let same = got.choices == want.choices
                            && got.leakage.value().to_bits() == want.leakage.value().to_bits()
                            && got.delay.value().to_bits() == want.delay.value().to_bits();
                        if !same {
                            return Err(format!(
                                "{leaf:?} leaf {round} ({order:?}) on {vector:?}: \
                                 choices {:?} leak {:e} delay {:e}, reference choices {:?} \
                                 leak {:e} delay {:e}",
                                got.choices,
                                got.leakage.value(),
                                got.delay.value(),
                                want.choices,
                                want.leakage.value(),
                                want.delay.value()
                            ));
                        }
                        // The kernel does less work than the reference
                        // (early-stop rejects, journaled rollback), so
                        // work counters differ by design; the state it
                        // leaves behind must not.
                        match leaf {
                            LeafKind::Greedy => {
                                if fast.net_bits() != fresh_bits {
                                    return Err(format!(
                                        "greedy leaf {round} on {vector:?}: the analyzer \
                                         was not restored to a fresh one's bits"
                                    ));
                                }
                            }
                            LeafKind::Exact => {
                                let delay = fast.max_delay();
                                let mut cold = fast.clone();
                                cold.recompute();
                                let cold_delay = cold.max_delay();
                                let eps = 1e-9 * (1.0 + cold_delay.value());
                                if (delay - cold_delay).abs() > eps {
                                    return Err(format!(
                                        "exact leaf {round} on {vector:?}: analyzer delay \
                                         {delay} but a recompute gives {cold_delay}"
                                    ));
                                }
                            }
                        }
                    }
                }
                Ok(())
            },
            &scaled(0.5),
        ));
    }

    // --- Gate trees under a cutoff vs the full leaf. -------------------
    // Bars at the leaf's own value, one ulp either side, ±1 % and ∞; one
    // analyzer serves every cutoff leaf, so an early exit that leaves
    // state behind changes a later leaf's bits.
    if wanted("core.leaf_cutoff_eq_full") {
        let strategy = (DagStrategy::small(), OptConfigStrategy, AnyU64);
        reports.push(check_property(
            "core.leaf_cutoff_eq_full",
            &strategy,
            |(spec, config, seed)| {
                let n = random_dag(spec).map_err(|e| format!("generator: {e}"))?;
                let problem =
                    Problem::new(&n, &lib, TimingConfig::default()).map_err(|e| e.to_string())?;
                let penalty = DelayPenalty::new(config.penalty).map_err(|e| e.to_string())?;
                let mut rng = Xoshiro256pp::seed_from_u64(*seed);
                let order = if rng.gen_bool(0.5) {
                    GateOrder::SavingsDescending
                } else {
                    GateOrder::Topological
                };
                let opt = problem
                    .optimizer(penalty, config.mode)
                    .with_gate_order(order);
                let new_sta = || Sta::new(&n, &lib, problem.timing()).map_err(|e| e.to_string());
                let (mut full_sta, mut sta) = (new_sta()?, new_sta()?);
                let fresh_bits = sta.net_bits();
                for leaf in [LeafKind::Greedy, LeafKind::Exact] {
                    for _ in 0..2 {
                        let vector = random_vector(&n, &mut rng);
                        let full = opt.evaluate_leaf(&vector, leaf, &mut full_sta);
                        let v = full.leakage.value();
                        let bars = [
                            v,
                            v.next_up(),
                            v.next_down(),
                            1.01 * v,
                            0.99 * v,
                            f64::INFINITY,
                        ];
                        for _ in 0..6 {
                            let cutoff = Cutoff {
                                below: bars[rng.gen_index(bars.len())],
                                at_most: bars[rng.gen_index(bars.len())],
                            };
                            let got = opt.evaluate_leaf_under(&vector, leaf, cutoff, &mut sta);
                            let admits = v < cutoff.below && v <= cutoff.at_most;
                            if got.is_some() != admits {
                                return Err(format!(
                                    "{leaf:?} leaf ({order:?}) of value {v:e} on {vector:?} \
                                     under {cutoff:?}: got {}, want {}",
                                    if got.is_some() { "Some" } else { "None" },
                                    if admits { "Some" } else { "None" },
                                ));
                            }
                            if let Some(got) = got.filter(|got| !same_bits(got, &full)) {
                                return Err(format!(
                                    "{leaf:?} leaf ({order:?}) on {vector:?} under \
                                     {cutoff:?}: choices {:?} leak {:e} delay {:e}, full \
                                     choices {:?} leak {v:e} delay {:e}",
                                    got.choices,
                                    got.leakage.value(),
                                    got.delay.value(),
                                    full.choices,
                                    full.delay.value()
                                ));
                            }
                            if leaf == LeafKind::Greedy && sta.net_bits() != fresh_bits {
                                return Err(format!(
                                    "greedy leaf on {vector:?} under {cutoff:?}: the \
                                     analyzer was not restored to a fresh one's bits"
                                ));
                            }
                        }
                    }
                }
                Ok(())
            },
            &scaled(0.5),
        ));
    }

    // --- Greedy leaves meet the budget, re-checked cold. ---------------
    if wanted("core.greedy_leaf_feasible") {
        let strategy = (DagStrategy::medium(), OptConfigStrategy, AnyU64);
        reports.push(check_property(
            "core.greedy_leaf_feasible",
            &strategy,
            |(spec, config, seed)| {
                let n = random_dag(spec).map_err(|e| format!("generator: {e}"))?;
                let problem =
                    Problem::new(&n, &lib, TimingConfig::default()).map_err(|e| e.to_string())?;
                let penalty = DelayPenalty::new(config.penalty).map_err(|e| e.to_string())?;
                let opt = problem.optimizer(penalty, config.mode);
                let budget = opt.budget();
                // The greedy gate tree's acceptance test.
                let budget_eps = budget + Time::new(1e-9 * (1.0 + budget.value()));
                let mut rng = Xoshiro256pp::seed_from_u64(*seed);
                let mut sta = Sta::new(&n, &lib, problem.timing()).map_err(|e| e.to_string())?;
                let vector = random_vector(&n, &mut rng);
                let leaf = opt.evaluate_leaf(&vector, LeafKind::Greedy, &mut sta);
                if leaf.delay > budget_eps {
                    return Err(format!(
                        "greedy leaf delay {} over the budget {budget} on {vector:?}",
                        leaf.delay
                    ));
                }
                let states = reference::gate_states(&problem, &vector);
                let mut cold = Sta::new(&n, &lib, problem.timing()).map_err(|e| e.to_string())?;
                for (gid, gate) in n.gates() {
                    let option =
                        problem.option(gate.kind(), states[gid.index()], leaf.choices[gid.index()]);
                    cold.set_gate(gid, GateConfig::from(option));
                }
                cold.recompute();
                let cold_delay = cold.max_delay();
                if (cold_delay - leaf.delay).abs() >= 1e-6 {
                    return Err(format!(
                        "greedy leaf delay {} but a cold analysis gives {cold_delay}",
                        leaf.delay
                    ));
                }
                Ok(())
            },
            &scaled(0.5),
        ));
    }

    // --- Three-valued vs two-valued simulation. ------------------------
    if wanted("sim.tri_covers_two") {
        let strategy = (
            DagStrategy::medium(),
            AnyU64,
            choice(&[100usize, 0, 25, 50, 75]),
        );
        reports.push(check_property(
            "sim.tri_covers_two",
            &strategy,
            |(spec, vector_bits, fill_pct)| {
                let n = random_dag(spec).map_err(|e| format!("generator: {e}"))?;
                let inputs = n.num_inputs();
                let vector: Vec<bool> = (0..inputs)
                    .map(|i| (vector_bits >> (i % 64)) & 1 == 1)
                    .collect();
                let decided = inputs * fill_pct / 100;
                let mut tri = TriSimulator::new(&n);
                for (i, &v) in vector.iter().enumerate().take(decided) {
                    tri.set_input(i, Logic::from(v));
                }
                let mut two = Simulator::new(&n);
                two.set_inputs(&vector);
                for (gid, _) in n.gates() {
                    let actual = two.gate_state(gid);
                    let possible = tri.possible_states(gid);
                    if !possible.contains(&actual) {
                        return Err(format!(
                            "gate {gid:?}: realized state {actual} not in possible set {possible:?}"
                        ));
                    }
                    if decided == inputs && possible.len() != 1 {
                        return Err(format!(
                            "gate {gid:?}: fully decided inputs left {} possible states",
                            possible.len()
                        ));
                    }
                }
                Ok(())
            },
            &scaled(1.0),
        ));
    }

    // --- Word-level vs scalar two-valued simulation. -------------------
    // Random vector counts deliberately include fewer-than-64 and
    // non-multiple-of-64 batches so the ragged tail path is exercised.
    if wanted("sim.packed_eq_scalar_two") {
        let strategy = (DagStrategy::medium(), AnyU64, int_range(1, 200));
        reports.push(check_property(
            "sim.packed_eq_scalar_two",
            &strategy,
            |(spec, seed, num_vectors)| {
                let n = random_dag(spec).map_err(|e| format!("generator: {e}"))?;
                let mut rng = Xoshiro256pp::seed_from_u64(*seed);
                let mut scalar = Simulator::new(&n);
                let mut packed = PackedSimulator::new(&n);
                let mut remaining = *num_vectors;
                while remaining > 0 {
                    let lanes = remaining.min(LANES);
                    let vectors: Vec<Vec<bool>> = (0..lanes)
                        .map(|_| (0..n.num_inputs()).map(|_| rng.gen_bool(0.5)).collect())
                        .collect();
                    packed.set_inputs(&PackedVec::from_vectors(&vectors));
                    for (lane, vector) in vectors.iter().enumerate() {
                        scalar.set_inputs(vector);
                        for (nid, _) in n.nets() {
                            if packed.lane(nid, lane) != scalar.value(nid) {
                                return Err(format!(
                                    "net {nid:?} lane {lane}: packed {} vs scalar {}",
                                    packed.lane(nid, lane),
                                    scalar.value(nid)
                                ));
                            }
                        }
                        for (gid, _) in n.gates() {
                            if packed.gate_state(gid, lane) != scalar.gate_state(gid) {
                                return Err(format!(
                                    "gate {gid:?} lane {lane}: packed state {} vs scalar {}",
                                    packed.gate_state(gid, lane),
                                    scalar.gate_state(gid)
                                ));
                            }
                        }
                    }
                    remaining -= lanes;
                }
                Ok(())
            },
            &scaled(0.5),
        ));
    }

    // --- Dual-plane vs scalar three-valued simulation. -----------------
    if wanted("sim.packed_eq_scalar_tri") {
        let strategy = (DagStrategy::medium(), AnyU64, int_range(1, 130));
        reports.push(check_property(
            "sim.packed_eq_scalar_tri",
            &strategy,
            |(spec, seed, num_vectors)| {
                let n = random_dag(spec).map_err(|e| format!("generator: {e}"))?;
                let mut rng = Xoshiro256pp::seed_from_u64(*seed);
                let levels = [Logic::Zero, Logic::One, Logic::X];
                let mut scalar = TriSimulator::new(&n);
                let mut packed = PackedTriSimulator::new(&n);
                let mut remaining = *num_vectors;
                while remaining > 0 {
                    let lanes = remaining.min(LANES);
                    let vectors: Vec<Vec<Logic>> = (0..lanes)
                        .map(|_| {
                            (0..n.num_inputs())
                                .map(|_| levels[rng.gen_index(3)])
                                .collect()
                        })
                        .collect();
                    packed.set_inputs(&PackedTriVec::from_logic_vectors(&vectors));
                    for (lane, vector) in vectors.iter().enumerate() {
                        for (i, &l) in vector.iter().enumerate() {
                            scalar.set_input(i, l);
                        }
                        for (nid, _) in n.nets() {
                            if packed.lane(nid, lane) != scalar.value(nid) {
                                return Err(format!(
                                    "net {nid:?} lane {lane}: packed {:?} vs scalar {:?}",
                                    packed.lane(nid, lane),
                                    scalar.value(nid)
                                ));
                            }
                        }
                    }
                    remaining -= lanes;
                }
                Ok(())
            },
            &scaled(0.35),
        ));
    }

    // --- Incremental vs cold static timing analysis. -------------------
    if wanted("sta.incremental_equals_cold") {
        let strategy = (DagStrategy::medium(), AnyU64, int_range(1, 20));
        reports.push(check_property(
            "sta.incremental_equals_cold",
            &strategy,
            |(spec, flip_seed, num_flips)| {
                let n = random_dag(spec).map_err(|e| format!("generator: {e}"))?;
                let mut sta =
                    Sta::new(&n, &lib, TimingConfig::default()).map_err(|e| e.to_string())?;
                let mut rng = Xoshiro256pp::seed_from_u64(*flip_seed);
                for _ in 0..*num_flips {
                    let gid = n.topo_order()[rng.gen_index(n.num_gates())];
                    sta.set_gate(gid, random_config(&lib, n.gate(gid).kind(), &mut rng));
                }
                let incremental = sta.max_delay();
                sta.recompute();
                let cold = sta.max_delay();
                if (incremental - cold).abs() >= 1e-6 {
                    return Err(format!(
                        "incremental {incremental} vs cold {cold} after {num_flips} flips"
                    ));
                }
                Ok(())
            },
            &scaled(1.0),
        ));
    }

    // --- Relaxed floors vs a naive every-version × pin reference. ------
    if wanted("sta.floor_eq_reference") {
        let strategy = (choice(&[0usize, 1]), DagStrategy::medium(), AnyU64);
        reports.push(check_property(
            "sta.floor_eq_reference",
            &strategy,
            |(source, spec, seed)| {
                let n = match source {
                    0 => random_dag(spec),
                    _ => benchmark("c432"),
                }
                .map_err(|e| format!("generator: {e}"))?;
                let timing = TimingConfig::default();
                let mut rng = Xoshiro256pp::seed_from_u64(*seed);
                let p_relaxed = rng.gen_f64();
                let mut sta = Sta::new(&n, &lib, timing).map_err(|e| e.to_string())?;
                for (gid, gate) in n.gates() {
                    if rng.gen_bool(0.5) {
                        sta.set_gate(gid, random_config(&lib, gate.kind(), &mut rng));
                    }
                    sta.set_relaxed(gid, rng.gen_bool(p_relaxed));
                }
                sta.recompute();
                let configs: Vec<GateConfig> = n
                    .gates()
                    .map(|(gid, _)| sta.gate_config(gid).clone())
                    .collect();
                let relaxed: Vec<bool> = n.gates().map(|(gid, _)| sta.is_relaxed(gid)).collect();
                let want = reference::relaxed_analysis(&n, &lib, timing, &configs, &relaxed)
                    .map_err(|e| e.to_string())?;
                for (nid, _) in n.nets() {
                    let (rise, fall) = sta.arrival(nid);
                    let (want_rise, want_fall) = want[nid.index()];
                    if rise.value().to_bits() != want_rise.value().to_bits()
                        || fall.value().to_bits() != want_fall.value().to_bits()
                    {
                        return Err(format!(
                            "net {nid}: arrival ({rise}, {fall}), reference \
                             ({want_rise}, {want_fall}); {} of {} gates relaxed",
                            relaxed.iter().filter(|&&r| r).count(),
                            relaxed.len()
                        ));
                    }
                }
                Ok(())
            },
            &scaled(0.5),
        ));
    }

    // --- Trial with rollback vs set-and-query. --------------------------
    if wanted("sta.trial_eq_set_gate") {
        let strategy = (DagStrategy::medium(), AnyU64, int_range(1, 24));
        reports.push(check_property(
            "sta.trial_eq_set_gate",
            &strategy,
            |(spec, seed, trials)| {
                let n = random_dag(spec).map_err(|e| format!("generator: {e}"))?;
                let mut rng = Xoshiro256pp::seed_from_u64(*seed);
                let p_relaxed = rng.gen_f64();
                let mut sta =
                    Sta::new(&n, &lib, TimingConfig::default()).map_err(|e| e.to_string())?;
                for (gid, _) in n.gates() {
                    sta.set_relaxed(gid, rng.gen_bool(p_relaxed));
                }
                for trial in 0..*trials {
                    let gid = n.topo_order()[rng.gen_index(n.num_gates())];
                    let config = random_config(&lib, n.gate(gid).kind(), &mut rng);
                    let delay = sta.max_delay();
                    let limit = delay * (0.99 + 0.02 * rng.gen_f64());
                    let before = sta.net_bits();
                    let mut reference = sta.clone();
                    reference.set_gate(gid, config.clone());
                    reference.set_relaxed(gid, false);
                    let want = reference.max_delay() <= limit;
                    let got = sta.try_option(gid, config.version, &config.perm, limit);
                    if got != want {
                        return Err(format!(
                            "trial {trial} of gate {gid} at limit {limit}: try_option says \
                             {got}, set + max_delay says {want}"
                        ));
                    }
                    let after = sta.net_bits();
                    let expected = if got { reference.net_bits() } else { before };
                    if let Some(net) = after.iter().zip(&expected).position(|(a, b)| a != b) {
                        return Err(format!(
                            "trial {trial} of gate {gid} ({}): net {net} bits {:x?}, want {:x?}",
                            if got { "accepted" } else { "rejected" },
                            after[net],
                            expected[net]
                        ));
                    }
                }
                Ok(())
            },
            &scaled(1.0),
        ));
    }

    // --- Relaxed timing lower-bounds every concrete completion. --------
    // Circuit delay only: per net the floor can sit above a completion
    // (DESIGN.md §5), so this check is known to be incomplete.
    if wanted("sta.relaxed_is_lower") {
        let strategy = (DagStrategy::medium(), AnyU64);
        reports.push(check_property(
            "sta.relaxed_is_lower",
            &strategy,
            |(spec, seed)| {
                let n = random_dag(spec).map_err(|e| format!("generator: {e}"))?;
                let timing = TimingConfig::default();
                let mut rng = Xoshiro256pp::seed_from_u64(*seed);
                let p_relaxed = rng.gen_f64();
                let mut floor = Sta::new(&n, &lib, timing).map_err(|e| e.to_string())?;
                let mut concrete = Sta::new(&n, &lib, timing).map_err(|e| e.to_string())?;
                for (gid, gate) in n.gates() {
                    let config = random_config(&lib, gate.kind(), &mut rng);
                    floor.set_gate(gid, config.clone());
                    floor.set_relaxed(gid, rng.gen_bool(p_relaxed));
                    concrete.set_gate(gid, config);
                }
                let (lower, upper) = (floor.max_delay(), concrete.max_delay());
                // Rounding in the interpolation is the only slack.
                if lower > upper + Time::new(1e-9 * (1.0 + upper.value())) {
                    return Err(format!(
                        "relaxed delay {lower} above the completion's {upper}"
                    ));
                }
                Ok(())
            },
            &scaled(1.0),
        ));
    }

    // --- Leakage evaluation consistency. -------------------------------
    if wanted("sim.vector_leakage_consistent") {
        let strategy = (DagStrategy::medium(), AnyU64);
        reports.push(check_property(
            "sim.vector_leakage_consistent",
            &strategy,
            |(spec, vector_bits)| {
                let n = random_dag(spec).map_err(|e| format!("generator: {e}"))?;
                let vector: Vec<bool> = (0..n.num_inputs())
                    .map(|i| (vector_bits >> (i % 64)) & 1 == 1)
                    .collect();
                let first = vector_leakage(&n, &lib, &vector).map_err(|e| e.to_string())?;
                let second = vector_leakage(&n, &lib, &vector).map_err(|e| e.to_string())?;
                if first.total != second.total || first.isub != second.isub {
                    return Err(format!(
                        "re-evaluation drifted: {} vs {}",
                        first.total, second.total
                    ));
                }
                let sum = first.isub.value() + first.igate.value();
                if (sum - first.total.value()).abs() > LEAK_EPS {
                    return Err(format!(
                        "components {sum} do not sum to total {}",
                        first.total
                    ));
                }
                // Round-trip through the textual netlist format.
                let reparsed = parse_bench(&n.to_bench()).map_err(|e| format!("roundtrip: {e}"))?;
                let again = vector_leakage(&reparsed, &lib, &vector).map_err(|e| e.to_string())?;
                if (again.total.value() - first.total.value()).abs() > LEAK_EPS {
                    return Err(format!(
                        ".bench round-trip changed leakage: {} vs {}",
                        again.total, first.total
                    ));
                }
                Ok(())
            },
            &scaled(1.0),
        ));
    }

    // --- Parser robustness under mutation. -----------------------------
    if wanted("parse.bench_never_panics") {
        let base = random_circuit("fuzz-base", 77, 8, 30).to_bench();
        let strategy = BenchMutations::new(base, 6);
        reports.push(check_property(
            "parse.bench_never_panics",
            &strategy,
            |text| {
                // Panics are caught by the runner and count as failures;
                // a parse error is the expected rejection path.
                if let Ok(n) = parse_bench(text) {
                    parse_bench(&n.to_bench())
                        .map_err(|e| format!("accepted text does not re-emit: {e}"))?;
                }
                Ok(())
            },
            &scaled(1.0),
        ));
    }

    // --- RNG index uniformity (the seeded draw under everything). ------
    if wanted("rng.gen_index_unbiased") {
        let strategy = (int_range(2, 33), AnyU64);
        reports.push(check_property(
            "rng.gen_index_unbiased",
            &strategy,
            |(n, seed)| {
                const DRAWS: usize = 4096;
                let mut rng = Xoshiro256pp::seed_from_u64(*seed);
                let mut counts = vec![0usize; *n];
                for _ in 0..DRAWS {
                    counts[rng.gen_index(*n)] += 1;
                }
                let p = 1.0 / *n as f64;
                let expected = DRAWS as f64 * p;
                let sigma = (DRAWS as f64 * p * (1.0 - p)).sqrt();
                for (i, &c) in counts.iter().enumerate() {
                    if (c as f64 - expected).abs() > 6.0 * sigma {
                        return Err(format!(
                            "n={n}: bucket {i} has {c}, expected {expected:.0}±{:.0}",
                            6.0 * sigma
                        ));
                    }
                }
                Ok(())
            },
            &scaled(1.0),
        ));
    }

    // --- Device-model calibration (catches e.g. a flipped stack factor
    // in Isub long before any circuit-level oracle could). --------------
    if wanted("tech.calibration_pinned") {
        let strategy = int_range(1, 4);
        reports.push(check_property(
            "tech.calibration_pinned",
            &strategy,
            |&width| {
                let t = Technology::predictive_65nm();
                let vdd = t.vdd();
                let w = width as f64;
                let dev = |mos, vt, tox| Device::new(mos, vt, tox, w);
                let isub =
                    |mos, vt| dev(mos, vt, OxideClass::Thin).isub(&t, Voltage::ZERO, vdd).value();
                let rn = isub(MosType::Nmos, VtClass::Low) / isub(MosType::Nmos, VtClass::High);
                let rp = isub(MosType::Pmos, VtClass::Low) / isub(MosType::Pmos, VtClass::High);
                if (rn - 17.8).abs() > 0.3 || (rp - 16.7).abs() > 0.3 {
                    return Err(format!(
                        "high-Vt Isub ratios drifted: NMOS {rn:.2}× / PMOS {rp:.2}× (DESIGN.md pins 17.8×/16.7×)"
                    ));
                }
                let thin = dev(MosType::Nmos, VtClass::Low, OxideClass::Thin).igate(&t, vdd, vdd);
                let thick = dev(MosType::Nmos, VtClass::Low, OxideClass::Thick).igate(&t, vdd, vdd);
                let rt = thin / thick;
                if (rt - 11.0).abs() > 0.2 {
                    return Err(format!(
                        "thick-Tox Igate reduction drifted: {rt:.2}× (DESIGN.md pins ~11×)"
                    ));
                }
                Ok(())
            },
            &scaled(1.0),
        ));
    }

    // --- Characterization: the memoized library build vs fresh solves. --
    if wanted("cells.library_eq_solve") {
        let flag = || choice(&[false, true]);
        let strategy = (
            (flag(), flag(), flag()),
            (flag(), int_range(2, 4), choice(&[0.1, 0.2, 0.35])),
        );
        reports.push(check_property(
            "cells.library_eq_solve",
            &strategy,
            |&((two, uniform_stack, no_reordering), (output_adjacent, max_arity, significance))| {
                let options = LibraryOptions {
                    tradeoff_points: if two {
                        TradeoffPoints::Two
                    } else {
                        TradeoffPoints::Four
                    },
                    uniform_stack,
                    pin_reordering: !no_reordering,
                    vt_site: if output_adjacent {
                        VtSitePolicy::OutputAdjacent
                    } else {
                        VtSitePolicy::RailAdjacent
                    },
                    max_arity,
                    igate_significance: significance,
                };
                let built = Library::new(Technology::predictive_65nm(), options)
                    .map_err(|e| e.to_string())?;
                let tech = built.tech();
                let bits = |b: LeakageBreakdown, total: Current| {
                    [b.isub, b.igate, total].map(|c| c.value().to_bits())
                };
                for cell in built.cells() {
                    let kind = cell.kind();
                    let topo = cell.topology();
                    for v in cell.version_ids() {
                        let assignment = cell.version(v).assignment();
                        for state in InputState::all(cell.arity()) {
                            let fresh = solve_leakage(tech, topo, assignment, state);
                            let table = cell.leakage_breakdown(v, state);
                            if bits(table, cell.leakage(v, state)) != bits(fresh, fresh.total()) {
                                return Err(format!(
                                    "{kind} {v} state {state}: table {table:?}, fresh solve {fresh:?}"
                                ));
                            }
                        }
                    }
                    for state in InputState::all(cell.arity()) {
                        for opt in cell.options_for(state) {
                            let assignment = cell.version(opt.version()).assignment();
                            let phys = state.permuted(opt.perm());
                            let fresh = solve_leakage(tech, topo, assignment, phys);
                            if bits(opt.breakdown(), opt.leakage()) != bits(fresh, fresh.total()) {
                                return Err(format!(
                                    "{kind} state {state} option {} perm {:?}: {:?}, fresh solve {fresh:?}",
                                    opt.version(),
                                    opt.perm(),
                                    opt.breakdown()
                                ));
                            }
                        }
                    }
                }
                Ok(())
            },
            &scaled(0.25),
        ));
    }

    // --- Fault injection: degradation, not disaster. -------------------
    if wanted("fault.degradation_invariants") {
        let strategy = (
            (DagStrategy::small(), AnyU64),
            (choice(&[0usize, 1, 2, 3]), choice(&[1usize, 2])),
        );
        reports.push(check_property(
            "fault.degradation_invariants",
            &strategy,
            |((spec, fault_seed), (combo, threads))| {
                let n = random_dag(spec).map_err(|e| format!("generator: {e}"))?;
                let problem =
                    Problem::new(&n, &lib, TimingConfig::default()).map_err(|e| e.to_string())?;
                let opt = problem.optimizer(
                    svtox_core::DelayPenalty::five_percent(),
                    svtox_core::Mode::Proposed,
                );
                let h1 = opt.heuristic1().map_err(|e| format!("heuristic1: {e}"))?;
                let (site, trigger) = match combo {
                    0 => (Site::ExecDispatch, Trigger::Probability(0.3)),
                    1 => (Site::ExecPop, Trigger::Nth(2)),
                    2 => (Site::CoreLeaf, Trigger::Nth(5)),
                    _ => (Site::BudgetClock, Trigger::Nth(1)),
                };
                let plan = FaultPlan::new(*fault_seed).with_rule(site, trigger);
                let fault = Fault::new(&plan);
                let exec = svtox_core::ExecConfig::with_threads(*threads)
                    .with_time_budget(Duration::from_secs(60))
                    .with_retries(svtox_core::RetryPolicy::resilient());
                let outcome = opt.with_fault(&fault).run(&exec, None);
                let best = match &outcome {
                    RunOutcome::Failed { error } => {
                        return Err(format!("site {site} failed outright: {error}"));
                    }
                    _ => outcome
                        .best()
                        .expect("non-failed outcome carries a solution"),
                };
                best.verify(&problem)
                    .map_err(|e| format!("degraded incumbent does not verify: {e}"))?;
                if best.leakage.value() > h1.leakage.value() * (1.0 + 1e-12) {
                    return Err(format!(
                        "site {site}: incumbent {} worse than the H1 seed {}",
                        best.leakage, h1.leakage
                    ));
                }
                // Control: the same run with faults disabled completes and
                // can only match or beat the degraded incumbent.
                let control = opt.run(&exec, None);
                let RunOutcome::Complete { solution, .. } = control else {
                    return Err(format!(
                        "fault-free control did not complete: {}",
                        control.status()
                    ));
                };
                if solution.leakage.value() > best.leakage.value() * (1.0 + 1e-12) {
                    return Err(format!(
                        "fault-free optimum {} worse than the degraded incumbent {}",
                        solution.leakage, best.leakage
                    ));
                }
                Ok(())
            },
            &scaled(0.25),
        ));
    }

    // --- Kill / checkpoint / resume bit-identity. ----------------------
    if wanted("fault.resume_bit_identical") {
        let strategy = (
            (DagStrategy::small(), AnyU64),
            (choice(&[1usize, 2, 4]), int_range(1, 12)),
        );
        reports.push(check_property(
            "fault.resume_bit_identical",
            &strategy,
            |((spec, nonce), (threads, kill_n))| {
                let n = random_dag(spec).map_err(|e| format!("generator: {e}"))?;
                let problem =
                    Problem::new(&n, &lib, TimingConfig::default()).map_err(|e| e.to_string())?;
                let opt = problem.optimizer(
                    svtox_core::DelayPenalty::five_percent(),
                    svtox_core::Mode::Proposed,
                );
                let exec = svtox_core::ExecConfig::with_threads(*threads);
                let RunOutcome::Complete {
                    solution: reference,
                    ..
                } = opt.run(&exec, None)
                else {
                    return Err("uninterrupted reference run did not complete".to_string());
                };
                let path = std::env::temp_dir().join(format!(
                    "svtox-check-resume-{nonce:016x}-{}.jsonl",
                    std::process::id()
                ));
                let _ = std::fs::remove_file(&path);
                let plan =
                    FaultPlan::new(*nonce).with_rule(Site::CoreLeaf, Trigger::Nth(*kill_n as u64));
                let fault = Fault::new(&plan);
                let killed = opt
                    .with_fault(&fault)
                    .run(&exec, Some(&CheckpointSpec::fresh(&path)));
                let done = |r: Result<(), String>| {
                    std::fs::remove_file(&path).ok();
                    r
                };
                let final_solution = match killed {
                    // A tree with fewer leaves than the kill point simply
                    // finishes; the checkpoint then replays in full.
                    RunOutcome::Complete { solution, .. } => solution,
                    RunOutcome::Degraded { .. } => {
                        let resumed = opt.run(&exec, Some(&CheckpointSpec::resume(&path)));
                        let RunOutcome::Complete { solution, .. } = resumed else {
                            return done(Err(format!(
                                "resume did not complete: {}",
                                resumed.status()
                            )));
                        };
                        solution
                    }
                    RunOutcome::Failed { error } => {
                        return done(Err(format!("killed run failed outright: {error}")));
                    }
                };
                if !final_solution.same_assignment(&reference) {
                    return done(Err(format!(
                        "resume after a kill at leaf {kill_n} with {threads} worker(s) \
                         diverged: {} vs {}",
                        final_solution.leakage, reference.leakage
                    )));
                }
                done(Ok(()))
            },
            &scaled(0.25),
        ));
    }

    // --- Portfolio: thread-count invariance. ---------------------------
    if wanted("portfolio.thread_count_invariant") {
        let strategy = (DagStrategy::small(), AnyU64);
        reports.push(check_property(
            "portfolio.thread_count_invariant",
            &strategy,
            |(spec, seed)| {
                let n = random_dag(spec).map_err(|e| format!("generator: {e}"))?;
                let problem =
                    Problem::new(&n, &lib, TimingConfig::default()).map_err(|e| e.to_string())?;
                let opt = problem.optimizer(
                    svtox_core::DelayPenalty::five_percent(),
                    svtox_core::Mode::Proposed,
                );
                // Exact members are priced out of the property budget; the
                // greedy members exercise the same barrier machinery.
                let config = Plan {
                    restarts: 8,
                    seed: *seed,
                    ..Plan::default().without_exact()
                };
                let run = |threads: usize| {
                    let exec = svtox_core::ExecConfig::with_threads(threads);
                    opt.run_portfolio(&exec, &Budget::unlimited(), &config, None)
                        .map_err(|e| format!("portfolio({threads}): {e}"))
                };
                let counts = |o: &PortfolioOutcome| {
                    o.members
                        .iter()
                        .map(|m| (m.incumbent_updates, m.nodes, m.leaves))
                        .collect::<Vec<_>>()
                };
                let reference = run(1)?;
                for threads in [2usize, 4] {
                    let other = run(threads)?;
                    if other.winner != reference.winner
                        || other.best.leakage != reference.best.leakage
                        || !other.best.same_assignment(&reference.best)
                        || other.rounds != reference.rounds
                        || counts(&other) != counts(&reference)
                    {
                        return Err(format!(
                            "portfolio({threads}) diverged: winner {} / {} at {} vs \
                             serial winner {} / {} at {}",
                            other.winner,
                            other.rounds,
                            other.best.leakage,
                            reference.winner,
                            reference.rounds,
                            reference.best.leakage
                        ));
                    }
                }
                Ok(())
            },
            &scaled(0.1),
        ));
    }

    // --- Portfolio: kill / member-checkpoint / resume bit-identity. ----
    if wanted("portfolio.kill_resume_bit_identical") {
        let strategy = (
            (DagStrategy::small(), AnyU64),
            (choice(&[1usize, 2, 4]), int_range(1, 12)),
        );
        reports.push(check_property(
            "portfolio.kill_resume_bit_identical",
            &strategy,
            |((spec, nonce), (threads, kill_n))| {
                let n = random_dag(spec).map_err(|e| format!("generator: {e}"))?;
                let problem =
                    Problem::new(&n, &lib, TimingConfig::default()).map_err(|e| e.to_string())?;
                let opt = problem.optimizer(
                    svtox_core::DelayPenalty::five_percent(),
                    svtox_core::Mode::Proposed,
                );
                let config = Plan {
                    restarts: 8,
                    seed: *nonce,
                    ..Plan::default().without_exact()
                };
                let exec = svtox_core::ExecConfig::with_threads(*threads);
                let reference = opt
                    .run_portfolio(&exec, &Budget::unlimited(), &config, None)
                    .map_err(|e| format!("reference: {e}"))?;
                let base = std::env::temp_dir().join(format!(
                    "svtox-check-portfolio-{nonce:016x}-{}.jsonl",
                    std::process::id()
                ));
                let cleanup = || {
                    std::fs::remove_file(&base).ok();
                };
                cleanup();
                let done = |r: Result<(), String>| {
                    cleanup();
                    r
                };
                let plan =
                    FaultPlan::new(*nonce).with_rule(Site::CoreLeaf, Trigger::Nth(*kill_n as u64));
                let fault = Fault::new(&plan);
                let killed = match opt.with_fault(&fault).run_portfolio(
                    &exec,
                    &Budget::unlimited(),
                    &config,
                    Some(&CheckpointSpec::fresh(&base)),
                ) {
                    Ok(outcome) => outcome,
                    Err(e) => return done(Err(format!("killed run failed outright: {e}"))),
                };
                let final_outcome = if killed.reason.is_none() {
                    // The fault never fired (tree smaller than the kill
                    // point): the run already completed.
                    killed
                } else {
                    match opt.run_portfolio(
                        &exec,
                        &Budget::unlimited(),
                        &config,
                        Some(&CheckpointSpec::resume(&base)),
                    ) {
                        Ok(outcome) if outcome.reason.is_none() => outcome,
                        Ok(outcome) => {
                            return done(Err(format!(
                                "resume did not complete: {}",
                                outcome.status()
                            )));
                        }
                        Err(e) => return done(Err(format!("resume failed: {e}"))),
                    }
                };
                if final_outcome.winner != reference.winner
                    || final_outcome.best.leakage != reference.best.leakage
                    || !final_outcome.best.same_assignment(&reference.best)
                {
                    return done(Err(format!(
                        "resume after a kill at leaf {kill_n} with {threads} worker(s) \
                         diverged: winner {} at {} vs {} at {}",
                        final_outcome.winner,
                        final_outcome.best.leakage,
                        reference.winner,
                        reference.best.leakage
                    )));
                }
                done(Ok(()))
            },
            &scaled(0.1),
        ));
    }

    // --- Serve: write-ahead journal round-trip under truncation. -------
    if wanted("serve.journal_roundtrip") {
        let strategy = (AnyU64, int_range(1, 5));
        reports.push(check_property(
            "serve.journal_roundtrip",
            &strategy,
            |(seed, job_count)| {
                use svtox_serve::{JobResult, JobSpec, Journal, SolutionSummary};
                let mut rng = Xoshiro256pp::seed_from_u64(*seed);
                let dir = std::env::temp_dir().join(format!(
                    "svtox-check-journal-{seed:016x}-{}",
                    std::process::id()
                ));
                std::fs::remove_dir_all(&dir).ok();
                let obs = svtox_obs::Obs::enabled();
                let journal = Journal::open(
                    &dir,
                    std::collections::BTreeMap::new(),
                    &obs,
                    Fault::disabled_ref(),
                );
                if !journal.is_active() {
                    return Err("journal failed to open on a healthy disk".to_string());
                }

                // Drive random lifecycles: a third stay queued, a third
                // are caught running, a third finish with results full of
                // awkward f64 bit patterns.
                let jobs = *job_count as u64;
                let mut expected = Vec::new();
                for id in 1..=jobs {
                    let spec = JobSpec {
                        circuit: Some(format!("c{id}")),
                        penalty: rng.gen_range_f64(0.0, 1.0),
                        threads: id as usize,
                        deadline: (id % 2 == 0).then(|| Duration::from_millis(100 * id)),
                        ..JobSpec::default()
                    };
                    journal.admit(id, &spec);
                    let stage = id % 3;
                    if stage != 0 {
                        journal.state(id, "running");
                    }
                    let result = (stage == 2).then(|| JobResult {
                        outcome: "complete",
                        reason: None,
                        error: None,
                        circuit: format!("c{id}"),
                        solution: Some(SolutionSummary {
                            vector: "0110".to_string(),
                            choices: "0121".to_string(),
                            leakage_ua: rng.gen_range_f64(1e-3, 1e3),
                            leakage_bits: rng.gen_range_f64(1e-3, 1e3).to_bits(),
                            delay_bits: rng.gen_range_f64(1e-12, 1e-9).to_bits(),
                            leaves: id * 17,
                            runtime_ms: rng.gen_range_f64(0.0, 1e4),
                        }),
                        winner: Some("h1".to_string()),
                        liberty_cells: None,
                        baseline_leakage_ua: Some(rng.gen_range_f64(1e-3, 1e3)),
                    });
                    if let Some(result) = &result {
                        journal.done(id, result);
                    }
                    expected.push((id, spec, stage, result));
                }

                // A replayed job must reproduce the write bit for bit.
                let fingerprint = |job: &svtox_serve::RecoveredJob| {
                    let result = job.result.as_ref().map(|r| {
                        let s = r.solution.as_ref().map(|s| {
                            format!(
                                "{}/{}/{:016x}/{:016x}/{:016x}/{}/{:016x}",
                                s.vector,
                                s.choices,
                                s.leakage_ua.to_bits(),
                                s.leakage_bits,
                                s.delay_bits,
                                s.leaves,
                                s.runtime_ms.to_bits()
                            )
                        });
                        format!(
                            "{}:{:?}:{:?}:{:?}",
                            r.outcome,
                            r.winner,
                            r.baseline_leakage_ua.map(f64::to_bits),
                            s
                        )
                    });
                    format!(
                        "{}|{:?}|{:?}|{:016x}|{}|{:?}|{:?}",
                        job.id,
                        job.spec.circuit,
                        job.state,
                        job.spec.penalty.to_bits(),
                        job.spec.threads,
                        job.spec.deadline,
                        result
                    )
                };
                let path = dir.join(svtox_serve::journal::JOURNAL_FILE);
                let replay = || {
                    svtox_serve::recovery::replay(&path, Fault::disabled_ref())
                        .map_err(|e| format!("replay: {e}"))
                };
                let clean = replay();
                let done = |r: Result<(), String>| {
                    std::fs::remove_dir_all(&dir).ok();
                    r
                };
                let clean = match clean {
                    Ok(r) => r,
                    Err(e) => return done(Err(e)),
                };
                if clean.torn_tail {
                    return done(Err("a clean journal replayed as torn".to_string()));
                }
                if clean.next_id != jobs + 1 {
                    return done(Err(format!(
                        "next_id {} after {jobs} admissions",
                        clean.next_id
                    )));
                }
                if clean.jobs.len() != expected.len() {
                    return done(Err(format!(
                        "replayed {} of {} jobs",
                        clean.jobs.len(),
                        expected.len()
                    )));
                }
                for (job, (id, spec, stage, result)) in clean.jobs.iter().zip(&expected) {
                    use svtox_serve::RecoveredState;
                    let state = match stage {
                        0 => RecoveredState::Queued,
                        1 => RecoveredState::Running,
                        _ => RecoveredState::Done,
                    };
                    let want = svtox_serve::RecoveredJob {
                        id: *id,
                        spec: spec.clone(),
                        state,
                        checkpoint: job.checkpoint.clone(),
                        result: result.clone(),
                    };
                    if fingerprint(job) != fingerprint(&want) {
                        return done(Err(format!(
                            "job {id} diverged:\n  got  {}\n  want {}",
                            fingerprint(job),
                            fingerprint(&want)
                        )));
                    }
                }

                // Tear the tail mid-record: every intact record must
                // survive, and the tear must be flagged — never an error,
                // never a lost job.
                {
                    use std::io::Write as _;
                    let mut file = std::fs::OpenOptions::new()
                        .append(true)
                        .open(&path)
                        .map_err(|e| e.to_string())?;
                    file.write_all(b"{\"type\":\"state\",\"id\":1,\"st")
                        .map_err(|e| e.to_string())?;
                }
                let torn = match replay() {
                    Ok(r) => r,
                    Err(e) => return done(Err(format!("torn-tail replay errored: {e}"))),
                };
                if !torn.torn_tail {
                    return done(Err("the torn tail went unnoticed".to_string()));
                }
                let clean_prints: Vec<String> = clean.jobs.iter().map(fingerprint).collect();
                let torn_prints: Vec<String> = torn.jobs.iter().map(fingerprint).collect();
                if torn_prints != clean_prints {
                    return done(Err("a torn tail changed the intact records".to_string()));
                }
                done(Ok(()))
            },
            &scaled(0.5),
        ));
    }

    // Cap corpus growth once per full (unfiltered) run: stale cases whose
    // property no longer exists are dropped, and each property keeps at
    // most a handful of distinct seeds.
    if filter.is_none() {
        if let Some(dir) = &config.corpus_dir {
            crate::corpus::prune(dir, &builtin_property_names(), 8);
        }
    }

    reports
}

/// Names of every built-in property, in suite order. This is the live-set
/// the corpus pruner keeps; anything else under `tests/corpus/` is stale.
#[must_use]
pub fn builtin_property_names() -> Vec<&'static str> {
    vec![
        "opt.heuristic_not_below_exact",
        "opt.parallel_bit_identity",
        "core.eco_eq_cold",
        "netlist.strash_preserves_function",
        "netlist.edit_eq_rebuild",
        "core.bound_eq_reference",
        "core.tfo_eq_reference",
        "core.bound_sound",
        "core.leaf_eq_reference",
        "core.leaf_cutoff_eq_full",
        "core.greedy_leaf_feasible",
        "sim.tri_covers_two",
        "sim.packed_eq_scalar_two",
        "sim.packed_eq_scalar_tri",
        "sta.incremental_equals_cold",
        "sta.floor_eq_reference",
        "sta.trial_eq_set_gate",
        "sta.relaxed_is_lower",
        "sim.vector_leakage_consistent",
        "parse.bench_never_panics",
        "rng.gen_index_unbiased",
        "tech.calibration_pinned",
        "cells.library_eq_solve",
        "fault.degradation_invariants",
        "fault.resume_bit_identical",
        "portfolio.thread_count_invariant",
        "portfolio.kill_resume_bit_identical",
        "serve.journal_roundtrip",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::render_json;

    #[test]
    fn filter_selects_a_single_property() {
        let config = CheckConfig::new(4, 1);
        let reports = run_builtin_suite(&config, Some("rng."));
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].name, "rng.gen_index_unbiased");
        assert!(reports[0].passed(), "{:?}", reports[0].failure);
    }

    #[test]
    fn property_name_list_matches_the_suite() {
        // The pruner's live-set must track the suite exactly, or freshly
        // stored cases get deleted on the next run.
        let config = CheckConfig::new(1, 1);
        let reports = run_builtin_suite(&config, None);
        let ran: Vec<&str> = reports.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(ran, builtin_property_names());
    }

    #[test]
    fn cheap_properties_are_thread_count_invariant() {
        let render = |threads: usize| {
            let config = CheckConfig::new(8, 4).with_threads(threads);
            let reports = run_builtin_suite(&config, Some("tech."));
            render_json(4, &reports).to_string()
        };
        let serial = render(1);
        assert_eq!(render(2), serial);
        assert_eq!(render(4), serial);
    }
}
