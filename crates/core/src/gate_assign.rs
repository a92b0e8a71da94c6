//! The gate tree: choosing cell versions for a fixed standby vector.
//!
//! For a known input vector every gate's input state is determined, so each
//! gate has at most four applicable versions (its trade-off points for that
//! state), pre-sorted by leakage. The greedy traversal visits gates once and
//! takes the lowest-leakage option that keeps the circuit inside the delay
//! budget — the paper observes ("a single downward traversal of the gate
//! tree tends to produce a high quality leakage solution because the gate
//! tree is searched in a pre-sorted order"), and this is also the first
//! descent that seeds the exact branch and bound's incumbent.

use svtox_cells::InputState;
use svtox_netlist::GateId;
use svtox_sim::{PackedSimulator, PackedVec};
use svtox_sta::Sta;
use svtox_tech::{Current, Time};

use crate::problem::{GateOrder, Mode, Problem};

/// Result of a gate-tree assignment.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct GateAssignment {
    /// Per-gate option index into `options_for(state)`.
    pub choices: Vec<u8>,
    /// Total leakage.
    pub leakage: Current,
    /// Circuit delay under the assignment.
    pub delay: Time,
}

/// Per-gate states under a fixed vector.
///
/// Runs on the word-level simulator (vector broadcast into lane 0): a
/// single branch-free sweep plus an allocation-free bitmask fold per gate,
/// since the search calls this at every leaf it evaluates.
pub(crate) fn gate_states(problem: &Problem<'_>, vector: &[bool]) -> Vec<InputState> {
    let netlist = problem.netlist();
    let sim = PackedSimulator::with_inputs(netlist, &PackedVec::broadcast(vector));
    netlist
        .gates()
        .map(|(gid, _)| sim.gate_state(gid, 0))
        .collect()
}

/// Visits gates in the configured order.
fn gate_visit_order(
    problem: &Problem<'_>,
    states: &[InputState],
    mode: Mode,
    order: GateOrder,
) -> Vec<GateId> {
    let netlist = problem.netlist();
    let mut gates: Vec<GateId> = netlist.gates().map(|(gid, _)| gid).collect();
    match order {
        GateOrder::Topological => gates = netlist.topo_order().to_vec(),
        GateOrder::SavingsDescending => {
            // Each saving once, by gate index; the stable sort keeps ties in
            // gate order.
            let saving: Vec<f64> = netlist
                .gates()
                .map(|(gid, gate)| {
                    let s = states[gid.index()];
                    problem.fast_leak(gate.kind(), s).value()
                        - problem.min_leak(gate.kind(), s, mode).value()
                })
                .collect();
            gates.sort_by(|a, b| {
                saving[b.index()]
                    .partial_cmp(&saving[a.index()])
                    .expect("finite leakages")
            });
        }
    }
    gates
}

/// Greedy single traversal of the gate tree (the heuristics' leaf
/// evaluation). Every option is a [`svtox_sta::Leaf::try_option`] trial: a
/// rejected one stops at the first output past the budget and rolls back
/// exactly, and the leaf scope returns `sta` to its entry state bit for
/// bit when the traversal ends. `sta` must arrive all-fast.
pub(crate) fn greedy_assign(
    problem: &Problem<'_>,
    states: &[InputState],
    mode: Mode,
    order: GateOrder,
    budget: Time,
    sta: &mut Sta<'_>,
) -> GateAssignment {
    let netlist = problem.netlist();
    let mut choices: Vec<u8> = netlist
        .gates()
        .map(|(gid, gate)| problem.fast_index(gate.kind(), states[gid.index()]))
        .collect();
    let mut leakage: Current = netlist
        .gates()
        .map(|(gid, gate)| problem.fast_leak(gate.kind(), states[gid.index()]))
        .sum();

    // Tolerate float noise at the budget boundary.
    let budget_eps = budget + Time::new(1e-9 * (1.0 + budget.value()));
    let visit = gate_visit_order(problem, states, mode, order);
    let mut leaf = sta.leaf();
    for gid in visit {
        let kind = netlist.gate(gid).kind();
        let state = states[gid.index()];
        let fast_idx = problem.fast_index(kind, state);
        for &idx in problem.allowed(kind, state, mode) {
            if idx == fast_idx {
                // The fast option is always feasible; keep the default.
                break;
            }
            let opt = problem.option(kind, state, idx);
            if leaf.try_option(gid, opt.version(), opt.perm(), budget_eps) {
                leakage += opt.leakage() - problem.fast_leak(kind, state);
                choices[gid.index()] = idx;
                break;
            }
        }
    }
    let delay = leaf.max_delay();
    GateAssignment {
        choices,
        leakage,
        delay,
    }
}

/// Exact branch and bound over the gate tree for a fixed vector: finds the
/// minimum-leakage feasible assignment. Exponential in principle; pruning by
/// `partial + suffix-min ≥ incumbent` keeps small circuits tractable.
///
/// `sta` must arrive all-fast and is restored before returning.
pub(crate) fn exact_assign(
    problem: &Problem<'_>,
    states: &[InputState],
    mode: Mode,
    budget: Time,
    sta: &mut Sta<'_>,
) -> GateAssignment {
    let netlist = problem.netlist();
    // Seed the incumbent with the greedy result.
    let mut best = greedy_assign(
        problem,
        states,
        mode,
        GateOrder::SavingsDescending,
        budget,
        sta,
    );

    let visit = gate_visit_order(problem, states, mode, GateOrder::SavingsDescending);
    let n = visit.len();
    // suffix_min[i] = sum of per-gate minimum leakage over visit[i..].
    let mut suffix_min = vec![0.0; n + 1];
    for i in (0..n).rev() {
        let gid = visit[i];
        let kind = netlist.gate(gid).kind();
        suffix_min[i] =
            suffix_min[i + 1] + problem.min_leak(kind, states[gid.index()], mode).value();
    }
    let budget_eps = budget + Time::new(1e-9 * (1.0 + budget.value()));

    struct Frame {
        depth: usize,
        /// Position in `allowed(..)` of the next option to try at this
        /// depth (ascending leakage, so the best is tried first).
        next: usize,
        /// Leakage accumulated above this depth.
        partial: f64,
    }

    let mut best_choices = best.choices.clone();
    let mut best_leak = best.leakage.value();
    let mut current: Vec<u8> = netlist
        .gates()
        .map(|(gid, gate)| problem.fast_index(gate.kind(), states[gid.index()]))
        .collect();

    // Undecided gates must contribute a delay *floor*, not the identity-fast
    // delay: an option's pin permutation can route a late signal onto a
    // faster physical pin and beat identity, so pruning a prefix against
    // the identity-fast completion can discard feasible optima. Relaxed
    // gates give a true lower bound; decided gates use their real option.
    for &gid in &visit {
        sta.set_relaxed(gid, true);
    }

    let mut stack = vec![Frame {
        depth: 0,
        next: 0,
        partial: 0.0,
    }];
    while let Some(frame) = stack.last_mut() {
        let depth = frame.depth;
        if depth == n {
            // Leaf: every gate is decided, so the feasibility check at the
            // last descent was exact; record if better.
            let partial = frame.partial;
            if partial < best_leak {
                best_leak = partial;
                best_choices = current.clone();
            }
            stack.pop();
            if let Some(parent) = stack.last() {
                sta.set_relaxed(visit[parent.depth], true);
            }
            continue;
        }
        let gid = visit[depth];
        let kind = netlist.gate(gid).kind();
        let state = states[gid.index()];
        let Some(&idx) = problem.allowed(kind, state, mode).get(frame.next) else {
            // Exhausted this level; undo and backtrack.
            stack.pop();
            if let Some(parent) = stack.last() {
                sta.set_relaxed(visit[parent.depth], true);
            }
            continue;
        };
        frame.next += 1;
        let opt = problem.option(kind, state, idx);
        let leak = opt.leakage().value();
        let partial = frame.partial + leak;
        if partial + suffix_min[depth + 1] >= best_leak {
            continue; // prune this option (others may still fit)
        }
        sta.set_option(gid, opt.version(), opt.perm());
        sta.set_relaxed(gid, false);
        if sta.max_delay() > budget_eps {
            sta.set_relaxed(gid, true);
            continue;
        }
        current[gid.index()] = idx;
        stack.push(Frame {
            depth: depth + 1,
            next: 0,
            partial,
        });
    }
    // Clear relaxation and restore all-fast.
    for &gid in &visit {
        sta.set_relaxed(gid, false);
        sta.set_fast(gid);
    }

    // Recompute the delay of the winning assignment.
    for (gid, gate) in netlist.gates() {
        let opt = problem.option(gate.kind(), states[gid.index()], best_choices[gid.index()]);
        sta.set_option(gid, opt.version(), opt.perm());
    }
    let delay = sta.max_delay();
    for &gid in &visit {
        sta.set_fast(gid);
    }
    best.choices = best_choices;
    best.leakage = Current::new(best_leak);
    best.delay = delay;
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use svtox_cells::{Library, LibraryOptions};
    use svtox_netlist::generators::{random_dag, RandomDagSpec};
    use svtox_netlist::Netlist;
    use svtox_sta::{GateConfig, TimingConfig};
    use svtox_tech::Technology;

    fn setup(gates: usize) -> (Netlist, Library) {
        let spec = RandomDagSpec::new(format!("ga{gates}"), 8, 4, gates, 6);
        (
            random_dag(&spec).unwrap(),
            Library::new(Technology::predictive_65nm(), LibraryOptions::default()).unwrap(),
        )
    }

    fn assignment_delay(problem: &Problem<'_>, states: &[InputState], choices: &[u8]) -> Time {
        let netlist = problem.netlist();
        let mut sta = Sta::new(netlist, problem.library(), problem.timing()).unwrap();
        for (gid, gate) in netlist.gates() {
            let opt = problem.option(gate.kind(), states[gid.index()], choices[gid.index()]);
            sta.set_gate(gid, GateConfig::from(opt));
        }
        sta.max_delay()
    }

    #[test]
    fn greedy_meets_budget_and_beats_fast() {
        let (n, lib) = setup(60);
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let vector = vec![true; n.num_inputs()];
        let states = gate_states(&problem, &vector);
        let budget = problem.delay_budget(crate::DelayPenalty::new(0.10).unwrap());
        let mut sta = Sta::new(&n, &lib, problem.timing()).unwrap();
        let result = greedy_assign(
            &problem,
            &states,
            Mode::Proposed,
            GateOrder::SavingsDescending,
            budget,
            &mut sta,
        );
        assert!(result.delay <= budget + Time::new(1e-6));
        let fast_leak: Current = n
            .gates()
            .map(|(gid, g)| problem.fast_leak(g.kind(), states[gid.index()]))
            .sum();
        assert!(
            result.leakage.value() < 0.7 * fast_leak.value(),
            "greedy {} vs fast {}",
            result.leakage,
            fast_leak
        );
        // Cross-check the recorded delay against a cold STA.
        let cold = assignment_delay(&problem, &states, &result.choices);
        assert!((cold - result.delay).abs() < 1e-6);
    }

    #[test]
    fn greedy_restores_sta_to_fast() {
        let (n, lib) = setup(40);
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let vector = vec![false; n.num_inputs()];
        let states = gate_states(&problem, &vector);
        let budget = problem.delay_budget(crate::DelayPenalty::new(0.25).unwrap());
        let mut sta = Sta::new(&n, &lib, problem.timing()).unwrap();
        let fresh = sta.net_bits();
        let all_fast: Vec<u8> = n
            .gates()
            .map(|(gid, g)| problem.fast_index(g.kind(), states[gid.index()]))
            .collect();
        for _ in 0..2 {
            let result = greedy_assign(
                &problem,
                &states,
                Mode::Proposed,
                GateOrder::SavingsDescending,
                budget,
                &mut sta,
            );
            assert_ne!(result.choices, all_fast, "the leaf upgraded nothing");
            // Rolled back, not re-propagated: every net's timing and load
            // bits are a fresh analyzer's.
            assert_eq!(sta.net_bits(), fresh);
        }
    }

    #[test]
    fn zero_budget_still_allows_offpath_upgrades() {
        let (n, lib) = setup(60);
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let vector = vec![true; n.num_inputs()];
        let states = gate_states(&problem, &vector);
        let budget = problem.d_fast();
        let mut sta = Sta::new(&n, &lib, problem.timing()).unwrap();
        let result = greedy_assign(
            &problem,
            &states,
            Mode::Proposed,
            GateOrder::SavingsDescending,
            budget,
            &mut sta,
        );
        let fast_leak: Current = n
            .gates()
            .map(|(gid, g)| problem.fast_leak(g.kind(), states[gid.index()]))
            .sum();
        // Off-critical gates have slack even at zero penalty (Figure 5's
        // "gains at even zero delay penalty").
        assert!(result.leakage < fast_leak);
        assert!(result.delay <= budget + Time::new(1e-6));
    }

    #[test]
    fn exact_never_worse_than_greedy() {
        let (n, lib) = setup(14);
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        for bits in [0u32, 0b1010_1010, 0xff] {
            let vector: Vec<bool> = (0..n.num_inputs())
                .map(|i| bits >> (i % 8) & 1 == 1)
                .collect();
            let states = gate_states(&problem, &vector);
            let budget = problem.delay_budget(crate::DelayPenalty::new(0.05).unwrap());
            let mut sta = Sta::new(&n, &lib, problem.timing()).unwrap();
            let greedy = greedy_assign(
                &problem,
                &states,
                Mode::Proposed,
                GateOrder::SavingsDescending,
                budget,
                &mut sta,
            );
            let exact = exact_assign(&problem, &states, Mode::Proposed, budget, &mut sta);
            assert!(
                exact.leakage.value() <= greedy.leakage.value() + 1e-9,
                "exact {} vs greedy {}",
                exact.leakage,
                greedy.leakage
            );
            assert!(exact.delay <= budget + Time::new(1e-6));
            let cold = assignment_delay(&problem, &states, &exact.choices);
            assert!((cold - exact.delay).abs() < 1e-6);
        }
    }

    /// Brute force over every option combination of a tiny circuit: the
    /// exact gate-tree branch and bound must find the true optimum.
    #[test]
    fn exact_matches_brute_force() {
        let spec = RandomDagSpec::new("ga-brute", 4, 2, 7, 3);
        let n = random_dag(&spec).unwrap();
        let lib = Library::new(Technology::predictive_65nm(), LibraryOptions::default()).unwrap();
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        for vec_bits in [0u32, 0b1010, 0b1111] {
            let vector: Vec<bool> = (0..n.num_inputs())
                .map(|i| vec_bits >> i & 1 == 1)
                .collect();
            let states = gate_states(&problem, &vector);
            let budget = problem.delay_budget(crate::DelayPenalty::new(0.10).unwrap());
            // Enumerate the full cross product of allowed options.
            let per_gate: Vec<Vec<u8>> = n
                .gates()
                .map(|(gid, g)| {
                    problem
                        .allowed(g.kind(), states[gid.index()], Mode::Proposed)
                        .to_vec()
                })
                .collect();
            let mut best = f64::INFINITY;
            let mut counters = vec![0usize; per_gate.len()];
            'outer: loop {
                let choices: Vec<u8> = counters
                    .iter()
                    .zip(&per_gate)
                    .map(|(&c, opts)| opts[c])
                    .collect();
                let delay = assignment_delay(&problem, &states, &choices);
                if delay <= budget + Time::new(1e-9) {
                    let leak: f64 = n
                        .gates()
                        .map(|(gid, g)| {
                            problem
                                .option(g.kind(), states[gid.index()], choices[gid.index()])
                                .leakage()
                                .value()
                        })
                        .sum();
                    best = best.min(leak);
                }
                // Odometer increment.
                for d in 0..counters.len() {
                    counters[d] += 1;
                    if counters[d] < per_gate[d].len() {
                        continue 'outer;
                    }
                    counters[d] = 0;
                }
                break;
            }
            let mut sta = Sta::new(&n, &lib, problem.timing()).unwrap();
            let exact = exact_assign(&problem, &states, Mode::Proposed, budget, &mut sta);
            assert!(
                (exact.leakage.value() - best).abs() < 1e-6 * (1.0 + best),
                "vector {vec_bits:b}: exact {} vs brute force {best}",
                exact.leakage
            );
        }
    }

    #[test]
    fn modes_order_leakage() {
        let (n, lib) = setup(80);
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let vector: Vec<bool> = (0..n.num_inputs()).map(|i| i % 2 == 0).collect();
        let states = gate_states(&problem, &vector);
        let budget = problem.delay_budget(crate::DelayPenalty::new(0.10).unwrap());
        let mut sta = Sta::new(&n, &lib, problem.timing()).unwrap();
        let mut results = Vec::new();
        for mode in Mode::ALL {
            results.push(
                greedy_assign(
                    &problem,
                    &states,
                    mode,
                    GateOrder::SavingsDescending,
                    budget,
                    &mut sta,
                )
                .leakage,
            );
        }
        // StateOnly ≥ StateAndVt ≥ Proposed.
        assert!(results[0] >= results[1]);
        assert!(results[1] >= results[2]);
        // And the proposed mode is substantially below Vt-only (the gate
        // leakage it can remove).
        assert!(results[2].value() < 0.8 * results[1].value());
    }

    #[test]
    fn topological_order_also_works() {
        let (n, lib) = setup(60);
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let vector = vec![true; n.num_inputs()];
        let states = gate_states(&problem, &vector);
        let budget = problem.delay_budget(crate::DelayPenalty::new(0.10).unwrap());
        let mut sta = Sta::new(&n, &lib, problem.timing()).unwrap();
        let topo = greedy_assign(
            &problem,
            &states,
            Mode::Proposed,
            GateOrder::Topological,
            budget,
            &mut sta,
        );
        assert!(topo.delay <= budget + Time::new(1e-6));
    }
}
