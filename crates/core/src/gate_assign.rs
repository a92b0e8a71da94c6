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
//!
//! Both trees run under a [`Cutoff`]: the state tree's incumbents, so a
//! leaf stops as soon as it provably cannot be recorded (DESIGN.md §5).

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

/// The bar a leaf must clear to be recorded: the two values the state
/// tree prunes its nodes with.
///
/// A leaf whose full result has leakage `v` clears it exactly when
/// `v < below && v <= at_most`. `below` is the unit-local incumbent
/// (pruned with `>=`); `at_most` is the shared incumbent (pruned with
/// strict `>`, so an equal value found elsewhere never cuts the serial
/// witness).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cutoff {
    /// Exclusive bar, in nA.
    pub below: f64,
    /// Inclusive bar, in nA.
    pub at_most: f64,
}

impl Cutoff {
    /// No bar: every leaf runs to its full result.
    pub const NONE: Self = Self {
        below: f64::INFINITY,
        at_most: f64::INFINITY,
    };

    /// Whether a leaf of full leakage `v` clears the bar.
    #[must_use]
    pub fn admits(self, v: f64) -> bool {
        v < self.below && v <= self.at_most
    }

    /// Whether no leakage at or above `floor` clears the bar.
    fn refuses_from(self, floor: f64) -> bool {
        floor >= self.below || floor > self.at_most
    }
}

/// Relative rounding slack of a gate tree's lower bound over `gates`
/// gates: `4 (gates + 1) ε`.
///
/// Both a leaf's value and its running lower bound are float sums over at
/// most `2 · gates` operands whose magnitudes add up to a scale `S` (the
/// all-fast leakage for the greedy tree, the bound itself for the exact
/// tree, whose terms are all positive). Summation error is at most
/// `k · u · S` for `k` additions (`u = ε / 2`), so the two differ from
/// their exact values, which are ordered, by at most `(6 · gates + 3) u S`
/// together. This factor is `(8 · gates + 8) u`: a bound pruned only when
/// `bound − slack · S` refuses can never drop a leaf whose value ties the
/// bar. On c7552 (3.5k gates) it is ~3e-12 of `S`.
fn rounding_slack(gates: usize) -> f64 {
    4.0 * (gates as f64 + 1.0) * f64::EPSILON
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

/// Visits gates in the configured order, with each gate's saving
/// (`fast_leak − min_leak`, by gate index).
fn gate_visit_order(
    problem: &Problem<'_>,
    states: &[InputState],
    mode: Mode,
    order: GateOrder,
) -> (Vec<GateId>, Vec<f64>) {
    let netlist = problem.netlist();
    // Each saving once, by gate index.
    let saving: Vec<f64> = netlist
        .gates()
        .map(|(gid, gate)| {
            let s = states[gid.index()];
            problem.fast_leak(gate.kind(), s).value()
                - problem.min_leak(gate.kind(), s, mode).value()
        })
        .collect();
    let gates = match order {
        GateOrder::Topological => netlist.topo_order().to_vec(),
        GateOrder::SavingsDescending => {
            let mut gates: Vec<GateId> = netlist.gates().map(|(gid, _)| gid).collect();
            // The stable sort keeps ties in gate order.
            gates.sort_by(|a, b| {
                saving[b.index()]
                    .partial_cmp(&saving[a.index()])
                    .expect("finite leakages")
            });
            gates
        }
    };
    (gates, saving)
}

/// Greedy single traversal of the gate tree (the heuristics' leaf
/// evaluation). Every option is a [`svtox_sta::Leaf::try_option`] trial: a
/// rejected one stops at the first output past the budget and rolls back
/// exactly, and the leaf scope returns `sta` to its entry state bit for
/// bit when the traversal ends. `sta` must arrive all-fast.
///
/// Returns `None`, possibly before the last gate, exactly when the full
/// result does not clear `cutoff`; otherwise the full result. Before each
/// gate the leakage so far minus the savings still open along the visit
/// order bounds the result from below, and the leaf is abandoned once
/// that bound, less its rounding slack, is refused.
pub(crate) fn greedy_assign(
    problem: &Problem<'_>,
    states: &[InputState],
    mode: Mode,
    order: GateOrder,
    budget: Time,
    cutoff: Cutoff,
    sta: &mut Sta<'_>,
) -> Option<GateAssignment> {
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
    let (visit, saving) = gate_visit_order(problem, states, mode, order);
    let slack = rounding_slack(visit.len()) * leakage.value();
    let mut open: f64 = saving.iter().sum();
    let mut leaf = sta.leaf();
    for gid in visit {
        if cutoff.refuses_from(leakage.value() - open - slack) {
            return None;
        }
        open -= saving[gid.index()];
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
    if !cutoff.admits(leakage.value()) {
        return None;
    }
    let delay = leaf.max_delay();
    Some(GateAssignment {
        choices,
        leakage,
        delay,
    })
}

/// Exact branch and bound over the gate tree for a fixed vector: finds the
/// minimum-leakage feasible assignment. Exponential in principle; pruning by
/// `partial + suffix-min ≥ incumbent` keeps small circuits tractable.
///
/// Returns `None` exactly when the full result does not clear `cutoff`;
/// otherwise the full result, bit for bit. The greedy seed runs under the
/// same cutoff. A seed that clears it bounds every later leaf, so the
/// search from it is the full one. A refused seed leaves only a *probe*:
/// a descent that prunes every prefix whose bound, less its rounding
/// slack, is refused and stops at the first leaf that clears the bar. If
/// there is none, the full result cannot clear it either; if there is,
/// the full search decides, since its float-rounded incumbent prunes
/// need not reach that leaf (DESIGN.md §5).
///
/// `sta` must arrive all-fast and is restored before returning.
pub(crate) fn exact_assign(
    problem: &Problem<'_>,
    states: &[InputState],
    mode: Mode,
    budget: Time,
    cutoff: Cutoff,
    sta: &mut Sta<'_>,
) -> Option<GateAssignment> {
    let order = GateOrder::SavingsDescending;
    let goal = match greedy_assign(problem, states, mode, order, budget, cutoff, sta) {
        Some(seed) => Goal::Minimize(seed),
        None => Goal::Probe(cutoff),
    };
    match descend(problem, states, mode, budget, goal, sta) {
        Goal::Minimize(best) => Some(best),
        Goal::Probe(_) => None,
        Goal::Found => {
            let full = exact_assign(problem, states, mode, budget, Cutoff::NONE, sta)?;
            cutoff.admits(full.leakage.value()).then_some(full)
        }
    }
}

/// What one descent of the exact gate tree looks for.
enum Goal {
    /// The minimum below an incumbent (its `delay` is recomputed).
    Minimize(GateAssignment),
    /// Any feasible leaf that clears the cutoff.
    Probe(Cutoff),
    /// A probe that met such a leaf.
    Found,
}

/// One depth-first descent of the exact gate tree in savings order,
/// undecided gates relaxed to their timing floor. `sta` must arrive
/// all-fast and is restored before returning.
fn descend(
    problem: &Problem<'_>,
    states: &[InputState],
    mode: Mode,
    budget: Time,
    mut goal: Goal,
    sta: &mut Sta<'_>,
) -> Goal {
    let netlist = problem.netlist();
    let (visit, _) = gate_visit_order(problem, states, mode, GateOrder::SavingsDescending);
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
    // Every term is positive, so the slack is relative to the bound.
    let keep = 1.0 - rounding_slack(n);

    struct Frame {
        depth: usize,
        /// Position in `allowed(..)` of the next option to try at this
        /// depth (ascending leakage, so the best is tried first).
        next: usize,
        /// Leakage accumulated above this depth.
        partial: f64,
    }

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
            // last descent was exact.
            let partial = frame.partial;
            match &mut goal {
                Goal::Minimize(best) if partial < best.leakage.value() => {
                    best.leakage = Current::new(partial);
                    best.choices.clone_from(&current);
                }
                Goal::Probe(cutoff) if cutoff.admits(partial) => {
                    goal = Goal::Found;
                    break;
                }
                _ => {}
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
        let bound = partial + suffix_min[depth + 1];
        let pruned = match &goal {
            Goal::Minimize(best) => bound >= best.leakage.value(),
            Goal::Probe(cutoff) => cutoff.refuses_from(bound * keep),
            Goal::Found => unreachable!("a probe stops at its first find"),
        };
        if pruned {
            continue; // prune this option (others may still fit)
        }
        sta.decide(gid, opt.version(), opt.perm());
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

    if let Goal::Minimize(best) = &mut goal {
        // Recompute the delay of the winning assignment.
        for (gid, gate) in netlist.gates() {
            let opt = problem.option(gate.kind(), states[gid.index()], best.choices[gid.index()]);
            sta.set_option(gid, opt.version(), opt.perm());
        }
        best.delay = sta.max_delay();
        for &gid in &visit {
            sta.set_fast(gid);
        }
    }
    goal
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
            Cutoff::NONE,
            &mut sta,
        )
        .unwrap();
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
                Cutoff::NONE,
                &mut sta,
            )
            .unwrap();
            assert_ne!(result.choices, all_fast, "the leaf upgraded nothing");
            // Rolled back, not re-propagated: every net's timing and load
            // bits are a fresh analyzer's.
            assert_eq!(sta.net_bits(), fresh);
        }
    }

    /// A bar equal to the leaf's value is a tie: `at_most` admits it,
    /// `below` refuses it, and one ulp either way flips the verdict. Every
    /// verdict leaves the analyzer at a fresh one's bits.
    #[test]
    fn a_cutoff_admits_the_tie_and_refuses_one_ulp_past_it() {
        let (n, lib) = setup(14);
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let vector: Vec<bool> = (0..n.num_inputs()).map(|i| i % 3 == 0).collect();
        let states = gate_states(&problem, &vector);
        let budget = problem.delay_budget(crate::DelayPenalty::new(0.05).unwrap());
        let mut sta = Sta::new(&n, &lib, problem.timing()).unwrap();
        let fresh = sta.net_bits();
        let leaf = |exact: bool, cutoff: Cutoff, sta: &mut Sta<'_>| {
            if exact {
                exact_assign(&problem, &states, Mode::Proposed, budget, cutoff, sta)
            } else {
                let order = GateOrder::SavingsDescending;
                greedy_assign(
                    &problem,
                    &states,
                    Mode::Proposed,
                    order,
                    budget,
                    cutoff,
                    sta,
                )
            }
        };
        for exact in [false, true] {
            let full = leaf(exact, Cutoff::NONE, &mut sta).unwrap();
            let v = full.leakage.value();
            let inf = f64::INFINITY;
            for (below, at_most, admitted) in [
                (inf, v, true),
                (inf, v.next_down(), false),
                (v, inf, false),
                (v.next_up(), v, true),
                (0.99 * v, inf, false),
                (inf, 1.01 * v, true),
            ] {
                let got = leaf(exact, Cutoff { below, at_most }, &mut sta);
                assert_eq!(got.is_some(), admitted, "exact={exact} {below} {at_most}");
                if let Some(got) = got {
                    assert_eq!(got, full, "exact={exact}");
                }
                if !exact {
                    assert_eq!(sta.net_bits(), fresh, "greedy leaf left state behind");
                }
            }
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
            Cutoff::NONE,
            &mut sta,
        )
        .unwrap();
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
                Cutoff::NONE,
                &mut sta,
            )
            .unwrap();
            let exact = exact_assign(
                &problem,
                &states,
                Mode::Proposed,
                budget,
                Cutoff::NONE,
                &mut sta,
            )
            .unwrap();
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
            let exact = exact_assign(
                &problem,
                &states,
                Mode::Proposed,
                budget,
                Cutoff::NONE,
                &mut sta,
            )
            .unwrap();
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
                    Cutoff::NONE,
                    &mut sta,
                )
                .unwrap()
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
            Cutoff::NONE,
            &mut sta,
        )
        .unwrap();
        assert!(topo.delay <= budget + Time::new(1e-6));
    }
}
