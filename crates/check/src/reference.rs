//! Slow reference implementations that differential properties compare
//! the optimized paths against. They use only public APIs and favour
//! obviousness over speed; nothing outside the test suites calls them.
//!
//! The serial [`heuristic2`] and [`exact`] state-tree searches are kept
//! here as the ground truth the search engine's plans must reproduce bit
//! for bit at any worker count. [`greedy_assign`] and [`exact_assign`] are
//! the gate trees the allocation-free ones in `svtox-core` replaced,
//! [`relaxed_analysis`] is a cold timing analysis that takes relaxed
//! floors over every version × pin with plain table lookups, and
//! [`transitive_fanouts`] is the per-input DFS that `Problem::tfo`'s
//! support-word sweep replaced.

use std::time::{Duration, Instant};

use svtox_cells::{CellData, InputState, Library, LibraryError};
use svtox_core::{
    BoundTracker, BranchOrder, DelayPenalty, GateOrder, LeafKind, Mode, OptError, Problem, Solution,
};
use svtox_netlist::{GateId, Netlist};
use svtox_sim::{Logic, Simulator, TriSimulator};
use svtox_sta::{GateConfig, Sta, TimingConfig};
use svtox_tech::{Capacitance, Current, Time};

/// The static-cone bound tracker `svtox_core::BoundTracker` replaced:
/// deciding an input re-bounds every gate of the input's static
/// transitive fanout ([`Problem::tfo`], ascending gate order), each by
/// folding [`Problem::min_leak`] over the Cartesian expansion of its `X`
/// pins ([`TriSimulator::possible_states`]).
pub struct ReferenceBoundTracker<'p, 'n> {
    problem: &'p Problem<'n>,
    tri: TriSimulator<'n>,
    mode: Mode,
    contribution: Vec<f64>,
    total: f64,
}

impl<'p, 'n> ReferenceBoundTracker<'p, 'n> {
    /// A tracker with every primary input undecided.
    #[must_use]
    pub fn new(problem: &'p Problem<'n>, mode: Mode) -> Self {
        let netlist = problem.netlist();
        let mut tracker = Self {
            problem,
            tri: TriSimulator::new(netlist),
            mode,
            contribution: vec![0.0; netlist.num_gates()],
            total: 0.0,
        };
        for (gid, _) in netlist.gates() {
            let c = tracker.gate_bound(gid);
            tracker.contribution[gid.index()] = c;
            tracker.total += c;
        }
        tracker
    }

    fn gate_bound(&self, gid: GateId) -> f64 {
        let kind = self.problem.netlist().gate(gid).kind();
        self.tri
            .possible_states(gid)
            .into_iter()
            .map(|s| self.problem.min_leak(kind, s, self.mode).value())
            .fold(f64::INFINITY, f64::min)
    }

    /// Sets one input and re-bounds its whole static fanout cone.
    pub fn set_input(&mut self, index: usize, value: Logic) {
        self.tri.set_input(index, value);
        for &gid in self.problem.tfo(index) {
            let c = self.gate_bound(gid);
            self.total += c - self.contribution[gid.index()];
            self.contribution[gid.index()] = c;
        }
    }

    /// The current lower bound.
    #[must_use]
    pub fn bound(&self) -> Current {
        Current::new(self.total)
    }
}

/// The serial **Heuristic 2** the search engine replaced: Heuristic 1 plus
/// a time-budgeted, depth-first, false-first branch and bound over the
/// state tree (default branch order), pruning with `>=` against the
/// incumbent and evaluating every surviving leaf with the greedy gate
/// tree. With a generous `time_budget` it exhausts small trees.
///
/// # Errors
///
/// Returns an error on library lookup failure.
pub fn heuristic2(
    problem: &Problem<'_>,
    penalty: DelayPenalty,
    mode: Mode,
    time_budget: Duration,
) -> Result<Solution, OptError> {
    let opt = problem.optimizer(penalty, mode);
    let start = Instant::now();
    let mut best = opt.heuristic1()?;
    let netlist = problem.netlist();
    let mut sta = Sta::new(netlist, problem.library(), problem.timing())?;
    let mut tracker = BoundTracker::new(problem, mode);
    let order = BranchOrder::default().inputs(problem);
    let mut leaves = best.leaves_explored;

    // Iterative DFS: at each depth, branches still to explore.
    struct Frame {
        depth: usize,
        remaining: Vec<bool>,
    }
    let mut vector = vec![false; netlist.num_inputs()];
    let mut stack = vec![Frame {
        depth: 0,
        remaining: vec![true, false],
    }];
    'dfs: while let Some(frame) = stack.last_mut() {
        if start.elapsed() > time_budget {
            break 'dfs;
        }
        let depth = frame.depth;
        if depth == order.len() {
            leaves += 1;
            let candidate = opt.evaluate_leaf(&vector, LeafKind::Greedy, &mut sta);
            if candidate.leakage < best.leakage {
                best = candidate;
            }
            stack.pop();
            if let Some(parent) = stack.last() {
                tracker.set_input(order[parent.depth], Logic::X);
            }
            continue;
        }
        let Some(value) = frame.remaining.pop() else {
            stack.pop();
            if let Some(parent) = stack.last() {
                tracker.set_input(order[parent.depth], Logic::X);
            }
            continue;
        };
        let input = order[depth];
        tracker.set_input(input, Logic::from(value));
        if tracker.bound() >= best.leakage {
            tracker.set_input(input, Logic::X);
            continue;
        }
        vector[input] = value;
        stack.push(Frame {
            depth: depth + 1,
            remaining: vec![true, false],
        });
    }
    best.runtime = start.elapsed();
    best.leaves_explored = leaves;
    Ok(best)
}

/// The serial **exact** two-tree branch and bound the search engine
/// replaced: an unseeded, exhaustive, depth-first, false-first search of
/// the state tree (default branch order), pruning with `>=` against the
/// incumbent, with the exact gate-tree branch and bound at every
/// surviving leaf.
///
/// # Errors
///
/// Returns [`OptError::TooManyInputs`] beyond `max_inputs` primary
/// inputs, or an error on library lookup failure.
pub fn exact(
    problem: &Problem<'_>,
    penalty: DelayPenalty,
    mode: Mode,
    max_inputs: usize,
) -> Result<Solution, OptError> {
    let netlist = problem.netlist();
    if netlist.num_inputs() > max_inputs {
        return Err(OptError::TooManyInputs {
            inputs: netlist.num_inputs(),
            limit: max_inputs,
        });
    }
    let opt = problem.optimizer(penalty, mode);
    let start = Instant::now();
    let mut sta = Sta::new(netlist, problem.library(), problem.timing())?;
    let mut tracker = BoundTracker::new(problem, mode);
    let order = BranchOrder::default().inputs(problem);
    let mut best: Option<Solution> = None;
    let mut leaves = 0usize;
    let mut vector = vec![false; netlist.num_inputs()];

    struct Frame {
        depth: usize,
        remaining: Vec<bool>,
    }
    let mut stack = vec![Frame {
        depth: 0,
        remaining: vec![true, false],
    }];
    while let Some(frame) = stack.last_mut() {
        let depth = frame.depth;
        if depth == order.len() {
            leaves += 1;
            let candidate = opt.evaluate_leaf(&vector, LeafKind::Exact, &mut sta);
            if best.as_ref().is_none_or(|b| candidate.leakage < b.leakage) {
                best = Some(candidate);
            }
            stack.pop();
            if let Some(parent) = stack.last() {
                tracker.set_input(order[parent.depth], Logic::X);
            }
            continue;
        }
        let Some(value) = frame.remaining.pop() else {
            stack.pop();
            if let Some(parent) = stack.last() {
                tracker.set_input(order[parent.depth], Logic::X);
            }
            continue;
        };
        let input = order[depth];
        tracker.set_input(input, Logic::from(value));
        if let Some(b) = &best {
            if tracker.bound() >= b.leakage {
                tracker.set_input(input, Logic::X);
                continue;
            }
        }
        vector[input] = value;
        stack.push(Frame {
            depth: depth + 1,
            remaining: vec![true, false],
        });
    }
    let mut best = best.expect("at least one leaf is evaluated");
    best.runtime = start.elapsed();
    best.leaves_explored = leaves;
    Ok(best)
}

/// A reference gate-tree result: per-gate option indices, total leakage
/// and the circuit delay the traversal's analyzer reported.
#[derive(Debug, Clone, PartialEq)]
pub struct GateAssignment {
    /// Per-gate option index into `options_for(state)`.
    pub choices: Vec<u8>,
    /// Total leakage.
    pub leakage: Current,
    /// Circuit delay under the assignment.
    pub delay: Time,
}

/// Per-gate input states under a fully decided vector, from the scalar
/// two-valued simulator.
#[must_use]
pub fn gate_states(problem: &Problem<'_>, vector: &[bool]) -> Vec<InputState> {
    let netlist = problem.netlist();
    let mut sim = Simulator::new(netlist);
    sim.set_inputs(vector);
    netlist
        .gates()
        .map(|(gid, _)| sim.gate_state(gid))
        .collect()
}

/// The gate visit order the optimized gate tree replaced: a stable sort
/// whose comparator re-derives both gates' savings.
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
            let saving = |gid: &GateId| -> f64 {
                let kind = netlist.gate(*gid).kind();
                let s = states[gid.index()];
                problem.fast_leak(kind, s).value() - problem.min_leak(kind, s, mode).value()
            };
            gates.sort_by(|a, b| saving(b).partial_cmp(&saving(a)).expect("finite leakages"));
        }
    }
    gates
}

/// The greedy gate tree the optimized one replaced: one traversal taking
/// each gate's lowest-leakage option that keeps [`Sta::max_delay`] within
/// the budget, trying options through cloned [`GateConfig`]s. `sta` must
/// arrive all-fast and is returned to it.
pub fn greedy_assign(
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
    let mut touched: Vec<GateId> = Vec::with_capacity(visit.len());
    for gid in visit {
        let kind = netlist.gate(gid).kind();
        let state = states[gid.index()];
        let fast_idx = problem.fast_index(kind, state);
        let prev = sta.gate_config(gid).clone();
        for &idx in problem.allowed(kind, state, mode) {
            if idx == fast_idx {
                // The fast option is always feasible; keep the default.
                break;
            }
            let opt = problem.option(kind, state, idx);
            sta.set_gate(gid, GateConfig::from(opt));
            if sta.max_delay() <= budget_eps {
                leakage += opt.leakage() - problem.fast_leak(kind, state);
                choices[gid.index()] = idx;
                touched.push(gid);
                break;
            }
            sta.set_gate(gid, prev.clone());
        }
    }
    let delay = sta.max_delay();
    // Restore the analyzer for the next leaf.
    for gid in touched {
        let gate = netlist.gate(gid);
        let cell = problem
            .library()
            .cell(gate.kind())
            .expect("validated kinds");
        sta.set_gate(
            gid,
            GateConfig::identity(cell.fast_version(), gate.kind().arity()),
        );
    }
    GateAssignment {
        choices,
        leakage,
        delay,
    }
}

/// The exact gate-tree branch and bound the optimized one replaced: seeded
/// by [`greedy_assign`], undecided gates relaxed to their timing floor,
/// one option `Vec` per frame. `sta` must arrive all-fast and is restored.
pub fn exact_assign(
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
        /// Options not yet tried at this depth.
        remaining: Vec<u8>,
        /// Leakage accumulated above this depth.
        partial: f64,
    }

    let fast_cfg = |gid: GateId| {
        let gate = netlist.gate(gid);
        let cell = problem.library().cell(gate.kind()).expect("validated");
        GateConfig::identity(cell.fast_version(), gate.kind().arity())
    };

    let mut best_choices = best.choices.clone();
    let mut best_leak = best.leakage.value();
    let mut current: Vec<u8> = netlist
        .gates()
        .map(|(gid, gate)| problem.fast_index(gate.kind(), states[gid.index()]))
        .collect();

    for &gid in &visit {
        sta.set_relaxed(gid, true);
    }

    let mut stack = vec![Frame {
        depth: 0,
        remaining: option_list(problem, netlist, &visit, states, mode, 0),
        partial: 0.0,
    }];
    while let Some(frame) = stack.last_mut() {
        let depth = frame.depth;
        if depth == n {
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
        let Some(idx) = frame.remaining.pop() else {
            stack.pop();
            if let Some(parent) = stack.last() {
                sta.set_relaxed(visit[parent.depth], true);
            }
            continue;
        };
        let opt = problem.option(kind, state, idx);
        let leak = opt.leakage().value();
        let partial = frame.partial + leak;
        if partial + suffix_min[depth + 1] >= best_leak {
            continue;
        }
        sta.set_gate(gid, GateConfig::from(opt));
        sta.set_relaxed(gid, false);
        if sta.max_delay() > budget_eps {
            sta.set_relaxed(gid, true);
            continue;
        }
        current[gid.index()] = idx;
        let next_remaining = if depth + 1 < n {
            option_list(problem, netlist, &visit, states, mode, depth + 1)
        } else {
            Vec::new()
        };
        stack.push(Frame {
            depth: depth + 1,
            remaining: next_remaining,
            partial,
        });
    }
    for &gid in &visit {
        sta.set_relaxed(gid, false);
        sta.set_gate(gid, fast_cfg(gid));
    }

    for (gid, gate) in netlist.gates() {
        let opt = problem.option(gate.kind(), states[gid.index()], best_choices[gid.index()]);
        sta.set_gate(gid, GateConfig::from(opt));
    }
    let delay = sta.max_delay();
    for &gid in &visit {
        sta.set_gate(gid, fast_cfg(gid));
    }
    best.choices = best_choices;
    best.leakage = Current::new(best_leak);
    best.delay = delay;
    best
}

/// The options of the gate at `visit[depth]`, in pop order (worst first).
fn option_list(
    problem: &Problem<'_>,
    netlist: &Netlist,
    visit: &[GateId],
    states: &[InputState],
    mode: Mode,
    depth: usize,
) -> Vec<u8> {
    let gid = visit[depth];
    let kind = netlist.gate(gid).kind();
    let mut v: Vec<u8> = problem.allowed(kind, states[gid.index()], mode).to_vec();
    v.reverse();
    v
}

/// A cold, naive timing analysis with some gates relaxed: every net's
/// worst (rise, fall) arrival, by net index.
///
/// A concrete gate uses its configured arcs; a relaxed gate takes, per
/// logical input, the minimum delay and slew of plain
/// [`svtox_tech::SlewLoadGrid::lookup`]s over **every** version × physical
/// pin of its cell, and presents the smallest pin capacitance of any
/// version × pin to its fanin nets. Loads sum the per-fanout wire cap, the
/// primary-output load and the consumer pin caps in fanout order, the
/// order [`Sta`] uses, so the arrivals agree with [`Sta::recompute`] bit
/// for bit.
///
/// # Errors
///
/// Returns an error if the netlist uses a kind missing from the library.
///
/// # Panics
///
/// Panics if `configs` or `relaxed` is shorter than the gate count.
pub fn relaxed_analysis(
    netlist: &Netlist,
    library: &Library,
    timing: TimingConfig,
    configs: &[GateConfig],
    relaxed: &[bool],
) -> Result<Vec<(Time, Time)>, LibraryError> {
    let cells: Vec<&CellData> = netlist
        .gates()
        .map(|(_, g)| library.cell(g.kind()))
        .collect::<Result<_, _>>()?;
    let loads: Vec<Capacitance> = netlist
        .nets()
        .map(|(nid, net)| {
            let mut load = timing.wire_cap_per_fanout * net.fanouts().len() as f64;
            if netlist.is_primary_output(nid) {
                load += timing.primary_output_load;
            }
            for &(g, pin) in net.fanouts() {
                let cell = cells[g.index()];
                if relaxed[g.index()] {
                    let mut min_cap = Capacitance::new(f64::INFINITY);
                    for version in cell.version_ids() {
                        for p in 0..cell.arity() {
                            min_cap = min_cap.min(cell.input_cap_physical(version, p));
                        }
                    }
                    load += min_cap;
                } else {
                    let cfg = &configs[g.index()];
                    load += cell.input_cap_physical(cfg.version, cfg.physical_pin(pin as usize));
                }
            }
            load
        })
        .collect();

    // (arrival rise, arrival fall, slew rise, slew fall) per net.
    let mut nets = vec![(Time::ZERO, Time::ZERO, Time::ZERO, Time::ZERO); netlist.num_nets()];
    for &pi in netlist.inputs() {
        let slew = timing.primary_input_slew;
        nets[pi.index()] = (Time::ZERO, Time::ZERO, slew, slew);
    }
    let inf = Time::new(f64::INFINITY);
    for &gid in netlist.topo_order() {
        let gate = netlist.gate(gid);
        let cell = cells[gid.index()];
        let load = loads[gate.output().index()];
        let mut out = if relaxed[gid.index()] {
            (-inf, -inf, inf, inf)
        } else {
            (-inf, -inf, Time::ZERO, Time::ZERO)
        };
        for (logical, &inp) in gate.inputs().iter().enumerate() {
            let (arr_rise, arr_fall, slew_rise, slew_fall) = nets[inp.index()];
            if relaxed[gid.index()] {
                let (mut d_rise, mut d_fall) = (inf, inf);
                for version in cell.version_ids() {
                    for pin in 0..cell.arity() {
                        let arc = cell.arc_physical(version, pin);
                        let (dr, sr) = arc.rise.lookup(slew_fall, load);
                        d_rise = d_rise.min(dr);
                        out.2 = out.2.min(sr);
                        let (df, sf) = arc.fall.lookup(slew_rise, load);
                        d_fall = d_fall.min(df);
                        out.3 = out.3.min(sf);
                    }
                }
                out.0 = out.0.max(arr_fall + d_rise);
                out.1 = out.1.max(arr_rise + d_fall);
            } else {
                let cfg = &configs[gid.index()];
                let arc = cell.arc_physical(cfg.version, cfg.physical_pin(logical));
                // Inverting cells: output rise launched by input fall.
                let (d_rise, s_rise) = arc.rise.lookup(slew_fall, load);
                if arr_fall + d_rise > out.0 {
                    out.0 = arr_fall + d_rise;
                    out.2 = s_rise;
                }
                let (d_fall, s_fall) = arc.fall.lookup(slew_rise, load);
                if arr_rise + d_fall > out.1 {
                    out.1 = arr_rise + d_fall;
                    out.3 = s_fall;
                }
            }
        }
        nets[gate.output().index()] = out;
    }
    Ok(nets
        .into_iter()
        .map(|(rise, fall, _, _)| (rise, fall))
        .collect())
}

/// Every primary input's transitive-fanout gates, by input position, in
/// ascending gate id: one DFS, one sort and one `Vec` per input.
#[must_use]
pub fn transitive_fanouts(netlist: &Netlist) -> Vec<Vec<GateId>> {
    let mut seen = vec![usize::MAX; netlist.num_gates()];
    netlist
        .inputs()
        .iter()
        .enumerate()
        .map(|(ii, &pi)| {
            let mut cone = Vec::new();
            let mut stack: Vec<GateId> =
                netlist.net(pi).fanouts().iter().map(|&(g, _)| g).collect();
            while let Some(g) = stack.pop() {
                if seen[g.index()] == ii {
                    continue;
                }
                seen[g.index()] = ii;
                cone.push(g);
                let out = netlist.gate(g).output();
                stack.extend(netlist.net(out).fanouts().iter().map(|&(g2, _)| g2));
            }
            cone.sort_unstable();
            cone
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::{inverter_array, test_library};
    use svtox_netlist::generators::{benchmark, benchmark_names};

    #[test]
    fn tfo_cones_are_complete() {
        let lib = test_library();
        let mut netlists: Vec<Netlist> = benchmark_names()
            .into_iter()
            .map(|name| benchmark(name).unwrap())
            .collect();
        assert_eq!(netlists.len(), 11);
        netlists.push(inverter_array(32_768));
        for n in &netlists {
            let p = Problem::new(n, &lib, TimingConfig::default()).unwrap();
            let want = transitive_fanouts(n);
            for (i, cone) in want.iter().enumerate() {
                assert_eq!(p.tfo(i), &cone[..], "{} input {i}", n.name());
            }
        }
    }
}
