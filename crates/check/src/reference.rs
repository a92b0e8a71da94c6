//! Slow reference implementations that differential properties compare
//! the optimized paths against. They use only public APIs and favour
//! obviousness over speed; nothing outside the test suites calls them.
//!
//! The serial [`heuristic2`] and [`exact`] state-tree searches are kept
//! here as the ground truth the search engine's plans must reproduce bit
//! for bit at any worker count.

use std::time::{Duration, Instant};

use svtox_core::{
    BoundTracker, BranchOrder, DelayPenalty, LeafKind, Mode, OptError, Problem, Solution,
};
use svtox_netlist::GateId;
use svtox_sim::{Logic, TriSimulator};
use svtox_sta::Sta;
use svtox_tech::Current;

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
