//! The state tree: searching for the standby input vector.
//!
//! The search maintains a three-valued simulation of the partially-decided
//! vector. For every gate, the states it can still assume give a leakage
//! lower bound (minimum allowed option over possible states); the sum over
//! gates bounds any completion of the partial vector, which both orders the
//! descent (Heuristic 1 takes the branch with the smaller bound) and prunes
//! the branch and bound (Heuristic 2 / exact).

use std::time::{Duration, Instant};

use svtox_exec::{Budget, ExecConfig};
use svtox_fault::Fault;
use svtox_netlist::GateId;
use svtox_obs::Obs;
use svtox_sim::{Logic, TriSimulator};
use svtox_sta::Sta;
use svtox_tech::{Current, Time};

pub mod eco;
mod engine;
pub mod portfolio;
mod resilient;

pub use eco::WarmStats;

use crate::error::OptError;
use crate::gate_assign::{exact_assign, gate_states, greedy_assign, Cutoff};
use crate::problem::{DelayPenalty, GateOrder, Mode, Problem};
use crate::solution::Solution;
use engine::Run;
use portfolio::{BranchOrder, Plan, Strategy};

/// Incremental leakage lower bound over a partially-decided input vector.
///
/// A gate contributes the minimum leakage over the input states its
/// three-valued pin levels still allow: one lookup in the problem's
/// per-(kind, mode) tri-level table. Deciding an input re-bounds only the
/// gates fed by a net the three-valued simulation actually changed, in
/// ascending gate order, which keeps the running total bit-identical to
/// re-bounding the input's whole static fanout cone (DESIGN.md §5).
pub struct BoundTracker<'p, 'n> {
    tri: TriSimulator<'n>,
    /// Every tri-level bound table of the problem.
    tables: &'p [f64],
    /// Per-gate offset of its (kind, mode) table in `tables`.
    offsets: Vec<usize>,
    /// Per-gate lower-bound contribution (nA).
    contribution: Vec<f64>,
    /// Sum of contributions.
    total: f64,
    /// Scratch: gates to re-bound, and their de-duplication marks.
    dirty: Vec<GateId>,
    marked: Vec<bool>,
    /// Gates re-bounded so far (`core.bound.rebounds`).
    rebounds: u64,
}

impl<'p, 'n> BoundTracker<'p, 'n> {
    /// A tracker with every primary input undecided.
    #[must_use]
    pub fn new(problem: &'p Problem<'n>, mode: Mode) -> Self {
        let netlist = problem.netlist();
        let mut tracker = Self {
            tri: TriSimulator::new(netlist),
            tables: problem.bound_tables(),
            offsets: netlist
                .gates()
                .map(|(_, g)| problem.bound_table(g.kind(), mode))
                .collect(),
            contribution: vec![0.0; netlist.num_gates()],
            total: 0.0,
            dirty: Vec::new(),
            marked: vec![false; netlist.num_gates()],
            rebounds: 0,
        };
        for (gid, _) in netlist.gates() {
            let c = tracker.gate_bound(gid);
            tracker.contribution[gid.index()] = c;
            tracker.total += c;
        }
        tracker
    }

    /// Lower bound on this gate's leakage over its reachable states.
    fn gate_bound(&self, gid: GateId) -> f64 {
        let code = self
            .tri
            .netlist()
            .gate(gid)
            .inputs()
            .iter()
            .rev()
            .fold(0, |code, &net| {
                let trit = match self.tri.value(net) {
                    Logic::Zero => 0,
                    Logic::One => 1,
                    Logic::X => 2,
                };
                code * 3 + trit
            });
        self.tables[self.offsets[gid.index()] + code]
    }

    /// Sets one input (by position) and updates the bound. Only gates
    /// reading a net whose value changed are re-bounded.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set_input(&mut self, index: usize, value: Logic) {
        self.tri.set_input(index, value);
        let netlist = self.tri.netlist();
        for &net in self.tri.changed_nets() {
            for &(g, _pin) in netlist.net(net).fanouts() {
                if !self.marked[g.index()] {
                    self.marked[g.index()] = true;
                    self.dirty.push(g);
                }
            }
        }
        self.dirty.sort_unstable();
        for &gid in &self.dirty {
            self.marked[gid.index()] = false;
            let c = self.gate_bound(gid);
            self.total += c - self.contribution[gid.index()];
            self.contribution[gid.index()] = c;
        }
        self.rebounds += self.dirty.len() as u64;
        self.dirty.clear();
    }

    /// The current lower bound for any completion of the partial vector.
    #[must_use]
    pub fn bound(&self) -> Current {
        Current::new(self.total)
    }

    /// Gates re-bounded since construction.
    pub(crate) fn rebounds(&self) -> u64 {
        self.rebounds
    }
}

/// How a fully decided state-tree leaf is evaluated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeafKind {
    /// The greedy gate tree (Heuristics 1/2).
    Greedy,
    /// The exact gate-tree branch and bound.
    Exact,
}

/// Publishes the work an analyzer did since its construction (its
/// construction full-analysis included).
pub(crate) fn flush_sta(obs: &Obs, sta: &Sta<'_>) {
    if !obs.is_enabled() {
        return;
    }
    let now = sta.counters();
    obs.add("sta.full_analyzes", now.full_analyzes);
    obs.add("sta.flushes", now.flushes);
    obs.add("sta.gates_reevaluated", now.gates_reevaluated);
    obs.raise_to("sta.max_dirty", now.max_dirty);
}

/// The simultaneous state/`Vt`/`Tox` optimizer.
///
/// Created via [`Problem::optimizer`]. See the crate-level example.
#[derive(Debug, Clone, Copy)]
pub struct Optimizer<'a> {
    problem: &'a Problem<'a>,
    penalty: DelayPenalty,
    mode: Mode,
    gate_order: GateOrder,
    input_order: BranchOrder,
    obs: &'a Obs,
    fault: &'a Fault,
}

impl<'a> Optimizer<'a> {
    pub(crate) fn new(problem: &'a Problem<'a>, penalty: DelayPenalty, mode: Mode) -> Self {
        Self {
            problem,
            penalty,
            mode,
            gate_order: GateOrder::default(),
            input_order: BranchOrder::default(),
            obs: Obs::disabled_ref(),
            fault: Fault::disabled_ref(),
        }
    }

    /// Overrides the gate visiting order (ablation knob).
    #[must_use]
    pub fn with_gate_order(mut self, order: GateOrder) -> Self {
        self.gate_order = order;
        self
    }

    /// Overrides the input branching order of Heuristic 1 and of the
    /// one-member searches (ablation knob).
    #[must_use]
    pub fn with_input_order(mut self, order: BranchOrder) -> Self {
        self.input_order = order;
        self
    }

    /// Attaches an observability handle: every search phase then records
    /// spans (`core.heuristic1`, `core.exact`, …) and counters
    /// (`core.search.nodes`, `core.search.prunes_local`, `sta.flushes`,
    /// …). The default is the disabled handle, which costs one branch per
    /// phase boundary — hot loops accumulate plain integers either way and
    /// publish deltas only when a phase ends.
    #[must_use]
    pub fn with_obs(mut self, obs: &'a Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Attaches a fault-injection handle (chaos testing). The search
    /// loop consults it after every leaf evaluation
    /// (`core.leaf` site: a fire cancels the run's budget — a
    /// deterministic mid-search kill), and [`Optimizer::run`] threads it
    /// through the execution engine's dispatch/pop/clock sites. The
    /// default is the disabled handle: one branch per leaf.
    #[must_use]
    pub fn with_fault(mut self, fault: &'a Fault) -> Self {
        self.fault = fault;
        self
    }

    /// The delay budget this optimizer works against.
    #[must_use]
    pub fn budget(&self) -> Time {
        self.problem.delay_budget(self.penalty)
    }

    /// **Heuristic 1**: a single bound-ordered descent of the state tree,
    /// followed by a single greedy traversal of the gate tree.
    ///
    /// # Errors
    ///
    /// Returns an error on library lookup failure.
    pub fn heuristic1(&self) -> Result<Solution, OptError> {
        let _span = self.obs.span("core.heuristic1");
        let start = Instant::now();
        let mut tracker = BoundTracker::new(self.problem, self.mode);
        let order = self.input_order.inputs(self.problem);
        let netlist = self.problem.netlist();
        let mut vector = vec![false; netlist.num_inputs()];
        for &i in &order {
            // Probe both branches; keep the one with the smaller bound.
            tracker.set_input(i, Logic::Zero);
            let b0 = tracker.bound();
            tracker.set_input(i, Logic::One);
            let b1 = tracker.bound();
            if b0 < b1 {
                tracker.set_input(i, Logic::Zero);
                vector[i] = false;
            } else {
                vector[i] = true;
            }
        }
        let mut sta = Sta::new(netlist, self.problem.library(), self.problem.timing())?;
        let mut solution = self.evaluate_leaf(&vector, LeafKind::Greedy, &mut sta);
        solution.runtime = start.elapsed();
        solution.leaves_explored = 1;
        self.obs.add("core.h1.decisions", order.len() as u64);
        self.obs.add("core.h1.leaves", 1);
        self.obs.add("core.bound.rebounds", tracker.rebounds());
        flush_sta(self.obs, &sta);
        Ok(solution)
    }

    /// **Local refinement**: starting from a solution, repeatedly flips
    /// single standby-vector bits, keeping any flip that lowers leakage
    /// (re-running the greedy gate tree for each trial), until a full pass
    /// makes no progress or `max_passes` is exhausted.
    ///
    /// This is a natural extension beyond the paper's heuristics: Heuristic
    /// 2 explores the state tree in its fixed branch order, while
    /// first-improvement hill climbing escapes the descent order entirely.
    /// It never returns a worse solution than its input.
    ///
    /// # Errors
    ///
    /// Returns an error on library lookup failure.
    pub fn refine(&self, start: Solution, max_passes: usize) -> Result<Solution, OptError> {
        let _span = self.obs.span("core.refine");
        let begin = Instant::now();
        let netlist = self.problem.netlist();
        let mut sta = Sta::new(netlist, self.problem.library(), self.problem.timing())?;
        let mut best = start;
        let mut leaves = best.leaves_explored;
        let base_leaves = leaves;
        let mut incumbents = 0u64;
        let started_runtime = best.runtime;
        for _pass in 0..max_passes {
            let mut improved = false;
            for i in 0..netlist.num_inputs() {
                let mut vector = best.vector.clone();
                vector[i] = !vector[i];
                leaves += 1;
                let cutoff = Cutoff {
                    below: best.leakage.value(),
                    at_most: f64::INFINITY,
                };
                if let Some(candidate) =
                    self.evaluate_leaf_under(&vector, LeafKind::Greedy, cutoff, &mut sta)
                {
                    best = candidate;
                    improved = true;
                    incumbents += 1;
                }
            }
            if !improved {
                break;
            }
        }
        best.runtime = started_runtime + begin.elapsed();
        best.leaves_explored = leaves;
        self.obs
            .add("core.refine.trials", (leaves - base_leaves) as u64);
        self.obs.add("core.refine.improvements", incumbents);
        flush_sta(self.obs, &sta);
        Ok(best)
    }

    /// The **exact** two-tree branch and bound: exhaustive, pruned search of
    /// the state tree with an exact gate-tree branch and bound at every
    /// surviving leaf — a one-member exact plan on one worker, unseeded
    /// (a Heuristic 1 seed could change which of two equal-cost witnesses
    /// it returns), with fault injection off: a truncated "exact" answer
    /// would be indistinguishable from a wrong one.
    ///
    /// # Errors
    ///
    /// Returns [`OptError::TooManyInputs`] if the circuit has more than
    /// `max_inputs` primary inputs — the state space is `2^n` and this
    /// method is intended for the small circuits the paper's exact method
    /// handles.
    pub fn exact(&self, max_inputs: usize) -> Result<Solution, OptError> {
        let inputs = self.problem.netlist().num_inputs();
        if inputs > max_inputs {
            return Err(OptError::TooManyInputs {
                inputs,
                limit: max_inputs,
            });
        }
        let _span = self.obs.span("core.exact");
        let exact = Self {
            fault: Fault::disabled_ref(),
            ..*self
        };
        let plan = Plan::single(Strategy::Exact(self.input_order));
        let (outcome, _) =
            exact.search(&ExecConfig::serial(), &Budget::unlimited(), &Run::new(plan))?;
        Ok(outcome.best)
    }

    /// Evaluates one fully decided input vector with the gate tree of
    /// `leaf`, under this optimizer's delay budget. `sta` must arrive in
    /// the all-fast configuration and is returned to it. The solution's
    /// `runtime` and `leaves_explored` are left zero.
    pub fn evaluate_leaf(&self, vector: &[bool], leaf: LeafKind, sta: &mut Sta<'_>) -> Solution {
        self.evaluate_leaf_under(vector, leaf, Cutoff::NONE, sta)
            .expect("no leaf is refused without a cutoff")
    }

    /// [`Optimizer::evaluate_leaf`] under a [`Cutoff`]: `Some` exactly
    /// when the full leaf's leakage `v` has `v < cutoff.below && v <=
    /// cutoff.at_most`, and then bit-identical to it. A leaf that
    /// provably cannot clear the bar stops early. `sta` is returned to
    /// the all-fast configuration either way.
    pub fn evaluate_leaf_under(
        &self,
        vector: &[bool],
        leaf: LeafKind,
        cutoff: Cutoff,
        sta: &mut Sta<'_>,
    ) -> Option<Solution> {
        let states = gate_states(self.problem, vector);
        let (problem, mode, budget) = (self.problem, self.mode, self.budget());
        let assignment = match leaf {
            LeafKind::Greedy => {
                greedy_assign(problem, &states, mode, self.gate_order, budget, cutoff, sta)
            }
            LeafKind::Exact => exact_assign(problem, &states, mode, budget, cutoff, sta),
        }?;
        Some(Solution {
            vector: vector.to_vec(),
            choices: assignment.choices,
            leakage: assignment.leakage,
            delay: assignment.delay,
            runtime: Duration::ZERO,
            leaves_explored: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svtox_cells::{Library, LibraryOptions};
    use svtox_netlist::generators::{random_dag, RandomDagSpec};
    use svtox_netlist::Netlist;
    use svtox_sim::random_average_leakage;
    use svtox_sta::TimingConfig;
    use svtox_tech::Technology;

    fn small() -> (Netlist, Library) {
        let spec = RandomDagSpec::new("ss-small", 8, 4, 40, 6);
        (
            random_dag(&spec).unwrap(),
            Library::new(Technology::predictive_65nm(), LibraryOptions::default()).unwrap(),
        )
    }

    #[test]
    fn heuristic1_produces_verified_solution() {
        let (n, lib) = small();
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
        let sol = opt.heuristic1().unwrap();
        sol.verify(&problem).unwrap();
        assert!(sol.delay <= opt.budget() + Time::new(1e-6));
        assert_eq!(sol.vector.len(), n.num_inputs());
        assert_eq!(sol.choices.len(), n.num_gates());
    }

    #[test]
    fn heuristic2_never_worse_than_heuristic1() {
        let (n, lib) = small();
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
        let h1 = opt.heuristic1().unwrap();
        let exec = ExecConfig::serial().with_time_budget(Duration::from_millis(2000));
        let h2 = opt.run(&exec, None).best().unwrap().clone();
        assert!(h2.leakage.value() <= h1.leakage.value() + 1e-9);
        h2.verify(&problem).unwrap();
        assert!(h2.leaves_explored >= h1.leaves_explored);
    }

    #[test]
    fn exact_is_the_floor() {
        let spec = RandomDagSpec::new("ss-tiny", 6, 3, 18, 4);
        let n = random_dag(&spec).unwrap();
        let lib = Library::new(Technology::predictive_65nm(), LibraryOptions::default()).unwrap();
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let opt = problem.optimizer(DelayPenalty::new(0.10).unwrap(), Mode::Proposed);
        let exact = opt.exact(10).unwrap();
        let h1 = opt.heuristic1().unwrap();
        let exec = ExecConfig::serial().with_time_budget(Duration::from_secs(5));
        let h2 = opt.run(&exec, None).best().unwrap().clone();
        assert!(exact.leakage.value() <= h1.leakage.value() + 1e-9);
        assert!(exact.leakage.value() <= h2.leakage.value() + 1e-9);
        exact.verify(&problem).unwrap();
        // H2 exhausted the tiny tree, so its leakage should match the exact
        // state search with greedy gate assignment — within a whisker of
        // the full exact answer.
        assert!(h2.leakage.value() <= exact.leakage.value() * 1.25);
    }

    /// Brute force over every input vector (with exact gate assignment per
    /// vector): the two-tree exact search must find the global optimum.
    #[test]
    fn exact_matches_vector_brute_force() {
        let spec = RandomDagSpec::new("ss-brute", 4, 2, 10, 3);
        let n = random_dag(&spec).unwrap();
        let lib = Library::new(Technology::predictive_65nm(), LibraryOptions::default()).unwrap();
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let penalty = DelayPenalty::new(0.10).unwrap();
        let opt = problem.optimizer(penalty, Mode::Proposed);
        let exact = opt.exact(6).unwrap();
        let budget = problem.delay_budget(penalty);
        let mut sta = Sta::new(&n, &lib, problem.timing()).unwrap();
        let mut best = f64::INFINITY;
        for bits in 0..(1u32 << n.num_inputs()) {
            let vector: Vec<bool> = (0..n.num_inputs()).map(|i| bits >> i & 1 == 1).collect();
            let states = crate::gate_assign::gate_states(&problem, &vector);
            let a = crate::gate_assign::exact_assign(
                &problem,
                &states,
                Mode::Proposed,
                budget,
                Cutoff::NONE,
                &mut sta,
            )
            .unwrap();
            best = best.min(a.leakage.value());
        }
        assert!(
            (exact.leakage.value() - best).abs() < 1e-6 * (1.0 + best),
            "exact {} vs brute force {best}",
            exact.leakage
        );
    }

    #[test]
    fn exact_rejects_wide_circuits() {
        let (n, lib) = small();
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
        assert!(matches!(
            opt.exact(4),
            Err(OptError::TooManyInputs {
                inputs: 8,
                limit: 4
            })
        ));
    }

    #[test]
    fn modes_are_ordered_end_to_end() {
        let (n, lib) = small();
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let penalty = DelayPenalty::five_percent();
        let state_only = problem
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
        assert!(vt.leakage.value() <= state_only.leakage.value() + 1e-9);
        assert!(proposed.leakage.value() <= vt.leakage.value() + 1e-9);
        // The proposed method's advantage over Vt-only comes from removing
        // gate leakage — expect a solid margin.
        assert!(
            proposed.leakage.value() < 0.75 * vt.leakage.value(),
            "proposed {} vs vt {}",
            proposed.leakage,
            vt.leakage
        );
    }

    #[test]
    fn reduction_factors_in_paper_regime() {
        let (n, lib) = small();
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let avg = random_average_leakage(&n, &lib, 2000, 9).unwrap().total;
        let sol = problem
            .optimizer(DelayPenalty::new(0.25).unwrap(), Mode::Proposed)
            .heuristic1()
            .unwrap();
        let x = sol.reduction_vs(avg);
        // Paper Table 3 reports 3-10x depending on circuit and penalty.
        assert!(x > 2.0, "reduction only {x:.2}x");
    }

    #[test]
    fn bigger_budget_never_hurts() {
        let (n, lib) = small();
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let mut last = f64::INFINITY;
        for p in [0.0, 0.05, 0.10, 0.25, 1.0] {
            let sol = problem
                .optimizer(DelayPenalty::new(p).unwrap(), Mode::Proposed)
                .heuristic1()
                .unwrap();
            assert!(
                sol.leakage.value() <= last * 1.02,
                "penalty {p}: {} vs previous {last}",
                sol.leakage
            );
            last = sol.leakage.value().min(last);
        }
    }

    #[test]
    fn refine_never_hurts_and_verifies() {
        let (n, lib) = small();
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
        let h1 = opt.heuristic1().unwrap();
        let refined = opt.refine(h1.clone(), 10).unwrap();
        assert!(refined.leakage.value() <= h1.leakage.value() + 1e-9);
        refined.verify(&problem).unwrap();
        assert!(refined.delay <= opt.budget() + Time::new(1e-6));
        assert!(refined.leaves_explored > h1.leaves_explored);
        // A second refinement from the fixed point cannot move.
        let again = opt.refine(refined.clone(), 10).unwrap();
        assert_eq!(again.leakage, refined.leakage);
    }

    #[test]
    fn input_order_ablation_produces_valid_solutions() {
        let (n, lib) = small();
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
        let default = opt.heuristic1().unwrap();
        let natural = opt
            .with_input_order(BranchOrder::Natural)
            .heuristic1()
            .unwrap();
        natural.verify(&problem).unwrap();
        // Both orders explore different leaves but stay within budget; the
        // influence-ordered default should not be dramatically worse.
        assert!(default.leakage.value() <= natural.leakage.value() * 1.5);
        assert!(natural.delay <= opt.budget() + Time::new(1e-6));
    }

    #[test]
    fn bound_tracker_is_a_true_lower_bound() {
        let (n, lib) = small();
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let opt = problem.optimizer(DelayPenalty::new(1.0).unwrap(), Mode::Proposed);
        // At full budget the greedy gate tree reaches every gate's minimum,
        // so the root bound must underestimate (or match) any leaf.
        let tracker = BoundTracker::new(&problem, Mode::Proposed);
        let root_bound = tracker.bound();
        let sol = opt.heuristic1().unwrap();
        assert!(root_bound.value() <= sol.leakage.value() + 1e-9);
    }
}
