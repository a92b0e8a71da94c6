//! Strategy portfolio: race H2 under three branch orders, exact and
//! randomized restarts.
//!
//! No single strategy dominates across circuits — the exact branch and
//! bound wins small instances outright, Heuristic 2 under different
//! branch orders wins different mid-size instances, and randomized
//! restarts occasionally beat both. [`Optimizer::run_portfolio`] races the
//! members of a [`Plan`] on the one search engine (see `engine.rs` for the
//! round, anytime and checkpoint protocols) and keeps the first winner.
//!
//! # Winner and optimality
//!
//! The winner is the first member in fixed declaration order whose final
//! best cost bit-equals the portfolio best (Heuristic 1 seeds the
//! incumbent and wins when nobody improves on it). Only an exact member
//! exhausting all of its units proves global optimality — its leaf search
//! covers the whole gate-choice space, which strictly contains the greedy
//! and restart leaves — and doing so cancels the remaining members.

use std::fmt;

use svtox_exec::{Budget, ExecConfig, SearchStats};

use crate::checkpoint::CheckpointSpec;
use crate::error::OptError;
use crate::outcome::{DegradeReason, RunOutcome};
use crate::problem::Problem;
use crate::solution::Solution;

use super::engine::Run;
use super::Optimizer;

/// Input-count ceiling for the exact members of a portfolio: their state
/// space is `2^inputs` exact gate-tree searches.
const EXACT_MAX_INPUTS: usize = 12;

/// Primary-input branching order of a state-tree search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BranchOrder {
    /// Largest transitive fanout first — decide the most influential
    /// inputs early so bounds tighten quickly (default; mirrors the
    /// paper's bound-driven branch ordering).
    #[default]
    InfluenceDescending,
    /// Netlist declaration order.
    Natural,
    /// Smallest transitive fanout first — a deliberately contrarian
    /// order that wins when the influential inputs are better decided
    /// late.
    InfluenceAscending,
}

impl BranchOrder {
    /// The primary-input positions of `problem` in this order. The sorts
    /// are stable, so the order — and with it a search's whole
    /// trajectory — is reproducible.
    #[must_use]
    pub fn inputs(self, problem: &Problem<'_>) -> Vec<usize> {
        let mut inputs: Vec<usize> = (0..problem.netlist().num_inputs()).collect();
        match self {
            BranchOrder::InfluenceDescending => {
                inputs.sort_by_key(|&i| std::cmp::Reverse(problem.tfo(i).len()));
            }
            BranchOrder::Natural => {}
            BranchOrder::InfluenceAscending => inputs.sort_by_key(|&i| problem.tfo(i).len()),
        }
        inputs
    }
}

/// One racing strategy of the portfolio.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// The Heuristic 1 descent that seeds the incumbent.
    Heuristic1,
    /// Branch-and-bound state search with greedy gate trees.
    Heuristic2(BranchOrder),
    /// Exhaustive two-tree branch and bound (small circuits only).
    Exact(BranchOrder),
    /// Seeded randomized restart vectors with greedy gate trees.
    Restarts,
}

impl Strategy {
    /// Stable identifier used in reports, JSON, and checkpoint metadata.
    #[must_use]
    pub fn slug(self) -> &'static str {
        match self {
            Strategy::Heuristic1 => "h1",
            Strategy::Heuristic2(BranchOrder::InfluenceDescending) => "h2-influence",
            Strategy::Heuristic2(BranchOrder::Natural) => "h2-natural",
            Strategy::Heuristic2(BranchOrder::InfluenceAscending) => "h2-reverse",
            Strategy::Exact(BranchOrder::InfluenceDescending) => "exact-influence",
            Strategy::Exact(BranchOrder::Natural) => "exact-natural",
            Strategy::Exact(BranchOrder::InfluenceAscending) => "exact-reverse",
            Strategy::Restarts => "restarts",
        }
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.slug())
    }
}

/// What the search engine races: members in declaration order, plus the
/// restart stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// Racing members, in declaration order: winner ties break towards
    /// the front. Heuristic 1 is not listed — it seeds every plan with a
    /// greedy member and is ignored here.
    pub members: Vec<Strategy>,
    /// Random restart vectors the [`Strategy::Restarts`] member evaluates
    /// (0 drops the member).
    pub restarts: usize,
    /// Base seed of the restart vectors (each restart derives its own
    /// stream, so the set is identical for any thread count).
    pub seed: u64,
}

impl Default for Plan {
    /// The full portfolio: Heuristic 2 under all three branch orders,
    /// exact under two (raced only up to 12 primary inputs), and 24
    /// random restarts.
    fn default() -> Self {
        Self {
            members: vec![
                Strategy::Heuristic2(BranchOrder::InfluenceDescending),
                Strategy::Heuristic2(BranchOrder::Natural),
                Strategy::Heuristic2(BranchOrder::InfluenceAscending),
                Strategy::Exact(BranchOrder::InfluenceDescending),
                Strategy::Exact(BranchOrder::Natural),
                Strategy::Restarts,
            ],
            restarts: 24,
            seed: 42,
        }
    }
}

impl Plan {
    /// A one-member plan: every unit is scheduled at once and prunes
    /// against the live shared incumbent.
    #[must_use]
    pub fn single(strategy: Strategy) -> Self {
        Self {
            members: vec![strategy],
            restarts: 0,
            seed: 0,
        }
    }

    /// This plan without its exact members.
    #[must_use]
    pub fn without_exact(mut self) -> Self {
        self.members.retain(|s| !matches!(s, Strategy::Exact(_)));
        self
    }
}

/// How a member's run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberStatus {
    /// Every unit was exhaustively explored.
    Complete,
    /// Stopped by the portfolio after another member proved optimality.
    Cancelled,
    /// Stopped mid-unit (deadline, external cancel, or injected kill);
    /// its checkpoint resumes the remaining units.
    Preempted,
}

impl fmt::Display for MemberStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MemberStatus::Complete => "complete",
            MemberStatus::Cancelled => "cancelled",
            MemberStatus::Preempted => "preempted",
        })
    }
}

/// Per-member accounting folded into the [`PortfolioOutcome`].
#[derive(Debug, Clone)]
pub struct MemberReport {
    /// Which strategy this member ran.
    pub strategy: Strategy,
    /// How the member ended.
    pub status: MemberStatus,
    /// The member's own best leakage (absent if it never beat the bound
    /// it was given).
    pub best_cost: Option<f64>,
    /// Units fully explored (including replayed ones).
    pub units_done: usize,
    /// Units the member was assigned in total.
    pub units_total: usize,
    /// Units replayed from a checkpoint instead of recomputed.
    pub resumed_units: usize,
    /// State-tree nodes this member expanded.
    pub nodes: u64,
    /// Leaves this member evaluated.
    pub leaves: u64,
    /// Barrier folds where this member improved the portfolio incumbent.
    pub incumbent_updates: u64,
}

/// One improvement of the portfolio incumbent.
#[derive(Debug, Clone, Copy)]
pub struct ProvenanceEntry {
    /// The member that produced the improvement.
    pub strategy: Strategy,
    /// The round at whose barrier it folded in.
    pub round: usize,
    /// The improved leakage.
    pub cost: f64,
}

/// The typed result of a portfolio run.
#[derive(Debug, Clone)]
pub struct PortfolioOutcome {
    /// The first member (in declaration order) whose best matches the
    /// portfolio best bit-for-bit.
    pub winner: Strategy,
    /// The portfolio's best solution.
    pub best: Solution,
    /// Whether an exact member exhausted its search, proving `best`
    /// globally optimal.
    pub proven_optimal: bool,
    /// Barrier rounds executed.
    pub rounds: usize,
    /// Per-member reports, in declaration order.
    pub members: Vec<MemberReport>,
    /// Every incumbent improvement, oldest first (entry 0 is the H1
    /// seed).
    pub provenance: Vec<ProvenanceEntry>,
    /// Aggregated engine statistics over all rounds.
    pub stats: SearchStats,
    /// Why the run degraded, if it did.
    pub reason: Option<DegradeReason>,
}

impl PortfolioOutcome {
    /// `"complete"` or `"degraded"`, mirroring [`RunOutcome::status`].
    #[must_use]
    pub fn status(&self) -> &'static str {
        if self.reason.is_some() {
            "degraded"
        } else {
            "complete"
        }
    }

    /// Collapses into the engine-wide [`RunOutcome`] shape (the winner
    /// and member details are portfolio-specific and dropped).
    #[must_use]
    pub fn into_run_outcome(self) -> RunOutcome {
        match self.reason {
            Some(reason) => RunOutcome::Degraded {
                reason,
                best: self.best,
                stats: self.stats,
            },
            None => RunOutcome::Complete {
                solution: self.best,
                stats: self.stats,
            },
        }
    }
}

impl fmt::Display for PortfolioOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "winner {} after {} rounds ({} members",
            self.winner,
            self.rounds,
            self.members.len()
        )?;
        if self.proven_optimal {
            write!(f, ", proven optimal")?;
        }
        write!(f, ", {})", self.status())
    }
}

impl<'a> Optimizer<'a> {
    /// Races the members of `plan` under `budget` and folds them into a
    /// typed [`PortfolioOutcome`]. Exact members race only on circuits
    /// with at most 12 primary inputs.
    ///
    /// With a [`CheckpointSpec`], every exhausted unit is appended to the
    /// one checkpoint file, tagged with its member's slug, and a resumed
    /// run replays the units at their original round positions —
    /// bit-identical to an uninterrupted run.
    ///
    /// # Errors
    ///
    /// Returns [`OptError`] for library failures, unusable checkpoint
    /// files, or an engine error that left no incumbent. Shortfalls that
    /// leave an incumbent (deadline, cancel, member kills) degrade via
    /// [`PortfolioOutcome::reason`] instead.
    pub fn run_portfolio(
        &self,
        exec: &ExecConfig,
        budget: &Budget,
        plan: &Plan,
        checkpoint: Option<&CheckpointSpec>,
    ) -> Result<PortfolioOutcome, OptError> {
        let _span = self.obs.span("core.portfolio.run");
        let mut plan = plan.clone();
        if self.problem.netlist().num_inputs() > EXACT_MAX_INPUTS {
            plan = plan.without_exact();
        }
        let run = Run {
            checkpoint,
            ..Run::new(plan)
        };
        Ok(self.search(exec, budget, &run)?.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svtox_cells::{Library, LibraryOptions};
    use svtox_exec::ExecConfig;
    use svtox_fault::{Fault, FaultPlan, Site, Trigger};
    use svtox_netlist::generators::{random_dag, RandomDagSpec};
    use svtox_netlist::Netlist;
    use svtox_sta::TimingConfig;
    use svtox_tech::Technology;

    use crate::problem::{DelayPenalty, Mode, Problem};

    /// Small on purpose: the exact members run a full gate-option branch
    /// and bound per leaf, so circuit size multiplies into every test.
    fn small() -> (Netlist, Library) {
        let spec = RandomDagSpec::new("portfolio-small", 6, 3, 16, 4);
        (
            random_dag(&spec).unwrap(),
            Library::new(Technology::predictive_65nm(), LibraryOptions::default()).unwrap(),
        )
    }

    /// Tinier still, for the tests that include the exact members: their
    /// per-leaf gate-option branch and bound dominates everything.
    fn tiny() -> (Netlist, Library) {
        let spec = RandomDagSpec::new("portfolio-tiny", 5, 3, 10, 4);
        (
            random_dag(&spec).unwrap(),
            Library::new(Technology::predictive_65nm(), LibraryOptions::default()).unwrap(),
        )
    }

    /// A plan without the exact members, for tests that only need the
    /// cheap strategies (greedy leaves evaluate in microseconds).
    fn greedy_config() -> Plan {
        Plan {
            restarts: 12,
            ..Plan::default().without_exact()
        }
    }

    fn temp_base(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "svtox-portfolio-{tag}-{}.jsonl",
            std::process::id()
        ))
    }

    #[test]
    fn portfolio_is_bit_identical_across_thread_counts() {
        let (n, lib) = small();
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
        let config = greedy_config();
        let run = |threads: usize| {
            opt.run_portfolio(
                &ExecConfig::with_threads(threads),
                &Budget::unlimited(),
                &config,
                None,
            )
            .expect("portfolio runs")
        };
        let one = run(1);
        assert!(one.reason.is_none(), "unbudgeted run completes");
        for threads in [2, 4] {
            let other = run(threads);
            assert_eq!(other.winner, one.winner, "winner at {threads} threads");
            assert_eq!(
                other.best.leakage.value().to_bits(),
                one.best.leakage.value().to_bits()
            );
            assert!(other.best.same_assignment(&one.best));
            assert_eq!(other.rounds, one.rounds);
            for (a, b) in one.members.iter().zip(&other.members) {
                assert_eq!(a.strategy, b.strategy);
                assert_eq!(a.incumbent_updates, b.incumbent_updates, "{}", a.strategy);
                assert_eq!(a.nodes, b.nodes, "{}", a.strategy);
                assert_eq!(a.leaves, b.leaves, "{}", a.strategy);
                assert_eq!(a.units_done, b.units_done, "{}", a.strategy);
            }
        }
    }

    #[test]
    fn exact_completion_proves_optimality_and_cancels_losers() {
        let (n, lib) = tiny();
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
        // More restart units than prefix units: the exact members finish
        // first and the restarts member must be cancelled, not completed.
        let config = Plan {
            restarts: 40,
            ..Plan::default()
        };
        let outcome = opt
            .run_portfolio(
                &ExecConfig::with_threads(2),
                &Budget::unlimited(),
                &config,
                None,
            )
            .unwrap();
        assert!(
            outcome.proven_optimal,
            "5 inputs gates the exact members in"
        );
        assert!(outcome.reason.is_none(), "cancelled losers do not degrade");
        let restarts = outcome
            .members
            .iter()
            .find(|m| m.strategy == Strategy::Restarts)
            .expect("restarts member present");
        assert_eq!(restarts.status, MemberStatus::Cancelled);
        assert!(restarts.units_done < restarts.units_total, "stopped early");
        // The proven optimum is at least as good as the serial exact
        // search's answer (identical gate-choice space).
        let exact = opt.exact(12).unwrap();
        assert_eq!(
            outcome.best.leakage.value().to_bits(),
            exact.leakage.value().to_bits()
        );
    }

    #[test]
    fn portfolio_beats_or_matches_every_individual_strategy() {
        let (n, lib) = tiny();
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
        let outcome = opt
            .run_portfolio(
                &ExecConfig::serial(),
                &Budget::unlimited(),
                &Plan::default(),
                None,
            )
            .unwrap();
        let portfolio = outcome.best.leakage.value();
        let h1 = opt.heuristic1().unwrap().leakage.value();
        let h2_exec = ExecConfig::serial().with_time_budget(std::time::Duration::from_secs(10));
        let h2 = opt.run(&h2_exec, None).best().unwrap().leakage.value();
        let exact = opt.exact(12).unwrap().leakage.value();
        assert!(portfolio <= h1 + 1e-15);
        assert!(portfolio <= h2 + 1e-15);
        assert!(portfolio <= exact + 1e-15);
        outcome.best.verify(&problem).unwrap();
    }

    #[test]
    fn kill_mid_run_then_resume_is_bit_identical() {
        let (n, lib) = small();
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
        let exec = ExecConfig::with_threads(1);
        let config = greedy_config();
        let reference = opt
            .run_portfolio(&exec, &Budget::unlimited(), &config, None)
            .unwrap();

        let base = temp_base("kill-resume");
        let plan = FaultPlan::new(13).with_rule(Site::CoreLeaf, Trigger::Nth(10));
        let fault = Fault::new(&plan);
        let killed = opt
            .with_fault(&fault)
            .run_portfolio(
                &exec,
                &Budget::unlimited(),
                &config,
                Some(&CheckpointSpec::fresh(&base)),
            )
            .unwrap();
        assert!(
            killed.reason.is_some(),
            "the injected kill preempts a member"
        );
        assert!(killed
            .members
            .iter()
            .any(|m| m.status == MemberStatus::Preempted));

        let resumed = opt
            .run_portfolio(
                &exec,
                &Budget::unlimited(),
                &config,
                Some(&CheckpointSpec::resume(&base)),
            )
            .unwrap();
        assert!(resumed.reason.is_none(), "resume completes");
        assert!(resumed.members.iter().any(|m| m.resumed_units > 0));
        assert_eq!(resumed.winner, reference.winner);
        assert_eq!(
            resumed.best.leakage.value().to_bits(),
            reference.best.leakage.value().to_bits()
        );
        assert!(resumed.best.same_assignment(&reference.best));
        std::fs::remove_file(&base).ok();
    }

    #[test]
    fn foreign_member_checkpoint_is_a_typed_failure() {
        let (n, lib) = small();
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
        let exec = ExecConfig::serial();
        let config = greedy_config();
        let base = temp_base("foreign");
        opt.run_portfolio(
            &exec,
            &Budget::unlimited(),
            &config,
            Some(&CheckpointSpec::fresh(&base)),
        )
        .unwrap();
        // Reordered members give different unit spaces and tie orders:
        // the recorded member slugs must reject the mix-up.
        let mut swapped = config.clone();
        swapped.members.swap(0, 1);
        let err = opt
            .run_portfolio(
                &exec,
                &Budget::unlimited(),
                &swapped,
                Some(&CheckpointSpec::resume(&base)),
            )
            .expect_err("a reordered plan must fail");
        assert!(err.to_string().contains("members"), "got {err}");
        // So must a one-member run resuming the portfolio's file.
        let outcome = opt.run(&exec, Some(&CheckpointSpec::resume(&base)));
        let RunOutcome::Failed { error } = outcome else {
            panic!("a single-member run must not replay a portfolio file, got {outcome}");
        };
        assert!(error.to_string().contains("members"), "got {error}");
        std::fs::remove_file(&base).ok();
    }

    #[test]
    fn expired_budget_degrades_but_keeps_the_seed() {
        let (n, lib) = small();
        let problem = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
        let outcome = opt
            .run_portfolio(
                &ExecConfig::with_threads(2),
                &Budget::with_duration(std::time::Duration::ZERO),
                &Plan::default(),
                None,
            )
            .unwrap();
        assert_eq!(outcome.reason, Some(DegradeReason::DeadlineExpired));
        assert_eq!(outcome.winner, Strategy::Heuristic1);
        assert!(outcome.best.same_assignment(&opt.heuristic1().unwrap()));
        let run = outcome.into_run_outcome();
        assert_eq!(run.status(), "degraded");
    }
}
