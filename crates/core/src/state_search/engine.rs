//! The search engine: the one bound-ordered descent of the state tree.
//!
//! Every search entry point is a [`Plan`] over this engine: its members
//! (branch order × leaf kind, plus randomized restarts), an optional set
//! of warm vectors and an optional checkpoint. A subtree member splits the
//! state tree at its first [`SPLIT_DEPTH`] inputs into `2^SPLIT_DEPTH`
//! *units*: unit `p` fixes input `d` (for `d < SPLIT_DEPTH`) to bit
//! `SPLIT_DEPTH-1-d` of `p`, so ascending unit index is exactly the serial
//! depth-first, false-first exploration order. A restart unit evaluates
//! one seeded random vector. The split does not depend on the thread
//! count, so a checkpoint resumes at any thread count.
//!
//! Heuristic 1 seeds every plan that has a greedy member; an exact-only
//! plan starts unseeded, so it returns its own first optimal witness.
//!
//! # Pruning protocols
//!
//! * **One-member plans** schedule every unit at once. A unit prunes with
//!   `>=` against its *unit-local* incumbent, which starts at the fixed
//!   seed (exactly the serial rule, confined to the subtree), but only
//!   with strict `>` against the live shared incumbent cell. The shared
//!   value is always at least the global minimum, so the path to the
//!   serial-first optimal leaf can never be cut by a bound that merely
//!   *equals* it, whichever worker finds the optimum first in wall time.
//!   Every other unit reports a strictly worse value or nothing, and the
//!   fold keeps the earliest minimum in unit order, which is the serial
//!   witness: the result is bit-identical to the serial search for any
//!   thread count. Replayed checkpoint units publish into the cell before
//!   any fresh unit runs, which keeps a serial resume exact to the leaf
//!   count.
//! * **Multi-member plans without a deadline** run in *rounds*: each live
//!   member contributes exactly one unit per round, and every unit of
//!   round `r` prunes against the **frozen bound** `B_r`, the incumbent as
//!   of the previous round's barrier. Improvements fold in only at the
//!   barrier, in fixed (member, unit) order. A unit is therefore a pure
//!   function of `(member state, B_r)`, so the winner, the cost bits and
//!   every member's node, leaf and incumbent-update counts are
//!   bit-identical for any thread count, and a killed run resumes to the
//!   same answer because replayed units re-enter the fold at their
//!   original round positions.
//! * **Multi-member plans with a deadline** run in *anytime* mode: a
//!   deadline already makes the result depend on timing, so every unit is
//!   scheduled in one round and greedy and restart units prune against
//!   (and update) the live cell. Exact units keep the frozen bound, so a
//!   proven-optimality claim never rests on a bound tightened by a
//!   partial result that is neither folded nor recorded.
//!
//! * **Leaves** are pruned by the same two values: a leaf is evaluated
//!   under the [`Cutoff`] `{ below: local, at_most: shared }` (restart
//!   units: `{ below: bar, at_most: ∞ }`), and its gate tree stops as soon
//!   as the leaf provably cannot be recorded. The leaf is recorded exactly
//!   when its full value `v` has `v < local && v <= shared`. No leaf whose
//!   value is at most the shared cell is refused, so the first optimal
//!   leaf in depth-first order is always recorded. A leaf with
//!   `shared < v < local` does not lower `local`, but every node a `local`
//!   of `v` would prune has a bound `>= v > shared` and is pruned by the
//!   shared test instead, so the node and leaf counts are those of
//!   recording it; only the split between `prunes_local` and
//!   `prunes_shared` differs. A refused leaf still counts as a leaf (and
//!   toward a [`Convergence`] cap) but adds no trajectory point, and it
//!   counts in `core.leaf.cutoffs`.
//!
//! An exact member that exhausts all of its units proves the incumbent
//! globally optimal and cancels the remaining members through their
//! per-member budgets (children of the caller's budget, so a deadline or
//! Ctrl-C still reaches everyone).

use std::collections::BTreeMap;
use std::time::Instant;

use svtox_exec::rng::{derive_seed, Xoshiro256pp};
use svtox_exec::{
    run_pool, Budget, CancelToken, ExecConfig, ExecError, SearchStats, SharedMinF64, WorkerStats,
};
use svtox_fault::Site as FaultSite;
use svtox_obs::Obs;
use svtox_sim::Logic;
use svtox_sta::Sta;

use crate::checkpoint::{self, CheckpointMeta, CheckpointSpec, CheckpointWriter, TaskRecord};
use crate::error::OptError;
use crate::outcome::DegradeReason;
use crate::solution::Solution;

use super::eco::{Convergence, WarmStats};
use super::portfolio::{
    MemberReport, MemberStatus, Plan, PortfolioOutcome, ProvenanceEntry, Strategy,
};
use super::{flush_sta, BoundTracker, Cutoff, LeafKind, Optimizer};

/// Prefix split depth of every subtree member: `2^4` units each.
pub(crate) const SPLIT_DEPTH: usize = 4;

/// A plan plus what it runs with.
pub(crate) struct Run<'r> {
    pub plan: Plan,
    pub checkpoint: Option<&'r CheckpointSpec>,
    /// Complete input vectors evaluated before the search. Their values
    /// tighten only the live shared cell, whose prune is strict `>`, so
    /// they change how fast a one-member plan converges, never what a
    /// complete run returns. A cut run returns the best warm solution if
    /// no recorded leaf beats it.
    pub warm: &'r [Vec<bool>],
    /// A caller-owned convergence record: every evaluated leaf is counted
    /// there, and reaching its cap cancels the unit's budget.
    pub watch: Option<&'r Convergence>,
}

impl Run<'_> {
    pub(crate) fn new(plan: Plan) -> Self {
        Self {
            plan,
            checkpoint: None,
            warm: &[],
            watch: None,
        }
    }
}

/// Everything one worker reuses across its units. Its timing and bound
/// work is published when it drops — only by a one-worker search, whose
/// totals do not depend on the unit × worker assignment.
struct Worker<'p, 'n> {
    sta: Sta<'n>,
    tracker: BoundTracker<'p, 'n>,
    vector: Vec<bool>,
    obs: &'p Obs,
}

impl Drop for Worker<'_, '_> {
    fn drop(&mut self) {
        // A worker lost to a panic publishes nothing: its counts are
        // partial, and a second panic here would abort the process.
        if std::thread::panicking() {
            return;
        }
        flush_sta(self.obs, &self.sta);
        self.obs.add("core.bound.rebounds", self.tracker.rebounds());
    }
}

/// Per-member bookkeeping of the driver loop: the report it ends with,
/// plus what the loop needs to schedule the member.
struct Member {
    report: MemberReport,
    /// Branching order of a subtree member (empty for the others).
    order: Vec<usize>,
    budget: Budget,
    recorded: BTreeMap<usize, TaskRecord>,
    preempted: bool,
    cancelled: bool,
}

impl Member {
    fn new(strategy: Strategy, order: Vec<usize>, units_total: usize, budget: &Budget) -> Self {
        Self {
            report: MemberReport {
                strategy,
                status: MemberStatus::Preempted,
                best_cost: None,
                units_done: 0,
                units_total,
                resumed_units: 0,
                nodes: 0,
                leaves: 0,
                incumbent_updates: 0,
            },
            order,
            budget: budget.child(CancelToken::new()),
            recorded: BTreeMap::new(),
            preempted: false,
            cancelled: false,
        }
    }

    fn strategy(&self) -> Strategy {
        self.report.strategy
    }

    /// Whether the member still has a unit to contribute.
    fn runnable(&self) -> bool {
        !self.preempted && !self.cancelled && !self.complete()
    }

    fn complete(&self) -> bool {
        self.report.units_done == self.report.units_total
    }

    /// The final report.
    fn into_report(mut self) -> MemberReport {
        self.report.status = if self.complete() {
            MemberStatus::Complete
        } else if self.cancelled {
            MemberStatus::Cancelled
        } else {
            MemberStatus::Preempted
        };
        self.report
    }
}

/// One unit scheduled in a round.
struct Task {
    member: usize,
    unit: usize,
    budget: Budget,
}

/// What every unit of one round prunes against.
struct Round<'r> {
    /// The incumbent as of the last barrier (the fixed seed in the live
    /// protocols, which run a single round).
    bound: f64,
    /// The live shared cell, in the live protocols.
    live: Option<&'r SharedMinF64>,
    /// Whether the plan has one member.
    single: bool,
    /// Base seed of the restart streams.
    restart_seed: u64,
    writer: Option<&'r CheckpointWriter>,
    watch: Option<&'r Convergence>,
}

/// One unit's entry in the barrier fold.
struct UnitResult {
    member: usize,
    unit: usize,
    solution: Option<Solution>,
    exhausted: bool,
    nodes: u64,
    leaves: u64,
    replayed: bool,
}

impl<'a> Optimizer<'a> {
    /// Runs a plan to a typed [`PortfolioOutcome`] (plus the warm-seeding
    /// outcome).
    pub(crate) fn search(
        &self,
        exec: &ExecConfig,
        budget: &Budget,
        run: &Run<'_>,
    ) -> Result<(PortfolioOutcome, WarmStats), OptError> {
        let start = Instant::now();
        let netlist = self.problem.netlist();
        let n = netlist.num_inputs();
        let strategies: Vec<Strategy> = run
            .plan
            .members
            .iter()
            .copied()
            .filter(|s| match s {
                Strategy::Heuristic1 => false,
                Strategy::Restarts => run.plan.restarts > 0,
                _ => true,
            })
            .collect();
        let identity = CheckpointMeta {
            circuit: netlist.name().to_string(),
            inputs: n,
            gates: netlist.num_gates(),
            penalty_bits: self.penalty.fraction().to_bits(),
            mode: self.mode,
            members: strategies.iter().map(|s| s.slug().to_string()).collect(),
            seed: None,
        };

        // Validate an existing checkpoint before spending any effort.
        let loaded = match run.checkpoint {
            Some(spec) if spec.resume => checkpoint::load(&spec.path)?,
            _ => None,
        };
        if let (Some(cp), Some(spec)) = (&loaded, run.checkpoint) {
            cp.meta.check(&identity, &spec.path)?;
        }
        // Surface library errors once, on the caller's thread: worker
        // setup relies on it.
        Sta::new(netlist, self.problem.library(), self.problem.timing())?;
        let seeded =
            strategies.is_empty() || strategies.iter().any(|s| !matches!(s, Strategy::Exact(_)));
        let resuming = loaded.is_some();
        let (seed, recorded) = match loaded {
            Some(cp) => (cp.meta.seed, cp.tasks),
            None if seeded => (Some(self.heuristic1()?), BTreeMap::new()),
            None => (None, BTreeMap::new()),
        };
        let writer = match run.checkpoint {
            Some(spec) if resuming => Some(CheckpointWriter::append(&spec.path, self.fault)?),
            Some(spec) => {
                let meta = CheckpointMeta {
                    seed: seed.clone(),
                    ..identity
                };
                Some(CheckpointWriter::create(&spec.path, &meta, self.fault)?)
            }
            None => None,
        };

        let seed_leak = seed.as_ref().map_or(f64::INFINITY, |s| s.leakage.value());
        let seed_leaves = seed.as_ref().map_or(0, |s| s.leaves_explored);
        let cell = &SharedMinF64::new(f64::INFINITY);
        cell.update_min(seed_leak);
        if let (Some(watch), Some(seed)) = (run.watch, &seed) {
            watch.leaf(Some(seed.leakage.value()));
        }
        let (warm, warm_best) = self.warm_up(run.warm, cell, run.watch)?;

        let k = SPLIT_DEPTH.min(n);
        let mut members = Vec::with_capacity(strategies.len() + 1);
        if seed.is_some() {
            let mut h1 = Member::new(Strategy::Heuristic1, Vec::new(), 0, budget);
            h1.report.best_cost = Some(seed_leak);
            members.push(h1);
        }
        for (slot, &strategy) in strategies.iter().enumerate() {
            let (order, units) = match strategy {
                Strategy::Heuristic2(order) | Strategy::Exact(order) => {
                    (order.inputs(self.problem), 1usize << k)
                }
                _ => (Vec::new(), run.plan.restarts),
            };
            let mut m = Member::new(strategy, order, units, budget);
            m.recorded = recorded
                .range((slot, 0)..(slot + 1, 0))
                .map(|(&(_, unit), rec)| (unit, rec.clone()))
                .collect();
            members.push(m);
        }

        // One-member plans and deadline runs share the incumbent live
        // and schedule every unit in one round; the rest run frozen
        // rounds.
        let single = strategies.len() == 1;
        let live = single || budget.has_deadline();
        let mut best = seed;
        // A mid-unit (non-exhausted) improvement folds into `best` but not
        // into any member's deterministic accounting.
        let mut partial_winner: Option<Strategy> = None;
        let mut provenance = Vec::new();
        if best.is_some() {
            provenance.push(ProvenanceEntry {
                strategy: Strategy::Heuristic1,
                round: 0,
                cost: seed_leak,
            });
        }
        let mut total_stats = SearchStats::default();
        let mut rounds = 0usize;
        let mut live_units = 0u64;
        let mut proven_optimal = false;
        let mut worker_loss: Option<(usize, String)> = None;
        let mut task_failures: (usize, Option<String>) = (0, None);

        while members.iter().any(Member::runnable) {
            if budget.expired() {
                for m in members.iter_mut().filter(|m| m.runnable()) {
                    m.preempted = true;
                }
                break;
            }
            let mut results: Vec<UnitResult> = Vec::new();
            let mut tasks: Vec<Task> = Vec::new();
            for (mi, m) in members.iter().enumerate().filter(|(_, m)| m.runnable()) {
                let done = m.report.units_done;
                let end = if live { m.report.units_total } else { done + 1 };
                for unit in done..end {
                    let Some(rec) = m.recorded.get(&unit) else {
                        tasks.push(Task {
                            member: mi,
                            unit,
                            budget: m.budget.clone(),
                        });
                        continue;
                    };
                    if let Some(sol) = &rec.solution {
                        cell.update_min(sol.leakage.value());
                    }
                    results.push(UnitResult {
                        member: mi,
                        unit,
                        solution: rec.solution.clone(),
                        exhausted: true,
                        nodes: 0,
                        leaves: rec.leaves,
                        replayed: true,
                    });
                }
            }
            if live {
                // Interleave members so the first workers cover one unit
                // of each strategy instead of draining one member's
                // queue before a deadline lands. Restart units are
                // near-free and feed the live incumbent, so the whole
                // restart block runs right after the first rank of dives.
                tasks.sort_by_key(|t| {
                    let rank = match members[t.member].strategy() {
                        Strategy::Restarts => 1,
                        _ if t.unit == 0 => 0,
                        _ => 2,
                    };
                    (rank, t.unit, t.member)
                });
            }

            if !tasks.is_empty() {
                live_units += tasks.len() as u64;
                let round = Round {
                    bound: best.as_ref().map_or(f64::INFINITY, |b| b.leakage.value()),
                    live: live.then_some(cell),
                    single,
                    restart_seed: run.plan.seed,
                    writer: writer.as_ref(),
                    watch: run.watch,
                };
                let worker_obs = if exec.threads() == 1 {
                    self.obs
                } else {
                    Obs::disabled_ref()
                };
                let pool = run_pool(
                    exec,
                    tasks.len(),
                    budget,
                    self.obs,
                    self.fault,
                    |_worker| Worker {
                        sta: Sta::new(netlist, self.problem.library(), self.problem.timing())
                            .expect("library already validated"),
                        tracker: BoundTracker::new(self.problem, self.mode),
                        vector: vec![false; n],
                        obs: worker_obs,
                    },
                    |w, t, ws| {
                        Some(self.run_unit(w, &members[tasks[t].member], &tasks[t], &round, ws))
                    },
                );
                total_stats.absorb(&pool.stats);
                for failure in &pool.failures {
                    members[tasks[failure.task].member].preempted = true;
                    task_failures.0 += 1;
                    task_failures
                        .1
                        .get_or_insert_with(|| failure.message.clone());
                }
                match pool.error {
                    Some(ExecError::WorkerPanic { worker, message }) => {
                        worker_loss = Some((worker, message));
                    }
                    Some(other) => return Err(OptError::Exec(other)),
                    None => {}
                }
                for (task, slot) in tasks.iter().zip(pool.results) {
                    match slot {
                        Some(unit) => results.push(unit),
                        // Skipped by budget expiry (or lost with a dead
                        // worker): the unit never ran to exhaustion.
                        None => members[task.member].preempted = true,
                    }
                }
            }

            // Barrier fold, in fixed (member, unit) order.
            results.sort_by_key(|r| (r.member, r.unit));
            for r in results {
                let m = &mut members[r.member];
                let acct = &mut m.report;
                acct.nodes += r.nodes;
                acct.leaves += r.leaves;
                if r.exhausted {
                    acct.units_done += 1;
                    acct.resumed_units += usize::from(r.replayed);
                } else {
                    m.preempted = true;
                }
                let Some(sol) = r.solution else { continue };
                let cost = sol.leakage.value();
                let improves = best.as_ref().is_none_or(|b| cost < b.leakage.value());
                if r.exhausted {
                    if acct.best_cost.is_none_or(|b| cost < b) {
                        acct.best_cost = Some(cost);
                    }
                    if improves {
                        cell.update_min(cost);
                        acct.incumbent_updates += 1;
                        provenance.push(ProvenanceEntry {
                            strategy: acct.strategy,
                            round: rounds,
                            cost,
                        });
                        best = Some(sol);
                    }
                } else if improves {
                    // Anytime value from an interrupted unit: keep the
                    // solution but leave the deterministic accounting
                    // untouched — resume re-runs the unit in full.
                    partial_winner = Some(acct.strategy);
                    best = Some(sol);
                }
            }
            rounds += 1;

            if members
                .iter()
                .any(|m| matches!(m.strategy(), Strategy::Exact(_)) && m.complete())
            {
                proven_optimal = true;
                for m in members.iter_mut().filter(|m| m.runnable()) {
                    m.cancelled = true;
                    m.budget.cancel();
                }
            }
            if worker_loss.is_some() {
                for m in members.iter_mut().filter(|m| m.runnable()) {
                    m.preempted = true;
                }
                break;
            }
        }

        let reason = if let Some((worker, message)) = worker_loss {
            Some(DegradeReason::WorkerLoss { worker, message })
        } else if task_failures.0 > 0 {
            Some(DegradeReason::TasksFailed {
                failed: task_failures.0,
                first: task_failures.1.unwrap_or_default(),
            })
        } else if members.iter().any(|m| m.preempted) {
            if budget.deadline_passed() {
                Some(DegradeReason::DeadlineExpired)
            } else {
                Some(DegradeReason::Cancelled)
            }
        } else {
            None
        };

        // A cut run answers with the best leaf it evaluated. A warm value
        // only tightens the live cell, so the leaves it refused are not
        // recorded anywhere else; a complete run has found one at least
        // as good, and its serial witness stands.
        if let (Some(_), Some(w)) = (&reason, warm_best) {
            if best.as_ref().is_none_or(|b| w.leakage < b.leakage) {
                best = Some(w);
            }
        }
        // An unseeded plan stopped before its first leaf still answers
        // with the anytime guarantee's floor.
        let mut best = match best {
            Some(best) => best,
            None => self.heuristic1()?,
        };
        let members: Vec<MemberReport> = members.into_iter().map(Member::into_report).collect();
        let best_bits = best.leakage.value().to_bits();
        let winner = members
            .iter()
            .find(|m| m.best_cost.is_some_and(|c| c.to_bits() == best_bits))
            .map(|m| m.strategy)
            .or(partial_winner)
            .unwrap_or(Strategy::Heuristic1);
        best.runtime = start.elapsed();
        best.leaves_explored = seed_leaves + members.iter().map(|m| m.leaves).sum::<u64>() as usize;
        total_stats.completed = reason.is_none();
        total_stats.wall = start.elapsed();
        self.flush_search(
            &total_stats,
            &members,
            rounds,
            live_units,
            &provenance,
            single,
        );
        let outcome = PortfolioOutcome {
            winner,
            best,
            proven_optimal,
            rounds,
            members,
            provenance,
            stats: total_stats,
            reason,
        };
        Ok((outcome, warm))
    }

    /// Evaluates the warm vectors whose length still matches, publishing
    /// their values into the live cell only. Also returns the first best
    /// warm solution.
    fn warm_up(
        &self,
        vectors: &[Vec<bool>],
        cell: &SharedMinF64,
        watch: Option<&Convergence>,
    ) -> Result<(WarmStats, Option<Solution>), OptError> {
        let mut warm = WarmStats {
            candidates: vectors.len(),
            ..WarmStats::default()
        };
        let mut best = None;
        if vectors.is_empty() {
            return Ok((warm, best));
        }
        let netlist = self.problem.netlist();
        let mut sta = Sta::new(netlist, self.problem.library(), self.problem.timing())?;
        for vector in vectors.iter().filter(|v| v.len() == netlist.num_inputs()) {
            let solution = self.evaluate_leaf(vector, LeafKind::Greedy, &mut sta);
            let value = solution.leakage.value();
            warm.evaluated += 1;
            if warm.best.is_none_or(|b| value < b) {
                warm.best = Some(value);
                best = Some(solution);
            }
            cell.update_min(value);
            if let Some(watch) = watch {
                watch.leaf(Some(value));
            }
        }
        Ok((warm, best))
    }

    /// Executes one unit (worker side) and records it once exhausted.
    fn run_unit(
        &self,
        w: &mut Worker<'a, 'a>,
        m: &Member,
        task: &Task,
        round: &Round<'_>,
        ws: &mut WorkerStats,
    ) -> UnitResult {
        let (nodes0, leaves0) = (ws.nodes_expanded, ws.leaves_evaluated);
        if round.watch.is_some_and(Convergence::spent) {
            task.budget.cancel();
        }
        let solution = if task.budget.expired() {
            None
        } else {
            match m.strategy() {
                Strategy::Heuristic2(_) | Strategy::Exact(_) => {
                    let leaf = if matches!(m.strategy(), Strategy::Exact(_)) {
                        LeafKind::Exact
                    } else {
                        LeafKind::Greedy
                    };
                    // Anytime greedy units also prune `>=` against the
                    // live value: their result is timing-dependent anyway.
                    let frozen = SharedMinF64::new(round.bound);
                    let (local, shared) = match round.live {
                        Some(cell) if round.single => (round.bound, cell),
                        Some(cell) if leaf == LeafKind::Greedy => (cell.get(), cell),
                        _ => (round.bound, &frozen),
                    };
                    self.search_subtree(w, task, &m.order, leaf, local, shared, round.watch, ws)
                }
                _ => {
                    // Anytime rounds judge (and feed) the live incumbent;
                    // a random vector that only beats a stale round bound
                    // is not worth reporting.
                    let bar = round.live.map_or(round.bound, SharedMinF64::get);
                    let seed = derive_seed(round.restart_seed, task.unit as u64);
                    let mut rng = Xoshiro256pp::seed_from_u64(seed);
                    for slot in w.vector.iter_mut() {
                        *slot = rng.next_u64() & 1 == 1;
                    }
                    ws.leaves_evaluated += 1;
                    let cutoff = Cutoff {
                        below: bar,
                        at_most: f64::INFINITY,
                    };
                    let sol =
                        self.evaluate_leaf_under(&w.vector, LeafKind::Greedy, cutoff, &mut w.sta);
                    let value = sol.as_ref().map(|s| s.leakage.value());
                    ws.leaf_cutoffs += u64::from(value.is_none());
                    let capped = round.watch.is_some_and(|watch| watch.leaf(value));
                    if capped || self.fault.fires(FaultSite::CoreLeaf) {
                        task.budget.cancel();
                    }
                    // A refused leaf is at or above `bar`, so it could not
                    // lower the live cell.
                    if let (Some(cell), Some(value)) = (round.live, value) {
                        cell.update_min(value);
                    }
                    sol
                }
            }
        };
        let result = UnitResult {
            member: task.member,
            unit: task.unit,
            solution,
            exhausted: !task.budget.expired(),
            nodes: ws.nodes_expanded - nodes0,
            leaves: ws.leaves_evaluated - leaves0,
            replayed: false,
        };
        if let (true, Some(writer)) = (result.exhausted, round.writer) {
            writer.record_task(
                m.strategy().slug(),
                task.unit,
                result.leaves,
                result.solution.as_ref(),
            );
        }
        result
    }

    /// Searches the subtree under `task.unit`'s prefix, returning its best
    /// leaf, or `None` if the whole subtree pruned away or yielded nothing
    /// better than `local_seed`.
    #[allow(clippy::too_many_arguments)]
    fn search_subtree(
        &self,
        w: &mut Worker<'a, 'a>,
        task: &Task,
        order: &[usize],
        leaf: LeafKind,
        local_seed: f64,
        shared: &SharedMinF64,
        watch: Option<&Convergence>,
        ws: &mut WorkerStats,
    ) -> Option<Solution> {
        let n = order.len();
        let k = SPLIT_DEPTH.min(n);
        // Apply the prefix: depth d takes bit k-1-d of the unit index.
        for (d, &input) in order.iter().enumerate().take(k) {
            let value = (task.unit >> (k - 1 - d)) & 1 == 1;
            w.vector[input] = value;
            w.tracker.set_input(input, Logic::from(value));
            ws.nodes_expanded += 1;
        }

        let mut best: Option<Solution> = None;
        let mut local = local_seed;
        let prefix_bound = w.tracker.bound().value();
        let pruned = if prefix_bound >= local {
            ws.prunes_local += 1;
            true
        } else if prefix_bound > shared.get() {
            ws.prunes_shared += 1;
            true
        } else {
            false
        };

        // Iterative DFS over depths k..n, false branch first. A frame is
        // (depth, branches tried).
        let mut stack: Vec<(usize, u8)> = if pruned { Vec::new() } else { vec![(k, 0)] };
        while let Some(&(depth, tried)) = stack.last() {
            if task.budget.expired() {
                break;
            }
            if depth == n || tried == 2 {
                if depth == n {
                    ws.leaves_evaluated += 1;
                    // The leaf's own bar is the two values its ancestors
                    // were just pruned against.
                    let cutoff = Cutoff {
                        below: local,
                        at_most: shared.get(),
                    };
                    let value = match self.evaluate_leaf_under(&w.vector, leaf, cutoff, &mut w.sta)
                    {
                        Some(candidate) => {
                            local = candidate.leakage.value();
                            if shared.update_min(local) {
                                ws.incumbent_updates += 1;
                            }
                            best = Some(candidate);
                            Some(local)
                        }
                        None => {
                            ws.leaf_cutoffs += 1;
                            None
                        }
                    };
                    let capped = watch.is_some_and(|watch| watch.leaf(value));
                    // Chaos hook: a mid-search kill, at leaf granularity.
                    if capped || self.fault.fires(FaultSite::CoreLeaf) {
                        task.budget.cancel();
                    }
                }
                stack.pop();
                if let Some(&(parent, _)) = stack.last() {
                    w.tracker.set_input(order[parent], Logic::X);
                }
                continue;
            }
            stack.last_mut().expect("non-empty").1 += 1;
            let value = tried == 1;
            let input = order[depth];
            w.tracker.set_input(input, Logic::from(value));
            ws.nodes_expanded += 1;
            let bound = w.tracker.bound().value();
            // `>=` against the unit-local incumbent (the serial rule);
            // strict `>` against the shared one so an equal bound found
            // elsewhere can never cut the serial witness path.
            if bound >= local {
                ws.prunes_local += 1;
                w.tracker.set_input(input, Logic::X);
                continue;
            }
            if bound > shared.get() {
                ws.prunes_shared += 1;
                w.tracker.set_input(input, Logic::X);
                continue;
            }
            w.vector[input] = value;
            stack.push((depth + 1, 0));
        }
        // Unwind whatever the budget interrupted, then the prefix.
        for &(depth, _) in stack.iter().rev().skip(1) {
            w.tracker.set_input(order[depth], Logic::X);
        }
        for &input in order.iter().take(k) {
            w.tracker.set_input(input, Logic::X);
        }
        best
    }

    /// Publishes one search's counters: the engine totals always, the
    /// portfolio accounting for multi-member plans.
    fn flush_search(
        &self,
        stats: &SearchStats,
        members: &[MemberReport],
        rounds: usize,
        units: u64,
        provenance: &[ProvenanceEntry],
        single: bool,
    ) {
        let obs = self.obs;
        obs.add("core.search.nodes", stats.nodes_expanded());
        obs.add("core.search.leaves", stats.leaves_evaluated());
        obs.add("core.search.prunes_local", stats.prunes_local());
        obs.add("core.search.prunes_shared", stats.prunes_shared());
        obs.add("core.search.incumbent_updates", stats.incumbent_updates());
        obs.add("core.leaf.cutoffs", stats.leaf_cutoffs());
        let resumed: usize = members.iter().map(|m| m.resumed_units).sum();
        if resumed > 0 {
            obs.add("core.search.units_resumed", resumed as u64);
        }
        if single {
            return;
        }
        let count = |status| members.iter().filter(|m| m.status == status).count() as u64;
        obs.add("core.portfolio.rounds", rounds as u64);
        obs.add("core.portfolio.units", units);
        obs.add(
            "core.portfolio.incumbent_updates",
            provenance.len().saturating_sub(1) as u64,
        );
        obs.add(
            "core.portfolio.members_complete",
            count(MemberStatus::Complete),
        );
        obs.add(
            "core.portfolio.members_cancelled",
            count(MemberStatus::Cancelled),
        );
        obs.add(
            "core.portfolio.members_preempted",
            count(MemberStatus::Preempted),
        );
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn prefix_bits_follow_serial_order() {
        // Unit 0 is all-false (the first serial branch), the last unit
        // all-true, and bit k-1-d of the unit index drives depth d.
        let k = 3;
        let decoded: Vec<Vec<bool>> = (0..1usize << k)
            .map(|p| (0..k).map(|d| (p >> (k - 1 - d)) & 1 == 1).collect())
            .collect();
        assert_eq!(decoded[0], vec![false, false, false]);
        assert_eq!(decoded[1], vec![false, false, true]);
        assert_eq!(decoded[6], vec![true, true, false]);
        assert_eq!(decoded[7], vec![true, true, true]);
    }
}
