//! Shared harness for the experiment binaries.
//!
//! Each table/figure of the paper's evaluation has a binary that
//! regenerates it:
//!
//! | target | reproduces |
//! |--------|------------|
//! | `table1` | NAND2 version trade-offs (leakage + normalized delays) |
//! | `table2` | library cell-version counts, 4 vs 2 trade-off points |
//! | `table3` | Heu1 vs Heu2 across the suite at 5/10/25 % penalties |
//! | `table4` | proposed vs state-only vs state+Vt baselines |
//! | `table5` | library options: 4/2 trade-offs × individual/uniform stacks |
//! | `figure5` | leakage vs delay-penalty sweep for c7552 |
//! | `ablation` | design-choice ablations (reordering, Vt site, orders) |
//! | `temperature` | footnote-1 study: Igate share & Tox gain vs kelvin |
//! | `runtime_scaling` | Heuristic-1 runtime across the suite |
//!
//! Run with `cargo run --release -p svtox-bench --bin <target>`; pass
//! `--quick` for a fast smoke pass (fewer vectors, short Heuristic-2
//! budget, small circuits only).

use std::time::Duration;

use svtox_cells::{Library, LibraryOptions};
use svtox_core::{DelayPenalty, Mode, PortfolioConfig, Problem, RunOutcome, Solution};
use svtox_exec::{map_tasks, Budget, ExecConfig, RetryPolicy, SearchStats};
use svtox_netlist::generators::{benchmark, benchmark_names};
use svtox_netlist::Netlist;
use svtox_obs::Obs;
use svtox_sim::random_average_leakage_parallel;
use svtox_sta::TimingConfig;
use svtox_tech::{Current, Technology};

pub mod timing;

/// Harness configuration shared by the experiment binaries.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Reduced workload for smoke runs.
    pub quick: bool,
    /// Random vectors for the average-leakage baseline.
    pub vectors: usize,
    /// Heuristic-2 improvement budget per (circuit, penalty).
    pub h2_budget: Duration,
    /// Run each (circuit, penalty) through the full engine under this
    /// wall-clock budget instead of plain Heuristic 1, so entries carry
    /// genuine `RunOutcome` kinds (a tight budget degrades, typed).
    pub budget: Option<Duration>,
    /// Circuits to run (paper order).
    pub circuits: Vec<&'static str>,
}

impl BenchArgs {
    /// Parses process arguments (`--quick`, `--budget SECONDS`).
    ///
    /// # Panics
    ///
    /// Panics when `--budget` is missing its value or it is not a
    /// non-negative number of seconds.
    #[must_use]
    pub fn from_env() -> Self {
        let quick = std::env::args().any(|a| a == "--quick");
        let mut out = Self::new(quick);
        let mut args = std::env::args();
        while let Some(a) = args.next() {
            if a == "--budget" {
                let value = args.next().expect("--budget needs a value in seconds");
                let secs: f64 = value.parse().expect("--budget needs a number of seconds");
                out.budget =
                    Some(Duration::try_from_secs_f64(secs).expect("--budget must be >= 0"));
            }
        }
        out
    }

    /// Builds a configuration.
    #[must_use]
    pub fn new(quick: bool) -> Self {
        if quick {
            Self {
                quick,
                vectors: 500,
                h2_budget: Duration::from_millis(500),
                budget: None,
                circuits: vec!["c432", "c499", "c880"],
            }
        } else {
            Self {
                quick,
                vectors: 10_000,
                h2_budget: Duration::from_secs(8),
                budget: None,
                circuits: benchmark_names(),
            }
        }
    }
}

/// Builds the default characterized library.
///
/// # Panics
///
/// Panics if characterization fails (a bug, not an input error).
#[must_use]
pub fn default_library() -> Library {
    Library::new(Technology::predictive_65nm(), LibraryOptions::default())
        .expect("default library characterizes")
}

/// Builds a library with custom options.
///
/// # Panics
///
/// Panics if characterization fails.
#[must_use]
pub fn library_with(options: LibraryOptions) -> Library {
    Library::new(Technology::predictive_65nm(), options).expect("library characterizes")
}

/// One evaluated circuit with its baseline.
pub struct Instance<'a> {
    /// Circuit name.
    pub name: &'static str,
    /// The netlist.
    pub netlist: Netlist,
    /// Average leakage over random vectors (all-fast).
    pub average: Current,
    /// Library used.
    pub library: &'a Library,
}

impl<'a> Instance<'a> {
    /// Generates a suite circuit and its random-vector baseline.
    ///
    /// # Panics
    ///
    /// Panics on generator or library failure (bugs, not input errors).
    #[must_use]
    pub fn prepare(name: &'static str, library: &'a Library, vectors: usize) -> Self {
        Self::prepare_with_obs(name, library, vectors, Obs::disabled_ref())
    }

    /// [`Instance::prepare`] recording the baseline sampling (the
    /// `sim.vectors_sampled` counter and `sim.random_average` span) on
    /// `obs`.
    ///
    /// # Panics
    ///
    /// Panics on generator or library failure (bugs, not input errors).
    #[must_use]
    pub fn prepare_with_obs(
        name: &'static str,
        library: &'a Library,
        vectors: usize,
        obs: &Obs,
    ) -> Self {
        let netlist = benchmark(name).expect("known benchmark name");
        let average = random_average_leakage_parallel(
            &netlist,
            library,
            vectors,
            42,
            &ExecConfig::serial(),
            obs,
        )
        .expect("suite kinds are in the library")
        .total;
        Self {
            name,
            netlist,
            average,
            library,
        }
    }

    /// Builds the optimization problem for this instance.
    ///
    /// # Panics
    ///
    /// Panics on library failure.
    #[must_use]
    pub fn problem(&self) -> Problem<'_> {
        Problem::new(&self.netlist, self.library, TimingConfig::default())
            .expect("suite kinds are in the library")
    }

    /// Runs Heuristic 1 at a penalty.
    ///
    /// # Panics
    ///
    /// Panics on optimizer failure.
    #[must_use]
    pub fn heuristic1(&self, problem: &Problem<'_>, penalty: f64, mode: Mode) -> Solution {
        problem
            .optimizer(DelayPenalty::new(penalty).expect("penalty in range"), mode)
            .heuristic1()
            .expect("heuristic1 succeeds")
    }
}

/// One (circuit, penalty) result of a parallel suite run.
#[derive(Debug)]
pub struct SuiteEntry {
    /// Circuit name.
    pub circuit: &'static str,
    /// Delay penalty the optimization ran at.
    pub penalty: f64,
    /// Random-vector baseline of the all-fast circuit.
    pub average: Current,
    /// The solution (Heuristic 1, or the engine incumbent under
    /// [`BenchArgs::budget`]).
    pub solution: Solution,
    /// The `RunOutcome` kind: `complete` or `degraded` (a `failed`
    /// engine run is a bug and panics the harness).
    pub outcome: &'static str,
    /// The degradation reason, when degraded.
    pub reason: Option<String>,
    /// Winning portfolio strategy slug (engine path only; the classic
    /// Heuristic-1 path races nothing).
    pub winner: Option<&'static str>,
}

/// Runs the whole suite — one (circuit, penalty) Heuristic-1 optimization
/// per task — over the workers of `exec`.
///
/// Baselines are computed first (one task per circuit), then every
/// circuit × penalty pair becomes an independent optimization task. Both
/// stages return results in task order, so the output is identical for any
/// thread count; Heuristic 1 itself is deterministic, so the *solutions*
/// are too. The `core.*`, `sta.*`, and `sim.*` counters recorded on `obs`
/// are likewise thread-count invariant — every task does the same serial
/// work no matter which worker runs it (engine-shape counters like
/// `exec.steals` are scheduling-dependent by nature).
///
/// # Panics
///
/// Panics on generator, library, or optimizer failure (bugs, not input
/// errors) — including a panicking suite task surfacing from the engine.
#[must_use]
pub fn run_suite(
    args: &BenchArgs,
    penalties: &[f64],
    exec: &ExecConfig,
    obs: &Obs,
) -> (Vec<SuiteEntry>, SearchStats) {
    let _span = obs.span("bench.run_suite");
    let library = default_library();
    let (prepared, mut stats) = map_tasks(
        exec,
        args.circuits.len(),
        &Budget::unlimited(),
        obs,
        |_worker| (),
        |(), i, _ws| {
            Some(Instance::prepare_with_obs(
                args.circuits[i],
                &library,
                args.vectors,
                obs,
            ))
        },
    )
    .expect("baseline tasks do not panic");
    let instances: Vec<Instance<'_>> = prepared.into_iter().flatten().collect();
    let (entries, solve_stats) = map_tasks(
        exec,
        instances.len() * penalties.len(),
        &Budget::unlimited(),
        obs,
        |_worker| (),
        |(), t, _ws| {
            let inst = &instances[t / penalties.len()];
            let penalty = penalties[t % penalties.len()];
            let problem = inst.problem();
            let optimizer = problem
                .optimizer(
                    DelayPenalty::new(penalty).expect("penalty in range"),
                    Mode::Proposed,
                )
                .with_obs(obs);
            let (solution, outcome, reason, winner) = match args.budget {
                // The classic suite path: Heuristic 1, always complete.
                None => (
                    optimizer.heuristic1().expect("heuristic1 succeeds"),
                    "complete",
                    None,
                    None,
                ),
                // The engine path: the strategy portfolio, with a genuine
                // typed outcome and the winning strategy per entry. The
                // run is serial inside this task — the outer map_tasks
                // already owns the workers.
                Some(budget) => {
                    let run_exec = ExecConfig::serial()
                        .with_time_budget(budget)
                        .with_retries(RetryPolicy::resilient());
                    let portfolio = optimizer
                        .run_portfolio(
                            &run_exec,
                            &Budget::with_duration(budget),
                            &PortfolioConfig::default(),
                            None,
                        )
                        .unwrap_or_else(|error| panic!("suite engine run failed: {error}"));
                    let winner = Some(portfolio.winner.slug());
                    match portfolio.into_run_outcome() {
                        RunOutcome::Complete { solution, .. } => {
                            (solution, "complete", None, winner)
                        }
                        RunOutcome::Degraded { reason, best, .. } => {
                            (best, "degraded", Some(reason.to_string()), winner)
                        }
                        RunOutcome::Failed { error } => {
                            panic!("suite engine run failed: {error}")
                        }
                    }
                }
            };
            Some(SuiteEntry {
                circuit: inst.name,
                penalty,
                average: inst.average,
                solution,
                outcome,
                reason,
                winner,
            })
        },
    )
    .expect("optimization tasks do not panic");
    stats.absorb(&solve_stats);
    (entries.into_iter().flatten().collect(), stats)
}

/// Formats a current in the paper's µA with one decimal.
#[must_use]
pub fn ua(current: Current) -> String {
    format!("{:.1}", current.as_micro_amps())
}

/// Formats a reduction factor like the paper's `X` columns.
#[must_use]
pub fn x_factor(reference: Current, value: Current) -> String {
    format!("{:.1}", reference.value() / value.value())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_args_shrink_the_run() {
        let q = BenchArgs::new(true);
        let f = BenchArgs::new(false);
        assert!(q.vectors < f.vectors);
        assert!(q.h2_budget < f.h2_budget);
        assert!(q.circuits.len() < f.circuits.len());
        assert_eq!(f.circuits.len(), 11);
    }

    #[test]
    fn suite_runner_is_thread_count_invariant() {
        let args = BenchArgs {
            quick: true,
            vectors: 50,
            h2_budget: Duration::from_millis(10),
            budget: None,
            circuits: vec!["c432"],
        };
        let penalties = [0.05, 0.25];
        let (serial, _) = run_suite(
            &args,
            &penalties,
            &ExecConfig::serial(),
            Obs::disabled_ref(),
        );
        let (par, stats) = run_suite(
            &args,
            &penalties,
            &ExecConfig::with_threads(4),
            Obs::disabled_ref(),
        );
        assert_eq!(serial.len(), 2);
        assert_eq!(par.len(), 2);
        assert_eq!(stats.tasks_executed(), 3, "1 baseline + 2 optimizations");
        for (a, b) in serial.iter().zip(&par) {
            assert_eq!(a.circuit, b.circuit);
            assert_eq!(a.penalty, b.penalty);
            assert_eq!(a.average, b.average);
            assert_eq!(a.solution.vector, b.solution.vector);
            assert_eq!(a.solution.choices, b.solution.choices);
            assert_eq!(a.solution.leakage, b.solution.leakage);
        }
    }

    #[test]
    fn suite_counters_are_thread_count_invariant() {
        let args = BenchArgs {
            quick: true,
            vectors: 50,
            h2_budget: Duration::from_millis(10),
            budget: None,
            circuits: vec!["c432"],
        };
        let penalties = [0.05, 0.25];
        // Algorithmic counters (core.*, sta.*, sim.*) must not depend on
        // how tasks were scheduled; engine-shape counters (exec.steals,
        // span timings) legitimately do and are excluded.
        let mut reference = None;
        for threads in [1usize, 2, 4] {
            let obs = Obs::enabled();
            let _ = run_suite(&args, &penalties, &ExecConfig::with_threads(threads), &obs);
            let snap: Vec<(String, u64)> = obs
                .counter_snapshot()
                .into_iter()
                .filter(|(name, _)| {
                    name.starts_with("core.")
                        || name.starts_with("sta.")
                        || name.starts_with("sim.")
                })
                .collect();
            assert!(
                snap.iter().any(|(n, _)| n == "core.h1.leaves"),
                "optimizer counters present"
            );
            assert!(
                snap.iter()
                    .any(|(n, v)| n == "core.bound.rebounds" && *v > 0),
                "bound-tracker work counted"
            );
            assert!(
                snap.iter()
                    .any(|(n, v)| n == "sim.vectors_sampled" && *v == 50),
                "baseline sampling counted"
            );
            match &reference {
                None => reference = Some(snap),
                Some(expect) => assert_eq!(expect, &snap, "threads={threads}"),
            }
        }
    }

    #[test]
    fn zero_budget_entries_degrade_typed_and_deterministically() {
        let mut args = BenchArgs {
            quick: true,
            vectors: 50,
            h2_budget: Duration::from_millis(10),
            budget: Some(Duration::ZERO),
            circuits: vec!["c432"],
        };
        let penalties = [0.05, 0.25];
        let (degraded, _) = run_suite(
            &args,
            &penalties,
            &ExecConfig::serial(),
            Obs::disabled_ref(),
        );
        // A zero budget expires before the improvement pass moves: every
        // entry must report the typed degradation and sit exactly on the
        // Heuristic-1 seed the classic path produces.
        args.budget = None;
        let (h1, _) = run_suite(
            &args,
            &penalties,
            &ExecConfig::with_threads(4),
            Obs::disabled_ref(),
        );
        assert_eq!(degraded.len(), 2);
        for (d, h) in degraded.iter().zip(&h1) {
            assert_eq!(d.outcome, "degraded");
            assert_eq!(d.reason.as_deref(), Some("time budget expired"));
            // Nothing beats the seed inside a zero budget, so Heuristic 1
            // wins the portfolio; the classic path races nothing.
            assert_eq!(d.winner, Some("h1"));
            assert_eq!(h.outcome, "complete");
            assert_eq!(h.reason, None);
            assert_eq!(h.winner, None);
            assert_eq!(d.solution.vector, h.solution.vector);
            assert_eq!(d.solution.choices, h.solution.choices);
            assert_eq!(d.solution.leakage, h.solution.leakage);
        }
    }

    #[test]
    fn instance_prepares_and_solves() {
        let lib = default_library();
        let inst = Instance::prepare("c432", &lib, 100);
        let problem = inst.problem();
        let sol = inst.heuristic1(&problem, 0.05, Mode::Proposed);
        assert!(sol.leakage < inst.average);
        assert_eq!(ua(Current::new(24_540.0)), "24.5");
        assert_eq!(x_factor(Current::new(100.0), Current::new(20.0)), "5.0");
    }
}
