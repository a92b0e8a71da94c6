//! Implementation of the `svtox` command-line tool.
//!
//! Subcommands:
//!
//! * `optimize <circuit|file.bench>` — compute a standby vector and cell
//!   assignment; optionally write the sleep-gated netlist back out;
//! * `sweep <circuit>` — leakage vs delay-penalty curve (Figure-5 style);
//! * `library` — summarize or export the characterized library;
//! * `report` — per-gate trade-off-point histogram + critical path;
//! * `suite` — list the built-in benchmark reconstructions, or run the
//!   packed-vs-scalar simulation micro-benchmark (`--sim-bench`);
//! * `check` — run the property-based differential oracle suite
//!   (`svtox-check`) with per-property pass/fail/counterexample reporting;
//! * `chaos` — run named fault-injection scenarios and assert the
//!   degradation invariants (see [`chaos`]);
//! * `eco` — apply an edit script to a circuit and re-optimize
//!   incrementally, reporting what the warm restart reused.
//!
//! The binary (`src/main.rs`) is a thin shell over [`run`]; everything here
//! is unit-testable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod ecobench;
pub mod portbench;
pub mod simbench;

use std::error::Error;
use std::fmt::Write as _;
use std::time::Duration;

use std::collections::BTreeMap;

use svtox_cells::{to_liberty, Library, LibraryOptions, TradeoffPoints};
use svtox_core::{
    CheckpointSpec, DelayPenalty, ExecConfig, Mode, Plan, PortfolioOutcome, Problem, RetryPolicy,
    RunOutcome, Solution,
};
use svtox_fault::{Fault, FaultPlan};
use svtox_netlist::generators::{benchmark, BenchmarkProfile};
use svtox_netlist::{
    insert_sleep_vector, map_to_primitives, read_bench, read_verilog, strash, EditScript,
    MappingOptions, Netlist,
};
use svtox_obs::{JsonlSink, Obs};
use svtox_sim::{random_average_leakage, random_average_leakage_parallel, Simulator};
use svtox_sta::{GateConfig, Sta, TimingConfig};
use svtox_tech::{Current, Technology};

pub use chaos::{run_chaos, ChaosArgs};

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `optimize` subcommand.
    Optimize(OptimizeArgs),
    /// `sweep` subcommand.
    Sweep(SweepArgs),
    /// `library` subcommand.
    Library(LibraryArgs),
    /// `report` subcommand.
    Report(SweepArgs),
    /// `suite` subcommand.
    Suite(SuiteArgs),
    /// `check` subcommand.
    Check(CheckArgs),
    /// `chaos` subcommand.
    Chaos(ChaosArgs),
    /// `serve` subcommand.
    Serve(ServeArgs),
    /// `loadgen` subcommand.
    Loadgen(LoadgenArgs),
    /// `eco` subcommand.
    Eco(EcoArgs),
    /// `--help` or no arguments, or `--help`/`-h` after a subcommand.
    Help,
}

/// Every subcommand `parse_args` accepts.
const SUBCOMMANDS: [&str; 10] = [
    "optimize", "sweep", "report", "library", "suite", "check", "chaos", "serve", "loadgen", "eco",
];

/// Arguments of `svtox eco`.
#[derive(Debug, Clone, PartialEq)]
pub struct EcoArgs {
    /// Benchmark name or `.bench` file path (the pre-edit circuit).
    pub target: String,
    /// Edit-script file (`add`/`remove`/`rewire`/`retag` lines).
    pub edits: String,
    /// Delay penalty fraction.
    pub penalty: f64,
    /// Optimization mode.
    pub mode: Mode,
    /// Worker threads for the search engine (`0` = one per CPU).
    pub threads: usize,
    /// Wall-clock budget for each improvement pass.
    pub time_budget: Duration,
    /// Pre-edit checkpoint file whose recorded vectors seed the warm
    /// restart.
    pub checkpoint: Option<String>,
    /// Print the final counter/gauge table after the run.
    pub metrics: bool,
}

/// Arguments of `svtox serve`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Bind address (`host:port`; port `0` picks a free one).
    pub addr: String,
    /// Runner threads consuming the job queue.
    pub runners: usize,
    /// Bounded-queue depth; jobs beyond it are rejected with 503.
    pub queue_depth: usize,
    /// Deadline applied to jobs that do not bring their own.
    pub default_deadline: Duration,
    /// Fault plan injected into every job (chaos testing).
    pub fault_plan: Option<String>,
    /// Seed for probabilistic fault triggers.
    pub fault_seed: u64,
    /// Directory for the write-ahead job journal; enables crash
    /// recovery (replay on start, resume from checkpoints).
    pub journal: Option<std::path::PathBuf>,
}

/// Arguments of `svtox loadgen`.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenArgs {
    /// Target server address; `None` spawns an in-process server.
    pub addr: Option<String>,
    /// Total jobs to replay.
    pub jobs: usize,
    /// Concurrent client workers.
    pub concurrency: usize,
    /// Benchmark name or `.bench` file to submit with every job.
    pub target: String,
    /// Per-job deadline.
    pub deadline: Duration,
    /// Engine threads requested per job.
    pub threads: usize,
    /// Delay penalty in percent.
    pub penalty: f64,
    /// Monte-Carlo baseline vectors evaluated per job (`0` skips the
    /// baseline).
    pub vectors: usize,
    /// Emit the report as JSON instead of text.
    pub json: bool,
    /// Runner threads for the spawned server (ignored with `--addr`).
    pub runners: usize,
    /// Seed for the connection-retry backoff jitter.
    pub retry_seed: u64,
}

/// Arguments of `svtox suite`.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteArgs {
    /// Run the packed-vs-scalar simulation micro-benchmark instead of
    /// listing the benchmark reconstructions.
    pub sim_bench: bool,
    /// Run the portfolio-vs-single engine benchmark instead of listing
    /// the benchmark reconstructions.
    pub portfolio_bench: bool,
    /// Run the warm-ECO-vs-cold-restart benchmark instead of listing the
    /// benchmark reconstructions.
    pub eco_bench: bool,
    /// Vectors per packed estimator call in the micro-benchmark.
    pub vectors: usize,
    /// Deadline both engines run under (portfolio-bench only).
    pub deadline: Duration,
    /// Worker threads for the engines (portfolio-bench only; `0` = one
    /// per CPU).
    pub threads: usize,
    /// Write the JSON report to this path (bench modes only).
    pub out: Option<String>,
    /// Fail (non-zero exit) if the aggregate (sim-bench) or minimum
    /// per-circuit (eco-bench) speedup falls below this factor (`0`
    /// disables the gate).
    pub min_speedup: f64,
    /// Emit the report as JSON instead of text.
    pub json: bool,
}

impl Default for SuiteArgs {
    fn default() -> Self {
        Self {
            sim_bench: false,
            portfolio_bench: false,
            eco_bench: false,
            vectors: 4096,
            deadline: Duration::from_millis(1500),
            threads: 0,
            out: None,
            min_speedup: 0.0,
            json: false,
        }
    }
}

/// Arguments of `svtox check`.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckArgs {
    /// Fresh cases per property (scaled by per-property weights).
    pub cases: usize,
    /// Base seed for deterministic case generation.
    pub seed: u64,
    /// Maximum shrink candidates to try per failure.
    pub shrink_limit: usize,
    /// Worker threads (`0` = one per CPU; reports are identical for any
    /// count).
    pub threads: usize,
    /// Emit the report as JSON instead of text.
    pub json: bool,
    /// Corpus directory for replay-first and failure persistence.
    pub corpus: Option<String>,
    /// Run only properties whose name contains this substring.
    pub property: Option<String>,
    /// Replay exactly this stream seed (requires `--property`).
    pub replay: Option<u64>,
}

/// Arguments of `svtox optimize`.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeArgs {
    /// Benchmark name or `.bench` file path.
    pub target: String,
    /// Delay penalty fraction.
    pub penalty: f64,
    /// Optimization mode.
    pub mode: Mode,
    /// Which engine to run (`portfolio` is the default; `single` is the
    /// pre-portfolio branch-and-bound path).
    pub strategy: EngineStrategy,
    /// Run Heuristic 2 with this budget instead of Heuristic 1.
    pub heuristic2: Option<Duration>,
    /// Hill-climbing refinement passes after the heuristic.
    pub refine_passes: usize,
    /// Worker threads for the search engine (`0` = one per CPU).
    pub threads: usize,
    /// Wall-clock budget for the improvement pass (overrides
    /// `--heuristic2`'s budget when both are given).
    pub time_budget: Option<Duration>,
    /// Library options.
    pub library: LibraryOptions,
    /// Write the sleep-gated netlist to this `.bench` path.
    pub emit_sleep: Option<String>,
    /// Random vectors for the baseline column.
    pub vectors: usize,
    /// Write a JSONL event trace (spans, counters) to this path.
    pub trace: Option<String>,
    /// Print the final counter/gauge table after the run.
    pub metrics: bool,
    /// Record the explored-prefix frontier to this JSONL file.
    pub checkpoint: Option<String>,
    /// Replay an existing checkpoint before searching (needs
    /// `checkpoint`).
    pub resume: bool,
    /// Fault plan specification (`site:trigger` clauses; chaos testing).
    pub fault_plan: Option<String>,
    /// Seed for probabilistic fault triggers.
    pub fault_seed: u64,
}

/// The engine behind `svtox optimize`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineStrategy {
    /// Race H1, H2 (three branch orders), exact B&B and randomized
    /// restarts, sharing one incumbent (the default).
    Portfolio,
    /// The single-strategy parallel branch and bound only.
    Single,
}

/// Arguments of `svtox sweep`.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepArgs {
    /// Benchmark name or `.bench` file path.
    pub target: String,
    /// Penalty fractions to sweep.
    pub penalties: Vec<f64>,
}

/// Arguments of `svtox library`.
#[derive(Debug, Clone, PartialEq)]
pub struct LibraryArgs {
    /// Library options.
    pub options: LibraryOptions,
    /// Write Liberty-style text to this path.
    pub liberty_out: Option<String>,
}

/// Error with a user-facing message.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl Error for CliError {}

/// Usage text.
pub const USAGE: &str = "\
svtox — simultaneous standby-state, Vt and Tox assignment (DATE 2004)

USAGE:
  svtox optimize <circuit|file.bench> [--penalty PCT] [--mode proposed|vt|state]
                 [--strategy portfolio|single] [--heuristic2 SECONDS]
                 [--refine PASSES] [--two-option]
                 [--uniform-stack] [--no-reorder] [--vectors N]
                 [--threads N] [--time-budget SECONDS] [--emit-sleep FILE]
                 [--trace FILE] [--metrics] [--checkpoint FILE] [--resume]
                 [--fault-plan SPEC] [--fault-seed S]
  svtox sweep <circuit|file.bench> [--penalties 0,5,10,25,100]
  svtox library [--two-option] [--uniform-stack] [--liberty FILE]
  svtox report <circuit|file.bench> [--penalties 5]
  svtox suite [--sim-bench [--vectors N]]
              [--portfolio-bench] [--eco-bench]
              [--deadline SECONDS] [--threads N]
              [--min-speedup X] [--out FILE] [--json]
  svtox check [--cases N] [--seed S] [--shrink-limit K] [--threads N]
              [--json] [--corpus DIR] [--property NAME] [--replay STREAMSEED]
  svtox chaos <scenario>|--all [--seed S] [--threads N] [--target CIRCUIT]
  svtox serve [--addr HOST:PORT] [--runners N] [--queue-depth N]
              [--deadline SECONDS] [--journal DIR]
              [--fault-plan SPEC] [--fault-seed S]
  svtox loadgen [circuit|file.bench] [--addr HOST:PORT] [--jobs N]
                [--concurrency N] [--deadline SECONDS] [--threads N]
                [--penalty PCT] [--vectors N] [--runners N]
                [--retry-seed S] [--json]
  svtox eco <circuit|file.bench> --edits FILE [--penalty PCT]
            [--mode proposed|vt|state] [--threads N]
            [--time-budget SECONDS] [--checkpoint FILE] [--metrics]

`--help` or `-h` after any subcommand prints this text.

Circuits: built-in reconstructions (c432 … c7552, alu64), ISCAS-85/89
`.bench` files, or flat structural Verilog `.v` files (composite gates are
mapped onto the primitive library; flip-flops are extracted).

`optimize` runs the parallel search engine: `--threads N` sets the worker
count (0 = one per CPU; results are identical for any count) and
`--time-budget SECONDS` caps the branch-and-bound improvement pass (default
1 s, or the `--heuristic2` budget when given). By default a *portfolio* of
strategies races over the worker pool — H1, H2 under three branch orders,
exact branch-and-bound (small circuits) and seeded randomized restarts —
sharing one incumbent so any improvement tightens everyone's pruning
bound; the report names the winning strategy. `--strategy single` runs
one Heuristic 2 member on the same engine.

Observability: `--trace FILE` writes a JSONL event trace (spans, counters,
events) covering the optimizer, the timing analyzer, and the worker pool;
`--metrics` prints the final counter/gauge table after the run. Both are
off by default and cost nothing when off.

`check` runs the in-tree property-testing engine over the cross-crate
differential oracles. Failures are shrunk to minimal counterexamples and,
with `--corpus DIR`, persisted as `.case` files that replay before fresh
generation on the next run. `--property NAME` filters by substring;
`--replay STREAMSEED` re-runs one stored case (see tests/corpus/README.md).
The report is deterministic for a given seed, independent of `--threads`.

Robustness: `optimize --checkpoint FILE` appends every fully-explored
search unit to one JSONL file, for either strategy; `--resume` replays it
so a killed run finishes bit-identically to an uninterrupted one, at any
`--threads` (same circuit, penalty, mode and strategy required). `--fault-plan SPEC` injects deterministic
faults, e.g. `exec.dispatch:p=0.1,clock.skew:nth=1` (sites: exec.dispatch,
exec.pop, io.read, io.truncate, io.write, io.fsync, io.rename, clock.skew,
core.leaf; triggers: nth=N, every=N, p=F under `--fault-seed`). `chaos`
runs named scenarios (panic-storm, worker-loss, truncated-file,
clock-skew, kill-resume, serve-kill-job, client-disconnect,
serve-kill-restart-resume, journal-torn-write) asserting the degradation
invariants; any violation exits non-zero.

Service: `serve` runs the optimizer as a long-lived HTTP service —
`POST /jobs` submits a spec (`{\"circuit\":\"c432\",\"deadline_ms\":500}` or
inline `bench` text), `GET /jobs/ID` polls the typed outcome,
`GET /jobs/ID/events` streams JSONL progress, `POST /jobs/ID/cancel`
degrades a running job, and `GET /metrics` exposes the aggregated
counters. Admission is bounded (`--queue-depth`; overload answers 503)
and every job runs under a deadline (`--deadline` default when the spec
has none). Parsed netlists and characterized libraries are cached across
jobs by content hash (netlists by post-strash structural hash, so two
spellings of one circuit share an entry). Ctrl-C degrades in-flight jobs
and exits cleanly. `--journal DIR` makes jobs durable: every admission,
state transition and terminal outcome is appended to a write-ahead JSONL
journal, and a restarted server replays it — jobs finished since the
journal last compacted stay pollable, queued jobs re-enqueue, and
running jobs resume warm from their checkpoints to bit-identical
outcomes. The last 256 finished jobs stay in memory; older ids answer
410 Gone. Journal I/O errors degrade
the journal (counter `serve.journal.degraded`), never the service.
`loadgen` replays `--jobs N` concurrent jobs (against `--addr`, or an
in-process server by default) and reports throughput, latency
percentiles, cache hit rates, and — the hard invariants — zero hangs and
a typed outcome for every job; violations exit non-zero. Each job also
samples a `--vectors N` Monte-Carlo baseline (default 256; 0 disables).
Connection-refused/reset submissions retry with bounded seeded-jitter
backoff (`--retry-seed`), so a loadgen run spans a server restart.

`suite --sim-bench` measures the packed word-level simulation core
against the scalar reference estimator (vectors·gates per second) on a
sim-heavy circuit set; `--out FILE` records the JSON report and
`--min-speedup X` turns the aggregate speedup into a CI gate.
`suite --portfolio-bench` races the strategy portfolio against the
single-strategy engine at the same `--deadline` on the suite circuits,
reporting the winning strategy and final cost per circuit (`--json`, or
`--out results/BENCH_portfolio.json`); any circuit where the portfolio
ends above the single engine's cost fails the command.

ECO: `eco` applies an edit script to a circuit (`add t = NAND(a, b)`,
`remove t`, `rewire NET PIN NEWNET`, `retag OLDPO NEWPO`; `#` comments)
and re-optimizes the post-edit netlist with a warm restart: the pre-edit
solution's vector (and, with `--checkpoint FILE`, the vectors recorded by
a pre-edit `optimize --checkpoint` run) are re-evaluated as incumbents
that seed the shared pruning bound, so untouched cones are never searched
from scratch. The report shows the reused-vs-recomputed split — gates
carried over, warm candidates evaluated, and how few gates the
incremental timing analyzer had to revisit. The answer is bit-identical
to a cold re-run at any thread count. `suite --eco-bench` races that warm
restart against a cold restart on the suite circuits, both serial and
capped at the same number of evaluated leaves, and scores leaves to
quality (deterministic on any machine); `--min-speedup X` gates the
slowest circuit's ratio (CI records `results/BENCH_eco.json`).
";

/// Parses raw arguments (excluding the program name).
///
/// # Errors
///
/// Returns [`CliError`] with a message for unknown flags or bad values.
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let mut it = args.iter();
    let Some(sub) = it.next() else {
        return Ok(Command::Help);
    };
    if SUBCOMMANDS.contains(&sub.as_str())
        && it.as_slice().iter().any(|a| a == "--help" || a == "-h")
    {
        return Ok(Command::Help);
    }
    match sub.as_str() {
        "optimize" => {
            let mut target: Option<String> = None;
            let mut out = OptimizeArgs {
                target: String::new(),
                penalty: 0.05,
                mode: Mode::Proposed,
                strategy: EngineStrategy::Portfolio,
                heuristic2: None,
                refine_passes: 0,
                threads: 1,
                time_budget: None,
                library: LibraryOptions::default(),
                emit_sleep: None,
                vectors: 2000,
                trace: None,
                metrics: false,
                checkpoint: None,
                resume: false,
                fault_plan: None,
                fault_seed: 0,
            };
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--penalty" => out.penalty = pct(&mut it)? / 100.0,
                    "--mode" => {
                        out.mode = match next(&mut it, "--mode")?.as_str() {
                            "proposed" => Mode::Proposed,
                            "vt" => Mode::StateAndVt,
                            "state" => Mode::StateOnly,
                            other => return Err(CliError(format!("unknown mode `{other}`"))),
                        }
                    }
                    "--strategy" => {
                        out.strategy = match next(&mut it, "--strategy")?.as_str() {
                            "portfolio" => EngineStrategy::Portfolio,
                            "single" => EngineStrategy::Single,
                            other => {
                                return Err(CliError(format!(
                                    "unknown strategy `{other}` (portfolio|single)"
                                )))
                            }
                        }
                    }
                    "--heuristic2" => out.heuristic2 = Some(seconds(&mut it, "--heuristic2")?),
                    "--refine" => out.refine_passes = uint(&mut it, "--refine")?,
                    "--threads" => out.threads = uint(&mut it, "--threads")?,
                    "--time-budget" => {
                        out.time_budget = Some(seconds(&mut it, "--time-budget")?);
                    }
                    "--two-option" => {
                        out.library.tradeoff_points = TradeoffPoints::Two;
                    }
                    "--uniform-stack" => out.library.uniform_stack = true,
                    "--no-reorder" => out.library.pin_reordering = false,
                    "--vectors" => out.vectors = uint(&mut it, "--vectors")?,
                    "--emit-sleep" => out.emit_sleep = Some(next(&mut it, "--emit-sleep")?),
                    "--trace" => out.trace = Some(next(&mut it, "--trace")?),
                    "--metrics" => out.metrics = true,
                    "--checkpoint" => out.checkpoint = Some(next(&mut it, "--checkpoint")?),
                    "--resume" => out.resume = true,
                    "--fault-plan" => out.fault_plan = Some(next(&mut it, "--fault-plan")?),
                    "--fault-seed" => out.fault_seed = seed_u64(&mut it, "--fault-seed")?,
                    flag if flag.starts_with("--") => {
                        return Err(CliError(format!("unknown flag `{flag}`")))
                    }
                    positional => {
                        if target.is_some() {
                            return Err(CliError(format!(
                                "unexpected extra argument `{positional}`"
                            )));
                        }
                        target = Some(positional.to_string());
                    }
                }
            }
            if out.resume && out.checkpoint.is_none() {
                return Err(CliError(
                    "--resume needs --checkpoint to name the file to replay".into(),
                ));
            }
            out.target = target.ok_or_else(|| CliError("optimize needs a circuit".into()))?;
            Ok(Command::Optimize(out))
        }
        "sweep" | "report" => {
            let report = sub == "report";
            let mut target: Option<String> = None;
            let mut penalties = vec![0.0, 0.05, 0.10, 0.25, 1.0];
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--penalties" => {
                        let list = next(&mut it, "--penalties")?;
                        penalties = list
                            .split(',')
                            .map(|p| p.trim().parse::<f64>().map(|v| v / 100.0))
                            .collect::<Result<_, _>>()
                            .map_err(|e| CliError(format!("bad penalty list: {e}")))?;
                    }
                    flag if flag.starts_with("--") => {
                        return Err(CliError(format!("unknown flag `{flag}`")))
                    }
                    positional => target = Some(positional.to_string()),
                }
            }
            let args = SweepArgs {
                target: target.ok_or_else(|| CliError("sweep needs a circuit".into()))?,
                penalties,
            };
            Ok(if report {
                Command::Report(args)
            } else {
                Command::Sweep(args)
            })
        }
        "library" => {
            let mut args = LibraryArgs {
                options: LibraryOptions::default(),
                liberty_out: None,
            };
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--two-option" => args.options.tradeoff_points = TradeoffPoints::Two,
                    "--uniform-stack" => args.options.uniform_stack = true,
                    "--liberty" => args.liberty_out = Some(next(&mut it, "--liberty")?),
                    other => return Err(CliError(format!("unknown flag `{other}`"))),
                }
            }
            Ok(Command::Library(args))
        }
        "suite" => {
            let mut args = SuiteArgs::default();
            let mut timed = false;
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--sim-bench" => args.sim_bench = true,
                    "--portfolio-bench" => args.portfolio_bench = true,
                    "--eco-bench" => args.eco_bench = true,
                    "--vectors" => args.vectors = uint(&mut it, "--vectors")?,
                    "--deadline" => {
                        args.deadline = seconds(&mut it, "--deadline")?;
                        timed = true;
                    }
                    "--threads" => {
                        args.threads = uint(&mut it, "--threads")?;
                        timed = true;
                    }
                    "--out" => args.out = Some(next(&mut it, "--out")?),
                    "--min-speedup" => args.min_speedup = pct(&mut it)?,
                    "--json" => args.json = true,
                    other => return Err(CliError(format!("unknown flag `{other}`"))),
                }
            }
            let benches = usize::from(args.sim_bench)
                + usize::from(args.portfolio_bench)
                + usize::from(args.eco_bench);
            if benches > 1 {
                return Err(CliError(
                    "--sim-bench, --portfolio-bench and --eco-bench are mutually exclusive".into(),
                ));
            }
            if benches == 0 && (args.out.is_some() || args.min_speedup > 0.0) {
                return Err(CliError(
                    "--out/--min-speedup only apply with a bench mode".into(),
                ));
            }
            if args.min_speedup > 0.0 && args.portfolio_bench {
                return Err(CliError(
                    "--min-speedup only applies with --sim-bench or --eco-bench".into(),
                ));
            }
            if args.min_speedup < 0.0 {
                return Err(CliError("--min-speedup must be non-negative".into()));
            }
            if timed && args.eco_bench {
                return Err(CliError(
                    "--eco-bench races serial leaf-budgeted runs; --deadline/--threads do not apply"
                        .into(),
                ));
            }
            Ok(Command::Suite(args))
        }
        "check" => {
            let mut args = CheckArgs {
                cases: 256,
                seed: 4,
                shrink_limit: 1024,
                threads: 1,
                json: false,
                corpus: None,
                property: None,
                replay: None,
            };
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--cases" => args.cases = uint(&mut it, "--cases")?,
                    "--seed" => args.seed = seed_u64(&mut it, "--seed")?,
                    "--shrink-limit" => args.shrink_limit = uint(&mut it, "--shrink-limit")?,
                    "--threads" => args.threads = uint(&mut it, "--threads")?,
                    "--json" => args.json = true,
                    "--corpus" => args.corpus = Some(next(&mut it, "--corpus")?),
                    "--property" => args.property = Some(next(&mut it, "--property")?),
                    "--replay" => args.replay = Some(seed_u64(&mut it, "--replay")?),
                    other => return Err(CliError(format!("unknown flag `{other}`"))),
                }
            }
            if args.replay.is_some() && args.property.is_none() {
                return Err(CliError(
                    "--replay needs --property to name the case's property".into(),
                ));
            }
            if args.cases == 0 {
                return Err(CliError("--cases must be at least 1".into()));
            }
            Ok(Command::Check(args))
        }
        "chaos" => {
            let mut args = ChaosArgs {
                scenario: None,
                all: false,
                seed: 7,
                threads: 2,
                target: "c432".to_string(),
            };
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--all" => args.all = true,
                    "--seed" => args.seed = seed_u64(&mut it, "--seed")?,
                    "--threads" => args.threads = uint(&mut it, "--threads")?,
                    "--target" => args.target = next(&mut it, "--target")?,
                    flag if flag.starts_with("--") => {
                        return Err(CliError(format!("unknown flag `{flag}`")))
                    }
                    positional => {
                        if args.scenario.is_some() {
                            return Err(CliError(format!(
                                "unexpected extra argument `{positional}`"
                            )));
                        }
                        args.scenario = Some(positional.to_string());
                    }
                }
            }
            if args.all == args.scenario.is_some() {
                return Err(CliError(format!(
                    "chaos needs exactly one of --all or a scenario name ({})",
                    chaos::SCENARIOS.join(", ")
                )));
            }
            Ok(Command::Chaos(args))
        }
        "serve" => {
            let mut args = ServeArgs {
                addr: "127.0.0.1:7433".to_string(),
                runners: 2,
                queue_depth: 64,
                default_deadline: Duration::from_secs(2),
                fault_plan: None,
                fault_seed: 0,
                journal: None,
            };
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--addr" => args.addr = next(&mut it, "--addr")?,
                    "--runners" => args.runners = uint(&mut it, "--runners")?,
                    "--queue-depth" => args.queue_depth = uint(&mut it, "--queue-depth")?,
                    "--deadline" => args.default_deadline = seconds(&mut it, "--deadline")?,
                    "--fault-plan" => args.fault_plan = Some(next(&mut it, "--fault-plan")?),
                    "--fault-seed" => args.fault_seed = seed_u64(&mut it, "--fault-seed")?,
                    "--journal" => {
                        args.journal = Some(std::path::PathBuf::from(next(&mut it, "--journal")?));
                    }
                    other => return Err(CliError(format!("unknown flag `{other}`"))),
                }
            }
            if args.queue_depth == 0 {
                return Err(CliError("--queue-depth must be at least 1".into()));
            }
            Ok(Command::Serve(args))
        }
        "loadgen" => {
            let mut args = LoadgenArgs {
                addr: None,
                jobs: 50,
                concurrency: 8,
                target: "c432".to_string(),
                deadline: Duration::from_millis(200),
                threads: 1,
                penalty: 5.0,
                // The packed evaluator made per-job baselines cheap; the
                // default mix now samples 256 vectors in every job.
                vectors: 256,
                json: false,
                runners: 4,
                retry_seed: 7,
            };
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--addr" => args.addr = Some(next(&mut it, "--addr")?),
                    "--jobs" => args.jobs = uint(&mut it, "--jobs")?,
                    "--concurrency" => args.concurrency = uint(&mut it, "--concurrency")?,
                    "--deadline" => args.deadline = seconds(&mut it, "--deadline")?,
                    "--threads" => args.threads = uint(&mut it, "--threads")?,
                    "--penalty" => args.penalty = pct(&mut it)?,
                    "--vectors" => args.vectors = uint(&mut it, "--vectors")?,
                    "--json" => args.json = true,
                    "--runners" => args.runners = uint(&mut it, "--runners")?,
                    "--retry-seed" => args.retry_seed = seed_u64(&mut it, "--retry-seed")?,
                    flag if flag.starts_with("--") => {
                        return Err(CliError(format!("unknown flag `{flag}`")))
                    }
                    positional => args.target = positional.to_string(),
                }
            }
            if args.jobs == 0 {
                return Err(CliError("--jobs must be at least 1".into()));
            }
            Ok(Command::Loadgen(args))
        }
        "eco" => {
            let mut target: Option<String> = None;
            let mut args = EcoArgs {
                target: String::new(),
                edits: String::new(),
                penalty: 0.05,
                mode: Mode::Proposed,
                threads: 1,
                time_budget: Duration::from_secs(1),
                checkpoint: None,
                metrics: false,
            };
            let mut edits: Option<String> = None;
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--edits" => edits = Some(next(&mut it, "--edits")?),
                    "--penalty" => args.penalty = pct(&mut it)? / 100.0,
                    "--mode" => {
                        args.mode = match next(&mut it, "--mode")?.as_str() {
                            "proposed" => Mode::Proposed,
                            "vt" => Mode::StateAndVt,
                            "state" => Mode::StateOnly,
                            other => return Err(CliError(format!("unknown mode `{other}`"))),
                        }
                    }
                    "--threads" => args.threads = uint(&mut it, "--threads")?,
                    "--time-budget" => {
                        args.time_budget = seconds(&mut it, "--time-budget")?;
                    }
                    "--checkpoint" => args.checkpoint = Some(next(&mut it, "--checkpoint")?),
                    "--metrics" => args.metrics = true,
                    flag if flag.starts_with("--") => {
                        return Err(CliError(format!("unknown flag `{flag}`")))
                    }
                    positional => {
                        if target.is_some() {
                            return Err(CliError(format!(
                                "unexpected extra argument `{positional}`"
                            )));
                        }
                        target = Some(positional.to_string());
                    }
                }
            }
            args.target = target.ok_or_else(|| CliError("eco needs a circuit".into()))?;
            args.edits =
                edits.ok_or_else(|| CliError("eco needs --edits FILE (the edit script)".into()))?;
            Ok(Command::Eco(args))
        }
        "--help" | "-h" | "help" => Ok(Command::Help),
        other => Err(CliError(format!("unknown subcommand `{other}`"))),
    }
}

fn next(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<String, CliError> {
    it.next()
        .cloned()
        .ok_or_else(|| CliError(format!("{flag} needs a value")))
}

fn pct(it: &mut std::slice::Iter<'_, String>) -> Result<f64, CliError> {
    let raw = it
        .next()
        .ok_or_else(|| CliError("flag needs a numeric value".into()))?;
    raw.parse()
        .map_err(|_| CliError(format!("`{raw}` is not a number")))
}

/// Parses a non-negative integer flag value.
///
/// Counts (threads, passes, vectors) were previously routed through the
/// float parser and truncated with `as usize`, which silently accepted
/// `--threads 2.7` (as 2) and mapped `--threads -1` to an enormous count.
/// Integers are now parsed as integers; anything else is a clear error.
fn uint(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<usize, CliError> {
    let raw = it
        .next()
        .ok_or_else(|| CliError(format!("{flag} needs a value")))?;
    raw.parse::<usize>()
        .map_err(|_| CliError(format!("{flag} needs a non-negative integer, got `{raw}`")))
}

/// Parses a `u64` flag value (seeds exceed `usize` on 32-bit targets).
fn seed_u64(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<u64, CliError> {
    let raw = it
        .next()
        .ok_or_else(|| CliError(format!("{flag} needs a value")))?;
    raw.parse::<u64>()
        .map_err(|_| CliError(format!("{flag} needs a non-negative integer, got `{raw}`")))
}

fn seconds(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<Duration, CliError> {
    let secs = pct(it)?;
    Duration::try_from_secs_f64(secs).map_err(|_| {
        CliError(format!(
            "{flag} needs a non-negative number of seconds, got `{secs}`"
        ))
    })
}

/// Fault-aware netlist-file reader signature shared by the supported
/// formats.
type NetlistReader = fn(&std::path::Path, &Fault) -> Result<Netlist, svtox_netlist::NetlistError>;

/// Loads a circuit: a built-in benchmark name, a `.bench` file, or a flat
/// structural Verilog `.v` file (files are mapped to primitives).
///
/// # Errors
///
/// Returns [`CliError`] if no interpretation works.
pub fn load_circuit(target: &str) -> Result<Netlist, CliError> {
    load_circuit_faulted(target, Fault::disabled_ref())
}

/// [`load_circuit`] with file reads routed through a fault-injection
/// handle, so chaos runs can exercise the `io.read`/`io.truncate` sites.
///
/// # Errors
///
/// Returns [`CliError`] if no interpretation works — including injected
/// I/O failures, which surface here as typed errors, never panics.
pub fn load_circuit_faulted(target: &str, fault: &Fault) -> Result<Netlist, CliError> {
    let read: Option<NetlistReader> = if target.ends_with(".bench") {
        Some(read_bench)
    } else if target.ends_with(".v") {
        Some(read_verilog)
    } else {
        None
    };
    if let Some(read) = read {
        let raw = read(std::path::Path::new(target), fault)
            .map_err(|e| CliError(format!("{target}: {e}")))?;
        map_to_primitives(&raw, MappingOptions::default())
            .map_err(|e| CliError(format!("{target}: mapping failed: {e}")))
    } else {
        benchmark(target).map_err(|e| CliError(e.to_string()))
    }
}

/// What an ECO result may claim: only a search that ran to completion is
/// bit-identical to a cold re-run; a budget-cut one depends on timing.
fn eco_label(completed: bool) -> &'static str {
    if completed {
        "bit-identical to a cold re-run"
    } else {
        "budget expired: best found, not proven"
    }
}

/// Executes a parsed command, writing human-readable output into a string
/// (so tests can assert on it).
///
/// # Errors
///
/// Returns an error for I/O failures or optimization errors.
pub fn run(command: Command) -> Result<String, Box<dyn Error>> {
    let mut out = String::new();
    match command {
        Command::Help => out.push_str(USAGE),
        Command::Suite(args) => {
            if args.sim_bench {
                let report = simbench::run_sim_bench(args.vectors)?;
                let rendered = if args.json {
                    let mut json = report.render_json();
                    json.push('\n');
                    json
                } else {
                    report.render_text()
                };
                if let Some(path) = &args.out {
                    if let Some(dir) = std::path::Path::new(path).parent() {
                        if !dir.as_os_str().is_empty() {
                            std::fs::create_dir_all(dir)?;
                        }
                    }
                    let mut json = report.render_json();
                    json.push('\n');
                    std::fs::write(path, json)?;
                }
                if args.min_speedup > 0.0 && report.speedup < args.min_speedup {
                    return Err(Box::new(CliError(format!(
                        "sim-bench aggregate speedup {:.1}x is below the required {:.1}x\n{rendered}",
                        report.speedup, args.min_speedup
                    ))));
                }
                out.push_str(&rendered);
            } else if args.portfolio_bench {
                let report = portbench::run_portfolio_bench(args.deadline, args.threads)?;
                let rendered = if args.json {
                    let mut json = report.render_json();
                    json.push('\n');
                    json
                } else {
                    report.render_text()
                };
                if let Some(path) = &args.out {
                    if let Some(dir) = std::path::Path::new(path).parent() {
                        if !dir.as_os_str().is_empty() {
                            std::fs::create_dir_all(dir)?;
                        }
                    }
                    let mut json = report.render_json();
                    json.push('\n');
                    std::fs::write(path, json)?;
                }
                // The invariant the bench exists to watch: racing more
                // strategies over a shared incumbent never loses to the
                // single engine at the same deadline.
                if report.regressions > 0 {
                    return Err(Box::new(CliError(format!(
                        "portfolio-bench: {} circuit(s) regressed vs the single engine\n{rendered}",
                        report.regressions
                    ))));
                }
                out.push_str(&rendered);
            } else if args.eco_bench {
                let report = ecobench::run_eco_bench(ecobench::LEAVES)?;
                let rendered = if args.json {
                    let mut json = report.render_json();
                    json.push('\n');
                    json
                } else {
                    report.render_text()
                };
                if let Some(path) = &args.out {
                    if let Some(dir) = std::path::Path::new(path).parent() {
                        if !dir.as_os_str().is_empty() {
                            std::fs::create_dir_all(dir)?;
                        }
                    }
                    let mut json = report.render_json();
                    json.push('\n');
                    std::fs::write(path, json)?;
                }
                // The invariant the bench exists to watch: the warm
                // restart reaches the shared quality level faster than a
                // cold restart on every circuit.
                if args.min_speedup > 0.0 && report.min_speedup < args.min_speedup {
                    return Err(Box::new(CliError(format!(
                        "eco-bench minimum speedup {:.1}x is below the required {:.1}x\n{rendered}",
                        report.min_speedup, args.min_speedup
                    ))));
                }
                out.push_str(&rendered);
            } else {
                writeln!(
                    out,
                    "{:<8} {:>7} {:>8} {:>8}  realization",
                    "name", "inputs", "outputs", "gates"
                )?;
                for p in BenchmarkProfile::all() {
                    let n = p.build()?;
                    writeln!(
                        out,
                        "{:<8} {:>7} {:>8} {:>8}  {}",
                        p.name,
                        n.num_inputs(),
                        n.num_outputs(),
                        n.num_gates(),
                        realization_note(p.name)
                    )?;
                }
            }
        }
        Command::Check(args) => {
            // `fault.*` properties inject worker panics on purpose.
            svtox_fault::silence_injected_panics();
            let mut config =
                svtox_check::CheckConfig::new(args.cases, args.seed).with_threads(args.threads);
            config.shrink_limit = args.shrink_limit;
            config.replay = args.replay;
            if let Some(dir) = &args.corpus {
                config = config.with_corpus(dir);
            }
            let reports = svtox_check::run_builtin_suite(&config, args.property.as_deref());
            if reports.is_empty() {
                return Err(Box::new(CliError(format!(
                    "no property matches `{}`",
                    args.property.unwrap_or_default()
                ))));
            }
            let rendered = if args.json {
                svtox_check::render_json(args.seed, &reports).to_string()
            } else {
                svtox_check::render_text(&reports)
            };
            let failures = reports.iter().filter(|r| !r.passed()).count();
            if failures > 0 {
                // The report goes through the error path so the binary
                // exits non-zero and CI fails on unshrunk violations.
                return Err(Box::new(CliError(rendered)));
            }
            out.push_str(&rendered);
        }
        Command::Library(args) => {
            let lib = Library::new(Technology::predictive_65nm(), args.options)
                .map_err(|e| CliError(e.to_string()))?;
            writeln!(
                out,
                "characterized {} cells across {} kinds",
                lib.total_library_cells(),
                lib.cells().count()
            )?;
            let mut kinds: Vec<_> = lib.cells().map(|c| c.kind()).collect();
            kinds.sort();
            for kind in kinds {
                let cell = lib.cell(kind)?;
                writeln!(
                    out,
                    "  {:<6} {} versions",
                    kind.to_string(),
                    cell.num_library_versions()
                )?;
            }
            if let Some(path) = args.liberty_out {
                let text = to_liberty(&lib);
                std::fs::write(&path, &text)?;
                writeln!(out, "wrote {} bytes of Liberty to {path}", text.len())?;
            }
        }
        Command::Sweep(args) => {
            let netlist = load_circuit(&args.target)?;
            let lib = Library::new(Technology::predictive_65nm(), LibraryOptions::default())?;
            let problem = Problem::new(&netlist, &lib, TimingConfig::default())?;
            let avg = random_average_leakage(&netlist, &lib, 2000, 42)?;
            writeln!(
                out,
                "{}: average {:.2} µA",
                netlist.name(),
                avg.as_micro_amps()
            )?;
            writeln!(out, "{:>8} {:>12} {:>8}", "penalty", "leakage µA", "X")?;
            for p in args.penalties {
                let sol = problem
                    .optimizer(DelayPenalty::new(p)?, Mode::Proposed)
                    .heuristic1()?;
                writeln!(
                    out,
                    "{:>7.0}% {:>12.2} {:>8.1}",
                    p * 100.0,
                    sol.leakage.as_micro_amps(),
                    sol.reduction_vs(avg.total)
                )?;
            }
        }
        Command::Report(args) => {
            let netlist = load_circuit(&args.target)?;
            let lib = Library::new(Technology::predictive_65nm(), LibraryOptions::default())?;
            let problem = Problem::new(&netlist, &lib, TimingConfig::default())?;
            let penalty = DelayPenalty::new(*args.penalties.first().unwrap_or(&0.05))?;
            let sol = problem.optimizer(penalty, Mode::Proposed).heuristic1()?;
            writeln!(
                out,
                "{netlist} at a {:.0}% penalty",
                penalty.fraction() * 100.0
            )?;
            // Version-usage histogram: which trade-off points the gate tree
            // actually picked.
            let mut sim = Simulator::new(&netlist);
            sim.set_inputs(&sol.vector);
            let mut sta = Sta::new(&netlist, &lib, problem.timing())?;
            let mut histogram: BTreeMap<String, usize> = BTreeMap::new();
            for (gid, gate) in netlist.gates() {
                let state = sim.gate_state(gid);
                let opt = problem.option(gate.kind(), state, sol.choices[gid.index()]);
                let cell = lib.cell(gate.kind())?;
                let label = cell.version(opt.version()).label();
                let family = label.split('@').next().unwrap_or(label);
                *histogram.entry(family.to_string()).or_insert(0) += 1;
                sta.set_gate(gid, GateConfig::from(opt));
            }
            writeln!(out, "\nchosen trade-off points:")?;
            for (family, count) in &histogram {
                writeln!(
                    out,
                    "  {:<10} {:>6} gates ({:.0}%)",
                    family,
                    count,
                    100.0 * *count as f64 / netlist.num_gates() as f64
                )?;
            }
            writeln!(
                out,
                "\ncritical path ({:.1} of budget {:.1}):",
                sta.max_delay(),
                problem.delay_budget(penalty)
            )?;
            for gid in sta.critical_path() {
                let gate = netlist.gate(gid);
                let (rise, fall) = sta.arrival(gate.output());
                let state = sim.gate_state(gid);
                let opt = problem.option(gate.kind(), state, sol.choices[gid.index()]);
                writeln!(
                    out,
                    "  {:<18} {:<6} state {:<4} {:<12} arr {:.1}",
                    netlist.net(gate.output()).name(),
                    gate.kind().to_string(),
                    state.to_string(),
                    lib.cell(gate.kind())?.version(opt.version()).label(),
                    rise.max(fall)
                )?;
            }
        }
        Command::Chaos(args) => {
            out.push_str(&run_chaos(&args)?);
        }
        Command::Serve(args) => {
            let config = svtox_serve::ServerConfig {
                addr: args.addr.clone(),
                runners: args.runners.max(1),
                queue_depth: args.queue_depth,
                default_deadline: args.default_deadline,
                fault_plan: args.fault_plan.clone(),
                fault_seed: args.fault_seed,
                journal: args.journal.clone(),
                ..svtox_serve::ServerConfig::default()
            };
            let handle = svtox_serve::start(config).map_err(|e| CliError(format!("serve: {e}")))?;
            // Printed immediately (not buffered into `out`) so scripts can
            // read the resolved port while the server runs.
            println!("svtox-serve listening on http://{}", handle.addr());
            println!(
                "POST /jobs · GET /jobs/ID · GET /jobs/ID/events · GET /metrics; \
                 Ctrl-C or POST /shutdown stops"
            );
            let sigint = svtox_serve::sigint_token();
            let shutdown = handle.shutdown_token();
            while !sigint.is_cancelled() && !shutdown.is_cancelled() {
                std::thread::sleep(Duration::from_millis(50));
            }
            handle.shutdown();
            writeln!(out, "svtox-serve: shut down cleanly")?;
        }
        Command::Loadgen(args) => {
            if args.target.ends_with(".v") {
                return Err(Box::new(CliError(
                    "loadgen submits `.bench` text over the wire; \
                     convert the Verilog first (svtox optimize --emit-sleep)"
                        .into(),
                )));
            }
            let (circuit, bench) = if args.target.ends_with(".bench") {
                let text = std::fs::read_to_string(&args.target)
                    .map_err(|e| CliError(format!("{}: {e}", args.target)))?;
                (None, Some(text))
            } else {
                (Some(args.target.clone()), None)
            };
            let config = svtox_serve::LoadgenConfig {
                addr: args.addr.clone(),
                jobs: args.jobs,
                concurrency: args.concurrency.max(1),
                circuit,
                bench,
                deadline: args.deadline,
                threads: args.threads,
                penalty_pct: args.penalty,
                vectors: args.vectors,
                retry_seed: args.retry_seed,
                server: svtox_serve::ServerConfig {
                    runners: args.runners.max(1),
                    ..svtox_serve::ServerConfig::default()
                },
                ..svtox_serve::LoadgenConfig::default()
            };
            let report = svtox_serve::loadgen::run(&config)
                .map_err(|e| CliError(format!("loadgen: {e}")))?;
            let rendered = if args.json {
                let mut json = report.render_json();
                json.push('\n');
                json
            } else {
                report.render_text()
            };
            // The acceptance invariants are load-bearing: a hang, a dead
            // metrics endpoint, or an unclean shutdown fails the command.
            if report.hangs > 0 || !report.metrics_ok || !report.clean_shutdown {
                return Err(Box::new(CliError(format!(
                    "loadgen invariants violated:\n{rendered}"
                ))));
            }
            out.push_str(&rendered);
        }
        Command::Eco(args) => {
            let pre = load_circuit(&args.target)?;
            let text = std::fs::read_to_string(&args.edits)
                .map_err(|e| CliError(format!("{}: {e}", args.edits)))?;
            let script =
                EditScript::parse(&text).map_err(|e| CliError(format!("{}: {e}", args.edits)))?;
            let lib = Library::new(Technology::predictive_65nm(), LibraryOptions::default())?;
            let penalty = DelayPenalty::new(args.penalty)?;
            let exec = ExecConfig::with_threads(args.threads)
                .with_time_budget(args.time_budget)
                .with_retries(RetryPolicy::resilient());
            let obs = Obs::enabled();

            // The pre-edit run: the solution an ECO flow has on hand.
            let pre_problem = Problem::new(&pre, &lib, TimingConfig::default())?;
            let pre_opt = pre_problem.optimizer(penalty, args.mode).with_obs(&obs);
            let prev = match pre_opt.run(&exec, None) {
                RunOutcome::Failed { error } => return Err(Box::new(error)),
                outcome => outcome
                    .best()
                    .expect("a non-failed run has a solution")
                    .clone(),
            };

            // Apply the script and split the netlist's dirty set off for
            // the incremental timing analyzer.
            let mut post = pre.clone();
            let trace = script
                .apply(&mut post)
                .map_err(|e| CliError(format!("{}: {e}", args.edits)))?;
            let dirty = post.take_dirty();

            // Incremental timing: carry the pre-edit analyzer's state and
            // re-evaluate only the edit's cone.
            let mut pre_sta = Sta::new(&pre, &lib, pre_problem.timing())?;
            let _ = pre_sta.max_delay();
            let mut inc_sta = Sta::new_incremental(
                &post,
                &lib,
                TimingConfig::default(),
                &mut pre_sta,
                &trace.gate_map,
                &trace.net_map,
                &dirty,
            )?;
            let post_delay = inc_sta.max_delay();
            let sta_counters = inc_sta.counters();

            // Structural-hash census of the post-edit netlist (did the
            // edit introduce structurally duplicate gates?).
            let (_, strash_stats) = strash(&post);
            obs.add("netlist.strash.hits", strash_stats.hits);
            obs.add("netlist.strash.misses", strash_stats.misses);

            // Warm re-optimization, seeded by the pre-edit solution and
            // any checkpointed vectors.
            let post_problem = Problem::new(&post, &lib, TimingConfig::default())?;
            let post_opt = post_problem.optimizer(penalty, args.mode).with_obs(&obs);
            let report = post_opt.rerun_after_edit(
                &exec,
                Some(&prev),
                &trace,
                args.checkpoint.as_deref().map(std::path::Path::new),
                None,
            )?;
            report.solution.verify(&post_problem)?;

            writeln!(
                out,
                "circuit  : {} — {} gates, {} after {} edit op(s)",
                pre.name(),
                pre.num_gates(),
                post.num_gates(),
                script.len()
            )?;
            writeln!(
                out,
                "edits    : {} added, {} removed, {} rewired pin(s), {} retagged output(s)",
                trace.added_gates, trace.removed_gates, trace.rewired_pins, trace.retagged_outputs
            )?;
            writeln!(
                out,
                "pre-edit : {:.2} µA at delay {:.1}",
                prev.leakage.as_micro_amps(),
                prev.delay
            )?;
            writeln!(
                out,
                "sta      : incremental re-analysis evaluated {} of {} gates \
                 ({} full analyzes), post-edit delay {post_delay:.1}",
                sta_counters.gates_reevaluated,
                post.num_gates(),
                sta_counters.full_analyzes
            )?;
            writeln!(
                out,
                "strash   : {} structurally duplicate gate(s) in the post-edit netlist",
                strash_stats.hits
            )?;
            writeln!(
                out,
                "warm     : {} candidate(s), {} evaluated{}{}",
                report.warm.candidates,
                report.warm.evaluated,
                report.warm.best.map_or_else(String::new, |b| format!(
                    ", best {:.2} µA",
                    Current::new(b).as_micro_amps()
                )),
                if args.checkpoint.is_some() {
                    format!(" ({} from the checkpoint)", report.checkpoint_vectors)
                } else {
                    String::new()
                }
            )?;
            writeln!(
                out,
                "reuse    : {}/{} gates carried over ({:.1}%)",
                report.gates_carried,
                report.gates_total,
                report.carry_ratio() * 100.0
            )?;
            writeln!(
                out,
                "result   : {:.2} µA, delay {:.1} of budget {:.1} ({})",
                report.solution.leakage.as_micro_amps(),
                report.solution.delay,
                post_problem.delay_budget(penalty),
                eco_label(report.stats.completed)
            )?;
            writeln!(out, "engine   : {}", report.stats)?;
            let vector: String = report
                .solution
                .vector
                .iter()
                .map(|&b| if b { '1' } else { '0' })
                .collect();
            writeln!(out, "vector   : {vector}")?;
            obs.emit_counters();
            if args.metrics {
                writeln!(out, "\nmetrics:")?;
                out.push_str(&obs.render_metrics());
            }
        }
        Command::Optimize(args) => {
            // Fault injection is opt-in; the disabled handle costs one
            // branch per site query.
            let fault = match &args.fault_plan {
                Some(spec) => {
                    let plan = FaultPlan::parse(spec, args.fault_seed)
                        .map_err(|e| CliError(format!("--fault-plan: {e}")))?;
                    Fault::new(&plan)
                }
                None => Fault::disabled(),
            };
            let netlist = load_circuit_faulted(&args.target, &fault)?;
            // Observability is opt-in: a disabled handle keeps every probe
            // on the branch-only fast path.
            let obs = if args.trace.is_some() || args.metrics {
                Obs::enabled()
            } else {
                Obs::disabled()
            };
            if let Some(path) = &args.trace {
                let sink = JsonlSink::to_file(path)
                    .map_err(|e| CliError(format!("cannot create trace file {path}: {e}")))?;
                obs.set_sink(Box::new(sink));
            }
            let lib = {
                let _span = obs.span("cells.library");
                Library::new(Technology::predictive_65nm(), args.library)?
            };
            obs.add("cells.stack_solves", lib.stack_solves() as u64);
            obs.add("cells.arc_tables", lib.arc_tables() as u64);
            let problem = {
                let _span = obs.span("core.problem");
                Problem::new(&netlist, &lib, TimingConfig::default())?
            };
            let tfo_members = (0..netlist.num_inputs()).map(|i| problem.tfo(i).len());
            obs.add("core.tfo.members", tfo_members.sum::<usize>() as u64);
            // The improvement pass always runs under the engine: default to
            // a short budget, let --heuristic2 or --time-budget widen it.
            let budget = args
                .time_budget
                .or(args.heuristic2)
                .unwrap_or(Duration::from_secs(1));
            let exec = ExecConfig::with_threads(args.threads)
                .with_time_budget(budget)
                .with_retries(RetryPolicy::resilient());
            let ckpt = args.checkpoint.as_ref().map(|path| {
                if args.resume {
                    CheckpointSpec::resume(path)
                } else {
                    CheckpointSpec::fresh(path)
                }
            });
            let (sol, stats, status, avg, portfolio) = {
                let _span = obs.span("cli.optimize");
                let avg =
                    random_average_leakage_parallel(&netlist, &lib, args.vectors, 42, &exec, &obs)?;
                let optimizer = problem
                    .optimizer(DelayPenalty::new(args.penalty)?, args.mode)
                    .with_obs(&obs)
                    .with_fault(&fault);
                // Ctrl-C rides the same machinery as the wall-clock
                // deadline: the first SIGINT cancels the linked token, the
                // run flushes its checkpoint and returns
                // `Degraded { Cancelled }`; a second SIGINT force-exits.
                let budget = exec.budget_linked(&fault, svtox_serve::sigint_token());
                let (outcome, portfolio): (RunOutcome, Option<PortfolioOutcome>) =
                    match args.strategy {
                        EngineStrategy::Portfolio => {
                            let plan = Plan::default();
                            match optimizer.run_portfolio(&exec, &budget, &plan, ckpt.as_ref()) {
                                Ok(p) => (p.clone().into_run_outcome(), Some(p)),
                                Err(error) => (RunOutcome::Failed { error }, None),
                            }
                        }
                        EngineStrategy::Single => (
                            optimizer.run_with_budget(&exec, &budget, ckpt.as_ref()),
                            None,
                        ),
                    };
                let (mut sol, stats, status): (Solution, _, String) = match outcome {
                    RunOutcome::Failed { error } => return Err(Box::new(error)),
                    RunOutcome::Complete { solution, stats } => {
                        (solution, stats, "complete".to_string())
                    }
                    RunOutcome::Degraded {
                        reason,
                        best,
                        stats,
                    } => (best, stats, format!("degraded ({reason})")),
                };
                if args.refine_passes > 0 {
                    sol = optimizer.refine(sol, args.refine_passes)?;
                }
                (sol, stats, status, avg, portfolio)
            };
            sol.verify(&problem)?;
            let (isub, igate) = sol.leakage_breakdown(&problem)?;
            writeln!(out, "circuit  : {netlist}")?;
            writeln!(
                out,
                "baseline : {:.2} µA avg over {} random vectors (Igate share {:.0}%)",
                avg.as_micro_amps(),
                args.vectors,
                avg.igate_share() * 100.0
            )?;
            writeln!(
                out,
                "result   : {:.2} µA ({:.1}x) — Isub {:.2} µA, Igate {:.2} µA",
                sol.leakage.as_micro_amps(),
                sol.reduction_vs(avg.total),
                isub.as_micro_amps(),
                igate.as_micro_amps()
            )?;
            writeln!(
                out,
                "delay    : {:.1} of budget {:.1} (D_fast {:.1}, D_slow {:.1})",
                sol.delay,
                problem.delay_budget(DelayPenalty::new(args.penalty)?),
                problem.d_fast(),
                problem.d_slow()
            )?;
            writeln!(
                out,
                "runtime  : {:.2?}, {} leaves",
                sol.runtime, sol.leaves_explored
            )?;
            writeln!(out, "engine   : {stats}")?;
            writeln!(out, "status   : {status}")?;
            if let Some(p) = &portfolio {
                writeln!(
                    out,
                    "portfolio: winner {} after {} rounds{}",
                    p.winner,
                    p.rounds,
                    if p.proven_optimal {
                        " (proven optimal)"
                    } else {
                        ""
                    }
                )?;
                for m in &p.members {
                    writeln!(
                        out,
                        "  {:<15} {:<9} {:>3}/{:<3} units, best {}, {} incumbent updates",
                        m.strategy.slug(),
                        m.status.to_string(),
                        m.units_done,
                        m.units_total,
                        m.best_cost.map_or_else(
                            || "n/a".to_string(),
                            |c| format!("{:.2} µA", Current::new(c).as_micro_amps())
                        ),
                        m.incumbent_updates
                    )?;
                }
            }
            if let Some(path) = &args.checkpoint {
                writeln!(out, "checkpoint: {path}")?;
            }
            let vector: String = sol
                .vector
                .iter()
                .map(|&b| if b { '1' } else { '0' })
                .collect();
            writeln!(out, "vector   : {vector}")?;
            if let Some(path) = args.emit_sleep {
                let gated = insert_sleep_vector(&netlist, &sol.vector)?;
                std::fs::write(&path, gated.to_bench())?;
                writeln!(
                    out,
                    "wrote sleep-gated netlist ({} gates) to {path}",
                    gated.num_gates()
                )?;
            }
            // Final counter values go into the trace (and the --metrics
            // table) after all spans above have closed.
            obs.emit_counters();
            obs.flush();
            if args.metrics {
                writeln!(out, "\nmetrics:")?;
                out.push_str(&obs.render_metrics());
            }
            if let Some(path) = &args.trace {
                writeln!(out, "wrote event trace to {path}")?;
            }
        }
    }
    Ok(out)
}

fn realization_note(name: &str) -> &'static str {
    match name {
        "c6288" => "16x16 array multiplier (functional)",
        "alu64" => "64-bit ALU (functional)",
        "c499" => "32-bit SEC decoder (functional)",
        "c1355" => "32-bit SEC decoder, NAND2-expanded (functional)",
        _ => "calibrated random DAG (profile-matched)",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_optimize() {
        let cmd = parse_args(&argv(
            "optimize c432 --penalty 10 --mode vt --two-option --vectors 100",
        ))
        .unwrap();
        let Command::Optimize(args) = cmd else {
            panic!("wrong command")
        };
        assert_eq!(args.target, "c432");
        assert!((args.penalty - 0.10).abs() < 1e-12);
        assert_eq!(args.mode, Mode::StateAndVt);
        assert_eq!(args.library.tradeoff_points, TradeoffPoints::Two);
        assert_eq!(args.vectors, 100);
    }

    #[test]
    fn an_unknown_circuit_name_says_so() {
        let err = load_circuit("c17").unwrap_err().to_string();
        assert!(err.starts_with("unknown built-in circuit `c17`"), "{err}");
        assert!(err.contains("c432"), "{err}");
    }

    #[test]
    fn parses_eco() {
        let cmd = parse_args(&argv(
            "eco c432 --edits fix.eco --penalty 10 --threads 2 --time-budget 0.5 \
             --checkpoint pre.ckpt --metrics",
        ))
        .unwrap();
        let Command::Eco(args) = cmd else {
            panic!("wrong command")
        };
        assert_eq!(args.target, "c432");
        assert_eq!(args.edits, "fix.eco");
        assert!((args.penalty - 0.10).abs() < 1e-12);
        assert_eq!(args.threads, 2);
        assert_eq!(args.time_budget, Duration::from_millis(500));
        assert_eq!(args.checkpoint.as_deref(), Some("pre.ckpt"));
        assert!(args.metrics);
        // Both the circuit and the edit script are mandatory.
        assert!(parse_args(&argv("eco --edits fix.eco")).is_err());
        assert!(parse_args(&argv("eco c432")).is_err());
    }

    /// The result line's label follows the engine line: a budget-cut run
    /// must not claim bit-identity. A fast machine may finish inside the
    /// budget, so the test reads the outcome instead of assuming it.
    #[test]
    fn eco_result_label_agrees_with_completion() {
        let edits =
            std::env::temp_dir().join(format!("svtox-eco-label-{}.eco", std::process::id()));
        std::fs::write(
            &edits,
            "add t0 = NAND(pi0, pi1)\nadd t1 = NOT(t0)\nrewire _w171 0 t1\n",
        )
        .unwrap();
        let cmd = parse_args(&argv(&format!(
            "eco c432 --edits {} --threads 1 --time-budget 0.01",
            edits.display()
        )))
        .unwrap();
        let out = run(cmd);
        std::fs::remove_file(&edits).ok();
        let out = out.unwrap();
        let line = |tag: &str| {
            out.lines()
                .find(|l| l.starts_with(tag))
                .unwrap_or_else(|| panic!("no `{tag}` line in {out}"))
        };
        let completed = !line("engine").contains("(budget expired)");
        assert!(
            line("result").ends_with(&format!("({})", eco_label(completed))),
            "{out}"
        );
    }

    #[test]
    fn parses_suite_eco_bench() {
        let cmd = parse_args(&argv(
            "suite --eco-bench --min-speedup 2 --out results/BENCH_eco.json",
        ))
        .unwrap();
        let Command::Suite(args) = cmd else {
            panic!("wrong command")
        };
        assert!(args.eco_bench);
        assert!((args.min_speedup - 2.0).abs() < 1e-12);
        assert_eq!(args.out.as_deref(), Some("results/BENCH_eco.json"));
        // Bench modes stay mutually exclusive, and the speedup gate does
        // not apply to the portfolio bench.
        assert!(parse_args(&argv("suite --eco-bench --sim-bench")).is_err());
        // The eco race is serial and leaf-budgeted: no clock, no pool.
        assert!(parse_args(&argv("suite --eco-bench --deadline 3")).is_err());
        assert!(parse_args(&argv("suite --eco-bench --threads 4")).is_err());
        assert!(parse_args(&argv("suite --portfolio-bench --min-speedup 2")).is_err());
    }

    #[test]
    fn parses_refine_flag() {
        let cmd = parse_args(&argv("optimize c432 --refine 3")).unwrap();
        let Command::Optimize(args) = cmd else {
            panic!("wrong command")
        };
        assert_eq!(args.refine_passes, 3);
    }

    #[test]
    fn parses_engine_flags() {
        let cmd = parse_args(&argv("optimize c432 --threads 8 --time-budget 2.5")).unwrap();
        let Command::Optimize(args) = cmd else {
            panic!("wrong command")
        };
        assert_eq!(args.threads, 8);
        assert_eq!(args.time_budget, Some(Duration::from_secs_f64(2.5)));
        // Defaults: one worker, no explicit budget.
        let Command::Optimize(defaults) = parse_args(&argv("optimize c432")).unwrap() else {
            panic!("wrong command")
        };
        assert_eq!(defaults.threads, 1);
        assert_eq!(defaults.time_budget, None);
        // Negative and non-finite budgets are rejected, not panicked on.
        assert!(parse_args(&argv("optimize c432 --time-budget -1")).is_err());
        assert!(parse_args(&argv("optimize c432 --heuristic2 NaN")).is_err());
    }

    #[test]
    fn parses_check() {
        let cmd = parse_args(&argv(
            "check --cases 64 --seed 4 --shrink-limit 200 --threads 4 --json \
             --corpus tests/corpus --property rng.",
        ))
        .unwrap();
        let Command::Check(args) = cmd else {
            panic!("wrong command")
        };
        assert_eq!(args.cases, 64);
        assert_eq!(args.seed, 4);
        assert_eq!(args.shrink_limit, 200);
        assert_eq!(args.threads, 4);
        assert!(args.json);
        assert_eq!(args.corpus.as_deref(), Some("tests/corpus"));
        assert_eq!(args.property.as_deref(), Some("rng."));
        // Defaults.
        let Command::Check(defaults) = parse_args(&argv("check")).unwrap() else {
            panic!("wrong command")
        };
        assert_eq!(defaults.cases, 256);
        assert_eq!(defaults.seed, 4);
        assert_eq!(defaults.threads, 1);
        assert!(!defaults.json);
        // --replay requires --property; zero cases are rejected.
        assert!(parse_args(&argv("check --replay 7")).is_err());
        assert!(parse_args(&argv("check --cases 0")).is_err());
        assert!(parse_args(&argv("check --seed -3")).is_err());
        // Seeds beyond usize::MAX on 32-bit targets still parse.
        let big = u64::MAX.to_string();
        let Command::Check(args) = parse_args(&argv(&format!("check --seed {big}"))).unwrap()
        else {
            panic!("wrong command")
        };
        assert_eq!(args.seed, u64::MAX);
    }

    #[test]
    fn parses_serve() {
        let cmd = parse_args(&argv(
            "serve --addr 127.0.0.1:0 --runners 4 --queue-depth 8 --deadline 1.5 \
             --fault-plan core.leaf:nth=5 --fault-seed 7 --journal /tmp/wal",
        ))
        .unwrap();
        let Command::Serve(args) = cmd else {
            panic!("wrong command")
        };
        assert_eq!(args.addr, "127.0.0.1:0");
        assert_eq!(args.runners, 4);
        assert_eq!(args.queue_depth, 8);
        assert_eq!(args.default_deadline, Duration::from_secs_f64(1.5));
        assert_eq!(args.fault_plan.as_deref(), Some("core.leaf:nth=5"));
        assert_eq!(args.fault_seed, 7);
        assert_eq!(
            args.journal.as_deref(),
            Some(std::path::Path::new("/tmp/wal"))
        );
        // Defaults.
        let Command::Serve(defaults) = parse_args(&argv("serve")).unwrap() else {
            panic!("wrong command")
        };
        assert_eq!(defaults.addr, "127.0.0.1:7433");
        assert_eq!(defaults.runners, 2);
        assert_eq!(defaults.queue_depth, 64);
        assert_eq!(defaults.default_deadline, Duration::from_secs(2));
        assert_eq!(defaults.journal, None, "durability is opt-in");
        // A zero-depth queue could admit nothing; reject it typed.
        assert!(parse_args(&argv("serve --queue-depth 0")).is_err());
    }

    #[test]
    fn parses_loadgen() {
        let cmd = parse_args(&argv(
            "loadgen c880 --addr 127.0.0.1:7433 --jobs 200 --concurrency 16 \
             --deadline 0.5 --threads 2 --penalty 10 --vectors 1024 --json --runners 8 \
             --retry-seed 11",
        ))
        .unwrap();
        let Command::Loadgen(args) = cmd else {
            panic!("wrong command")
        };
        assert_eq!(args.addr.as_deref(), Some("127.0.0.1:7433"));
        assert_eq!(args.jobs, 200);
        assert_eq!(args.concurrency, 16);
        assert_eq!(args.target, "c880");
        assert_eq!(args.deadline, Duration::from_secs_f64(0.5));
        assert_eq!(args.threads, 2);
        assert!((args.penalty - 10.0).abs() < 1e-12);
        assert_eq!(args.vectors, 1024);
        assert!(args.json);
        assert_eq!(args.runners, 8);
        assert_eq!(args.retry_seed, 11);
        // Defaults: in-process server, the CI smoke shape.
        let Command::Loadgen(defaults) = parse_args(&argv("loadgen")).unwrap() else {
            panic!("wrong command")
        };
        assert_eq!(defaults.addr, None);
        assert_eq!(defaults.jobs, 50);
        assert_eq!(defaults.concurrency, 8);
        assert_eq!(defaults.target, "c432");
        assert_eq!(defaults.vectors, 256, "jobs carry a Monte-Carlo baseline");
        assert_eq!(defaults.retry_seed, 7);
        assert!(!defaults.json);
        assert!(parse_args(&argv("loadgen --jobs 0")).is_err());
    }

    #[test]
    fn check_report_is_identical_for_any_worker_count() {
        // The CLI-level determinism contract: same seed → byte-identical
        // JSON report for 1, 2 and 4 workers. Filtered to the cheapest
        // property so the triple run stays fast.
        let render = |threads: usize| {
            run(parse_args(&argv(&format!(
                "check --cases 32 --seed 4 --threads {threads} --json --property tech."
            )))
            .unwrap())
            .expect("calibration properties pass")
        };
        let one = render(1);
        assert_eq!(render(2), one);
        assert_eq!(render(4), one);
        assert!(one.contains("tech.calibration_pinned"));
    }

    #[test]
    fn check_failure_surfaces_the_report_as_an_error() {
        // An unknown property filter is an error, not an empty green run.
        let err = run(parse_args(&argv("check --property no.such.oracle")).unwrap())
            .expect_err("must fail");
        assert!(err.to_string().contains("no.such.oracle"));
    }

    #[test]
    fn parses_sweep_and_library() {
        let cmd = parse_args(&argv("sweep c880 --penalties 0,5,25")).unwrap();
        let Command::Sweep(args) = cmd else {
            panic!("wrong command")
        };
        assert_eq!(args.penalties, vec![0.0, 0.05, 0.25]);
        let cmd = parse_args(&argv("library --uniform-stack --liberty /tmp/x.lib")).unwrap();
        let Command::Library(args) = cmd else {
            panic!("wrong command")
        };
        assert!(args.options.uniform_stack);
        assert_eq!(args.liberty_out.as_deref(), Some("/tmp/x.lib"));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&argv("optimize")).is_err());
        assert!(parse_args(&argv("optimize c432 --mode banana")).is_err());
        assert!(parse_args(&argv("optimize c432 --penalty abc")).is_err());
        assert!(parse_args(&argv("frobnicate")).is_err());
        assert!(parse_args(&argv("optimize c432 extra")).is_err());
        assert!(parse_args(&argv("library --bogus")).is_err());
    }

    #[test]
    fn count_flags_require_integers() {
        // Regression: these were parsed as floats and truncated with
        // `as usize`, so `--threads 2.7` silently ran 2 workers and
        // `--threads -1` saturated to usize::MAX.
        for flag in ["--threads", "--refine", "--vectors"] {
            for bad in ["2.7", "-1", "abc", "1e3"] {
                let err = parse_args(&argv(&format!("optimize c432 {flag} {bad}")))
                    .expect_err(&format!("{flag} {bad} must be rejected"));
                assert!(
                    err.0.contains("non-negative integer"),
                    "unhelpful message: {err}"
                );
            }
            assert!(parse_args(&argv(&format!("optimize c432 {flag} 4"))).is_ok());
        }
    }

    #[test]
    fn parses_observability_flags() {
        let cmd = parse_args(&argv("optimize c432 --trace /tmp/t.jsonl --metrics")).unwrap();
        let Command::Optimize(args) = cmd else {
            panic!("wrong command")
        };
        assert_eq!(args.trace.as_deref(), Some("/tmp/t.jsonl"));
        assert!(args.metrics);
        let Command::Optimize(defaults) = parse_args(&argv("optimize c432")).unwrap() else {
            panic!("wrong command")
        };
        assert_eq!(defaults.trace, None);
        assert!(!defaults.metrics);
    }

    #[test]
    fn parses_strategy_flag() {
        let Command::Optimize(defaults) = parse_args(&argv("optimize c432")).unwrap() else {
            panic!("wrong command")
        };
        assert_eq!(defaults.strategy, EngineStrategy::Portfolio);
        let Command::Optimize(single) =
            parse_args(&argv("optimize c432 --strategy single")).unwrap()
        else {
            panic!("wrong command")
        };
        assert_eq!(single.strategy, EngineStrategy::Single);
        let Command::Optimize(explicit) =
            parse_args(&argv("optimize c432 --strategy portfolio")).unwrap()
        else {
            panic!("wrong command")
        };
        assert_eq!(explicit.strategy, EngineStrategy::Portfolio);
        let err = parse_args(&argv("optimize c432 --strategy banana"))
            .expect_err("unknown strategy must be rejected");
        assert!(err.0.contains("banana"));
    }

    #[test]
    fn parses_robustness_flags() {
        let cmd = parse_args(&argv(
            "optimize c432 --checkpoint /tmp/c.jsonl --resume \
             --fault-plan exec.dispatch:p=0.5 --fault-seed 9",
        ))
        .unwrap();
        let Command::Optimize(args) = cmd else {
            panic!("wrong command")
        };
        assert_eq!(args.checkpoint.as_deref(), Some("/tmp/c.jsonl"));
        assert!(args.resume);
        assert_eq!(args.fault_plan.as_deref(), Some("exec.dispatch:p=0.5"));
        assert_eq!(args.fault_seed, 9);
        // Defaults: no checkpoint, faults disabled.
        let Command::Optimize(defaults) = parse_args(&argv("optimize c432")).unwrap() else {
            panic!("wrong command")
        };
        assert_eq!(defaults.checkpoint, None);
        assert!(!defaults.resume);
        assert_eq!(defaults.fault_plan, None);
        // --resume without --checkpoint has no file to read from.
        let err = parse_args(&argv("optimize c432 --resume")).expect_err("must be rejected");
        assert!(err.0.contains("--checkpoint"));
        // A malformed plan fails at run time with the parser's message.
        let cmd = parse_args(&argv("optimize c432 --fault-plan bogus.site:p=0.5")).unwrap();
        let err = run(cmd).expect_err("unknown site must fail");
        assert!(err.to_string().contains("bogus.site"));
    }

    #[test]
    fn parses_chaos() {
        let cmd = parse_args(&argv(
            "chaos kill-resume --seed 11 --threads 4 --target c17",
        ))
        .unwrap();
        let Command::Chaos(args) = cmd else {
            panic!("wrong command")
        };
        assert_eq!(args.scenario.as_deref(), Some("kill-resume"));
        assert!(!args.all);
        assert_eq!(args.seed, 11);
        assert_eq!(args.threads, 4);
        assert_eq!(args.target, "c17");
        let Command::Chaos(defaults) = parse_args(&argv("chaos --all")).unwrap() else {
            panic!("wrong command")
        };
        assert!(defaults.all);
        assert_eq!(defaults.seed, 7);
        assert_eq!(defaults.threads, 2);
        assert_eq!(defaults.target, "c432");
        // Exactly one of --all or a named scenario.
        assert!(parse_args(&argv("chaos")).is_err());
        assert!(parse_args(&argv("chaos --all kill-resume")).is_err());
    }

    #[test]
    fn chaos_kill_resume_scenario_passes() {
        let out = run(parse_args(&argv("chaos kill-resume --seed 7 --threads 2")).unwrap())
            .expect("scenario holds");
        assert!(out.contains("PASS kill-resume"), "unexpected output: {out}");
        assert!(out.contains("1/1 scenarios passed"));
    }

    #[test]
    fn trace_produces_valid_jsonl_and_metrics_table() {
        let trace = std::env::temp_dir().join("svtox_cli_trace.jsonl");
        let cmd = parse_args(&argv(&format!(
            "optimize c432 --penalty 5 --vectors 100 --threads 2 --metrics --trace {}",
            trace.display()
        )))
        .unwrap();
        let out = run(cmd).unwrap();
        assert!(out.contains("metrics:"));
        assert!(out.contains("core.h1.decisions"));
        assert!(out.contains("exec.tasks_executed"));
        // Every line of the trace must parse back as a JSON object with a
        // known record type; spans and counters from all three layers
        // (optimizer, STA, pool) must be present.
        let text = std::fs::read_to_string(&trace).unwrap();
        let mut kinds = std::collections::BTreeSet::new();
        let mut names = std::collections::BTreeSet::new();
        for line in text.lines() {
            let v = svtox_obs::json::parse(line).expect("trace line parses");
            let kind = v.get("type").and_then(|t| t.as_str()).unwrap().to_string();
            assert!(
                ["meta", "span", "event", "counter", "gauge"].contains(&kind.as_str()),
                "unknown record type {kind}"
            );
            if let Some(name) = v.get("name").and_then(|n| n.as_str()) {
                names.insert(name.to_string());
            }
            kinds.insert(kind);
        }
        assert!(kinds.contains("meta") && kinds.contains("span") && kinds.contains("counter"));
        for expected in [
            "cli.optimize",
            "core.portfolio.run",
            "core.h1.decisions",
            "sta.full_analyzes",
            "exec.map_tasks",
            "exec.tasks_executed",
            "sim.vectors_sampled",
        ] {
            assert!(names.contains(expected), "missing {expected} in trace");
        }
        std::fs::remove_file(&trace).ok();
    }

    #[test]
    fn help_paths() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
        assert_eq!(parse_args(&argv("--help")).unwrap(), Command::Help);
        let out = run(Command::Help).unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn every_subcommand_takes_help() {
        for sub in SUBCOMMANDS {
            assert!(
                USAGE.contains(&format!("svtox {sub}")),
                "{sub} is in the usage"
            );
            for flag in ["--help", "-h"] {
                assert_eq!(
                    parse_args(&argv(&format!("{sub} {flag}"))).unwrap(),
                    Command::Help,
                    "{sub} {flag}"
                );
            }
            // After other arguments too, valid or not.
            assert_eq!(
                parse_args(&argv(&format!("{sub} c432 --bogus --help"))).unwrap(),
                Command::Help,
                "{sub}"
            );
        }
        assert!(parse_args(&argv("bogus --help")).is_err());
    }

    #[test]
    fn report_prints_histogram_and_path() {
        let cmd = parse_args(&argv("report c432 --penalties 5")).unwrap();
        let out = run(cmd).unwrap();
        assert!(out.contains("chosen trade-off points"));
        assert!(out.contains("critical path"));
        assert!(out.contains("fast") || out.contains("min-leak"));
    }

    #[test]
    fn suite_lists_all_rows() {
        let out = run(Command::Suite(SuiteArgs::default())).unwrap();
        for name in ["c432", "c6288", "alu64"] {
            assert!(out.contains(name));
        }
        assert!(out.contains("array multiplier"));
    }

    #[test]
    fn parses_suite_sim_bench() {
        let Command::Suite(defaults) = parse_args(&argv("suite")).unwrap() else {
            panic!("wrong command")
        };
        assert!(!defaults.sim_bench);
        let cmd = parse_args(&argv(
            "suite --sim-bench --vectors 8192 --out results/BENCH_sim.json \
             --min-speedup 10 --json",
        ))
        .unwrap();
        let Command::Suite(args) = cmd else {
            panic!("wrong command")
        };
        assert!(args.sim_bench);
        assert_eq!(args.vectors, 8192);
        assert_eq!(args.out.as_deref(), Some("results/BENCH_sim.json"));
        assert!((args.min_speedup - 10.0).abs() < 1e-12);
        assert!(args.json);
        // The bench-only flags require the bench.
        assert!(parse_args(&argv("suite --out x.json")).is_err());
        assert!(parse_args(&argv("suite --min-speedup 5")).is_err());
        assert!(parse_args(&argv("suite --sim-bench --min-speedup -3")).is_err());
    }

    #[test]
    fn parses_suite_portfolio_bench() {
        let cmd = parse_args(&argv(
            "suite --portfolio-bench --deadline 0.5 --threads 2 \
             --out results/BENCH_portfolio.json --json",
        ))
        .unwrap();
        let Command::Suite(args) = cmd else {
            panic!("wrong command")
        };
        assert!(args.portfolio_bench);
        assert_eq!(args.deadline, Duration::from_millis(500));
        assert_eq!(args.threads, 2);
        assert_eq!(args.out.as_deref(), Some("results/BENCH_portfolio.json"));
        assert!(args.json);
        // The two benches are mutually exclusive, and the sim gate does
        // not apply to the portfolio bench.
        assert!(parse_args(&argv("suite --sim-bench --portfolio-bench")).is_err());
        assert!(parse_args(&argv("suite --portfolio-bench --min-speedup 5")).is_err());
    }

    #[test]
    fn optimize_runs_end_to_end() {
        let tmp = std::env::temp_dir().join("svtox_cli_test.bench");
        let cmd = parse_args(&argv(&format!(
            "optimize c432 --penalty 5 --vectors 200 --emit-sleep {}",
            tmp.display()
        )))
        .unwrap();
        let out = run(cmd).unwrap();
        assert!(out.contains("result"));
        assert!(out.contains("vector"));
        // The emitted sleep netlist parses and has the documented overhead.
        let text = std::fs::read_to_string(&tmp).unwrap();
        let gated = svtox_netlist::parse_bench(&text).unwrap();
        assert_eq!(gated.num_inputs(), 37);
        std::fs::remove_file(&tmp).ok();
    }

    #[test]
    fn bench_file_roundtrip() {
        // Write a small circuit, then optimize it through the file path.
        let tmp = std::env::temp_dir().join("svtox_cli_in.bench");
        let n = svtox_netlist::generators::benchmark("c432").unwrap();
        std::fs::write(&tmp, n.to_bench()).unwrap();
        let loaded = load_circuit(tmp.to_str().unwrap()).unwrap();
        assert_eq!(loaded.num_gates(), n.num_gates());
        std::fs::remove_file(&tmp).ok();
        assert!(load_circuit("no_such_thing").is_err());
        assert!(load_circuit("/does/not/exist.bench").is_err());
    }

    #[test]
    fn verilog_file_loads() {
        let tmp = std::env::temp_dir().join("svtox_cli_in.v");
        let n = svtox_netlist::generators::benchmark("c432").unwrap();
        std::fs::write(&tmp, n.to_verilog()).unwrap();
        let loaded = load_circuit(tmp.to_str().unwrap()).unwrap();
        assert_eq!(loaded.num_gates(), n.num_gates());
        std::fs::remove_file(&tmp).ok();
    }
}
