//! The single-process compute workloads: `prove`, `iscas` and `exact`.
//!
//! Each runs its whole job set in interleaved rounds (a seeded shuffle
//! per round) until the measuring time is used up; a job's time is its
//! fastest round, and consecutive rounds run on different CPUs. Every
//! result is re-evaluated from scratch and must be bit-identical in
//! every round.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use svtox_cells::{Library, LibraryOptions};
use svtox_core::{DelayPenalty, ExecConfig, Mode, Obs, Problem, RunOutcome, Solution};
use svtox_exec::rng::{derive_seed, Xoshiro256pp};
use svtox_netlist::generators::{benchmark, benchmark_names, random_dag, RandomDagSpec};
use svtox_netlist::Netlist;
use svtox_sta::TimingConfig;
use svtox_tech::Technology;

use crate::stats::{median, min, ms, quantile, ratio};
use crate::trace::Tracer;
use crate::{affinity, probes, serve, Report, Workload};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;
/// Rounds run even when the measuring time is already used up.
const MIN_ROUNDS: usize = 3;
/// Input limit handed to [`svtox_core::Optimizer::exact`].
const EXACT_MAX_INPUTS: usize = 12;

/// Which optimizer entry point a job calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `Optimizer::run` with `ExecConfig::serial()` and no deadline.
    Run,
    /// `Optimizer::heuristic1`.
    H1,
    /// `Optimizer::exact`.
    Exact,
}

impl Engine {
    fn span(self) -> &'static str {
        match self {
            Engine::Run => "core.run",
            Engine::H1 => "core.heuristic1",
            Engine::Exact => "core.exact",
        }
    }
}

/// One job: a circuit, a delay penalty and an engine.
pub struct Instance {
    pub netlist: Netlist,
    pub penalty: DelayPenalty,
    pub engine: Engine,
}

/// Seed of the benchmark's random-DAG suite. The circuits are fixed:
/// random DAGs of one shape differ up to 60x in proof time, so circuits
/// drawn per `--seed` would make the spread between runs measure the
/// draw instead of the program. `--seed` orders the rounds instead.
const SUITE_SEED: u64 = 2004;

/// Random layered DAG number `index` of the suite, of the given shape
/// (`inputs`, `outputs`, `gates`, `depth`).
pub fn dag(tag: &str, index: u64, shape: (usize, usize, usize, usize)) -> Result<Netlist, String> {
    let (inputs, outputs, gates, depth) = shape;
    let spec = RandomDagSpec {
        seed: derive_seed(SUITE_SEED, index),
        ..RandomDagSpec::new(format!("{tag}{index}"), inputs, outputs, gates, depth)
    };
    random_dag(&spec).map_err(|e| format!("generate {tag}{index}: {e}"))
}

/// How to build one circuit of a job set.
enum Circuit {
    Dag(&'static str, u64, (usize, usize, usize, usize)),
    Iscas(&'static str),
}

/// The job set of a compute workload: circuit, penalty, engine.
fn jobs(workload: Workload) -> Vec<(Circuit, f64, Engine)> {
    match workload {
        // 5 %: leaf evaluation dominates (every leaf is visited); 25 %:
        // the bound tracker dominates. Each half takes about half of a
        // round. Jobs and rounds are kept short (rounds of under a
        // second) so that every job also runs inside the host's short
        // quiet phases (see README.md).
        Workload::Prove => (0..6)
            .map(|k| (Circuit::Dag("p5_", k, (8, 8, 64, 8)), 0.05, Engine::Run))
            .chain((100..106).map(|k| {
                (
                    Circuit::Dag("p25_", k, (12, 10, 100, 10)),
                    0.25,
                    Engine::Run,
                )
            }))
            .collect(),
        Workload::Iscas => benchmark_names()
            .into_iter()
            .map(|name| (Circuit::Iscas(name), 0.05, Engine::H1))
            .collect(),
        Workload::Exact => (0..8)
            .map(|k| (Circuit::Dag("x_", k, (4, 3, 10, 5)), 0.05, Engine::Exact))
            .collect(),
        Workload::Serve => unreachable!("serve is not a compute workload"),
    }
}

/// Generates the netlists of a compute workload's job set.
fn instances(workload: Workload, tracer: &Tracer) -> Result<Vec<Instance>, String> {
    jobs(workload)
        .into_iter()
        .map(|(circuit, fraction, engine)| {
            let _s = tracer.span("netlist.build", 0);
            let netlist = match circuit {
                Circuit::Dag(tag, k, shape) => dag(tag, k, shape)?,
                Circuit::Iscas(name) => {
                    benchmark(name).map_err(|e| format!("build {name}: {e}"))?
                }
            };
            Ok(Instance {
                netlist,
                penalty: DelayPenalty::new(fraction).map_err(|e| e.to_string())?,
                engine,
            })
        })
        .collect()
}

pub fn library(tracer: &Tracer) -> Result<Library, String> {
    let _s = tracer.span("cells.library", 0);
    Library::new(Technology::predictive_65nm(), LibraryOptions::default())
        .map_err(|e| format!("library: {e}"))
}

/// One `Problem::new` per netlist; each is a `core.problem` span.
pub fn problems<'a>(
    netlists: impl Iterator<Item = &'a Netlist>,
    lib: &'a Library,
    tracer: &Tracer,
) -> Result<Vec<Problem<'a>>, String> {
    netlists.map(|n| problem(n, lib, tracer)).collect()
}

pub fn problem<'a>(
    netlist: &'a Netlist,
    lib: &'a Library,
    tracer: &Tracer,
) -> Result<Problem<'a>, String> {
    let _s = tracer.span("core.problem", 0);
    Problem::new(netlist, lib, TimingConfig::default()).map_err(|e| format!("problem: {e}"))
}

fn build(workload: Workload, tracer: &Tracer) -> Result<(Library, Vec<Instance>), String> {
    let lib = library(tracer)?;
    Ok((lib, instances(workload, tracer)?))
}

/// Runs one job. `Run` must end `complete`.
pub fn execute(
    problem: &Problem<'_>,
    penalty: DelayPenalty,
    engine: Engine,
    obs: &Obs,
) -> Result<Solution, String> {
    let opt = problem.optimizer(penalty, Mode::Proposed).with_obs(obs);
    let name = problem.netlist().name();
    match engine {
        Engine::Run => match opt.run(&ExecConfig::serial(), None) {
            RunOutcome::Complete { solution, .. } => Ok(solution),
            other => Err(format!("{name}: run ended {}", other.status())),
        },
        Engine::H1 => opt.heuristic1().map_err(|e| format!("{name}: {e}")),
        Engine::Exact => opt
            .exact(EXACT_MAX_INPUTS)
            .map_err(|e| format!("{name}: {e}")),
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * (1.0 + a.abs())
}

/// Re-evaluates a solution with a fresh scalar simulation and a fresh
/// STA, and checks it against its recorded figures and the optimizer's
/// delay budget.
pub fn check(problem: &Problem<'_>, penalty: DelayPenalty, sol: &Solution) -> Result<(), String> {
    let name = problem.netlist().name();
    let (leak, delay) = sol
        .evaluate(problem)
        .map_err(|e| format!("{name}: evaluate: {e}"))?;
    if !close(leak.value(), sol.leakage.value()) {
        return Err(format!(
            "{name}: leakage {} re-evaluates to {leak}",
            sol.leakage
        ));
    }
    if !close(delay.value(), sol.delay.value()) {
        return Err(format!(
            "{name}: delay {} re-evaluates to {delay}",
            sol.delay
        ));
    }
    let budget = problem.optimizer(penalty, Mode::Proposed).budget().value();
    if delay.value() > budget + 1e-9 * (1.0 + budget) {
        return Err(format!("{name}: delay {delay} over budget {budget}"));
    }
    Ok(())
}

fn shuffled(n: usize, seed: u64, round: usize) -> Vec<usize> {
    let mut rng = Xoshiro256pp::seed_from_u64(derive_seed(seed ^ 0x5eed, round as u64));
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_index(i + 1));
    }
    order
}

pub fn run(workload: Workload, seed: u64, seconds: f64, tracer: &Tracer, report: &mut Report) {
    if let Err(e) = run_inner(workload, seed, seconds, tracer, report) {
        report.fail(e);
    }
}

fn run_inner(
    workload: Workload,
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<(), String> {
    // Set-up: library characterization, netlist generation, problems.
    let mut setup_s = Vec::new();
    for _ in 1..SETUP_REPS {
        let t = Instant::now();
        let (lib, insts) = build(workload, tracer)?;
        black_box(problems(insts.iter().map(|i| &i.netlist), &lib, tracer)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let t = Instant::now();
    let (lib, insts) = build(workload, tracer)?;
    let probs = problems(insts.iter().map(|i| &i.netlist), &lib, tracer)?;
    setup_s.push(t.elapsed().as_secs_f64());

    // Reference for `exact`: the greedy-gate-tree proof (H2) on the same
    // instance, which the exact gate tree may never exceed.
    let h2: Vec<Option<f64>> = insts
        .iter()
        .zip(&probs)
        .map(|(inst, p)| {
            if inst.engine != Engine::Exact {
                return Ok(None);
            }
            execute(p, inst.penalty, Engine::Run, Obs::disabled_ref())
                .map(|s| Some(s.leakage.value()))
        })
        .collect::<Result<_, String>>()?;

    let n = insts.len();
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut first: Vec<Option<Solution>> = vec![None; n];
    let mut counts: Vec<BTreeMap<String, u64>> = vec![BTreeMap::new(); n];
    // Round totals with recording off [0] and on [1] (traced run only).
    let mut round_ms: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    // Each round runs on the next allowed CPU (see `affinity`).
    let all_cpus = affinity::current();
    let cpus = all_cpus.as_ref().map(affinity::singles).unwrap_or_default();
    let start = Instant::now();
    let mut round = 0;
    while round < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        if !cpus.is_empty() {
            affinity::set(&cpus[round % cpus.len()]);
        }
        let recording = tracer.enabled() && round.is_multiple_of(2);
        tracer.set_recording(recording);
        let mut total = 0.0;
        for j in shuffled(n, seed, round) {
            let fresh;
            let obs = if recording {
                fresh = Obs::enabled();
                &fresh
            } else {
                Obs::disabled_ref()
            };
            let t0 = Instant::now();
            let result = {
                let _job = tracer.span("job", j as u64);
                let _s = tracer.span(insts[j].engine.span(), j as u64);
                execute(&probs[j], insts[j].penalty, insts[j].engine, obs)
            };
            let dt = ms(t0.elapsed());
            times[j].push(dt);
            total += dt;
            report.attempted += 1;
            if recording {
                counts[j] = obs.counter_snapshot();
            }
            let verdict = result.and_then(|sol| {
                let _s = tracer.span("check.evaluate", j as u64);
                check(&probs[j], insts[j].penalty, &sol)?;
                if let Some(reference) = h2[j] {
                    if sol.leakage.value() > reference {
                        return Err(format!(
                            "{}: exact {} above H2 {reference}",
                            insts[j].netlist.name(),
                            sol.leakage.value()
                        ));
                    }
                }
                match &first[j] {
                    Some(f) if !f.same_assignment(&sol) => Err(format!(
                        "{}: round {round} differs from round 0",
                        insts[j].netlist.name()
                    )),
                    Some(_) => Ok(()),
                    None => {
                        first[j] = Some(sol);
                        Ok(())
                    }
                }
            });
            if let Err(e) = verdict {
                report.fail(e);
            }
        }
        round_ms[usize::from(recording)].push(total);
        round += 1;
    }
    if let Some(mask) = &all_cpus {
        affinity::set(mask);
    }
    tracer.set_recording(true);

    // A job's time is its fastest round: neighbours on a shared host
    // only ever add time, and the minimum over rounds repeats far more
    // closely from run to run than the median does (see README.md).
    let best: Vec<f64> = times.iter().map(|t| min(t)).collect();
    for (j, inst) in insts.iter().enumerate() {
        eprintln!(
            "  {:<8} {:>3.0}% {:<16} best {:>10.3} ms  median {:>10.3} ms  leak {:.6} uA",
            inst.netlist.name(),
            inst.penalty.fraction() * 100.0,
            inst.engine.span(),
            best[j],
            median(&times[j]),
            first[j]
                .as_ref()
                .map_or(f64::NAN, |s| s.leakage.as_micro_amps())
        );
    }
    let busy_ms: f64 = best.iter().sum();
    let leak: f64 = first
        .iter()
        .flatten()
        .map(|s| s.leakage.as_micro_amps())
        .sum();
    report.samples = round;
    report.end_to_end(
        median(&setup_s),
        n as f64 / (busy_ms / 1e3),
        median(&best),
        quantile(&best, 0.9),
        leak,
    );

    if tracer.enabled() {
        let mut total: BTreeMap<String, u64> = BTreeMap::new();
        for c in &counts {
            for (k, v) in c {
                *total.entry(k.clone()).or_default() += v;
            }
        }
        for (k, v) in &total {
            tracer.count(k, *v);
        }
        let get = |k: &str| total.get(k).copied().unwrap_or(0) as f64;
        probes::search_metrics(get, busy_ms, report);
        report.metric(
            "trace.overhead_pct",
            (ratio(min(&round_ms[1]), min(&round_ms[0])) - 1.0) * 100.0,
            "%",
        );
        let exact_ms: Vec<f64> = insts
            .iter()
            .zip(&best)
            .filter(|(i, _)| i.engine == Engine::Exact)
            .map(|(_, m)| *m)
            .collect();
        if exact_ms.is_empty() {
            probes::exact_leaf(&lib, tracer, report)?;
        } else {
            let exact_leaves = total.get("core.search.leaves").copied().unwrap_or(0) as f64;
            report.metric(
                "core.exact_leaf_ms",
                ratio(exact_ms.iter().sum(), exact_leaves),
                "ms",
            );
        }
        probes::run_all(&probs, seed, tracer, report)?;
        serve::probe_session(seed, tracer, report);
    }
    Ok(())
}
