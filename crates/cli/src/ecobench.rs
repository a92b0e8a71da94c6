//! The `svtox suite --eco-bench` benchmark: warm-seeded ECO
//! re-optimization vs a cold restart after a local netlist edit.
//!
//! For each suite circuit the bench optimizes the pristine netlist once
//! (the solution an ECO flow would have on hand), applies a standard edit
//! script (adds, a removal, PO-driver rewires — the shape of a typical
//! engineering change order), and then races two engines on the post-edit
//! problem at the same deadline:
//!
//! * **cold** — the plain parallel branch and bound, seeded by Heuristic 1
//!   only;
//! * **eco** — [`svtox_core::Optimizer::rerun_after_edit`], which
//!   additionally re-evaluates the pre-edit solution's vector as a
//!   feasible incumbent before searching.
//!
//! Both runs expose their live incumbent through a caller-owned
//! [`SharedMinF64`]; a watcher thread samples it into a (time, cost)
//! trajectory. The score is *time to quality*: with `Q` the worse of the
//! two final costs (a quality level both engines provably reached),
//! `speedup = t_cold(Q) / t_eco(Q)`. CI gates the minimum per-circuit
//! speedup (warm reuse must pay for itself on every circuit) and records
//! the report to `results/BENCH_eco.json`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use svtox_cells::{Library, LibraryOptions};
use svtox_core::{
    DelayPenalty, ExecConfig, Mode, OptError, Problem, RetryPolicy, RunOutcome, SharedMinF64,
    Solution,
};
use svtox_netlist::generators::benchmark;
use svtox_netlist::{EditScript, Netlist};
use svtox_obs::json::Value;
use svtox_sta::TimingConfig;
use svtox_tech::Technology;

use crate::CliError;

/// Circuits the bench sweeps (same set as the other suite benches).
const CIRCUITS: [&str; 3] = ["c432", "c880", "c1908"];

/// Floor applied to measured times before dividing, in milliseconds: one
/// watcher sampling period, so a warm seed that lands inside the first
/// sample neither divides by zero nor inflates the ratio, and two runs
/// that both reach the target instantly score 1.0, not 0.
const MIN_MS: f64 = 0.5;

/// Relative slack when matching a trajectory point against the target
/// cost (float noise between the shared cell and the final solution).
const REL_EPS: f64 = 1e-9;

/// One circuit's cold-vs-eco measurement.
#[derive(Debug, Clone)]
pub struct EcoBenchRow {
    /// Benchmark name.
    pub circuit: String,
    /// Post-edit gate count.
    pub gates: usize,
    /// Primary input count (the search dimension).
    pub inputs: usize,
    /// Operations in the standard edit script.
    pub edit_ops: usize,
    /// Cold final leakage in µA.
    pub cold_ua: f64,
    /// Eco final leakage in µA.
    pub eco_ua: f64,
    /// Time for the cold incumbent to reach the shared target, ms.
    pub t_cold_ms: f64,
    /// Time for the warm incumbent to reach the shared target, ms.
    pub t_eco_ms: f64,
    /// `t_cold_ms / t_eco_ms` (both floored at [`MIN_MS`]).
    pub speedup: f64,
    /// Warm candidates offered to the eco run.
    pub warm_candidates: usize,
    /// Warm candidates actually evaluated (length-compatible).
    pub warm_evaluated: usize,
    /// Fraction of post-edit gates carried over from before the edit.
    pub carry_ratio: f64,
}

/// The full eco-bench result.
#[derive(Debug, Clone)]
pub struct EcoBenchReport {
    /// Per-circuit measurements.
    pub rows: Vec<EcoBenchRow>,
    /// Deadline both engines ran under, in milliseconds.
    pub deadline_ms: f64,
    /// Worker threads (`0` = one per CPU).
    pub threads: usize,
    /// The smallest per-circuit speedup (the CI gate watches this).
    pub min_speedup: f64,
}

impl EcoBenchReport {
    /// Human-readable table.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<8} {:>7} {:>7} {:>5} {:>10} {:>10} {:>10} {:>10} {:>9}\n",
            "circuit",
            "gates",
            "inputs",
            "edits",
            "cold µA",
            "eco µA",
            "t_cold ms",
            "t_eco ms",
            "speedup"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<8} {:>7} {:>7} {:>5} {:>10.2} {:>10.2} {:>10.1} {:>10.1} {:>8.1}x\n",
                r.circuit,
                r.gates,
                r.inputs,
                r.edit_ops,
                r.cold_ua,
                r.eco_ua,
                r.t_cold_ms,
                r.t_eco_ms,
                r.speedup
            ));
        }
        out.push_str(&format!(
            "deadline: {:.0} ms, minimum speedup: {:.1}x\n",
            self.deadline_ms, self.min_speedup
        ));
        out
    }

    /// Deterministic-key JSON (the `results/BENCH_eco.json` schema).
    #[must_use]
    pub fn render_json(&self) -> String {
        let row = |r: &EcoBenchRow| {
            Value::Obj(
                [
                    ("circuit".to_string(), Value::Str(r.circuit.clone())),
                    ("gates".to_string(), Value::Num(r.gates as f64)),
                    ("inputs".to_string(), Value::Num(r.inputs as f64)),
                    ("edit_ops".to_string(), Value::Num(r.edit_ops as f64)),
                    ("cold_ua".to_string(), Value::Num(r.cold_ua)),
                    ("eco_ua".to_string(), Value::Num(r.eco_ua)),
                    ("t_cold_ms".to_string(), Value::Num(r.t_cold_ms)),
                    ("t_eco_ms".to_string(), Value::Num(r.t_eco_ms)),
                    ("speedup".to_string(), Value::Num(r.speedup)),
                    (
                        "warm_candidates".to_string(),
                        Value::Num(r.warm_candidates as f64),
                    ),
                    (
                        "warm_evaluated".to_string(),
                        Value::Num(r.warm_evaluated as f64),
                    ),
                    ("carry_ratio".to_string(), Value::Num(r.carry_ratio)),
                ]
                .into_iter()
                .collect(),
            )
        };
        Value::Obj(
            [
                ("bench".to_string(), Value::Str("eco".to_string())),
                ("deadline_ms".to_string(), Value::Num(self.deadline_ms)),
                ("threads".to_string(), Value::Num(self.threads as f64)),
                (
                    "rows".to_string(),
                    Value::Arr(self.rows.iter().map(row).collect()),
                ),
                ("min_speedup".to_string(), Value::Num(self.min_speedup)),
            ]
            .into_iter()
            .collect(),
        )
        .to_string()
    }
}

/// The standard bench edit script for a circuit: two added gates feeding
/// a rewired primary-output driver, a second rewire on another output,
/// and an add-then-remove pair (so every op class except `retag`, whose
/// PO renaming would complicate the µA comparison, is exercised).
fn standard_edit_script(netlist: &Netlist) -> String {
    let pi = |i: usize| netlist.net(netlist.inputs()[i]).name().to_string();
    let po = |i: usize| netlist.net(netlist.outputs()[i]).name().to_string();
    format!(
        "# eco-bench standard edit script\n\
         add ecob_t0 = NAND({}, {})\n\
         add ecob_t1 = NOT(ecob_t0)\n\
         add ecob_scratch = NOR({}, {})\n\
         remove ecob_scratch\n\
         rewire {} 0 ecob_t1\n\
         rewire {} 0 ecob_t0\n",
        pi(0),
        pi(1),
        pi(2),
        pi(3),
        po(0),
        po(1),
    )
}

/// A search-incumbent trajectory: (milliseconds since start, cost) pairs,
/// strictly decreasing in cost.
type Trajectory = Vec<(f64, f64)>;

/// First trajectory time at which the cost reached `target`, or the
/// deadline if it never did (cannot happen for the run that produced
/// `target`, by construction).
fn time_to(traj: &Trajectory, target: f64, deadline_ms: f64) -> f64 {
    let slack = target.abs() * REL_EPS + f64::EPSILON;
    traj.iter()
        .find(|(_, cost)| *cost <= target + slack)
        .map_or(deadline_ms, |(t, _)| *t)
}

/// Runs `run` with a caller-owned incumbent cell while a watcher thread
/// samples the cell into a trajectory.
fn trace_run<F>(run: F) -> Result<(Trajectory, Solution), CliError>
where
    F: FnOnce(&SharedMinF64) -> Result<Solution, OptError>,
{
    let shared = SharedMinF64::new(f64::INFINITY);
    let done = AtomicBool::new(false);
    let start = Instant::now();
    std::thread::scope(|scope| {
        let watcher = scope.spawn(|| {
            let mut points: Trajectory = Vec::new();
            let mut last = f64::INFINITY;
            loop {
                let finished = done.load(Ordering::Acquire);
                let cost = shared.get();
                if cost < last {
                    points.push((start.elapsed().as_secs_f64() * 1e3, cost));
                    last = cost;
                }
                if finished {
                    return points;
                }
                std::thread::sleep(Duration::from_micros(500));
            }
        });
        let result = run(&shared);
        done.store(true, Ordering::Release);
        let traj = watcher.join().expect("watcher thread panicked");
        result
            .map(|solution| (traj, solution))
            .map_err(|e| CliError(e.to_string()))
    })
}

/// Runs the cold and warm engines on every suite circuit at the same
/// deadline and scores time-to-quality.
///
/// # Errors
///
/// Returns an error if a circuit or the library fails to build, or if
/// either engine fails outright.
pub fn run_eco_bench(deadline: Duration, threads: usize) -> Result<EcoBenchReport, CliError> {
    let library = Library::new(Technology::predictive_65nm(), LibraryOptions::default())
        .map_err(|e| CliError(e.to_string()))?;
    let exec = ExecConfig::with_threads(threads)
        .with_time_budget(deadline)
        .with_retries(RetryPolicy::resilient());
    let penalty = DelayPenalty::new(0.05).map_err(|e| CliError(e.to_string()))?;
    let deadline_ms = deadline.as_secs_f64() * 1e3;
    let mut rows = Vec::new();
    let mut min_speedup = f64::INFINITY;
    for name in CIRCUITS {
        let pre = benchmark(name).map_err(|e| CliError(e.to_string()))?;
        let pre_problem = Problem::new(&pre, &library, TimingConfig::default())
            .map_err(|e| CliError(e.to_string()))?;
        let pre_opt = pre_problem.optimizer(penalty, Mode::Proposed);
        let prev = match pre_opt.run(&exec, None) {
            RunOutcome::Failed { error } => {
                return Err(CliError(format!("{name} (pre-edit): {error}")))
            }
            outcome => outcome
                .best()
                .expect("a non-failed run has a solution")
                .clone(),
        };

        let script = EditScript::parse(&standard_edit_script(&pre))
            .map_err(|e| CliError(format!("{name}: {e}")))?;
        let mut post = pre.clone();
        let trace = script
            .apply(&mut post)
            .map_err(|e| CliError(format!("{name}: {e}")))?;
        let post_problem = Problem::new(&post, &library, TimingConfig::default())
            .map_err(|e| CliError(e.to_string()))?;
        let post_opt = post_problem.optimizer(penalty, Mode::Proposed);

        // No previous solution and no checkpoint: a cold run.
        let (cold_traj, cold) = trace_run(|shared| {
            post_opt
                .rerun_after_edit(&exec, None, &trace, None, Some(shared))
                .map(|report| report.solution)
        })
        .map_err(|e| CliError(format!("{name} (cold): {e}")))?;
        let mut warm_stats = None;
        let (eco_traj, eco) = trace_run(|shared| {
            post_opt
                .rerun_after_edit(&exec, Some(&prev), &trace, None, Some(shared))
                .map(|report| {
                    warm_stats = Some((report.warm, report.carry_ratio()));
                    report.solution
                })
        })
        .map_err(|e| CliError(format!("{name} (eco): {e}")))?;
        let (warm, carry_ratio) = warm_stats.expect("eco run completed");

        // The worse of the two finals: a quality level both engines
        // demonstrably reached within the deadline.
        let target = cold.leakage.value().max(eco.leakage.value());
        let t_cold_ms = time_to(&cold_traj, target, deadline_ms).max(MIN_MS);
        let t_eco_ms = time_to(&eco_traj, target, deadline_ms).max(MIN_MS);
        let speedup = t_cold_ms / t_eco_ms;
        min_speedup = min_speedup.min(speedup);
        rows.push(EcoBenchRow {
            circuit: name.to_string(),
            gates: post.num_gates(),
            inputs: post.num_inputs(),
            edit_ops: script.len(),
            cold_ua: cold.leakage.as_micro_amps(),
            eco_ua: eco.leakage.as_micro_amps(),
            t_cold_ms,
            t_eco_ms,
            speedup,
            warm_candidates: warm.candidates,
            warm_evaluated: warm.evaluated,
            carry_ratio,
        });
    }
    Ok(EcoBenchReport {
        rows,
        deadline_ms,
        threads,
        min_speedup: if min_speedup.is_finite() {
            min_speedup
        } else {
            0.0
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_parseable_json_with_all_rows() {
        let report = EcoBenchReport {
            rows: vec![EcoBenchRow {
                circuit: "c432".to_string(),
                gates: 162,
                inputs: 36,
                edit_ops: 6,
                cold_ua: 11.7,
                eco_ua: 11.6,
                t_cold_ms: 840.0,
                t_eco_ms: 12.0,
                speedup: 70.0,
                warm_candidates: 1,
                warm_evaluated: 1,
                carry_ratio: 0.987,
            }],
            deadline_ms: 1500.0,
            threads: 4,
            min_speedup: 70.0,
        };
        let json = report.render_json();
        let parsed = svtox_obs::json::parse(&json).unwrap();
        assert_eq!(
            parsed.get("min_speedup").and_then(Value::as_f64),
            Some(70.0)
        );
        let Some(Value::Arr(rows)) = parsed.get("rows") else {
            panic!("rows missing");
        };
        assert_eq!(rows[0].get("circuit").and_then(Value::as_str), Some("c432"));
        assert!(report.render_text().contains("minimum speedup"));
    }

    #[test]
    fn trajectory_lookup_uses_first_reaching_sample() {
        let traj = vec![(2.0, 50.0), (10.0, 20.0), (400.0, 12.0)];
        assert!((time_to(&traj, 20.0, 1500.0) - 10.0).abs() < 1e-12);
        assert!((time_to(&traj, 12.0, 1500.0) - 400.0).abs() < 1e-12);
        // A target no sample reaches falls back on the deadline.
        assert!((time_to(&traj, 1.0, 1500.0) - 1500.0).abs() < 1e-12);
    }

    #[test]
    fn a_zero_deadline_run_reports_every_circuit_without_gating() {
        // Both engines fall back on their seeds immediately; the
        // release-mode comparison with a real deadline runs in ci.sh.
        let report = run_eco_bench(Duration::ZERO, 2).unwrap();
        assert_eq!(report.rows.len(), CIRCUITS.len());
        for row in &report.rows {
            assert!(row.cold_ua > 0.0 && row.eco_ua > 0.0, "{}", row.circuit);
            assert_eq!(row.warm_candidates, 1, "{}", row.circuit);
            assert!(row.carry_ratio > 0.9, "{}", row.circuit);
            assert!(row.speedup > 0.0, "{}", row.circuit);
        }
    }
}
