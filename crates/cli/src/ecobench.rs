//! The `svtox suite --eco-bench` benchmark: warm-seeded ECO
//! re-optimization vs a cold restart after a local netlist edit.
//!
//! For each suite circuit the bench optimizes the pristine netlist once
//! (the solution an ECO flow would have on hand), applies a standard edit
//! script (adds, a removal, PO-driver rewires — the shape of a typical
//! engineering change order), and then races two engines on the post-edit
//! problem with the same leaf budget:
//!
//! * **cold** — the plain branch and bound, seeded by Heuristic 1 only;
//! * **eco** — [`svtox_core::Optimizer::rerun_after_edit`], which
//!   additionally re-evaluates the pre-edit solution's vector as a
//!   feasible incumbent before searching.
//!
//! Work is counted in evaluated leaves, not wall time: every run is
//! serial and capped at the same number of leaves (the Heuristic 1 seed
//! and each warm vector count as one), and a [`Convergence`] record
//! stamps each new best leaf value with the leaf count that reached it.
//! The score is *leaves to quality*: with `Q` the worse of the two best
//! values (a quality level both runs provably reached),
//! `speedup = leaves_cold(Q) / leaves_eco(Q)`. The whole report is a
//! deterministic function of the code, independent of machine speed and
//! load. CI gates the minimum per-circuit speedup (warm reuse must pay
//! for itself on every circuit) and records the report to
//! `results/BENCH_eco.json`.

use svtox_cells::{Library, LibraryOptions};
use svtox_core::{Convergence, DelayPenalty, ExecConfig, Mode, Problem};
use svtox_netlist::generators::benchmark;
use svtox_netlist::{EditScript, Netlist};
use svtox_obs::json::Value;
use svtox_sta::TimingConfig;
use svtox_tech::{Current, Technology};

use crate::CliError;

/// Circuits the bench sweeps (same set as the other suite benches).
const CIRCUITS: [&str; 3] = ["c432", "c880", "c1908"];

/// Leaves each run may evaluate (the CI race): about one wall-clock
/// second of serial search on c1908, the slowest suite circuit. The score
/// measures the warm vector's head start, which lasts until the cold run
/// passes the warm value: caps of 96 to 256 leaves all score 29× or more
/// on every circuit, while 384 leaves drop c1908 to 1.0× (DESIGN.md §13).
pub const LEAVES: u64 = 128;

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
    /// Best leakage the cold run evaluated, in µA.
    pub cold_ua: f64,
    /// Best leakage the eco run evaluated (its warm vector included), µA.
    pub eco_ua: f64,
    /// Leaves the cold run took to reach the shared target.
    pub cold_leaves: u64,
    /// Leaves the eco run took to reach the shared target.
    pub eco_leaves: u64,
    /// `cold_leaves / eco_leaves`.
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
    /// Leaves each run was allowed.
    pub leaves: u64,
    /// The smallest per-circuit speedup (the CI gate watches this).
    pub min_speedup: f64,
}

impl EcoBenchReport {
    /// Human-readable table.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<8} {:>7} {:>7} {:>5} {:>10} {:>10} {:>11} {:>10} {:>9}\n",
            "circuit",
            "gates",
            "inputs",
            "edits",
            "cold µA",
            "eco µA",
            "cold leaves",
            "eco leaves",
            "speedup"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<8} {:>7} {:>7} {:>5} {:>10.2} {:>10.2} {:>11} {:>10} {:>8.1}x\n",
                r.circuit,
                r.gates,
                r.inputs,
                r.edit_ops,
                r.cold_ua,
                r.eco_ua,
                r.cold_leaves,
                r.eco_leaves,
                r.speedup
            ));
        }
        out.push_str(&format!(
            "leaf budget: {} per run, minimum speedup: {:.1}x\n",
            self.leaves, self.min_speedup
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
                    ("cold_leaves".to_string(), Value::Num(r.cold_leaves as f64)),
                    ("eco_leaves".to_string(), Value::Num(r.eco_leaves as f64)),
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
                ("leaves".to_string(), Value::Num(self.leaves as f64)),
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

/// First leaf count at which a trajectory reached `target`. Only called
/// with a target at or above the trajectory's last value, so it always
/// finds one.
fn leaves_to(trajectory: &[(u64, f64)], target: f64) -> u64 {
    trajectory
        .iter()
        .find(|&&(_, cost)| cost <= target)
        .map_or(u64::MAX, |&(leaves, _)| leaves)
}

/// The best value a run evaluated: its trajectory's last point.
fn best_of(watch: &Convergence) -> f64 {
    watch
        .trajectory()
        .last()
        .map_or(f64::INFINITY, |&(_, cost)| cost)
}

/// Races the cold and warm engines on every suite circuit, each run
/// serial and capped at `leaves` leaves, and scores leaves to quality.
///
/// # Errors
///
/// Returns an error if a circuit or the library fails to build, or if
/// either engine fails outright.
pub fn run_eco_bench(leaves: u64) -> Result<EcoBenchReport, CliError> {
    let err = |e: &dyn std::fmt::Display| CliError(e.to_string());
    let library = Library::new(Technology::predictive_65nm(), LibraryOptions::default())
        .map_err(|e| err(&e))?;
    let exec = ExecConfig::serial();
    let penalty = DelayPenalty::new(0.05).map_err(|e| err(&e))?;
    let mut rows = Vec::new();
    let mut min_speedup = f64::INFINITY;
    for name in CIRCUITS {
        let pre = benchmark(name).map_err(|e| err(&e))?;
        let pre_problem =
            Problem::new(&pre, &library, TimingConfig::default()).map_err(|e| err(&e))?;
        // The pre-edit solution: a cold run under the same leaf budget
        // (an empty edit script makes the rerun a plain capped run).
        let unedited = EditScript::parse("")
            .and_then(|empty| empty.apply(&mut pre.clone()))
            .map_err(|e| err(&e))?;
        let prev = pre_problem
            .optimizer(penalty, Mode::Proposed)
            .rerun_after_edit(
                &exec,
                None,
                &unedited,
                None,
                Some(&Convergence::new(leaves)),
            )
            .map_err(|e| CliError(format!("{name} (pre-edit): {e}")))?
            .solution;

        let script = EditScript::parse(&standard_edit_script(&pre))
            .map_err(|e| CliError(format!("{name}: {e}")))?;
        let mut post = pre.clone();
        let trace = script
            .apply(&mut post)
            .map_err(|e| CliError(format!("{name}: {e}")))?;
        let post_problem =
            Problem::new(&post, &library, TimingConfig::default()).map_err(|e| err(&e))?;
        let post_opt = post_problem.optimizer(penalty, Mode::Proposed);

        // No previous solution and no checkpoint: a cold run.
        let cold = Convergence::new(leaves);
        post_opt
            .rerun_after_edit(&exec, None, &trace, None, Some(&cold))
            .map_err(|e| CliError(format!("{name} (cold): {e}")))?;
        let eco = Convergence::new(leaves);
        let report = post_opt
            .rerun_after_edit(&exec, Some(&prev), &trace, None, Some(&eco))
            .map_err(|e| CliError(format!("{name} (eco): {e}")))?;

        // The worse of the two best values: a quality level both runs
        // demonstrably reached within the budget.
        let (cold_best, eco_best) = (best_of(&cold), best_of(&eco));
        let target = cold_best.max(eco_best);
        let cold_leaves = leaves_to(&cold.trajectory(), target);
        let eco_leaves = leaves_to(&eco.trajectory(), target);
        let speedup = cold_leaves as f64 / eco_leaves as f64;
        min_speedup = min_speedup.min(speedup);
        rows.push(EcoBenchRow {
            circuit: name.to_string(),
            gates: post.num_gates(),
            inputs: post.num_inputs(),
            edit_ops: script.len(),
            cold_ua: Current::new(cold_best).as_micro_amps(),
            eco_ua: Current::new(eco_best).as_micro_amps(),
            cold_leaves,
            eco_leaves,
            speedup,
            warm_candidates: report.warm.candidates,
            warm_evaluated: report.warm.evaluated,
            carry_ratio: report.carry_ratio(),
        });
    }
    Ok(EcoBenchReport {
        rows,
        leaves,
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
                cold_leaves: 140,
                eco_leaves: 2,
                speedup: 70.0,
                warm_candidates: 1,
                warm_evaluated: 1,
                carry_ratio: 0.987,
            }],
            leaves: 128,
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
        let trajectory = [(1, 50.0), (3, 20.0), (40, 12.0)];
        assert_eq!(leaves_to(&trajectory, 20.0), 3);
        assert_eq!(leaves_to(&trajectory, 25.0), 3);
        assert_eq!(leaves_to(&trajectory, 12.0), 40);
    }

    #[test]
    fn a_zero_deadline_run_reports_every_circuit_without_gating() {
        // With no leaves to spend, both engines fall back on their seeds
        // immediately; the gated budget runs in ci.sh. The race has no
        // clock, so two runs agree bit for bit.
        let report = run_eco_bench(0).unwrap();
        assert_eq!(report.rows.len(), CIRCUITS.len());
        for row in &report.rows {
            assert!(row.cold_ua > 0.0 && row.eco_ua > 0.0, "{}", row.circuit);
            assert_eq!(row.warm_candidates, 1, "{}", row.circuit);
            assert!(row.carry_ratio > 0.9, "{}", row.circuit);
            // The seed, then at most the warm vector.
            assert_eq!(row.cold_leaves, 1, "{}", row.circuit);
            assert!(row.eco_leaves <= 2, "{}", row.circuit);
            assert!(row.speedup > 0.0, "{}", row.circuit);
        }
        assert_eq!(
            report.render_json(),
            run_eco_bench(0).unwrap().render_json()
        );
    }
}
