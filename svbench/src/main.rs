//! `svbench`: the end-to-end and per-layer benchmark of the svtox
//! workspace.
//!
//! ```text
//! cargo run --release --manifest-path svbench/Cargo.toml -- \
//!     --workload prove|iscas|exact|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the last line of standard output carries the
//! end-to-end metrics; with `--trace 1` it carries the per-layer metrics,
//! and every span the benchmark recorded is written to
//! `svbench/out/trace-<workload>-<seed>.jsonl`. Each metric is also
//! printed as a result row carrying `nproc` and the git revision. Any
//! failed check makes the exit code non-zero. See `svbench/README.md`.

mod affinity;
mod compute;
mod probes;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Prove,
    Iscas,
    Exact,
    Serve,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "prove" => Self::Prove,
            "iscas" => Self::Iscas,
            "exact" => Self::Exact,
            "serve" => Self::Serve,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Self::Prove => "prove",
            Self::Iscas => "iscas",
            Self::Exact => "exact",
            Self::Serve => "serve",
        }
    }
}

/// End-to-end metrics, in report order.
const END_TO_END: &[&str] = &[
    "setup_s",
    "jobs_per_s",
    "p50_ms",
    "p90_ms",
    "leak_ua",
    "peak_rss_mb",
    "ok_rate",
];

/// Per-layer metrics: name and the end-to-end metric (and workload) a
/// change to that layer should move.
const PER_LAYER: &[(&str, &str)] = &[
    ("cells.library_ms", "setup_s, all workloads"),
    ("netlist.build_ms", "setup_s, all workloads"),
    ("core.problem_ms", "setup_s (iscas)"),
    (
        "sim.tri_set_input_ns",
        "jobs_per_s on iscas and prove 25%; not exact/serve",
    ),
    (
        "sim.possible_states_ns",
        "jobs_per_s on iscas and prove 25%; not exact/serve",
    ),
    ("core.h1_us_per_decision", "jobs_per_s on iscas"),
    ("sim.packed_sweep_us", "jobs_per_s on prove 5% and iscas"),
    ("core.leaf_us", "jobs_per_s on prove"),
    ("core.nodes_per_s", "jobs_per_s on prove"),
    ("core.prune_ratio", "jobs_per_s on prove, leak_ua unchanged"),
    ("core.search.nodes", "explains jobs_per_s on prove/exact"),
    ("core.search.leaves", "explains jobs_per_s on prove/exact"),
    ("sta.flushes", "explains jobs_per_s on prove/exact"),
    (
        "sta.gates_reevaluated",
        "explains jobs_per_s on prove/exact",
    ),
    ("sta.query_ns", "jobs_per_s on exact, then prove"),
    ("sta.gates_per_query", "jobs_per_s on exact, then prove"),
    ("core.exact_leaf_ms", "jobs_per_s on exact"),
    ("serve.post_ms", "p50_ms/p90_ms/jobs_per_s on serve only"),
    ("serve.run_ms", "p50_ms/p90_ms/jobs_per_s on serve only"),
    ("serve.status_ms", "p50_ms/p90_ms/jobs_per_s on serve only"),
    ("serve.search_ms", "p50_ms on serve"),
    ("serve.overhead_ms", "p50_ms on serve"),
    ("serve.journal_admit_us", "p50_ms on serve"),
    ("serve.journal_done_us", "p50_ms on serve"),
    ("serve.cache_hit_ratio", "p50_ms on serve"),
    ("serve.cold_ms", "setup_s on serve"),
    ("trace.overhead_pct", "none: traced vs untraced rounds"),
];

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failures: Vec<String>,
    /// Rounds (compute workloads) or jobs (`serve`) measured.
    pub samples: usize,
    metrics: Vec<(String, f64, String)>,
}

impl Report {
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failures.push(why.into());
    }

    /// Records (or replaces) a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Records the end-to-end metrics every workload measures.
    pub fn end_to_end(&mut self, setup_s: f64, jobs_per_s: f64, p50: f64, p90: f64, leak: f64) {
        self.metric("setup_s", setup_s, "s");
        self.metric("jobs_per_s", jobs_per_s, "1/s");
        self.metric("p50_ms", p50, "ms");
        self.metric("p90_ms", p90, "ms");
        self.metric("leak_ua", leak, "uA");
    }

    fn get(&self, name: &str) -> Option<&(String, f64, String)> {
        self.metrics.iter().find(|(n, _, _)| n == name)
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (0 or 1)")),
                };
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The revision of the checkout, when it carries its git metadata.
fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or_else(|| "unknown".to_string()),
            None => head,
        },
        None => "unknown".to_string(),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("svbench: {e}");
            eprintln!(
                "usage: svbench --workload prove|iscas|exact|serve --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let tracer = Tracer::new(args.trace);
    let mut report = Report::default();
    match args.workload {
        Workload::Serve => serve::run(args.seed, args.seconds, &tracer, &mut report),
        w => compute::run(w, args.seed, args.seconds, &tracer, &mut report),
    }
    let workload = args.workload.name();
    if args.trace {
        let med = |name: &str| stats::median(&tracer.durations_ms(name));
        let mean = |name: &str| {
            let d = tracer.durations_ms(name);
            stats::ratio(d.iter().sum(), d.len() as f64)
        };
        report.metric("cells.library_ms", med("cells.library"), "ms");
        report.metric("netlist.build_ms", mean("netlist.build"), "ms");
        report.metric("core.problem_ms", mean("core.problem"), "ms");
        let path = format!("svbench/out/trace-{workload}-{}.jsonl", args.seed);
        if let Err(e) = tracer.write_jsonl(Path::new(&path), workload) {
            report.fail(format!("write {path}: {e}"));
        }
        eprintln!("self time by span ({workload}, seed {}):", args.seed);
        for (name, row) in tracer.self_times() {
            eprintln!(
                "  {name:<22} calls {:>7}  total {:>10.3} ms  self {:>10.3} ms",
                row.calls,
                row.total_ns as f64 / 1e6,
                row.self_ns as f64 / 1e6
            );
        }
    }
    match peak_rss_mb() {
        Some(mb) => report.metric("peak_rss_mb", mb, "MiB"),
        None => report.fail("cannot read VmHWM from /proc/self/status"),
    }
    let failed = report.failures.len() as u64;
    let ok_rate = (1.0 - stats::ratio(failed as f64, report.attempted as f64)).max(0.0);
    report.metric("ok_rate", ok_rate, "fraction");

    let wanted: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().map(|n| (*n, "")).collect()
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rev = git_rev();
    let mut metrics = String::new();
    let mut missing = Vec::new();
    for (name, moves) in &wanted {
        let Some((_, value, unit)) = report.get(name).cloned() else {
            missing.push(*name);
            continue;
        };
        if !value.is_finite() {
            missing.push(*name);
            continue;
        }
        println!(
            "{{\"bench\":\"svbench\",\"case\":\"{workload}\",\"metric\":\"{name}\",\"value\":{value},\"unit\":\"{unit}\",\"moves\":\"{moves}\",\"seed\":{},\"samples\":{},\"threads\":1,\"nproc\":{nproc},\"git_rev\":\"{rev}\"}}",
            args.seed, report.samples
        );
        if !metrics.is_empty() {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    for name in missing {
        report.fail(format!("metric {name} was not measured"));
    }
    for f in &report.failures {
        eprintln!("svbench: check failed: {f}");
    }
    let correct = report.failures.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.attempted.max(1),
        report.failures.len()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
