//! The `serve` workload: an in-process `svtox_serve` server with one
//! runner and a fresh, empty journal, driven by one closed-loop client.
//!
//! Each job POSTs a small inline `.bench` DAG with a generous deadline,
//! blocks on `GET /jobs/:id/events` until the server closes the job's
//! event stream, then reads `GET /jobs/:id`. Every request opens its own
//! connection; the client never sleeps and never polls. About one job
//! in four carries a circuit the server has not seen (a netlist-cache
//! miss); the rest repeat earlier circuits.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use svtox_core::{DelayPenalty, ExecConfig, Mode, RunOutcome};
use svtox_exec::rng::{derive_seed, Xoshiro256pp};
use svtox_netlist::{map_to_primitives, parse_bench, MappingOptions, Netlist};
use svtox_obs::json;
use svtox_serve::http::call;
use svtox_serve::{start, ServerConfig, ServerHandle};

use crate::compute::{self, SETUP_REPS};
use crate::stats::{median, ms, quantile, ratio};
use crate::trace::Tracer;
use crate::{probes, Report};

/// Jobs per run at least, so `p90_ms` has ten samples beyond it.
const MIN_JOBS: usize = 100;
/// Jobs of the short session the compute workloads' traced runs use to
/// measure the serve layer.
const PROBE_JOBS: usize = 12;
/// Circuit shape: inputs, outputs, gates, depth.
const SHAPE: (usize, usize, usize, usize) = (7, 4, 32, 7);
/// Delay penalty in percent, as the wire format takes it.
const PENALTY_PCT: f64 = 5.0;
/// Far beyond any job's run time: jobs end `complete`, never by deadline.
const DEADLINE_MS: u64 = 60_000;
const TIMEOUT: Duration = Duration::from_secs(120);

/// One distinct circuit: its wire text and the in-process reference.
struct Circuit {
    text: String,
    netlist: Netlist,
    leakage_bits: u64,
    leak_ua: f64,
    search_ms: f64,
}

/// Per-job client-side timings.
struct JobTimes {
    circuit: usize,
    post_ms: f64,
    run_ms: f64,
    status_ms: f64,
    total_ms: f64,
    /// Whether the tracer recorded this job's spans.
    recorded: bool,
}

struct Session {
    circuits: Vec<Circuit>,
    rng: Xoshiro256pp,
    /// Jobs sent to the current server, the cold one included.
    sent: usize,
    /// Timings of the measured (warm) jobs.
    jobs: Vec<JobTimes>,
    root: PathBuf,
}

impl Session {
    fn new(seed: u64) -> Self {
        Self {
            circuits: Vec::new(),
            rng: Xoshiro256pp::seed_from_u64(derive_seed(seed, 0x5e7e)),
            sent: 0,
            jobs: Vec::new(),
            root: PathBuf::from(format!("svbench/out/serve-{seed}-{}", std::process::id())),
        }
    }

    /// A fresh circuit: generated, written as `.bench`, and optimized
    /// in-process (parse and map exactly as the server does, then
    /// `Optimizer::run` serially) for the bit-identity check.
    fn add_circuit(&mut self, lib: &svtox_cells::Library, tracer: &Tracer) -> Result<(), String> {
        let index = self.circuits.len();
        let generated = {
            let _s = tracer.span("netlist.build", index as u64);
            compute::dag("s_", index as u64, SHAPE)?
        };
        let text = generated.to_bench();
        let netlist = parse_bench(&text)
            .and_then(|raw| map_to_primitives(&raw, MappingOptions::default()))
            .map_err(|e| format!("re-parse circuit {index}: {e}"))?;
        let problem = compute::problem(&netlist, lib, tracer)?;
        let penalty = DelayPenalty::new(PENALTY_PCT / 100.0).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let outcome = {
            let _s = tracer.span("serve.reference", index as u64);
            problem
                .optimizer(penalty, Mode::Proposed)
                .run(&ExecConfig::serial(), None)
        };
        let search_ms = ms(t.elapsed());
        let RunOutcome::Complete { solution, .. } = outcome else {
            return Err(format!(
                "reference for circuit {index} ended {}",
                outcome.status()
            ));
        };
        compute::check(&problem, penalty, &solution)?;
        let (leakage_bits, leak_ua) = (
            solution.leakage.value().to_bits(),
            solution.leakage.as_micro_amps(),
        );
        drop(problem);
        self.circuits.push(Circuit {
            text,
            netlist,
            leakage_bits,
            leak_ua,
            search_ms,
        });
        Ok(())
    }

    /// The circuit of the next job: a new one for every fourth job,
    /// otherwise a seeded pick among those already served.
    fn next_circuit(
        &mut self,
        lib: &svtox_cells::Library,
        tracer: &Tracer,
    ) -> Result<usize, String> {
        if self.sent.is_multiple_of(4) {
            self.add_circuit(lib, tracer)?;
            Ok(self.circuits.len() - 1)
        } else {
            Ok(self.rng.gen_index(self.circuits.len()))
        }
    }

    /// Sends one job and waits for it without polling; checks the result.
    fn job(&mut self, addr: &str, circuit: usize, tracer: &Tracer) -> Result<(), String> {
        let mut body = String::from("{\"bench\":");
        json::escape_into(&mut body, &self.circuits[circuit].text);
        body.push_str(&format!(
            ",\"penalty\":{PENALTY_PCT},\"deadline_ms\":{DEADLINE_MS},\"threads\":1}}"
        ));
        let t0 = Instant::now();
        self.sent += 1;
        let job_span = tracer.span("serve.job", self.sent as u64);
        let posted = {
            let _s = tracer.span("serve.post", self.sent as u64);
            http(addr, "POST", "/jobs", &body, 202)?
        };
        let t1 = Instant::now();
        let id = posted
            .get("id")
            .and_then(json::Value::as_f64)
            .ok_or("POST /jobs answered without an id")? as u64;
        {
            // Returns when the server closes the job's event stream.
            let _s = tracer.span("serve.run", id);
            http_text(addr, &format!("/jobs/{id}/events"))?;
        }
        let t2 = Instant::now();
        let status = {
            let _s = tracer.span("serve.status", id);
            http(addr, "GET", &format!("/jobs/{id}"), "", 200)?
        };
        let t3 = Instant::now();
        drop(job_span);
        let field =
            |v: &json::Value, k: &str| v.get(k).and_then(|x| x.as_str().map(str::to_string));
        let state = field(&status, "state").unwrap_or_default();
        let outcome = field(&status, "outcome").unwrap_or_default();
        if state != "done" || outcome != "complete" {
            return Err(format!("job {id}: state {state}, outcome {outcome}"));
        }
        let bits = field(&status, "leakage_bits").unwrap_or_default();
        let want = format!("{:016x}", self.circuits[circuit].leakage_bits);
        if bits != want {
            return Err(format!(
                "job {id}: leakage bits {bits}, in-process run gives {want}"
            ));
        }
        self.jobs.push(JobTimes {
            circuit,
            post_ms: ms(t1 - t0),
            run_ms: ms(t2 - t1),
            status_ms: ms(t3 - t2),
            total_ms: ms(t3 - t0),
            recorded: tracer.recording(),
        });
        Ok(())
    }
}

/// One HTTP call on a fresh connection, expecting `want` and a JSON body.
fn http(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
    want: u16,
) -> Result<json::Value, String> {
    let resp =
        call(addr, method, path, body, TIMEOUT).map_err(|e| format!("{method} {path}: {e}"))?;
    if resp.status != want {
        return Err(format!(
            "{method} {path}: status {} ({})",
            resp.status,
            resp.body.trim()
        ));
    }
    json::parse(&resp.body).map_err(|e| format!("{method} {path}: {e}"))
}

/// `GET path` on a fresh connection, expecting 200 and a text body.
fn http_text(addr: &str, path: &str) -> Result<String, String> {
    match call(addr, "GET", path, "", TIMEOUT) {
        Ok(resp) if resp.status == 200 => Ok(resp.body),
        Ok(resp) => Err(format!("GET {path}: status {}", resp.status)),
        Err(e) => Err(format!("GET {path}: {e}")),
    }
}

/// Starts a server on a fresh, empty journal directory.
fn server(dir: &Path) -> Result<ServerHandle, String> {
    let _ = std::fs::remove_dir_all(dir);
    start(ServerConfig {
        runners: 1,
        journal: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    })
    .map_err(|e| format!("start server: {e}"))
}

fn metric(text: &str, name: &str) -> f64 {
    text.lines()
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            (parts.next()? == name).then(|| parts.next()?.parse::<f64>().ok())?
        })
        .next()
        .unwrap_or(0.0)
}

/// What a session measured besides the per-job times.
struct SessionOut {
    /// Set-up times in seconds.
    setup: Vec<f64>,
    /// Cold-job latencies in milliseconds.
    cold: Vec<f64>,
    /// The last server's `/metrics` text: it served the last cold job
    /// and every measured job.
    metrics: String,
    /// In-process search time of every job the last server ran.
    served_search_ms: f64,
}

/// Set-up (server start through the first, cold job) `reps` times,
/// then closed-loop jobs until both `seconds` and `min_jobs` are met.
/// Every server is shut down and the journal directories removed, also
/// when a job fails.
fn session(
    s: &mut Session,
    lib: &svtox_cells::Library,
    reps: usize,
    seconds: f64,
    min_jobs: usize,
    tracer: &Tracer,
) -> Result<SessionOut, String> {
    let result = serve_jobs(s, lib, reps, seconds, min_jobs, tracer);
    let _ = std::fs::remove_dir_all(&s.root);
    result
}

fn serve_jobs(
    s: &mut Session,
    lib: &svtox_cells::Library,
    reps: usize,
    seconds: f64,
    min_jobs: usize,
    tracer: &Tracer,
) -> Result<SessionOut, String> {
    let (mut setup, mut cold) = (Vec::new(), Vec::new());
    let mut cold_search_ms = 0.0;
    let mut handle: Option<ServerHandle> = None;
    for rep in 0..reps {
        if let Some(old) = handle.take() {
            old.shutdown();
        }
        s.sent = 0;
        s.jobs.clear();
        let circuit = s.next_circuit(lib, tracer)?;
        let t = Instant::now();
        let h = server(&s.root.join(format!("journal-{rep}")))?;
        let cold_job = s.job(&h.addr().to_string(), circuit, tracer);
        let elapsed = t.elapsed().as_secs_f64();
        if let Err(e) = cold_job {
            h.shutdown();
            return Err(e);
        }
        handle = Some(h);
        setup.push(elapsed);
        cold.push(s.jobs[0].total_ms);
        cold_search_ms = s.circuits[circuit].search_ms;
    }
    let h = handle.ok_or("no set-up repetitions")?;
    let addr = h.addr().to_string();
    // The cold job stays out of the latency sample.
    s.jobs.clear();
    let start = Instant::now();
    let mut result = Ok(());
    while result.is_ok() && (s.jobs.len() < min_jobs || start.elapsed().as_secs_f64() < seconds) {
        // A traced run records every other job, to measure its own cost.
        tracer.set_recording(s.jobs.len().is_multiple_of(2));
        result = s
            .next_circuit(lib, tracer)
            .and_then(|circuit| s.job(&addr, circuit, tracer));
    }
    tracer.set_recording(true);
    let metrics = http_text(&addr, "/metrics");
    h.shutdown();
    result?;
    let served_search_ms = cold_search_ms
        + s.jobs
            .iter()
            .map(|j| s.circuits[j.circuit].search_ms)
            .sum::<f64>();
    Ok(SessionOut {
        setup,
        cold,
        metrics: metrics?,
        served_search_ms,
    })
}

/// Records the serve-layer per-layer metrics of a finished session.
fn layer_metrics(s: &Session, out: &SessionOut, report: &mut Report) {
    let col = |f: fn(&JobTimes) -> f64| s.jobs.iter().map(f).collect::<Vec<f64>>();
    report.metric("serve.post_ms", median(&col(|j| j.post_ms)), "ms");
    report.metric("serve.run_ms", median(&col(|j| j.run_ms)), "ms");
    report.metric("serve.status_ms", median(&col(|j| j.status_ms)), "ms");
    let search: Vec<f64> = s
        .jobs
        .iter()
        .map(|j| s.circuits[j.circuit].search_ms)
        .collect();
    let overhead: Vec<f64> = s
        .jobs
        .iter()
        .map(|j| j.run_ms - s.circuits[j.circuit].search_ms)
        .collect();
    report.metric("serve.search_ms", median(&search), "ms");
    report.metric("serve.overhead_ms", median(&overhead), "ms");
    let hits = metric(&out.metrics, "serve.cache.netlist_hits");
    let misses = metric(&out.metrics, "serve.cache.netlist_misses");
    report.metric(
        "serve.cache_hit_ratio",
        ratio(hits, hits + misses),
        "fraction",
    );
    report.metric("serve.cold_ms", median(&out.cold), "ms");
}

pub fn run(seed: u64, seconds: f64, tracer: &Tracer, report: &mut Report) {
    let mut s = Session::new(seed);
    let outcome = compute::library(tracer).and_then(|lib| {
        let out = session(&mut s, &lib, SETUP_REPS, seconds, MIN_JOBS, tracer)?;
        Ok((lib, out))
    });
    report.attempted += (s.jobs.len() + SETUP_REPS) as u64;
    let (lib, out) = match outcome {
        Ok(v) => v,
        Err(e) => return report.fail(e),
    };
    let total: Vec<f64> = s.jobs.iter().map(|j| j.total_ms).collect();
    // Every run serves at least this many distinct circuits, the same
    // ones for every seed.
    let leak: f64 = s.circuits[..MIN_JOBS / 4].iter().map(|c| c.leak_ua).sum();
    report.samples = s.jobs.len();
    report.end_to_end(
        median(&out.setup),
        s.jobs.len() as f64 / (total.iter().sum::<f64>() / 1e3),
        median(&total),
        quantile(&total, 0.9),
        leak,
    );
    if tracer.enabled() {
        layer_metrics(&s, &out, report);
        let split = |rec: bool| -> Vec<f64> {
            s.jobs
                .iter()
                .filter(|j| j.recorded == rec)
                .map(|j| j.total_ms)
                .collect()
        };
        report.metric(
            "trace.overhead_pct",
            (ratio(median(&split(true)), median(&split(false))) - 1.0) * 100.0,
            "%",
        );
        // The server folds every job's engine counters into `/metrics`.
        probes::search_metrics(|k| metric(&out.metrics, k), out.served_search_ms, report);
        let step = (s.circuits.len() / 8).max(1);
        let sample: Vec<&Netlist> = s
            .circuits
            .iter()
            .step_by(step)
            .map(|c| &c.netlist)
            .collect();
        let result = compute::problems(sample.into_iter(), &lib, tracer)
            .and_then(|probs| probes::run_all(&probs, seed, tracer, report))
            .and_then(|()| probes::exact_leaf(&lib, tracer, report));
        if let Err(e) = result {
            report.fail(e);
        }
    }
}

/// A short serve session for the traced runs of the compute workloads,
/// so every run reports the serve layer.
pub fn probe_session(seed: u64, tracer: &Tracer, report: &mut Report) {
    let mut s = Session::new(seed);
    let result =
        compute::library(tracer).and_then(|lib| session(&mut s, &lib, 1, 0.0, PROBE_JOBS, tracer));
    match result {
        Ok(out) => layer_metrics(&s, &out, report),
        Err(e) => report.fail(e),
    }
}
