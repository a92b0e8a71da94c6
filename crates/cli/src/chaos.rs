//! `svtox chaos` — named fault-injection scenarios with asserted
//! degradation invariants.
//!
//! Each scenario drives the real optimizer stack (engine, search, file
//! readers) under a deterministic, seeded fault plan and checks the
//! robustness contract the workspace promises:
//!
//! * a fault never panics the process — it surfaces as a typed error or
//!   a [`RunOutcome::Degraded`];
//! * a degraded run's incumbent verifies and is never worse than the
//!   Heuristic 1 seed (the anytime guarantee);
//! * a killed, checkpointed run resumes to the bit-identical solution of
//!   an uninterrupted run.
//!
//! Any violated invariant makes the subcommand exit non-zero, so CI can
//! run `svtox chaos --all --seed 7 --threads 4` as a gate.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use svtox_cells::{Library, LibraryOptions};
use svtox_core::{
    CheckpointSpec, DegradeReason, DelayPenalty, ExecConfig, Mode, Problem, RetryPolicy, RunOutcome,
};
use svtox_fault::{silence_injected_panics, Fault, FaultPlan, Site, Trigger};
use svtox_sta::TimingConfig;
use svtox_tech::Technology;

use crate::{load_circuit_faulted, CliError};

/// Arguments of `svtox chaos`.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosArgs {
    /// A single scenario name, or `None` with `all`.
    pub scenario: Option<String>,
    /// Run every scenario.
    pub all: bool,
    /// Base seed for the fault plans.
    pub seed: u64,
    /// Worker threads for the scenarios that search.
    pub threads: usize,
    /// Benchmark or file for the circuit-level scenarios.
    pub target: String,
}

/// The available scenario names, in execution order.
pub const SCENARIOS: &[&str] = &[
    "panic-storm",
    "worker-loss",
    "truncated-file",
    "clock-skew",
    "kill-resume",
    "serve-kill-job",
    "client-disconnect",
    "serve-kill-restart-resume",
    "journal-torn-write",
];

/// Runs the selected chaos scenarios.
///
/// # Errors
///
/// Returns [`CliError`] carrying the full report when any scenario's
/// invariant is violated (so the binary exits non-zero), or for an
/// unknown scenario name.
pub fn run_chaos(args: &ChaosArgs) -> Result<String, CliError> {
    silence_injected_panics();
    let selected: Vec<&str> = if args.all {
        SCENARIOS.to_vec()
    } else {
        let name = args.scenario.as_deref().unwrap_or_default();
        if !SCENARIOS.contains(&name) {
            return Err(CliError(format!(
                "unknown scenario `{name}`; available: {}",
                SCENARIOS.join(", ")
            )));
        }
        vec![
            SCENARIOS[SCENARIOS
                .iter()
                .position(|s| *s == name)
                .expect("checked above")],
        ]
    };

    let mut out = String::new();
    let mut failures = 0usize;
    for name in &selected {
        let result = run_scenario(name, args);
        match result {
            Ok(detail) => {
                let _ = writeln!(out, "PASS {name}: {detail}");
            }
            Err(detail) => {
                failures += 1;
                let _ = writeln!(out, "FAIL {name}: {detail}");
            }
        }
    }
    let _ = writeln!(
        out,
        "chaos: {}/{} scenarios passed (seed {}, {} threads)",
        selected.len() - failures,
        selected.len(),
        args.seed,
        args.threads.max(1)
    );
    if failures > 0 {
        Err(CliError(out))
    } else {
        Ok(out)
    }
}

fn run_scenario(name: &str, args: &ChaosArgs) -> Result<String, String> {
    // A scenario panicking is itself an invariant violation — the whole
    // point is that faults degrade, never crash.
    let outcome = catch_unwind(AssertUnwindSafe(|| match name {
        "panic-storm" => panic_storm(args),
        "worker-loss" => worker_loss(args),
        "truncated-file" => truncated_file(args),
        "clock-skew" => clock_skew(args),
        "kill-resume" => kill_resume(args),
        "serve-kill-job" => serve_kill_job(args),
        "client-disconnect" => client_disconnect(args),
        "serve-kill-restart-resume" => serve_kill_restart_resume(args),
        "journal-torn-write" => journal_torn_write(args),
        other => Err(format!("unimplemented scenario `{other}`")),
    }));
    outcome.unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_else(|| "non-string panic payload".to_string());
        Err(format!("scenario panicked: {message}"))
    })
}

/// Loads the target circuit and builds the default problem around it.
fn target_problem(target: &str) -> Result<(svtox_netlist::Netlist, Library), String> {
    let netlist = load_circuit_faulted(target, Fault::disabled_ref()).map_err(|e| e.to_string())?;
    let lib = Library::new(Technology::predictive_65nm(), LibraryOptions::default())
        .map_err(|e| e.to_string())?;
    Ok((netlist, lib))
}

/// Dispatch panics rain on every third task start; retries must absorb
/// or degrade, never fail outright, and the incumbent must stay valid.
/// (A count trigger, not a probability: under a short wall-clock budget
/// only a few dispatches happen, and the storm must be guaranteed to
/// land on some of them for any seed.)
fn panic_storm(args: &ChaosArgs) -> Result<String, String> {
    let (netlist, lib) = target_problem(&args.target)?;
    let problem =
        Problem::new(&netlist, &lib, TimingConfig::default()).map_err(|e| e.to_string())?;
    let plan = FaultPlan::new(args.seed).with_rule(Site::ExecDispatch, Trigger::EveryNth(3));
    let fault = Fault::new(&plan);
    let opt = problem
        .optimizer(DelayPenalty::five_percent(), Mode::Proposed)
        .with_fault(&fault);
    let h1 = opt.heuristic1().map_err(|e| e.to_string())?;
    let exec = ExecConfig::with_threads(args.threads.max(2))
        .with_time_budget(Duration::from_secs(1))
        .with_retries(RetryPolicy::resilient());
    let outcome = opt.run(&exec, None);
    let best = match &outcome {
        RunOutcome::Failed { error } => return Err(format!("run failed outright: {error}")),
        _ => outcome
            .best()
            .expect("non-failed outcome carries a solution"),
    };
    best.verify(&problem)
        .map_err(|e| format!("incumbent does not verify: {e}"))?;
    if best.leakage.value() > h1.leakage.value() * (1.0 + 1e-12) {
        return Err(format!(
            "incumbent {} worse than the pre-fault H1 seed {}",
            best.leakage, h1.leakage
        ));
    }
    if fault.fired(Site::ExecDispatch) == 0 {
        return Err("storm never fired — the scenario tested nothing".to_string());
    }
    Ok(format!(
        "{} after {} dispatch panics; incumbent {} ≤ seed {}",
        outcome.status(),
        fault.fired(Site::ExecDispatch),
        best.leakage,
        h1.leakage
    ))
}

/// A worker dies mid-queue; the supervisor must respawn it and keep every
/// finished result.
fn worker_loss(args: &ChaosArgs) -> Result<String, String> {
    let (netlist, lib) = target_problem(&args.target)?;
    let problem =
        Problem::new(&netlist, &lib, TimingConfig::default()).map_err(|e| e.to_string())?;
    let plan = FaultPlan::new(args.seed).with_rule(Site::ExecPop, Trigger::Nth(2));
    let fault = Fault::new(&plan);
    let opt = problem
        .optimizer(DelayPenalty::five_percent(), Mode::Proposed)
        .with_fault(&fault);
    let exec = ExecConfig::with_threads(args.threads.max(2))
        .with_time_budget(Duration::from_secs(1))
        .with_retries(RetryPolicy::resilient());
    let outcome = opt.run(&exec, None);
    let best = match &outcome {
        RunOutcome::Failed { error } => return Err(format!("run failed outright: {error}")),
        _ => outcome
            .best()
            .expect("non-failed outcome carries a solution"),
    };
    best.verify(&problem)
        .map_err(|e| format!("incumbent does not verify: {e}"))?;
    if fault.fired(Site::ExecPop) == 0 {
        return Err("the pop fault never fired".to_string());
    }
    let respawns = outcome.stats().map_or(0, |s| s.respawns);
    if respawns == 0 {
        return Err("the dead worker was never respawned".to_string());
    }
    Ok(format!(
        "{} with {respawns} respawn(s) after a worker death; incumbent {}",
        outcome.status(),
        best.leakage
    ))
}

/// A netlist file read fails, then gets torn in half: both must surface
/// as typed errors, never a panic or a silently half-loaded circuit.
fn truncated_file(args: &ChaosArgs) -> Result<String, String> {
    let (netlist, _) = target_problem(&args.target)?;
    let path = std::env::temp_dir().join(format!(
        "svtox-chaos-trunc-{}-{}.bench",
        args.seed,
        std::process::id()
    ));
    std::fs::write(&path, netlist.to_bench()).map_err(|e| e.to_string())?;
    let target = path.display().to_string();

    let read_plan = FaultPlan::new(args.seed).with_rule(Site::FileRead, Trigger::Nth(1));
    let io_err = match load_circuit_faulted(&target, &Fault::new(&read_plan)) {
        Ok(_) => {
            std::fs::remove_file(&path).ok();
            return Err("injected read fault produced a circuit".to_string());
        }
        Err(e) => e.to_string(),
    };
    if !io_err.contains("injected fault") {
        std::fs::remove_file(&path).ok();
        return Err(format!("read error does not name the fault: {io_err}"));
    }

    let tear_plan = FaultPlan::new(args.seed).with_rule(Site::FileTruncate, Trigger::Nth(1));
    let tear_err = match load_circuit_faulted(&target, &Fault::new(&tear_plan)) {
        Ok(_) => {
            std::fs::remove_file(&path).ok();
            return Err("a torn netlist file parsed and validated".to_string());
        }
        Err(e) => e.to_string(),
    };
    std::fs::remove_file(&path).ok();
    Ok(format!("read fault → `{io_err}`; torn file → `{tear_err}`"))
}

/// The budget clock skews to zero: the run must degrade to the Heuristic
/// 1 seed with the deadline as the stated reason.
fn clock_skew(args: &ChaosArgs) -> Result<String, String> {
    let (netlist, lib) = target_problem(&args.target)?;
    let problem =
        Problem::new(&netlist, &lib, TimingConfig::default()).map_err(|e| e.to_string())?;
    let plan = FaultPlan::new(args.seed).with_rule(Site::BudgetClock, Trigger::Nth(1));
    let fault = Fault::new(&plan);
    let opt = problem
        .optimizer(DelayPenalty::five_percent(), Mode::Proposed)
        .with_fault(&fault);
    let h1 = opt.heuristic1().map_err(|e| e.to_string())?;
    let exec =
        ExecConfig::with_threads(args.threads.max(1)).with_time_budget(Duration::from_secs(3600));
    let outcome = opt.run(&exec, None);
    let RunOutcome::Degraded { reason, best, .. } = outcome else {
        return Err(format!("expected a degraded run, got {}", outcome.status()));
    };
    if reason != DegradeReason::DeadlineExpired {
        return Err(format!("expected the deadline as reason, got `{reason}`"));
    }
    if !best.same_assignment(&h1) {
        return Err("a zero-budget run moved off the H1 seed".to_string());
    }
    Ok(format!(
        "degraded ({reason}); incumbent pinned to the H1 seed at {}",
        best.leakage
    ))
}

/// A mid-search kill with a checkpoint, then a resume: the final solution
/// must be bit-identical to a never-interrupted run.
fn kill_resume(args: &ChaosArgs) -> Result<String, String> {
    // A small generated DAG whose tree exhausts in well under a second —
    // kill/resume bit-identity needs runs that actually finish.
    let (netlist, lib) = svtox_check::domain::circuit("chaos-kill-resume", 7, 32, 5);
    let problem =
        Problem::new(&netlist, &lib, TimingConfig::default()).map_err(|e| e.to_string())?;
    let opt = problem.optimizer(DelayPenalty::five_percent(), Mode::Proposed);
    let h1 = opt.heuristic1().map_err(|e| e.to_string())?;
    let exec = ExecConfig::with_threads(args.threads.max(1));
    let RunOutcome::Complete {
        solution: reference,
        ..
    } = opt.run(&exec, None)
    else {
        return Err("the uninterrupted reference run did not complete".to_string());
    };

    let path = std::env::temp_dir().join(format!(
        "svtox-chaos-kr-{}-{}-{}.jsonl",
        args.seed,
        args.threads.max(1),
        std::process::id()
    ));
    let plan = FaultPlan::new(args.seed).with_rule(Site::CoreLeaf, Trigger::Nth(7));
    let fault = Fault::new(&plan);
    let killed = opt
        .with_fault(&fault)
        .run(&exec, Some(&CheckpointSpec::fresh(&path)));
    let RunOutcome::Degraded { best, .. } = killed else {
        std::fs::remove_file(&path).ok();
        return Err(format!(
            "the kill fault did not degrade the run (got {})",
            killed.status()
        ));
    };
    if best.leakage.value() > h1.leakage.value() * (1.0 + 1e-12) {
        std::fs::remove_file(&path).ok();
        return Err("the killed run's incumbent is worse than the H1 seed".to_string());
    }
    if best.leakage.value() < reference.leakage.value() * (1.0 - 1e-12) {
        std::fs::remove_file(&path).ok();
        return Err("the killed run's incumbent beats the exhaustive optimum".to_string());
    }

    let resumed = opt.run(&exec, Some(&CheckpointSpec::resume(&path)));
    std::fs::remove_file(&path).ok();
    let RunOutcome::Complete { solution, .. } = resumed else {
        return Err(format!(
            "resume did not complete (got {})",
            resumed.status()
        ));
    };
    if !solution.same_assignment(&reference) {
        return Err(format!(
            "resumed solution {} differs from the uninterrupted run {}",
            solution.leakage, reference.leakage
        ));
    }
    Ok(format!(
        "killed at leaf 7, resumed to the bit-identical optimum {}",
        solution.leakage
    ))
}

/// Chaos-harness HTTP client: every call carries a hard timeout, because
/// "the server hung" is precisely the failure mode under test.
fn serve_call(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> Result<svtox_serve::http::ClientResponse, String> {
    svtox_serve::http::call(addr, method, path, body, Duration::from_secs(10))
        .map_err(|e| format!("{method} {path}: {e}"))
}

/// Polls a job to its terminal state, with a hang bound.
fn serve_wait_done(addr: &str, id: u64) -> Result<svtox_obs::json::Value, String> {
    let give_up = std::time::Instant::now() + Duration::from_secs(60);
    loop {
        let response = serve_call(addr, "GET", &format!("/jobs/{id}"), "")?;
        let doc = svtox_obs::json::parse(&response.body)
            .map_err(|e| format!("job {id} status is not JSON: {e}"))?;
        if doc.get("state").and_then(|v| v.as_str()) == Some("done") {
            return Ok(doc);
        }
        if std::time::Instant::now() >= give_up {
            return Err(format!("job {id} hung — no terminal state in 60 s"));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn serve_submit(addr: &str, body: &str) -> Result<u64, String> {
    let response = serve_call(addr, "POST", "/jobs", body)?;
    if response.status != 202 {
        return Err(format!(
            "submit rejected: {} {}",
            response.status, response.body
        ));
    }
    svtox_obs::json::parse(&response.body)
        .ok()
        .and_then(|doc| doc.get("id").and_then(svtox_obs::json::Value::as_f64))
        .map(|id| id as u64)
        .ok_or_else(|| format!("submit response has no id: {}", response.body))
}

/// A fault kills a job mid-search inside the server: the job must land
/// `degraded (cancelled)` with its incumbent intact, the next job must
/// run clean, and the server must stay responsive throughout.
fn serve_kill_job(args: &ChaosArgs) -> Result<String, String> {
    let handle = svtox_serve::start(svtox_serve::ServerConfig {
        fault_plan: Some("core.leaf:nth=5".to_string()),
        fault_seed: args.seed,
        ..svtox_serve::ServerConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    let addr = handle.addr().to_string();

    // A deadline far beyond the scenario bound: only the injected kill
    // can degrade this job.
    let killed = serve_submit(
        &addr,
        &format!("{{\"circuit\":\"{}\",\"deadline_ms\":30000}}", args.target),
    )?;
    let doc = serve_wait_done(&addr, killed)?;
    if doc.get("outcome").and_then(|v| v.as_str()) != Some("degraded") {
        handle.shutdown();
        return Err(format!("the killed job did not degrade: {doc}"));
    }
    if doc.get("reason").and_then(|v| v.as_str()) != Some("cancelled") {
        handle.shutdown();
        return Err(format!("wrong degradation reason: {doc}"));
    }
    if doc.get("vector").is_none() {
        handle.shutdown();
        return Err("the killed job lost its incumbent solution".to_string());
    }

    // The kill was one-shot; the server must serve the next job clean.
    let (netlist, _) = svtox_check::domain::circuit("chaos-serve-kill", 7, 32, 5);
    let bench = netlist.to_bench();
    let body = svtox_obs::json::Value::Obj(
        [
            (
                "bench".to_string(),
                svtox_obs::json::Value::Str(bench.clone()),
            ),
            (
                "deadline_ms".to_string(),
                svtox_obs::json::Value::Num(10000.0),
            ),
        ]
        .into_iter()
        .collect(),
    )
    .to_string();
    let clean = serve_submit(&addr, &body)?;
    let doc = serve_wait_done(&addr, clean)?;
    if doc.get("outcome").and_then(|v| v.as_str()) != Some("complete") {
        handle.shutdown();
        return Err(format!("the follow-up job did not complete: {doc}"));
    }

    let metrics = serve_call(&addr, "GET", "/metrics", "")?;
    handle.shutdown();
    if metrics.status != 200 || !metrics.body.contains("serve.jobs_degraded") {
        return Err("metrics went dark after the kill".to_string());
    }
    Ok("mid-job kill degraded (cancelled) with incumbent intact; next job clean".to_string())
}

/// Clients vanish at the worst moments — half a request, mid-stream on
/// the events tail — and the server must neither hang nor corrupt the
/// jobs those clients abandoned.
fn client_disconnect(args: &ChaosArgs) -> Result<String, String> {
    use std::io::Write as _;
    let _ = args;
    let handle = svtox_serve::start(svtox_serve::ServerConfig::default())
        .map_err(|e| format!("server start: {e}"))?;
    let addr = handle.addr().to_string();

    // Half a POST, then gone: the promised body never arrives.
    {
        let mut stream = std::net::TcpStream::connect(&addr).map_err(|e| e.to_string())?;
        stream
            .write_all(b"POST /jobs HTTP/1.1\r\ncontent-length: 4096\r\n\r\n{\"circ")
            .map_err(|e| e.to_string())?;
        drop(stream);
    }

    // A job whose events tail gets abandoned mid-stream.
    let (netlist, _) = svtox_check::domain::circuit("chaos-disconnect", 7, 32, 5);
    let body = svtox_obs::json::Value::Obj(
        [
            (
                "bench".to_string(),
                svtox_obs::json::Value::Str(netlist.to_bench()),
            ),
            (
                "deadline_ms".to_string(),
                svtox_obs::json::Value::Num(10000.0),
            ),
        ]
        .into_iter()
        .collect(),
    )
    .to_string();
    let abandoned = serve_submit(&addr, &body)?;
    {
        use std::io::Read as _;
        let mut stream = std::net::TcpStream::connect(&addr).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .map_err(|e| e.to_string())?;
        stream
            .write_all(
                format!("GET /jobs/{abandoned}/events HTTP/1.1\r\ncontent-length: 0\r\n\r\n")
                    .as_bytes(),
            )
            .map_err(|e| e.to_string())?;
        // Read just the response head, then vanish mid-stream.
        let mut first = [0u8; 64];
        let _ = stream.read(&mut first);
        drop(stream);
    }
    let doc = serve_wait_done(&addr, abandoned)?;
    if doc.get("outcome").and_then(|v| v.as_str()) != Some("complete") {
        handle.shutdown();
        return Err(format!("the abandoned client corrupted its job: {doc}"));
    }

    // The server must still serve fresh clients after both rude exits.
    let follow_up = serve_submit(&addr, &body)?;
    let doc = serve_wait_done(&addr, follow_up)?;
    if doc.get("outcome").and_then(|v| v.as_str()) != Some("complete") {
        handle.shutdown();
        return Err(format!("the follow-up job did not complete: {doc}"));
    }
    let metrics = serve_call(&addr, "GET", "/metrics", "")?;
    handle.shutdown();
    if metrics.status != 200 {
        return Err("metrics went dark after the disconnects".to_string());
    }
    Ok("half-request and mid-stream disconnects absorbed; jobs and metrics unaffected".to_string())
}

/// Extracts a counter from the `GET /metrics` plain-text rendering.
fn metric_counter(metrics: &str, name: &str) -> Option<u64> {
    metrics
        .lines()
        .find_map(|l| l.trim().strip_prefix(name))
        .and_then(|rest| rest.trim().parse().ok())
}

/// Builds the standard chaos job body for a generated circuit.
fn bench_body(bench: &str, threads: usize) -> String {
    svtox_obs::json::Value::Obj(
        [
            (
                "bench".to_string(),
                svtox_obs::json::Value::Str(bench.to_string()),
            ),
            (
                "deadline_ms".to_string(),
                svtox_obs::json::Value::Num(30000.0),
            ),
            (
                "threads".to_string(),
                svtox_obs::json::Value::Num(threads as f64),
            ),
        ]
        .into_iter()
        .collect(),
    )
    .to_string()
}

/// A journaled server dies without warning (simulated SIGKILL: the
/// journal freezes mid-state, nothing is drained), restarts on the same
/// journal directory, and must drive every admitted job to a terminal
/// state **bit-identical** to an uninterrupted run of the same spec.
fn serve_kill_restart_resume(args: &ChaosArgs) -> Result<String, String> {
    let threads = args.threads.max(1);
    let dir = std::env::temp_dir().join(format!(
        "svtox-chaos-skrr-{}-{}",
        args.seed,
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let (netlist, _) = svtox_check::domain::circuit("chaos-restart", 7, 32, 5);
    let body = bench_body(&netlist.to_bench(), threads);

    // The uninterrupted reference: the same spec on a journal-free server.
    let reference = {
        let handle = svtox_serve::start(svtox_serve::ServerConfig::default())
            .map_err(|e| format!("reference server start: {e}"))?;
        let addr = handle.addr().to_string();
        let id = serve_submit(&addr, &body)?;
        let doc = serve_wait_done(&addr, id)?;
        handle.shutdown();
        doc
    };
    if reference.get("outcome").and_then(|v| v.as_str()) != Some("complete") {
        return Err(format!("the reference job did not complete: {reference}"));
    }

    // The durable server: admit three jobs on one runner (so at most one
    // is running and the rest are queued), then die mid-flight.
    let handle = svtox_serve::start(svtox_serve::ServerConfig {
        runners: 1,
        journal: Some(dir.clone()),
        ..svtox_serve::ServerConfig::default()
    })
    .map_err(|e| format!("durable server start: {e}"))?;
    let addr = handle.addr().to_string();
    let ids: Vec<u64> = (0..3)
        .map(|_| serve_submit(&addr, &body))
        .collect::<Result<_, _>>()?;
    // Let the first job start (and checkpoint) before the kill.
    std::thread::sleep(Duration::from_millis(50));
    handle.crash();

    // Restart on the same journal: every job must come back and finish.
    let restarted = svtox_serve::start(svtox_serve::ServerConfig {
        runners: 1,
        journal: Some(dir.clone()),
        ..svtox_serve::ServerConfig::default()
    })
    .map_err(|e| format!("restarted server start: {e}"))?;
    let addr = restarted.addr().to_string();
    for &id in &ids {
        let doc = serve_wait_done(&addr, id)?;
        for field in ["outcome", "vector", "choices", "leakage_bits", "delay_bits"] {
            let got = doc.get(field).and_then(|v| v.as_str());
            let want = reference.get(field).and_then(|v| v.as_str());
            if got != want {
                restarted.shutdown();
                std::fs::remove_dir_all(&dir).ok();
                return Err(format!(
                    "job {id} `{field}` diverged after the restart: {got:?} != {want:?}"
                ));
            }
        }
    }
    let metrics = serve_call(&addr, "GET", "/metrics", "")?;
    restarted.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    let recovered = metric_counter(&metrics.body, "serve.journal.recovered_jobs").unwrap_or(0);
    if recovered != 3 {
        return Err(format!(
            "expected 3 recovered jobs in the restarted server's metrics, got {recovered}"
        ));
    }
    Ok(format!(
        "killed with 3 in-flight jobs; restart recovered all 3 to bit-identical \
         terminal states ({threads} thread(s))"
    ))
}

/// A journal whose last append was torn mid-record (the classic
/// power-cut artifact) must not poison recovery: the intact prefix
/// replays, the torn tail is dropped and counted, and the restarted
/// server keeps serving. A second leg injects `io.write` faults into a
/// live journal and demands loud degradation instead of a crash.
fn journal_torn_write(args: &ChaosArgs) -> Result<String, String> {
    let threads = args.threads.max(1);
    let dir = std::env::temp_dir().join(format!(
        "svtox-chaos-torn-{}-{}",
        args.seed,
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let (netlist, _) = svtox_check::domain::circuit("chaos-torn", 7, 32, 5);
    let body = bench_body(&netlist.to_bench(), threads);

    // Journal one completed job, then shut down cleanly.
    let handle = svtox_serve::start(svtox_serve::ServerConfig {
        journal: Some(dir.clone()),
        ..svtox_serve::ServerConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    let addr = handle.addr().to_string();
    let id = serve_submit(&addr, &body)?;
    let reference = serve_wait_done(&addr, id)?;
    handle.shutdown();

    // Tear the tail: an append that died mid-write leaves half a record
    // with no newline.
    let journal_path = dir.join(svtox_serve::journal::JOURNAL_FILE);
    {
        use std::io::Write as _;
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&journal_path)
            .map_err(|e| format!("tearing the journal: {e}"))?;
        file.write_all(b"{\"type\":\"admit\",\"id\":99,\"spec\":{\"circ")
            .map_err(|e| format!("tearing the journal: {e}"))?;
    }

    // Restart: the intact prefix must replay, the tear must be counted,
    // and the server must serve old and new jobs alike.
    let restarted = svtox_serve::start(svtox_serve::ServerConfig {
        journal: Some(dir.clone()),
        ..svtox_serve::ServerConfig::default()
    })
    .map_err(|e| format!("restart on the torn journal: {e}"))?;
    let addr = restarted.addr().to_string();
    let doc = serve_wait_done(&addr, id)?;
    if doc.get("leakage_bits") != reference.get("leakage_bits") {
        restarted.shutdown();
        std::fs::remove_dir_all(&dir).ok();
        return Err("the completed job's result was lost to the torn tail".to_string());
    }
    let fresh = serve_submit(&addr, &body)?;
    let fresh_doc = serve_wait_done(&addr, fresh)?;
    if fresh_doc.get("outcome").and_then(|v| v.as_str()) != Some("complete") {
        restarted.shutdown();
        std::fs::remove_dir_all(&dir).ok();
        return Err(format!("the post-tear job did not complete: {fresh_doc}"));
    }
    let metrics = serve_call(&addr, "GET", "/metrics", "")?;
    restarted.shutdown();
    let torn = metric_counter(&metrics.body, "serve.journal.torn_tail").unwrap_or(0);
    if torn == 0 {
        std::fs::remove_dir_all(&dir).ok();
        return Err("the torn tail was never counted".to_string());
    }

    // Second leg: every journal write fails. The service must complete
    // jobs in memory and say loudly that durability is gone.
    std::fs::remove_dir_all(&dir).ok();
    let faulted = svtox_serve::start(svtox_serve::ServerConfig {
        journal: Some(dir.clone()),
        fault_plan: Some("io.write:nth=1".to_string()),
        fault_seed: args.seed,
        ..svtox_serve::ServerConfig::default()
    })
    .map_err(|e| format!("server start under io.write faults: {e}"))?;
    let addr = faulted.addr().to_string();
    let id = serve_submit(&addr, &body)?;
    let doc = serve_wait_done(&addr, id)?;
    let metrics = serve_call(&addr, "GET", "/metrics", "")?;
    faulted.shutdown();
    std::fs::remove_dir_all(&dir).ok();
    if doc.get("outcome").and_then(|v| v.as_str()) != Some("complete") {
        return Err(format!(
            "a job under journal faults did not complete: {doc}"
        ));
    }
    let degraded = metric_counter(&metrics.body, "serve.journal.degraded").unwrap_or(0);
    if degraded == 0 {
        return Err("journal write faults never surfaced in serve.journal.degraded".to_string());
    }
    Ok(format!(
        "torn tail dropped and counted ({torn}); io.write faults degraded the \
         journal loudly ({degraded}) while jobs kept completing"
    ))
}
