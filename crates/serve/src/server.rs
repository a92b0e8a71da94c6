//! The job server: accept loop, admission control, runner pool, router.
//!
//! Architecture (one [`ServerHandle`] owns all of it):
//!
//! * an **accept loop** blocked in `accept`, which shutdown wakes with a
//!   loopback self-connect; each connection gets a short-lived handler
//!   thread with read/write timeouts, so a stalled or vanished client
//!   can never wedge the server;
//! * a **bounded job queue** (admission control): `POST /jobs` beyond
//!   the configured depth is rejected with `503 queue full` instead of
//!   being buffered without bound — under overload the server sheds
//!   load, it does not grow latency forever;
//! * a fixed pool of **runner threads** consuming the queue; every job
//!   runs under a per-job [`svtox_exec::Budget`] whose deadline maps
//!   straight onto the optimizer's `Degraded{DeadlineExpired}` contract
//!   and whose token serves `POST /jobs/:id/cancel` and shutdown;
//! * the **shared caches** of [`crate::cache::SharedCaches`], so repeat
//!   traffic skips parsing and characterization;
//! * a **bounded registry**: the last [`RETAINED_JOBS`] finished jobs stay
//!   pollable, older ones are dropped and their ids answer `410 Gone`.
//!
//! Every job terminates in a typed outcome — the accept loop and the
//! runners never panic on a bad request, a dead client, or an injected
//! fault; chaos scenarios assert exactly that.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use svtox_core::{
    Budget, CancelToken, CheckpointSpec, DelayPenalty, ExecConfig, Plan, Problem, RetryPolicy,
    RunOutcome,
};
use svtox_fault::{Fault, FaultPlan};
use svtox_obs::{json, FieldValue, Obs};
use svtox_sta::TimingConfig;

use crate::cache::SharedCaches;
use crate::http::{self, ChunkedWriter, Request, RequestError};
use crate::job::{JobPhase, JobRecord, JobResult, JobSink, JobSpec, SolutionSummary};
use crate::journal::{Journal, LiveJob, JOURNAL_FILE};
use crate::recovery::{self, RecoveredState};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Runner threads consuming the job queue.
    pub runners: usize,
    /// Admission bound: queued (not yet running) jobs beyond this are
    /// rejected with 503.
    pub queue_depth: usize,
    /// Deadline applied to jobs that do not bring their own.
    pub default_deadline: Duration,
    /// Largest accepted request body in bytes.
    pub max_body: usize,
    /// Socket read/write timeout for request handling.
    pub io_timeout: Duration,
    /// Optional fault plan injected into every job run (chaos testing).
    pub fault_plan: Option<String>,
    /// Seed for probabilistic fault triggers.
    pub fault_seed: u64,
    /// Write-ahead journal directory. `Some` makes admissions durable:
    /// a killed server replays the journal on restart, re-enqueues
    /// non-terminal jobs, and resumes previously running ones from their
    /// checkpoints.
    pub journal: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            runners: 2,
            queue_depth: 64,
            default_deadline: Duration::from_secs(2),
            max_body: 4 * 1024 * 1024,
            io_timeout: Duration::from_secs(10),
            fault_plan: None,
            fault_seed: 0,
            journal: None,
        }
    }
}

/// Finished jobs kept in memory for `GET /jobs/:id` and `/events`.
/// Past this many, the oldest finished job is dropped and its id answers
/// `410 Gone`. A restart re-registers fewer done jobs than this (the
/// journal compacts at `COMPACT_DEAD_THRESHOLD` terminal records), so
/// none is lost to it.
pub const RETAINED_JOBS: usize = 256;
const _: () = assert!(RETAINED_JOBS > crate::journal::COMPACT_DEAD_THRESHOLD);

struct JobQueue {
    queue: Mutex<VecDeque<Arc<JobRecord>>>,
    ready: Condvar,
}

/// Every job the server holds, plus the finished ones in the order they
/// finished: only those are ever evicted.
#[derive(Default)]
struct Registry {
    jobs: HashMap<u64, Arc<JobRecord>>,
    finished: VecDeque<u64>,
}

struct ServerState {
    config: ServerConfig,
    obs: Obs,
    caches: SharedCaches,
    registry: Mutex<Registry>,
    next_id: AtomicU64,
    queue: JobQueue,
    shutdown: CancelToken,
    fault: Fault,
    journal: Journal,
}

impl ServerState {
    /// Admits a job or rejects it at the queue-depth bound. Admitted
    /// jobs hit the journal **before** the caller sees the id: an
    /// acknowledged admission survives a crash.
    fn admit(&self, spec: JobSpec) -> Result<(u64, usize), usize> {
        let mut queue = self.queue.queue.lock().expect("job queue lock");
        let depth = queue.len();
        if depth >= self.config.queue_depth {
            self.obs.add("serve.jobs_rejected", 1);
            return Err(depth);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        // Fresh, not resume: after a journal wipe a stale `job-N.ckpt`
        // from a previous incarnation must not leak into a new job that
        // happens to reuse the id. Derived from the configured directory,
        // not the journal handle, so checkpointing survives a degraded
        // journal.
        let checkpoint = self
            .config
            .journal
            .as_ref()
            .map(|dir| CheckpointSpec::fresh(dir.join(crate::journal::checkpoint_name(id))));
        self.journal.admit(id, &spec);
        let record = Arc::new(JobRecord::with_checkpoint(id, spec, checkpoint));
        record.events.push(&event_line(
            "job.queued",
            id,
            &[("depth", FieldValue::U64(depth as u64))],
        ));
        self.register(&record);
        queue.push_back(record);
        self.obs.add("serve.jobs_admitted", 1);
        self.obs.set_gauge("serve.queue_depth", queue.len() as u64);
        self.queue.ready.notify_one();
        Ok((id, depth + 1))
    }

    fn register(&self, record: &Arc<JobRecord>) {
        self.registry
            .lock()
            .expect("job registry lock")
            .jobs
            .insert(record.id, Arc::clone(record));
    }

    /// Records a finished job; past [`RETAINED_JOBS`] finished jobs, drops
    /// the one that finished first. Every terminal path ends here.
    fn retire(&self, id: u64) {
        let mut registry = self.registry.lock().expect("job registry lock");
        registry.finished.push_back(id);
        if registry.finished.len() > RETAINED_JOBS {
            if let Some(oldest) = registry.finished.pop_front() {
                registry.jobs.remove(&oldest);
                self.obs.add("serve.jobs_evicted", 1);
            }
        }
    }

    /// The job behind a request path: `404` for an id never issued (ids
    /// start at 1), `410` for one the server has dropped from its
    /// registry.
    fn lookup(&self, id: u64) -> Result<Arc<JobRecord>, (u16, String)> {
        if let Some(job) = self
            .registry
            .lock()
            .expect("job registry lock")
            .jobs
            .get(&id)
        {
            return Ok(Arc::clone(job));
        }
        if id > 0 && id < self.next_id.load(Ordering::Relaxed) {
            Err((410, format!("job {id} finished and is no longer retained")))
        } else {
            Err((404, format!("no job {id}")))
        }
    }

    #[cfg(test)]
    fn job(&self, id: u64) -> Option<Arc<JobRecord>> {
        self.lookup(id).ok()
    }

    /// Cancels the shutdown token and every job, waking the idle runners.
    /// The token flips under the queue lock, so a runner between its
    /// check and its wait cannot miss the wake-up.
    fn begin_shutdown(&self) {
        {
            let _queue = self.queue.queue.lock().expect("job queue lock");
            self.shutdown.cancel();
            self.queue.ready.notify_all();
        }
        for job in self
            .registry
            .lock()
            .expect("job registry lock")
            .jobs
            .values()
        {
            job.cancel.cancel();
        }
    }

    /// Blocks for the next job; `None` means shutdown.
    fn next_job(&self) -> Option<Arc<JobRecord>> {
        let mut queue = self.queue.queue.lock().expect("job queue lock");
        loop {
            if let Some(job) = queue.pop_front() {
                self.obs.set_gauge("serve.queue_depth", queue.len() as u64);
                return Some(job);
            }
            if self.shutdown.is_cancelled() {
                return None;
            }
            queue = self
                .queue
                .ready
                .wait(queue)
                .expect("job queue lock poisoned");
        }
    }
}

/// A JSONL lifecycle event line (same shape as obs `event` records).
fn event_line(name: &str, job: u64, fields: &[(&str, FieldValue<'_>)]) -> String {
    // Reuse the obs event serializer by emitting through a scratch handle
    // would drag a sink along; the format is small enough to write here.
    let mut obj = std::collections::BTreeMap::new();
    obj.insert("type".to_string(), json::Value::Str("event".to_string()));
    obj.insert("name".to_string(), json::Value::Str(name.to_string()));
    obj.insert("job".to_string(), json::Value::Num(job as f64));
    for (key, value) in fields {
        let v = match value {
            FieldValue::U64(n) => json::Value::Num(*n as f64),
            FieldValue::I64(n) => json::Value::Num(*n as f64),
            FieldValue::F64(n) => json::Value::Num(*n),
            FieldValue::Bool(b) => json::Value::Bool(*b),
            FieldValue::Str(s) => json::Value::Str((*s).to_string()),
        };
        obj.insert((*key).to_string(), v);
    }
    json::Value::Obj(obj).to_string()
}

/// A running server: address, control, and join handles.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServerState>,
    accept: Option<JoinHandle<()>>,
    runners: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the resolved port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's observability handle (`/metrics` source).
    #[must_use]
    pub fn obs(&self) -> &Obs {
        &self.state.obs
    }

    /// The shared caches (for tests and reports).
    #[must_use]
    pub fn caches(&self) -> &SharedCaches {
        &self.state.caches
    }

    /// The shutdown token; cancelling it stops the server.
    #[must_use]
    pub fn shutdown_token(&self) -> CancelToken {
        self.state.shutdown.clone()
    }

    /// Stops accepting, cancels every queued and running job, and joins
    /// all server threads. Running jobs degrade (`Cancelled`); queued
    /// jobs fail typed (`server shutdown`); nothing is left dangling.
    pub fn shutdown(mut self) {
        self.stop_threads();
        // Anything still queued never ran: give it a terminal outcome so
        // every admitted job ends typed — in the journal too, so a later
        // restart does not resurrect deliberately dropped jobs.
        let drained: Vec<Arc<JobRecord>> = self
            .state
            .queue
            .queue
            .lock()
            .expect("job queue lock")
            .drain(..)
            .collect();
        for job in drained {
            let result = JobResult {
                outcome: "failed",
                reason: None,
                error: Some("server shutdown before the job started".to_string()),
                circuit: job.spec.circuit.clone().unwrap_or_default(),
                solution: None,
                winner: None,
                liberty_cells: None,
                baseline_leakage_ua: None,
            };
            self.state.journal.done(job.id, &result);
            job.set_phase(JobPhase::Done(Box::new(result)));
            job.events.push(&event_line("job.dropped", job.id, &[]));
            job.events.close();
            self.state.retire(job.id);
        }
    }

    /// Dies the way `SIGKILL` would, as far as the journal can tell:
    /// freezes the journal first (no terminal records get written), then
    /// tears the threads down. Queued jobs stay queued *in the journal*
    /// and running jobs keep their checkpoints — exactly the state a
    /// restart must recover from. The in-process test double for the
    /// kill-based smoke in `ci.sh`.
    pub fn crash(mut self) {
        self.state.journal.freeze();
        self.stop_threads();
        // No queue drain: a crashed server does not get to mark its
        // queued jobs failed. (In-memory records are dropped with the
        // handle, as a killed process would drop them.)
        self.state
            .queue
            .queue
            .lock()
            .expect("job queue lock")
            .clear();
    }

    fn stop_threads(&mut self) {
        self.state.begin_shutdown();
        if let Some(accept) = self.accept.take() {
            // A blocked `accept` returns only for a connection: knock on
            // the listener until the loop has seen the token. One knock is
            // the rule; another covers one refused by a transient error.
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            while !accept.is_finished() {
                let _ = TcpStream::connect_timeout(&wake, Duration::from_millis(100));
                std::thread::sleep(Duration::from_millis(1));
            }
            let _ = accept.join();
        }
        for runner in self.runners.drain(..) {
            let _ = runner.join();
        }
    }
}

/// Starts a server and returns its handle.
///
/// When the config names a journal directory, startup first replays the
/// journal: terminal jobs are re-registered done (clients polling across
/// the restart still get their answer), queued jobs are re-enqueued, and
/// previously running jobs are re-enqueued with a **resume** checkpoint
/// so the restarted run continues from its persisted frontier —
/// bit-identical to an uninterrupted run, per the checkpoint contract.
/// An unusable journal (unknown version, unreadable) degrades loudly
/// (`serve.journal.degraded`) and the server starts cold; it never
/// refuses to start over durability.
///
/// # Errors
///
/// Returns the bind error, or a fault-plan parse error as `InvalidInput`.
pub fn start(config: ServerConfig) -> io::Result<ServerHandle> {
    let fault = match &config.fault_plan {
        Some(spec) => {
            let plan = FaultPlan::parse(spec, config.fault_seed)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
            Fault::new(&plan)
        }
        None => Fault::disabled(),
    };
    let obs = Obs::enabled();

    // Replay the journal before anything can race it.
    let recovery_start = Instant::now();
    let (journal, recovered, next_id) = match &config.journal {
        Some(dir) => {
            let recovered = match recovery::replay(&dir.join(JOURNAL_FILE), &fault) {
                Ok(recovered) => recovered,
                Err(why) => {
                    eprintln!("warning: journal unusable, starting cold: {why}");
                    obs.add("serve.journal.degraded", 1);
                    recovery::Recovery::empty()
                }
            };
            if recovered.torn_tail {
                obs.add("serve.journal.torn_tail", 1);
            }
            let live: BTreeMap<u64, LiveJob> = recovered
                .jobs
                .iter()
                .filter(|job| job.state != RecoveredState::Done)
                .map(|job| {
                    (
                        job.id,
                        LiveJob {
                            spec: job.spec.clone(),
                            state: match job.state {
                                RecoveredState::Running => "running",
                                _ => "queued",
                            },
                            checkpoint: job.checkpoint.clone(),
                        },
                    )
                })
                .collect();
            let next_id = recovered.next_id;
            (
                Journal::open_with_next_id(dir, live, next_id, &obs, &fault),
                recovered.jobs,
                next_id,
            )
        }
        None => (Journal::inactive(), Vec::new(), 1),
    };

    // `SO_REUSEADDR` where the address allows it: a recovering server
    // must be able to rebind the port its predecessor just died on.
    let listener = match config.addr.parse::<SocketAddr>() {
        Ok(sockaddr) => crate::net::bind_reuse(sockaddr)?,
        Err(_) => TcpListener::bind(&config.addr)?,
    };
    let addr = listener.local_addr()?;
    let runner_count = config.runners.max(1);
    let state = Arc::new(ServerState {
        config,
        obs,
        caches: SharedCaches::new(),
        registry: Mutex::new(Registry::default()),
        next_id: AtomicU64::new(next_id),
        queue: JobQueue {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
        },
        shutdown: CancelToken::new(),
        fault,
        journal,
    });
    if !recovered.is_empty() {
        readmit(&state, recovered);
        state.obs.set_gauge(
            "serve.journal.recovery_ms",
            recovery_start.elapsed().as_millis() as u64,
        );
    }

    let accept_state = Arc::clone(&state);
    let accept = std::thread::Builder::new()
        .name("svtox-serve-accept".to_string())
        .spawn(move || accept_loop(&listener, &accept_state))?;

    let mut runners = Vec::with_capacity(runner_count);
    for i in 0..runner_count {
        let runner_state = Arc::clone(&state);
        runners.push(
            std::thread::Builder::new()
                .name(format!("svtox-serve-runner-{i}"))
                .spawn(move || runner_loop(&runner_state))?,
        );
    }
    Ok(ServerHandle {
        addr,
        state,
        accept: Some(accept),
        runners,
    })
}

/// Re-registers replayed jobs on a restarted server.
///
/// Terminal jobs come back as closed `done` records; non-terminal jobs
/// are re-enqueued, with previously **running** jobs carrying a resume
/// checkpoint (`serve.journal.checkpoint_missing` counts the ones whose
/// checkpoint file vanished — those restart cold, which the resume spec
/// already treats as an empty replay).
fn readmit(state: &Arc<ServerState>, recovered: Vec<crate::recovery::RecoveredJob>) {
    let mut queue = state.queue.queue.lock().expect("job queue lock");
    for job in recovered {
        state.obs.add("serve.journal.recovered_jobs", 1);
        if let (RecoveredState::Done, Some(result)) = (job.state, job.result) {
            let record = Arc::new(JobRecord::new(job.id, job.spec));
            record.set_phase(JobPhase::Done(Box::new(result)));
            record.events.close();
            state.register(&record);
            state.retire(job.id);
            continue;
        }
        let checkpoint = job.checkpoint.as_ref().map(|name| {
            let path = state.journal.dir().join(name);
            if job.state == RecoveredState::Running && !path.exists() {
                state.obs.add("serve.journal.checkpoint_missing", 1);
            }
            // Resume even for queued jobs: their file does not exist yet,
            // and a resume of a missing file is exactly a fresh start.
            CheckpointSpec::resume(path)
        });
        if job.state == RecoveredState::Running {
            state.obs.add("serve.journal.resumed_jobs", 1);
        }
        let record = Arc::new(JobRecord::with_checkpoint(job.id, job.spec, checkpoint));
        record.events.push(&event_line(
            "job.recovered",
            job.id,
            &[(
                "was",
                FieldValue::Str(match job.state {
                    RecoveredState::Running => "running",
                    _ => "queued",
                }),
            )],
        ));
        state.register(&record);
        queue.push_back(record);
    }
    state.obs.set_gauge("serve.queue_depth", queue.len() as u64);
    drop(queue);
    state.queue.ready.notify_all();
}

/// Accepts until shutdown. `accept` blocks; [`ServerHandle::shutdown`]
/// wakes it with a self-connect, and any connection that arrives after
/// the token flipped, that one included, is dropped unserved.
fn accept_loop(listener: &TcpListener, state: &Arc<ServerState>) {
    loop {
        let accepted = listener.accept();
        if state.shutdown.is_cancelled() {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                state.obs.add("serve.connections", 1);
                let conn_state = Arc::clone(state);
                // Handler threads are short-lived (Connection: close) and
                // bounded by socket timeouts; they detach.
                let spawned = std::thread::Builder::new()
                    .name("svtox-serve-conn".to_string())
                    .spawn(move || handle_connection(stream, &conn_state));
                if spawned.is_err() {
                    state.obs.add("serve.spawn_failures", 1);
                }
            }
            Err(_) => {
                // EMFILE and friends: back off instead of spinning.
                state.obs.add("serve.accept_errors", 1);
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

/// Serves one connection: a loop of request → response that continues
/// while the client asks for `Connection: keep-alive`, and ends on the
/// first close-disposition response, error, or timeout. A connection
/// that goes quiet *mid-request* gets a 408 (slow-loris defence); one
/// that goes quiet *between* requests is just closed.
fn handle_connection(mut stream: TcpStream, state: &Arc<ServerState>) {
    let _ = stream.set_read_timeout(Some(state.config.io_timeout));
    let _ = stream.set_write_timeout(Some(state.config.io_timeout));
    let mut served = 0u64;
    loop {
        let request = match http::read_request(&mut stream, state.config.max_body) {
            Ok(request) => request,
            Err(RequestError::Io(_)) => {
                // The client is gone (disconnect or stall): nothing to
                // answer, and — the chaos invariant — nothing shared to
                // corrupt.
                state.obs.add("serve.client_disconnects", 1);
                return;
            }
            Err(RequestError::TimedOut { partial: true }) => {
                // Bytes arrived, then the drip stopped: slow-loris. Give
                // the socket back with a typed answer.
                state.obs.add("serve.http.timeouts", 1);
                let _ = respond_error(&mut stream, 408, "request timed out", false);
                return;
            }
            Err(RequestError::TimedOut { partial: false }) => {
                // An idle keep-alive connection with nothing in flight.
                return;
            }
            Err(RequestError::TooLarge(_)) => {
                let _ = respond_error(&mut stream, 413, "body too large", false);
                return;
            }
            Err(RequestError::Malformed(why)) => {
                state.obs.add("serve.bad_requests", 1);
                let _ = respond_error(&mut stream, 400, &why, false);
                return;
            }
        };
        if served > 0 {
            state.obs.add("serve.http.keepalive_reuse", 1);
        }
        served += 1;
        if !route(&mut stream, &request, state) {
            return;
        }
    }
}

fn respond_error(
    stream: &mut TcpStream,
    status: u16,
    message: &str,
    keep_alive: bool,
) -> io::Result<()> {
    let mut obj = std::collections::BTreeMap::new();
    obj.insert("error".to_string(), json::Value::Str(message.to_string()));
    http::write_response_conn(
        stream,
        status,
        "application/json",
        &json::Value::Obj(obj).to_string(),
        keep_alive,
    )
}

fn respond_json(
    stream: &mut TcpStream,
    status: u16,
    doc: &json::Value,
    keep_alive: bool,
) -> io::Result<()> {
    http::write_response_conn(
        stream,
        status,
        "application/json",
        &doc.to_string(),
        keep_alive,
    )
}

/// Dispatches one request; returns whether the connection stays open
/// for another (the client asked for keep-alive, the endpoint is not a
/// stream or shutdown, and the response went out cleanly).
fn route(stream: &mut TcpStream, request: &Request, state: &Arc<ServerState>) -> bool {
    let path = request.path.as_str();
    let method = request.method.as_str();
    let keep = request.keep_alive;
    let (written, keep) = match (method, path) {
        ("POST", "/jobs") => (post_job(stream, &request.body, state, keep), keep),
        ("GET", "/metrics") => (
            http::write_response_conn(stream, 200, "text/plain", &state.obs.render_metrics(), keep),
            keep,
        ),
        ("POST", "/shutdown") => {
            let mut obj = std::collections::BTreeMap::new();
            obj.insert("stopping".to_string(), json::Value::Bool(true));
            let result = respond_json(stream, 200, &json::Value::Obj(obj), false);
            state.begin_shutdown();
            (result, false)
        }
        ("GET", _) if path.starts_with("/jobs/") && path.ends_with("/events") => {
            // Chunked streams own the socket until they finish.
            (get_job(stream, path, state, false), false)
        }
        ("GET", _) if path.starts_with("/jobs/") => (get_job(stream, path, state, keep), keep),
        ("POST", _) if path.starts_with("/jobs/") && path.ends_with("/cancel") => {
            (cancel_job(stream, path, state, keep), keep)
        }
        _ => (
            respond_error(stream, 404, &format!("no route for {method} {path}"), keep),
            keep,
        ),
    };
    keep && written.is_ok()
}

fn job_id_from(path: &str) -> Option<u64> {
    path.strip_prefix("/jobs/")?.split('/').next()?.parse().ok()
}

fn post_job(
    stream: &mut TcpStream,
    body: &str,
    state: &Arc<ServerState>,
    keep_alive: bool,
) -> io::Result<()> {
    let spec = match JobSpec::from_json(body) {
        Ok(spec) => spec,
        Err(why) => {
            state.obs.add("serve.bad_requests", 1);
            return respond_error(stream, 400, &why, keep_alive);
        }
    };
    match state.admit(spec) {
        Ok((id, depth)) => {
            let mut obj = std::collections::BTreeMap::new();
            obj.insert("id".to_string(), json::Value::Num(id as f64));
            obj.insert("state".to_string(), json::Value::Str("queued".to_string()));
            obj.insert("queue_depth".to_string(), json::Value::Num(depth as f64));
            respond_json(stream, 202, &json::Value::Obj(obj), keep_alive)
        }
        Err(depth) => {
            let mut obj = std::collections::BTreeMap::new();
            obj.insert(
                "error".to_string(),
                json::Value::Str("queue full".to_string()),
            );
            obj.insert("queue_depth".to_string(), json::Value::Num(depth as f64));
            respond_json(stream, 503, &json::Value::Obj(obj), keep_alive)
        }
    }
}

fn get_job(
    stream: &mut TcpStream,
    path: &str,
    state: &Arc<ServerState>,
    keep_alive: bool,
) -> io::Result<()> {
    let Some(id) = job_id_from(path) else {
        return respond_error(stream, 400, "bad job id", keep_alive);
    };
    let job = match state.lookup(id) {
        Ok(job) => job,
        Err((status, why)) => return respond_error(stream, status, &why, keep_alive),
    };
    if path.ends_with("/events") {
        return stream_events(stream, &job, state);
    }
    respond_json(stream, 200, &job.status_json(), keep_alive)
}

fn cancel_job(
    stream: &mut TcpStream,
    path: &str,
    state: &Arc<ServerState>,
    keep_alive: bool,
) -> io::Result<()> {
    let Some(id) = job_id_from(path) else {
        return respond_error(stream, 400, "bad job id", keep_alive);
    };
    let job = match state.lookup(id) {
        Ok(job) => job,
        Err((status, why)) => return respond_error(stream, status, &why, keep_alive),
    };
    job.cancel.cancel();
    state.obs.add("serve.jobs_cancel_requests", 1);
    let mut obj = std::collections::BTreeMap::new();
    obj.insert("id".to_string(), json::Value::Num(id as f64));
    obj.insert("cancel".to_string(), json::Value::Bool(true));
    respond_json(stream, 200, &json::Value::Obj(obj), keep_alive)
}

/// Streams the job's event buffer as chunked JSONL until the job (or the
/// server) finishes. A client that disconnects mid-stream just ends the
/// handler thread; the job itself is unaffected.
fn stream_events(
    stream: &mut TcpStream,
    job: &Arc<JobRecord>,
    state: &Arc<ServerState>,
) -> io::Result<()> {
    let mut writer = ChunkedWriter::begin(stream, 200, "application/jsonl")?;
    let mut cursor = 0usize;
    loop {
        let (lines, closed) = job.events.wait_from(cursor, Duration::from_millis(100));
        for line in &lines {
            writer.write_chunk(&format!("{line}\n"))?;
        }
        cursor += lines.len();
        if closed && lines.is_empty() {
            return writer.finish();
        }
        if state.shutdown.is_cancelled() && lines.is_empty() && !closed {
            // Server going down with the job unfinished: terminate the
            // stream cleanly rather than holding the client.
            return writer.finish();
        }
    }
}

fn runner_loop(state: &Arc<ServerState>) {
    while let Some(job) = state.next_job() {
        run_job(state, &job);
    }
}

/// Executes one job to its typed terminal state. Never panics: every
/// failure path lands in `JobResult { outcome: "failed", .. }`.
fn run_job(state: &Arc<ServerState>, job: &Arc<JobRecord>) {
    job.set_phase(JobPhase::Running);
    state.journal.state(job.id, "running");
    job.events.push(&event_line("job.started", job.id, &[]));
    let result = execute(state, job);
    match result.outcome {
        "complete" => state.obs.add("serve.jobs_completed", 1),
        "degraded" => state.obs.add("serve.jobs_degraded", 1),
        _ => state.obs.add("serve.jobs_failed", 1),
    }
    job.events.push(&event_line(
        "job.finished",
        job.id,
        &[("outcome", FieldValue::Str(result.outcome))],
    ));
    state.journal.done(job.id, &result);
    job.set_phase(JobPhase::Done(Box::new(result)));
    job.events.close();
    state.retire(job.id);
}

fn failed(circuit: &str, error: String) -> JobResult {
    JobResult {
        outcome: "failed",
        reason: None,
        error: Some(error),
        circuit: circuit.to_string(),
        solution: None,
        winner: None,
        liberty_cells: None,
        baseline_leakage_ua: None,
    }
}

fn execute(state: &Arc<ServerState>, job: &Arc<JobRecord>) -> JobResult {
    let spec = &job.spec;
    let obs = &state.obs;

    // Resolve the netlist through the content cache.
    let netlist = match (&spec.circuit, &spec.bench) {
        (Some(name), _) => state.caches.netlist_named(name, obs),
        (None, Some(text)) => state.caches.netlist_from_bench(text, obs),
        (None, None) => {
            return failed("", "spec has neither circuit nor bench".to_string());
        }
    };
    let netlist = match netlist {
        Ok(n) => n,
        Err(e) => return failed(spec.circuit.as_deref().unwrap_or(""), e.to_string()),
    };
    let circuit = netlist.name().to_string();

    // ECO jobs: apply the spec's edit script and swap in the post-edit
    // netlist (cached across jobs by its content hash).
    let netlist = match &spec.edits {
        Some(text) => match state.caches.netlist_edited(&netlist, text, obs) {
            Ok(n) => n,
            Err(e) => return failed(&circuit, format!("edits: {e}")),
        },
        None => netlist,
    };

    // Characterized cell tables, shared across jobs.
    let library = match state.caches.library(spec.library, obs) {
        Ok(lib) => lib,
        Err(e) => return failed(&circuit, e.to_string()),
    };

    // Optional Liberty cross-check: the submitted text must parse and
    // cover at least one cell (cached by content hash).
    let liberty_cells = match &spec.liberty {
        Some(text) => match state.caches.liberty(text, obs) {
            Ok(rows) if rows.is_empty() => {
                return failed(&circuit, "liberty text has no leakage rows".to_string());
            }
            Ok(rows) => Some(rows.len()),
            Err(e) => return failed(&circuit, format!("liberty: {e}")),
        },
        None => None,
    };

    let penalty = match DelayPenalty::new(spec.penalty) {
        Ok(p) => p,
        Err(e) => return failed(&circuit, e.to_string()),
    };
    let problem = {
        let _span = obs.span("core.problem");
        Problem::new(&netlist, &library, TimingConfig::default())
    };
    let problem = match problem {
        Ok(p) => p,
        Err(e) => return failed(&circuit, e.to_string()),
    };

    // Per-job observability: the trace streams to the job's event buffer.
    let job_obs = Obs::enabled();
    job_obs.set_sink(Box::new(JobSink(job.events.clone())));

    // Optional Monte-Carlo baseline: the packed word-level estimator makes
    // this cheap enough to run inline before the search.
    let baseline_leakage_ua = if spec.vectors > 0 {
        match svtox_sim::random_average_leakage_parallel(
            &netlist,
            &library,
            spec.vectors,
            42,
            &ExecConfig::serial(),
            &job_obs,
        ) {
            Ok(totals) => Some(totals.as_micro_amps()),
            Err(e) => return failed(&circuit, format!("baseline: {e}")),
        }
    } else {
        None
    };

    let deadline = spec.deadline.unwrap_or(state.config.default_deadline);
    let budget = Budget::linked(Some(deadline), job.cancel.clone());
    let exec = ExecConfig::with_threads(spec.threads.max(1))
        .with_time_budget(deadline)
        .with_retries(RetryPolicy::resilient());
    let optimizer = problem
        .optimizer(penalty, spec.mode)
        .with_obs(&job_obs)
        .with_fault(&state.fault);
    // `"mode":"portfolio"` races the strategy portfolio and reports the
    // winning member; the default path is the single-strategy engine.
    let (outcome, winner) = if spec.portfolio {
        match optimizer.run_portfolio(&exec, &budget, &Plan::default(), job.checkpoint.as_ref()) {
            Ok(p) => {
                let winner = p.winner.slug().to_string();
                (p.into_run_outcome(), Some(winner))
            }
            Err(error) => (RunOutcome::Failed { error }, None),
        }
    } else {
        (
            optimizer.run_with_budget(&exec, &budget, job.checkpoint.as_ref()),
            None,
        )
    };
    job_obs.emit_counters();
    job_obs.flush();
    // Fold the job's engine counters into the server registry so
    // `/metrics` aggregates across jobs.
    for (name, value) in job_obs.counter_snapshot() {
        obs.add(&name, value);
    }

    match outcome {
        RunOutcome::Complete { solution, .. } => JobResult {
            outcome: "complete",
            reason: None,
            error: None,
            circuit,
            solution: Some(SolutionSummary::of(&solution)),
            winner,
            liberty_cells,
            baseline_leakage_ua,
        },
        RunOutcome::Degraded { reason, best, .. } => JobResult {
            outcome: "degraded",
            reason: Some(reason.to_string()),
            error: None,
            circuit,
            solution: Some(SolutionSummary::of(&best)),
            winner,
            liberty_cells,
            baseline_leakage_ua,
        },
        RunOutcome::Failed { error } => failed(&circuit, error.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::call;

    fn test_config() -> ServerConfig {
        ServerConfig {
            default_deadline: Duration::from_millis(400),
            ..ServerConfig::default()
        }
    }

    fn post_json(addr: &str, path: &str, body: &str) -> http::ClientResponse {
        call(addr, "POST", path, body, Duration::from_secs(10)).expect("call succeeds")
    }

    fn get(addr: &str, path: &str) -> http::ClientResponse {
        call(addr, "GET", path, "", Duration::from_secs(10)).expect("call succeeds")
    }

    fn wait_done(addr: &str, id: u64) -> json::Value {
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        loop {
            let response = get(addr, &format!("/jobs/{id}"));
            let doc = json::parse(&response.body).expect("status parses");
            if doc.get("state").and_then(|v| v.as_str()) == Some("done") {
                return doc;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "job {id} did not finish in time"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn submit_poll_and_metrics_round_trip() {
        let handle = start(test_config()).unwrap();
        let addr = handle.addr().to_string();
        let response = post_json(&addr, "/jobs", r#"{"circuit":"c432","deadline_ms":200}"#);
        assert_eq!(response.status, 202, "{}", response.body);
        let id = json::parse(&response.body)
            .unwrap()
            .get("id")
            .and_then(json::Value::as_f64)
            .unwrap() as u64;
        let doc = wait_done(&addr, id);
        // c432's tree cannot exhaust in 200 ms: the deadline must map to
        // the typed degradation contract, still carrying a solution.
        assert_eq!(
            doc.get("outcome").and_then(|v| v.as_str()),
            Some("degraded"),
            "{doc}"
        );
        assert_eq!(
            doc.get("reason").and_then(|v| v.as_str()),
            Some("time budget expired")
        );
        assert!(doc.get("vector").is_some(), "degraded still has a solution");
        let metrics = get(&addr, "/metrics");
        assert_eq!(metrics.status, 200);
        assert!(
            metrics.body.contains("serve.jobs_admitted"),
            "{}",
            metrics.body
        );
        assert!(metrics.body.contains("serve.jobs_degraded"));
        handle.shutdown();
    }

    #[test]
    fn portfolio_jobs_report_a_winning_strategy() {
        let handle = start(test_config()).unwrap();
        let addr = handle.addr().to_string();
        let response = post_json(
            &addr,
            "/jobs",
            r#"{"circuit":"c432","mode":"portfolio","deadline_ms":300}"#,
        );
        assert_eq!(response.status, 202, "{}", response.body);
        let id = json::parse(&response.body)
            .unwrap()
            .get("id")
            .and_then(json::Value::as_f64)
            .unwrap() as u64;
        let doc = wait_done(&addr, id);
        let outcome = doc.get("outcome").and_then(|v| v.as_str()).unwrap();
        assert!(outcome == "complete" || outcome == "degraded", "{doc}");
        let winner = doc.get("winner").and_then(|v| v.as_str()).unwrap();
        assert!(
            ["h1", "h2-influence", "h2-natural", "h2-reverse", "restarts"].contains(&winner)
                || winner.starts_with("exact"),
            "unexpected winner {winner}"
        );
        assert!(
            doc.get("vector").is_some(),
            "portfolio jobs carry a solution"
        );
        handle.shutdown();
    }

    #[test]
    fn bad_requests_get_typed_errors_not_crashes() {
        let handle = start(test_config()).unwrap();
        let addr = handle.addr().to_string();
        assert_eq!(post_json(&addr, "/jobs", "not json").status, 400);
        assert_eq!(post_json(&addr, "/jobs", "{}").status, 400);
        assert_eq!(
            post_json(&addr, "/jobs", r#"{"circuit":"no_such_circuit"}"#).status,
            202,
            "unknown circuits fail at run time, typed"
        );
        assert_eq!(get(&addr, "/jobs/999").status, 404);
        assert_eq!(get(&addr, "/nope").status, 404);
        let id = json::parse(&post_json(&addr, "/jobs", r#"{"circuit":"no_such_circuit"}"#).body)
            .unwrap()
            .get("id")
            .and_then(json::Value::as_f64)
            .unwrap() as u64;
        let doc = wait_done(&addr, id);
        assert_eq!(doc.get("outcome").and_then(|v| v.as_str()), Some("failed"));
        let error = doc
            .get("error")
            .and_then(|v| v.as_str())
            .unwrap_or_default();
        assert!(
            error.contains("unknown built-in circuit `no_such_circuit`"),
            "{error}"
        );
        assert!(!error.contains("gate kind"), "{error}");
        handle.shutdown();
    }

    #[test]
    fn deeply_nested_bodies_are_refused_and_the_server_keeps_serving() {
        let handle = start(test_config()).unwrap();
        let addr = handle.addr().to_string();
        // Far past json::MAX_DEPTH: a parser recursing once per level
        // would overflow its connection thread's stack and abort.
        let levels = 100_000;
        let body = "[".repeat(levels) + &"]".repeat(levels);
        let response = post_json(&addr, "/jobs", &body);
        assert_eq!(response.status, 400, "{}", response.body);
        assert!(
            response.body.contains("nested too deeply"),
            "{}",
            response.body
        );
        let response = post_json(&addr, "/jobs", r#"{"circuit":"c432","deadline_ms":100}"#);
        assert_eq!(response.status, 202, "{}", response.body);
        let id = json::parse(&response.body)
            .unwrap()
            .get("id")
            .and_then(json::Value::as_f64)
            .unwrap() as u64;
        let doc = wait_done(&addr, id);
        let outcome = doc.get("outcome").and_then(|v| v.as_str()).unwrap();
        assert!(outcome == "complete" || outcome == "degraded", "{doc}");
        handle.shutdown();
    }

    #[test]
    fn admission_control_rejects_beyond_queue_depth() {
        let config = ServerConfig {
            runners: 1,
            queue_depth: 2,
            default_deadline: Duration::from_millis(300),
            ..ServerConfig::default()
        };
        let handle = start(config).unwrap();
        let addr = handle.addr().to_string();
        // Flood with more jobs than the queue admits; at least one 503
        // must come back, and every 202 job must still terminate typed.
        let mut ids = Vec::new();
        let mut rejected = 0usize;
        for _ in 0..12 {
            let r = post_json(&addr, "/jobs", r#"{"circuit":"c432","deadline_ms":100}"#);
            match r.status {
                202 => ids.push(
                    json::parse(&r.body)
                        .unwrap()
                        .get("id")
                        .and_then(json::Value::as_f64)
                        .unwrap() as u64,
                ),
                503 => {
                    rejected += 1;
                    assert!(r.body.contains("queue full"), "{}", r.body);
                }
                other => panic!("unexpected status {other}"),
            }
        }
        assert!(rejected > 0, "the flood must trip admission control");
        for id in ids {
            let doc = wait_done(&addr, id);
            let outcome = doc.get("outcome").and_then(|v| v.as_str()).unwrap();
            assert!(outcome == "complete" || outcome == "degraded", "{doc}");
        }
        handle.shutdown();
    }

    #[test]
    fn cancel_endpoint_degrades_a_running_job() {
        let config = ServerConfig {
            default_deadline: Duration::from_secs(600),
            ..test_config()
        };
        let handle = start(config).unwrap();
        let addr = handle.addr().to_string();
        // An effectively unbounded deadline: only the cancel can end it.
        let id = json::parse(&post_json(&addr, "/jobs", r#"{"circuit":"c432"}"#).body)
            .unwrap()
            .get("id")
            .and_then(json::Value::as_f64)
            .unwrap() as u64;
        // Give it a moment to start, then cancel.
        std::thread::sleep(Duration::from_millis(50));
        let response = post_json(&addr, &format!("/jobs/{id}/cancel"), "");
        assert_eq!(response.status, 200);
        let doc = wait_done(&addr, id);
        assert_eq!(
            doc.get("outcome").and_then(|v| v.as_str()),
            Some("degraded"),
            "{doc}"
        );
        assert_eq!(
            doc.get("reason").and_then(|v| v.as_str()),
            Some("cancelled")
        );
        handle.shutdown();
    }

    #[test]
    fn events_stream_is_jsonl_with_lifecycle_markers() {
        let handle = start(test_config()).unwrap();
        let addr = handle.addr().to_string();
        let id =
            json::parse(&post_json(&addr, "/jobs", r#"{"circuit":"c432","deadline_ms":150}"#).body)
                .unwrap()
                .get("id")
                .and_then(json::Value::as_f64)
                .unwrap() as u64;
        // The events call blocks until the job closes its buffer.
        let events = get(&addr, &format!("/jobs/{id}/events"));
        assert_eq!(events.status, 200);
        let mut names = Vec::new();
        for line in events.body.lines() {
            let doc = json::parse(line).expect("every event line parses");
            if let Some(name) = doc.get("name").and_then(|v| v.as_str()) {
                names.push(name.to_string());
            }
        }
        assert!(names.iter().any(|n| n == "job.queued"), "{names:?}");
        assert!(names.iter().any(|n| n == "job.started"), "{names:?}");
        assert!(names.iter().any(|n| n == "job.finished"), "{names:?}");
        assert!(
            names.iter().any(|n| n == "core.run"),
            "the optimizer trace streams through: {names:?}"
        );
        handle.shutdown();
    }

    #[test]
    fn shutdown_fails_queued_jobs_typed_and_joins_cleanly() {
        let config = ServerConfig {
            runners: 1,
            queue_depth: 8,
            default_deadline: Duration::from_secs(600),
            ..ServerConfig::default()
        };
        let handle = start(config).unwrap();
        let addr = handle.addr().to_string();
        // One long-running job plus several queued behind the single runner.
        let mut jobs = Vec::new();
        for _ in 0..4 {
            let r = post_json(&addr, "/jobs", r#"{"circuit":"c432"}"#);
            assert_eq!(r.status, 202);
            let id = json::parse(&r.body)
                .unwrap()
                .get("id")
                .and_then(json::Value::as_f64)
                .unwrap() as u64;
            jobs.push(handle.state.job(id).expect("registered"));
        }
        std::thread::sleep(Duration::from_millis(50));
        handle.shutdown();
        for job in jobs {
            let JobPhase::Done(result) = job.phase() else {
                panic!("job {} left untyped after shutdown", job.id);
            };
            assert!(
                result.outcome == "degraded" || result.outcome == "failed",
                "job {}: {}",
                job.id,
                result.outcome
            );
        }
    }

    fn submit(addr: &str, body: &str) -> u64 {
        let response = post_json(addr, "/jobs", body);
        assert_eq!(response.status, 202, "{}", response.body);
        json::parse(&response.body)
            .unwrap()
            .get("id")
            .and_then(json::Value::as_f64)
            .unwrap() as u64
    }

    /// A generated circuit small enough that the exact search exhausts
    /// quickly but not instantly — crash/recovery needs jobs that can be
    /// caught mid-run.
    fn small_bench() -> String {
        use svtox_netlist::generators::{random_dag, RandomDagSpec};
        random_dag(&RandomDagSpec::new("serve-journal", 7, 4, 32, 5))
            .expect("spec is valid")
            .to_bench()
    }

    fn bench_job_body(bench: &str, threads: usize) -> String {
        json::Value::Obj(
            [
                ("bench".to_string(), json::Value::Str(bench.to_string())),
                ("deadline_ms".to_string(), json::Value::Num(30_000.0)),
                ("threads".to_string(), json::Value::Num(threads as f64)),
            ]
            .into_iter()
            .collect(),
        )
        .to_string()
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("svtox-serve-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// The acceptance sweep: kill a journaled server with jobs in flight,
    /// restart it on the same journal, and demand terminal states
    /// bit-identical to an uninterrupted run — at 1, 2 and 4 threads.
    #[test]
    fn crash_and_restart_resume_to_bit_identical_solutions_across_thread_counts() {
        let bench = small_bench();
        let reference = {
            let handle = start(test_config()).unwrap();
            let addr = handle.addr().to_string();
            let doc = wait_done(&addr, submit(&addr, &bench_job_body(&bench, 1)));
            handle.shutdown();
            doc
        };
        assert_eq!(
            reference.get("outcome").and_then(|v| v.as_str()),
            Some("complete"),
            "{reference}"
        );

        for threads in [1usize, 2, 4] {
            let dir = scratch_dir(&format!("crash-{threads}"));
            let durable = || ServerConfig {
                runners: 1,
                journal: Some(dir.clone()),
                ..test_config()
            };
            let handle = start(durable()).unwrap();
            let addr = handle.addr().to_string();
            let ids: Vec<u64> = (0..2)
                .map(|_| submit(&addr, &bench_job_body(&bench, threads)))
                .collect();
            // Let the single runner get into the first job, then die.
            std::thread::sleep(Duration::from_millis(25));
            handle.crash();

            let handle = start(durable()).unwrap();
            let addr = handle.addr().to_string();
            for &id in &ids {
                let doc = wait_done(&addr, id);
                for field in ["outcome", "vector", "choices", "leakage_bits", "delay_bits"] {
                    assert_eq!(
                        doc.get(field).and_then(|v| v.as_str()),
                        reference.get(field).and_then(|v| v.as_str()),
                        "threads={threads} job={id} field={field}"
                    );
                }
            }
            let metrics = get(&addr, "/metrics").body;
            assert!(
                metrics.contains("serve.journal.recovered_jobs"),
                "{metrics}"
            );
            handle.shutdown();
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// A portfolio job keeps its whole frontier in the job's one
    /// checkpoint file, so a crash mid-job resumes warm: the restarted
    /// server finds the file (nothing counts as missing) and the job ends
    /// with the uninterrupted run's bits.
    #[test]
    fn crashed_portfolio_jobs_resume_from_their_checkpoint_file() {
        use svtox_netlist::generators::{random_dag, RandomDagSpec};
        let bench = random_dag(&RandomDagSpec::new("serve-portfolio", 6, 3, 20, 4))
            .expect("spec is valid")
            .to_bench();
        let mut body = json::parse(&bench_job_body(&bench, 1)).unwrap();
        if let json::Value::Obj(fields) = &mut body {
            fields.insert("mode".to_string(), json::Value::Str("portfolio".into()));
        }
        let body = body.to_string();
        let reference = {
            let handle = start(test_config()).unwrap();
            let addr = handle.addr().to_string();
            let doc = wait_done(&addr, submit(&addr, &body));
            handle.shutdown();
            doc
        };
        assert_eq!(
            reference.get("outcome").and_then(|v| v.as_str()),
            Some("complete"),
            "{reference}"
        );

        let dir = scratch_dir("crash-portfolio");
        let durable = || ServerConfig {
            runners: 1,
            journal: Some(dir.clone()),
            ..test_config()
        };
        let handle = start(durable()).unwrap();
        let addr = handle.addr().to_string();
        let id = submit(&addr, &body);
        // Crash mid-job, once the run has written its checkpoint's meta
        // line. The job runs for seconds, so the bounded wait also ends
        // with the job running where no such file ever appears.
        let ckpt = dir.join(crate::journal::checkpoint_name(id));
        let deadline = std::time::Instant::now() + Duration::from_secs(1);
        while !ckpt.exists() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        handle.crash();

        let handle = start(durable()).unwrap();
        let addr = handle.addr().to_string();
        let doc = wait_done(&addr, id);
        for field in [
            "outcome",
            "winner",
            "vector",
            "choices",
            "leakage_bits",
            "delay_bits",
        ] {
            assert_eq!(
                doc.get(field).and_then(|v| v.as_str()),
                reference.get(field).and_then(|v| v.as_str()),
                "field={field}"
            );
        }
        let metrics = get(&addr, "/metrics").body;
        assert!(metrics.contains("serve.journal.resumed_jobs"), "{metrics}");
        assert!(
            !metrics.contains("serve.journal.checkpoint_missing"),
            "{metrics}"
        );
        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Restarts compact the journal down to live jobs, so after a
    /// restart with every job finished only the header's id high-water
    /// mark remembers which ids were issued. Kill → restart → kill →
    /// restart with no job in between: the next job still gets a new id,
    /// and an old id answers `410`, not with someone else's job.
    #[test]
    fn job_ids_are_never_reused_across_restarts() {
        let dir = scratch_dir("id-high-water");
        let durable = || ServerConfig {
            runners: 1,
            journal: Some(dir.clone()),
            ..test_config()
        };
        let body = r#"{"circuit":"c432","deadline_ms":100}"#;
        let mut issued: Vec<u64> = Vec::new();
        for (life, jobs) in [2, 0, 1].into_iter().enumerate() {
            let handle = start(durable()).unwrap();
            let addr = handle.addr().to_string();
            for _ in 0..jobs {
                let id = submit(&addr, body);
                assert!(
                    issued.iter().all(|&old| id > old),
                    "life {life}: id {id} reissued (issued before: {issued:?})"
                );
                issued.push(id);
                wait_done(&addr, id);
            }
            if life == 2 {
                assert_eq!(status_doc(&addr, issued[0]).0, 410);
            }
            handle.crash();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A journaled restart whose checkpoints were wiped must restart the
    /// affected jobs cold — counted, completed, never hung.
    #[test]
    fn missing_checkpoint_restarts_cold_and_counts_it() {
        let dir = scratch_dir("ckpt-missing");
        let durable = || ServerConfig {
            runners: 1,
            journal: Some(dir.clone()),
            ..ServerConfig::default()
        };
        let handle = start(durable()).unwrap();
        let addr = handle.addr().to_string();
        let id = submit(&addr, r#"{"circuit":"c432","deadline_ms":2000}"#);
        // Let the job reach its running journal record, then die and
        // lose the checkpoint (a disk wipe between runs).
        std::thread::sleep(Duration::from_millis(100));
        handle.crash();
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.to_string_lossy().contains(".ckpt") {
                std::fs::remove_file(path).ok();
            }
        }

        let handle = start(durable()).unwrap();
        let addr = handle.addr().to_string();
        let metrics = get(&addr, "/metrics").body;
        assert!(
            metrics.contains("serve.journal.checkpoint_missing"),
            "{metrics}"
        );
        let doc = wait_done(&addr, id);
        let outcome = doc.get("outcome").and_then(|v| v.as_str()).unwrap();
        assert!(outcome == "complete" || outcome == "degraded", "{doc}");
        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Journal fsync faults must degrade durability loudly — never the
    /// service: the job still reaches a typed terminal state.
    #[test]
    fn journal_fsync_faults_degrade_loudly_while_jobs_complete() {
        let dir = scratch_dir("fsync-fault");
        let handle = start(ServerConfig {
            journal: Some(dir.clone()),
            fault_plan: Some("io.fsync:nth=1".to_string()),
            ..test_config()
        })
        .unwrap();
        let addr = handle.addr().to_string();
        let doc = wait_done(&addr, submit(&addr, &bench_job_body(&small_bench(), 1)));
        let outcome = doc.get("outcome").and_then(|v| v.as_str()).unwrap();
        assert!(
            outcome == "complete" || outcome == "degraded",
            "typed terminal state under journal faults: {doc}"
        );
        let metrics = get(&addr, "/metrics").body;
        assert!(metrics.contains("serve.journal.degraded"), "{metrics}");
        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One TCP connection, two requests: the second must be served on
    /// the same socket and counted as keep-alive reuse.
    #[test]
    fn keep_alive_connections_pipeline_requests_and_count_reuse() {
        let handle = start(test_config()).unwrap();
        let addr = handle.addr().to_string();
        let mut stream = std::net::TcpStream::connect(&addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let first = http::call_keep_alive(&mut stream, "GET", "/metrics", "").unwrap();
        assert_eq!(first.status, 200);
        let second = http::call_keep_alive(&mut stream, "GET", "/metrics", "").unwrap();
        assert_eq!(second.status, 200);
        assert!(
            second.body.contains("serve.http.keepalive_reuse"),
            "{}",
            second.body
        );
        handle.shutdown();
    }

    /// A client that starts a request and stalls (slow loris) must be
    /// answered 408 and counted — not allowed to pin the connection.
    #[test]
    fn slow_loris_partial_requests_get_408() {
        use std::io::{Read as _, Write as _};
        let handle = start(ServerConfig {
            io_timeout: Duration::from_millis(100),
            ..test_config()
        })
        .unwrap();
        let addr = handle.addr().to_string();
        let mut stream = std::net::TcpStream::connect(&addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream
            .write_all(b"POST /jobs HTTP/1.1\r\nContent-Le")
            .unwrap();
        // Never finish the head; the server must answer, not hang.
        let mut response = String::new();
        let mut buf = [0u8; 1024];
        loop {
            match stream.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => response.push_str(&String::from_utf8_lossy(&buf[..n])),
            }
        }
        assert!(response.starts_with("HTTP/1.1 408"), "{response}");
        let metrics = get(&addr, "/metrics").body;
        assert!(metrics.contains("serve.http.timeouts"), "{metrics}");
        handle.shutdown();
    }

    /// `shutdown` wakes the blocked `accept` itself: it returns promptly
    /// on a server that never saw a connection, on one bound to the
    /// unspecified address, and after `POST /shutdown`.
    #[test]
    fn shutdown_wakes_the_blocked_accept_promptly() {
        let prompt = |handle: ServerHandle, case: &str| {
            let t = Instant::now();
            handle.shutdown();
            assert!(
                t.elapsed() < Duration::from_secs(2),
                "{case}: {:?}",
                t.elapsed()
            );
        };
        prompt(start(test_config()).unwrap(), "never connected");
        let any = start(ServerConfig {
            addr: "0.0.0.0:0".to_string(),
            ..test_config()
        })
        .unwrap();
        assert!(any.addr().ip().is_unspecified());
        prompt(any, "bound to 0.0.0.0");
        let handle = start(test_config()).unwrap();
        let addr = handle.addr().to_string();
        assert_eq!(post_json(&addr, "/shutdown", "").status, 200);
        prompt(handle, "after POST /shutdown");
    }

    fn status_doc(addr: &str, id: u64) -> (u16, json::Value) {
        let response = get(addr, &format!("/jobs/{id}"));
        (response.status, json::parse(&response.body).unwrap())
    }

    /// Past `RETAINED_JOBS` finished jobs the oldest are dropped: their ids
    /// answer 410 on every job route, never-issued ids keep 404, the
    /// newest job is still served, and `serve.jobs_evicted` counts them.
    #[test]
    fn finished_jobs_past_the_bound_answer_410_and_are_counted() {
        const EXTRA: usize = 3;
        let handle = start(ServerConfig {
            runners: 1,
            queue_depth: RETAINED_JOBS + EXTRA,
            ..test_config()
        })
        .unwrap();
        let addr = handle.addr().to_string();
        let ids: Vec<u64> = (0..RETAINED_JOBS + EXTRA)
            .map(|_| submit(&addr, r#"{"circuit":"no_such_circuit"}"#))
            .collect();
        // One runner, FIFO: once the last is done, all are.
        let last = *ids.last().unwrap();
        wait_done(&addr, last);
        for &id in &ids[..EXTRA] {
            assert_eq!(get(&addr, &format!("/jobs/{id}")).status, 410, "job {id}");
            assert_eq!(get(&addr, &format!("/jobs/{id}/events")).status, 410);
            assert_eq!(
                post_json(&addr, &format!("/jobs/{id}/cancel"), "").status,
                410
            );
        }
        for id in [ids[EXTRA], last] {
            let (status, doc) = status_doc(&addr, id);
            assert_eq!(status, 200, "job {id}");
            assert_eq!(doc.get("state").and_then(|v| v.as_str()), Some("done"));
        }
        assert_eq!(get(&addr, &format!("/jobs/{}", last + 1)).status, 404);
        assert_eq!(get(&addr, "/jobs/0").status, 404);
        let metrics = get(&addr, "/metrics").body;
        assert_eq!(
            metric_value(&metrics, "serve.jobs_evicted"),
            Some(EXTRA as u64),
            "{metrics}"
        );
        handle.shutdown();
    }

    /// One circuit past the netlist cache's cap evicts the first: its
    /// resubmission is a miss, counted as an eviction, and the job
    /// rebuilt from the text ends with the same result bits.
    #[test]
    fn an_evicted_netlist_rebuilds_to_the_same_result_bits() {
        use crate::cache::NETLIST_CACHE_CAP;
        use svtox_netlist::generators::{random_dag, RandomDagSpec};
        let handle = start(ServerConfig {
            runners: 1,
            queue_depth: NETLIST_CACHE_CAP + 2,
            ..test_config()
        })
        .unwrap();
        let addr = handle.addr().to_string();
        // Distinct gate counts, so no two circuits share a cache key.
        let body = |i: usize| {
            let bench = random_dag(&RandomDagSpec::new(format!("evict{i}"), 4, 2, 6 + i, 3))
                .expect("spec is valid")
                .to_bench();
            bench_job_body(&bench, 1)
        };
        let ids: Vec<u64> = (0..=NETLIST_CACHE_CAP)
            .map(|i| submit(&addr, &body(i)))
            .collect();
        let first = wait_done(&addr, ids[0]);
        wait_done(&addr, *ids.last().unwrap());
        let again = wait_done(&addr, submit(&addr, &body(0)));
        for field in ["outcome", "vector", "choices", "leakage_bits", "delay_bits"] {
            assert_eq!(
                again.get(field).and_then(|v| v.as_str()),
                first.get(field).and_then(|v| v.as_str()),
                "field={field}"
            );
        }
        assert_eq!(
            first.get("outcome").and_then(|v| v.as_str()),
            Some("complete")
        );
        assert_eq!(handle.caches().netlists_cached(), NETLIST_CACHE_CAP);
        let metrics = get(&addr, "/metrics").body;
        let misses = NETLIST_CACHE_CAP as u64 + 2;
        assert_eq!(
            metric_value(&metrics, "serve.cache.netlist_misses"),
            Some(misses),
            "{metrics}"
        );
        assert_eq!(
            metric_value(&metrics, "serve.cache.netlist_evictions"),
            Some(2),
            "{metrics}"
        );
        assert_eq!(metric_value(&metrics, "serve.cache.netlist_hits"), None);
        handle.shutdown();
    }

    fn metric_value(metrics: &str, name: &str) -> Option<u64> {
        metrics.lines().find_map(|line| {
            let mut parts = line.split_whitespace();
            (parts.next()? == name).then(|| parts.next()?.parse().ok())?
        })
    }

    /// Eviction goes by finishing order and touches finished jobs only: a
    /// job running through every eviction, issued before all the evicted
    /// ones, and a job queued behind them both stay pollable.
    #[test]
    fn queued_and_running_jobs_are_never_evicted() {
        const EXTRA: usize = 2;
        let handle = start(ServerConfig {
            runners: 2,
            queue_depth: RETAINED_JOBS + EXTRA + 2,
            default_deadline: Duration::from_secs(600),
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = handle.addr().to_string();
        // Only a cancel ends these two.
        let long = r#"{"circuit":"c432","threads":1}"#;
        let running = submit(&addr, long);
        let deadline = Instant::now() + Duration::from_secs(30);
        while status_doc(&addr, running)
            .1
            .get("state")
            .and_then(|v| v.as_str())
            != Some("running")
        {
            assert!(Instant::now() < deadline, "job {running} never started");
            std::thread::sleep(Duration::from_millis(1));
        }
        let quick: Vec<u64> = (0..RETAINED_JOBS + EXTRA)
            .map(|_| submit(&addr, r#"{"circuit":"no_such_circuit"}"#))
            .collect();
        let queued = submit(&addr, long);
        wait_done(&addr, *quick.last().unwrap());
        for &id in &quick[..EXTRA] {
            assert_eq!(get(&addr, &format!("/jobs/{id}")).status, 410, "job {id}");
        }
        for id in [running, queued] {
            let (status, doc) = status_doc(&addr, id);
            assert_eq!(status, 200, "job {id}");
            let state = doc.get("state").and_then(|v| v.as_str()).unwrap();
            assert!(state == "queued" || state == "running", "job {id}: {doc}");
        }
        handle.shutdown();
    }

    /// A finished job still inside the bound streams its whole event
    /// trace, lifecycle markers and optimizer trace alike.
    #[test]
    fn events_of_a_retained_done_job_stream_in_full() {
        let handle = start(test_config()).unwrap();
        let addr = handle.addr().to_string();
        let id = submit(&addr, r#"{"circuit":"c432","deadline_ms":150}"#);
        wait_done(&addr, id);
        let events = get(&addr, &format!("/jobs/{id}/events"));
        assert_eq!(events.status, 200);
        let lines: Vec<&str> = events.body.lines().collect();
        let recorded = handle.state.job(id).expect("retained").events.snapshot();
        assert_eq!(lines, recorded);
        assert!(lines.first().unwrap().contains("job.queued"), "{lines:?}");
        assert!(lines.last().unwrap().contains("job.finished"), "{lines:?}");
        assert!(lines.iter().any(|l| l.contains("core.run")), "{lines:?}");
        handle.shutdown();
    }
}
