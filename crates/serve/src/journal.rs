//! The write-ahead job journal: append-only JSONL durability for serve.
//!
//! A journaled server (`--journal DIR`) records every job's lifecycle so
//! a crashed process can be restarted without forgetting admitted work:
//!
//! * `{"type":"journal","version":1,"next_id":N}` — the header line;
//!   `next_id` is the id high-water mark, so ids of jobs compacted away
//!   are never issued again after a restart;
//! * `{"type":"admit","id":N,"spec":{..}}` — the full spec, written
//!   **before** the client sees its 202 (write-ahead: an acknowledged job
//!   is a recorded job);
//! * `{"type":"checkpoint","id":N,"path":"job-N.ckpt"}` — the one
//!   file where the run's search frontier persists, for single-strategy
//!   and portfolio jobs alike;
//! * `{"type":"state","id":N,"state":"running"}` — lifecycle
//!   transitions;
//! * `{"type":"done","id":N,"outcome":..,"solution":{..}}` — the
//!   terminal record, floats as `f64` bit-pattern hex like the
//!   checkpoint format.
//!
//! Durability policy: every record is flushed; `admit` and `done`
//! records are additionally fsynced (`sync_data`) — those two are the
//! moments a crash must not un-happen. `state` and `checkpoint` records
//! ride the next sync; losing one costs a warm resume, never an admitted
//! job.
//!
//! The file is bounded by **live** jobs, not history: terminal records
//! evict the job from the in-memory live table, and once enough dead
//! records accumulate the journal compacts — live records are rewritten
//! to a temp file, fsynced, and atomically renamed over the journal.
//! Startup recovery always compacts, so a torn tail never survives into
//! the next append.
//!
//! Failure containment: every write routes through the `io.write` /
//! `io.fsync` / `io.rename` fault sites, and any error — injected or
//! real — permanently degrades the journal (`serve.journal.degraded`
//! counter, one warning) instead of failing jobs. A degraded server
//! keeps completing jobs in memory; it just stops being crash-proof.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use svtox_fault::{Fault, Site};
use svtox_obs::{json, Obs};

use crate::job::{JobResult, JobSpec, SolutionSummary};

/// The journal file name inside the `--journal` directory.
pub const JOURNAL_FILE: &str = "journal.jsonl";

/// The only format version this build reads and writes.
pub const JOURNAL_VERSION: u64 = 1;

/// Terminal records tolerated in the file before a compaction rewrites
/// it down to live jobs.
pub(crate) const COMPACT_DEAD_THRESHOLD: usize = 32;

/// A non-terminal job as the journal tracks it (the compaction source
/// and the recovery product).
#[derive(Debug, Clone)]
pub struct LiveJob {
    /// The admitted spec.
    pub spec: JobSpec,
    /// `queued` or `running`.
    pub state: &'static str,
    /// Checkpoint file name, relative to the journal directory.
    pub checkpoint: Option<String>,
}

struct Active {
    file: File,
    live: BTreeMap<u64, LiveJob>,
    /// One past the largest id ever admitted (the header's `next_id`).
    next_id: u64,
    dead_since_compact: usize,
}

/// The journal handle. Cheap methods, one mutex; `None` inside the
/// mutex means disabled — either never configured or degraded.
pub struct Journal {
    dir: PathBuf,
    obs: Obs,
    fault: Fault,
    active: Mutex<Option<Active>>,
}

impl Journal {
    /// A journal that was never configured: every record is a no-op.
    #[must_use]
    pub fn inactive() -> Self {
        Self {
            dir: PathBuf::new(),
            obs: Obs::disabled(),
            fault: Fault::disabled(),
            active: Mutex::new(None),
        }
    }

    /// Opens the journal in `dir`, seeding its live table with the
    /// recovered non-terminal jobs, and immediately compacts so the file
    /// starts bounded and clean (no torn tail, no dead history).
    ///
    /// Never fails: any I/O error degrades the returned handle instead
    /// (`serve.journal.degraded`), because durability is an upgrade, not
    /// a precondition for serving.
    #[must_use]
    pub fn open(dir: &Path, live: BTreeMap<u64, LiveJob>, obs: &Obs, fault: &Fault) -> Self {
        Self::open_with_next_id(dir, live, 1, obs, fault)
    }

    /// [`Journal::open`] for a restart: `next_id` is the recovered id
    /// high-water mark ([`crate::recovery::Recovery::next_id`]), carried
    /// into the new header so a second restart cannot reissue an id
    /// whose job was compacted away.
    #[must_use]
    pub fn open_with_next_id(
        dir: &Path,
        live: BTreeMap<u64, LiveJob>,
        next_id: u64,
        obs: &Obs,
        fault: &Fault,
    ) -> Self {
        let next_id = live
            .keys()
            .last()
            .map_or(next_id, |&id| next_id.max(id + 1));
        let journal = Self {
            dir: dir.to_path_buf(),
            obs: obs.clone(),
            fault: fault.clone(),
            active: Mutex::new(None),
        };
        let opened = std::fs::create_dir_all(dir)
            .map_err(|e| io::Error::other(format!("create {}: {e}", dir.display())))
            .and_then(|()| journal.rewrite(&live, next_id))
            .and_then(|()| OpenOptions::new().append(true).open(dir.join(JOURNAL_FILE)));
        match opened {
            Ok(file) => {
                *journal.active.lock().expect("journal lock") = Some(Active {
                    file,
                    live,
                    next_id,
                    dead_since_compact: 0,
                });
            }
            Err(e) => {
                eprintln!("warning: journal disabled: {e}");
                journal.obs.add("serve.journal.degraded", 1);
            }
        }
        journal
    }

    /// Whether records are currently being persisted.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.active.lock().expect("journal lock").is_some()
    }

    /// The journal directory (empty for inactive handles).
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The checkpoint file for job `id` (`DIR/job-ID.ckpt`).
    #[must_use]
    pub fn checkpoint_path(&self, id: u64) -> PathBuf {
        self.dir.join(checkpoint_name(id))
    }

    /// Records an admission: the full spec plus the job's checkpoint
    /// path, fsynced — after this returns, a crash cannot lose the job.
    pub fn admit(&self, id: u64, spec: &JobSpec) {
        let name = checkpoint_name(id);
        let line = format!(
            "{{\"type\":\"admit\",\"id\":{id},\"spec\":{}}}\n{{\"type\":\"checkpoint\",\"id\":{id},\"path\":{}}}\n",
            spec.to_journal_value(),
            json::Value::Str(name.clone()),
        );
        self.with_active("admit", |active, fault| {
            active.next_id = active.next_id.max(id + 1);
            active.live.insert(
                id,
                LiveJob {
                    spec: spec.clone(),
                    state: "queued",
                    checkpoint: Some(name.clone()),
                },
            );
            append_synced(&mut active.file, &line, fault, "journal admit")
        });
    }

    /// Records a lifecycle transition (`running`). Flushed, not fsynced.
    pub fn state(&self, id: u64, state: &'static str) {
        let line = format!("{{\"type\":\"state\",\"id\":{id},\"state\":\"{state}\"}}\n");
        self.with_active("state", |active, fault| {
            if let Some(job) = active.live.get_mut(&id) {
                job.state = state;
            }
            append_flushed(&mut active.file, &line, fault, "journal state")
        });
    }

    /// Records a terminal outcome (fsynced), evicts the job from the
    /// live table, deletes its checkpoint file, and compacts once
    /// enough dead records have accumulated.
    pub fn done(&self, id: u64, result: &JobResult) {
        let line = format!(
            "{{\"type\":\"done\",\"id\":{id},\"result\":{}}}\n",
            result_to_value(result)
        );
        let mut compacted = false;
        let recorded = self.with_active("done", |active, fault| {
            active.live.remove(&id);
            active.dead_since_compact += 1;
            append_synced(&mut active.file, &line, fault, "journal done")?;
            if active.dead_since_compact >= COMPACT_DEAD_THRESHOLD {
                compacted = true;
            }
            Ok(())
        });
        if recorded {
            // Outside the append: the checkpoint file of a terminal job is
            // garbage. Best-effort removal bounds the directory the same
            // way compaction bounds the journal.
            remove_checkpoint(&self.dir, id);
            if compacted {
                self.compact();
            }
        }
    }

    /// Rewrites the journal down to the live table (temp + fsync +
    /// atomic rename), resetting the dead-record count. Public so tests
    /// and chaos scenarios can force a rotation.
    pub fn compact(&self) {
        let mut guard = self.active.lock().expect("journal lock");
        let Some(active) = guard.take() else { return };
        let (live, next_id) = (active.live, active.next_id);
        drop(active.file);
        match self.rewrite(&live, next_id).and_then(|()| {
            OpenOptions::new()
                .append(true)
                .open(self.dir.join(JOURNAL_FILE))
        }) {
            Ok(file) => {
                *guard = Some(Active {
                    file,
                    live,
                    next_id,
                    dead_since_compact: 0,
                });
                self.obs.add("serve.journal.compactions", 1);
            }
            Err(e) => {
                eprintln!("warning: journal compaction failed, journal disabled: {e}");
                self.obs.add("serve.journal.degraded", 1);
            }
        }
    }

    /// Drops the journal handle without recording anything — the test
    /// hook that makes an in-process "SIGKILL" look like a real one to
    /// the file: whatever was flushed is what recovery sees.
    pub fn freeze(&self) {
        *self.active.lock().expect("journal lock") = None;
    }

    /// Writes `header + live records` to a temp file and atomically
    /// renames it over the journal.
    fn rewrite(&self, live: &BTreeMap<u64, LiveJob>, next_id: u64) -> io::Result<()> {
        let path = self.dir.join(JOURNAL_FILE);
        let tmp = self.dir.join(format!("{JOURNAL_FILE}.tmp"));
        let mut text = format!(
            "{{\"type\":\"journal\",\"version\":{JOURNAL_VERSION},\"next_id\":{next_id}}}\n"
        );
        for (id, job) in live {
            text.push_str(&format!(
                "{{\"type\":\"admit\",\"id\":{id},\"spec\":{}}}\n",
                job.spec.to_journal_value()
            ));
            if let Some(name) = &job.checkpoint {
                text.push_str(&format!(
                    "{{\"type\":\"checkpoint\",\"id\":{id},\"path\":{}}}\n",
                    json::Value::Str(name.clone())
                ));
            }
            if job.state != "queued" {
                text.push_str(&format!(
                    "{{\"type\":\"state\",\"id\":{id},\"state\":\"{}\"}}\n",
                    job.state
                ));
            }
        }
        self.fault.check_io(Site::FileWrite, "journal rewrite")?;
        let mut file = File::create(&tmp)?;
        file.write_all(text.as_bytes())?;
        self.fault
            .check_io(Site::FileFsync, "journal rewrite sync")?;
        file.sync_data()?;
        drop(file);
        self.fault.check_io(Site::FileRename, "journal rotate")?;
        std::fs::rename(&tmp, &path)
    }

    /// Runs `record` against the active file; any error degrades the
    /// journal permanently. Returns whether the record landed.
    fn with_active(
        &self,
        what: &str,
        record: impl FnOnce(&mut Active, &Fault) -> io::Result<()>,
    ) -> bool {
        let mut guard = self.active.lock().expect("journal lock");
        let Some(active) = guard.as_mut() else {
            return false;
        };
        match record(active, &self.fault) {
            Ok(()) => true,
            Err(e) => {
                eprintln!("warning: journal {what} failed, journal disabled: {e}");
                *guard = None;
                self.obs.add("serve.journal.degraded", 1);
                false
            }
        }
    }
}

/// The checkpoint file name of job `id`.
#[must_use]
pub fn checkpoint_name(id: u64) -> String {
    format!("job-{id}.ckpt")
}

/// Removes a job's checkpoint file. Best-effort.
fn remove_checkpoint(dir: &Path, id: u64) {
    std::fs::remove_file(dir.join(checkpoint_name(id))).ok();
}

fn append_flushed(file: &mut File, line: &str, fault: &Fault, what: &str) -> io::Result<()> {
    fault.check_io(Site::FileWrite, what)?;
    file.write_all(line.as_bytes())?;
    file.flush()
}

fn append_synced(file: &mut File, line: &str, fault: &Fault, what: &str) -> io::Result<()> {
    append_flushed(file, line, fault, what)?;
    fault.check_io(Site::FileFsync, what)?;
    file.sync_data()
}

fn bits_hex(value: f64) -> String {
    format!("{:016x}", value.to_bits())
}

fn parse_bits(v: Option<&json::Value>) -> Option<f64> {
    let hex = v?.as_str()?;
    u64::from_str_radix(hex, 16).ok().map(f64::from_bits)
}

/// Serializes a terminal result; every float is a bit-pattern hex
/// string, so replayed results are byte-identical to reported ones.
#[must_use]
pub fn result_to_value(result: &JobResult) -> json::Value {
    let mut obj = BTreeMap::new();
    obj.insert(
        "outcome".to_string(),
        json::Value::Str(result.outcome.to_string()),
    );
    obj.insert(
        "circuit".to_string(),
        json::Value::Str(result.circuit.clone()),
    );
    for (name, text) in [
        ("reason", &result.reason),
        ("error", &result.error),
        ("winner", &result.winner),
    ] {
        if let Some(text) = text {
            obj.insert(name.to_string(), json::Value::Str(text.clone()));
        }
    }
    if let Some(cells) = result.liberty_cells {
        obj.insert("liberty_cells".to_string(), json::Value::Num(cells as f64));
    }
    if let Some(baseline) = result.baseline_leakage_ua {
        obj.insert(
            "baseline_bits".to_string(),
            json::Value::Str(bits_hex(baseline)),
        );
    }
    if let Some(s) = &result.solution {
        let mut sol = BTreeMap::new();
        sol.insert("vector".to_string(), json::Value::Str(s.vector.clone()));
        sol.insert("choices".to_string(), json::Value::Str(s.choices.clone()));
        sol.insert(
            "leakage_ua_bits".to_string(),
            json::Value::Str(bits_hex(s.leakage_ua)),
        );
        sol.insert(
            "leakage_bits".to_string(),
            json::Value::Str(format!("{:016x}", s.leakage_bits)),
        );
        sol.insert(
            "delay_bits".to_string(),
            json::Value::Str(format!("{:016x}", s.delay_bits)),
        );
        sol.insert("leaves".to_string(), json::Value::Num(s.leaves as f64));
        sol.insert(
            "runtime_ms_bits".to_string(),
            json::Value::Str(bits_hex(s.runtime_ms)),
        );
        obj.insert("solution".to_string(), json::Value::Obj(sol));
    }
    json::Value::Obj(obj)
}

/// Parses a journal `done` result. `None` on any malformed field.
#[must_use]
pub fn result_from_value(v: &json::Value) -> Option<JobResult> {
    let outcome = match v.get("outcome")?.as_str()? {
        "complete" => "complete",
        "degraded" => "degraded",
        "failed" => "failed",
        _ => return None,
    };
    let text = |name: &str| {
        v.get(name)
            .and_then(json::Value::as_str)
            .map(str::to_string)
    };
    let solution = match v.get("solution") {
        None => None,
        Some(s) => Some(SolutionSummary {
            vector: s.get("vector")?.as_str()?.to_string(),
            choices: s.get("choices")?.as_str()?.to_string(),
            leakage_ua: parse_bits(s.get("leakage_ua_bits"))?,
            leakage_bits: u64::from_str_radix(s.get("leakage_bits")?.as_str()?, 16).ok()?,
            delay_bits: u64::from_str_radix(s.get("delay_bits")?.as_str()?, 16).ok()?,
            leaves: {
                let f = s.get("leaves")?.as_f64()?;
                (f.fract() == 0.0 && f >= 0.0).then_some(f as u64)?
            },
            runtime_ms: parse_bits(s.get("runtime_ms_bits"))?,
        }),
    };
    Some(JobResult {
        outcome,
        reason: text("reason"),
        error: text("error"),
        circuit: text("circuit")?,
        solution,
        winner: text("winner"),
        liberty_cells: v
            .get("liberty_cells")
            .and_then(json::Value::as_f64)
            .map(|f| f as usize),
        baseline_leakage_ua: parse_bits(v.get("baseline_bits")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recovery;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("svtox-journal-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    fn spec(circuit: &str) -> JobSpec {
        JobSpec::from_json(&format!(
            "{{\"circuit\":\"{circuit}\",\"deadline_ms\":250,\"threads\":2}}"
        ))
        .expect("valid spec")
    }

    fn done_result(outcome: &'static str) -> JobResult {
        JobResult {
            outcome,
            reason: (outcome == "degraded").then(|| "time budget expired".to_string()),
            error: (outcome == "failed").then(|| "boom".to_string()),
            circuit: "c432".to_string(),
            solution: (outcome != "failed").then(|| SolutionSummary {
                vector: "0110".to_string(),
                choices: "0123".to_string(),
                leakage_ua: 12.5,
                leakage_bits: 12.5f64.to_bits(),
                delay_bits: (0.1f64 + 0.2).to_bits(),
                leaves: 99,
                runtime_ms: 3.25,
            }),
            winner: None,
            liberty_cells: None,
            baseline_leakage_ua: Some(44.25),
        }
    }

    #[test]
    fn result_floats_round_trip_bit_exactly() {
        for outcome in ["complete", "degraded", "failed"] {
            let result = done_result(outcome);
            let text = result_to_value(&result).to_string();
            let parsed = result_from_value(&json::parse(&text).expect("valid json"))
                .expect("well-formed result");
            assert_eq!(parsed.outcome, result.outcome);
            assert_eq!(parsed.reason, result.reason);
            assert_eq!(parsed.error, result.error);
            assert_eq!(
                parsed.baseline_leakage_ua.map(f64::to_bits),
                result.baseline_leakage_ua.map(f64::to_bits)
            );
            match (&parsed.solution, &result.solution) {
                (Some(p), Some(r)) => {
                    assert_eq!(p.vector, r.vector);
                    assert_eq!(p.choices, r.choices);
                    assert_eq!(p.leakage_ua.to_bits(), r.leakage_ua.to_bits());
                    assert_eq!(p.leakage_bits, r.leakage_bits);
                    assert_eq!(p.delay_bits, r.delay_bits);
                    assert_eq!(p.leaves, r.leaves);
                    assert_eq!(p.runtime_ms.to_bits(), r.runtime_ms.to_bits());
                }
                (None, None) => {}
                other => panic!("solution mismatch: {other:?}"),
            }
        }
    }

    #[test]
    fn spec_journal_round_trip_is_exact() {
        let spec = JobSpec::from_json(
            r#"{"circuit":"c432","penalty":7.5,"mode":"portfolio","threads":4,
                "vectors":128,"deadline_ms":321,"two_option":true,"uniform_stack":true}"#,
        )
        .unwrap();
        let value = spec.to_journal_value();
        let back = JobSpec::from_journal_value(&json::parse(&value.to_string()).unwrap())
            .expect("round trip");
        assert_eq!(back.circuit, spec.circuit);
        assert_eq!(back.penalty.to_bits(), spec.penalty.to_bits());
        assert_eq!(back.mode, spec.mode);
        assert_eq!(back.portfolio, spec.portfolio);
        assert_eq!(back.threads, spec.threads);
        assert_eq!(back.vectors, spec.vectors);
        assert_eq!(back.deadline, spec.deadline);
        assert_eq!(back.library.tradeoff_points, spec.library.tradeoff_points);
        assert!(back.library.uniform_stack);
    }

    #[test]
    fn admit_run_done_lifecycle_bounds_the_file() {
        let dir = temp_dir("lifecycle");
        let obs = Obs::enabled();
        let journal = Journal::open(&dir, BTreeMap::new(), &obs, Fault::disabled_ref());
        assert!(journal.is_active());
        journal.admit(1, &spec("c432"));
        journal.state(1, "running");
        journal.admit(2, &spec("c499"));
        journal.done(1, &done_result("complete"));
        journal.compact();

        // After compaction only the header and job 2 remain.
        let text = std::fs::read_to_string(dir.join(JOURNAL_FILE)).unwrap();
        assert!(text.contains("\"version\":1"), "{text}");
        assert!(text.contains("\"id\":2"), "{text}");
        assert!(!text.contains("\"id\":1"), "compacted away: {text}");
        assert!(!text.contains("\"done\""), "{text}");
        assert_eq!(
            obs.counter_snapshot().get("serve.journal.compactions"),
            Some(&1)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn done_removes_checkpoint_files() {
        let dir = temp_dir("ckpt-cleanup");
        let journal = Journal::open(
            &dir,
            BTreeMap::new(),
            &Obs::enabled(),
            Fault::disabled_ref(),
        );
        journal.admit(3, &spec("c432"));
        std::fs::write(journal.checkpoint_path(3), "meta\n").unwrap();
        std::fs::write(dir.join("job-30.ckpt"), "meta\n").unwrap();
        journal.done(3, &done_result("failed"));
        assert!(!journal.checkpoint_path(3).exists());
        assert!(dir.join("job-30.ckpt").exists(), "prefix is exact");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_write_fault_degrades_loudly_instead_of_failing() {
        let dir = temp_dir("write-fault");
        let obs = Obs::enabled();
        // The open rewrite consumes the first hit; the nth=3 fire lands
        // on a later append.
        let plan =
            svtox_fault::FaultPlan::new(5).with_rule(Site::FileWrite, svtox_fault::Trigger::Nth(3));
        let fault = Fault::new(&plan);
        let journal = Journal::open(&dir, BTreeMap::new(), &obs, &fault);
        assert!(journal.is_active());
        journal.admit(1, &spec("c432"));
        journal.state(1, "running"); // third io.write hit: fires
        assert!(!journal.is_active(), "degraded after the injected fault");
        journal.done(1, &done_result("complete")); // silently dropped
        assert_eq!(
            obs.counter_snapshot().get("serve.journal.degraded"),
            Some(&1)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn injected_fsync_and_rename_faults_degrade_too() {
        for (site, label) in [(Site::FileFsync, "fsync"), (Site::FileRename, "rename")] {
            let dir = temp_dir(&format!("fault-{label}"));
            let obs = Obs::enabled();
            let plan = svtox_fault::FaultPlan::new(5).with_rule(site, svtox_fault::Trigger::Nth(1));
            let journal = Journal::open(&dir, BTreeMap::new(), &obs, &Fault::new(&plan));
            // The opening rewrite itself hits fsync and rename once.
            assert!(!journal.is_active(), "{label} fault degrades at open");
            assert_eq!(
                obs.counter_snapshot().get("serve.journal.degraded"),
                Some(&1),
                "{label}"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn freeze_simulates_a_kill_for_recovery() {
        let dir = temp_dir("freeze");
        let journal = Journal::open(
            &dir,
            BTreeMap::new(),
            &Obs::enabled(),
            Fault::disabled_ref(),
        );
        journal.admit(1, &spec("c432"));
        journal.state(1, "running");
        journal.freeze();
        journal.done(1, &done_result("complete")); // lost, like a kill
        let recovered =
            recovery::replay(&dir.join(JOURNAL_FILE), Fault::disabled_ref()).expect("replays");
        assert_eq!(recovered.jobs.len(), 1);
        assert!(recovered.jobs[0].result.is_none(), "still live");
        assert_eq!(recovered.jobs[0].state, recovery::RecoveredState::Running);
        std::fs::remove_dir_all(&dir).ok();
    }
}
