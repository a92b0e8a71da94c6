//! Journal replay: turning a crashed server's journal back into jobs.
//!
//! Recovery is a pure fold over the JSONL records of
//! [`crate::journal`]. It is **truncation tolerant** in the checkpoint
//! style: the replay consumes well-formed records until the first
//! malformed or torn line and then stops, flagging the tear — a crash
//! mid-append loses at most the record being written, never the jobs
//! before it. Only an unreadable header is a hard error (unknown
//! version, not-a-journal): that file was written by someone else, and
//! guessing at it would be worse than starting cold.
//!
//! Replay semantics, record by record:
//!
//! * `admit` — registers the job. Duplicates are first-wins (the
//!   compacted prefix is authoritative; a duplicate can only appear if
//!   a compaction raced a crash).
//! * `checkpoint` / `state` — update the named job; ids never admitted
//!   are skipped (their admit record tore off).
//! * `done` — attaches the terminal result, first-wins again: a job
//!   cannot un-finish.

use std::path::Path;

use svtox_fault::Fault;
use svtox_obs::json;

use crate::job::{JobResult, JobSpec};
use crate::journal::{result_from_value, JOURNAL_VERSION};

/// The lifecycle point a job had reached when the journal stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveredState {
    /// Admitted, never started: re-enqueue cold.
    Queued,
    /// Mid-run when the process died: re-enqueue with a resume
    /// checkpoint so the warm frontier is not re-searched.
    Running,
    /// Finished with a recorded terminal result: re-register as done so
    /// clients polling across the restart still get their answer.
    Done,
}

/// One job reconstructed from the journal.
#[derive(Debug, Clone)]
pub struct RecoveredJob {
    /// The journal-assigned id (preserved across the restart).
    pub id: u64,
    /// The admitted spec, bit-identical to the original.
    pub spec: JobSpec,
    /// Where its lifecycle stopped.
    pub state: RecoveredState,
    /// Checkpoint file name relative to the journal directory, if one
    /// was recorded.
    pub checkpoint: Option<String>,
    /// The terminal result, for [`RecoveredState::Done`] jobs.
    pub result: Option<JobResult>,
}

/// Everything a restarting server learns from its journal.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Replayed jobs in admission order.
    pub jobs: Vec<RecoveredJob>,
    /// First id the restarted server may assign: past every id the file
    /// names and the header's `next_id` high-water mark.
    pub next_id: u64,
    /// Whether the replay stopped at a torn or malformed line.
    pub torn_tail: bool,
    /// Records successfully replayed.
    pub records: usize,
}

impl Recovery {
    /// An empty recovery (no journal, or an empty one).
    #[must_use]
    pub fn empty() -> Self {
        Self {
            next_id: 1,
            ..Self::default()
        }
    }
}

/// Replays the journal at `path`.
///
/// A missing file is a clean cold start ([`Recovery::empty`]); reads go
/// through the fault handle so `io.read` / `io.truncate` plans exercise
/// this path too.
///
/// # Errors
///
/// A readable file whose header is not a version-[`JOURNAL_VERSION`]
/// journal, or an I/O error other than "not found". The caller treats
/// this as "journal unusable": degrade, don't crash.
pub fn replay(path: &Path, fault: &Fault) -> Result<Recovery, String> {
    let text = match fault.read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Recovery::empty()),
        Err(e) => return Err(format!("read {}: {e}", path.display())),
    };
    let mut lines = text.lines();
    let Some(header) = lines.next() else {
        return Ok(Recovery::empty());
    };
    let mut recovery = Recovery::empty();
    match json::parse(header) {
        Ok(v) if v.get("type").and_then(json::Value::as_str) == Some("journal") => {
            let version = v.get("version").and_then(json::Value::as_f64);
            if version != Some(JOURNAL_VERSION as f64) {
                return Err(format!(
                    "unsupported journal version {:?} (this build reads {JOURNAL_VERSION})",
                    version
                ));
            }
            // Written by compaction; older files lack it.
            if let Some(next_id) = record_id(&v, "next_id") {
                recovery.next_id = next_id.max(1);
            }
        }
        _ => {
            return Err(format!(
                "{} does not start with a journal header",
                path.display()
            ))
        }
    }

    for line in lines {
        let Ok(record) = json::parse(line) else {
            recovery.torn_tail = true;
            break;
        };
        if !apply(&mut recovery, &record) {
            recovery.torn_tail = true;
            break;
        }
        recovery.records += 1;
        // Every id the journal names was issued once: never hand it out
        // again, even if its job has since been compacted away.
        if let Some(id) = record_id(&record, "id") {
            recovery.next_id = recovery.next_id.max(id + 1);
        }
    }
    Ok(recovery)
}

/// A non-negative integer field of a record.
fn record_id(record: &json::Value, field: &str) -> Option<u64> {
    let f = record.get(field)?.as_f64()?;
    (f.fract() == 0.0 && (0.0..=1e15).contains(&f)).then_some(f as u64)
}

/// Applies one record; `false` means the record is malformed (torn).
fn apply(recovery: &mut Recovery, record: &json::Value) -> bool {
    let id = |r: &json::Value| record_id(r, "id");
    match record.get("type").and_then(json::Value::as_str) {
        Some("admit") => {
            let Some(id) = id(record) else { return false };
            let Some(spec) = record.get("spec").and_then(JobSpec::from_journal_value) else {
                return false;
            };
            if recovery.jobs.iter().all(|j| j.id != id) {
                recovery.jobs.push(RecoveredJob {
                    id,
                    spec,
                    state: RecoveredState::Queued,
                    checkpoint: None,
                    result: None,
                });
            }
            true
        }
        Some("checkpoint") => {
            let Some(id) = id(record) else { return false };
            let Some(path) = record.get("path").and_then(json::Value::as_str) else {
                return false;
            };
            if let Some(job) = recovery.jobs.iter_mut().find(|j| j.id == id) {
                job.checkpoint = Some(path.to_string());
            }
            true
        }
        Some("state") => {
            let Some(id) = id(record) else { return false };
            let state = match record.get("state").and_then(json::Value::as_str) {
                Some("queued") => RecoveredState::Queued,
                Some("running") => RecoveredState::Running,
                _ => return false,
            };
            if let Some(job) = recovery
                .jobs
                .iter_mut()
                .find(|j| j.id == id && j.state != RecoveredState::Done)
            {
                job.state = state;
            }
            true
        }
        Some("done") => {
            let Some(id) = id(record) else { return false };
            let Some(result) = record.get("result").and_then(result_from_value) else {
                return false;
            };
            if let Some(job) = recovery
                .jobs
                .iter_mut()
                .find(|j| j.id == id && j.state != RecoveredState::Done)
            {
                job.state = RecoveredState::Done;
                job.result = Some(result);
            }
            true
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_file(tag: &str, text: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("svtox-recovery-{tag}-{}.jsonl", std::process::id()));
        std::fs::write(&path, text).expect("write temp journal");
        path
    }

    const SPEC: &str = r#"{"circuit":"c432","mode":"proposed","penalty_bits":"3fa999999999999a","portfolio":false,"threads":2,"vectors":0,"two_option":false,"uniform_stack":false}"#;

    fn admit(id: u64) -> String {
        format!("{{\"type\":\"admit\",\"id\":{id},\"spec\":{SPEC}}}\n")
    }

    #[test]
    fn missing_file_is_a_cold_start() {
        let recovered = replay(
            Path::new("/nonexistent/journal.jsonl"),
            Fault::disabled_ref(),
        )
        .expect("missing journal is fine");
        assert!(recovered.jobs.is_empty());
        assert_eq!(recovered.next_id, 1);
        assert!(!recovered.torn_tail);
    }

    #[test]
    fn full_lifecycle_replays() {
        let text = format!(
            "{{\"type\":\"journal\",\"version\":1}}\n{}{}{}{}",
            admit(1),
            "{\"type\":\"checkpoint\",\"id\":1,\"path\":\"job-1.ckpt\"}\n",
            "{\"type\":\"state\",\"id\":1,\"state\":\"running\"}\n",
            admit(4),
        );
        let path = temp_file("lifecycle", &text);
        let recovered = replay(&path, Fault::disabled_ref()).unwrap();
        assert_eq!(recovered.jobs.len(), 2);
        assert_eq!(recovered.jobs[0].state, RecoveredState::Running);
        assert_eq!(recovered.jobs[0].checkpoint.as_deref(), Some("job-1.ckpt"));
        assert_eq!(recovered.jobs[1].id, 4);
        assert_eq!(recovered.jobs[1].state, RecoveredState::Queued);
        assert_eq!(recovered.next_id, 5);
        assert!(!recovered.torn_tail);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_stops_cleanly_and_keeps_the_prefix() {
        let text = format!(
            "{{\"type\":\"journal\",\"version\":1}}\n{}{{\"type\":\"adm",
            admit(1)
        );
        let path = temp_file("torn", &text);
        let recovered = replay(&path, Fault::disabled_ref()).unwrap();
        assert_eq!(recovered.jobs.len(), 1);
        assert!(recovered.torn_tail);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicate_records_are_first_wins() {
        let done =
            "{\"type\":\"done\",\"id\":1,\"result\":{\"outcome\":\"failed\",\"error\":\"first\",\"circuit\":\"c432\"}}\n";
        let done2 =
            "{\"type\":\"done\",\"id\":1,\"result\":{\"outcome\":\"complete\",\"circuit\":\"c432\"}}\n";
        let text = format!(
            "{{\"type\":\"journal\",\"version\":1}}\n{}{}{done}{done2}",
            admit(1),
            admit(1)
        );
        let path = temp_file("dups", &text);
        let recovered = replay(&path, Fault::disabled_ref()).unwrap();
        assert_eq!(recovered.jobs.len(), 1, "duplicate admit collapsed");
        assert_eq!(recovered.jobs[0].state, RecoveredState::Done);
        let result = recovered.jobs[0].result.as_ref().unwrap();
        assert_eq!(result.outcome, "failed", "first terminal record wins");
        assert_eq!(result.error.as_deref(), Some("first"));
        assert!(!recovered.torn_tail);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_version_is_a_typed_error() {
        let path = temp_file("version", "{\"type\":\"journal\",\"version\":99}\n");
        let err = replay(&path, Fault::disabled_ref()).unwrap_err();
        assert!(err.contains("version"), "got: {err}");
        let path2 = temp_file("notjournal", "{\"type\":\"meta\",\"version\":1}\n");
        let err = replay(&path2, Fault::disabled_ref()).unwrap_err();
        assert!(err.contains("header"), "got: {err}");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&path2).ok();
    }

    #[test]
    fn the_header_high_water_mark_outlives_compacted_jobs() {
        // A compacted journal whose jobs all finished: nothing but the
        // header remembers that ids 1..=6 were issued.
        let path = temp_file(
            "high-water",
            "{\"type\":\"journal\",\"version\":1,\"next_id\":7}\n",
        );
        let recovered = replay(&path, Fault::disabled_ref()).unwrap();
        assert!(recovered.jobs.is_empty());
        assert_eq!(recovered.next_id, 7);
        // Records past the mark still move it.
        let text = format!(
            "{{\"type\":\"journal\",\"version\":1,\"next_id\":3}}\n{}",
            admit(8)
        );
        std::fs::write(&path, text).unwrap();
        assert_eq!(replay(&path, Fault::disabled_ref()).unwrap().next_id, 9);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn records_for_unknown_ids_are_skipped_not_fatal() {
        let text = format!(
            "{{\"type\":\"journal\",\"version\":1}}\n{}{}",
            "{\"type\":\"state\",\"id\":9,\"state\":\"running\"}\n",
            admit(2)
        );
        let path = temp_file("unknown-id", &text);
        let recovered = replay(&path, Fault::disabled_ref()).unwrap();
        assert_eq!(recovered.jobs.len(), 1);
        assert_eq!(recovered.jobs[0].id, 2);
        assert!(!recovered.torn_tail);
        std::fs::remove_file(&path).ok();
    }
}
