//! Anytime checkpointing: JSONL persistence of the search frontier.
//!
//! One run writes one file, at the path its caller names. The first line
//! is a `meta` record: the problem identity, the plan's member slugs in
//! declaration order, and the Heuristic 1 seed solution (`null` for an
//! unseeded plan). Every later line is a `task` record for one unit a
//! member explored to exhaustion, tagged by the member's slug and the
//! unit index. A resumed run replays the recorded units and recomputes
//! only the rest, which makes resume-after-kill bit-identical to the
//! uninterrupted run (see `tests/checkpoint_resume`). The unit space does
//! not depend on the thread count, so a file resumes at any thread count.
//!
//! Robustness rules:
//!
//! * floats are serialized as `f64` **bit patterns** (hex), because the
//!   JSON layer parses numbers as `f64` through decimal text and the
//!   round-trip invariant is exact equality;
//! * a task line is appended only after its unit was *exhaustively*
//!   explored (never for a budget-interrupted unit), and the file is
//!   flushed per line, so killing the process at any point leaves at
//!   worst one truncated trailing line;
//! * the loader stops at the first malformed line — a truncated tail
//!   costs recomputing one unit, never an error;
//! * resuming against a different problem or plan, or from a file of an
//!   older format (no member slugs), is a typed [`OptError::Checkpoint`]
//!   error.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

use svtox_fault::{Fault, Site};
use svtox_obs::json::{self, Value};
use svtox_tech::{Current, Time};

use crate::error::OptError;
use crate::problem::Mode;
use crate::solution::Solution;

/// Where to checkpoint, and whether to resume from existing content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointSpec {
    /// The JSONL checkpoint file.
    pub path: PathBuf,
    /// Replay recorded tasks before computing fresh ones. Without this
    /// the file is truncated and written fresh.
    pub resume: bool,
}

impl CheckpointSpec {
    /// A fresh checkpoint: truncate `path` and record as the run goes.
    #[must_use]
    pub fn fresh(path: impl Into<PathBuf>) -> Self {
        Self {
            path: path.into(),
            resume: false,
        }
    }

    /// Resume from `path` (fresh if it does not exist), recording newly
    /// finished tasks into the same file.
    #[must_use]
    pub fn resume(path: impl Into<PathBuf>) -> Self {
        Self {
            path: path.into(),
            resume: true,
        }
    }
}

/// The format version written into (and demanded from) the `meta` line.
const VERSION: usize = 2;

/// The problem identity, plan and seed recorded in the `meta` line.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CheckpointMeta {
    pub circuit: String,
    pub inputs: usize,
    pub gates: usize,
    pub penalty_bits: u64,
    pub mode: Mode,
    /// The plan's member slugs, in declaration order.
    pub members: Vec<String>,
    pub seed: Option<Solution>,
}

impl CheckpointMeta {
    /// Rejects a file recorded for another problem or plan than
    /// `expected` (whose seed is not compared: resume reuses the file's).
    pub(crate) fn check(&self, expected: &CheckpointMeta, path: &Path) -> Result<(), OptError> {
        let at = path.display();
        let mismatch = |what: &str, recorded: String, wanted: String| {
            Err(OptError::Checkpoint(format!(
                "{at}: recorded {what} {recorded} does not match {wanted}"
            )))
        };
        if self.circuit != expected.circuit {
            return mismatch("circuit", self.circuit.clone(), expected.circuit.clone());
        }
        if (self.inputs, self.gates) != (expected.inputs, expected.gates) {
            return mismatch(
                "size",
                format!("{}x{}", self.inputs, self.gates),
                format!("{}x{}", expected.inputs, expected.gates),
            );
        }
        if self.penalty_bits != expected.penalty_bits {
            return mismatch(
                "delay penalty",
                f64::from_bits(self.penalty_bits).to_string(),
                f64::from_bits(expected.penalty_bits).to_string(),
            );
        }
        if self.mode != expected.mode {
            return mismatch(
                "mode",
                mode_name(self.mode).to_string(),
                mode_name(expected.mode).to_string(),
            );
        }
        if self.members != expected.members {
            return mismatch(
                "members",
                format!("{:?}", self.members),
                format!("the plan's {:?}", expected.members),
            );
        }
        Ok(())
    }
}

/// One exhaustively explored unit.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TaskRecord {
    pub leaves: u64,
    pub solution: Option<Solution>,
}

/// A parsed checkpoint file.
#[derive(Debug)]
pub(crate) struct LoadedCheckpoint {
    pub meta: CheckpointMeta,
    /// Keyed by (member position in `meta.members`, unit index).
    pub tasks: BTreeMap<(usize, usize), TaskRecord>,
}

pub(crate) fn mode_name(mode: Mode) -> &'static str {
    match mode {
        Mode::Proposed => "proposed",
        Mode::StateAndVt => "state-vt",
        Mode::StateOnly => "state-only",
    }
}

fn bits_hex(value: f64) -> String {
    format!("{:016x}", value.to_bits())
}

fn parse_bits(v: Option<&Value>) -> Option<f64> {
    let hex = v?.as_str()?;
    u64::from_str_radix(hex, 16).ok().map(f64::from_bits)
}

fn parse_usize(v: Option<&Value>) -> Option<usize> {
    let f = v?.as_f64()?;
    if f.fract() == 0.0 && f >= 0.0 {
        Some(f as usize)
    } else {
        None
    }
}

fn solution_to_json(sol: &Solution) -> String {
    let mut vector = String::with_capacity(sol.vector.len());
    for &b in &sol.vector {
        vector.push(if b { '1' } else { '0' });
    }
    let mut choices = String::new();
    for (i, &c) in sol.choices.iter().enumerate() {
        if i > 0 {
            choices.push(',');
        }
        let _ = write!(choices, "{c}");
    }
    format!(
        "{{\"vector\":\"{vector}\",\"choices\":[{choices}],\"leakage\":\"{}\",\"delay\":\"{}\",\"leaves\":{}}}",
        bits_hex(sol.leakage.value()),
        bits_hex(sol.delay.value()),
        sol.leaves_explored,
    )
}

fn solution_from_json(v: &Value) -> Option<Solution> {
    let vector: Vec<bool> = v
        .get("vector")?
        .as_str()?
        .chars()
        .map(|c| c == '1')
        .collect();
    let choices: Option<Vec<u8>> = match v.get("choices")? {
        Value::Arr(items) => items
            .iter()
            .map(|item| {
                let f = item.as_f64()?;
                u8::try_from(f as i64).ok()
            })
            .collect(),
        _ => None,
    };
    Some(Solution {
        vector,
        choices: choices?,
        leakage: Current::new(parse_bits(v.get("leakage"))?),
        delay: Time::new(parse_bits(v.get("delay"))?),
        runtime: Duration::ZERO,
        leaves_explored: parse_usize(v.get("leaves"))?,
    })
}

fn meta_from_json(v: &Value) -> Option<CheckpointMeta> {
    let mode = match v.get("mode")?.as_str()? {
        "proposed" => Mode::Proposed,
        "state-vt" => Mode::StateAndVt,
        "state-only" => Mode::StateOnly,
        _ => return None,
    };
    let members = match v.get("members")? {
        Value::Arr(items) => items
            .iter()
            .map(|item| item.as_str().map(ToString::to_string))
            .collect::<Option<Vec<_>>>()?,
        _ => return None,
    };
    let seed = match v.get("seed")? {
        Value::Null => None,
        sol => Some(solution_from_json(sol)?),
    };
    Some(CheckpointMeta {
        circuit: v.get("circuit")?.as_str()?.to_string(),
        inputs: parse_usize(v.get("inputs"))?,
        gates: parse_usize(v.get("gates"))?,
        penalty_bits: u64::from_str_radix(v.get("penalty")?.as_str()?, 16).ok()?,
        mode,
        members,
        seed,
    })
}

/// Loads a checkpoint file. `Ok(None)` when the file does not exist.
///
/// # Errors
///
/// [`OptError::Checkpoint`] when the file exists but its `meta` line is
/// unreadable — everything after the meta degrades gracefully instead
/// (a malformed or truncated task line stops the replay there).
pub(crate) fn load(path: &Path) -> Result<Option<LoadedCheckpoint>, OptError> {
    let file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => {
            return Err(OptError::Checkpoint(format!(
                "cannot open {}: {e}",
                path.display()
            )))
        }
    };
    let mut lines = BufReader::new(file).lines();
    let meta_line = match lines.next() {
        Some(Ok(line)) => line,
        _ => {
            return Err(OptError::Checkpoint(format!(
                "{}: missing meta line",
                path.display()
            )))
        }
    };
    let unreadable = || OptError::Checkpoint(format!("{}: unreadable meta line", path.display()));
    let meta_value = json::parse(&meta_line)
        .ok()
        .filter(|v| v.get("type").and_then(Value::as_str) == Some("meta"))
        .ok_or_else(unreadable)?;
    if parse_usize(meta_value.get("version")) != Some(VERSION) {
        return Err(OptError::Checkpoint(format!(
            "{}: an older checkpoint format without member slugs; \
             start a fresh run instead of resuming it",
            path.display()
        )));
    }
    let meta = meta_from_json(&meta_value).ok_or_else(unreadable)?;
    let mut tasks = BTreeMap::new();
    for line in lines {
        let Ok(line) = line else { break };
        let Ok(v) = json::parse(&line) else { break };
        if v.get("type").and_then(Value::as_str) != Some("task") {
            break;
        }
        let member = v
            .get("member")
            .and_then(Value::as_str)
            .and_then(|slug| meta.members.iter().position(|m| m == slug));
        let (Some(member), Some(unit), Some(leaves)) = (
            member,
            parse_usize(v.get("unit")),
            parse_usize(v.get("leaves")),
        ) else {
            break;
        };
        let solution = match v.get("solution") {
            Some(Value::Null) | None => None,
            Some(sol) => match solution_from_json(sol) {
                Some(s) => Some(s),
                None => break,
            },
        };
        tasks.insert(
            (member, unit),
            TaskRecord {
                leaves: leaves as u64,
                solution,
            },
        );
    }
    Ok(Some(LoadedCheckpoint { meta, tasks }))
}

/// Appends task lines as subtrees finish, flushing per line.
///
/// Writes route through the injected [`Fault`] handle's `io.write` site,
/// so chaos plans can fail checkpoint persistence deterministically: a
/// failed meta write is a typed [`OptError::Checkpoint`], a failed task
/// line is a warning (the search continues, the subtree is recomputed on
/// resume).
pub(crate) struct CheckpointWriter {
    file: Mutex<File>,
    path: PathBuf,
    fault: Fault,
}

impl CheckpointWriter {
    /// Truncates `path` and writes the meta line.
    pub(crate) fn create(
        path: &Path,
        meta: &CheckpointMeta,
        fault: &Fault,
    ) -> Result<Self, OptError> {
        fault
            .check_io(
                Site::FileWrite,
                &format!("checkpoint meta {}", path.display()),
            )
            .map_err(|e| OptError::Checkpoint(e.to_string()))?;
        let mut file = File::create(path)
            .map_err(|e| OptError::Checkpoint(format!("cannot create {}: {e}", path.display())))?;
        let mut escaped = String::new();
        json::escape_into(&mut escaped, &meta.circuit);
        let members: Vec<String> = meta.members.iter().map(|m| format!("\"{m}\"")).collect();
        let seed = meta
            .seed
            .as_ref()
            .map_or_else(|| "null".to_string(), solution_to_json);
        let line = format!(
            "{{\"type\":\"meta\",\"version\":{VERSION},\"circuit\":{escaped},\"inputs\":{},\"gates\":{},\"penalty\":\"{:016x}\",\"mode\":\"{}\",\"members\":[{}],\"seed\":{seed}}}\n",
            meta.inputs,
            meta.gates,
            meta.penalty_bits,
            mode_name(meta.mode),
            members.join(","),
        );
        file.write_all(line.as_bytes())
            .and_then(|()| file.flush())
            .map_err(|e| OptError::Checkpoint(format!("cannot write {}: {e}", path.display())))?;
        Ok(Self {
            file: Mutex::new(file),
            path: path.to_path_buf(),
            fault: fault.clone(),
        })
    }

    /// Opens `path` for appending (the resume case: meta already there).
    pub(crate) fn append(path: &Path, fault: &Fault) -> Result<Self, OptError> {
        let file = OpenOptions::new().append(true).open(path).map_err(|e| {
            OptError::Checkpoint(format!("cannot append to {}: {e}", path.display()))
        })?;
        Ok(Self {
            file: Mutex::new(file),
            path: path.to_path_buf(),
            fault: fault.clone(),
        })
    }

    /// Records one exhaustively explored unit of the member `slug`.
    /// Write failures (real or injected at `io.write`) are reported to
    /// stderr once per call but never fail the search — the checkpoint is
    /// an aid, not a dependency.
    pub(crate) fn record_task(
        &self,
        slug: &str,
        unit: usize,
        leaves: u64,
        solution: Option<&Solution>,
    ) {
        let sol = solution.map_or_else(|| "null".to_string(), solution_to_json);
        let line = format!(
            "{{\"type\":\"task\",\"member\":\"{slug}\",\"unit\":{unit},\"leaves\":{leaves},\"solution\":{sol}}}\n"
        );
        let mut file = self.file.lock().expect("checkpoint lock is never poisoned");
        let written = self
            .fault
            .check_io(Site::FileWrite, "checkpoint task line")
            .and_then(|()| file.write_all(line.as_bytes()))
            .and_then(|()| file.flush());
        if let Err(e) = written {
            eprintln!(
                "warning: checkpoint write to {} failed: {e}",
                self.path.display()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_solution() -> Solution {
        Solution {
            vector: vec![true, false, true],
            choices: vec![0, 3, 1, 2],
            leakage: Current::new(123.456_789_012_345),
            delay: Time::new(0.1 + 0.2), // deliberately not exactly 0.3
            runtime: Duration::from_millis(5),
            leaves_explored: 17,
        }
    }

    fn sample_meta() -> CheckpointMeta {
        CheckpointMeta {
            circuit: "unit \"quoted\"".to_string(),
            inputs: 3,
            gates: 4,
            penalty_bits: 0.05f64.to_bits(),
            mode: Mode::Proposed,
            members: vec!["h2-influence".to_string(), "restarts".to_string()],
            seed: Some(sample_solution()),
        }
    }

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("svtox-ckpt-{tag}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn solution_floats_round_trip_bit_exactly() {
        let sol = sample_solution();
        let text = solution_to_json(&sol);
        let parsed = solution_from_json(&json::parse(&text).expect("valid json"))
            .expect("well-formed solution");
        assert_eq!(parsed.vector, sol.vector);
        assert_eq!(parsed.choices, sol.choices);
        assert_eq!(
            parsed.leakage.value().to_bits(),
            sol.leakage.value().to_bits()
        );
        assert_eq!(parsed.delay.value().to_bits(), sol.delay.value().to_bits());
        assert_eq!(parsed.leaves_explored, sol.leaves_explored);
    }

    #[test]
    fn write_then_load_round_trips_meta_and_tasks() {
        let path = temp_path("roundtrip");
        let meta = sample_meta();
        let writer = CheckpointWriter::create(&path, &meta, Fault::disabled_ref()).expect("create");
        writer.record_task("h2-influence", 0, 4, Some(&sample_solution()));
        writer.record_task("restarts", 2, 7, None);
        drop(writer);

        let cp = load(&path).expect("load").expect("file exists");
        assert_eq!(cp.meta.circuit, meta.circuit);
        assert_eq!(cp.meta.penalty_bits, meta.penalty_bits);
        assert_eq!(cp.meta.mode, Mode::Proposed);
        assert_eq!(cp.meta.members, meta.members);
        assert_eq!(
            cp.meta.seed.expect("seeded").choices,
            sample_solution().choices
        );
        assert_eq!(cp.tasks.len(), 2);
        assert_eq!(cp.tasks[&(0, 0)].leaves, 4);
        assert!(cp.tasks[&(0, 0)].solution.is_some());
        assert_eq!(cp.tasks[&(1, 2)].leaves, 7);
        assert!(cp.tasks[&(1, 2)].solution.is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unseeded_meta_round_trips_and_unknown_members_stop_the_replay() {
        let path = temp_path("unseeded");
        let meta = CheckpointMeta {
            seed: None,
            ..sample_meta()
        };
        let writer = CheckpointWriter::create(&path, &meta, Fault::disabled_ref()).expect("create");
        writer.record_task("restarts", 1, 3, None);
        writer.record_task("exact-natural", 0, 3, None);
        writer.record_task("restarts", 2, 3, None);
        drop(writer);
        let cp = load(&path).expect("load").expect("file exists");
        assert_eq!(cp.meta.seed, None);
        assert_eq!(
            cp.tasks.len(),
            1,
            "a foreign member slug is a malformed line"
        );
        assert!(cp.tasks.contains_key(&(1, 1)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn old_shape_files_are_a_typed_error() {
        let path = temp_path("old-shape");
        std::fs::write(
            &path,
            "{\"type\":\"meta\",\"version\":1,\"circuit\":\"c17\",\"inputs\":5,\"gates\":6,\
             \"penalty\":\"3fa999999999999a\",\"mode\":\"proposed\",\"k\":3,\"seed\":null}\n\
             {\"type\":\"task\",\"index\":0,\"leaves\":4,\"solution\":null}\n",
        )
        .expect("write");
        let err = load(&path).expect_err("a file without member slugs must not replay");
        assert!(matches!(err, OptError::Checkpoint(_)), "got {err:?}");
        assert!(err.to_string().contains("older checkpoint format"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_trailing_line_is_tolerated() {
        let path = temp_path("truncated");
        let writer =
            CheckpointWriter::create(&path, &sample_meta(), Fault::disabled_ref()).expect("create");
        writer.record_task("h2-influence", 0, 4, Some(&sample_solution()));
        drop(writer);
        // Simulate a mid-write kill: append half a task line.
        let mut file = OpenOptions::new().append(true).open(&path).expect("open");
        file.write_all(b"{\"type\":\"task\",\"index\":1,\"le")
            .expect("append");
        drop(file);

        let cp = load(&path).expect("load").expect("file exists");
        assert_eq!(cp.tasks.len(), 1, "the torn line is dropped");
        assert!(cp.tasks.contains_key(&(0, 0)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_a_fresh_start_and_bad_meta_is_typed() {
        assert!(load(Path::new("/nonexistent/svtox.ckpt"))
            .expect("missing is fine")
            .is_none());

        let path = temp_path("badmeta");
        std::fs::write(&path, "not json at all\n").expect("write");
        let err = load(&path).expect_err("meta must parse");
        assert!(matches!(err, OptError::Checkpoint(_)), "got {err:?}");
        assert!(err.to_string().contains("meta"));
        std::fs::remove_file(&path).ok();
    }
}
