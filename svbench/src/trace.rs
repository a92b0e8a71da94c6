//! In-memory span and count recorder for the traced run.
//!
//! Spans are opened by the benchmark's own code around each call into a
//! layer of the program (name, start, end, parent span, job id) and kept
//! in memory; [`Tracer::write_jsonl`] writes them out once the run ends,
//! followed by the per-layer self-time table. A disabled tracer costs one
//! branch per span.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    job: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Per-name totals of the self-time table.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfTime {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    recording: Cell<bool>,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    counts: RefCell<BTreeMap<String, u64>>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'t> {
    tracer: Option<&'t Tracer>,
    index: usize,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(t) = self.tracer {
            let now = t.now_ns();
            t.spans.borrow_mut()[self.index].end_ns = now;
            t.open.borrow_mut().pop();
        }
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            recording: Cell::new(enabled),
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            counts: RefCell::new(BTreeMap::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Pauses or resumes recording (only meaningful when enabled): the
    /// traced run alternates recorded and unrecorded rounds to measure
    /// the tracer's own overhead.
    pub fn set_recording(&self, on: bool) {
        self.recording.set(self.enabled && on);
    }

    /// Whether spans are being recorded right now.
    pub fn recording(&self) -> bool {
        self.recording.get()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; it closes when the guard drops.
    pub fn span(&self, name: &'static str, job: u64) -> SpanGuard<'_> {
        if !self.recording.get() {
            return SpanGuard {
                tracer: None,
                index: 0,
            };
        }
        let parent = self.open.borrow().last().copied();
        let start_ns = self.now_ns();
        let mut spans = self.spans.borrow_mut();
        let index = spans.len();
        spans.push(Span {
            name,
            job,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.borrow_mut().push(index);
        SpanGuard {
            tracer: Some(self),
            index,
        }
    }

    /// Adds to a named count recorded at a layer boundary.
    pub fn count(&self, name: &str, delta: u64) {
        if self.recording.get() {
            *self
                .counts
                .borrow_mut()
                .entry(name.to_string())
                .or_default() += delta;
        }
    }

    /// Durations in milliseconds of every closed span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Self time per span name: each span's duration minus the part its
    /// direct children cover (children never overlap: one thread).
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut table: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, child) in spans.iter().zip(child_ns) {
            let row = table.entry(s.name).or_default();
            let total = s.end_ns - s.start_ns;
            row.calls += 1;
            row.total_ns += total;
            row.self_ns += total.saturating_sub(child);
        }
        table
    }

    /// Writes every span, every count and the self-time table as JSONL.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"type\":\"span\",\"workload\":\"{workload}\",\"id\":{i},\"name\":\"{}\",\"job\":{},\"parent\":{parent},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.name,
                s.job,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3
            );
        }
        for (name, value) in self.counts.borrow().iter() {
            let _ = writeln!(
                out,
                "{{\"type\":\"count\",\"workload\":\"{workload}\",\"name\":\"{name}\",\"value\":{value}}}"
            );
        }
        for (name, row) in self.self_times() {
            let _ = writeln!(
                out,
                "{{\"type\":\"self_time\",\"workload\":\"{workload}\",\"name\":\"{name}\",\"calls\":{},\"total_ms\":{:.3},\"self_ms\":{:.3}}}",
                row.calls,
                row.total_ns as f64 / 1e6,
                row.self_ns as f64 / 1e6
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        {
            let _outer = t.span("outer", 1);
            let _inner = t.span("inner", 1);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let table = t.self_times();
        let outer = table["outer"];
        let inner = table["inner"];
        assert_eq!(outer.calls, 1);
        assert!(inner.self_ns >= 2_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
    }

    #[test]
    fn disabled_records_nothing() {
        let t = Tracer::new(false);
        drop(t.span("x", 0));
        t.count("c", 1);
        assert!(t.self_times().is_empty());
        assert!(t.counts.borrow().is_empty());
    }
}
