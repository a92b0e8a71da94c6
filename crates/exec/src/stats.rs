//! Execution instrumentation: per-worker counters and the aggregated
//! [`SearchStats`] report.

use std::fmt;
use std::time::Duration;

/// Counters one worker accumulates while executing tasks.
///
/// The pool owns the generic fields (`tasks_executed`, `steals`, `idle`,
/// `busy`); search-shaped tasks additionally update the branch-and-bound
/// counters through the `&mut WorkerStats` they receive.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Interior state-tree nodes expanded (input decisions applied).
    pub nodes_expanded: u64,
    /// Leaves fully evaluated (gate-tree runs).
    pub leaves_evaluated: u64,
    /// Subtrees pruned against the worker's own local incumbent.
    pub prunes_local: u64,
    /// Subtrees pruned against the shared (cross-worker) incumbent.
    pub prunes_shared: u64,
    /// Leaves abandoned because they could not beat the incumbents.
    pub leaf_cutoffs: u64,
    /// Times this worker improved the shared incumbent.
    pub incumbent_updates: u64,
    /// Tasks this worker executed.
    pub tasks_executed: u64,
    /// Tasks skipped because the budget expired before they started.
    pub tasks_skipped: u64,
    /// Tasks that panicked through their whole retry budget.
    pub tasks_failed: u64,
    /// Retry attempts consumed by caught task panics.
    pub retries: u64,
    /// Chunks stolen from another worker's deque.
    pub steals: u64,
    /// Time spent waiting for work.
    pub idle: Duration,
    /// Time spent executing tasks.
    pub busy: Duration,
}

impl WorkerStats {
    /// Adds another stats block into this one (the supervisor merges the
    /// rounds of a respawned worker slot into one figure).
    pub fn merge(&mut self, other: &WorkerStats) {
        self.nodes_expanded += other.nodes_expanded;
        self.leaves_evaluated += other.leaves_evaluated;
        self.prunes_local += other.prunes_local;
        self.prunes_shared += other.prunes_shared;
        self.leaf_cutoffs += other.leaf_cutoffs;
        self.incumbent_updates += other.incumbent_updates;
        self.tasks_executed += other.tasks_executed;
        self.tasks_skipped += other.tasks_skipped;
        self.tasks_failed += other.tasks_failed;
        self.retries += other.retries;
        self.steals += other.steals;
        self.idle += other.idle;
        self.busy += other.busy;
    }
}

/// The aggregated execution report of one parallel run.
#[derive(Debug, Clone, Default)]
pub struct SearchStats {
    /// Per-worker counters, indexed by worker id.
    pub workers: Vec<WorkerStats>,
    /// Wall-clock time of the whole run.
    pub wall: Duration,
    /// Total tasks submitted.
    pub tasks_total: usize,
    /// Whether every task ran to completion (no budget expiry, no task
    /// failure, no unrecovered worker loss).
    pub completed: bool,
    /// Worker respawns the supervisor performed.
    pub respawns: u32,
}

impl SearchStats {
    /// Number of workers that participated.
    #[must_use]
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Total state-tree nodes expanded.
    #[must_use]
    pub fn nodes_expanded(&self) -> u64 {
        self.workers.iter().map(|w| w.nodes_expanded).sum()
    }

    /// Total leaves evaluated.
    #[must_use]
    pub fn leaves_evaluated(&self) -> u64 {
        self.workers.iter().map(|w| w.leaves_evaluated).sum()
    }

    /// Total prunes against local incumbents.
    #[must_use]
    pub fn prunes_local(&self) -> u64 {
        self.workers.iter().map(|w| w.prunes_local).sum()
    }

    /// Total prunes against the shared incumbent.
    #[must_use]
    pub fn prunes_shared(&self) -> u64 {
        self.workers.iter().map(|w| w.prunes_shared).sum()
    }

    /// Total leaves abandoned against the incumbents.
    #[must_use]
    pub fn leaf_cutoffs(&self) -> u64 {
        self.workers.iter().map(|w| w.leaf_cutoffs).sum()
    }

    /// Total improvements of the shared incumbent.
    #[must_use]
    pub fn incumbent_updates(&self) -> u64 {
        self.workers.iter().map(|w| w.incumbent_updates).sum()
    }

    /// Total chunks stolen.
    #[must_use]
    pub fn steals(&self) -> u64 {
        self.workers.iter().map(|w| w.steals).sum()
    }

    /// Total tasks executed.
    #[must_use]
    pub fn tasks_executed(&self) -> u64 {
        self.workers.iter().map(|w| w.tasks_executed).sum()
    }

    /// Total tasks skipped on budget expiry.
    #[must_use]
    pub fn tasks_skipped(&self) -> u64 {
        self.workers.iter().map(|w| w.tasks_skipped).sum()
    }

    /// Total tasks that exhausted their retry budget.
    #[must_use]
    pub fn tasks_failed(&self) -> u64 {
        self.workers.iter().map(|w| w.tasks_failed).sum()
    }

    /// Total retry attempts consumed by caught task panics.
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.workers.iter().map(|w| w.retries).sum()
    }

    /// Fraction of total worker time spent idle (0 when nothing ran).
    #[must_use]
    pub fn idle_fraction(&self) -> f64 {
        let idle: Duration = self.workers.iter().map(|w| w.idle).sum();
        let busy: Duration = self.workers.iter().map(|w| w.busy).sum();
        let total = idle + busy;
        if total.is_zero() {
            0.0
        } else {
            idle.as_secs_f64() / total.as_secs_f64()
        }
    }

    /// Merges the counters of another run into this one (for reporting a
    /// pipeline of engine invocations as one figure).
    pub fn absorb(&mut self, other: &SearchStats) {
        if self.workers.len() < other.workers.len() {
            self.workers
                .resize(other.workers.len(), WorkerStats::default());
        }
        for (mine, theirs) in self.workers.iter_mut().zip(&other.workers) {
            mine.merge(theirs);
        }
        self.wall += other.wall;
        self.tasks_total += other.tasks_total;
        self.completed &= other.completed;
        self.respawns += other.respawns;
    }
}

impl fmt::Display for SearchStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} workers, {}/{} tasks{}: {} nodes expanded, {} leaves, \
             prunes {} local + {} shared, {} steals, {:.0}% idle",
            self.num_workers(),
            self.tasks_executed(),
            self.tasks_total,
            if self.completed {
                ""
            } else {
                " (budget expired)"
            },
            self.nodes_expanded(),
            self.leaves_evaluated(),
            self.prunes_local(),
            self.prunes_shared(),
            self.steals(),
            self.idle_fraction() * 100.0,
        )?;
        if self.retries() > 0 {
            write!(f, ", {} retries", self.retries())?;
        }
        if self.tasks_failed() > 0 {
            write!(f, ", {} failed", self.tasks_failed())?;
        }
        if self.respawns > 0 {
            write!(f, ", {} respawns", self.respawns)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_over_workers() {
        let stats = SearchStats {
            workers: vec![
                WorkerStats {
                    nodes_expanded: 3,
                    leaves_evaluated: 1,
                    prunes_local: 2,
                    steals: 1,
                    tasks_executed: 2,
                    ..Default::default()
                },
                WorkerStats {
                    nodes_expanded: 4,
                    prunes_shared: 5,
                    leaf_cutoffs: 6,
                    tasks_executed: 1,
                    ..Default::default()
                },
            ],
            wall: Duration::from_millis(10),
            tasks_total: 3,
            completed: true,
            respawns: 0,
        };
        assert_eq!(stats.nodes_expanded(), 7);
        assert_eq!(stats.leaves_evaluated(), 1);
        assert_eq!(stats.prunes_local(), 2);
        assert_eq!(stats.prunes_shared(), 5);
        assert_eq!(stats.leaf_cutoffs(), 6);
        assert_eq!(stats.steals(), 1);
        assert_eq!(stats.tasks_executed(), 3);
        let text = stats.to_string();
        assert!(text.contains("nodes expanded"));
        assert!(text.contains("steals"));
    }

    #[test]
    fn absorb_accumulates() {
        let mut a = SearchStats {
            workers: vec![WorkerStats {
                nodes_expanded: 1,
                ..Default::default()
            }],
            tasks_total: 1,
            completed: true,
            ..Default::default()
        };
        let b = SearchStats {
            workers: vec![
                WorkerStats {
                    nodes_expanded: 2,
                    ..Default::default()
                },
                WorkerStats {
                    steals: 1,
                    ..Default::default()
                },
            ],
            tasks_total: 2,
            completed: true,
            ..Default::default()
        };
        a.absorb(&b);
        assert_eq!(a.nodes_expanded(), 3);
        assert_eq!(a.steals(), 1);
        assert_eq!(a.tasks_total, 3);
        assert!(a.completed);
    }

    #[test]
    fn idle_fraction_handles_zero_time() {
        assert!((SearchStats::default().idle_fraction()).abs() < 1e-12);
    }
}
