//! `svtox-exec` — the in-tree parallel execution engine.
//!
//! A zero-external-dependency engine on `std::thread` that the optimizer
//! (`svtox-core`), the random-vector baseline (`svtox-sim`), the benchmark
//! suite (`svtox-bench`) and the CLI all share:
//!
//! * [`map_tasks`] — a scoped worker pool over a shared work queue
//!   (per-worker chunk deques + condvar, with stealing). Results come back
//!   in task order, so reductions are deterministic regardless of thread
//!   count or scheduling.
//! * [`Budget`] / [`CancelToken`] — wall-clock budgets with cooperative
//!   cancellation; the first worker to hit the deadline flips a shared
//!   [`std::sync::atomic::AtomicBool`] and the rest stop on a flag test.
//! * [`SharedMinF64`] — the incumbent bound of a parallel branch and
//!   bound, `f64` bits in an `AtomicU64`, so workers prune against each
//!   other's best solution as soon as it is found.
//! * [`SearchStats`] / [`WorkerStats`] — per-worker instrumentation
//!   (nodes expanded, prunes by bound type, steals, idle time).
//! * [`rng`] — seeded `SplitMix64` / `xoshiro256++` generators with
//!   deterministic per-stream seed derivation for chunked sampling.
//!
//! Failures are typed: a panicking task surfaces as
//! [`ExecError::WorkerPanic`] after the pool cancels the shared budget and
//! drains the surviving workers, instead of aborting the process from the
//! coordinator. Under a [`RetryPolicy`], [`run_pool`] instead *recovers*:
//! panicking tasks are retried on rebuilt worker state, dead workers are
//! respawned in supervisor rounds, and the [`PoolRun`] outcome keeps every
//! finished result alongside the typed failures. The pool consults an
//! [`svtox_fault::Fault`] registry at its dispatch/pop injection points,
//! so chaos harnesses can provoke those paths deterministically.
//! Observability rides along through an [`svtox_obs::Obs`] handle — spans,
//! pool counters, and per-worker events when enabled, a single branch per
//! call when not.
//!
//! # Example
//!
//! ```
//! use svtox_exec::{map_tasks, Budget, ExecConfig};
//! use svtox_obs::Obs;
//!
//! let config = ExecConfig::with_threads(4);
//! let (squares, stats) = map_tasks(
//!     &config,
//!     32,
//!     &Budget::unlimited(),
//!     Obs::disabled_ref(),
//!     |_worker| (),
//!     |(), i, _stats| Some((i as i64 - 20).pow(2)),
//! )
//! .unwrap();
//! // Results come back in task order, whatever the scheduling.
//! assert_eq!(squares[20], Some(0));
//! assert_eq!(stats.tasks_executed(), 32);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod error;
mod pool;
mod queue;
pub mod rng;
mod shared;
mod stats;

pub use budget::{Budget, CancelToken};
pub use error::ExecError;
pub use pool::{map_tasks, run_pool, ExecConfig, PoolRun, RetryPolicy, TaskFailure};
pub use queue::{Chunk, TaskQueue};
pub use shared::SharedMinF64;
pub use stats::{SearchStats, WorkerStats};
