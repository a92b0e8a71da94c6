//! Simultaneous standby-state, `Vt` and `Tox` assignment for total leakage
//! minimization — the core algorithm of the DATE 2004 paper.
//!
//! Given a primitive netlist, a characterized [`svtox_cells::Library`] and a
//! delay budget, the optimizer finds a standby input vector together with a
//! per-gate cell-version (and pin-ordering) assignment that minimizes total
//! standby leakage while the circuit still meets the budget:
//!
//! * [`Optimizer::heuristic1`] — one ordered descent of the state tree, with
//!   a greedy, leakage-sorted traversal of the gate tree at the leaf
//!   (the paper's Heuristic 1);
//! * [`Optimizer::run`] — Heuristic 1 plus a parallel, checkpointed
//!   branch-and-bound improvement pass over the state tree (Heuristic 2);
//! * [`Optimizer::exact`] — the full two-tree branch and bound (state tree ×
//!   gate tree) with leakage lower-bound pruning, feasible only for small
//!   circuits;
//! * [`Optimizer::run_portfolio`] — a [`Plan`] racing Heuristic 2 under
//!   several branch orders, exact and random restarts;
//! * [`Optimizer::rerun_after_edit`] — warm re-optimization after an ECO
//!   netlist edit.
//!
//! Every search is a plan over one engine: a bound-ordered descent of the
//! state tree split into fixed units, with a greedy or exact gate tree at
//! each leaf.
//! * baselines via [`Mode`]: state assignment only, and state+`Vt` (the
//!   DAC 2003 predecessor, the paper's ref.\[12\], without dual-`Tox`).
//!
//! Delay budgets follow the paper's normalization: a penalty of `p` allows
//! `D_fast + p·(D_slow − D_fast)` where `D_slow` is the delay of the
//! all-high-Vt, all-thick-oxide design (about 2× `D_fast`).
//!
//! # Example
//!
//! ```
//! use svtox_cells::{Library, LibraryOptions};
//! use svtox_core::{DelayPenalty, Mode, Problem};
//! use svtox_netlist::generators::benchmark;
//! use svtox_sim::random_average_leakage;
//! use svtox_sta::TimingConfig;
//! use svtox_tech::Technology;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let lib = Library::new(Technology::predictive_65nm(), LibraryOptions::default())?;
//! let c432 = benchmark("c432")?;
//! let problem = Problem::new(&c432, &lib, TimingConfig::default())?;
//! let sol = problem
//!     .optimizer(DelayPenalty::new(0.05)?, Mode::Proposed)
//!     .heuristic1()?;
//! let avg = random_average_leakage(&c432, &lib, 1000, 42)?.total;
//! // The paper reports 3.6x for c432 at a 5 % delay penalty.
//! assert!(avg.value() / sol.leakage.value() > 2.5);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod error;
mod gate_assign;
mod outcome;
mod problem;
mod solution;
mod state_search;

pub use checkpoint::CheckpointSpec;
pub use error::OptError;
pub use gate_assign::Cutoff;
pub use outcome::{DegradeReason, RunOutcome};
pub use problem::{DelayPenalty, GateOrder, Mode, Problem};
pub use solution::Solution;
pub use state_search::eco::{Convergence, EcoReport};
pub use state_search::portfolio::{
    self, BranchOrder, MemberReport, MemberStatus, Plan, PortfolioOutcome, ProvenanceEntry,
    Strategy,
};
pub use state_search::WarmStats;
pub use state_search::{BoundTracker, LeafKind, Optimizer};

// Re-exported so optimizer callers can configure the parallel searches,
// attach observability, and inject faults without depending on the
// engine crates directly.
pub use svtox_exec::{
    Budget, CancelToken, ExecConfig, ExecError, RetryPolicy, SearchStats, SharedMinF64,
};
pub use svtox_fault::Fault;
pub use svtox_obs::Obs;
