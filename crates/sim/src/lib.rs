//! Logic simulation for standby-state analysis.
//!
//! Three engines, all built on the `svtox-netlist` IR:
//!
//! * [`Simulator`] — two-valued, event-driven. Gives every gate's input
//!   state for a candidate standby vector; single-input flips re-evaluate
//!   only the affected fanout cone (the state-tree search flips one primary
//!   input per tree edge).
//! * [`TriSimulator`] — three-valued (`0`/`1`/`X`), also event-driven. With
//!   only part of the standby vector decided, each gate's reachable input
//!   states form a small set ([`TriSimulator::possible_states`]); the
//!   optimizer turns those into leakage bounds for pruning and ordering the
//!   state tree, re-bounding only the gates fed by
//!   [`TriSimulator::changed_nets`].
//! * [`PackedSimulator`] / [`PackedTriSimulator`] — bit-parallel word-level
//!   engines: one `u64` plane per net packs 64 vectors per lane
//!   ([`packed`] module docs spell out the lane order, tail masking and
//!   dual-plane X encoding). These drive the leakage hot paths.
//! * [`random_average_leakage`] — the paper's baseline: average total
//!   leakage of the all-fast netlist over N random vectors (Table 3/4's
//!   "Average leakage by random (10K) vectors" column), evaluated 64
//!   vectors per DAG sweep;
//! * [`expected_leakage`] — the analytic counterpart: signal-probability
//!   propagation instead of Monte Carlo (exact on trees, within a few
//!   percent on the suite, orders of magnitude faster).
//!
//! # Example
//!
//! ```
//! use svtox_netlist::generators::benchmark;
//! use svtox_sim::Simulator;
//!
//! # fn main() -> Result<(), svtox_netlist::NetlistError> {
//! let c432 = benchmark("c432")?;
//! let mut sim = Simulator::new(&c432);
//! sim.set_inputs(&vec![true; c432.num_inputs()]);
//! let state = sim.gate_state(c432.topo_order()[0]);
//! assert_eq!(state.arity(), c432.gate(c432.topo_order()[0]).inputs().len());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod logic;
pub mod packed;
mod probability;
mod random;
mod tri;
mod two;

pub use logic::Logic;
pub use packed::{PackedSimulator, PackedTriSimulator, PackedTriVec, PackedVec, LANES};
pub use probability::{expected_leakage, signal_probabilities};
pub use random::{
    random_average_leakage, random_average_leakage_parallel, vector_leakage, vector_leakage_batch,
    LeakageTotals, CHUNK_SIZE,
};
#[cfg(feature = "scalar-ref")]
pub use random::{random_average_leakage_scalar, random_average_leakage_scalar_parallel};
pub use tri::TriSimulator;
pub use two::Simulator;
