//! Transistor-level standby cell library for the svtox workspace.
//!
//! This crate implements §4 of the paper ("Cell Library Construction") plus
//! the SPICE-substitute characterization beneath it:
//!
//! * [`CellTopology`] — the series/parallel transistor network of each
//!   primitive cell (INV, NAND2–4, NOR2–4) with realistic sizing;
//! * [`solve_leakage`] — a small DC operating-point solver that computes
//!   internal stack-node voltages by current-continuity relaxation and from
//!   them the per-state subthreshold and gate-tunneling leakage of a cell
//!   under any per-transistor `(Vt, Tox)` assignment (this is where the
//!   stack effect and the pin-position dependence of `Igate` come from);
//! * [`CellVersion`] — one physical variant of a cell: a per-transistor
//!   assignment plus a pin permutation (pin reordering, Fig. 2(d)/(e));
//! * version **generation** — the paper's systematic trade-off points per
//!   input state (minimum delay / Vt-only / Tox-only / minimum leakage),
//!   canonicalized by pin reordering and deduplicated across states
//!   (reproducing the Table 2 version counts);
//! * [`Library`] — the precharacterized tables the optimizer consumes:
//!   leakage per (version, state), delay/slew tables per (version, pin,
//!   transition), input caps; with the paper's library options (4 vs 2
//!   trade-off points, individual vs uniform-stack `Vt`).
//!
//! # Example
//!
//! ```
//! use svtox_cells::{InputState, Library, LibraryOptions};
//! use svtox_netlist::GateKind;
//! use svtox_tech::Technology;
//!
//! # fn main() -> Result<(), svtox_cells::LibraryError> {
//! let lib = Library::new(Technology::predictive_65nm(), LibraryOptions::default())?;
//! let nand2 = lib.cell(GateKind::Nand(2))?;
//! // The NAND2 needs 4 trade-off points for state 11 but its minimum-leakage
//! // version there still beats the fast version by nearly 10x.
//! let s11 = InputState::from_bits(0b11, 2);
//! let best = nand2.options_for(s11).first().expect("state has options");
//! assert!(best.leakage().value() * 8.0
//!     < nand2.leakage(nand2.fast_version(), s11).value());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod liberty;
mod library;
mod solver;
mod state;
mod topology;
mod version;

pub use error::LibraryError;
pub use liberty::{liberty_cell_name, parse_liberty_leakage, read_liberty_leakage, to_liberty};
pub use library::{
    ArcTables, CellData, Library, LibraryOptions, StateOption, TradeoffPoints, VersionId, MAX_ARITY,
};
pub use solver::{solve_leakage, LeakageBreakdown};
pub use state::InputState;
pub use topology::{CellTopology, NetworkKind, TransistorRole};
pub use version::{CellVersion, VtSitePolicy};
