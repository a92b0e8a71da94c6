//! Analytic standby-leakage device models for the svtox workspace.
//!
//! This crate is the workspace's substitute for SPICE/BSIM4 characterization:
//! a compact analytic model of the two standby leakage mechanisms the paper
//! optimizes, plus the switching-delay kernel used to characterize cell
//! delay tables.
//!
//! * **Subthreshold leakage** ([`Device::isub`]) — flows through transistors
//!   that are OFF. Modeled with the classic exponential subthreshold equation
//!   including DIBL and the drain-saturation factor, so series stacks of OFF
//!   devices exhibit the stack effect once node voltages are solved (see the
//!   `svtox-cells` DC solver).
//! * **Gate tunneling leakage** ([`Device::igate`]) — flows through
//!   transistors that are ON with large `Vgs`/`Vgd` (channel tunneling), plus
//!   a much smaller reverse edge-direct-tunneling (EDT) component through the
//!   gate–drain overlap when OFF with negative `Vgd`.
//!
//! The default [`Technology`] is calibrated to the ratios the paper reports
//! for its predictive 65 nm process:
//!
//! * gate leakage ≈ 36 % of total leakage at the all-fast corner,
//! * thick-`Tox` reduces `Igate` by ~11×,
//! * high-`Vt` reduces `Isub` by ~17.8× (NMOS) / ~16.7× (PMOS),
//! * high-`Vt` costs ~1.36× delay, thick-`Tox` ~1.27×, both ~1.9×.
//!
//! # Example
//!
//! ```
//! use svtox_tech::{Technology, Device, MosType, VtClass, OxideClass, Voltage};
//!
//! let tech = Technology::predictive_65nm();
//! let fast = Device::new(MosType::Nmos, VtClass::Low, OxideClass::Thin, 1.0);
//! let slow = Device::new(MosType::Nmos, VtClass::High, OxideClass::Thin, 1.0);
//! let vdd = tech.vdd();
//! // A high-Vt device leaks ~17.8x less subthreshold current when OFF.
//! let ratio = fast.isub(&tech, Voltage::ZERO, vdd) / slow.isub(&tech, Voltage::ZERO, vdd);
//! assert!((ratio.abs() - 17.8).abs() < 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod delay;
mod device;
mod params;
mod units;

pub use delay::{AxisSegment, DelayKernel, DriveStrength, SlewLoadGrid};
pub use device::{Device, MosType, OxideClass, VtClass};
pub use params::{
    Technology, TechnologyBuilder, TechnologyError, REFERENCE_TEMPERATURE, THERMAL_VOLTAGE,
};
pub use units::{Capacitance, Current, Resistance, Time, Voltage};
