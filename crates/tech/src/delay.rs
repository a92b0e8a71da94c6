//! The switching-delay kernel and slew/load lookup tables.
//!
//! The paper stores "delay and output slope as a function of cell input
//! slope and output loading ... in precharacterized tables". We mirror that:
//! [`DelayKernel`] is the analytic model (the SPICE substitute) used at
//! characterization time, and [`SlewLoadGrid`] is the table format with
//! bilinear interpolation consumed by the timing engine at analysis time.

use std::fmt;

use crate::units::{Capacitance, Resistance, Time};

/// The switching path of one timing arc: an effective drive resistance plus
/// the intrinsic parasitic capacitance at the cell output.
///
/// Produced by the cell topology code in `svtox-cells` (sum of ON resistances
/// along the worst series chain, drain parasitics at the output node).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriveStrength {
    /// Effective pull resistance of the arc's switching chain.
    pub resistance: Resistance,
    /// Intrinsic output parasitic switched together with the load.
    pub parasitic: Capacitance,
}

impl DriveStrength {
    /// Creates a drive-strength descriptor.
    #[must_use]
    pub fn new(resistance: Resistance, parasitic: Capacitance) -> Self {
        Self {
            resistance,
            parasitic,
        }
    }
}

impl fmt::Display for DriveStrength {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R={:.2} Cpar={:.2}", self.resistance, self.parasitic)
    }
}

/// Analytic RC switching model.
///
/// * propagation delay `d = ln2·R·(Cpar + Cload) + k_slew·t_in`
/// * output transition `t_out = k_out·R·(Cpar + Cload)`
///
/// `k_slew` captures the input-ramp pushout; `k_out` the 10–90 % transition
/// stretch of an RC response (≈ ln 9 ≈ 2.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayKernel {
    slew_sensitivity: f64,
    output_slew_factor: f64,
}

impl DelayKernel {
    /// Creates a kernel with custom coefficients.
    #[must_use]
    pub fn new(slew_sensitivity: f64, output_slew_factor: f64) -> Self {
        Self {
            slew_sensitivity,
            output_slew_factor,
        }
    }

    /// Propagation delay of an arc.
    #[must_use]
    pub fn delay(&self, drive: DriveStrength, load: Capacitance, input_slew: Time) -> Time {
        let rc = drive.resistance * (drive.parasitic + load);
        rc * std::f64::consts::LN_2 + input_slew * self.slew_sensitivity
    }

    /// Output transition time (slew) of an arc.
    #[must_use]
    pub fn output_slew(&self, drive: DriveStrength, load: Capacitance, input_slew: Time) -> Time {
        let rc = drive.resistance * (drive.parasitic + load);
        // A very slow input ramp also degrades the output edge a little.
        rc * self.output_slew_factor + input_slew * (self.slew_sensitivity * 0.25)
    }
}

impl Default for DelayKernel {
    /// The coefficients used for all library characterization in this
    /// workspace.
    fn default() -> Self {
        Self {
            slew_sensitivity: 0.2,
            output_slew_factor: 2.2,
        }
    }
}

/// A precharacterized (input-slew × output-load) table of delay and output
/// slew, with bilinear interpolation and linear edge extrapolation — the
/// in-memory analogue of an NLDM timing table.
///
/// # Example
///
/// ```
/// use svtox_tech::{Capacitance, DelayKernel, DriveStrength, Resistance, SlewLoadGrid, Time};
///
/// let drive = DriveStrength::new(Resistance::new(6.0), Capacitance::new(1.2));
/// let grid = SlewLoadGrid::characterize(&DelayKernel::default(), drive);
/// let (delay, slew) = grid.lookup(Time::new(30.0), Capacitance::new(5.0));
/// assert!(delay > Time::ZERO && slew > Time::ZERO);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SlewLoadGrid {
    slews: Vec<Time>,
    loads: Vec<Capacitance>,
    /// Row-major `[slew][load]` `(delay, output slew)` points, so one
    /// interpolation reads both values from the same four cache lines.
    points: Vec<[f64; 2]>,
}

impl SlewLoadGrid {
    /// Default input-slew axis used by library characterization (ps).
    pub const DEFAULT_SLEWS: [f64; 5] = [5.0, 20.0, 50.0, 100.0, 200.0];
    /// Default output-load axis used by library characterization (fF).
    pub const DEFAULT_LOADS: [f64; 6] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0];

    /// Characterizes a table over the default axes for one arc.
    #[must_use]
    pub fn characterize(kernel: &DelayKernel, drive: DriveStrength) -> Self {
        Self::characterize_over(
            kernel,
            drive,
            Self::DEFAULT_SLEWS.iter().copied().map(Time::new),
            Self::DEFAULT_LOADS.iter().copied().map(Capacitance::new),
        )
    }

    /// Characterizes a table over caller-provided axes.
    ///
    /// # Panics
    ///
    /// Panics if either axis has fewer than two points or is not strictly
    /// increasing.
    #[must_use]
    pub fn characterize_over<S, L>(
        kernel: &DelayKernel,
        drive: DriveStrength,
        slews: S,
        loads: L,
    ) -> Self
    where
        S: IntoIterator<Item = Time>,
        L: IntoIterator<Item = Capacitance>,
    {
        let slews: Vec<Time> = slews.into_iter().collect();
        let loads: Vec<Capacitance> = loads.into_iter().collect();
        assert!(slews.len() >= 2, "need at least two slew points");
        assert!(loads.len() >= 2, "need at least two load points");
        assert!(
            slews.windows(2).all(|w| w[0] < w[1]),
            "slew axis must be strictly increasing"
        );
        assert!(
            loads.windows(2).all(|w| w[0] < w[1]),
            "load axis must be strictly increasing"
        );
        let mut points = Vec::with_capacity(slews.len() * loads.len());
        for &s in &slews {
            for &l in &loads {
                points.push([
                    kernel.delay(drive, l, s).value(),
                    kernel.output_slew(drive, l, s).value(),
                ]);
            }
        }
        Self {
            slews,
            loads,
            points,
        }
    }

    /// Looks up `(delay, output slew)` with bilinear interpolation.
    ///
    /// Queries outside the characterized axes are linearly extrapolated from
    /// the nearest table segment (standard NLDM behavior).
    #[must_use]
    pub fn lookup(&self, input_slew: Time, load: Capacitance) -> (Time, Time) {
        self.lookup_at(self.slew_segment(input_slew), self.load_segment(load))
    }

    /// Locates an input slew on the slew axis.
    #[inline]
    #[must_use]
    pub fn slew_segment(&self, input_slew: Time) -> AxisSegment {
        segment(&self.slews, input_slew.value(), Time::value)
    }

    /// Locates an output load on the load axis.
    #[inline]
    #[must_use]
    pub fn load_segment(&self, load: Capacitance) -> AxisSegment {
        segment(&self.loads, load.value(), Capacitance::value)
    }

    /// Interpolates `(delay, output slew)` at located axis positions —
    /// [`SlewLoadGrid::lookup`] without the axis scans, so one located
    /// query can be shared by every table over the same axes.
    ///
    /// The segments must be located on a grid over the same axes; others
    /// give meaningless results or panic on an out-of-range index.
    #[inline]
    #[must_use]
    pub fn lookup_at(&self, slew: AxisSegment, load: AxisSegment) -> (Time, Time) {
        let (sf, lf) = (slew.frac, load.frac);
        let ncols = self.loads.len();
        let row = slew.index as usize * ncols + load.index as usize;
        let lo = &self.points[row..row + 2];
        let hi = &self.points[row + ncols..row + ncols + 2];
        let at = |k: usize| -> f64 {
            let (v00, v01, v10, v11) = (lo[0][k], lo[1][k], hi[0][k], hi[1][k]);
            let v0 = v00 + (v01 - v00) * lf;
            let v1 = v10 + (v11 - v10) * lf;
            v0 + (v1 - v0) * sf
        };
        (Time::new(at(0)), Time::new(at(1)))
    }

    /// Whether two grids share both axes, so segments located on one
    /// address the other.
    #[must_use]
    pub fn same_axes(&self, other: &Self) -> bool {
        self.slews == other.slews && self.loads == other.loads
    }

    /// The slew axis.
    #[must_use]
    pub fn slews(&self) -> &[Time] {
        &self.slews
    }

    /// The load axis.
    #[must_use]
    pub fn loads(&self) -> &[Capacitance] {
        &self.loads
    }
}

/// A query's position on one table axis: the interpolation segment and the
/// fractional position within it (outside `[0, 1]` when extrapolating).
///
/// Packed to 12 bytes: timing engines cache one per stored slew and load.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C, packed(4))]
pub struct AxisSegment {
    frac: f64,
    index: u32,
}

impl AxisSegment {
    /// The position's bits: equal bits are the same position, so every
    /// lookup at two bit-equal positions returns the same bits.
    #[inline]
    #[must_use]
    pub fn to_bits(self) -> (u64, u32) {
        let Self { frac, index } = self;
        (frac.to_bits(), index)
    }
}

/// Finds the interpolation segment of `x` on `axis`.
#[inline]
fn segment<T: Copy>(axis: &[T], x: f64, value: fn(T) -> f64) -> AxisSegment {
    let n = axis.len();
    let mut i = n - 2;
    for k in 0..n - 1 {
        if x <= value(axis[k + 1]) {
            i = k;
            break;
        }
    }
    let lo = value(axis[i]);
    let hi = value(axis[i + 1]);
    AxisSegment {
        frac: (x - lo) / (hi - lo),
        index: i as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive() -> DriveStrength {
        DriveStrength::new(Resistance::new(6.0), Capacitance::new(1.2))
    }

    #[test]
    fn kernel_monotone_in_load_and_slew() {
        let k = DelayKernel::default();
        let d = drive();
        let d1 = k.delay(d, Capacitance::new(2.0), Time::new(20.0));
        let d2 = k.delay(d, Capacitance::new(8.0), Time::new(20.0));
        let d3 = k.delay(d, Capacitance::new(2.0), Time::new(100.0));
        assert!(d2 > d1);
        assert!(d3 > d1);
        assert!(
            k.output_slew(d, Capacitance::new(8.0), Time::ZERO)
                > k.output_slew(d, Capacitance::new(2.0), Time::ZERO)
        );
    }

    #[test]
    fn grid_matches_kernel_at_grid_points() {
        let k = DelayKernel::default();
        let g = SlewLoadGrid::characterize(&k, drive());
        for &s in g.slews() {
            for &l in g.loads() {
                let (gd, gs) = g.lookup(s, l);
                assert!((gd.value() - k.delay(drive(), l, s).value()).abs() < 1e-9);
                assert!((gs.value() - k.output_slew(drive(), l, s).value()).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn grid_interpolates_between_points() {
        let k = DelayKernel::default();
        let g = SlewLoadGrid::characterize(&k, drive());
        let s = Time::new(35.0);
        let l = Capacitance::new(6.0);
        let (gd, _) = g.lookup(s, l);
        // Our kernel is affine in load and slew, so bilinear interpolation is
        // exact even off-grid.
        assert!((gd.value() - k.delay(drive(), l, s).value()).abs() < 1e-9);
    }

    #[test]
    fn grid_extrapolates_beyond_axes() {
        let k = DelayKernel::default();
        let g = SlewLoadGrid::characterize(&k, drive());
        let s = Time::new(400.0);
        let l = Capacitance::new(64.0);
        let (gd, gs) = g.lookup(s, l);
        assert!((gd.value() - k.delay(drive(), l, s).value()).abs() < 1e-9);
        assert!(gs > Time::ZERO);
    }

    #[test]
    fn located_lookups_equal_plain_lookups_bit_for_bit() {
        let g = SlewLoadGrid::characterize(&DelayKernel::default(), drive());
        // On-axis, interior, and extrapolated on either side of both axes.
        let slews = [1.0, 5.0, 12.5, 50.0, 137.0, 200.0, 450.0];
        let loads = [0.25, 1.0, 3.3, 8.0, 20.0, 32.0, 71.0];
        for &s in &slews {
            for &l in &loads {
                let (s, l) = (Time::new(s), Capacitance::new(l));
                let (d, o) = g.lookup(s, l);
                let (d_at, o_at) = g.lookup_at(g.slew_segment(s), g.load_segment(l));
                assert_eq!(
                    d.value().to_bits(),
                    d_at.value().to_bits(),
                    "delay at {s}, {l}"
                );
                assert_eq!(
                    o.value().to_bits(),
                    o_at.value().to_bits(),
                    "slew at {s}, {l}"
                );
            }
        }
    }

    #[test]
    fn a_located_position_is_compact() {
        assert_eq!(std::mem::size_of::<AxisSegment>(), 12);
    }

    #[test]
    fn same_axes_compares_both_axes() {
        let k = DelayKernel::default();
        let a = SlewLoadGrid::characterize(&k, drive());
        let b = SlewLoadGrid::characterize(
            &k,
            DriveStrength::new(Resistance::new(9.0), Capacitance::new(0.4)),
        );
        assert!(a.same_axes(&b));
        let c = SlewLoadGrid::characterize_over(
            &k,
            drive(),
            a.slews().iter().copied(),
            [Capacitance::new(1.0), Capacitance::new(3.0)],
        );
        assert!(!a.same_axes(&c));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_axis() {
        let k = DelayKernel::default();
        let _ = SlewLoadGrid::characterize_over(
            &k,
            drive(),
            [Time::new(10.0), Time::new(5.0)],
            [Capacitance::new(1.0), Capacitance::new(2.0)],
        );
    }

    #[test]
    fn stronger_drive_is_faster() {
        let k = DelayKernel::default();
        let weak = DriveStrength::new(Resistance::new(12.0), Capacitance::new(1.2));
        let strong = DriveStrength::new(Resistance::new(6.0), Capacitance::new(1.2));
        let l = Capacitance::new(4.0);
        let s = Time::new(20.0);
        assert!(k.delay(strong, l, s) < k.delay(weak, l, s));
    }
}
