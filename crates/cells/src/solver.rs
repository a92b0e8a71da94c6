//! The DC operating-point solver — this workspace's substitute for SPICE
//! leakage characterization.
//!
//! Given a cell topology, a per-transistor `(Vt, Tox)` assignment and an
//! input state, [`solve_leakage`] computes the internal node voltages of the
//! blocked transistor stack by a shooting method on current continuity
//! (an outer bisection on the stack current over an inner bisection per
//! node, devices modeled with subthreshold + triode/saturation
//! conduction), then evaluates per-device subthreshold and gate-tunneling
//! currents from those voltages.
//!
//! A series stack's node voltages depend only on which network it is, its
//! devices' `(Vt, Tox)` slice and the physical input state, and a cell's
//! versions share many slices. The library build therefore solves each
//! distinct stack once per cell through a `StackMemo` and evaluates the
//! currents of every (version, state) from the stored voltages; the public
//! [`solve_leakage`] takes the same path with an empty memo. The stack
//! solver's bisections stop at their fixed point (see `solve_stack`), which
//! returns the same bits as running every step.
//!
//! This is where the paper's physical arguments fall out of the model
//! instead of being hard-coded:
//!
//! * the **stack effect** — two OFF devices in series leak far less than
//!   one, because the intermediate node floats to a few tens of mV;
//! * **position-dependent gate leakage** — an ON device above a blocked
//!   device sees its source float to `Vdd − Vt`, collapsing its `Vgs`/`Vgd`
//!   and with them its tunneling current (the pin-reordering lever);
//! * **one high-Vt device suffices per stack** — the rail-adjacent device
//!   controls the stack current.

use std::collections::HashMap;

use svtox_netlist::GateKind;
use svtox_tech::{Current, Device, MosType, OxideClass, Technology, Voltage, VtClass};

use crate::state::InputState;
use crate::topology::{CellTopology, NetworkKind, TransistorRole};

/// Separated leakage components of one cell in one state.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LeakageBreakdown {
    /// Subthreshold current drawn from the supply through the blocked
    /// network.
    pub isub: Current,
    /// Total gate-tunneling current of all devices (channel + overlap).
    pub igate: Current,
}

impl LeakageBreakdown {
    /// Total standby current.
    #[must_use]
    pub fn total(&self) -> Current {
        self.isub + self.igate
    }
}

/// Computes the standby leakage of a cell.
///
/// * `assignment` maps each **global transistor index** (see
///   [`CellTopology::transistors`]) to its `(Vt, Tox)` classes.
/// * `state` gives the **physical** pin values (any pin permutation must be
///   applied by the caller).
///
/// # Panics
///
/// Panics if `assignment.len()` differs from the transistor count or the
/// state arity differs from the cell arity.
#[must_use]
pub fn solve_leakage(
    tech: &Technology,
    topo: &CellTopology,
    assignment: &[(VtClass, OxideClass)],
    state: InputState,
) -> LeakageBreakdown {
    solve_detailed(tech, topo, assignment, state, &mut StackMemo::default()).breakdown
}

/// Node voltages of the series stacks one cell's characterization has
/// solved, keyed by (pull-up network, physical state bits, the stack's
/// `(Vt, Tox)` slice): everything `solve_stack` reads besides the cell's
/// fixed topology. Valid for one topology only; a library build keeps one
/// per cell and drops it when the cell is done.
#[derive(Debug, Default)]
pub(crate) struct StackMemo {
    voltages: HashMap<StackKey, Vec<f64>>,
}

type StackKey = (bool, u16, Vec<(VtClass, OxideClass)>);

impl StackMemo {
    /// How many stacks were solved, i.e. `solve_stack` runs: one per
    /// distinct key.
    pub(crate) fn solves(&self) -> usize {
        self.voltages.len()
    }

    /// Fills `v` (whose ends hold the terminal voltages) from the memo,
    /// running `solve` on `v` and storing the result on a miss.
    fn node_voltages(&mut self, key: StackKey, v: &mut [f64], solve: impl FnOnce(&mut [f64])) {
        let stored = self.voltages.entry(key).or_insert_with(|| {
            solve(v);
            v.to_vec()
        });
        v.copy_from_slice(stored);
    }
}

/// The stack solver `solve_detailed_by` runs on a memo miss.
type StackSolver = fn(&Technology, &[Device], &[TransistorRole], &[bool], f64, &mut [f64]);

/// Detailed solve result: the aggregate breakdown plus the gate-tunneling
/// current of every device (global transistor index), used by version
/// generation to find the significant `Igate` contributors.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DetailedLeakage {
    pub breakdown: LeakageBreakdown,
    pub device_igate: Vec<Current>,
}

/// Solves one (assignment, state) of a cell, taking each blocked stack's
/// node voltages from `memo` (solving and storing them on a miss). The
/// currents are evaluated afresh in device order, so every sum adds the
/// same operands in the same order whether the voltages were stored or
/// just solved.
pub(crate) fn solve_detailed(
    tech: &Technology,
    topo: &CellTopology,
    assignment: &[(VtClass, OxideClass)],
    state: InputState,
    memo: &mut StackMemo,
) -> DetailedLeakage {
    solve_detailed_by(tech, topo, assignment, state, memo, solve_stack)
}

fn solve_detailed_by(
    tech: &Technology,
    topo: &CellTopology,
    assignment: &[(VtClass, OxideClass)],
    state: InputState,
    memo: &mut StackMemo,
    stack_solver: StackSolver,
) -> DetailedLeakage {
    assert_eq!(
        assignment.len(),
        topo.num_transistors(),
        "assignment must cover every transistor"
    );
    assert_eq!(state.arity(), topo.arity(), "state arity mismatch");
    let vdd = tech.vdd().value();
    let pins = state.to_pins();
    let output = output_value(topo.kind(), &pins);
    let vout = if output { vdd } else { 0.0 };

    let mut breakdown = LeakageBreakdown::default();
    let mut device_igate = vec![Current::ZERO; topo.num_transistors()];

    for (network_is_pu, (shape, devices)) in [(true, topo.pullup()), (false, topo.pulldown())] {
        let rail = if network_is_pu { vdd } else { 0.0 };
        let base = if network_is_pu {
            0
        } else {
            topo.pullup().1.len()
        };
        let blocked = if network_is_pu { !output } else { output };
        let devs: Vec<Device> = devices
            .iter()
            .enumerate()
            .map(|(i, role)| instantiate(role, assignment[base + i]))
            .collect();
        let vg = |role: &TransistorRole| if pins[role.pin as usize] { vdd } else { 0.0 };

        match shape {
            NetworkKind::Parallel => {
                // Terminals are (rail, vout) for every device.
                let mut net_isub = 0.0;
                for (i, (role, dev)) in devices.iter().zip(&devs).enumerate() {
                    let g = vg(role);
                    if blocked {
                        net_isub += branch_current(tech, dev, g, rail, vout);
                    }
                    let ig = gate_current(tech, dev, g, rail, vout);
                    device_igate[base + i] = ig;
                    breakdown.igate += ig;
                }
                if blocked {
                    breakdown.isub += Current::new(net_isub);
                }
            }
            NetworkKind::Series => {
                // Node chain: v[0] = rail, v[k] = vout; devices[i] sits
                // between v[i] and v[i+1].
                let k = devices.len();
                let mut v = vec![0.0; k + 1];
                v[0] = rail;
                v[k] = vout;
                if (rail - vout).abs() < 1e-12 {
                    // No voltage across the network; every node equalizes.
                    v.iter_mut().for_each(|x| *x = rail);
                } else {
                    let slice = assignment[base..base + k].to_vec();
                    memo.node_voltages((network_is_pu, state.bits(), slice), &mut v, |v| {
                        stack_solver(tech, &devs, devices, &pins, vdd, v);
                    });
                }
                if blocked {
                    // Stack current = current through the rail-side device.
                    let g = vg(&devices[0]);
                    let i = branch_current(tech, &devs[0], g, v[0], v[1]);
                    breakdown.isub += Current::new(i);
                }
                for (i, (role, dev)) in devices.iter().zip(&devs).enumerate() {
                    let ig = gate_current(tech, dev, vg(role), v[i], v[i + 1]);
                    device_igate[base + i] = ig;
                    breakdown.igate += ig;
                }
            }
        }
    }
    DetailedLeakage {
        breakdown,
        device_igate,
    }
}

/// Output value of a primitive cell for given pin values.
fn output_value(kind: GateKind, pins: &[bool]) -> bool {
    kind.eval(pins)
}

fn instantiate(role: &TransistorRole, (vt, tox): (VtClass, OxideClass)) -> Device {
    Device::new(role.mos, vt, tox, role.width)
}

/// Solves the internal node voltages of a series stack by the shooting
/// method: the stack carries one current `I`, so guess `I`, walk the chain
/// from the rail finding each node voltage by a monotone 1-D bisection
/// (device `i` must carry exactly `I`), and compare the current the *last*
/// device would carry against the guess. That residual is strictly
/// decreasing in `I`, so an outer bisection pins the operating point —
/// unlike Gauss–Seidel relaxation, convergence does not degrade on the
/// nearly-flat current plateaus of subthreshold chains.
///
/// `v[0]` and `v[k]` are the fixed terminal voltages; `v[1..k]` is filled.
///
/// Both bisections stop at their fixed point instead of running a fixed
/// 80 × 60 steps, with the same result bits. Once the midpoint of a
/// bracket `(a, b)` rounds to `a` or to `b`, every later step assigns that
/// midpoint to one end: either the bracket is unchanged, or it collapses
/// to `(m, m)`, whose midpoint `0.5 * (m + m)` is `m` again. Either way
/// the final `0.5 * (a + b)` is `m`, the value at the stop. A walk writes
/// `v[1..k]` from `v[0]` and its trial current alone, so skipping the
/// outer loop's remaining walks leaves nothing stale for the final one.
fn solve_stack(
    tech: &Technology,
    devs: &[Device],
    roles: &[TransistorRole],
    pins: &[bool],
    vdd: f64,
    v: &mut [f64],
) {
    let k = devs.len();
    if k <= 1 {
        return;
    }
    let rail = v[0];
    let vout = v[k];
    // Node voltages run rail → output; ascending for an NMOS chain below a
    // high output, descending for a PMOS chain above a low output.
    let ascending = vout > rail;
    let gate = |i: usize| {
        if pins[roles[i].pin as usize] {
            vdd
        } else {
            0.0
        }
    };

    // Walks v[1..k] for a trial stack current and returns the current the
    // last device would then carry toward the fixed output terminal.
    let walk = |i_stack: f64, v: &mut [f64]| -> f64 {
        for i in 0..k - 1 {
            let vg = gate(i);
            // Find x = v[i+1] such that device i carries i_stack; its
            // magnitude grows monotonically as x moves away from v[i].
            let (mut near, mut far) = if ascending { (v[i], vdd) } else { (v[i], 0.0) };
            if branch_current(tech, &devs[i], vg, v[i], far) <= i_stack {
                // Even the full excursion cannot carry the trial current.
                v[i + 1] = far;
                continue;
            }
            for _ in 0..60 {
                let mid = 0.5 * (near + far);
                if mid == near || mid == far {
                    break;
                }
                if branch_current(tech, &devs[i], vg, v[i], mid) < i_stack {
                    near = mid;
                } else {
                    far = mid;
                }
            }
            v[i + 1] = 0.5 * (near + far);
        }
        branch_current(tech, &devs[k - 1], gate(k - 1), v[k - 1], vout)
    };

    // Outer bisection on the stack current: residual = I_last(I) − I is
    // strictly decreasing (larger trial current pushes v[k-1] toward the
    // output, starving the last device).
    let mut lo = 0.0;
    // Upper bound: more than any fully-on stack can carry (10 mA in nA).
    let mut hi = 1.0e7;
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if mid == lo || mid == hi {
            break;
        }
        if walk(mid, v) > mid {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let i_star = 0.5 * (lo + hi);
    let _ = walk(i_star, v);
}

/// Drain–source current magnitude (nA) of a device between two terminals,
/// combining subthreshold and strong-inversion (triode/saturation-smoothed)
/// conduction. Monotone increasing in the terminal voltage difference.
fn branch_current(tech: &Technology, dev: &Device, vg: f64, va: f64, vb: f64) -> f64 {
    let (vhigh, vlow) = if va >= vb { (va, vb) } else { (vb, va) };
    let vds = vhigh - vlow;
    if vds <= 0.0 {
        return 0.0;
    }
    let vgs = match dev.mos() {
        MosType::Nmos => vg - vlow,
        MosType::Pmos => vhigh - vg,
    };
    let isub = dev.isub(tech, Voltage::new(vgs), Voltage::new(vds)).value();
    let vt = dev.vt(tech).value();
    let on = if vgs > vt {
        let vdsat = vgs - vt;
        // kΩ and volts → mA; ×1e6 → nA. Smooth triode→saturation rolloff.
        1.0e6 / dev.r_on(tech).value() * vdsat * vds / (vds + vdsat + 1e-9)
    } else {
        0.0
    };
    isub + on
}

/// Gate-tunneling current of a device given its gate and terminal voltages.
fn gate_current(tech: &Technology, dev: &Device, vg: f64, va: f64, vb: f64) -> Current {
    let (vmax, vmin) = if va >= vb { (va, vb) } else { (vb, va) };
    match dev.mos() {
        // NMOS: source = lower terminal; positive Vgs/Vgd attract channel.
        MosType::Nmos => dev.igate(tech, Voltage::new(vg - vmin), Voltage::new(vg - vmax)),
        // PMOS magnitude frame: source = upper terminal.
        MosType::Pmos => dev.igate(tech, Voltage::new(vmax - vg), Voltage::new(vmin - vg)),
    }
}

/// `solve_stack` as it was before the fixed-point stop: always a full
/// 80 × 60 steps. Kept verbatim as the reference the memoized,
/// early-stopping solve is compared against bit for bit.
#[cfg(test)]
fn reference_solve_stack(
    tech: &Technology,
    devs: &[Device],
    roles: &[TransistorRole],
    pins: &[bool],
    vdd: f64,
    v: &mut [f64],
) {
    let k = devs.len();
    if k <= 1 {
        return;
    }
    let rail = v[0];
    let vout = v[k];
    // Node voltages run rail → output; ascending for an NMOS chain below a
    // high output, descending for a PMOS chain above a low output.
    let ascending = vout > rail;
    let gate = |i: usize| {
        if pins[roles[i].pin as usize] {
            vdd
        } else {
            0.0
        }
    };

    // Walks v[1..k] for a trial stack current and returns the current the
    // last device would then carry toward the fixed output terminal.
    let walk = |i_stack: f64, v: &mut [f64]| -> f64 {
        for i in 0..k - 1 {
            let vg = gate(i);
            // Find x = v[i+1] such that device i carries i_stack; its
            // magnitude grows monotonically as x moves away from v[i].
            let (mut near, mut far) = if ascending { (v[i], vdd) } else { (v[i], 0.0) };
            if branch_current(tech, &devs[i], vg, v[i], far) <= i_stack {
                // Even the full excursion cannot carry the trial current.
                v[i + 1] = far;
                continue;
            }
            for _ in 0..60 {
                let mid = 0.5 * (near + far);
                if branch_current(tech, &devs[i], vg, v[i], mid) < i_stack {
                    near = mid;
                } else {
                    far = mid;
                }
            }
            v[i + 1] = 0.5 * (near + far);
        }
        branch_current(tech, &devs[k - 1], gate(k - 1), v[k - 1], vout)
    };

    // Outer bisection on the stack current: residual = I_last(I) − I is
    // strictly decreasing (larger trial current pushes v[k-1] toward the
    // output, starving the last device).
    let mut lo = 0.0;
    // Upper bound: more than any fully-on stack can carry (10 mA in nA).
    let mut hi = 1.0e7;
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if walk(mid, v) > mid {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let i_star = 0.5 * (lo + hi);
    let _ = walk(i_star, v);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tech() -> Technology {
        Technology::predictive_65nm()
    }

    fn fast(topo: &CellTopology) -> Vec<(VtClass, OxideClass)> {
        vec![(VtClass::Low, OxideClass::Thin); topo.num_transistors()]
    }

    fn state(bits: u16, arity: usize) -> InputState {
        InputState::from_bits(bits, arity)
    }

    #[test]
    fn inverter_two_states() {
        let t = tech();
        let topo = CellTopology::for_kind(GateKind::Inv).unwrap();
        let a = fast(&topo);
        // Input 0: output 1; NMOS OFF leaks Isub, PMOS ON (negligible Igate).
        let s0 = solve_leakage(&t, &topo, &a, state(0, 1));
        assert!((s0.isub.value() - 80.0).abs() < 3.0, "isub {}", s0.isub);
        // Input 1: output 0; PMOS (w=2) OFF leaks ~190; NMOS tunnels ~55
        // channel plus ~11 of PMOS overlap EDT.
        let s1 = solve_leakage(&t, &topo, &a, state(1, 1));
        assert!((s1.isub.value() - 190.0).abs() < 6.0, "isub {}", s1.isub);
        assert!((s1.igate.value() - 66.0).abs() < 8.0, "igate {}", s1.igate);
    }

    #[test]
    fn nand2_stack_effect() {
        let t = tech();
        let topo = CellTopology::for_kind(GateKind::Nand(2)).unwrap();
        let a = fast(&topo);
        // State 00: both NMOS OFF in series → stack effect. A single OFF
        // w=2 NMOS would leak ~160 nA; the stack must leak far less.
        let s00 = solve_leakage(&t, &topo, &a, state(0b00, 2));
        assert!(
            s00.isub.value() < 0.6 * 160.0,
            "stack leakage {} shows no stack effect",
            s00.isub
        );
        assert!(
            s00.isub.value() > 10.0,
            "stack leakage {} implausibly small",
            s00.isub
        );
    }

    #[test]
    fn nand2_position_dependent_igate() {
        let t = tech();
        let topo = CellTopology::for_kind(GateKind::Nand(2)).unwrap();
        let a = fast(&topo);
        // State 10 (pin0=0 top OFF, pin1=1 bottom ON): the bottom ON device
        // has its drain pulled to the floating node *below* the blocked top
        // device... actually the top blocks, bottom ON discharges the
        // internal node to ~0, so the bottom device tunnels at full bias.
        let s_good = solve_leakage(&t, &topo, &a, state(0b01, 2)); // pin0=1 (top ON), pin1=0
        let s_bad = solve_leakage(&t, &topo, &a, state(0b10, 2)); // pin0=0 (top OFF), pin1=1
                                                                  // pin0=1 (top ON) above blocked bottom: source floats to Vdd−Vt →
                                                                  // tiny Igate. pin0=0 (top OFF) above conducting bottom: the ON
                                                                  // bottom device sits at ~0 V on both terminals → full Igate.
        assert!(
            s_bad.igate.value() > 4.0 * s_good.igate.value(),
            "expected strong position dependence: bad {} vs good {}",
            s_bad.igate,
            s_good.igate
        );
    }

    #[test]
    fn nand2_state11_full_tunneling() {
        let t = tech();
        let topo = CellTopology::for_kind(GateKind::Nand(2)).unwrap();
        let a = fast(&topo);
        let s11 = solve_leakage(&t, &topo, &a, state(0b11, 2));
        // Both w=2 NMOS fully ON at 0 V: 2 × 110 nA channel tunneling, plus
        // ~22 nA of PMOS overlap EDT.
        assert!(
            (s11.igate.value() - 242.0).abs() < 20.0,
            "igate {}",
            s11.igate
        );
        // Both w=2 PMOS OFF in parallel: 2 × 190 nA.
        assert!((s11.isub.value() - 380.0).abs() < 15.0, "isub {}", s11.isub);
    }

    #[test]
    fn high_vt_on_rail_device_cuts_stack() {
        let t = tech();
        let topo = CellTopology::for_kind(GateKind::Nand(2)).unwrap();
        let mut a = fast(&topo);
        let before = solve_leakage(&t, &topo, &a, state(0b00, 2)).isub;
        // Raise only the rail-side (bottom) NMOS: global index pd_index(0).
        a[topo.pd_index(0)] = (VtClass::High, OxideClass::Thin);
        let after = solve_leakage(&t, &topo, &a, state(0b00, 2)).isub;
        assert!(
            after.value() * 5.0 < before.value(),
            "single high-Vt device should strangle the stack: {before} → {after}"
        );
    }

    #[test]
    fn thick_oxide_cuts_gate_current() {
        let t = tech();
        let topo = CellTopology::for_kind(GateKind::Nand(2)).unwrap();
        let mut a = fast(&topo);
        let before = solve_leakage(&t, &topo, &a, state(0b11, 2)).igate;
        // Thick oxide on every device reduces both channel tunneling and the
        // overlap EDT by the full 11x factor.
        for slot in a.iter_mut() {
            *slot = (VtClass::Low, OxideClass::Thick);
        }
        let after = solve_leakage(&t, &topo, &a, state(0b11, 2)).igate;
        let ratio = before / after;
        assert!(ratio > 10.0 && ratio < 12.0, "thick-ox ratio {ratio}");
        // Thick oxide on the NMOS alone still removes the dominant channel
        // component (the PMOS EDT floor remains).
        let mut b = fast(&topo);
        b[topo.pd_index(0)] = (VtClass::Low, OxideClass::Thick);
        b[topo.pd_index(1)] = (VtClass::Low, OxideClass::Thick);
        let nmos_only = solve_leakage(&t, &topo, &b, state(0b11, 2)).igate;
        assert!(
            before / nmos_only > 4.0,
            "NMOS-only ratio {}",
            before / nmos_only
        );
    }

    #[test]
    fn nor2_parallel_offs_each_leak() {
        let t = tech();
        let topo = CellTopology::for_kind(GateKind::Nor(2)).unwrap();
        let a = fast(&topo);
        // 00: both parallel NMOS OFF at full Vds → ~2 × 80 nA.
        let s00 = solve_leakage(&t, &topo, &a, state(0b00, 2));
        assert!((s00.isub.value() - 160.0).abs() < 8.0, "isub {}", s00.isub);
        // 11: PMOS stack blocked (stack effect, w=4 devices), both NMOS
        // tunnel at full bias (2 × 55), rail-side PMOS adds ~22 of EDT.
        let s11 = solve_leakage(&t, &topo, &a, state(0b11, 2));
        assert!(
            (s11.igate.value() - 132.0).abs() < 15.0,
            "igate {}",
            s11.igate
        );
        // A single OFF w=4 PMOS would leak 4 × 95 = 380 nA; the stack less.
        assert!(s11.isub.value() < 0.6 * 380.0, "isub {}", s11.isub);
    }

    #[test]
    fn nor2_single_off_pmos_positions() {
        let t = tech();
        let topo = CellTopology::for_kind(GateKind::Nor(2)).unwrap();
        let a = fast(&topo);
        // 10: pin0=1 → top PMOS OFF; 01: bottom PMOS OFF. Both block the
        // stack with a single device at full-ish Vds; leakages are similar.
        let s10 = solve_leakage(&t, &topo, &a, state(0b01, 2));
        let s01 = solve_leakage(&t, &topo, &a, state(0b10, 2));
        let ratio = s10.isub / s01.isub;
        assert!(ratio > 0.5 && ratio < 2.0, "ratio {ratio}");
        // And both leak much more than the two-OFF stack.
        let s11 = solve_leakage(&t, &topo, &a, state(0b11, 2));
        assert!(s10.isub.value() > 1.5 * s11.isub.value());
    }

    #[test]
    fn nand3_reordered_state_kills_igate() {
        let t = tech();
        let topo = CellTopology::for_kind(GateKind::Nand(3)).unwrap();
        let a = fast(&topo);
        // 011 (pin0=0 top OFF, others ON): internal nodes discharge, the two
        // ON devices tunnel hard.
        let bad = solve_leakage(&t, &topo, &a, state(0b110, 3));
        // 110 (pin2=0 bottom OFF, others ON above it): sources float up,
        // tunneling collapses.
        let good = solve_leakage(&t, &topo, &a, state(0b011, 3));
        assert!(
            bad.igate.value() > 5.0 * good.igate.value(),
            "reordering lever missing: bad {} vs good {}",
            bad.igate,
            good.igate
        );
    }

    #[test]
    fn total_is_sum() {
        let b = LeakageBreakdown {
            isub: Current::new(2.0),
            igate: Current::new(3.0),
        };
        assert_eq!(b.total(), Current::new(5.0));
    }

    #[test]
    #[should_panic(expected = "assignment must cover")]
    fn wrong_assignment_length_panics() {
        let t = tech();
        let topo = CellTopology::for_kind(GateKind::Inv).unwrap();
        let _ = solve_leakage(&t, &topo, &[(VtClass::Low, OxideClass::Thin)], state(0, 1));
    }
}

#[cfg(test)]
mod fuzz_tests {
    //! Deterministic seeded fuzzing — the in-tree replacement for the
    //! proptest properties this module used to hold.

    use super::*;
    use std::collections::HashMap;
    use svtox_exec::rng::Xoshiro256pp;

    fn all_kinds() -> Vec<GateKind> {
        vec![
            GateKind::Inv,
            GateKind::Nand(2),
            GateKind::Nand(3),
            GateKind::Nand(4),
            GateKind::Nor(2),
            GateKind::Nor(3),
            GateKind::Nor(4),
        ]
    }

    /// Draws (kind, state bits, vt mask, tox mask) — masks over global
    /// indices.
    fn random_case(rng: &mut Xoshiro256pp) -> (GateKind, u16, u16, u16) {
        let kinds = all_kinds();
        let kind = kinds[rng.gen_index(kinds.len())];
        (
            kind,
            rng.next_u64() as u16,
            rng.next_u64() as u16,
            rng.next_u64() as u16,
        )
    }

    fn assignment_from(topo: &CellTopology, vt: u16, tox: u16) -> Vec<(VtClass, OxideClass)> {
        (0..topo.num_transistors())
            .map(|i| {
                (
                    if vt >> i & 1 == 1 {
                        VtClass::High
                    } else {
                        VtClass::Low
                    },
                    if tox >> i & 1 == 1 {
                        OxideClass::Thick
                    } else {
                        OxideClass::Thin
                    },
                )
            })
            .collect()
    }

    /// Leakage is always finite, non-negative, and both components sum.
    #[test]
    fn leakage_is_sane() {
        let mut rng = Xoshiro256pp::seed_from_u64(0x1ea);
        let t = Technology::predictive_65nm();
        for _ in 0..256 {
            let (kind, sbits, vt, tox) = random_case(&mut rng);
            let topo = CellTopology::for_kind(kind).unwrap();
            let a = assignment_from(&topo, vt, tox);
            let s = InputState::from_bits(sbits % (1 << kind.arity()), kind.arity());
            let b = solve_leakage(&t, &topo, &a, s);
            assert!(b.isub.value().is_finite() && b.isub.value() >= 0.0);
            assert!(b.igate.value().is_finite() && b.igate.value() >= 0.0);
            assert!((b.total() - (b.isub + b.igate)).abs() < 1e-12);
            // A single gate never leaks more than a few µA in this model.
            assert!(b.total().value() < 10_000.0, "total {}", b.total());
        }
    }

    /// The memoized, early-stopping `solve_detailed` equals the reference
    /// (a fresh fixed 80 × 60 solve per call) bit for bit: breakdown and
    /// every device's gate current. One memo per kind serves every draw of
    /// that kind, so later draws hit stacks earlier ones stored; and each
    /// draw is solved again with a device of the parallel network
    /// re-assigned, which must reuse the stack's stored voltages.
    #[test]
    fn memoized_solve_matches_reference() {
        let mut rng = Xoshiro256pp::seed_from_u64(0x3e30);
        let t = Technology::predictive_65nm();
        let mut memos: HashMap<GateKind, StackMemo> = HashMap::new();
        let bits = |d: &DetailedLeakage| {
            let mut bits = vec![
                d.breakdown.isub.value().to_bits(),
                d.breakdown.igate.value().to_bits(),
            ];
            bits.extend(d.device_igate.iter().map(|c| c.value().to_bits()));
            bits
        };
        // Draws whose own solve found its stack already stored, and
        // re-solves that had to.
        let (mut cross_hits, mut repeat_hits) = (0, 0);
        for _ in 0..512 {
            let (kind, sbits, vt, tox) = random_case(&mut rng);
            let topo = CellTopology::for_kind(kind).unwrap();
            let mut a = assignment_from(&topo, vt, tox);
            let s = InputState::from_bits(sbits % (1 << kind.arity()), kind.arity());
            // The reference and whether it had a stack to solve.
            let reference = |a: &[(VtClass, OxideClass)]| {
                let mut fresh = StackMemo::default();
                let d = solve_detailed_by(&t, &topo, a, s, &mut fresh, reference_solve_stack);
                (d, fresh.solves())
            };
            let memo = memos.entry(kind).or_default();

            let solves = memo.solves();
            let got = solve_detailed(&t, &topo, &a, s, memo);
            let (want, stacks) = reference(&a);
            assert_eq!(bits(&got), bits(&want), "{kind} state {s}: {a:?}");
            if stacks > memo.solves() - solves {
                cross_hits += 1;
            }

            let parallel = if topo.pullup().0 == NetworkKind::Parallel {
                0
            } else {
                topo.pullup().1.len()
            };
            a[parallel].0 = match a[parallel].0 {
                VtClass::Low => VtClass::High,
                VtClass::High => VtClass::Low,
            };
            let solves = memo.solves();
            let got = solve_detailed(&t, &topo, &a, s, memo);
            let (want, stacks) = reference(&a);
            assert_eq!(bits(&got), bits(&want), "{kind} state {s}: {a:?}");
            assert_eq!(
                memo.solves(),
                solves,
                "{kind}: a stored stack was solved again"
            );
            repeat_hits += stacks;
        }
        assert!(cross_hits > 20, "only {cross_hits} cross-draw hits");
        assert!(repeat_hits > 200, "only {repeat_hits} repeat hits");
    }

    /// Raising one device's Vt never increases the *subthreshold*
    /// component it targets. (The total can rise: raising the Vt of a
    /// stack device lowers the floating internal nodes, which can expose
    /// an ON neighbour to a larger gate bias — node redistribution that
    /// SPICE shows too, and the reason the library characterizes whole
    /// versions rather than assuming per-device monotonicity.)
    #[test]
    fn raising_vt_never_raises_isub() {
        let mut rng = Xoshiro256pp::seed_from_u64(0x157b);
        let t = Technology::predictive_65nm();
        for _ in 0..256 {
            let (kind, sbits, _vt, tox) = random_case(&mut rng);
            let topo = CellTopology::for_kind(kind).unwrap();
            let mut a = assignment_from(&topo, 0, tox);
            let s = InputState::from_bits(sbits % (1 << kind.arity()), kind.arity());
            let before = solve_leakage(&t, &topo, &a, s).isub;
            let target = rng.gen_index(topo.num_transistors());
            a[target].0 = VtClass::High;
            let after = solve_leakage(&t, &topo, &a, s).isub;
            assert!(
                after.value() <= before.value() * 1.05 + 0.5,
                "{kind} state {s}: vt on device {target} raised isub {before} → {after}"
            );
        }
    }

    /// Thickening one device's oxide never increases total leakage.
    #[test]
    fn thickening_never_hurts() {
        let mut rng = Xoshiro256pp::seed_from_u64(0x70c5);
        let t = Technology::predictive_65nm();
        for _ in 0..256 {
            let (kind, sbits, vt, _tox) = random_case(&mut rng);
            let topo = CellTopology::for_kind(kind).unwrap();
            let mut a = assignment_from(&topo, vt, 0);
            let s = InputState::from_bits(sbits % (1 << kind.arity()), kind.arity());
            let before = solve_leakage(&t, &topo, &a, s).total();
            let target = rng.gen_index(topo.num_transistors());
            a[target].1 = OxideClass::Thick;
            let after = solve_leakage(&t, &topo, &a, s).total();
            assert!(
                after.value() <= before.value() * 1.05 + 0.5,
                "{kind} state {s}: tox on device {target} raised leakage {before} → {after}"
            );
        }
    }

    /// The all-slow corner is near the floor for subthreshold leakage.
    ///
    /// Note the *total* has no such property: slowing the output-side
    /// device of a stack lowers the floating internal nodes, which can
    /// raise a middle device's gate tunneling by more than the thick
    /// oxide saves — a real node-redistribution effect this model
    /// shares with SPICE. Isub, however, only falls.
    #[test]
    fn all_slow_floors_isub() {
        let mut rng = Xoshiro256pp::seed_from_u64(0xa115);
        let t = Technology::predictive_65nm();
        for _ in 0..256 {
            let (kind, sbits, vt, tox) = random_case(&mut rng);
            let topo = CellTopology::for_kind(kind).unwrap();
            let s = InputState::from_bits(sbits % (1 << kind.arity()), kind.arity());
            let any = solve_leakage(&t, &topo, &assignment_from(&topo, vt, tox), s).isub;
            let slow = solve_leakage(
                &t,
                &topo,
                &vec![(VtClass::High, OxideClass::Thick); topo.num_transistors()],
                s,
            )
            .isub;
            assert!(slow.value() <= any.value() * 1.05 + 0.5);
        }
    }

    /// §4's construction, checked exhaustively for the 2-pin cells: the
    /// systematically generated minimum-leakage version touches few devices
    /// and lands within a small factor of the true optimum over all
    /// 4^(transistors) assignments. The factor is not 1: e.g. NAND2 state
    /// 00 assigns one high-Vt device (paper Fig. 3(e), Table 1's 41.2→14.0
    /// nA) while the absolute floor raises *both* stack devices — the paper
    /// accepts the same gap in exchange for smaller delay impact.
    #[test]
    fn generated_min_leak_is_near_exhaustive_floor() {
        use crate::library::{Library, LibraryOptions};
        let t = Technology::predictive_65nm();
        let lib = Library::new(t.clone(), LibraryOptions::default()).unwrap();
        for kind in [GateKind::Inv, GateKind::Nand(2), GateKind::Nor(2)] {
            let topo = CellTopology::for_kind(kind).unwrap();
            let cell = lib.cell(kind).unwrap();
            let nt = topo.num_transistors();
            for state in InputState::all(kind.arity()) {
                // The library option may reorder pins; the fair floor is over
                // the same physical state the option realizes.
                let opt = &cell.options_for(state)[0];
                let phys = state.permuted(opt.perm());
                let mut floor = f64::INFINITY;
                for code in 0..(1u32 << (2 * nt)) {
                    let a: Vec<(VtClass, OxideClass)> = (0..nt)
                        .map(|i| {
                            (
                                if code >> (2 * i) & 1 == 1 {
                                    VtClass::High
                                } else {
                                    VtClass::Low
                                },
                                if code >> (2 * i + 1) & 1 == 1 {
                                    OxideClass::Thick
                                } else {
                                    OxideClass::Thin
                                },
                            )
                        })
                        .collect();
                    floor = floor.min(solve_leakage(&t, &topo, &a, phys).total().value());
                }
                let best = opt.leakage().value();
                assert!(
                    best <= floor * 8.0 + 0.5,
                    "{kind} state {state}: library best {best:.2} vs exhaustive floor {floor:.2}"
                );
                assert!(best >= floor - 1e-9, "library cannot beat the floor");
            }
        }
    }
}
