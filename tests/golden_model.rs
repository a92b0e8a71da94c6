//! Golden regression test pinning the paper-calibrated device-model ratios
//! documented in DESIGN.md against `Technology::predictive_65nm()`.
//!
//! The calibration targets come from the source paper (Lee/Blaauw/Sylvester,
//! DATE 2004): high-Vt devices reduce subthreshold leakage by 17.8×
//! (NMOS) / 16.7× (PMOS), thick-oxide devices reduce gate leakage by ~11×,
//! and gate leakage contributes roughly 36% of total standby current at the
//! all-fast corner. If any of these drifts, every downstream table in
//! DESIGN.md (and the optimizer's Vt/Tox trade-off) silently changes — this
//! test makes the drift loud and points at the number that moved.
//!
//! `library_bits_are_pinned` goes one level up: it pins the exact bits of
//! the characterized library (leakage tables, state options, input caps)
//! under the default options and one variant of each option, so a faster
//! characterization has to reproduce them exactly. `arc_table_bits_are_pinned`
//! does the same for every arc's delay and slew tables.

use svtox_cells::{InputState, Library, LibraryOptions, TradeoffPoints, VtSitePolicy};
use svtox_netlist::generators::benchmark;
use svtox_netlist::GateKind;
use svtox_sim::random_average_leakage;
use svtox_tech::{Capacitance, Device, MosType, OxideClass, Technology, Time, Voltage, VtClass};

/// Asserts `actual` is within `tol` of `expected`, with a message that says
/// which DESIGN.md calibration target moved and by how much.
fn assert_ratio(name: &str, actual: f64, expected: f64, tol: f64) {
    assert!(
        (actual - expected).abs() <= tol,
        "{name} drifted from its paper calibration: got {actual:.3}, \
         expected {expected:.1} ± {tol} (see DESIGN.md, device-model \
         calibration table)"
    );
}

fn device(mos: MosType, vt: VtClass, tox: OxideClass) -> Device {
    Device::new(mos, vt, tox, 1.0)
}

#[test]
fn high_vt_isub_reduction_matches_paper() {
    let t = Technology::predictive_65nm();
    let vdd = t.vdd();
    for (mos, expected) in [(MosType::Nmos, 17.8), (MosType::Pmos, 16.7)] {
        let fast = device(mos, VtClass::Low, OxideClass::Thin);
        let slow = device(mos, VtClass::High, OxideClass::Thin);
        let ratio = fast.isub(&t, Voltage::ZERO, vdd) / slow.isub(&t, Voltage::ZERO, vdd);
        assert_ratio(
            &format!("{mos:?} high-Vt Isub reduction"),
            ratio,
            expected,
            0.3,
        );
    }
}

#[test]
fn thick_tox_igate_reduction_matches_paper() {
    let t = Technology::predictive_65nm();
    let vdd = t.vdd();
    // NMOS: the ON-channel tunneling component (PMOS channel tunneling is
    // calibrated to zero — SiO2 hole tunneling is negligible).
    let thin = device(MosType::Nmos, VtClass::Low, OxideClass::Thin);
    let thick = device(MosType::Nmos, VtClass::Low, OxideClass::Thick);
    let ratio = thin.igate(&t, vdd, vdd) / thick.igate(&t, vdd, vdd);
    assert_ratio("NMOS thick-Tox Igate reduction", ratio, 11.0, 0.2);
    // Both polarities: the reverse edge-direct-tunneling component (OFF
    // device, drain at Vdd) goes through the same oxide and must see the
    // same reduction factor.
    for mos in [MosType::Nmos, MosType::Pmos] {
        let thin = device(mos, VtClass::Low, OxideClass::Thin);
        let thick = device(mos, VtClass::Low, OxideClass::Thick);
        let ratio = thin.igate(&t, Voltage::ZERO, -vdd) / thick.igate(&t, Voltage::ZERO, -vdd);
        assert_ratio(
            &format!("{mos:?} thick-Tox EDT reduction"),
            ratio,
            11.0,
            0.2,
        );
    }
}

#[test]
fn fast_corner_igate_share_is_about_a_third() {
    // Paper calibration: at the all-fast (low-Vt, thin-Tox) corner, gate
    // leakage is ≈36% of the total standby current. Measured on c432 over
    // random vectors — circuit-level, so it exercises the cell library's
    // stack aggregation, not just a single transistor.
    let lib = Library::new(Technology::predictive_65nm(), LibraryOptions::default())
        .expect("predictive 65nm library builds");
    let c432 = benchmark("c432").expect("bundled c432 parses");
    let avg = random_average_leakage(&c432, &lib, 500, 42).expect("c432 cells in library");
    assert_ratio(
        "fast-corner Igate share of total",
        avg.igate_share(),
        0.36,
        0.08,
    );
    // Decomposition sanity: the published share only means something if
    // the components still add up.
    assert!(
        (avg.isub.value() + avg.igate.value() - avg.total.value()).abs() < 1e-9,
        "Isub + Igate must equal total leakage"
    );
}

/// Folds one 64-bit word into an FNV-1a hash, byte by byte.
fn fnv(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

/// FNV-1a over the bits of everything the characterization produces:
/// every `(version, state)` leakage and its breakdown, every state
/// option's version, perm and breakdown, and every input capacitance.
/// Cells are visited INV, NAND2.., NOR2.. so the order never depends on
/// the library's map.
fn library_fingerprint(options: LibraryOptions) -> u64 {
    let lib = Library::new(Technology::predictive_65nm(), options).expect("library builds");
    let mut kinds = vec![GateKind::Inv];
    kinds.extend((2..=options.max_arity as u8).map(GateKind::Nand));
    kinds.extend((2..=options.max_arity as u8).map(GateKind::Nor));
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for kind in kinds {
        let cell = lib.cell(kind).expect("kind within max_arity");
        for v in cell.version_ids() {
            for state in InputState::all(cell.arity()) {
                let split = cell.leakage_breakdown(v, state);
                fnv(&mut hash, cell.leakage(v, state).value().to_bits());
                fnv(&mut hash, split.isub.value().to_bits());
                fnv(&mut hash, split.igate.value().to_bits());
            }
            for pin in 0..cell.arity() {
                fnv(&mut hash, cell.input_cap_physical(v, pin).value().to_bits());
            }
        }
        for state in InputState::all(cell.arity()) {
            for opt in cell.options_for(state) {
                fnv(&mut hash, opt.version().index() as u64);
                for &p in opt.perm() {
                    fnv(&mut hash, u64::from(p));
                }
                fnv(&mut hash, opt.leakage().value().to_bits());
                fnv(&mut hash, opt.breakdown().isub.value().to_bits());
                fnv(&mut hash, opt.breakdown().igate.value().to_bits());
            }
        }
    }
    hash
}

/// The library's bits, pinned for the default options and for one
/// variant of each option. A change to the DC solver or to version
/// generation that moves any characterized value fails here; a mismatch
/// prints every actual pin.
#[test]
fn library_bits_are_pinned() {
    let default = LibraryOptions::default();
    let configs = [
        ("default", default),
        (
            "two-points",
            LibraryOptions {
                tradeoff_points: TradeoffPoints::Two,
                ..default
            },
        ),
        (
            "uniform-stack",
            LibraryOptions {
                uniform_stack: true,
                ..default
            },
        ),
        (
            "max-arity-4",
            LibraryOptions {
                max_arity: 4,
                ..default
            },
        ),
        (
            "no-reordering",
            LibraryOptions {
                pin_reordering: false,
                ..default
            },
        ),
        (
            "output-adjacent",
            LibraryOptions {
                vt_site: VtSitePolicy::OutputAdjacent,
                ..default
            },
        ),
    ];
    let actual: Vec<String> = configs
        .iter()
        .map(|&(tag, options)| format!("{tag} {:016x}", library_fingerprint(options)))
        .collect();
    let expected = [
        "default 223b0dd00c684726",
        "two-points 7d6216bdefe90c0d",
        "uniform-stack 65ac08e78ec2c241",
        "max-arity-4 ae6110ef287133f0",
        "no-reordering 9184ef8ffd34f669",
        "output-adjacent 51799456af93dcae",
    ];
    assert_eq!(
        actual,
        expected,
        "library bits moved; actual pins:\n{}",
        actual.join("\n")
    );
}

/// The query points of one table axis: every axis point, every segment
/// midpoint, and one point past each end (extrapolated).
fn probe_points(axis: &[f64]) -> Vec<f64> {
    let mut points = vec![axis[0] * 0.5];
    for w in axis.windows(2) {
        points.extend([w[0], 0.5 * (w[0] + w[1])]);
    }
    let last = axis[axis.len() - 1];
    points.extend([last, last * 2.0]);
    points
}

/// FNV-1a over the bits of every arc's rise and fall table: its axes and
/// its `(delay, output slew)` lookups at every axis point, segment midpoint
/// and beyond both ends, plus the position of the table among the cell's
/// distinct tables. Cells are visited INV, NAND2.., NOR2...
fn arc_table_fingerprint(options: LibraryOptions) -> u64 {
    let lib = Library::new(Technology::predictive_65nm(), options).expect("library builds");
    let mut kinds = vec![GateKind::Inv];
    kinds.extend((2..=options.max_arity as u8).map(GateKind::Nand));
    kinds.extend((2..=options.max_arity as u8).map(GateKind::Nor));
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for kind in kinds {
        let cell = lib.cell(kind).expect("kind within max_arity");
        fnv(&mut hash, cell.rise_tables().len() as u64);
        fnv(&mut hash, cell.fall_tables().len() as u64);
        for v in cell.version_ids() {
            for pin in 0..cell.arity() {
                let arc = cell.arc_physical(v, pin);
                for (table, distinct) in [
                    (arc.rise, cell.rise_tables()),
                    (arc.fall, cell.fall_tables()),
                ] {
                    let position = distinct.iter().position(|t| t == table);
                    fnv(&mut hash, position.expect("listed") as u64);
                    let slews: Vec<f64> = table.slews().iter().map(|s| s.value()).collect();
                    let loads: Vec<f64> = table.loads().iter().map(|l| l.value()).collect();
                    for &x in slews.iter().chain(&loads) {
                        fnv(&mut hash, x.to_bits());
                    }
                    for &s in &probe_points(&slews) {
                        for &l in &probe_points(&loads) {
                            let (d, o) = table.lookup(Time::new(s), Capacitance::new(l));
                            fnv(&mut hash, d.value().to_bits());
                            fnv(&mut hash, o.value().to_bits());
                        }
                    }
                }
            }
        }
    }
    hash
}

/// Every arc table's bits, pinned for the default options and one variant
/// of each option. A change to arc characterization, to the table layout
/// or to its interpolation that moves any looked-up value fails here; a
/// mismatch prints every actual pin.
#[test]
fn arc_table_bits_are_pinned() {
    let default = LibraryOptions::default();
    let configs = [
        ("default", default),
        (
            "two-points",
            LibraryOptions {
                tradeoff_points: TradeoffPoints::Two,
                ..default
            },
        ),
        (
            "uniform-stack",
            LibraryOptions {
                uniform_stack: true,
                ..default
            },
        ),
        (
            "max-arity-4",
            LibraryOptions {
                max_arity: 4,
                ..default
            },
        ),
        (
            "no-reordering",
            LibraryOptions {
                pin_reordering: false,
                ..default
            },
        ),
        (
            "output-adjacent",
            LibraryOptions {
                vt_site: VtSitePolicy::OutputAdjacent,
                ..default
            },
        ),
    ];
    let actual: Vec<String> = configs
        .iter()
        .map(|&(tag, options)| format!("{tag} {:016x}", arc_table_fingerprint(options)))
        .collect();
    let expected = [
        "default f4d821b929abd034",
        "two-points 71b84043c644a7da",
        "uniform-stack 6eeb717387020478",
        "max-arity-4 10ab375c7b092238",
        "no-reordering 1eb321d25506d8c8",
        "output-adjacent 062249dc2a68339c",
    ];
    assert_eq!(
        actual,
        expected,
        "arc table bits moved; actual pins:\n{}",
        actual.join("\n")
    );
}
