//! The optimization problem: netlist + library + delay normalization +
//! precomputed per-mode option tables.

use std::collections::HashMap;

use svtox_cells::{InputState, Library, StateOption};
use svtox_netlist::{GateId, GateKind, Netlist};
use svtox_sta::{Sta, TimingConfig};
use svtox_tech::{Current, OxideClass, Time};

use crate::error::OptError;
use crate::state_search::Optimizer;

/// Which assignment knobs the optimizer may use — the paper's proposed
/// method and its two baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Mode {
    /// Simultaneous state + `Vt` + `Tox` (the paper's contribution).
    #[default]
    Proposed,
    /// State + `Vt` only — the DAC 2003 predecessor (ref.\[12\]), no dual-`Tox`.
    StateAndVt,
    /// Sleep-state assignment only; every gate stays at its fast version.
    StateOnly,
}

impl Mode {
    /// All modes, in baseline→proposed order.
    pub const ALL: [Mode; 3] = [Mode::StateOnly, Mode::StateAndVt, Mode::Proposed];
}

/// Gate visiting order of the gate-tree traversal (ablation knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GateOrder {
    /// Largest potential leakage saving first (default).
    #[default]
    SavingsDescending,
    /// Netlist topological order.
    Topological,
}

/// Primary-input branching order of the state-tree search (ablation knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InputOrder {
    /// Largest transitive fanout first — decide the most influential inputs
    /// early so bounds tighten quickly (default; mirrors the paper's
    /// bound-driven branch ordering).
    #[default]
    InfluenceDescending,
    /// Netlist declaration order.
    Natural,
}

/// Normalized delay penalty: the fraction of the fast→all-slow delay gap
/// the optimized circuit may consume (paper §6).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct DelayPenalty(f64);

impl DelayPenalty {
    /// Creates a penalty from a fraction in `0.0..=1.0`.
    ///
    /// # Errors
    ///
    /// Returns [`OptError::InvalidPenalty`] outside that range.
    pub fn new(fraction: f64) -> Result<Self, OptError> {
        if (0.0..=1.0).contains(&fraction) {
            Ok(Self(fraction))
        } else {
            Err(OptError::InvalidPenalty(fraction.to_bits()))
        }
    }

    /// The fraction.
    #[must_use]
    pub fn fraction(self) -> f64 {
        self.0
    }

    /// The paper's headline operating point (5 %).
    #[must_use]
    pub fn five_percent() -> Self {
        Self(0.05)
    }
}

/// Per-(kind, state, mode) option table: allowed option indices sorted by
/// ascending leakage, plus the minimum reachable leakage for bounding.
#[derive(Debug, Clone)]
struct KindTable {
    /// `[mode][state] -> allowed indices into options_for(state)`.
    allowed: [Vec<Vec<u8>>; 3],
    /// `[mode][state] -> min leakage (nA)`.
    min_leak: [Vec<f64>; 3],
    /// `[state] -> leakage of the fast option (nA)`.
    fast_leak: Vec<f64>,
    /// `[state] -> index of the fast option`.
    fast_index: Vec<u8>,
    /// `[mode] -> offset` of this kind's tri-level bound table in
    /// `Problem::bound_tables`.
    bound_offset: [usize; 3],
}

/// A fully-specified optimization problem.
///
/// Construction runs the two reference timing analyses (`D_fast`, `D_slow`)
/// and precomputes option tables and transitive-fanout cones used by the
/// search. The instance is immutable; many [`Optimizer`]s can be derived
/// from it.
#[derive(Debug, Clone)]
pub struct Problem<'a> {
    netlist: &'a Netlist,
    library: &'a Library,
    timing: TimingConfig,
    d_fast: Time,
    d_slow: Time,
    tables: HashMap<GateKind, KindTable>,
    /// Every (kind, mode) tri-level bound table, back to back; see
    /// [`Problem::bound_table`].
    bound_tables: Vec<f64>,
    /// Transitive fanout gates of each primary input (by input position).
    tfo: Vec<Vec<GateId>>,
}

impl<'a> Problem<'a> {
    /// Builds a problem instance.
    ///
    /// # Errors
    ///
    /// Returns an error if the netlist uses gate kinds missing from the
    /// library (map it to primitives first).
    pub fn new(
        netlist: &'a Netlist,
        library: &'a Library,
        timing: TimingConfig,
    ) -> Result<Self, OptError> {
        let mut sta = Sta::new(netlist, library, timing)?;
        let d_fast = sta.max_delay();
        sta.set_all_slow();
        let d_slow = sta.max_delay();

        let mut tables = HashMap::new();
        let mut bound_tables = Vec::new();
        for (_, gate) in netlist.gates() {
            let kind = gate.kind();
            if tables.contains_key(&kind) {
                continue;
            }
            let mut table = Self::build_table(library, kind)?;
            for (offset, min_leak) in table.bound_offset.iter_mut().zip(&table.min_leak) {
                *offset = bound_tables.len();
                bound_tables.extend(tri_level_bounds(min_leak, kind.arity()));
            }
            tables.insert(kind, table);
        }
        let tfo = transitive_fanouts(netlist);
        Ok(Self {
            netlist,
            library,
            timing,
            d_fast,
            d_slow,
            tables,
            bound_tables,
            tfo,
        })
    }

    fn build_table(library: &Library, kind: GateKind) -> Result<KindTable, OptError> {
        let cell = library.cell(kind)?;
        let arity = kind.arity();
        let nstates = 1usize << arity;
        let mut allowed: [Vec<Vec<u8>>; 3] = std::array::from_fn(|_| Vec::with_capacity(nstates));
        let mut min_leak: [Vec<f64>; 3] = std::array::from_fn(|_| Vec::with_capacity(nstates));
        let mut fast_leak = Vec::with_capacity(nstates);
        let mut fast_index = Vec::with_capacity(nstates);
        for state in InputState::all(arity) {
            let opts = cell.options_for(state);
            let fast_idx = opts
                .iter()
                .position(|o| o.version() == cell.fast_version())
                .expect("every state offers the fast option") as u8;
            fast_leak.push(opts[fast_idx as usize].leakage().value());
            fast_index.push(fast_idx);
            for (mi, mode) in Mode::ALL.iter().enumerate() {
                let idxs: Vec<u8> = opts
                    .iter()
                    .enumerate()
                    .filter(|(i, o)| match mode {
                        Mode::Proposed => true,
                        Mode::StateAndVt => {
                            *i == fast_idx as usize || !uses_thick(cell.version(o.version()))
                        }
                        Mode::StateOnly => *i == fast_idx as usize,
                    })
                    .map(|(i, _)| i as u8)
                    .collect();
                let min = idxs
                    .iter()
                    .map(|&i| opts[i as usize].leakage().value())
                    .fold(f64::INFINITY, f64::min);
                allowed[mi].push(idxs);
                min_leak[mi].push(min);
            }
        }
        Ok(KindTable {
            allowed,
            min_leak,
            fast_leak,
            fast_index,
            bound_offset: [0; 3],
        })
    }

    /// The netlist.
    #[must_use]
    pub fn netlist(&self) -> &'a Netlist {
        self.netlist
    }

    /// The library.
    #[must_use]
    pub fn library(&self) -> &'a Library {
        self.library
    }

    /// The timing boundary conditions.
    #[must_use]
    pub fn timing(&self) -> TimingConfig {
        self.timing
    }

    /// Circuit delay with every gate at its fast version.
    #[must_use]
    pub fn d_fast(&self) -> Time {
        self.d_fast
    }

    /// Circuit delay with every device high-Vt and thick-ox.
    #[must_use]
    pub fn d_slow(&self) -> Time {
        self.d_slow
    }

    /// The absolute delay budget for a normalized penalty.
    #[must_use]
    pub fn delay_budget(&self, penalty: DelayPenalty) -> Time {
        self.d_fast + (self.d_slow - self.d_fast) * penalty.fraction()
    }

    /// Creates an optimizer for a penalty and mode.
    #[must_use]
    pub fn optimizer(&'a self, penalty: DelayPenalty, mode: Mode) -> Optimizer<'a> {
        Optimizer::new(self, penalty, mode)
    }

    /// Allowed option indices (ascending leakage) for a gate kind, state and
    /// mode.
    ///
    /// # Panics
    ///
    /// Panics if the kind is not part of this problem's netlist.
    #[must_use]
    pub fn allowed(&self, kind: GateKind, state: InputState, mode: Mode) -> &[u8] {
        &self.table(kind).allowed[mode_index(mode)][state.bits() as usize]
    }

    /// Minimum reachable leakage for a gate kind in a state under a mode
    /// (ignoring delay — a valid lower bound).
    #[must_use]
    pub fn min_leak(&self, kind: GateKind, state: InputState, mode: Mode) -> Current {
        Current::new(self.table(kind).min_leak[mode_index(mode)][state.bits() as usize])
    }

    /// Offset of the (kind, mode) tri-level bound table within
    /// [`Problem::bound_tables`]. Entry `offset + code` is the minimum of
    /// [`Problem::min_leak`] over every state a gate's three-valued pin
    /// levels allow, where `code = Σ trit(pin i)·3^i` with `0`/`1`/`X`
    /// as trits `0`/`1`/`2`.
    pub(crate) fn bound_table(&self, kind: GateKind, mode: Mode) -> usize {
        self.table(kind).bound_offset[mode_index(mode)]
    }

    /// Every (kind, mode) tri-level bound table (3^arity entries each).
    pub(crate) fn bound_tables(&self) -> &[f64] {
        &self.bound_tables
    }

    /// Leakage of the fast option in a state.
    #[must_use]
    pub fn fast_leak(&self, kind: GateKind, state: InputState) -> Current {
        Current::new(self.table(kind).fast_leak[state.bits() as usize])
    }

    /// Index of the fast option within `options_for(state)`.
    #[must_use]
    pub fn fast_index(&self, kind: GateKind, state: InputState) -> u8 {
        self.table(kind).fast_index[state.bits() as usize]
    }

    /// The option object for a `(kind, state, option index)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    #[must_use]
    pub fn option(&self, kind: GateKind, state: InputState, index: u8) -> &'a StateOption {
        let cell = self
            .library
            .cell(kind)
            .expect("problem construction validated all kinds");
        &cell.options_for(state)[index as usize]
    }

    /// The transitive-fanout gates of a primary input (by input position).
    #[must_use]
    pub fn tfo(&self, input_index: usize) -> &[GateId] {
        &self.tfo[input_index]
    }

    fn table(&self, kind: GateKind) -> &KindTable {
        self.tables
            .get(&kind)
            .expect("problem construction covered every kind in the netlist")
    }
}

fn mode_index(mode: Mode) -> usize {
    match mode {
        Mode::StateOnly => 0,
        Mode::StateAndVt => 1,
        Mode::Proposed => 2,
    }
}

fn uses_thick(version: &svtox_cells::CellVersion) -> bool {
    version
        .assignment()
        .iter()
        .any(|&(_, tox)| tox == OxideClass::Thick)
}

/// `[code] ->` the minimum of `min_leak[state]` over the states a
/// tri-level pin code allows (see [`Problem::bound_table`]). An `X` pin
/// admits both of its values, a decided pin only its own.
fn tri_level_bounds(min_leak: &[f64], arity: usize) -> Vec<f64> {
    (0..3usize.pow(arity as u32))
        .map(|code| {
            (0..1usize << arity)
                .filter(|&bits| {
                    (0..arity).all(|pin| {
                        let trit = code / 3usize.pow(pin as u32) % 3;
                        trit == 2 || trit == bits >> pin & 1
                    })
                })
                .map(|bits| min_leak[bits])
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// Computes per-primary-input transitive fanout gate sets.
fn transitive_fanouts(netlist: &Netlist) -> Vec<Vec<GateId>> {
    let n_gates = netlist.num_gates();
    let mut result = Vec::with_capacity(netlist.num_inputs());
    let mut seen = vec![u32::MAX; n_gates];
    for (ii, &pi) in netlist.inputs().iter().enumerate() {
        let mark = ii as u32;
        let mut cone = Vec::new();
        let mut stack: Vec<GateId> = netlist.net(pi).fanouts().iter().map(|&(g, _)| g).collect();
        while let Some(g) = stack.pop() {
            if seen[g.index()] == mark {
                continue;
            }
            seen[g.index()] = mark;
            cone.push(g);
            let out = netlist.gate(g).output();
            stack.extend(netlist.net(out).fanouts().iter().map(|&(g2, _)| g2));
        }
        // Sorting keeps downstream iteration cache-friendly and
        // deterministic.
        cone.sort_unstable();
        result.push(cone);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use svtox_cells::LibraryOptions;
    use svtox_netlist::generators::benchmark;
    use svtox_tech::Technology;

    fn setup() -> (Netlist, Library) {
        (
            benchmark("c432").unwrap(),
            Library::new(Technology::predictive_65nm(), LibraryOptions::default()).unwrap(),
        )
    }

    #[test]
    fn delay_normalization() {
        let (n, lib) = setup();
        let p = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        assert!(p.d_slow() > p.d_fast());
        let b0 = p.delay_budget(DelayPenalty::new(0.0).unwrap());
        let b100 = p.delay_budget(DelayPenalty::new(1.0).unwrap());
        assert_eq!(b0, p.d_fast());
        assert_eq!(b100, p.d_slow());
        let b5 = p.delay_budget(DelayPenalty::five_percent());
        assert!(b5 > b0 && b5 < b100);
    }

    #[test]
    fn penalty_validation() {
        assert!(DelayPenalty::new(-0.1).is_err());
        assert!(DelayPenalty::new(1.1).is_err());
        assert_eq!(DelayPenalty::new(0.25).unwrap().fraction(), 0.25);
    }

    #[test]
    fn mode_tables_nest() {
        let (n, lib) = setup();
        let p = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        for kind in [GateKind::Nand(2), GateKind::Nor(2), GateKind::Inv] {
            for state in InputState::all(kind.arity()) {
                let proposed = p.allowed(kind, state, Mode::Proposed);
                let vt = p.allowed(kind, state, Mode::StateAndVt);
                let only = p.allowed(kind, state, Mode::StateOnly);
                assert!(only.len() == 1);
                assert!(vt.len() <= proposed.len());
                assert!(!proposed.is_empty());
                // Min leak is monotone: more knobs, lower floor.
                assert!(
                    p.min_leak(kind, state, Mode::Proposed)
                        <= p.min_leak(kind, state, Mode::StateAndVt)
                );
                assert!(
                    p.min_leak(kind, state, Mode::StateAndVt)
                        <= p.min_leak(kind, state, Mode::StateOnly)
                );
                // StateOnly's single option is the fast one.
                assert_eq!(only[0], p.fast_index(kind, state));
            }
        }
    }

    #[test]
    fn vt_mode_never_uses_thick_oxide() {
        let (n, lib) = setup();
        let p = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let cell = lib.cell(GateKind::Nand(2)).unwrap();
        for state in InputState::all(2) {
            for &idx in p.allowed(GateKind::Nand(2), state, Mode::StateAndVt) {
                let opt = p.option(GateKind::Nand(2), state, idx);
                if idx == p.fast_index(GateKind::Nand(2), state) {
                    continue;
                }
                assert!(!uses_thick(cell.version(opt.version())));
            }
        }
    }

    #[test]
    fn bound_tables_fold_every_allowed_state() {
        let (n, lib) = setup();
        let p = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        let kinds: std::collections::HashSet<GateKind> = n.gates().map(|(_, g)| g.kind()).collect();
        for kind in kinds {
            let arity = kind.arity();
            for mode in Mode::ALL {
                let off = p.bound_table(kind, mode);
                let table = &p.bound_tables()[off..off + 3usize.pow(arity as u32)];
                // All-X covers every state; a fully decided code is that
                // state's own minimum.
                let all_x = table[table.len() - 1];
                for state in InputState::all(arity) {
                    let leak = p.min_leak(kind, state, mode).value();
                    assert!(all_x <= leak);
                    let bits = state.bits() as usize;
                    let code: usize = (0..arity)
                        .map(|pin| (bits >> pin & 1) * 3usize.pow(pin as u32))
                        .sum();
                    assert_eq!(table[code].to_bits(), leak.to_bits(), "{kind} {state}");
                }
            }
        }
    }

    #[test]
    fn tfo_cones_are_complete() {
        let (n, lib) = setup();
        let p = Problem::new(&n, &lib, TimingConfig::default()).unwrap();
        // Every gate fed directly by an input must be in that input's cone.
        for (ii, &pi) in n.inputs().iter().enumerate() {
            let cone = p.tfo(ii);
            for &(g, _) in n.net(pi).fanouts() {
                assert!(cone.contains(&g));
            }
            // Cones are sorted and duplicate-free.
            assert!(cone.windows(2).all(|w| w[0] < w[1]));
        }
        // Total cone mass is positive and bounded.
        let total: usize = (0..n.num_inputs()).map(|i| p.tfo(i).len()).sum();
        assert!(total >= n.num_gates());
        assert!(total <= n.num_gates() * n.num_inputs());
    }
}
