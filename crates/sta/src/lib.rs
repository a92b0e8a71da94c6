//! Static timing analysis for the svtox workspace.
//!
//! [`Sta`] propagates rise/fall arrival times and transition times (slews)
//! through a primitive netlist using the precharacterized NLDM-style tables
//! of a [`svtox_cells::Library`]. Because every primitive cell inverts,
//! an output **rise** is launched by an input **fall** and vice versa — the
//! engine tracks both polarities, which is what makes the library's
//! asymmetric trade-off points (fast-rise vs fast-fall versions) meaningful.
//!
//! The optimizer swaps cell versions one gate at a time;
//! [`Sta::set_gate`] + [`Sta::max_delay`] re-propagate only the affected
//! cone (a version change perturbs the gate's own drive *and* the loads of
//! its fanin nets, so the update seeds include the fanin drivers).
//! [`Sta::try_option`] is the same update as a trial against a delay
//! limit: it stops at the first primary output past the limit and rolls a
//! rejected trial back exactly, and a [`Leaf`] scope journals accepted
//! trials so the whole sequence is undone when the scope ends.
//!
//! # Example
//!
//! ```
//! use svtox_cells::{Library, LibraryOptions};
//! use svtox_netlist::generators::benchmark;
//! use svtox_sta::{Sta, TimingConfig};
//! use svtox_tech::Technology;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let lib = Library::new(Technology::predictive_65nm(), LibraryOptions::default())?;
//! let c432 = benchmark("c432")?;
//! let mut sta = Sta::new(&c432, &lib, TimingConfig::default())?;
//! let d_fast = sta.max_delay();
//! sta.set_all_slow();
//! let d_slow = sta.max_delay();
//! assert!(d_slow > d_fast); // the all-slow design nearly doubles delay
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeSet;

use svtox_cells::{CellData, Library, LibraryError, StateOption, VersionId, MAX_ARITY};
use svtox_netlist::{GateId, NetId, Netlist};
use svtox_tech::{AxisSegment, Capacitance, SlewLoadGrid, Time};

/// Boundary conditions of the analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingConfig {
    /// Transition time assumed at every primary input.
    pub primary_input_slew: Time,
    /// Capacitive load on every primary output.
    pub primary_output_load: Capacitance,
    /// Estimated wire capacitance per fanout connection.
    pub wire_cap_per_fanout: Capacitance,
}

impl Default for TimingConfig {
    fn default() -> Self {
        Self {
            primary_input_slew: Time::new(20.0),
            primary_output_load: Capacitance::new(4.0),
            wire_cap_per_fanout: Capacitance::new(0.3),
        }
    }
}

/// The cell configuration of one gate: a physical version plus the pin
/// permutation routing logical pins onto physical pins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateConfig {
    /// The physical version in the gate's cell.
    pub version: VersionId,
    /// `perm[i]` = logical pin routed to physical pin `i`.
    pub perm: Vec<u8>,
}

impl GateConfig {
    /// Identity-routed configuration of a version.
    #[must_use]
    pub fn identity(version: VersionId, arity: usize) -> Self {
        Self {
            version,
            perm: (0..arity as u8).collect(),
        }
    }

    /// The physical pin a logical pin is routed to.
    ///
    /// # Panics
    ///
    /// Panics if `logical` is out of range.
    #[must_use]
    pub fn physical_pin(&self, logical: usize) -> usize {
        self.perm
            .iter()
            .position(|&p| p as usize == logical)
            .expect("GateConfig invariant: perm is a permutation covering every logical pin")
    }
}

impl From<&StateOption> for GateConfig {
    fn from(opt: &StateOption) -> Self {
        Self {
            version: opt.version(),
            perm: opt.perm().to_vec(),
        }
    }
}

/// The identity routing of the widest cell; a prefix serves every arity.
const IDENTITY: [u8; MAX_ARITY] = [0, 1, 2, 3];

/// The logical → physical pin map of a routing (`perm[i]` = logical pin
/// routed to physical pin `i`). A pin no entry routes maps to `u8::MAX`,
/// which no arc lookup accepts.
fn inverse(perm: &[u8]) -> [u8; MAX_ARITY] {
    let mut physical = [u8::MAX; MAX_ARITY];
    for (i, &logical) in perm.iter().enumerate() {
        physical[usize::from(logical)] = i as u8;
    }
    debug_assert!(
        physical[..perm.len()].iter().all(|&p| p != u8::MAX),
        "perm {perm:?} is not a permutation"
    );
    physical
}

/// Cumulative work counters of one analyzer.
///
/// Plain `Copy` data with no dependency on any metrics subsystem: callers
/// that want these in a registry snapshot them before and after a phase
/// and publish the delta. Cloning an analyzer clones its counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StaCounters {
    /// Full (non-incremental) analyses: construction plus [`Sta::recompute`].
    pub full_analyzes: u64,
    /// Incremental flushes that had pending dirty gates to process.
    pub flushes: u64,
    /// Gate evaluations, across full analyses and incremental flushes
    /// (a flush may re-evaluate more gates than were marked dirty, as
    /// changes ripple through fanout).
    pub gates_reevaluated: u64,
    /// Largest dirty-set size observed at the start of a flush.
    pub max_dirty: u64,
    /// Trials: [`Sta::try_option`] and [`Leaf::try_option`] calls.
    pub trials: u64,
    /// Trials rejected (and rolled back) because the delay passed the
    /// limit.
    pub trials_rejected: u64,
    /// The part of `gates_reevaluated` spent in the flushes of rejected
    /// trials: work that a rollback discards.
    pub gates_reevaluated_rejected: u64,
}

/// The four values a gate evaluation computes for its output net.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Timing {
    arr_rise: Time,
    arr_fall: Time,
    slew_rise: Time,
    slew_fall: Time,
}

impl Timing {
    fn worst(&self) -> Time {
        self.arr_rise.max(self.arr_fall)
    }

    fn close_to(&self, other: &Timing) -> bool {
        const EPS: f64 = 1e-9;
        (self.arr_rise - other.arr_rise).abs() < EPS
            && (self.arr_fall - other.arr_fall).abs() < EPS
            && (self.slew_rise - other.slew_rise).abs() < EPS
            && (self.slew_fall - other.slew_fall).abs() < EPS
    }
}

/// Per-net timing state: worst rise/fall arrivals and slews, with both
/// slews located on the library's slew axis.
///
/// Every write locates the value it stores, so the positions are always
/// those of the stored slews, and an undo entry that restores a
/// `NetTiming` restores a value together with its positions.
#[derive(Debug, Clone, Copy, PartialEq)]
struct NetTiming {
    value: Timing,
    /// `value.slew_rise` on the slew axis.
    rise_at: AxisSegment,
    /// `value.slew_fall` on the slew axis.
    fall_at: AxisSegment,
}

impl NetTiming {
    fn locate(value: Timing, axes: &SlewLoadGrid) -> Self {
        Self {
            value,
            rise_at: axes.slew_segment(value.slew_rise),
            fall_at: axes.slew_segment(value.slew_fall),
        }
    }
}

/// The netlist's connectivity as flat arrays, built once per analyzer so
/// the propagation loop never walks the netlist's own structures.
#[derive(Debug, Clone)]
struct Graph {
    /// Per gate: its output net.
    gate_out: Vec<NetId>,
    /// Per gate: its level (a fanout's level is above its driver's).
    level: Vec<u32>,
    /// Per gate `g`: its input nets are `fanin[fanin_start[g]..fanin_start[g + 1]]`.
    fanin_start: Vec<u32>,
    fanin: Vec<NetId>,
    /// Per net: its driver, `None` for a primary input.
    driver: Vec<Option<GateId>>,
    /// Per net `n`: its consuming `(gate, pin)` pairs are
    /// `fanout[fanout_start[n]..fanout_start[n + 1]]`.
    fanout_start: Vec<u32>,
    fanout: Vec<(GateId, u8)>,
    /// Per net: whether it is a primary output.
    is_po: Vec<bool>,
}

impl Graph {
    /// O(gates + pins).
    fn new(netlist: &Netlist) -> Self {
        let (gates, nets) = (netlist.num_gates(), netlist.num_nets());
        let mut graph = Self {
            gate_out: Vec::with_capacity(gates),
            level: Vec::with_capacity(gates),
            fanin_start: Vec::with_capacity(gates + 1),
            fanin: Vec::new(),
            driver: Vec::with_capacity(nets),
            fanout_start: Vec::with_capacity(nets + 1),
            fanout: Vec::new(),
            is_po: vec![false; nets],
        };
        graph.fanin_start.push(0);
        for (gid, gate) in netlist.gates() {
            graph.gate_out.push(gate.output());
            graph.level.push(netlist.level(gid));
            graph.fanin.extend_from_slice(gate.inputs());
            graph.fanin_start.push(graph.fanin.len() as u32);
        }
        graph.fanout_start.push(0);
        for (_, net) in netlist.nets() {
            graph.driver.push(net.driver());
            graph.fanout.extend_from_slice(net.fanouts());
            graph.fanout_start.push(graph.fanout.len() as u32);
        }
        for &o in netlist.outputs() {
            graph.is_po[o.index()] = true;
        }
        graph
    }

    fn fanin(&self, gate: usize) -> &[NetId] {
        &self.fanin[self.fanin_start[gate] as usize..self.fanin_start[gate + 1] as usize]
    }

    fn fanouts(&self, net: usize) -> &[(GateId, u8)] {
        &self.fanout[self.fanout_start[net] as usize..self.fanout_start[net + 1] as usize]
    }
}

/// The flush queue: one bucket of gates per level, swept upward.
///
/// A bucket is sorted by gate id when the sweep reaches it, and the
/// propagation only queues fanouts, whose levels are above the gate being
/// evaluated, so nothing is ever queued below the sweep: gates pop in
/// exactly `(level, gid)` order. The buckets keep their capacity between
/// flushes, so a trial allocates nothing.
#[derive(Debug, Clone)]
struct LevelQueue {
    buckets: Vec<Vec<GateId>>,
    /// Gates queued.
    len: usize,
    /// No bucket below this level holds a gate (meaningful while `len > 0`).
    low: usize,
}

impl LevelQueue {
    fn new(depth: usize) -> Self {
        Self {
            buckets: vec![Vec::new(); depth + 1],
            len: 0,
            low: 0,
        }
    }

    fn push(&mut self, gate: GateId, level: u32) {
        let level = level as usize;
        if self.len == 0 || level < self.low {
            self.low = level;
        }
        self.len += 1;
        self.buckets[level].push(gate);
    }
}

/// One relaxed gate input's floor, with the positions it was computed at.
///
/// A relaxed floor reads only the cell's distinct tables (fixed per gate)
/// at the input's two slew positions and the output load's position, never
/// the gate's version or routing, so a slot whose positions equal the
/// current ones bit for bit holds exactly what a fresh computation returns.
#[derive(Debug, Clone, Copy)]
struct FloorSlot {
    /// The input's rise and fall slew positions and the output load's.
    at: [AxisSegment; 3],
    floor: InputFloor,
}

/// Per logical input of a relaxed gate: the minimum delay and output slew
/// over the cell's distinct rise tables (at the input's fall slew) and
/// fall tables (at its rise slew).
#[derive(Debug, Clone, Copy)]
struct InputFloor {
    d_rise: Time,
    slew_rise: Time,
    d_fall: Time,
    slew_fall: Time,
}

impl InputFloor {
    fn compute(
        cell: &CellData,
        rise_at: AxisSegment,
        fall_at: AxisSegment,
        load: AxisSegment,
    ) -> Self {
        let inf = Time::new(f64::INFINITY);
        let mut floor = Self {
            d_rise: inf,
            slew_rise: inf,
            d_fall: inf,
            slew_fall: inf,
        };
        for table in cell.rise_tables() {
            let (d, slew) = table.lookup_at(fall_at, load);
            floor.d_rise = floor.d_rise.min(d);
            floor.slew_rise = floor.slew_rise.min(slew);
        }
        for table in cell.fall_tables() {
            let (d, slew) = table.lookup_at(rise_at, load);
            floor.d_fall = floor.d_fall.min(d);
            floor.slew_fall = floor.slew_fall.min(slew);
        }
        floor
    }
}

/// A gate's configuration and relaxation, saved for an undo.
#[derive(Debug, Clone, Copy)]
struct SavedGate {
    gate: GateId,
    version: VersionId,
    relaxed: bool,
    /// The routing; only the gate's arity's prefix is meaningful.
    perm: [u8; MAX_ARITY],
}

/// Undo state of [`Sta::try_option`] and of a [`Leaf`] scope.
///
/// The trial log holds the old value of every net timing one trial
/// writes; a flush pops each gate once, so that is at most one entry per
/// net. The leaf journal holds only the *first* old value of each net
/// timing and gate configuration an accepted trial changed since the leaf
/// began (the `saved_*` bitmaps dedupe), so it is bounded by the net and
/// gate counts however many trials a leaf accepts. Loads are not logged:
/// a load is a function of its consumers' configurations, so restoring a
/// configuration and refreshing the loads of the gate's fanin nets
/// restores their bits.
#[derive(Debug, Clone)]
struct UndoLog {
    trial_timing: Vec<(NetId, NetTiming)>,
    /// The gate before the trial, when the trial changed it.
    trial_gate: Option<SavedGate>,
    saved_timing: Vec<bool>,
    saved_gate: Vec<bool>,
    leaf_timing: Vec<(NetId, NetTiming)>,
    leaf_gates: Vec<SavedGate>,
}

impl UndoLog {
    fn new(netlist: &Netlist) -> Self {
        let (nets, gates) = (netlist.num_nets(), netlist.num_gates());
        Self {
            trial_timing: Vec::new(),
            trial_gate: None,
            saved_timing: vec![false; nets],
            saved_gate: vec![false; gates],
            leaf_timing: Vec::new(),
            leaf_gates: Vec::new(),
        }
    }
}

/// The static timing engine.
///
/// Holds the current per-gate cell configuration and keeps arrival/slew
/// state incrementally up to date as configurations change.
#[derive(Debug, Clone)]
pub struct Sta<'a> {
    netlist: &'a Netlist,
    config: TimingConfig,
    /// The slew and load axes every arc table of the library shares.
    axes: &'a SlewLoadGrid,
    graph: Graph,
    cells: Vec<&'a CellData>,
    gate_configs: Vec<GateConfig>,
    /// Per gate, the logical → physical pin map of its routing, written
    /// with every configuration.
    physical: Vec<[u8; MAX_ARITY]>,
    /// Gates evaluated as floor bounds instead of concrete configurations.
    relaxed: Vec<bool>,
    timing: Vec<NetTiming>,
    loads: Vec<Capacitance>,
    /// Per net, its load located on the load axis (written with the load).
    load_at: Vec<AxisSegment>,
    /// Whether each gate is in the queue.
    queued: Vec<bool>,
    queue: LevelQueue,
    undo: UndoLog,
    /// Per fan-in pin (indexed like `graph.fanin`), the last floor a
    /// relaxed evaluation computed there. Empty until some gate is
    /// evaluated relaxed.
    floor_memo: Vec<Option<FloorSlot>>,
    counters: StaCounters,
}

impl<'a> Sta<'a> {
    /// Creates an analyzer with every gate at its fast version.
    ///
    /// # Errors
    ///
    /// Returns an error if the netlist contains a gate kind absent from the
    /// library (run `map_to_primitives` first).
    pub fn new(
        netlist: &'a Netlist,
        library: &'a Library,
        config: TimingConfig,
    ) -> Result<Self, LibraryError> {
        let mut sta = Self::unanalyzed(netlist, library, config)?;
        sta.full_analyze();
        Ok(sta)
    }

    /// Creates an analyzer for an **edited** netlist by carrying over a
    /// previous analyzer's state instead of starting cold.
    ///
    /// `gate_map` / `net_map` map pre-edit ids to post-edit ids (`None` for
    /// removed entities — an `EditTrace` provides exactly this), and `dirty`
    /// is the post-edit dirty-net set from `Netlist::take_dirty`. Surviving
    /// gates keep `prev`'s cell configurations and relaxation flags;
    /// surviving nets keep `prev`'s arrival/slew state. Only the dirty cone
    /// — drivers and consumers of dirty nets, plus gates with no pre-edit
    /// counterpart — is re-evaluated (deferred to the first query, like
    /// [`Sta::set_gate`]), and changes ripple outward only as far as they
    /// actually move arrivals.
    ///
    /// The result is numerically identical (within the engine's internal
    /// epsilon) to a full analysis of the edited netlist at the same
    /// configurations; new gates start at their fast version.
    ///
    /// # Errors
    ///
    /// Returns an error if the netlist contains a gate kind absent from the
    /// library.
    ///
    /// # Panics
    ///
    /// Panics if a map entry points outside the edited netlist or a carried
    /// gate changed arity (maps not produced by the corresponding edit).
    pub fn new_incremental(
        netlist: &'a Netlist,
        library: &'a Library,
        config: TimingConfig,
        prev: &mut Sta<'_>,
        gate_map: &[Option<GateId>],
        net_map: &[Option<NetId>],
        dirty: &BTreeSet<NetId>,
    ) -> Result<Self, LibraryError> {
        prev.flush();
        let mut sta = Self::unanalyzed(netlist, library, config)?;
        let mut carried = vec![false; netlist.num_gates()];
        for (old, &mapped) in gate_map.iter().enumerate() {
            if let Some(new) = mapped {
                let cfg = &prev.gate_configs[old];
                assert_eq!(
                    cfg.perm.len(),
                    sta.graph.fanin(new.index()).len(),
                    "carried gate changed arity: stale gate_map?"
                );
                sta.write_config(new.index(), cfg.version, &cfg.perm);
                sta.relaxed[new.index()] = prev.relaxed[old];
                carried[new.index()] = true;
            }
        }
        for (old, &mapped) in net_map.iter().enumerate() {
            if let Some(new) = mapped {
                sta.timing[new.index()] = NetTiming::locate(prev.timing[old].value, sta.axes);
            }
        }
        for net in 0..netlist.num_nets() {
            sta.refresh_load(net);
        }
        let input = sta.input_timing();
        for &pi in netlist.inputs() {
            sta.timing[pi.index()] = input;
        }
        // Seed the dirty cone: anything touching an edited net, plus gates
        // the edit created (no carried state to trust).
        for &net in dirty {
            if let Some(driver) = sta.graph.driver[net.index()] {
                sta.mark_dirty(driver);
            }
            for k in sta.graph.fanout_start[net.index()]..sta.graph.fanout_start[net.index() + 1] {
                sta.mark_dirty(sta.graph.fanout[k as usize].0);
            }
        }
        for (gid, _) in netlist.gates() {
            if !carried[gid.index()] {
                sta.mark_dirty(gid);
            }
        }
        Ok(sta)
    }

    /// Every gate at its fast version, nothing analyzed yet.
    fn unanalyzed(
        netlist: &'a Netlist,
        library: &'a Library,
        config: TimingConfig,
    ) -> Result<Self, LibraryError> {
        let cells: Vec<&CellData> = netlist
            .gates()
            .map(|(_, g)| library.cell(g.kind()))
            .collect::<Result<_, _>>()?;
        let gate_configs = cells
            .iter()
            .map(|cell| GateConfig::identity(cell.fast_version(), cell.arity()))
            .collect();
        let graph = Graph::new(netlist);
        let axes = library.axes();
        let (gates, nets) = (netlist.num_gates(), netlist.num_nets());
        Ok(Self {
            netlist,
            config,
            axes,
            queue: LevelQueue::new(netlist.depth()),
            graph,
            cells,
            gate_configs,
            physical: vec![IDENTITY; gates],
            relaxed: vec![false; gates],
            timing: vec![NetTiming::locate(Timing::default(), axes); nets],
            loads: vec![Capacitance::ZERO; nets],
            load_at: vec![axes.load_segment(Capacitance::ZERO); nets],
            queued: vec![false; gates],
            undo: UndoLog::new(netlist),
            floor_memo: Vec::new(),
            counters: StaCounters::default(),
        })
    }

    /// The netlist under analysis.
    #[must_use]
    pub fn netlist(&self) -> &'a Netlist {
        self.netlist
    }

    /// Cumulative work counters since construction.
    #[must_use]
    pub fn counters(&self) -> StaCounters {
        self.counters
    }

    /// The current configuration of a gate.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn gate_config(&self, gate: GateId) -> &GateConfig {
        &self.gate_configs[gate.index()]
    }

    /// Reconfigures one gate. The timing update is deferred to the next
    /// query ([`Sta::max_delay`] / [`Sta::arrival`]).
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range or the permutation arity mismatches.
    pub fn set_gate(&mut self, gate: GateId, config: GateConfig) {
        self.set_option(gate, config.version, &config.perm);
    }

    /// Reconfigures one gate to a version and pin permutation (`perm[i]` =
    /// logical pin routed to physical pin `i`), written in place: what
    /// [`Sta::set_gate`] does without building a [`GateConfig`]. The timing
    /// update is deferred to the next query.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range or the permutation arity mismatches.
    pub fn set_option(&mut self, gate: GateId, version: VersionId, perm: &[u8]) {
        let g = gate.index();
        assert_eq!(perm.len(), self.graph.fanin(g).len(), "perm arity mismatch");
        let cfg = &self.gate_configs[g];
        if cfg.version == version && cfg.perm == perm {
            return;
        }
        self.write_config(g, version, perm);
        self.reconfigured(gate);
    }

    /// Reconfigures one gate to a version and pin permutation and
    /// un-relaxes it: [`Sta::set_option`] followed by
    /// [`Sta::set_relaxed`]`(gate, false)`, bit for bit, with one
    /// re-scheduling instead of two. The timing update is deferred to the
    /// next query.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range or the permutation arity mismatches.
    pub fn decide(&mut self, gate: GateId, version: VersionId, perm: &[u8]) {
        let g = gate.index();
        assert_eq!(perm.len(), self.graph.fanin(g).len(), "perm arity mismatch");
        if !self.is_decided_as(g, version, perm) {
            self.write_decided(gate, version, perm);
        }
    }

    /// Tries one gate at a version and pin permutation against a delay
    /// limit: accepts (returns `true`) exactly when [`Sta::set_option`] +
    /// un-relaxing the gate + [`Sta::max_delay`] would give a delay
    /// `<= limit`, and on accept leaves the analyzer bit for bit where
    /// that sequence would.
    ///
    /// Anything pending is flushed first. The trial's flush stops as soon
    /// as a primary output is written past `limit` (a popped gate is never
    /// re-queued within a flush, so that arrival is final), and a rejected
    /// trial is rolled back from a log of the old values it overwrote: the
    /// gate's configuration and relaxation, and every net timing and load,
    /// return to their pre-trial bits with nothing left pending.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range or the permutation arity mismatches.
    pub fn try_option(
        &mut self,
        gate: GateId,
        version: VersionId,
        perm: &[u8],
        limit: Time,
    ) -> bool {
        self.trial(gate, version, perm, limit, false)
    }

    /// Opens a [`Leaf`] scope: a run of [`Leaf::try_option`] trials whose
    /// accepted changes are all undone when the scope drops. Pending
    /// changes are flushed first, so the restored state is a flushed one.
    pub fn leaf(&mut self) -> Leaf<'_, 'a> {
        self.flush();
        debug_assert!(self.undo.leaf_gates.is_empty() && self.undo.leaf_timing.is_empty());
        Leaf { sta: self }
    }

    /// The bit patterns of every net's rise/fall arrival, rise/fall slew
    /// and load, in net order, after flushing pending changes: for exact
    /// comparisons between analyzers.
    pub fn net_bits(&mut self) -> Vec<[u64; 5]> {
        self.flush();
        self.timing
            .iter()
            .zip(&self.loads)
            .map(|(t, load)| {
                let t = &t.value;
                [
                    t.arr_rise.value().to_bits(),
                    t.arr_fall.value().to_bits(),
                    t.slew_rise.value().to_bits(),
                    t.slew_fall.value().to_bits(),
                    load.value().to_bits(),
                ]
            })
            .collect()
    }

    /// Returns one gate to its fast version with identity routing, in
    /// place.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn set_fast(&mut self, gate: GateId) {
        let version = self.cells[gate.index()].fast_version();
        self.set_identity(gate, version);
    }

    /// Marks a gate *relaxed*: its timing is evaluated as a floor — for
    /// every logical input the minimum arc delay, slew, and input
    /// capacitance over **all** versions × physical pins of its cell.
    ///
    /// A relaxed gate's output arrival is a valid lower bound on its
    /// arrival under *any* concrete configuration (the per-arc minimum even
    /// ignores that a real permutation must route pins distinctly), so
    /// [`Sta::max_delay`] with some gates relaxed lower-bounds the delay of
    /// every completion of the decided gates. Branch-and-bound searches use
    /// this for sound feasibility pruning: the identity-fast configuration
    /// is *not* such a bound, because a pin permutation can route a
    /// late-arriving signal onto a faster physical pin.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn set_relaxed(&mut self, gate: GateId, relaxed: bool) {
        if self.relaxed[gate.index()] == relaxed {
            return;
        }
        self.relaxed[gate.index()] = relaxed;
        self.reconfigured(gate);
    }

    /// Whether a gate is currently relaxed.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[must_use]
    pub fn is_relaxed(&self, gate: GateId) -> bool {
        self.relaxed[gate.index()]
    }

    /// Sets every gate to its fast version with identity routing.
    pub fn set_all_fast(&mut self) {
        for (gid, _) in self.netlist.gates() {
            self.set_fast(gid);
        }
    }

    /// Sets every gate to the synthetic all-slow version (the paper's
    /// delay-penalty normalization reference).
    pub fn set_all_slow(&mut self) {
        for (gid, _) in self.netlist.gates() {
            let v = self.cells[gid.index()].all_slow_version();
            self.set_identity(gid, v);
        }
    }

    /// Worst arrival time over all primary outputs (the circuit delay).
    pub fn max_delay(&mut self) -> Time {
        self.flush();
        self.po_delay()
    }

    /// Worst (rise, fall) arrival at a net.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn arrival(&mut self, net: NetId) -> (Time, Time) {
        self.flush();
        let t = &self.timing[net.index()].value;
        (t.arr_rise, t.arr_fall)
    }

    /// Per-gate slack against a required circuit delay: the smallest margin
    /// by which any path through the gate meets `constraint`. Positive
    /// slack = timing met.
    ///
    /// Used by the optimizer to order gates (small slack = critical).
    pub fn slacks(&mut self, constraint: Time) -> Vec<Time> {
        self.flush();
        // Required times per net, backward pass (worst of rise/fall).
        let mut required = vec![Time::new(f64::INFINITY); self.netlist.num_nets()];
        for &o in self.netlist.outputs() {
            required[o.index()] = constraint;
        }
        for &gid in self.netlist.topo_order().iter().rev() {
            let g = gid.index();
            let req_out = required[self.graph.gate_out[g].index()];
            for (logical, &inp) in self.graph.fanin(g).iter().enumerate() {
                let cand = req_out - self.worst_arc_delay(g, logical);
                if cand < required[inp.index()] {
                    required[inp.index()] = cand;
                }
            }
        }
        self.graph
            .gate_out
            .iter()
            .map(|out| required[out.index()] - self.timing[out.index()].value.worst())
            .collect()
    }

    /// Extracts one critical path as gate ids from inputs to the worst
    /// output.
    pub fn critical_path(&mut self) -> Vec<GateId> {
        self.flush();
        let worst = |net: &&NetId| self.timing[net.index()].value.worst().value();
        let mut path = Vec::new();
        // Find the worst PO.
        let Some(&worst_po) = self
            .netlist
            .outputs()
            .iter()
            .max_by(|a, b| worst(a).total_cmp(&worst(b)))
        else {
            return path;
        };
        let mut net = worst_po;
        while let Some(gid) = self.graph.driver[net.index()] {
            path.push(gid);
            // Follow the worst-arrival fanin.
            net = *self
                .graph
                .fanin(gid.index())
                .iter()
                .max_by(|a, b| worst(a).total_cmp(&worst(b)))
                .expect("netlist invariant: every gate drives at least one input pin");
        }
        path.reverse();
        path
    }

    /// Forces a full (non-incremental) recomputation — used by tests to
    /// cross-check the incremental engine.
    pub fn recompute(&mut self) {
        self.drain_queue();
        self.full_analyze();
    }

    /// Writes a gate's version and routing, and the inverse routing the
    /// evaluations read.
    fn write_config(&mut self, g: usize, version: VersionId, perm: &[u8]) {
        let cfg = &mut self.gate_configs[g];
        cfg.version = version;
        cfg.perm.copy_from_slice(perm);
        self.physical[g] = inverse(perm);
    }

    /// Identity-routed `version`, written in place.
    fn set_identity(&mut self, gate: GateId, version: VersionId) {
        let g = gate.index();
        let cfg = &self.gate_configs[g];
        let identity = &IDENTITY[..cfg.perm.len()];
        if cfg.version == version && cfg.perm == identity {
            return;
        }
        self.write_config(g, version, identity);
        self.reconfigured(gate);
    }

    /// Schedules the re-evaluation a configuration or relaxation change
    /// needs: the gate's own delay changed, and its input caps changed the
    /// loads of its fanin nets, perturbing the fanin *drivers* too.
    fn reconfigured(&mut self, gate: GateId) {
        self.mark_dirty(gate);
        let g = gate.index();
        for k in self.graph.fanin_start[g]..self.graph.fanin_start[g + 1] {
            let net = self.graph.fanin[k as usize].index();
            self.refresh_load(net);
            if let Some(driver) = self.graph.driver[net] {
                self.mark_dirty(driver);
            }
        }
    }

    fn mark_dirty(&mut self, gate: GateId) {
        let g = gate.index();
        if !self.queued[g] {
            self.queued[g] = true;
            self.queue.push(gate, self.graph.level[g]);
        }
    }

    /// Applies pending configuration changes incrementally.
    fn flush(&mut self) {
        self.propagate::<false>(Time::ZERO);
    }

    /// Re-evaluates the queued gates and everything their changes reach, in
    /// `(level, gid)` order. A `TRIAL` propagation logs the old value of
    /// every net timing it writes and returns `false` as soon as it writes
    /// a primary output past `limit`, leaving the rest of the queue.
    fn propagate<const TRIAL: bool>(&mut self, limit: Time) -> bool {
        if self.queue.len == 0 {
            return true;
        }
        self.counters.flushes += 1;
        self.counters.max_dirty = self.counters.max_dirty.max(self.queue.len as u64);
        let mut level = self.queue.low;
        while self.queue.len > 0 {
            let mut bucket = std::mem::take(&mut self.queue.buckets[level]);
            bucket.sort_unstable();
            let mut i = 0;
            while i < bucket.len() {
                let gid = bucket[i];
                i += 1;
                self.queue.len -= 1;
                self.counters.gates_reevaluated += 1;
                let g = gid.index();
                self.queued[g] = false;
                let out = self.graph.gate_out[g];
                let o = out.index();
                let new = self.evaluate_gate(g);
                if new.close_to(&self.timing[o].value) {
                    continue;
                }
                if TRIAL {
                    self.undo.trial_timing.push((out, self.timing[o]));
                }
                self.timing[o] = NetTiming::locate(new, self.axes);
                if TRIAL && self.graph.is_po[o] && new.worst() > limit {
                    // The unswept rest of this level stays queued for the
                    // rollback to drain.
                    bucket.drain(..i);
                    self.queue.buckets[level] = bucket;
                    self.queue.low = level;
                    return false;
                }
                let Self {
                    graph,
                    queued,
                    queue,
                    ..
                } = &mut *self;
                for &(fanout, _pin) in graph.fanouts(o) {
                    debug_assert!(graph.level[fanout.index()] as usize > level);
                    if !queued[fanout.index()] {
                        queued[fanout.index()] = true;
                        queue.push(fanout, graph.level[fanout.index()]);
                    }
                }
            }
            bucket.clear();
            self.queue.buckets[level] = bucket;
            level += 1;
        }
        true
    }

    /// Empties the queue, un-marking every gate in it.
    fn drain_queue(&mut self) {
        let mut level = self.queue.low;
        while self.queue.len > 0 {
            for gid in self.queue.buckets[level].drain(..) {
                self.queued[gid.index()] = false;
                self.queue.len -= 1;
            }
            level += 1;
        }
    }

    /// [`Sta::try_option`], moving an accepted trial's old values into the
    /// leaf journal when `journal` is set.
    fn trial(
        &mut self,
        gate: GateId,
        version: VersionId,
        perm: &[u8],
        limit: Time,
        journal: bool,
    ) -> bool {
        let g = gate.index();
        assert_eq!(perm.len(), self.graph.fanin(g).len(), "perm arity mismatch");
        self.flush();
        self.undo.trial_gate = None;
        if !self.is_decided_as(g, version, perm) {
            self.undo.trial_gate = Some(self.saved_gate(gate));
            self.write_decided(gate, version, perm);
        }
        self.counters.trials += 1;
        let evaluated = self.counters.gates_reevaluated;
        let accepted = self.propagate::<true>(limit) && self.po_delay() <= limit;
        if !accepted {
            self.counters.trials_rejected += 1;
            self.counters.gates_reevaluated_rejected += self.counters.gates_reevaluated - evaluated;
            self.roll_back();
        } else if journal {
            self.keep_trial();
        }
        self.undo.trial_timing.clear();
        accepted
    }

    /// Whether a gate is un-relaxed at exactly this version and routing.
    fn is_decided_as(&self, g: usize, version: VersionId, perm: &[u8]) -> bool {
        let cfg = &self.gate_configs[g];
        cfg.version == version && cfg.perm == perm && !self.relaxed[g]
    }

    /// Writes a version and routing, un-relaxes the gate and schedules its
    /// re-evaluation once.
    fn write_decided(&mut self, gate: GateId, version: VersionId, perm: &[u8]) {
        self.write_config(gate.index(), version, perm);
        self.relaxed[gate.index()] = false;
        self.reconfigured(gate);
    }

    /// A gate's current configuration and relaxation.
    fn saved_gate(&self, gate: GateId) -> SavedGate {
        let cfg = &self.gate_configs[gate.index()];
        let mut perm = [0; MAX_ARITY];
        perm[..cfg.perm.len()].copy_from_slice(&cfg.perm);
        SavedGate {
            gate,
            version: cfg.version,
            relaxed: self.relaxed[gate.index()],
            perm,
        }
    }

    /// Writes a saved configuration and relaxation back (loads are the
    /// caller's to refresh).
    fn restore_gate(&mut self, saved: &SavedGate) {
        let g = saved.gate.index();
        let arity = self.gate_configs[g].perm.len();
        self.write_config(g, saved.version, &saved.perm[..arity]);
        self.relaxed[g] = saved.relaxed;
    }

    /// Undoes the trial in the log: drops what is left of its queue and
    /// restores every overwritten value, newest first.
    fn roll_back(&mut self) {
        self.drain_queue();
        for &(net, old) in self.undo.trial_timing.iter().rev() {
            self.timing[net.index()] = old;
        }
        if let Some(saved) = self.undo.trial_gate {
            self.restore_gate(&saved);
            self.refresh_fanin_loads(saved.gate);
        }
    }

    /// Recomputes the loads of a gate's fanin nets from the current
    /// configurations.
    fn refresh_fanin_loads(&mut self, gate: GateId) {
        let g = gate.index();
        for k in self.graph.fanin_start[g]..self.graph.fanin_start[g + 1] {
            self.refresh_load(self.graph.fanin[k as usize].index());
        }
    }

    /// Moves an accepted trial's old values into the leaf journal, keeping
    /// only the first save of each net timing and gate.
    fn keep_trial(&mut self) {
        let undo = &mut self.undo;
        for &(net, old) in &undo.trial_timing {
            if !std::mem::replace(&mut undo.saved_timing[net.index()], true) {
                undo.leaf_timing.push((net, old));
            }
        }
        if let Some(saved) = undo.trial_gate {
            if !std::mem::replace(&mut undo.saved_gate[saved.gate.index()], true) {
                undo.leaf_gates.push(saved);
            }
        }
    }

    /// Restores every value the leaf journal saved and empties it.
    fn restore_leaf(&mut self) {
        let undo = &mut self.undo;
        for (net, old) in undo.leaf_timing.drain(..) {
            self.timing[net.index()] = old;
            undo.saved_timing[net.index()] = false;
        }
        let gates = std::mem::take(&mut self.undo.leaf_gates);
        for saved in &gates {
            self.restore_gate(saved);
            self.undo.saved_gate[saved.gate.index()] = false;
        }
        // Every journaled gate is back first, so each refreshed load sums
        // entry-state configurations only.
        for saved in &gates {
            self.refresh_fanin_loads(saved.gate);
        }
        self.undo.leaf_gates = gates;
        self.undo.leaf_gates.clear();
    }

    /// Worst arrival over the primary outputs, as stored.
    fn po_delay(&self) -> Time {
        self.netlist
            .outputs()
            .iter()
            .map(|&o| self.timing[o.index()].value.worst())
            .fold(Time::ZERO, Time::max)
    }

    /// The timing of every primary input.
    fn input_timing(&self) -> NetTiming {
        let slew = self.config.primary_input_slew;
        let value = Timing {
            arr_rise: Time::ZERO,
            arr_fall: Time::ZERO,
            slew_rise: slew,
            slew_fall: slew,
        };
        NetTiming::locate(value, self.axes)
    }

    fn full_analyze(&mut self) {
        self.counters.full_analyzes += 1;
        self.counters.gates_reevaluated += self.netlist.num_gates() as u64;
        for net in 0..self.netlist.num_nets() {
            self.refresh_load(net);
        }
        let input = self.input_timing();
        for &pi in self.netlist.inputs() {
            self.timing[pi.index()] = input;
        }
        for &gid in self.netlist.topo_order() {
            let out = self.graph.gate_out[gid.index()].index();
            self.timing[out] = NetTiming::locate(self.evaluate_gate(gid.index()), self.axes);
        }
    }

    /// Computes a gate's output timing from its fanin timing. Every arc
    /// table of the library shares its axes, so the evaluation reads the
    /// positions located when each input slew and the load were stored.
    fn evaluate_gate(&mut self, g: usize) -> Timing {
        if self.relaxed[g] {
            return self.evaluate_gate_relaxed(g);
        }
        let cell = self.cells[g];
        let version = self.gate_configs[g].version;
        let physical = &self.physical[g];
        let load = self.load_at[self.graph.gate_out[g].index()];
        let mut out = Timing {
            arr_rise: Time::new(f64::NEG_INFINITY),
            arr_fall: Time::new(f64::NEG_INFINITY),
            slew_rise: Time::ZERO,
            slew_fall: Time::ZERO,
        };
        for (logical, &inp) in self.graph.fanin(g).iter().enumerate() {
            let t_in = &self.timing[inp.index()];
            let arc = cell.arc_physical(version, usize::from(physical[logical]));
            // Inverting cells: output rise launched by input fall.
            let (d_rise, s_rise) = arc.rise.lookup_at(t_in.fall_at, load);
            let cand_rise = t_in.value.arr_fall + d_rise;
            if cand_rise > out.arr_rise {
                out.arr_rise = cand_rise;
                out.slew_rise = s_rise;
            }
            let (d_fall, s_fall) = arc.fall.lookup_at(t_in.rise_at, load);
            let cand_fall = t_in.value.arr_rise + d_fall;
            if cand_fall > out.arr_fall {
                out.arr_fall = cand_fall;
                out.slew_fall = s_fall;
            }
        }
        out
    }

    /// Floor timing of a relaxed gate: per logical input the minimum delay
    /// and slew over all versions × physical pins, taken over the cell's
    /// distinct tables (the same set of values, so the same minimum).
    /// Output slews take the global minimum, which keeps downstream
    /// lookups (monotone in input slew) lower bounds as well — except
    /// where a concrete gate downstream switches to a later input's larger
    /// slew (DESIGN.md §5).
    ///
    /// Each input's floor is memoized by its slew positions and the load's
    /// (see [`FloorSlot`]); a hit returns the bits a miss would compute,
    /// and minima over the same operands do not depend on their order.
    fn evaluate_gate_relaxed(&mut self, g: usize) -> Timing {
        if self.floor_memo.is_empty() {
            self.floor_memo = vec![None; self.graph.fanin.len()];
        }
        let cell = self.cells[g];
        let load = self.load_at[self.graph.gate_out[g].index()];
        let inf = Time::new(f64::INFINITY);
        let mut out = Timing {
            arr_rise: -inf,
            arr_fall: -inf,
            slew_rise: inf,
            slew_fall: inf,
        };
        for k in self.graph.fanin_start[g] as usize..self.graph.fanin_start[g + 1] as usize {
            let t_in = &self.timing[self.graph.fanin[k].index()];
            let at = [t_in.rise_at, t_in.fall_at, load];
            let floor = match &mut self.floor_memo[k] {
                Some(slot) if same_positions(&slot.at, &at) => slot.floor,
                slot => {
                    let floor = InputFloor::compute(cell, t_in.rise_at, t_in.fall_at, load);
                    *slot = Some(FloorSlot { at, floor });
                    floor
                }
            };
            out.slew_rise = out.slew_rise.min(floor.slew_rise);
            out.slew_fall = out.slew_fall.min(floor.slew_fall);
            out.arr_rise = out.arr_rise.max(t_in.value.arr_fall + floor.d_rise);
            out.arr_fall = out.arr_fall.max(t_in.value.arr_rise + floor.d_fall);
        }
        out
    }

    /// Worst of the rise/fall delays of one arc at current slews/loads.
    fn worst_arc_delay(&self, g: usize, logical: usize) -> Time {
        let cell = self.cells[g];
        let load = self.load_at[self.graph.gate_out[g].index()];
        let t_in = &self.timing[self.graph.fanin(g)[logical].index()];
        let physical = usize::from(self.physical[g][logical]);
        let arc = cell.arc_physical(self.gate_configs[g].version, physical);
        let (d_rise, _) = arc.rise.lookup_at(t_in.fall_at, load);
        let (d_fall, _) = arc.fall.lookup_at(t_in.rise_at, load);
        d_rise.max(d_fall)
    }

    /// Drops every memoized relaxed floor, so the next relaxed evaluations
    /// compute theirs afresh.
    #[cfg(test)]
    fn clear_floor_memo(&mut self) {
        self.floor_memo.clear();
    }

    /// Recomputes the capacitive load on a net from its consumers, and
    /// locates it.
    fn refresh_load(&mut self, net: usize) {
        let fanouts = self.graph.fanouts(net);
        let mut load = self.config.wire_cap_per_fanout * fanouts.len() as f64;
        if self.graph.is_po[net] {
            load += self.config.primary_output_load;
        }
        for &(gate, pin) in fanouts {
            let g = gate.index();
            let cell = self.cells[g];
            if self.relaxed[g] {
                // Floor: the smallest pin capacitance any configuration
                // could present.
                load += cell.min_input_cap();
            } else {
                let physical = usize::from(self.physical[g][usize::from(pin)]);
                load += cell.input_cap_physical(self.gate_configs[g].version, physical);
            }
        }
        self.loads[net] = load;
        self.load_at[net] = self.axes.load_segment(load);
    }
}

/// Whether two position triples are equal bit for bit.
fn same_positions(a: &[AxisSegment; 3], b: &[AxisSegment; 3]) -> bool {
    a.iter().zip(b).all(|(a, b)| a.to_bits() == b.to_bits())
}

/// A scope of greedy trials on one analyzer, opened by [`Sta::leaf`].
///
/// Only [`Leaf::try_option`] changes the analyzer, and every change it
/// keeps is journaled (first write of each net and gate only), so when the
/// scope drops the analyzer is restored to its state at [`Sta::leaf`] bit
/// for bit, without re-propagating anything.
#[derive(Debug)]
pub struct Leaf<'s, 'a> {
    sta: &'s mut Sta<'a>,
}

impl Leaf<'_, '_> {
    /// [`Sta::try_option`], journaled for the restore at the end of the
    /// scope.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range or the permutation arity mismatches.
    pub fn try_option(
        &mut self,
        gate: GateId,
        version: VersionId,
        perm: &[u8],
        limit: Time,
    ) -> bool {
        self.sta.trial(gate, version, perm, limit, true)
    }

    /// [`Sta::max_delay`] of the current state.
    pub fn max_delay(&mut self) -> Time {
        self.sta.max_delay()
    }
}

impl Drop for Leaf<'_, '_> {
    fn drop(&mut self) {
        self.sta.restore_leaf();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svtox_cells::{InputState, LibraryOptions, StateOption};
    use svtox_exec::rng::Xoshiro256pp;
    use svtox_netlist::generators::benchmark;
    use svtox_netlist::{GateKind, NetlistBuilder};
    use svtox_tech::Technology;

    fn library() -> Library {
        Library::new(Technology::predictive_65nm(), LibraryOptions::default()).unwrap()
    }

    fn chain(n: usize) -> Netlist {
        let mut b = NetlistBuilder::new("chain");
        let mut net = b.add_input("a");
        for _ in 0..n {
            net = b.add_gate(GateKind::Inv, &[net]).unwrap();
        }
        b.mark_output(net);
        b.finish().unwrap()
    }

    #[test]
    fn longer_chains_are_slower() {
        let lib = library();
        let c4 = chain(4);
        let c8 = chain(8);
        let d4 = Sta::new(&c4, &lib, TimingConfig::default())
            .unwrap()
            .max_delay();
        let d8 = Sta::new(&c8, &lib, TimingConfig::default())
            .unwrap()
            .max_delay();
        assert!(d8 > d4 * 1.5);
        assert!(d4 > Time::ZERO);
    }

    #[test]
    fn all_slow_nearly_doubles_delay() {
        let lib = library();
        let n = benchmark("c432").unwrap();
        let mut sta = Sta::new(&n, &lib, TimingConfig::default()).unwrap();
        let fast = sta.max_delay();
        sta.set_all_slow();
        let slow = sta.max_delay();
        let ratio = slow / fast;
        // Paper §6: "a simple replacement of all fast devices with their
        // slowest counterparts would nearly double the total circuit delay."
        assert!(ratio > 1.6 && ratio < 2.4, "slow/fast ratio {ratio}");
    }

    #[test]
    fn incremental_matches_full_recompute() {
        let lib = library();
        let n = benchmark("c880").unwrap();
        let mut sta = Sta::new(&n, &lib, TimingConfig::default()).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(42);
        for step in 0..120 {
            let gid = n.topo_order()[rng.gen_index(n.num_gates())];
            let gate = n.gate(gid);
            let cell = lib.cell(gate.kind()).unwrap();
            // Pick a random option of a random state.
            let arity = gate.kind().arity();
            let state = InputState::from_bits(rng.gen_index(1 << arity) as u16, arity);
            let opts = cell.options_for(state);
            let opt = &opts[rng.gen_index(opts.len())];
            sta.set_gate(gid, GateConfig::from(opt));
            let incremental = sta.max_delay();
            let mut fresh = sta.clone();
            fresh.recompute();
            let full = fresh.max_delay();
            assert!(
                (incremental - full).abs() < 1e-6,
                "step {step}: incremental {incremental} vs full {full}"
            );
        }
    }

    #[test]
    fn in_place_options_match_set_gate() {
        let lib = library();
        let n = benchmark("c432").unwrap();
        let mut by_config = Sta::new(&n, &lib, TimingConfig::default()).unwrap();
        let mut in_place = by_config.clone();
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        for step in 0..200 {
            let gid = n.topo_order()[rng.gen_index(n.num_gates())];
            let gate = n.gate(gid);
            let cell = lib.cell(gate.kind()).unwrap();
            if step % 5 == 0 {
                let fast = GateConfig::identity(cell.fast_version(), gate.kind().arity());
                by_config.set_gate(gid, fast);
                in_place.set_fast(gid);
            } else {
                let arity = gate.kind().arity();
                let state = InputState::from_bits(rng.gen_index(1 << arity) as u16, arity);
                let opts = cell.options_for(state);
                let opt = &opts[rng.gen_index(opts.len())];
                by_config.set_gate(gid, GateConfig::from(opt));
                in_place.set_option(gid, opt.version(), opt.perm());
            }
            assert_eq!(by_config.gate_config(gid), in_place.gate_config(gid));
            let (a, b) = (by_config.max_delay(), in_place.max_delay());
            assert_eq!(a.value().to_bits(), b.value().to_bits(), "step {step}");
        }
        // The same work, flush for flush.
        assert_eq!(by_config.counters(), in_place.counters());
    }

    #[test]
    fn slower_version_never_speeds_up_the_circuit() {
        let lib = library();
        let n = benchmark("c432").unwrap();
        let mut sta = Sta::new(&n, &lib, TimingConfig::default()).unwrap();
        let base = sta.max_delay();
        // Upgrade every gate one at a time to its state-11... use the
        // min-leakage option of the all-ones state; delay must never drop
        // below the fast baseline (monotonicity sanity).
        for (gid, gate) in n.gates().take(40) {
            let cell = lib.cell(gate.kind()).unwrap();
            let arity = gate.kind().arity();
            let all_ones = InputState::from_bits(((1usize << arity) - 1) as u16, arity);
            let opt = &cell.options_for(all_ones)[0];
            sta.set_gate(gid, GateConfig::from(opt));
            let d = sta.max_delay();
            assert!(d >= base - Time::new(1e-6), "delay dropped: {d} < {base}");
        }
    }

    #[test]
    fn relaxed_gates_lower_bound_every_configuration() {
        let lib = library();
        let n = benchmark("c432").unwrap();
        let mut sta = Sta::new(&n, &lib, TimingConfig::default()).unwrap();
        let fast = sta.max_delay();
        // Fully relaxed floor is below (or at) the all-fast delay.
        for (gid, _) in n.gates() {
            sta.set_relaxed(gid, true);
            assert!(sta.is_relaxed(gid));
        }
        let floor = sta.max_delay();
        assert!(floor <= fast + Time::new(1e-9), "floor {floor} fast {fast}");
        assert!(floor > Time::ZERO);
        // Deciding gates one by one to arbitrary options never drops the
        // bound below the floor, and un-relaxing everything restores the
        // exact configured delay (cross-checked against a cold analyzer).
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let mut cold = Sta::new(&n, &lib, TimingConfig::default()).unwrap();
        for (gid, gate) in n.gates() {
            let cell = lib.cell(gate.kind()).unwrap();
            let arity = gate.kind().arity();
            let state = InputState::from_bits(rng.gen_index(1 << arity) as u16, arity);
            let opts = cell.options_for(state);
            let opt = &opts[rng.gen_index(opts.len())];
            sta.set_gate(gid, GateConfig::from(opt));
            sta.set_relaxed(gid, false);
            cold.set_gate(gid, GateConfig::from(opt));
            let bound = sta.max_delay();
            assert!(
                bound >= floor - Time::new(1e-6),
                "bound {bound} under floor {floor}"
            );
        }
        cold.recompute();
        assert!((sta.max_delay() - cold.max_delay()).abs() < 1e-6);
    }

    #[test]
    fn relaxed_bound_grows_as_gates_are_decided() {
        let lib = library();
        let n = benchmark("c880").unwrap();
        let mut sta = Sta::new(&n, &lib, TimingConfig::default()).unwrap();
        for (gid, _) in n.gates() {
            sta.set_relaxed(gid, true);
        }
        // Decide every gate into its identity-fast config: the bound must be
        // non-decreasing, ending exactly at the all-fast delay.
        let all_fast = Sta::new(&n, &lib, TimingConfig::default())
            .unwrap()
            .max_delay();
        let mut prev = sta.max_delay();
        for (gid, _) in n.gates() {
            sta.set_relaxed(gid, false);
            let now = sta.max_delay();
            assert!(
                now >= prev - Time::new(1e-6),
                "bound shrank: {now} < {prev}"
            );
            prev = now;
        }
        assert!((prev - all_fast).abs() < 1e-6);
    }

    #[test]
    fn slacks_are_consistent_with_constraint() {
        let lib = library();
        let n = benchmark("c432").unwrap();
        let mut sta = Sta::new(&n, &lib, TimingConfig::default()).unwrap();
        let d = sta.max_delay();
        let slacks = sta.slacks(d);
        // At the exact constraint, the most critical gate has ~zero slack
        // and nothing is negative beyond numeric noise.
        let min = slacks
            .iter()
            .fold(Time::new(f64::INFINITY), |a, &b| a.min(b));
        assert!(min.abs() < 1e-6, "min slack {min}");
        let loose = sta.slacks(d + Time::new(100.0));
        assert!(loose.iter().all(|s| *s >= Time::new(99.9)));
    }

    #[test]
    fn critical_path_is_a_real_path() {
        let lib = library();
        let n = benchmark("c432").unwrap();
        let mut sta = Sta::new(&n, &lib, TimingConfig::default()).unwrap();
        let path = sta.critical_path();
        assert!(!path.is_empty());
        // Consecutive path entries must be connected.
        for w in path.windows(2) {
            let out = n.gate(w[0]).output();
            assert!(n.gate(w[1]).inputs().contains(&out));
        }
        // Path length is bounded by the logic depth.
        assert!(path.len() <= n.depth());
    }

    #[test]
    fn counters_track_full_and_incremental_work() {
        let lib = library();
        let n = benchmark("c432").unwrap();
        let mut sta = Sta::new(&n, &lib, TimingConfig::default()).unwrap();
        let after_new = sta.counters();
        assert_eq!(after_new.full_analyzes, 1);
        assert_eq!(after_new.gates_reevaluated, n.num_gates() as u64);
        assert_eq!(after_new.flushes, 0);
        // One gate change → one flush, at least one re-evaluation, and a
        // dirty high-water mark covering the seeded gates.
        let gid = n.topo_order()[0];
        let gate = n.gate(gid);
        let cell = lib.cell(gate.kind()).unwrap();
        sta.set_gate(
            gid,
            GateConfig::identity(cell.all_slow_version(), gate.kind().arity()),
        );
        sta.max_delay();
        let after_edit = sta.counters();
        assert_eq!(after_edit.flushes, 1);
        assert!(after_edit.gates_reevaluated > after_new.gates_reevaluated);
        assert!(after_edit.max_dirty >= 1);
        // A query with nothing dirty is not a flush.
        sta.max_delay();
        assert_eq!(sta.counters().flushes, 1);
        // recompute() is a full analysis.
        sta.recompute();
        assert_eq!(sta.counters().full_analyzes, 2);
    }

    #[test]
    fn incremental_after_edit_matches_cold_analysis() {
        use svtox_netlist::EditScript;

        let lib = library();
        let n = benchmark("c432").unwrap();
        let mut sta = Sta::new(&n, &lib, TimingConfig::default()).unwrap();
        // Scatter some non-default configurations so carried state matters.
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        for (gid, gate) in n.gates() {
            if rng.gen_index(3) == 0 {
                let cell = lib.cell(gate.kind()).unwrap();
                let arity = gate.kind().arity();
                let state = InputState::from_bits(rng.gen_index(1 << arity) as u16, arity);
                let opts = cell.options_for(state);
                sta.set_gate(gid, GateConfig::from(&opts[rng.gen_index(opts.len())]));
            }
        }
        sta.max_delay();

        // A small ECO: new logic, a rewire, a retag.
        let mut edited = n.clone();
        let pi0 = edited.net(edited.inputs()[0]).name().to_string();
        let pi1 = edited.net(edited.inputs()[1]).name().to_string();
        let po0 = edited.net(edited.outputs()[0]).name().to_string();
        let script = EditScript::parse(&format!(
            "add eco_t0 = NAND({pi0}, {pi1})\nadd eco_t1 = NOT(eco_t0)\nretag {po0} eco_t1\n"
        ))
        .unwrap();
        let trace = script.apply(&mut edited).unwrap();
        let dirty = edited.take_dirty();

        let mut inc = Sta::new_incremental(
            &edited,
            &lib,
            TimingConfig::default(),
            &mut sta,
            &trace.gate_map,
            &trace.net_map,
            &dirty,
        )
        .unwrap();

        // Cold oracle: full analysis at the same configurations.
        let mut cold = Sta::new(&edited, &lib, TimingConfig::default()).unwrap();
        for (old, &mapped) in trace.gate_map.iter().enumerate() {
            if let Some(new) = mapped {
                let (gid, _) = n.gates().nth(old).unwrap();
                cold.set_gate(new, sta.gate_config(gid).clone());
            }
        }
        cold.recompute();

        assert!((inc.max_delay() - cold.max_delay()).abs() < 1e-6);
        for (nid, _) in edited.nets() {
            let (ir, ifall) = inc.arrival(nid);
            let (cr, cfall) = cold.arrival(nid);
            assert!((ir - cr).abs() < 1e-6, "net {nid} rise");
            assert!((ifall - cfall).abs() < 1e-6, "net {nid} fall");
        }
        // And it was actually incremental: no full analysis, fewer gate
        // evaluations than the circuit has gates.
        let c = inc.counters();
        assert_eq!(c.full_analyzes, 0);
        assert!(
            c.gates_reevaluated < edited.num_gates() as u64,
            "reevaluated {} of {}",
            c.gates_reevaluated,
            edited.num_gates()
        );
    }

    #[test]
    fn gate_config_round_trip() {
        let lib = library();
        let v = lib.cell(GateKind::Nand(2)).unwrap().fast_version();
        let cfg = GateConfig {
            version: v,
            perm: vec![1, 0],
        };
        assert_eq!(cfg.physical_pin(0), 1);
        assert_eq!(cfg.physical_pin(1), 0);
        let id = GateConfig::identity(v, 3);
        assert_eq!(id.physical_pin(2), 2);
    }

    #[test]
    fn permuted_config_affects_loads_not_totals_for_symmetric_fast() {
        // The fast version is symmetric; swapping pins must not change the
        // circuit delay.
        let lib = library();
        let n = benchmark("c432").unwrap();
        let mut sta = Sta::new(&n, &lib, TimingConfig::default()).unwrap();
        let base = sta.max_delay();
        for (gid, gate) in n.gates() {
            if gate.kind().arity() == 2 {
                let v = lib.cell(gate.kind()).unwrap().fast_version();
                sta.set_gate(
                    gid,
                    GateConfig {
                        version: v,
                        perm: vec![1, 0],
                    },
                );
            }
        }
        let swapped = sta.max_delay();
        assert!((swapped - base).abs() < 1e-6, "{base} vs {swapped}");
    }

    /// A random option of a random state of `gid`'s cell.
    fn random_option(
        lib: &Library,
        n: &Netlist,
        gid: GateId,
        rng: &mut Xoshiro256pp,
    ) -> StateOption {
        let kind = n.gate(gid).kind();
        let arity = kind.arity();
        let state = InputState::from_bits(rng.gen_index(1 << arity) as u16, arity);
        let opts = lib.cell(kind).unwrap().options_for(state);
        opts[rng.gen_index(opts.len())].clone()
    }

    #[test]
    fn trials_match_set_option_and_roll_back_exactly() {
        let lib = library();
        let n = benchmark("c880").unwrap();
        let mut sta = Sta::new(&n, &lib, TimingConfig::default()).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(19);
        let (mut accepts, mut rejects) = (0, 0);
        for step in 0..300 {
            let gid = n.topo_order()[rng.gen_index(n.num_gates())];
            if step % 7 == 0 {
                sta.set_relaxed(gid, true);
            }
            let opt = random_option(&lib, &n, gid, &mut rng);
            let before = sta.net_bits();
            let delay = sta.max_delay();
            let limit = delay * (0.999 + 0.002 * rng.gen_f64());
            let mut reference = sta.clone();
            reference.set_option(gid, opt.version(), opt.perm());
            reference.set_relaxed(gid, false);
            let want = reference.max_delay() <= limit;
            let reevaluated = sta.counters().gates_reevaluated;
            let got = sta.try_option(gid, opt.version(), opt.perm(), limit);
            assert_eq!(got, want, "step {step}");
            if got {
                accepts += 1;
                assert_eq!(sta.net_bits(), reference.net_bits(), "step {step}");
                assert_eq!(sta.gate_config(gid), reference.gate_config(gid));
                assert!(!sta.is_relaxed(gid));
            } else {
                rejects += 1;
                assert_eq!(sta.net_bits(), before, "step {step}");
                // Stopping early never costs more than the full flush.
                assert!(
                    sta.counters().gates_reevaluated - reevaluated
                        <= reference.counters().gates_reevaluated - reevaluated
                );
            }
        }
        assert!(accepts > 20 && rejects > 20, "{accepts} / {rejects}");
    }

    /// Asserts every net's cached slew and load positions equal a fresh
    /// locate of the values stored beside them.
    fn assert_positions_fresh(sta: &Sta<'_>, step: usize) {
        for (net, t) in sta.timing.iter().enumerate() {
            let fresh = NetTiming::locate(t.value, sta.axes);
            assert_eq!(t.rise_at, fresh.rise_at, "step {step}: net {net} rise slew");
            assert_eq!(t.fall_at, fresh.fall_at, "step {step}: net {net} fall slew");
            let load = sta.axes.load_segment(sta.loads[net]);
            assert_eq!(sta.load_at[net], load, "step {step}: net {net} load");
        }
    }

    /// A gate's output timing with every table lookup located cold
    /// (`SlewLoadGrid::lookup`) and the pins routed through
    /// `GateConfig::physical_pin`; a relaxed gate floors over every
    /// version × physical pin.
    fn cold_evaluate(sta: &Sta<'_>, gid: GateId) -> [u64; 4] {
        let gate = sta.netlist.gate(gid);
        let cell = sta.cells[gid.index()];
        let cfg = sta.gate_config(gid);
        let load = sta.loads[gate.output().index()];
        let relaxed = sta.is_relaxed(gid);
        let (inf, zero) = (Time::new(f64::INFINITY), Time::ZERO);
        let mut out = Timing {
            arr_rise: -inf,
            arr_fall: -inf,
            slew_rise: if relaxed { inf } else { zero },
            slew_fall: if relaxed { inf } else { zero },
        };
        for (logical, &inp) in gate.inputs().iter().enumerate() {
            let t_in = sta.timing[inp.index()].value;
            if relaxed {
                let (mut d_rise, mut d_fall) = (inf, inf);
                for version in cell.version_ids() {
                    for pin in 0..cell.arity() {
                        let arc = cell.arc_physical(version, pin);
                        let (d, slew) = arc.rise.lookup(t_in.slew_fall, load);
                        d_rise = d_rise.min(d);
                        out.slew_rise = out.slew_rise.min(slew);
                        let (d, slew) = arc.fall.lookup(t_in.slew_rise, load);
                        d_fall = d_fall.min(d);
                        out.slew_fall = out.slew_fall.min(slew);
                    }
                }
                out.arr_rise = out.arr_rise.max(t_in.arr_fall + d_rise);
                out.arr_fall = out.arr_fall.max(t_in.arr_rise + d_fall);
            } else {
                let arc = cell.arc_physical(cfg.version, cfg.physical_pin(logical));
                let (d_rise, s_rise) = arc.rise.lookup(t_in.slew_fall, load);
                if t_in.arr_fall + d_rise > out.arr_rise {
                    out.arr_rise = t_in.arr_fall + d_rise;
                    out.slew_rise = s_rise;
                }
                let (d_fall, s_fall) = arc.fall.lookup(t_in.slew_rise, load);
                if t_in.arr_rise + d_fall > out.arr_fall {
                    out.arr_fall = t_in.arr_rise + d_fall;
                    out.slew_fall = s_fall;
                }
            }
        }
        timing_bits(&out)
    }

    fn timing_bits(t: &Timing) -> [u64; 4] {
        [t.arr_rise, t.arr_fall, t.slew_rise, t.slew_fall].map(|x| x.value().to_bits())
    }

    #[test]
    fn cached_positions_stay_fresh_through_trials_rollbacks_and_leaves() {
        let lib = library();
        let n = benchmark("c880").unwrap();
        let mut sta = Sta::new(&n, &lib, TimingConfig::default()).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(23);
        assert_positions_fresh(&sta, 0);
        for step in 1..=160 {
            let gid = n.topo_order()[rng.gen_index(n.num_gates())];
            match step % 4 {
                0 => {
                    let opt = random_option(&lib, &n, gid, &mut rng);
                    let limit = sta.max_delay() * (0.999 + 0.002 * rng.gen_f64());
                    sta.try_option(gid, opt.version(), opt.perm(), limit);
                }
                1 => {
                    let limit = sta.max_delay() * (0.999 + 0.002 * rng.gen_f64());
                    let mut leaf = sta.leaf();
                    for _ in 0..6 {
                        let g = n.topo_order()[rng.gen_index(n.num_gates())];
                        let opt = random_option(&lib, &n, g, &mut rng);
                        leaf.try_option(g, opt.version(), opt.perm(), limit);
                        assert_positions_fresh(leaf.sta, step);
                    }
                }
                2 => sta.set_relaxed(gid, rng.gen_bool(0.3)),
                _ => {
                    let opt = random_option(&lib, &n, gid, &mut rng);
                    sta.set_option(gid, opt.version(), opt.perm());
                }
            }
            sta.flush();
            assert_positions_fresh(&sta, step);
        }
        let c = sta.counters();
        assert!(
            c.trials_rejected > 20 && c.trials > c.trials_rejected + 20,
            "{c:?}"
        );
        // One evaluation from the cached positions equals a cold one, bit
        // for bit, for concrete and relaxed gates alike.
        let relaxed = n.gates().filter(|&(gid, _)| sta.is_relaxed(gid)).count();
        assert!(relaxed > 0);
        for (gid, _) in n.gates() {
            let cached = timing_bits(&sta.evaluate_gate(gid.index()));
            assert_eq!(cached, cold_evaluate(&sta, gid), "gate {gid}");
        }
    }

    #[test]
    fn trial_counters_split_out_rejected_work() {
        let lib = library();
        let n = benchmark("c432").unwrap();
        let mut sta = Sta::new(&n, &lib, TimingConfig::default()).unwrap();
        let mut rng = Xoshiro256pp::seed_from_u64(29);
        let (mut trials, mut rejected, mut wasted) = (0, 0, 0);
        for _ in 0..100 {
            let gid = n.topo_order()[rng.gen_index(n.num_gates())];
            let opt = random_option(&lib, &n, gid, &mut rng);
            let limit = sta.max_delay() * (0.999 + 0.002 * rng.gen_f64());
            let before = sta.counters().gates_reevaluated;
            trials += 1;
            if !sta.try_option(gid, opt.version(), opt.perm(), limit) {
                rejected += 1;
                wasted += sta.counters().gates_reevaluated - before;
            }
        }
        let c = sta.counters();
        assert!(rejected > 10 && rejected < trials, "{rejected} of {trials}");
        assert_eq!((c.trials, c.trials_rejected), (trials, rejected));
        assert_eq!(c.gates_reevaluated_rejected, wasted);
        // Plain reconfigurations are not trials.
        sta.set_all_slow();
        sta.max_delay();
        assert_eq!(sta.counters().trials, trials);
    }

    #[test]
    fn a_leaf_restores_its_entry_state_bit_for_bit() {
        let lib = library();
        let n = benchmark("c432").unwrap();
        let mut sta = Sta::new(&n, &lib, TimingConfig::default()).unwrap();
        let fresh = sta.net_bits();
        let limit = sta.max_delay() * 1.05;
        let mut rng = Xoshiro256pp::seed_from_u64(3);
        for round in 0..3 {
            let mut accepted = 0;
            {
                let mut leaf = sta.leaf();
                for &gid in n.topo_order() {
                    let opt = random_option(&lib, &n, gid, &mut rng);
                    if leaf.try_option(gid, opt.version(), opt.perm(), limit) {
                        accepted += 1;
                    }
                }
                assert!(leaf.max_delay() <= limit);
                // The journal keeps first writes only: no larger than the
                // circuit, however many trials were accepted.
                let undo = &leaf.sta.undo;
                assert!(undo.leaf_timing.len() <= n.num_nets());
                assert!(undo.leaf_gates.len() <= accepted.min(n.num_gates()));
            }
            assert!(accepted > 0, "round {round}");
            assert_eq!(sta.net_bits(), fresh, "round {round}");
            for (gid, gate) in n.gates() {
                let fast = lib.cell(gate.kind()).unwrap().fast_version();
                assert_eq!(
                    sta.gate_config(gid),
                    &GateConfig::identity(fast, gate.kind().arity())
                );
            }
        }
    }

    /// Drives the same random `set_option` / `decide` / `set_relaxed` /
    /// `max_delay` sequence on `sta` and on a copy that clears its floor
    /// memo before every query, asserting equal bits and counters after
    /// every step.
    fn assert_memo_is_invisible(lib: &Library, n: &Netlist, sta: Sta<'_>, seed: u64) {
        let mut sta = sta;
        let mut cold = sta.clone();
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        for step in 0..400 {
            let gid = n.topo_order()[rng.gen_index(n.num_gates())];
            let opt = random_option(lib, n, gid, &mut rng);
            for a in [&mut sta, &mut cold] {
                match step % 5 {
                    0 | 1 => a.set_relaxed(gid, true),
                    2 => a.set_relaxed(gid, false),
                    3 => a.set_option(gid, opt.version(), opt.perm()),
                    _ => a.decide(gid, opt.version(), opt.perm()),
                }
            }
            if step % 3 == 0 {
                cold.clear_floor_memo();
                let (a, b) = (sta.max_delay(), cold.max_delay());
                assert_eq!(a.value().to_bits(), b.value().to_bits(), "step {step}");
            }
            cold.clear_floor_memo();
            assert_eq!(sta.net_bits(), cold.net_bits(), "step {step}");
            assert_eq!(sta.counters(), cold.counters(), "step {step}");
        }
        assert!(!sta.floor_memo.is_empty(), "no gate was evaluated relaxed");
    }

    #[test]
    fn the_floor_memo_never_changes_a_bit() {
        let lib = library();
        let n = benchmark("c880").unwrap();
        let sta = Sta::new(&n, &lib, TimingConfig::default()).unwrap();
        // The memo lives only on analyzers that relax a gate.
        assert!(sta.floor_memo.is_empty());
        assert_memo_is_invisible(&lib, &n, sta.clone(), 31);

        // A clone carries a warm memo along.
        let mut warm = Sta::new(&n, &lib, TimingConfig::default()).unwrap();
        for (gid, _) in n.gates().step_by(2) {
            warm.set_relaxed(gid, true);
        }
        warm.max_delay();
        assert!(!warm.floor_memo.is_empty());
        assert_memo_is_invisible(&lib, &n, warm.clone(), 37);

        // An incremental analyzer carries relaxed flags but starts with no
        // memo of its own.
        use svtox_netlist::EditScript;
        let mut edited = n.clone();
        let pi0 = edited.net(edited.inputs()[0]).name().to_string();
        let pi1 = edited.net(edited.inputs()[1]).name().to_string();
        let script = EditScript::parse(&format!("add eco_t0 = NAND({pi0}, {pi1})\n")).unwrap();
        let trace = script.apply(&mut edited).unwrap();
        let dirty = edited.take_dirty();
        let inc = Sta::new_incremental(
            &edited,
            &lib,
            TimingConfig::default(),
            &mut warm,
            &trace.gate_map,
            &trace.net_map,
            &dirty,
        )
        .unwrap();
        assert!(inc.floor_memo.is_empty());
        assert!(edited.gates().any(|(gid, _)| inc.is_relaxed(gid)));
        assert_memo_is_invisible(&lib, &edited, inc, 41);
    }

    #[test]
    fn decide_is_set_option_then_unrelax() {
        let lib = library();
        let n = benchmark("c432").unwrap();
        let mut two_steps = Sta::new(&n, &lib, TimingConfig::default()).unwrap();
        let mut decided = two_steps.clone();
        let mut rng = Xoshiro256pp::seed_from_u64(43);
        for step in 0..300 {
            let gid = n.topo_order()[rng.gen_index(n.num_gates())];
            if rng.gen_bool(0.4) {
                two_steps.set_relaxed(gid, true);
                decided.set_relaxed(gid, true);
            } else {
                let opt = random_option(&lib, &n, gid, &mut rng);
                two_steps.set_option(gid, opt.version(), opt.perm());
                two_steps.set_relaxed(gid, false);
                decided.decide(gid, opt.version(), opt.perm());
            }
            assert_eq!(two_steps.gate_config(gid), decided.gate_config(gid));
            assert_eq!(two_steps.is_relaxed(gid), decided.is_relaxed(gid));
            if step % 4 == 0 {
                assert_eq!(two_steps.net_bits(), decided.net_bits(), "step {step}");
                assert_eq!(two_steps.counters(), decided.counters(), "step {step}");
            }
        }
    }
}
