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

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use svtox_cells::{CellData, Library, LibraryError, StateOption, VersionId};
use svtox_netlist::{GateId, NetId, Netlist};
use svtox_tech::{Capacitance, Time};

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
}

/// Per-net timing state: worst rise/fall arrivals and slews.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct NetTiming {
    arr_rise: Time,
    arr_fall: Time,
    slew_rise: Time,
    slew_fall: Time,
}

impl NetTiming {
    fn worst(&self) -> Time {
        self.arr_rise.max(self.arr_fall)
    }

    fn close_to(&self, other: &NetTiming) -> bool {
        const EPS: f64 = 1e-9;
        (self.arr_rise - other.arr_rise).abs() < EPS
            && (self.arr_fall - other.arr_fall).abs() < EPS
            && (self.slew_rise - other.slew_rise).abs() < EPS
            && (self.slew_fall - other.slew_fall).abs() < EPS
    }
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
    /// `(gate, version, relaxed)` before the trial, when it changed the
    /// gate; the old perm is in `trial_perm`.
    trial_gate: Option<(GateId, VersionId, bool)>,
    trial_perm: Vec<u8>,
    saved_timing: Vec<bool>,
    saved_gate: Vec<bool>,
    leaf_timing: Vec<(NetId, NetTiming)>,
    /// `(gate, version, relaxed)`; the perms follow in `leaf_perms`, in
    /// the same order, each as long as its gate's arity.
    leaf_gates: Vec<(GateId, VersionId, bool)>,
    leaf_perms: Vec<u8>,
}

impl UndoLog {
    fn new(netlist: &Netlist) -> Self {
        let (nets, gates) = (netlist.num_nets(), netlist.num_gates());
        Self {
            trial_timing: Vec::new(),
            trial_gate: None,
            trial_perm: Vec::new(),
            saved_timing: vec![false; nets],
            saved_gate: vec![false; gates],
            leaf_timing: Vec::new(),
            leaf_gates: Vec::new(),
            leaf_perms: Vec::new(),
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
    cells: Vec<&'a CellData>,
    /// Whether each net is a primary output.
    is_po: Vec<bool>,
    gate_configs: Vec<GateConfig>,
    /// Gates evaluated as floor bounds instead of concrete configurations.
    relaxed: Vec<bool>,
    timing: Vec<NetTiming>,
    loads: Vec<Capacitance>,
    queued: Vec<bool>,
    dirty: Vec<GateId>,
    /// The flush queue, kept between flushes so a trial allocates nothing.
    queue: BinaryHeap<Reverse<(u32, GateId)>>,
    undo: UndoLog,
    counters: StaCounters,
}

/// Per net, whether it is a primary output.
fn output_mask(netlist: &Netlist) -> Vec<bool> {
    let mut is_po = vec![false; netlist.num_nets()];
    for &o in netlist.outputs() {
        is_po[o.index()] = true;
    }
    is_po
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
        let cells: Vec<&CellData> = netlist
            .gates()
            .map(|(_, g)| library.cell(g.kind()))
            .collect::<Result<_, _>>()?;
        let gate_configs = netlist
            .gates()
            .map(|(gid, g)| {
                GateConfig::identity(cells[gid.index()].fast_version(), g.kind().arity())
            })
            .collect();
        let mut sta = Self {
            netlist,
            config,
            is_po: output_mask(netlist),
            undo: UndoLog::new(netlist),
            cells,
            gate_configs,
            relaxed: vec![false; netlist.num_gates()],
            timing: vec![NetTiming::default(); netlist.num_nets()],
            loads: vec![Capacitance::ZERO; netlist.num_nets()],
            queued: vec![false; netlist.num_gates()],
            dirty: Vec::new(),
            queue: BinaryHeap::new(),
            counters: StaCounters::default(),
        };
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
        let cells: Vec<&CellData> = netlist
            .gates()
            .map(|(_, g)| library.cell(g.kind()))
            .collect::<Result<_, _>>()?;
        let mut gate_configs: Vec<GateConfig> = netlist
            .gates()
            .map(|(gid, g)| {
                GateConfig::identity(cells[gid.index()].fast_version(), g.kind().arity())
            })
            .collect();
        let mut relaxed = vec![false; netlist.num_gates()];
        let mut carried = vec![false; netlist.num_gates()];
        for (old, &mapped) in gate_map.iter().enumerate() {
            if let Some(new) = mapped {
                let cfg = prev.gate_configs[old].clone();
                assert_eq!(
                    cfg.perm.len(),
                    netlist.gate(new).kind().arity(),
                    "carried gate changed arity: stale gate_map?"
                );
                gate_configs[new.index()] = cfg;
                relaxed[new.index()] = prev.relaxed[old];
                carried[new.index()] = true;
            }
        }
        let mut timing = vec![NetTiming::default(); netlist.num_nets()];
        for (old, &mapped) in net_map.iter().enumerate() {
            if let Some(new) = mapped {
                timing[new.index()] = prev.timing[old];
            }
        }
        let mut sta = Self {
            netlist,
            config,
            is_po: output_mask(netlist),
            undo: UndoLog::new(netlist),
            cells,
            gate_configs,
            relaxed,
            timing,
            loads: vec![Capacitance::ZERO; netlist.num_nets()],
            queued: vec![false; netlist.num_gates()],
            dirty: Vec::new(),
            queue: BinaryHeap::new(),
            counters: StaCounters::default(),
        };
        for (nid, _) in netlist.nets() {
            sta.refresh_load(nid);
        }
        for &pi in netlist.inputs() {
            sta.timing[pi.index()] = NetTiming {
                arr_rise: Time::ZERO,
                arr_fall: Time::ZERO,
                slew_rise: config.primary_input_slew,
                slew_fall: config.primary_input_slew,
            };
        }
        // Seed the dirty cone: anything touching an edited net, plus gates
        // the edit created (no carried state to trust).
        for &net in dirty {
            if let Some(driver) = netlist.net(net).driver() {
                sta.mark_dirty(driver);
            }
            for &(g, _pin) in netlist.net(net).fanouts() {
                sta.mark_dirty(g);
            }
        }
        let fresh: Vec<GateId> = netlist
            .gates()
            .filter(|(gid, _)| !carried[gid.index()])
            .map(|(gid, _)| gid)
            .collect();
        for gid in fresh {
            sta.mark_dirty(gid);
        }
        Ok(sta)
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
        assert_eq!(
            perm.len(),
            self.netlist.gate(gate).kind().arity(),
            "perm arity mismatch"
        );
        let cfg = &mut self.gate_configs[gate.index()];
        if cfg.version == version && cfg.perm == perm {
            return;
        }
        cfg.version = version;
        cfg.perm.copy_from_slice(perm);
        self.reconfigured(gate);
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
        let t = &self.timing[net.index()];
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
            let gate = self.netlist.gate(gid);
            let out = gate.output();
            let req_out = required[out.index()];
            for (logical, &inp) in gate.inputs().iter().enumerate() {
                let d = self.worst_arc_delay(gid, logical);
                let cand = req_out - d;
                if cand < required[inp.index()] {
                    required[inp.index()] = cand;
                }
            }
        }
        self.netlist
            .gates()
            .map(|(_, gate)| {
                let out = gate.output();
                required[out.index()] - self.timing[out.index()].worst()
            })
            .collect()
    }

    /// Extracts one critical path as gate ids from inputs to the worst
    /// output.
    pub fn critical_path(&mut self) -> Vec<GateId> {
        self.flush();
        let mut path = Vec::new();
        // Find the worst PO.
        let Some(&worst_po) = self.netlist.outputs().iter().max_by(|&&a, &&b| {
            self.timing[a.index()]
                .worst()
                .value()
                .total_cmp(&self.timing[b.index()].worst().value())
        }) else {
            return path;
        };
        let mut net = worst_po;
        while let Some(gid) = self.netlist.net(net).driver() {
            path.push(gid);
            // Follow the worst-arrival fanin.
            let gate = self.netlist.gate(gid);
            let next = gate
                .inputs()
                .iter()
                .max_by(|&&a, &&b| {
                    self.timing[a.index()]
                        .worst()
                        .value()
                        .total_cmp(&self.timing[b.index()].worst().value())
                })
                .copied()
                .expect("netlist invariant: every gate drives at least one input pin");
            net = next;
        }
        path.reverse();
        path
    }

    /// Forces a full (non-incremental) recomputation — used by tests to
    /// cross-check the incremental engine.
    pub fn recompute(&mut self) {
        self.dirty.clear();
        for q in &mut self.queued {
            *q = false;
        }
        self.full_analyze();
    }

    /// Identity-routed `version`, written in place.
    fn set_identity(&mut self, gate: GateId, version: VersionId) {
        let cfg = &mut self.gate_configs[gate.index()];
        let identity = cfg.perm.iter().enumerate().all(|(i, &p)| p as usize == i);
        if cfg.version == version && identity {
            return;
        }
        cfg.version = version;
        for (i, p) in cfg.perm.iter_mut().enumerate() {
            *p = i as u8;
        }
        self.reconfigured(gate);
    }

    /// Schedules the re-evaluation a configuration or relaxation change
    /// needs: the gate's own delay changed, and its input caps changed the
    /// loads of its fanin nets, perturbing the fanin *drivers* too.
    fn reconfigured(&mut self, gate: GateId) {
        self.mark_dirty(gate);
        let netlist = self.netlist;
        for &net in netlist.gate(gate).inputs() {
            self.refresh_load(net);
            if let Some(driver) = netlist.net(net).driver() {
                self.mark_dirty(driver);
            }
        }
    }

    fn mark_dirty(&mut self, gate: GateId) {
        if !self.queued[gate.index()] {
            self.queued[gate.index()] = true;
            self.dirty.push(gate);
        }
    }

    /// Applies pending configuration changes incrementally.
    fn flush(&mut self) {
        self.propagate::<false>(Time::ZERO);
    }

    /// Re-evaluates the dirty gates and everything their changes reach, in
    /// `(level, gid)` order. A `TRIAL` propagation logs the old value of
    /// every net timing it writes and returns `false` as soon as it writes
    /// a primary output past `limit`, leaving the rest of the queue.
    fn propagate<const TRIAL: bool>(&mut self, limit: Time) -> bool {
        if self.dirty.is_empty() {
            return true;
        }
        self.counters.flushes += 1;
        self.counters.max_dirty = self.counters.max_dirty.max(self.dirty.len() as u64);
        // Each gate is queued at most once, so `(level, gid)` keys are
        // distinct and the pop order is fixed by them alone.
        let netlist = self.netlist;
        let mut queue = std::mem::take(&mut self.queue);
        queue.extend(
            self.dirty
                .drain(..)
                .map(|gid| Reverse((netlist.level(gid), gid))),
        );
        let mut within = true;
        while let Some(Reverse((_lvl, gid))) = queue.pop() {
            self.counters.gates_reevaluated += 1;
            self.queued[gid.index()] = false;
            let out = netlist.gate(gid).output();
            let new = self.evaluate_gate(gid);
            if !new.close_to(&self.timing[out.index()]) {
                if TRIAL {
                    self.undo.trial_timing.push((out, self.timing[out.index()]));
                }
                self.timing[out.index()] = new;
                if TRIAL && self.is_po[out.index()] && new.worst() > limit {
                    within = false;
                    break;
                }
                for &(g, _pin) in netlist.net(out).fanouts() {
                    if !self.queued[g.index()] {
                        self.queued[g.index()] = true;
                        queue.push(Reverse((netlist.level(g), g)));
                    }
                }
            }
        }
        self.queue = queue;
        within
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
        assert_eq!(
            perm.len(),
            self.netlist.gate(gate).kind().arity(),
            "perm arity mismatch"
        );
        self.flush();
        let g = gate.index();
        let cfg = &mut self.gate_configs[g];
        self.undo.trial_gate = None;
        if cfg.version != version || cfg.perm != perm || self.relaxed[g] {
            self.undo.trial_gate = Some((gate, cfg.version, self.relaxed[g]));
            self.undo.trial_perm.clone_from(&cfg.perm);
            cfg.version = version;
            cfg.perm.copy_from_slice(perm);
            self.relaxed[g] = false;
            self.reconfigured(gate);
        }
        let accepted = self.propagate::<true>(limit) && self.po_delay() <= limit;
        if !accepted {
            self.roll_back();
        } else if journal {
            self.keep_trial();
        }
        self.undo.trial_timing.clear();
        accepted
    }

    /// Undoes the trial in the log: drops what is left of its queue and
    /// restores every overwritten value, newest first.
    fn roll_back(&mut self) {
        for Reverse((_lvl, gid)) in self.queue.drain() {
            self.queued[gid.index()] = false;
        }
        for &(net, old) in self.undo.trial_timing.iter().rev() {
            self.timing[net.index()] = old;
        }
        if let Some((gate, version, relaxed)) = self.undo.trial_gate {
            let cfg = &mut self.gate_configs[gate.index()];
            cfg.version = version;
            cfg.perm.copy_from_slice(&self.undo.trial_perm);
            self.relaxed[gate.index()] = relaxed;
            self.refresh_fanin_loads(gate);
        }
    }

    /// Recomputes the loads of a gate's fanin nets from the current
    /// configurations.
    fn refresh_fanin_loads(&mut self, gate: GateId) {
        let netlist = self.netlist;
        for &net in netlist.gate(gate).inputs() {
            self.refresh_load(net);
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
        if let Some((gate, version, relaxed)) = undo.trial_gate {
            if !std::mem::replace(&mut undo.saved_gate[gate.index()], true) {
                undo.leaf_gates.push((gate, version, relaxed));
                undo.leaf_perms.extend_from_slice(&undo.trial_perm);
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
        let mut perms = undo.leaf_perms.as_slice();
        for &(gate, version, relaxed) in &undo.leaf_gates {
            let cfg = &mut self.gate_configs[gate.index()];
            let (perm, rest) = perms.split_at(cfg.perm.len());
            cfg.version = version;
            cfg.perm.copy_from_slice(perm);
            perms = rest;
            self.relaxed[gate.index()] = relaxed;
            undo.saved_gate[gate.index()] = false;
        }
        // Every journaled gate is back first, so each refreshed load sums
        // entry-state configurations only.
        for i in 0..self.undo.leaf_gates.len() {
            self.refresh_fanin_loads(self.undo.leaf_gates[i].0);
        }
        self.undo.leaf_gates.clear();
        self.undo.leaf_perms.clear();
    }

    /// Worst arrival over the primary outputs, as stored.
    fn po_delay(&self) -> Time {
        self.netlist
            .outputs()
            .iter()
            .map(|&o| self.timing[o.index()].worst())
            .fold(Time::ZERO, Time::max)
    }

    fn full_analyze(&mut self) {
        self.counters.full_analyzes += 1;
        self.counters.gates_reevaluated += self.netlist.num_gates() as u64;
        for (nid, _) in self.netlist.nets() {
            self.refresh_load(nid);
        }
        for &pi in self.netlist.inputs() {
            self.timing[pi.index()] = NetTiming {
                arr_rise: Time::ZERO,
                arr_fall: Time::ZERO,
                slew_rise: self.config.primary_input_slew,
                slew_fall: self.config.primary_input_slew,
            };
        }
        for &gid in self.netlist.topo_order() {
            let out = self.netlist.gate(gid).output();
            self.timing[out.index()] = self.evaluate_gate(gid);
        }
    }

    /// Computes a gate's output timing from its fanin timing. Every arc
    /// table of a cell shares its axes, so the load is located once per
    /// gate and each input slew once per polarity.
    fn evaluate_gate(&self, gate: GateId) -> NetTiming {
        if self.relaxed[gate.index()] {
            return self.evaluate_gate_relaxed(gate);
        }
        let g = self.netlist.gate(gate);
        let cell = self.cells[gate.index()];
        let cfg = &self.gate_configs[gate.index()];
        let load = cell.load_segment(self.loads[g.output().index()]);
        let mut out = NetTiming {
            arr_rise: Time::new(f64::NEG_INFINITY),
            arr_fall: Time::new(f64::NEG_INFINITY),
            slew_rise: Time::ZERO,
            slew_fall: Time::ZERO,
        };
        for (logical, &inp) in g.inputs().iter().enumerate() {
            let t_in = &self.timing[inp.index()];
            let arc = cell.arc_physical(cfg.version, cfg.physical_pin(logical));
            // Inverting cells: output rise launched by input fall.
            let (d_rise, s_rise) = arc.rise.lookup_at(cell.slew_segment(t_in.slew_fall), load);
            let cand_rise = t_in.arr_fall + d_rise;
            if cand_rise > out.arr_rise {
                out.arr_rise = cand_rise;
                out.slew_rise = s_rise;
            }
            let (d_fall, s_fall) = arc.fall.lookup_at(cell.slew_segment(t_in.slew_rise), load);
            let cand_fall = t_in.arr_rise + d_fall;
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
    fn evaluate_gate_relaxed(&self, gate: GateId) -> NetTiming {
        let g = self.netlist.gate(gate);
        let cell = self.cells[gate.index()];
        let load = cell.load_segment(self.loads[g.output().index()]);
        let mut out = NetTiming {
            arr_rise: Time::new(f64::NEG_INFINITY),
            arr_fall: Time::new(f64::NEG_INFINITY),
            slew_rise: Time::new(f64::INFINITY),
            slew_fall: Time::new(f64::INFINITY),
        };
        for &inp in g.inputs() {
            let t_in = &self.timing[inp.index()];
            let slew_fall = cell.slew_segment(t_in.slew_fall);
            let mut d_rise = Time::new(f64::INFINITY);
            for table in cell.rise_tables() {
                let (d, slew) = table.lookup_at(slew_fall, load);
                d_rise = d_rise.min(d);
                out.slew_rise = out.slew_rise.min(slew);
            }
            let slew_rise = cell.slew_segment(t_in.slew_rise);
            let mut d_fall = Time::new(f64::INFINITY);
            for table in cell.fall_tables() {
                let (d, slew) = table.lookup_at(slew_rise, load);
                d_fall = d_fall.min(d);
                out.slew_fall = out.slew_fall.min(slew);
            }
            out.arr_rise = out.arr_rise.max(t_in.arr_fall + d_rise);
            out.arr_fall = out.arr_fall.max(t_in.arr_rise + d_fall);
        }
        out
    }

    /// Worst of the rise/fall delays of one arc at current slews/loads.
    fn worst_arc_delay(&self, gate: GateId, logical: usize) -> Time {
        let g = self.netlist.gate(gate);
        let cell = self.cells[gate.index()];
        let cfg = &self.gate_configs[gate.index()];
        let load = self.loads[g.output().index()];
        let inp = g.inputs()[logical];
        let t_in = &self.timing[inp.index()];
        let arc = cell.arc_physical(cfg.version, cfg.physical_pin(logical));
        let (d_rise, _) = arc.rise.lookup(t_in.slew_fall, load);
        let (d_fall, _) = arc.fall.lookup(t_in.slew_rise, load);
        d_rise.max(d_fall)
    }

    /// Recomputes the capacitive load on a net from its consumers.
    fn refresh_load(&mut self, net: NetId) {
        let n = self.netlist.net(net);
        let mut load = self.config.wire_cap_per_fanout * n.fanouts().len() as f64;
        if self.is_po[net.index()] {
            load += self.config.primary_output_load;
        }
        for &(g, pin) in n.fanouts() {
            let cell = self.cells[g.index()];
            if self.relaxed[g.index()] {
                // Floor: the smallest pin capacitance any configuration
                // could present.
                load += cell.min_input_cap();
            } else {
                let cfg = &self.gate_configs[g.index()];
                load += cell.input_cap_physical(cfg.version, cfg.physical_pin(pin as usize));
            }
        }
        self.loads[net.index()] = load;
    }
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
}
