//! The validated netlist IR: SoA gate arenas plus per-net connectivity.
//!
//! Gate storage is struct-of-arrays: a kind plane, a CSR fan-in pool and an
//! output plane. The hot traversals (STA propagation, packed leakage
//! sweeps, topological evaluation) walk one plane linearly instead of
//! hopping across per-gate heap allocations. [`GateRef`] is the cheap
//! `Copy` view stitched over the planes; call sites keep the
//! `gate.kind()` / `gate.inputs()` / `gate.output()` idiom unchanged.
//!
//! Netlists constructed by [`crate::NetlistBuilder`] or [`crate::parse_bench`]
//! are validated and topologically sorted. In-place ECO edits
//! (`add_gate` / `remove_gate` / `rewire` / `retag_output`, see the `edit`
//! module) maintain fanout lists, topological order and a dirty-net set
//! incrementally.

use std::collections::{BTreeSet, HashMap};
use std::fmt;

use crate::error::NetlistError;
use crate::gate::GateKind;

/// Identifier of a net (signal) within one [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub(crate) u32);

impl NetId {
    /// The raw index.
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a gate instance within one [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GateId(pub(crate) u32);

impl GateId {
    /// The raw index.
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for GateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// One signal: its name, its driver and its fanout (consumer pins).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Net {
    pub(crate) name: String,
    /// `None` means the net is a primary input.
    pub(crate) driver: Option<GateId>,
    /// `(gate, pin index)` pairs that consume this net, sorted by
    /// `(gate, pin)` — builder construction pushes gates in id order and
    /// the edit API inserts at the sorted position, so the invariant holds
    /// for both built and edited netlists.
    pub(crate) fanouts: Vec<(GateId, u8)>,
    /// Whether the net is in the netlist's primary-output list.
    pub(crate) is_output: bool,
}

impl Net {
    /// The signal name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The driving gate, or `None` for a primary input.
    #[must_use]
    pub fn driver(&self) -> Option<GateId> {
        self.driver
    }

    /// The consuming `(gate, pin)` pairs.
    #[must_use]
    pub fn fanouts(&self) -> &[(GateId, u8)] {
        &self.fanouts
    }
}

/// A borrowed view of one gate instance, stitched over the SoA planes.
///
/// `Copy`, so `let g = netlist.gate(gid);` costs three loads and no
/// indirection; `g.inputs()` borrows straight from the shared fan-in pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateRef<'a> {
    pub(crate) kind: GateKind,
    pub(crate) inputs: &'a [NetId],
    pub(crate) output: NetId,
}

impl<'a> GateRef<'a> {
    /// The logic function.
    #[inline]
    #[must_use]
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// Input nets in pin order.
    #[must_use]
    pub fn inputs(&self) -> &'a [NetId] {
        self.inputs
    }

    /// The output net.
    #[must_use]
    pub fn output(&self) -> NetId {
        self.output
    }
}

/// Summary statistics of a netlist (see [`Netlist::stats`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NetlistStats {
    /// Primary-input count.
    pub inputs: usize,
    /// Primary-output count.
    pub outputs: usize,
    /// Total gate count.
    pub gates: usize,
    /// Logic depth (longest PI→PO path in gate counts).
    pub depth: usize,
    /// Gate count per kind, sorted by kind.
    pub kind_histogram: Vec<(GateKind, usize)>,
}

impl fmt::Display for NetlistStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} inputs, {} outputs, {} gates, depth {}",
            self.inputs, self.outputs, self.gates, self.depth
        )
    }
}

/// A validated, acyclic, combinational gate-level netlist.
///
/// Construct via [`crate::NetlistBuilder`] or [`crate::parse_bench`]; bulk
/// passes like [`crate::map_to_primitives`] produce new netlists, while the
/// in-place edit API (`add_gate` / `remove_gate` / `rewire` /
/// `retag_output`) applies small ECO deltas and keeps the invariants —
/// dense ids, sorted fanouts, topological order, levels — intact.
#[derive(Debug, Clone)]
pub struct Netlist {
    pub(crate) name: String,
    pub(crate) nets: Vec<Net>,
    /// SoA gate planes. `fanin_base` has one sentinel entry past the end,
    /// so gate `i`'s fan-ins are `fanins[fanin_base[i]..fanin_base[i+1]]`.
    pub(crate) kinds: Vec<GateKind>,
    pub(crate) fanin_base: Vec<u32>,
    pub(crate) fanins: Vec<NetId>,
    pub(crate) gate_out: Vec<NetId>,
    pub(crate) inputs: Vec<NetId>,
    pub(crate) outputs: Vec<NetId>,
    /// Gates in topological (fanin-before-fanout) order.
    pub(crate) topo: Vec<GateId>,
    /// Longest-path level of each gate (PIs are level 0; a gate's level is
    /// 1 + max level of its fanin gates).
    pub(crate) levels: Vec<u32>,
    /// Nets whose logic or timing may have changed since the last
    /// [`Netlist::take_dirty`] — seeded by the edit API, empty on freshly
    /// built netlists. Not part of structural equality.
    pub(crate) dirty: BTreeSet<NetId>,
}

/// Structural equality: everything except the transient dirty set.
impl PartialEq for Netlist {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.nets == other.nets
            && self.kinds == other.kinds
            && self.fanin_base == other.fanin_base
            && self.fanins == other.fanins
            && self.gate_out == other.gate_out
            && self.inputs == other.inputs
            && self.outputs == other.outputs
            && self.topo == other.topo
            && self.levels == other.levels
    }
}

impl Netlist {
    /// The netlist name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of gates.
    #[must_use]
    pub fn num_gates(&self) -> usize {
        self.kinds.len()
    }

    /// Number of nets (primary inputs + gate outputs).
    #[must_use]
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// Number of primary inputs.
    #[must_use]
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    #[must_use]
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Primary-input nets in declaration order.
    #[must_use]
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary-output nets in declaration order.
    #[must_use]
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// The fan-in slice of one gate index.
    pub(crate) fn fanin_slice(&self, gi: usize) -> &[NetId] {
        &self.fanins[self.fanin_base[gi] as usize..self.fanin_base[gi + 1] as usize]
    }

    /// Looks up a gate.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this netlist.
    #[must_use]
    pub fn gate(&self, id: GateId) -> GateRef<'_> {
        let gi = id.index();
        GateRef {
            kind: self.kinds[gi],
            inputs: self.fanin_slice(gi),
            output: self.gate_out[gi],
        }
    }

    /// Looks up a net.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this netlist.
    #[must_use]
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Iterates over `(GateId, GateRef)` in id order.
    pub fn gates(&self) -> impl ExactSizeIterator<Item = (GateId, GateRef<'_>)> + '_ {
        (0..self.kinds.len()).map(|i| (GateId(i as u32), self.gate(GateId(i as u32))))
    }

    /// Iterates over `(NetId, &Net)` in id order.
    pub fn nets(&self) -> impl ExactSizeIterator<Item = (NetId, &Net)> + '_ {
        self.nets
            .iter()
            .enumerate()
            .map(|(i, n)| (NetId(i as u32), n))
    }

    /// Gates in topological (fanin-before-fanout) order.
    #[must_use]
    pub fn topo_order(&self) -> &[GateId] {
        &self.topo
    }

    /// Longest-path level of a gate (1 for gates fed only by PIs).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this netlist.
    #[must_use]
    pub fn level(&self, id: GateId) -> u32 {
        self.levels[id.index()]
    }

    /// Logic depth: maximum gate level.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.levels.iter().copied().max().unwrap_or(0) as usize
    }

    /// Whether a net is a primary input.
    #[must_use]
    pub fn is_primary_input(&self, id: NetId) -> bool {
        self.net(id).driver.is_none()
    }

    /// Whether a net is a primary output.
    #[must_use]
    pub fn is_primary_output(&self, id: NetId) -> bool {
        self.net(id).is_output
    }

    /// Finds a net by name.
    #[must_use]
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.nets
            .iter()
            .position(|n| n.name == name)
            .map(|i| NetId(i as u32))
    }

    /// Whether every gate is a primitive standby-library cell.
    #[must_use]
    pub fn is_primitive(&self) -> bool {
        self.kinds.iter().all(|k| k.is_primitive())
    }

    /// Computes summary statistics.
    #[must_use]
    pub fn stats(&self) -> NetlistStats {
        let mut hist: HashMap<GateKind, usize> = HashMap::new();
        for &k in &self.kinds {
            *hist.entry(k).or_insert(0) += 1;
        }
        let mut kind_histogram: Vec<_> = hist.into_iter().collect();
        kind_histogram.sort();
        NetlistStats {
            inputs: self.inputs.len(),
            outputs: self.outputs.len(),
            gates: self.kinds.len(),
            depth: self.depth(),
            kind_histogram,
        }
    }

    /// Evaluates the netlist on one input vector, returning the primary
    /// output values in declaration order.
    ///
    /// This is the reference Boolean semantics; the `svtox-sim` crate builds
    /// faster and three-valued evaluation on top of the same IR.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != self.num_inputs()`.
    #[must_use]
    pub fn evaluate(&self, values: &[bool]) -> Vec<bool> {
        assert_eq!(
            values.len(),
            self.num_inputs(),
            "expected {} input values",
            self.num_inputs()
        );
        let mut net_vals = vec![false; self.nets.len()];
        for (&pi, &v) in self.inputs.iter().zip(values) {
            net_vals[pi.index()] = v;
        }
        let mut scratch = Vec::new();
        for &gid in &self.topo {
            let gi = gid.index();
            scratch.clear();
            scratch.extend(self.fanin_slice(gi).iter().map(|&n| net_vals[n.index()]));
            net_vals[self.gate_out[gi].index()] = self.kinds[gi].eval(&scratch);
        }
        self.outputs.iter().map(|&o| net_vals[o.index()]).collect()
    }

    /// Serializes to the ISCAS-85 `.bench` text format.
    ///
    /// The output can be re-read with [`crate::parse_bench`] **provided net
    /// names are unique** — the textual formats identify signals by name,
    /// so a netlist with duplicate names (possible when mixing auto-named
    /// and hand-named nets) round-trips as a merged, invalid circuit. All
    /// generators and passes in this crate produce unique names.
    #[must_use]
    pub fn to_bench(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("# {}\n", self.name));
        for &pi in &self.inputs {
            out.push_str(&format!("INPUT({})\n", self.net(pi).name));
        }
        for &po in &self.outputs {
            out.push_str(&format!("OUTPUT({})\n", self.net(po).name));
        }
        for &gid in &self.topo {
            let g = self.gate(gid);
            let base = match g.kind {
                GateKind::Inv => "NOT".to_string(),
                GateKind::Buf => "BUFF".to_string(),
                GateKind::Nand(_) => "NAND".to_string(),
                GateKind::Nor(_) => "NOR".to_string(),
                GateKind::And(_) => "AND".to_string(),
                GateKind::Or(_) => "OR".to_string(),
                GateKind::Xor2 => "XOR".to_string(),
                GateKind::Xnor2 => "XNOR".to_string(),
            };
            let args: Vec<&str> = g.inputs.iter().map(|&n| self.net(n).name()).collect();
            out.push_str(&format!(
                "{} = {}({})\n",
                self.net(g.output).name,
                base,
                args.join(", ")
            ));
        }
        out
    }

    /// A 64-bit FNV-1a hash of the netlist structure: the netlist name, the
    /// primary input/output id lists, and every gate's kind, fan-ins and
    /// output in id order. Net *names* are excluded, so two netlists that
    /// differ only in signal naming hash identically — this is the content
    /// key the serve-side mapped-netlist cache uses for post-edit lookups.
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(PRIME);
            }
        };
        eat(self.name.as_bytes());
        eat(&(self.inputs.len() as u32).to_le_bytes());
        for &pi in &self.inputs {
            eat(&pi.0.to_le_bytes());
        }
        eat(&(self.outputs.len() as u32).to_le_bytes());
        for &po in &self.outputs {
            eat(&po.0.to_le_bytes());
        }
        eat(&(self.kinds.len() as u32).to_le_bytes());
        for gi in 0..self.kinds.len() {
            eat(&kind_code(self.kinds[gi]).to_le_bytes());
            for &inp in self.fanin_slice(gi) {
                eat(&inp.0.to_le_bytes());
            }
            eat(&self.gate_out[gi].0.to_le_bytes());
        }
        h
    }

    /// Validates internal consistency and computes topological order and
    /// levels. Called by the builder.
    pub(crate) fn finalize(mut self) -> Result<Self, NetlistError> {
        if self.inputs.is_empty() || self.kinds.is_empty() {
            return Err(NetlistError::Empty);
        }
        let mut is_pi = vec![false; self.nets.len()];
        for &pi in &self.inputs {
            is_pi[pi.index()] = true;
        }
        // Every net must be driven (by a gate or by being a PI).
        for (net, &is_pi) in self.nets.iter().zip(&is_pi) {
            if net.driver.is_none() && !is_pi {
                return Err(NetlistError::UndefinedSignal(net.name.clone()));
            }
        }
        // Duplicate-driver cross-check over *every* net, recomputed from
        // the gate output plane — independent of what construction recorded
        // in `Net::driver`, so a front end that stamped drivers
        // inconsistently cannot smuggle a multiply-driven net past
        // validation.
        let mut drive_count = vec![0u32; self.nets.len()];
        for &out in &self.gate_out {
            drive_count[out.index()] += 1;
        }
        for (i, &count) in drive_count.iter().enumerate() {
            if count > 1 || (count == 1 && is_pi[i]) {
                return Err(NetlistError::MultipleDrivers(self.nets[i].name.clone()));
            }
        }
        self.recompute_topo()?;
        Ok(self)
    }

    /// Kahn's algorithm over the current planes: recomputes `topo` and
    /// `levels` in place, detecting combinational cycles. The edit API
    /// calls this after every structural change; the algorithm (id-ordered
    /// initial queue, BFS append, longest-path levels) is a pure function
    /// of the gate planes and net drivers, so an edited netlist and a
    /// from-scratch rebuild of the same structure order identically.
    pub(crate) fn recompute_topo(&mut self) -> Result<(), NetlistError> {
        let n = self.kinds.len();
        let mut fanin_count = vec![0u32; n];
        for (gi, count) in fanin_count.iter_mut().enumerate() {
            *count = self
                .fanin_slice(gi)
                .iter()
                .filter(|&&inp| self.nets[inp.index()].driver.is_some())
                .count() as u32;
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| fanin_count[i] == 0).collect();
        let mut topo = Vec::with_capacity(n);
        let mut levels = vec![0u32; n];
        let mut head = 0;
        while head < queue.len() {
            let gi = queue[head];
            head += 1;
            topo.push(GateId(gi as u32));
            let level = 1 + self
                .fanin_slice(gi)
                .iter()
                .filter_map(|&inp| self.nets[inp.index()].driver)
                .map(|d| levels[d.index()])
                .max()
                .unwrap_or(0);
            levels[gi] = level;
            let out = self.gate_out[gi];
            for &(consumer, _pin) in &self.nets[out.index()].fanouts {
                let ci = consumer.index();
                fanin_count[ci] -= 1;
                if fanin_count[ci] == 0 {
                    queue.push(ci);
                }
            }
        }
        if topo.len() != n {
            // Find a gate stuck in a cycle for the error message.
            let stuck = (0..n).find(|&i| fanin_count[i] > 0).unwrap_or(0);
            let name = self.nets[self.gate_out[stuck].index()].name.clone();
            return Err(NetlistError::CombinationalCycle(name));
        }
        self.topo = topo;
        self.levels = levels;
        Ok(())
    }
}

/// Stable per-kind hash code (tag byte ~ arity byte).
fn kind_code(kind: GateKind) -> u16 {
    let (tag, n): (u8, u8) = match kind {
        GateKind::Inv => (1, 1),
        GateKind::Buf => (2, 1),
        GateKind::Nand(n) => (3, n),
        GateKind::Nor(n) => (4, n),
        GateKind::And(n) => (5, n),
        GateKind::Or(n) => (6, n),
        GateKind::Xor2 => (7, 2),
        GateKind::Xnor2 => (8, 2),
    };
    u16::from_le_bytes([tag, n])
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.name, self.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;

    fn toy() -> Netlist {
        // y = NAND(a, INV(b)); z = NOR(y, b)
        let mut b = NetlistBuilder::new("toy");
        let a = b.add_input("a");
        let bb = b.add_input("b");
        let nb = b.add_gate(GateKind::Inv, &[bb]).unwrap();
        let y = b.add_gate(GateKind::Nand(2), &[a, nb]).unwrap();
        let z = b.add_gate(GateKind::Nor(2), &[y, bb]).unwrap();
        b.mark_output(z);
        b.finish().unwrap()
    }

    #[test]
    fn basic_accessors() {
        let n = toy();
        assert_eq!(n.name(), "toy");
        assert_eq!(n.num_gates(), 3);
        assert_eq!(n.num_inputs(), 2);
        assert_eq!(n.num_outputs(), 1);
        assert_eq!(n.num_nets(), 5);
        assert!(n.is_primitive());
        assert_eq!(n.gates().len(), 3);
        assert_eq!(n.nets().len(), 5);
    }

    #[test]
    fn topo_order_respects_dependencies() {
        let n = toy();
        let pos: HashMap<GateId, usize> = n
            .topo_order()
            .iter()
            .enumerate()
            .map(|(i, &g)| (g, i))
            .collect();
        for (gid, gate) in n.gates() {
            for &inp in gate.inputs() {
                if let Some(driver) = n.net(inp).driver() {
                    assert!(pos[&driver] < pos[&gid]);
                }
            }
        }
    }

    #[test]
    fn levels_and_depth() {
        let n = toy();
        assert_eq!(n.depth(), 3);
        // INV(b) is level 1, NAND level 2, NOR level 3.
        let levels: Vec<u32> = n.gates().map(|(g, _)| n.level(g)).collect();
        assert_eq!(levels, vec![1, 2, 3]);
    }

    #[test]
    fn fanout_lists() {
        let n = toy();
        let b_net = n.find_net("b").unwrap();
        // b feeds the inverter (pin 0) and the NOR (pin 1).
        assert_eq!(n.net(b_net).fanouts().len(), 2);
        assert!(n.is_primary_input(b_net));
        assert!(!n.is_primary_output(b_net));
    }

    #[test]
    fn finalize_rejects_inconsistently_stamped_duplicate_drivers() {
        // Two gates sharing an output net in the gate plane while the
        // per-net `driver` stamps still look one-per-net: the finalize
        // cross-check recomputes drive counts from the plane, so the
        // smuggled duplicate is caught anyway.
        let mut n = toy();
        n.gate_out[0] = n.gate_out[1];
        assert!(matches!(
            n.finalize(),
            Err(NetlistError::MultipleDrivers(_))
        ));
        // Same recomputation catches a gate "driving" a primary input.
        let mut n = toy();
        n.gate_out[0] = n.inputs[0];
        assert!(matches!(
            n.finalize(),
            Err(NetlistError::MultipleDrivers(name)) if name == "a"
        ));
    }

    #[test]
    fn fanouts_are_sorted_by_gate_then_pin() {
        let n = toy();
        for (_, net) in n.nets() {
            let mut sorted = net.fanouts().to_vec();
            sorted.sort();
            assert_eq!(net.fanouts(), &sorted[..]);
        }
    }

    #[test]
    fn gate_ref_is_copy_and_borrows_the_pool() {
        let n = toy();
        let g = n.gate(GateId(1));
        let h = g; // Copy
        assert_eq!(g.kind(), h.kind());
        assert_eq!(g.inputs(), h.inputs());
        assert_eq!(g.output(), h.output());
        assert_eq!(g.kind(), GateKind::Nand(2));
        assert_eq!(g.inputs().len(), 2);
    }

    #[test]
    fn stats_histogram() {
        let s = toy().stats();
        assert_eq!(s.gates, 3);
        assert_eq!(s.depth, 3);
        assert_eq!(s.kind_histogram.len(), 3);
        assert!(s.to_string().contains("3 gates"));
    }

    #[test]
    fn bench_roundtrip() {
        let n = toy();
        let text = n.to_bench();
        let parsed = crate::parse_bench(&text).unwrap();
        assert_eq!(parsed.num_gates(), n.num_gates());
        assert_eq!(parsed.num_inputs(), n.num_inputs());
        assert_eq!(parsed.num_outputs(), n.num_outputs());
        assert_eq!(parsed.depth(), n.depth());
    }

    #[test]
    fn content_hash_ignores_net_names_but_not_structure() {
        let n = toy();
        let h = n.content_hash();
        assert_eq!(h, toy().content_hash(), "deterministic");
        // Renamed signals, identical structure.
        let mut renamed = toy();
        renamed.nets[0].name = "alpha".to_string();
        assert_eq!(renamed.content_hash(), h);
        // A structural change moves the hash.
        let mut b = NetlistBuilder::new("toy");
        let a = b.add_input("a");
        let bb = b.add_input("b");
        let nb = b.add_gate(GateKind::Inv, &[bb]).unwrap();
        let y = b.add_gate(GateKind::Nor(2), &[a, nb]).unwrap(); // NAND -> NOR
        let z = b.add_gate(GateKind::Nor(2), &[y, bb]).unwrap();
        b.mark_output(z);
        let other = b.finish().unwrap();
        assert_ne!(other.content_hash(), h);
    }

    #[test]
    fn display_is_informative() {
        let n = toy();
        let shown = n.to_string();
        assert!(shown.contains("toy"));
        assert!(shown.contains("3 gates"));
    }
}
