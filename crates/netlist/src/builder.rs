//! Programmatic netlist construction.

use std::collections::BTreeSet;
use std::collections::HashMap;

use crate::error::NetlistError;
use crate::gate::GateKind;
use crate::netlist::{GateId, Net, NetId, Netlist};

/// Counters of the builder's structural-hashing table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StrashStats {
    /// `add_gate` calls answered by an existing structurally-identical
    /// gate instead of creating a new one.
    pub hits: u64,
    /// `add_gate` calls that created a new gate (table misses). Only
    /// feed-forward additions participate; `add_gate_driving` onto a
    /// declared net never dedupes (the net identity is caller-visible).
    pub misses: u64,
}

/// Builder for [`Netlist`].
///
/// Two construction styles are supported:
///
/// * **feed-forward** — [`NetlistBuilder::add_gate`] creates the output net
///   together with the gate, so cycles are impossible by construction;
/// * **declare-then-drive** — [`NetlistBuilder::declare_net`] +
///   [`NetlistBuilder::add_gate_driving`] allow forward references (needed
///   by the `.bench` parser); [`NetlistBuilder::finish`] then validates
///   acyclicity and completeness.
///
/// With [`NetlistBuilder::with_strash`], feed-forward additions are
/// structurally hashed: an `add_gate` whose canonical `(kind, inputs)` key
/// — inputs sorted for commutative kinds — matches an existing gate
/// returns that gate's output net instead of duplicating the logic.
/// Strashing is opt-in because it changes gate counts, which calibrated
/// generators pin.
///
/// # Example
///
/// ```
/// use svtox_netlist::{GateKind, NetlistBuilder};
///
/// # fn main() -> Result<(), svtox_netlist::NetlistError> {
/// let mut b = NetlistBuilder::new("half_adder");
/// let a = b.add_input("a");
/// let c = b.add_input("b");
/// let sum = b.add_gate(GateKind::Xor2, &[a, c])?;
/// let carry = b.add_gate(GateKind::And(2), &[a, c])?;
/// b.mark_output(sum);
/// b.mark_output(carry);
/// let n = b.finish()?;
/// assert_eq!(n.num_outputs(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NetlistBuilder {
    name: String,
    nets: Vec<Net>,
    kinds: Vec<GateKind>,
    fanin_base: Vec<u32>,
    fanins: Vec<NetId>,
    gate_out: Vec<NetId>,
    inputs: Vec<NetId>,
    /// By net: whether it is in `inputs`.
    is_input: Vec<bool>,
    outputs: Vec<NetId>,
    auto_name: u64,
    /// Canonical `(kind, sorted-inputs)` → existing output net. `None`
    /// disables structural hashing (the default).
    strash: Option<HashMap<(GateKind, Vec<NetId>), NetId>>,
    strash_stats: StrashStats,
}

/// The canonical structural key of a gate: inputs sorted when the kind is
/// commutative (every kind in this IR computes a symmetric function except
/// pin order never matters logically — INV/BUF are unary), so two gates
/// with permuted input lists hash identically.
pub(crate) fn strash_key(kind: GateKind, inputs: &[NetId]) -> (GateKind, Vec<NetId>) {
    let mut ins = inputs.to_vec();
    ins.sort_unstable();
    (kind, ins)
}

impl NetlistBuilder {
    /// Creates an empty builder for a netlist with the given name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            nets: Vec::new(),
            kinds: Vec::new(),
            fanin_base: vec![0],
            fanins: Vec::new(),
            gate_out: Vec::new(),
            inputs: Vec::new(),
            is_input: Vec::new(),
            outputs: Vec::new(),
            auto_name: 0,
            strash: None,
            strash_stats: StrashStats::default(),
        }
    }

    /// Enables structural hashing of feed-forward [`NetlistBuilder::add_gate`]
    /// additions (see the type docs).
    #[must_use]
    pub fn with_strash(mut self) -> Self {
        self.strash = Some(HashMap::new());
        self
    }

    /// Hit/miss counters of the structural-hashing table (all zero when
    /// strashing is disabled).
    #[must_use]
    pub fn strash_stats(&self) -> StrashStats {
        self.strash_stats
    }

    /// Number of gates added so far.
    #[must_use]
    pub fn num_gates(&self) -> usize {
        self.kinds.len()
    }

    /// Number of nets created so far.
    #[must_use]
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// Adds a primary input and returns its net.
    pub fn add_input(&mut self, name: impl Into<String>) -> NetId {
        let id = self.new_net(name.into());
        self.inputs.push(id);
        self.is_input[id.index()] = true;
        id
    }

    /// Declares an initially-undriven net (for forward references).
    ///
    /// The net must later be driven via [`NetlistBuilder::add_gate_driving`]
    /// or be registered as an input via [`NetlistBuilder::promote_to_input`],
    /// otherwise [`NetlistBuilder::finish`] fails.
    pub fn declare_net(&mut self, name: impl Into<String>) -> NetId {
        self.new_net(name.into())
    }

    /// Promotes a previously-declared, undriven net to a primary input.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::MultipleDrivers`] if the net is already driven
    /// or already an input.
    pub fn promote_to_input(&mut self, net: NetId) -> Result<(), NetlistError> {
        if self.nets[net.index()].driver.is_some() || self.is_input[net.index()] {
            return Err(NetlistError::MultipleDrivers(
                self.nets[net.index()].name.clone(),
            ));
        }
        self.inputs.push(net);
        self.is_input[net.index()] = true;
        Ok(())
    }

    /// Adds a gate, creating a fresh auto-named output net.
    ///
    /// With [`NetlistBuilder::with_strash`], a structurally identical
    /// existing gate short-circuits the addition and its output net is
    /// returned instead.
    ///
    /// # Errors
    ///
    /// Returns an error if the arity does not match or an input net id is
    /// unknown.
    pub fn add_gate(&mut self, kind: GateKind, inputs: &[NetId]) -> Result<NetId, NetlistError> {
        if self.strash.is_some() {
            kind.validate()?;
            if inputs.len() != kind.arity() {
                return Err(NetlistError::ArityMismatch {
                    kind: kind.to_string(),
                    expected: kind.arity(),
                    got: inputs.len(),
                });
            }
            for &inp in inputs {
                if inp.index() >= self.nets.len() {
                    return Err(NetlistError::UnknownNet(inp.0));
                }
            }
            let key = strash_key(kind, inputs);
            if let Some(&existing) = self.strash.as_ref().and_then(|t| t.get(&key)) {
                self.strash_stats.hits += 1;
                return Ok(existing);
            }
            self.strash_stats.misses += 1;
        }
        let name = format!("_w{}", self.auto_name);
        self.auto_name += 1;
        let out = self.add_gate_named(kind, inputs, name)?;
        if self.strash.is_some() {
            let key = strash_key(kind, inputs);
            if let Some(table) = self.strash.as_mut() {
                table.insert(key, out);
            }
        }
        Ok(out)
    }

    /// Adds a gate, creating a named output net.
    ///
    /// # Errors
    ///
    /// Returns an error if the arity does not match or an input net id is
    /// unknown.
    pub fn add_gate_named(
        &mut self,
        kind: GateKind,
        inputs: &[NetId],
        output_name: impl Into<String>,
    ) -> Result<NetId, NetlistError> {
        let out = self.new_net(output_name.into());
        self.add_gate_driving(kind, inputs, out)?;
        Ok(out)
    }

    /// Adds a gate that drives a previously-declared net.
    ///
    /// # Errors
    ///
    /// Returns an error if the arity does not match, a net id is unknown, or
    /// the output net already has a driver.
    pub fn add_gate_driving(
        &mut self,
        kind: GateKind,
        inputs: &[NetId],
        output: NetId,
    ) -> Result<(), NetlistError> {
        kind.validate()?;
        if inputs.len() != kind.arity() {
            return Err(NetlistError::ArityMismatch {
                kind: kind.to_string(),
                expected: kind.arity(),
                got: inputs.len(),
            });
        }
        for &inp in inputs {
            if inp.index() >= self.nets.len() {
                return Err(NetlistError::UnknownNet(inp.0));
            }
        }
        if output.index() >= self.nets.len() {
            return Err(NetlistError::UnknownNet(output.0));
        }
        if self.nets[output.index()].driver.is_some() || self.is_input[output.index()] {
            return Err(NetlistError::MultipleDrivers(
                self.nets[output.index()].name.clone(),
            ));
        }
        let gid = GateId(self.kinds.len() as u32);
        for (pin, &inp) in inputs.iter().enumerate() {
            self.nets[inp.index()].fanouts.push((gid, pin as u8));
        }
        self.nets[output.index()].driver = Some(gid);
        self.kinds.push(kind);
        self.fanins.extend_from_slice(inputs);
        self.fanin_base.push(self.fanins.len() as u32);
        self.gate_out.push(output);
        Ok(())
    }

    /// Marks a net as a primary output (idempotent).
    pub fn mark_output(&mut self, net: NetId) {
        if !std::mem::replace(&mut self.nets[net.index()].is_output, true) {
            self.outputs.push(net);
        }
    }

    /// Validates and freezes the netlist.
    ///
    /// # Errors
    ///
    /// Returns an error if the netlist is empty, any declared net is never
    /// driven, or a combinational cycle exists.
    pub fn finish(self) -> Result<Netlist, NetlistError> {
        Netlist {
            name: self.name,
            nets: self.nets,
            kinds: self.kinds,
            fanin_base: self.fanin_base,
            fanins: self.fanins,
            gate_out: self.gate_out,
            inputs: self.inputs,
            outputs: self.outputs,
            topo: Vec::new(),
            levels: Vec::new(),
            dirty: BTreeSet::new(),
        }
        .finalize()
    }

    fn new_net(&mut self, name: String) -> NetId {
        let id = NetId(self.nets.len() as u32);
        self.nets.push(Net {
            name,
            driver: None,
            fanouts: Vec::new(),
            is_output: false,
        });
        self.is_input.push(false);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feed_forward_construction() {
        let mut b = NetlistBuilder::new("t");
        let a = b.add_input("a");
        let y = b.add_gate(GateKind::Inv, &[a]).unwrap();
        b.mark_output(y);
        b.mark_output(y); // idempotent
        let n = b.finish().unwrap();
        assert_eq!(n.num_outputs(), 1);
    }

    #[test]
    fn forward_reference_construction() {
        let mut b = NetlistBuilder::new("t");
        let a = b.add_input("a");
        let fwd = b.declare_net("later");
        let y = b.add_gate(GateKind::Nand(2), &[a, fwd]).unwrap();
        b.add_gate_driving(GateKind::Inv, &[a], fwd).unwrap();
        b.mark_output(y);
        let n = b.finish().unwrap();
        assert_eq!(n.num_gates(), 2);
        assert_eq!(n.depth(), 2);
    }

    #[test]
    fn detects_cycle() {
        let mut b = NetlistBuilder::new("t");
        let a = b.add_input("a");
        let x = b.declare_net("x");
        let y = b.declare_net("y");
        b.add_gate_driving(GateKind::Nand(2), &[a, y], x).unwrap();
        b.add_gate_driving(GateKind::Inv, &[x], y).unwrap();
        b.mark_output(y);
        assert!(matches!(
            b.finish(),
            Err(NetlistError::CombinationalCycle(_))
        ));
    }

    #[test]
    fn detects_undriven_net() {
        let mut b = NetlistBuilder::new("t");
        let a = b.add_input("a");
        let ghost = b.declare_net("ghost");
        let y = b.add_gate(GateKind::Nand(2), &[a, ghost]).unwrap();
        b.mark_output(y);
        assert_eq!(
            b.finish(),
            Err(NetlistError::UndefinedSignal("ghost".into()))
        );
    }

    #[test]
    fn detects_double_driver() {
        let mut b = NetlistBuilder::new("t");
        let a = b.add_input("a");
        let x = b.declare_net("x");
        b.add_gate_driving(GateKind::Inv, &[a], x).unwrap();
        let err = b.add_gate_driving(GateKind::Inv, &[a], x).unwrap_err();
        assert_eq!(err, NetlistError::MultipleDrivers("x".into()));
    }

    #[test]
    fn detects_arity_mismatch_and_unknown_net() {
        let mut b = NetlistBuilder::new("t");
        let a = b.add_input("a");
        assert!(matches!(
            b.add_gate(GateKind::Nand(2), &[a]),
            Err(NetlistError::ArityMismatch { .. })
        ));
        assert!(matches!(
            b.add_gate(GateKind::Inv, &[NetId(99)]),
            Err(NetlistError::UnknownNet(99))
        ));
    }

    #[test]
    fn rejects_empty() {
        let b = NetlistBuilder::new("t");
        assert_eq!(b.finish(), Err(NetlistError::Empty));
        let mut b = NetlistBuilder::new("t");
        b.add_input("a");
        assert_eq!(b.finish(), Err(NetlistError::Empty));
    }

    #[test]
    fn promote_to_input() {
        let mut b = NetlistBuilder::new("t");
        let fwd = b.declare_net("pi_late");
        let y = b.add_gate(GateKind::Inv, &[fwd]).unwrap();
        b.promote_to_input(fwd).unwrap();
        b.mark_output(y);
        let n = b.finish().unwrap();
        assert_eq!(n.num_inputs(), 1);
        // Promoting a driven net fails.
        let mut b = NetlistBuilder::new("t");
        let a = b.add_input("a");
        let y = b.add_gate(GateKind::Inv, &[a]).unwrap();
        assert!(b.promote_to_input(y).is_err());
        assert!(b.promote_to_input(a).is_err());
    }

    #[test]
    fn strash_dedupes_commutative_duplicates() {
        let mut b = NetlistBuilder::new("t").with_strash();
        let a = b.add_input("a");
        let c = b.add_input("c");
        let y1 = b.add_gate(GateKind::Nand(2), &[a, c]).unwrap();
        let y2 = b.add_gate(GateKind::Nand(2), &[c, a]).unwrap(); // permuted
        let y3 = b.add_gate(GateKind::Nand(2), &[a, c]).unwrap(); // exact
        assert_eq!(y1, y2);
        assert_eq!(y1, y3);
        // Different kind or inputs: no dedupe.
        let z = b.add_gate(GateKind::Nor(2), &[a, c]).unwrap();
        assert_ne!(z, y1);
        let inv = b.add_gate(GateKind::Inv, &[y1]).unwrap();
        b.mark_output(inv);
        b.mark_output(z);
        let stats = b.strash_stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 3);
        let n = b.finish().unwrap();
        assert_eq!(n.num_gates(), 3);
    }

    #[test]
    fn strash_off_by_default() {
        let mut b = NetlistBuilder::new("t");
        let a = b.add_input("a");
        let c = b.add_input("c");
        let y1 = b.add_gate(GateKind::Nand(2), &[a, c]).unwrap();
        let y2 = b.add_gate(GateKind::Nand(2), &[a, c]).unwrap();
        assert_ne!(y1, y2);
        assert_eq!(b.strash_stats(), StrashStats::default());
        b.mark_output(y1);
        b.mark_output(y2);
        assert_eq!(b.finish().unwrap().num_gates(), 2);
    }

    #[test]
    fn strash_errors_before_touching_the_table() {
        let mut b = NetlistBuilder::new("t").with_strash();
        let a = b.add_input("a");
        assert!(matches!(
            b.add_gate(GateKind::Nand(2), &[a]),
            Err(NetlistError::ArityMismatch { .. })
        ));
        assert!(matches!(
            b.add_gate(GateKind::Inv, &[NetId(40)]),
            Err(NetlistError::UnknownNet(40))
        ));
        assert_eq!(b.strash_stats(), StrashStats::default());
    }
}
