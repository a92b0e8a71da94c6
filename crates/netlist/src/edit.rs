//! In-place ECO editing of a validated [`Netlist`].
//!
//! Four primitive operations — [`Netlist::add_gate`],
//! [`Netlist::remove_gate`], [`Netlist::rewire`] and
//! [`Netlist::retag_output`] — mutate a netlist while preserving every
//! structural invariant the rest of the workspace relies on:
//!
//! * **dense ids** — gate and net arenas never hold tombstones; a removal
//!   compacts and the documented remap rule is "every id greater than the
//!   removed one shifts down by one";
//! * **sorted fanouts** — each net's `(gate, pin)` consumer list stays
//!   sorted, so an edited netlist is bit-identical to a from-scratch
//!   rebuild of the same structure;
//! * **topological order and levels** — recomputed eagerly after every
//!   structural change with the exact builder algorithm (Kahn, id-ordered
//!   queue), so downstream consumers that pin f64 summation order to the
//!   topo order see no difference between edited and rebuilt netlists;
//! * **dirty-net set** — every edit records the nets whose logic or
//!   timing may have changed; incremental consumers drain it with
//!   [`Netlist::take_dirty`].
//!
//! [`EditScript`] is the textual form (one op per line) used by the
//! `svtox eco` CLI and the serve `"edits"` job field; applying a script
//! yields an [`EditTrace`] mapping pre-edit gate/net ids to their post-edit
//! ids, which is what ECO re-optimization uses to report reused-vs-
//! recomputed work.

use std::collections::BTreeSet;
use std::fmt;

use crate::error::NetlistError;
use crate::gate::GateKind;
use crate::netlist::{GateId, Net, NetId, Netlist};

impl Netlist {
    /// Adds a gate driving a fresh net named `output_name`, appending at
    /// the end of the gate arena. Returns the new gate and net ids.
    ///
    /// Marks the fan-in nets and the new output net dirty. Cannot create a
    /// cycle (the output net is fresh), but the topological order is still
    /// recomputed eagerly.
    ///
    /// # Errors
    ///
    /// [`NetlistError::ArityMismatch`] / [`NetlistError::UnknownNet`] for a
    /// malformed gate, [`NetlistError::Edit`] if `output_name` collides
    /// with an existing net name.
    pub fn add_gate(
        &mut self,
        kind: GateKind,
        inputs: &[NetId],
        output_name: impl Into<String>,
    ) -> Result<(GateId, NetId), NetlistError> {
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
        let name = output_name.into();
        if self.find_net(&name).is_some() {
            return Err(NetlistError::Edit(format!(
                "net name `{name}` already exists"
            )));
        }
        let out = NetId(self.nets.len() as u32);
        let gid = GateId(self.kinds.len() as u32);
        self.nets.push(Net {
            name,
            driver: Some(gid),
            fanouts: Vec::new(),
            is_output: false,
        });
        // The new gate has the largest id, so appending keeps each fanout
        // list sorted by (gate, pin).
        for (pin, &inp) in inputs.iter().enumerate() {
            self.nets[inp.index()].fanouts.push((gid, pin as u8));
        }
        self.kinds.push(kind);
        self.fanins.extend_from_slice(inputs);
        self.fanin_base.push(self.fanins.len() as u32);
        self.gate_out.push(out);
        for &inp in inputs {
            self.dirty.insert(inp);
        }
        self.dirty.insert(out);
        self.recompute_topo()
            .expect("a gate driving a fresh net cannot create a cycle");
        Ok((gid, out))
    }

    /// Removes a gate whose output net is unused (no fanouts, not a
    /// primary output), compacting both arenas: every gate id greater than
    /// `gate` and every net id greater than the gate's output net shift
    /// down by one. Marks the former fan-in nets dirty.
    ///
    /// # Errors
    ///
    /// [`NetlistError::Edit`] if the gate id is out of range, its output
    /// still has consumers, or its output is a primary output.
    pub fn remove_gate(&mut self, gate: GateId) -> Result<(), NetlistError> {
        let gi = gate.index();
        if gi >= self.kinds.len() {
            return Err(NetlistError::Edit(format!("no such gate {gate}")));
        }
        let out = self.gate_out[gi];
        if !self.nets[out.index()].fanouts.is_empty() {
            return Err(NetlistError::Edit(format!(
                "cannot remove {gate}: its output `{}` still has {} consumer(s)",
                self.nets[out.index()].name,
                self.nets[out.index()].fanouts.len()
            )));
        }
        if self.nets[out.index()].is_output {
            return Err(NetlistError::Edit(format!(
                "cannot remove {gate}: its output `{}` is a primary output",
                self.nets[out.index()].name
            )));
        }
        let fanin_nets: Vec<NetId> = self.fanin_slice(gi).to_vec();
        // Detach from the fan-in nets' consumer lists (retain preserves the
        // sorted order of the survivors).
        for &inp in &fanin_nets {
            self.nets[inp.index()].fanouts.retain(|&(g, _)| g != gate);
        }
        // Compact the gate planes.
        let (s, e) = (
            self.fanin_base[gi] as usize,
            self.fanin_base[gi + 1] as usize,
        );
        self.kinds.remove(gi);
        self.gate_out.remove(gi);
        self.fanins.drain(s..e);
        self.rebuild_fanin_base();
        // Remap gate ids > gi down by one everywhere they appear.
        for net in &mut self.nets {
            if let Some(d) = net.driver {
                if d.index() > gi {
                    net.driver = Some(GateId(d.0 - 1));
                }
            }
            for entry in &mut net.fanouts {
                if entry.0.index() > gi {
                    entry.0 = GateId(entry.0 .0 - 1);
                }
            }
        }
        // Drop the orphaned output net and remap net ids > it.
        let oi = out.index();
        self.nets.remove(oi);
        let shift = |id: &mut NetId| {
            if id.index() > oi {
                *id = NetId(id.0 - 1);
            }
        };
        for id in &mut self.fanins {
            shift(id);
        }
        for id in &mut self.gate_out {
            shift(id);
        }
        for id in &mut self.inputs {
            shift(id);
        }
        for id in &mut self.outputs {
            shift(id);
        }
        self.dirty = std::mem::take(&mut self.dirty)
            .into_iter()
            .filter(|&d| d != out)
            .map(|d| if d.index() > oi { NetId(d.0 - 1) } else { d })
            .collect();
        for inp in fanin_nets {
            let inp = if inp.index() > oi {
                NetId(inp.0 - 1)
            } else {
                inp
            };
            self.dirty.insert(inp);
        }
        self.recompute_topo()
            .expect("removing a gate cannot create a cycle");
        Ok(())
    }

    /// Reroutes one input pin of a gate to a different net. Marks the old
    /// input, the new input and the gate's output dirty.
    ///
    /// # Errors
    ///
    /// [`NetlistError::Edit`] for a bad gate id or pin index,
    /// [`NetlistError::UnknownNet`] for a bad net id, and
    /// [`NetlistError::CombinationalCycle`] if the rewire would create a
    /// cycle — in which case the netlist is left unchanged.
    pub fn rewire(
        &mut self,
        gate: GateId,
        pin: usize,
        new_input: NetId,
    ) -> Result<(), NetlistError> {
        let gi = gate.index();
        if gi >= self.kinds.len() {
            return Err(NetlistError::Edit(format!("no such gate {gate}")));
        }
        if pin >= self.kinds[gi].arity() {
            return Err(NetlistError::Edit(format!(
                "{gate} ({}) has no pin {pin}",
                self.kinds[gi]
            )));
        }
        if new_input.index() >= self.nets.len() {
            return Err(NetlistError::UnknownNet(new_input.0));
        }
        let slot = self.fanin_base[gi] as usize + pin;
        let old_input = self.fanins[slot];
        if old_input == new_input {
            return Ok(());
        }
        self.fanins[slot] = new_input;
        self.detach_fanout(old_input, gate, pin as u8);
        self.attach_fanout(new_input, gate, pin as u8);
        if let Err(cycle) = self.recompute_topo() {
            // Revert: the netlist must stay valid on a failed edit.
            self.fanins[slot] = old_input;
            self.detach_fanout(new_input, gate, pin as u8);
            self.attach_fanout(old_input, gate, pin as u8);
            self.recompute_topo()
                .expect("reverting a rewire restores the previous acyclic structure");
            return Err(cycle);
        }
        self.dirty.insert(old_input);
        self.dirty.insert(new_input);
        self.dirty.insert(self.gate_out[gi]);
        Ok(())
    }

    /// Replaces one primary output with another net, in place in the
    /// output list. Marks both nets dirty (their output loading changes).
    ///
    /// # Errors
    ///
    /// [`NetlistError::Edit`] if `from` is not a primary output or `to`
    /// already is one, [`NetlistError::UnknownNet`] for a bad net id.
    pub fn retag_output(&mut self, from: NetId, to: NetId) -> Result<(), NetlistError> {
        if to.index() >= self.nets.len() {
            return Err(NetlistError::UnknownNet(to.0));
        }
        let Some(pos) = self.outputs.iter().position(|&o| o == from) else {
            return Err(NetlistError::Edit(format!(
                "net {from} is not a primary output"
            )));
        };
        if from == to {
            return Ok(());
        }
        if self.nets[to.index()].is_output {
            return Err(NetlistError::Edit(format!(
                "net `{}` is already a primary output",
                self.nets[to.index()].name
            )));
        }
        self.outputs[pos] = to;
        self.nets[from.index()].is_output = false;
        self.nets[to.index()].is_output = true;
        self.dirty.insert(from);
        self.dirty.insert(to);
        Ok(())
    }

    /// The nets marked dirty by edits since the last
    /// [`Netlist::take_dirty`].
    #[must_use]
    pub fn dirty_nets(&self) -> &BTreeSet<NetId> {
        &self.dirty
    }

    /// Drains and returns the dirty-net set.
    pub fn take_dirty(&mut self) -> BTreeSet<NetId> {
        std::mem::take(&mut self.dirty)
    }

    fn rebuild_fanin_base(&mut self) {
        self.fanin_base.clear();
        self.fanin_base.push(0);
        let mut acc = 0u32;
        for &k in &self.kinds {
            acc += k.arity() as u32;
            self.fanin_base.push(acc);
        }
    }

    fn detach_fanout(&mut self, net: NetId, gate: GateId, pin: u8) {
        let fanouts = &mut self.nets[net.index()].fanouts;
        if let Ok(pos) = fanouts.binary_search(&(gate, pin)) {
            fanouts.remove(pos);
        }
    }

    fn attach_fanout(&mut self, net: NetId, gate: GateId, pin: u8) {
        let fanouts = &mut self.nets[net.index()].fanouts;
        let pos = fanouts
            .binary_search(&(gate, pin))
            .unwrap_or_else(|insert_at| insert_at);
        fanouts.insert(pos, (gate, pin));
    }
}

/// One edit-script operation. Signals are referenced by net name, so a
/// script survives the id remapping its own earlier operations cause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditOp {
    /// `add NAME = KIND(in1, in2, …)` — add a gate driving a fresh net.
    Add {
        /// The fresh output net name.
        output: String,
        /// The `.bench`-style kind name (`NAND`, `NOT`, …).
        kind: String,
        /// Input net names in pin order.
        inputs: Vec<String>,
    },
    /// `remove NAME` — remove the gate driving `NAME`.
    Remove {
        /// The output net of the gate to remove.
        output: String,
    },
    /// `rewire NAME PIN NEWINPUT` — reroute pin `PIN` of the gate driving
    /// `NAME` onto the net `NEWINPUT`.
    Rewire {
        /// The output net identifying the gate.
        output: String,
        /// The 0-based logical pin index.
        pin: usize,
        /// The replacement input net name.
        new_input: String,
    },
    /// `retag OLD NEW` — replace primary output `OLD` with net `NEW`.
    Retag {
        /// The current primary-output net name.
        old: String,
        /// The replacement net name.
        new: String,
    },
}

impl fmt::Display for EditOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Add {
                output,
                kind,
                inputs,
            } => write!(f, "add {output} = {kind}({})", inputs.join(", ")),
            Self::Remove { output } => write!(f, "remove {output}"),
            Self::Rewire {
                output,
                pin,
                new_input,
            } => write!(f, "rewire {output} {pin} {new_input}"),
            Self::Retag { old, new } => write!(f, "retag {old} {new}"),
        }
    }
}

/// A parsed ECO edit script: a sequence of [`EditOp`]s applied in order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EditScript {
    ops: Vec<EditOp>,
}

/// What [`EditScript::apply`] did: id maps from the pre-edit netlist into
/// the post-edit one, plus per-op counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EditTrace {
    /// Pre-edit gate id → post-edit gate id (`None` for removed gates).
    pub gate_map: Vec<Option<GateId>>,
    /// Pre-edit net id → post-edit net id (`None` for removed nets).
    pub net_map: Vec<Option<NetId>>,
    /// Gates added by the script.
    pub added_gates: usize,
    /// Gates removed by the script.
    pub removed_gates: usize,
    /// Pins rerouted by the script.
    pub rewired_pins: usize,
    /// Primary outputs retagged by the script.
    pub retagged_outputs: usize,
}

impl EditTrace {
    /// Pre-edit gates that survived every operation.
    #[must_use]
    pub fn gates_carried(&self) -> usize {
        self.gate_map.iter().flatten().count()
    }
}

impl EditScript {
    /// Builds a script from already-constructed operations.
    #[must_use]
    pub fn new(ops: Vec<EditOp>) -> Self {
        Self { ops }
    }

    /// The operations in application order.
    #[must_use]
    pub fn ops(&self) -> &[EditOp] {
        &self.ops
    }

    /// Number of operations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the script has no operations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Parses the textual form: one operation per line (see [`EditOp`]),
    /// `#` comments and blank lines ignored.
    ///
    /// # Errors
    ///
    /// [`NetlistError::Parse`] with the offending 1-based line number.
    pub fn parse(text: &str) -> Result<Self, NetlistError> {
        let mut ops = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let err = |message: String| NetlistError::Parse {
                line: idx + 1,
                message,
            };
            let (verb, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
            let rest = rest.trim();
            let op = match verb {
                "add" => {
                    let (output, expr) = rest
                        .split_once('=')
                        .ok_or_else(|| err("expected `add NAME = KIND(inputs)`".into()))?;
                    let expr = expr.trim();
                    let open = expr
                        .find('(')
                        .ok_or_else(|| err("missing `(` in gate expression".into()))?;
                    let close = expr
                        .rfind(')')
                        .ok_or_else(|| err("missing `)` in gate expression".into()))?;
                    if close < open {
                        return Err(err("mismatched parentheses".into()));
                    }
                    let inputs: Vec<String> = expr[open + 1..close]
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect();
                    if inputs.is_empty() {
                        return Err(err("gate needs at least one input".into()));
                    }
                    EditOp::Add {
                        output: output.trim().to_string(),
                        kind: expr[..open].trim().to_string(),
                        inputs,
                    }
                }
                "remove" => {
                    if rest.is_empty() || rest.contains(char::is_whitespace) {
                        return Err(err("expected `remove NAME`".into()));
                    }
                    EditOp::Remove {
                        output: rest.to_string(),
                    }
                }
                "rewire" => {
                    let parts: Vec<&str> = rest.split_whitespace().collect();
                    let [output, pin, new_input] = parts[..] else {
                        return Err(err("expected `rewire NAME PIN NEWINPUT`".into()));
                    };
                    let pin: usize = pin
                        .parse()
                        .map_err(|_| err(format!("bad pin index `{pin}`")))?;
                    EditOp::Rewire {
                        output: output.to_string(),
                        pin,
                        new_input: new_input.to_string(),
                    }
                }
                "retag" => {
                    let parts: Vec<&str> = rest.split_whitespace().collect();
                    let [old, new] = parts[..] else {
                        return Err(err("expected `retag OLD NEW`".into()));
                    };
                    EditOp::Retag {
                        old: old.to_string(),
                        new: new.to_string(),
                    }
                }
                other => return Err(err(format!("unknown edit op `{other}`"))),
            };
            ops.push(op);
        }
        Ok(Self { ops })
    }

    /// Applies every operation in order, returning the id maps and counts.
    ///
    /// On error the netlist may have a *prefix* of the script applied —
    /// each individual operation is atomic, the script is not. Callers that
    /// need all-or-nothing semantics clone first (scripts are tiny ECO
    /// deltas; the clone is the cheap part).
    ///
    /// # Errors
    ///
    /// Any edit-API error, tagged with the failing operation.
    pub fn apply(&self, netlist: &mut Netlist) -> Result<EditTrace, NetlistError> {
        let mut trace = EditTrace {
            gate_map: (0..netlist.num_gates())
                .map(|i| Some(GateId(i as u32)))
                .collect(),
            net_map: (0..netlist.num_nets())
                .map(|i| Some(NetId(i as u32)))
                .collect(),
            added_gates: 0,
            removed_gates: 0,
            rewired_pins: 0,
            retagged_outputs: 0,
        };
        let resolve = |n: &Netlist, name: &str| -> Result<NetId, NetlistError> {
            n.find_net(name)
                .ok_or_else(|| NetlistError::UndefinedSignal(name.to_string()))
        };
        for op in &self.ops {
            match op {
                EditOp::Add {
                    output,
                    kind,
                    inputs,
                } => {
                    let kind = kind_with_arity(kind, inputs.len())?;
                    let ids: Vec<NetId> = inputs
                        .iter()
                        .map(|name| resolve(netlist, name))
                        .collect::<Result<_, _>>()?;
                    netlist.add_gate(kind, &ids, output.clone())?;
                    trace.added_gates += 1;
                }
                EditOp::Remove { output } => {
                    let net = resolve(netlist, output)?;
                    let Some(gate) = netlist.net(net).driver() else {
                        return Err(NetlistError::Edit(format!(
                            "`{output}` is a primary input, not a gate output"
                        )));
                    };
                    netlist.remove_gate(gate)?;
                    trace.removed_gates += 1;
                    for slot in trace.gate_map.iter_mut() {
                        *slot = match *slot {
                            Some(g) if g == gate => None,
                            Some(g) if g > gate => Some(GateId(g.0 - 1)),
                            keep => keep,
                        };
                    }
                    for slot in trace.net_map.iter_mut() {
                        *slot = match *slot {
                            Some(n) if n == net => None,
                            Some(n) if n > net => Some(NetId(n.0 - 1)),
                            keep => keep,
                        };
                    }
                }
                EditOp::Rewire {
                    output,
                    pin,
                    new_input,
                } => {
                    let net = resolve(netlist, output)?;
                    let Some(gate) = netlist.net(net).driver() else {
                        return Err(NetlistError::Edit(format!(
                            "`{output}` is a primary input, not a gate output"
                        )));
                    };
                    let new_input = resolve(netlist, new_input)?;
                    netlist.rewire(gate, *pin, new_input)?;
                    trace.rewired_pins += 1;
                }
                EditOp::Retag { old, new } => {
                    let old = resolve(netlist, old)?;
                    let new = resolve(netlist, new)?;
                    netlist.retag_output(old, new)?;
                    trace.retagged_outputs += 1;
                }
            }
        }
        Ok(trace)
    }
}

impl fmt::Display for EditScript {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for op in &self.ops {
            writeln!(f, "{op}")?;
        }
        Ok(())
    }
}

/// Parses a `.bench`-style kind name and fixes the arity from the operand
/// count (the same rule the `.bench` parser uses).
fn kind_with_arity(name: &str, arity: usize) -> Result<GateKind, NetlistError> {
    let kind: GateKind = name.parse()?;
    let kind = match kind {
        GateKind::Nand(_) => GateKind::Nand(arity as u8),
        GateKind::Nor(_) => GateKind::Nor(arity as u8),
        GateKind::And(_) => GateKind::And(arity as u8),
        GateKind::Or(_) => GateKind::Or(arity as u8),
        fixed => fixed,
    };
    Ok(kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;

    /// y = NAND(a, INV(b)); z = NOR(y, b); output z.
    fn toy() -> Netlist {
        let mut b = NetlistBuilder::new("toy");
        let a = b.add_input("a");
        let bb = b.add_input("b");
        let nb = b.add_gate_named(GateKind::Inv, &[bb], "nb").unwrap();
        let y = b.add_gate_named(GateKind::Nand(2), &[a, nb], "y").unwrap();
        let z = b.add_gate_named(GateKind::Nor(2), &[y, bb], "z").unwrap();
        b.mark_output(z);
        b.finish().unwrap()
    }

    /// Rebuilds a netlist from its raw structure through the builder — the
    /// differential oracle for incremental editing.
    fn rebuild(n: &Netlist) -> Netlist {
        let mut b = NetlistBuilder::new(n.name());
        for (_, net) in n.nets() {
            b.declare_net(net.name());
        }
        for &pi in n.inputs() {
            b.promote_to_input(pi).unwrap();
        }
        for (_, g) in n.gates() {
            b.add_gate_driving(g.kind(), g.inputs(), g.output())
                .unwrap();
        }
        for &po in n.outputs() {
            b.mark_output(po);
        }
        b.finish().unwrap()
    }

    #[test]
    fn add_gate_appends_and_marks_dirty() {
        let mut n = toy();
        let a = n.find_net("a").unwrap();
        let b = n.find_net("b").unwrap();
        let (gid, out) = n.add_gate(GateKind::Nand(2), &[a, b], "t0").unwrap();
        assert_eq!(n.num_gates(), 4);
        assert_eq!(gid.index(), 3);
        assert_eq!(n.gate(gid).output(), out);
        assert_eq!(n.net(out).driver(), Some(gid));
        assert!(n.dirty_nets().contains(&a));
        assert!(n.dirty_nets().contains(&out));
        assert_eq!(n, rebuild(&n));
        assert!(n.take_dirty().len() >= 3);
        assert!(n.dirty_nets().is_empty());
    }

    #[test]
    fn add_gate_rejects_duplicate_name_and_bad_inputs() {
        let mut n = toy();
        let a = n.find_net("a").unwrap();
        assert!(matches!(
            n.add_gate(GateKind::Inv, &[a], "y"),
            Err(NetlistError::Edit(_))
        ));
        assert!(matches!(
            n.add_gate(GateKind::Inv, &[NetId(99)], "t"),
            Err(NetlistError::UnknownNet(99))
        ));
        assert!(matches!(
            n.add_gate(GateKind::Nand(2), &[a], "t"),
            Err(NetlistError::ArityMismatch { .. })
        ));
        assert_eq!(n, toy());
    }

    #[test]
    fn remove_gate_compacts_both_arenas() {
        let mut n = toy();
        let a = n.find_net("a").unwrap();
        let b = n.find_net("b").unwrap();
        let (gid, _) = n.add_gate(GateKind::Nand(2), &[a, b], "t0").unwrap();
        n.take_dirty();
        n.remove_gate(gid).unwrap();
        assert_eq!(n, toy());
        // The fan-in nets come back dirty.
        assert!(n.dirty_nets().contains(&a));
        assert!(n.dirty_nets().contains(&b));
    }

    #[test]
    fn remove_inner_gate_remaps_higher_ids() {
        // Add two gates, remove the FIRST added one: the second shifts.
        let mut n = toy();
        let a = n.find_net("a").unwrap();
        let (g_t0, t0) = n.add_gate(GateKind::Inv, &[a], "t0").unwrap();
        let (_, _t1) = n.add_gate(GateKind::Inv, &[a], "t1").unwrap();
        n.remove_gate(g_t0).unwrap();
        assert_eq!(n.num_gates(), 4);
        assert!(n.find_net("t0").is_none());
        let t1_now = n.find_net("t1").unwrap();
        assert!(t1_now.index() < t0.index() + 1);
        assert_eq!(n, rebuild(&n));
        // The survivor still computes INV(a).
        let d = n.net(t1_now).driver().unwrap();
        assert_eq!(n.gate(d).kind(), GateKind::Inv);
        assert_eq!(n.gate(d).inputs(), &[a]);
    }

    #[test]
    fn remove_gate_preconditions() {
        let mut n = toy();
        let y = n.find_net("y").unwrap();
        let z = n.find_net("z").unwrap();
        // y feeds the NOR: still consumed.
        let gy = n.net(y).driver().unwrap();
        assert!(matches!(n.remove_gate(gy), Err(NetlistError::Edit(_))));
        // z is a primary output.
        let gz = n.net(z).driver().unwrap();
        assert!(matches!(n.remove_gate(gz), Err(NetlistError::Edit(_))));
        assert!(matches!(
            n.remove_gate(GateId(40)),
            Err(NetlistError::Edit(_))
        ));
        assert_eq!(n, toy());
    }

    #[test]
    fn rewire_moves_a_pin_and_updates_topo() {
        let mut n = toy();
        let a = n.find_net("a").unwrap();
        let b = n.find_net("b").unwrap();
        let z = n.find_net("z").unwrap();
        let gz = n.net(z).driver().unwrap();
        // NOR(y, b) -> NOR(y, a).
        n.rewire(gz, 1, a).unwrap();
        assert_eq!(n.gate(gz).inputs()[1], a);
        assert!(n.net(b).fanouts().iter().all(|&(g, _)| g != gz));
        assert!(n.net(a).fanouts().contains(&(gz, 1)));
        assert_eq!(n, rebuild(&n));
        assert!(n.dirty_nets().contains(&a));
        assert!(n.dirty_nets().contains(&b));
        assert!(n.dirty_nets().contains(&z));
        // Rewiring to the same net is a no-op.
        let before = n.clone();
        n.rewire(gz, 1, a).unwrap();
        assert_eq!(n, before);
    }

    #[test]
    fn rewire_reverts_on_cycle() {
        let mut n = toy();
        let y = n.find_net("y").unwrap();
        let z = n.find_net("z").unwrap();
        let gy = n.net(y).driver().unwrap();
        // NAND(a, nb) -> NAND(z, nb) would close the y -> z -> y loop.
        let before = n.clone();
        assert!(matches!(
            n.rewire(gy, 0, z),
            Err(NetlistError::CombinationalCycle(_))
        ));
        assert_eq!(n, before);
        assert!(n.dirty_nets().is_empty());
        // Self-loop is also a cycle.
        assert!(matches!(
            n.rewire(gy, 0, y),
            Err(NetlistError::CombinationalCycle(_))
        ));
        assert_eq!(n, before);
    }

    #[test]
    fn rewire_rejects_bad_ids() {
        let mut n = toy();
        let a = n.find_net("a").unwrap();
        let z = n.find_net("z").unwrap();
        let gz = n.net(z).driver().unwrap();
        assert!(matches!(
            n.rewire(GateId(9), 0, a),
            Err(NetlistError::Edit(_))
        ));
        assert!(matches!(n.rewire(gz, 5, a), Err(NetlistError::Edit(_))));
        assert!(matches!(
            n.rewire(gz, 0, NetId(50)),
            Err(NetlistError::UnknownNet(50))
        ));
    }

    #[test]
    fn retag_output_swaps_the_po() {
        let mut n = toy();
        let y = n.find_net("y").unwrap();
        let z = n.find_net("z").unwrap();
        n.retag_output(z, y).unwrap();
        assert_eq!(n.outputs(), &[y]);
        assert!(n.is_primary_output(y));
        assert!(!n.is_primary_output(z));
        assert!(n.dirty_nets().contains(&y));
        assert!(n.dirty_nets().contains(&z));
        // Errors: not-an-output, already-an-output, unknown.
        assert!(matches!(n.retag_output(z, y), Err(NetlistError::Edit(_))));
        let mut m = toy();
        m.retag_output(z, z).unwrap(); // no-op
        assert_eq!(m, toy());
        assert!(matches!(
            m.retag_output(z, NetId(77)),
            Err(NetlistError::UnknownNet(77))
        ));
    }

    #[test]
    fn script_parse_apply_and_roundtrip() {
        let text = "\
# widen the toy circuit
add t0 = NAND(a, b)
add t1 = NOT(t0)
rewire z 1 t1   # NOR(y, b) -> NOR(y, t1)
retag z t0
remove t1       # fails if still consumed? no: z was retagged off t1? keep consumed check honest
";
        // `remove t1` must fail while z still consumes t1 — build a valid
        // script instead and keep the failing one for the error path.
        let script =
            EditScript::parse("add t0 = NAND(a, b)\nadd t1 = NOT(t0)\nrewire z 1 t1\nretag z t0\n")
                .unwrap();
        assert_eq!(script.len(), 4);
        let mut n = toy();
        let trace = script.apply(&mut n).unwrap();
        assert_eq!(trace.added_gates, 2);
        assert_eq!(trace.rewired_pins, 1);
        assert_eq!(trace.retagged_outputs, 1);
        assert_eq!(trace.gates_carried(), 3);
        assert_eq!(n.num_gates(), 5);
        assert_eq!(n, rebuild(&n));
        // Display → parse round-trips.
        let reparsed = EditScript::parse(&script.to_string()).unwrap();
        assert_eq!(reparsed, script);
        // The commented variant still parses (remove is syntactically fine).
        assert_eq!(EditScript::parse(text).unwrap().len(), 5);
    }

    #[test]
    fn script_apply_maps_removed_ids() {
        let mut n = toy();
        let script =
            EditScript::parse("add t0 = NOT(a)\nadd t1 = NOT(t0)\nremove t1\nremove t0\n").unwrap();
        let trace = script.apply(&mut n).unwrap();
        assert_eq!(trace.added_gates, 2);
        assert_eq!(trace.removed_gates, 2);
        assert_eq!(trace.gates_carried(), 3);
        // Pre-edit gates survive with identity mapping (adds were appended
        // after them, removals only touched the added tail).
        for (i, slot) in trace.gate_map.iter().enumerate() {
            assert_eq!(*slot, Some(GateId(i as u32)));
        }
        assert_eq!(n, toy());
    }

    #[test]
    fn script_parse_errors_carry_line_numbers() {
        for (text, want_line) in [
            ("frobnicate x\n", 1),
            ("add t0 = NAND(a, b)\nrewire z q t0\n", 2),
            ("\n\nadd t0 NAND(a)\n", 3),
            ("remove\n", 1),
            ("retag z\n", 1),
            ("add t0 = NAND a, b\n", 1),
        ] {
            match EditScript::parse(text) {
                Err(NetlistError::Parse { line, .. }) => assert_eq!(line, want_line, "{text:?}"),
                other => panic!("{text:?}: expected parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn script_apply_errors_on_unknown_signal_and_pi_removal() {
        let mut n = toy();
        assert!(matches!(
            EditScript::parse("remove ghost\n").unwrap().apply(&mut n),
            Err(NetlistError::UndefinedSignal(_))
        ));
        assert!(matches!(
            EditScript::parse("remove a\n").unwrap().apply(&mut n),
            Err(NetlistError::Edit(_))
        ));
        assert!(matches!(
            EditScript::parse("rewire a 0 b\n").unwrap().apply(&mut n),
            Err(NetlistError::Edit(_))
        ));
    }

    #[test]
    fn content_hash_tracks_edits() {
        let mut n = toy();
        let h0 = n.content_hash();
        let a = n.find_net("a").unwrap();
        let b = n.find_net("b").unwrap();
        let (gid, _) = n.add_gate(GateKind::Nand(2), &[a, b], "t0").unwrap();
        assert_ne!(n.content_hash(), h0);
        n.remove_gate(gid).unwrap();
        assert_eq!(n.content_hash(), h0, "undo restores the hash");
    }
}
