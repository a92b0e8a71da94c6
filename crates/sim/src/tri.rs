//! Three-valued event-driven simulation for partial standby vectors.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use svtox_cells::InputState;
use svtox_netlist::{GateId, GateKind, NetId, Netlist};

use crate::logic::Logic;

/// Three-valued, event-driven simulator.
///
/// The state-tree search decides primary inputs one at a time; undecided
/// inputs are `X`. For every gate, the simulator can enumerate the input
/// states still reachable ([`TriSimulator::possible_states`]); the
/// optimizer's leakage lower bound is the minimum over that set. After
/// each [`TriSimulator::set_input`], [`TriSimulator::changed_nets`] lists
/// the nets whose value that call changed, so a caller can refresh
/// exactly the gates they feed.
#[derive(Debug, Clone)]
pub struct TriSimulator<'a> {
    netlist: &'a Netlist,
    net_values: Vec<Logic>,
    queued: Vec<bool>,
    /// Event queue keyed by (level, gate): empty between calls and reused,
    /// so deciding an input allocates nothing once it has grown.
    heap: BinaryHeap<Reverse<(u32, GateId)>>,
    /// Nets whose value the last `set_input` changed.
    changed: Vec<NetId>,
}

impl<'a> TriSimulator<'a> {
    /// Creates a simulator with every primary input undecided.
    #[must_use]
    pub fn new(netlist: &'a Netlist) -> Self {
        let mut sim = Self {
            netlist,
            net_values: vec![Logic::X; netlist.num_nets()],
            queued: vec![false; netlist.num_gates()],
            heap: BinaryHeap::new(),
            changed: Vec::new(),
        };
        sim.full_eval();
        sim
    }

    /// The netlist under simulation.
    #[must_use]
    pub fn netlist(&self) -> &'a Netlist {
        self.netlist
    }

    /// Number of primary inputs still undecided.
    #[must_use]
    pub fn num_undecided(&self) -> usize {
        self.netlist
            .inputs()
            .iter()
            .filter(|&&pi| self.net_values[pi.index()] == Logic::X)
            .count()
    }

    /// Sets one primary input (by position) to a three-valued level,
    /// propagating only the affected cone. Returns the number of gates
    /// re-evaluated; [`TriSimulator::changed_nets`] then lists the nets
    /// whose value changed (empty when `value` equals the current level).
    ///
    /// # Panics
    ///
    /// Panics if `input_index` is out of range.
    pub fn set_input(&mut self, input_index: usize, value: Logic) -> usize {
        self.changed.clear();
        let pi = self.netlist.inputs()[input_index];
        if self.net_values[pi.index()] == value {
            return 0;
        }
        self.set_net(pi, value);
        let mut evaluated = 0;
        // Stack scratch (arity-bounded): deciding an input never allocates,
        // which matters because the state search calls this at every node.
        let mut ins = [Logic::X; GateKind::MAX_ARITY];
        while let Some(Reverse((_lvl, gate_id))) = self.heap.pop() {
            self.queued[gate_id.index()] = false;
            evaluated += 1;
            let gate = self.netlist.gate(gate_id);
            let pins = gate.inputs();
            for (slot, &n) in ins.iter_mut().zip(pins) {
                *slot = self.net_values[n.index()];
            }
            let new = Logic::eval_gate(gate.kind(), &ins[..pins.len()]);
            let out = gate.output();
            if self.net_values[out.index()] != new {
                self.set_net(out, new);
            }
        }
        evaluated
    }

    /// Records a changed net and queues its fanout gates in level order.
    fn set_net(&mut self, net: NetId, value: Logic) {
        self.net_values[net.index()] = value;
        self.changed.push(net);
        for &(g, _pin) in self.netlist.net(net).fanouts() {
            if !self.queued[g.index()] {
                self.queued[g.index()] = true;
                self.heap.push(Reverse((self.netlist.level(g), g)));
            }
        }
    }

    /// The nets whose value the last [`TriSimulator::set_input`] changed,
    /// the decided input's own net first, then in evaluation (level)
    /// order. Each net appears at most once: a gate is evaluated once per
    /// call, after all of its inputs have settled.
    #[must_use]
    pub fn changed_nets(&self) -> &[NetId] {
        &self.changed
    }

    /// Resets every primary input to undecided (and empties
    /// [`TriSimulator::changed_nets`]).
    pub fn clear(&mut self) {
        self.changed.clear();
        for v in &mut self.net_values {
            *v = Logic::X;
        }
        self.full_eval();
    }

    /// The value of a net.
    ///
    /// # Panics
    ///
    /// Panics if the net id is out of range.
    #[must_use]
    pub fn value(&self, net: NetId) -> Logic {
        self.net_values[net.index()]
    }

    /// The three-valued input levels of a gate, in logical pin order.
    ///
    /// # Panics
    ///
    /// Panics if the gate id is out of range.
    #[must_use]
    pub fn gate_levels(&self, gate: GateId) -> Vec<Logic> {
        self.netlist
            .gate(gate)
            .inputs()
            .iter()
            .map(|&n| self.net_values[n.index()])
            .collect()
    }

    /// Enumerates the input states a gate can still assume given the
    /// decided inputs: the Cartesian expansion of its `X` pins.
    ///
    /// Note this is a (tight, cheap) superset of the truly reachable
    /// states — correlations between `X` nets are ignored, which is the
    /// safe direction for bounding.
    #[must_use]
    pub fn possible_states(&self, gate: GateId) -> Vec<InputState> {
        let levels = self.gate_levels(gate);
        let free: Vec<usize> = levels
            .iter()
            .enumerate()
            .filter(|(_, &l)| l == Logic::X)
            .map(|(i, _)| i)
            .collect();
        let mut base: u16 = 0;
        for (i, &l) in levels.iter().enumerate() {
            if l == Logic::One {
                base |= 1 << i;
            }
        }
        (0..(1u32 << free.len()))
            .map(|combo| {
                let mut bits = base;
                for (k, &pin) in free.iter().enumerate() {
                    if combo >> k & 1 == 1 {
                        bits |= 1 << pin;
                    }
                }
                InputState::from_bits(bits, levels.len())
            })
            .collect()
    }

    fn full_eval(&mut self) {
        let mut ins = [Logic::X; GateKind::MAX_ARITY];
        for &gid in self.netlist.topo_order() {
            let gate = self.netlist.gate(gid);
            let pins = gate.inputs();
            for (slot, &n) in ins.iter_mut().zip(pins) {
                *slot = self.net_values[n.index()];
            }
            self.net_values[gate.output().index()] =
                Logic::eval_gate(gate.kind(), &ins[..pins.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::two::Simulator;
    use svtox_netlist::generators::{random_dag, RandomDagSpec};
    use svtox_netlist::{GateKind, NetlistBuilder};

    fn toy() -> Netlist {
        let mut b = NetlistBuilder::new("toy");
        let a = b.add_input("a");
        let c = b.add_input("b");
        let nb = b.add_gate(GateKind::Inv, &[c]).unwrap();
        let y = b.add_gate(GateKind::Nand(2), &[a, nb]).unwrap();
        b.mark_output(y);
        b.finish().unwrap()
    }

    #[test]
    fn starts_all_unknown() {
        let n = toy();
        let sim = TriSimulator::new(&n);
        assert_eq!(sim.num_undecided(), 2);
        for (nid, _) in n.nets() {
            assert_eq!(sim.value(nid), Logic::X);
        }
    }

    #[test]
    fn controlling_input_decides_cone() {
        let n = toy();
        let mut sim = TriSimulator::new(&n);
        // a=0 forces the NAND to 1 even though b is unknown.
        sim.set_input(0, Logic::Zero);
        let y = n.outputs()[0];
        assert_eq!(sim.value(y), Logic::One);
        assert_eq!(sim.num_undecided(), 1);
    }

    #[test]
    fn agrees_with_two_valued_when_fully_decided() {
        let spec = RandomDagSpec::new("tri-test", 16, 6, 200, 10);
        let n = random_dag(&spec).unwrap();
        let mut tri = TriSimulator::new(&n);
        let mut two = Simulator::new(&n);
        let vector: Vec<bool> = (0..n.num_inputs()).map(|i| i % 3 == 0).collect();
        two.set_inputs(&vector);
        for (i, &v) in vector.iter().enumerate() {
            tri.set_input(i, Logic::from(v));
        }
        assert_eq!(tri.num_undecided(), 0);
        for (nid, _) in n.nets() {
            assert_eq!(tri.value(nid).to_bool(), Some(two.value(nid)));
        }
    }

    #[test]
    fn possible_states_cover_actual_state() {
        let spec = RandomDagSpec::new("tri-cover", 12, 4, 120, 8);
        let n = random_dag(&spec).unwrap();
        let mut tri = TriSimulator::new(&n);
        // Decide half the inputs.
        for i in 0..n.num_inputs() / 2 {
            tri.set_input(i, Logic::from(i % 2 == 0));
        }
        // Complete the vector in a two-valued simulator.
        let mut two = Simulator::new(&n);
        let vector: Vec<bool> = (0..n.num_inputs())
            .map(|i| {
                if i < n.num_inputs() / 2 {
                    i % 2 == 0
                } else {
                    true
                }
            })
            .collect();
        two.set_inputs(&vector);
        for (gid, _) in n.gates() {
            let actual = two.gate_state(gid);
            let possible = tri.possible_states(gid);
            assert!(
                possible.contains(&actual),
                "gate {gid}: state {actual} not in possible set"
            );
        }
    }

    #[test]
    fn possible_states_shrink_as_inputs_decide() {
        let n = toy();
        let mut sim = TriSimulator::new(&n);
        let nand = n.topo_order()[1];
        assert_eq!(sim.possible_states(nand).len(), 4);
        sim.set_input(0, Logic::One);
        assert_eq!(sim.possible_states(nand).len(), 2);
        sim.set_input(1, Logic::Zero);
        assert_eq!(sim.possible_states(nand).len(), 1);
    }

    #[test]
    fn clear_resets() {
        let n = toy();
        let mut sim = TriSimulator::new(&n);
        sim.set_input(0, Logic::One);
        sim.set_input(1, Logic::Zero);
        sim.clear();
        assert_eq!(sim.num_undecided(), 2);
    }

    #[test]
    fn changed_nets_are_exactly_the_nets_that_moved() {
        let spec = RandomDagSpec::new("tri-changed", 10, 4, 90, 7);
        let n = random_dag(&spec).unwrap();
        let mut sim = TriSimulator::new(&n);
        let mut rng = 0x9e37_79b9_7f4a_7c15_u64;
        for _ in 0..200 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            let input = (rng % n.num_inputs() as u64) as usize;
            let value = [Logic::Zero, Logic::One, Logic::X][(rng >> 32) as usize % 3];
            let before: Vec<Logic> = n.nets().map(|(nid, _)| sim.value(nid)).collect();
            sim.set_input(input, value);
            let mut moved: Vec<NetId> = n
                .nets()
                .filter(|&(nid, _)| sim.value(nid) != before[nid.index()])
                .map(|(nid, _)| nid)
                .collect();
            let mut reported = sim.changed_nets().to_vec();
            reported.sort_unstable();
            reported.dedup();
            assert_eq!(
                reported.len(),
                sim.changed_nets().len(),
                "a net listed twice"
            );
            moved.sort_unstable();
            assert_eq!(reported, moved);
        }
    }

    #[test]
    fn changed_nets_empty_after_same_value() {
        let n = toy();
        let mut sim = TriSimulator::new(&n);
        // b=1 drives the inverter to 0, which forces the NAND to 1.
        sim.set_input(1, Logic::One);
        assert_eq!(sim.changed_nets().len(), 3);
        assert_eq!(sim.set_input(1, Logic::One), 0);
        assert!(sim.changed_nets().is_empty(), "stale list after a no-op");
        // A decided input whose fanout does not move reports only itself.
        sim.set_input(0, Logic::Zero);
        assert_eq!(sim.changed_nets(), &[n.inputs()[0]]);
    }

    #[test]
    fn undoing_an_input_works_via_x() {
        let n = toy();
        let mut sim = TriSimulator::new(&n);
        let y = n.outputs()[0];
        sim.set_input(0, Logic::Zero);
        assert_eq!(sim.value(y), Logic::One);
        sim.set_input(0, Logic::X);
        assert_eq!(sim.value(y), Logic::X);
    }
}
