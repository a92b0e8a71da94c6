//! Domain strategies: random circuits, `.bench` text mutations, input
//! vectors, cell states, and optimizer configurations.
//!
//! This module is also the shared home of the random-circuit helpers the
//! top-level integration suites (`tests/cross_crate_invariants.rs`,
//! `tests/parallel_determinism.rs`, `tests/end_to_end.rs`) used to copy
//! between each other.

use svtox_cells::{InputState, Library, LibraryOptions};
use svtox_core::{DelayPenalty, Mode};
use svtox_exec::rng::Xoshiro256pp;
use svtox_netlist::generators::{random_dag, RandomDagSpec};
use svtox_netlist::{EditOp, EditScript, GateKind, Netlist, NetlistBuilder};
use svtox_tech::Technology;

use crate::strategy::Strategy;

/// The default characterized library used across the test suites.
///
/// # Panics
///
/// Panics if the predictive-65nm library fails to characterize, which is a
/// bug by itself.
#[must_use]
pub fn test_library() -> Library {
    Library::new(Technology::predictive_65nm(), LibraryOptions::default()).expect("library builds")
}

/// Draws `(seed, inputs, gates)` in the historical cross-crate-invariant
/// ranges: seeds below 1000, 6–13 inputs, 20–89 gates.
pub fn random_circuit_params(rng: &mut Xoshiro256pp) -> (u64, usize, usize) {
    (
        rng.next_u64() % 1000,
        6 + rng.gen_index(8),
        20 + rng.gen_index(70),
    )
}

/// Builds the seeded random circuit the integration suites share: a
/// 4-output, depth-6 layered DAG.
///
/// # Panics
///
/// Panics if the spec is degenerate (callers pass generator-valid sizes).
#[must_use]
pub fn random_circuit(name: &str, seed: u64, inputs: usize, gates: usize) -> Netlist {
    let mut spec = RandomDagSpec::new(name, inputs, 4, gates, 6);
    spec.seed = seed;
    random_dag(&spec).expect("valid spec generates")
}

/// A named circuit plus the default library, as used by the determinism
/// suites.
///
/// # Panics
///
/// Panics if the spec is degenerate or the library fails to build.
#[must_use]
pub fn circuit(name: &str, inputs: usize, gates: usize, depth: usize) -> (Netlist, Library) {
    let spec = RandomDagSpec::new(name, inputs, 4, gates, depth);
    (
        random_dag(&spec).expect("valid spec generates"),
        test_library(),
    )
}

/// `inputs` primary inputs, each driving one inverter whose output is a
/// primary output: the widest shape per gate the state tree can meet.
///
/// # Panics
///
/// Panics if `inputs` is 0.
#[must_use]
pub fn inverter_array(inputs: usize) -> Netlist {
    let mut b = NetlistBuilder::new(format!("inv{inputs}"));
    for k in 0..inputs {
        let pi = b.add_input(format!("a{k}"));
        let y = b
            .add_gate_named(GateKind::Inv, &[pi], format!("y{k}"))
            .expect("an inverter on a fresh input");
        b.mark_output(y);
    }
    b.finish().expect("a non-empty inverter array is valid")
}

/// `n` with extra primary inputs that feed no gate, interleaved among its
/// own, and with some inputs, old and new, also marked primary outputs.
/// Gates, fan-ins and the original outputs are unchanged.
///
/// # Panics
///
/// Panics if `n` violates its own invariants.
#[must_use]
pub fn with_idle_inputs(n: &Netlist, seed: u64) -> Netlist {
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut b = NetlistBuilder::new(n.name());
    for (_, net) in n.nets() {
        b.declare_net(net.name());
    }
    let mut inputs = Vec::new();
    for &pi in n.inputs() {
        while rng.gen_index(4) == 0 {
            inputs.push(b.add_input(format!("idle{}", inputs.len())));
        }
        b.promote_to_input(pi).expect("inputs are undriven");
        inputs.push(pi);
    }
    inputs.push(b.add_input("idle_last"));
    for (_, g) in n.gates() {
        b.add_gate_driving(g.kind(), g.inputs(), g.output())
            .expect("gates re-apply to the same nets");
    }
    for &po in n.outputs() {
        b.mark_output(po);
    }
    for pi in inputs {
        if rng.gen_index(4) == 0 {
            b.mark_output(pi);
        }
    }
    b.finish().expect("extra inputs keep a netlist valid")
}

/// Random layered-DAG specs within the given size bounds, shrinking
/// through [`RandomDagSpec::shrink_candidates`] — i.e. DAG-aware gate and
/// input removal that never proposes a degenerate spec.
#[derive(Debug, Clone)]
pub struct DagStrategy {
    /// Inclusive bounds on the primary-input count.
    pub inputs: (usize, usize),
    /// Inclusive bounds on the gate count.
    pub gates: (usize, usize),
    /// Inclusive bounds on the target depth.
    pub depth: (usize, usize),
}

impl DagStrategy {
    /// Small circuits sized for exact-oracle comparison (≤ 6 inputs, so an
    /// exhaustive input-state enumeration stays cheap).
    #[must_use]
    pub fn small() -> Self {
        Self {
            inputs: (2, 6),
            gates: (4, 16),
            depth: (2, 4),
        }
    }

    /// Medium circuits in the historical cross-crate-invariant ranges.
    #[must_use]
    pub fn medium() -> Self {
        Self {
            inputs: (6, 13),
            gates: (20, 89),
            depth: (4, 7),
        }
    }
}

impl Strategy for DagStrategy {
    type Value = RandomDagSpec;

    fn generate(&self, rng: &mut Xoshiro256pp) -> RandomDagSpec {
        let inputs = self.inputs.0 + rng.gen_index(self.inputs.1 - self.inputs.0 + 1);
        let mut gates = self.gates.0 + rng.gen_index(self.gates.1 - self.gates.0 + 1);
        // Generator precondition: enough gate pins to consume every input.
        gates = gates.max(inputs.div_ceil(3));
        let depth = self.depth.0 + rng.gen_index(self.depth.1 - self.depth.0 + 1);
        let mut spec = RandomDagSpec::new("check", inputs, 4, gates, depth);
        spec.seed = rng.next_u64();
        spec
    }

    fn shrink(&self, value: &RandomDagSpec) -> Vec<RandomDagSpec> {
        value.shrink_candidates()
    }
}

/// Generates a random-but-valid ECO edit script for `netlist`: every
/// candidate operation is validated against a scratch clone before it is
/// kept, so the returned script applies cleanly to (a clone of)
/// `netlist`. Candidates cover all four edit primitives; ones the edit
/// API rejects (cycle-creating rewires, removals of consumed gates) are
/// skipped, so the script may hold fewer than `num_ops` operations.
///
/// Signals are referenced by name, edits never add or drop a primary
/// input, and retags only promote gate-driven nets — so the edited
/// netlist keeps the same input count and stays a valid optimization
/// problem.
#[must_use]
pub fn random_edit_script(netlist: &Netlist, seed: u64, num_ops: usize) -> EditScript {
    // Primitive library kinds only: ECO scripts in the optimization flow
    // edit already-mapped netlists, and `Problem::new` rejects anything
    // the standby library cannot characterize (e.g. AND2).
    const KINDS: [&str; 3] = ["NAND", "NOR", "NOT"];
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut scratch = netlist.clone();
    let mut ops: Vec<EditOp> = Vec::new();
    let mut fresh = 0usize;
    for _ in 0..num_ops.saturating_mul(8) {
        if ops.len() >= num_ops {
            break;
        }
        let names: Vec<String> = scratch
            .nets()
            .map(|(_, net)| net.name().to_string())
            .collect();
        let op = match rng.gen_index(4) {
            0 => {
                let kind = KINDS[rng.gen_index(KINDS.len())];
                let arity = if kind == "NOT" { 1 } else { 2 };
                let inputs: Vec<String> = (0..arity)
                    .map(|_| names[rng.gen_index(names.len())].clone())
                    .collect();
                fresh += 1;
                EditOp::Add {
                    output: format!("ecoq{fresh}"),
                    kind: kind.to_string(),
                    inputs,
                }
            }
            1 => {
                // A gate is removable while its output is unconsumed and
                // not a primary output — mostly gates this script added.
                let removable: Vec<String> = scratch
                    .nets()
                    .filter(|&(id, net)| {
                        net.driver().is_some()
                            && net.fanouts().is_empty()
                            && !scratch.is_primary_output(id)
                    })
                    .map(|(_, net)| net.name().to_string())
                    .collect();
                if removable.is_empty() {
                    continue;
                }
                EditOp::Remove {
                    output: removable[rng.gen_index(removable.len())].clone(),
                }
            }
            2 => {
                let gates: Vec<_> = scratch.gates().map(|(gid, _)| gid).collect();
                let gid = gates[rng.gen_index(gates.len())];
                let gate = scratch.gate(gid);
                EditOp::Rewire {
                    output: scratch.net(gate.output()).name().to_string(),
                    pin: rng.gen_index(gate.kind().arity()),
                    new_input: names[rng.gen_index(names.len())].clone(),
                }
            }
            _ => {
                let outputs = scratch.outputs();
                let old = outputs[rng.gen_index(outputs.len())];
                let promotable: Vec<String> = scratch
                    .nets()
                    .filter(|&(id, net)| net.driver().is_some() && !scratch.is_primary_output(id))
                    .map(|(_, net)| net.name().to_string())
                    .collect();
                if promotable.is_empty() {
                    continue;
                }
                EditOp::Retag {
                    old: scratch.net(old).name().to_string(),
                    new: promotable[rng.gen_index(promotable.len())].clone(),
                }
            }
        };
        // Individual operations are atomic, so a rejected candidate
        // (e.g. a cycle-creating rewire) leaves the scratch unchanged.
        if EditScript::new(vec![op.clone()])
            .apply(&mut scratch)
            .is_ok()
        {
            ops.push(op);
        }
    }
    EditScript::new(ops)
}

/// Rebuilds a netlist from its raw structure through the builder — the
/// differential oracle for incremental editing: an edited netlist must be
/// bit-identical (ids, fanout order, topological order) to this
/// from-scratch reconstruction of the same structure.
///
/// # Panics
///
/// Panics if `n` violates its own invariants, which is exactly what the
/// caller is checking for.
#[must_use]
pub fn rebuild_netlist(n: &Netlist) -> Netlist {
    let mut b = NetlistBuilder::new(n.name());
    for (_, net) in n.nets() {
        b.declare_net(net.name());
    }
    for &pi in n.inputs() {
        b.promote_to_input(pi).expect("inputs are undriven");
    }
    for (_, g) in n.gates() {
        b.add_gate_driving(g.kind(), g.inputs(), g.output())
            .expect("gates re-apply to the same nets");
    }
    for &po in n.outputs() {
        b.mark_output(po);
    }
    b.finish().expect("a validated netlist rebuilds")
}

/// A per-gate [`InputState`] of a fixed arity, shrinking toward all-zero
/// by clearing set bits.
#[derive(Debug, Clone, Copy)]
pub struct InputStateStrategy {
    /// Pin count of the state.
    pub arity: usize,
}

impl Strategy for InputStateStrategy {
    type Value = InputState;

    fn generate(&self, rng: &mut Xoshiro256pp) -> InputState {
        let bits = rng.gen_index(1usize << self.arity);
        InputState::from_bits(bits as u16, self.arity)
    }

    fn shrink(&self, value: &InputState) -> Vec<InputState> {
        let bits = value.bits();
        if bits == 0 {
            return Vec::new();
        }
        let mut out = vec![InputState::from_bits(0, self.arity)];
        for pin in 0..self.arity {
            if bits & (1 << pin) != 0 {
                out.push(InputState::from_bits(bits & !(1 << pin), self.arity));
            }
        }
        out
    }
}

/// A primary-input vector for a circuit with `len` inputs, shrinking
/// toward all-false one bit at a time.
#[derive(Debug, Clone, Copy)]
pub struct BoolVector {
    /// Vector length (the circuit's input count).
    pub len: usize,
}

impl Strategy for BoolVector {
    type Value = Vec<bool>;

    fn generate(&self, rng: &mut Xoshiro256pp) -> Vec<bool> {
        (0..self.len).map(|_| rng.gen_bool(0.5)).collect()
    }

    fn shrink(&self, value: &Vec<bool>) -> Vec<Vec<bool>> {
        if value.iter().all(|&b| !b) {
            return Vec::new();
        }
        let mut out = vec![vec![false; value.len()]];
        for i in 0..value.len() {
            if value[i] {
                let mut v = value.clone();
                v[i] = false;
                out.push(v);
            }
        }
        out
    }
}

/// An optimizer configuration: a delay-penalty fraction and a mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptConfig {
    /// Delay penalty as a fraction of `D_fast` headroom.
    pub penalty: f64,
    /// Assignment-freedom mode.
    pub mode: Mode,
}

impl OptConfig {
    /// The penalty as a typed [`DelayPenalty`].
    ///
    /// # Panics
    ///
    /// Panics if the stored fraction is out of range (the strategy only
    /// generates valid fractions).
    #[must_use]
    pub fn delay_penalty(&self) -> DelayPenalty {
        DelayPenalty::new(self.penalty).expect("strategy generates valid penalties")
    }
}

/// Paper-relevant optimizer configurations, weighted toward the proposed
/// mode at small penalties, shrinking toward `(5%, Proposed)`.
#[derive(Debug, Clone, Copy)]
pub struct OptConfigStrategy;

const PENALTIES: [f64; 5] = [0.05, 0.0, 0.10, 0.25, 1.0];
const MODES: [Mode; 3] = [Mode::Proposed, Mode::StateAndVt, Mode::StateOnly];

impl Strategy for OptConfigStrategy {
    type Value = OptConfig;

    fn generate(&self, rng: &mut Xoshiro256pp) -> OptConfig {
        // Weighted union: the proposed mode is the paper's focus and gets
        // half the draws; the penalty list leads with the headline 5%.
        let mode = if rng.gen_bool(0.5) {
            Mode::Proposed
        } else {
            MODES[1 + rng.gen_index(2)]
        };
        OptConfig {
            penalty: PENALTIES[rng.gen_index(PENALTIES.len())],
            mode,
        }
    }

    fn shrink(&self, value: &OptConfig) -> Vec<OptConfig> {
        let mut out = Vec::new();
        let p_pos = PENALTIES.iter().position(|p| *p == value.penalty);
        let m_pos = MODES.iter().position(|m| *m == value.mode);
        if let Some(p) = p_pos.filter(|&p| p > 0) {
            out.extend(PENALTIES[..p].iter().map(|&penalty| OptConfig {
                penalty,
                mode: value.mode,
            }));
        }
        if let Some(m) = m_pos.filter(|&m| m > 0) {
            out.extend(MODES[..m].iter().map(|&mode| OptConfig {
                penalty: value.penalty,
                mode,
            }));
        }
        out
    }
}

/// Mutated `.bench` text derived from a base netlist: random line
/// deletions, duplications, truncations, and byte splices. Shrinks by
/// removing lines (halves first, then one at a time) — so a parser crash
/// shrinks to the few lines that trigger it.
#[derive(Debug, Clone)]
pub struct BenchMutations {
    base: String,
    max_mutations: usize,
}

impl BenchMutations {
    /// Mutations over `base` text, at most `max_mutations` per case.
    #[must_use]
    pub fn new(base: impl Into<String>, max_mutations: usize) -> Self {
        Self {
            base: base.into(),
            max_mutations: max_mutations.max(1),
        }
    }
}

const SPLICE_BYTES: &[u8] = b"(),=# \tNANDORX0123abc";

impl Strategy for BenchMutations {
    type Value = String;

    fn generate(&self, rng: &mut Xoshiro256pp) -> String {
        let mut lines: Vec<String> = self.base.lines().map(str::to_string).collect();
        let mutations = 1 + rng.gen_index(self.max_mutations);
        for _ in 0..mutations {
            if lines.is_empty() {
                break;
            }
            let li = rng.gen_index(lines.len());
            match rng.gen_index(4) {
                0 => {
                    lines.remove(li);
                }
                1 => {
                    let dup = lines[li].clone();
                    lines.insert(li, dup);
                }
                2 => {
                    let line = &mut lines[li];
                    let cut = rng.gen_index(line.len() + 1);
                    line.truncate(cut);
                }
                _ => {
                    let b = SPLICE_BYTES[rng.gen_index(SPLICE_BYTES.len())] as char;
                    let line = &mut lines[li];
                    let mut pos = rng.gen_index(line.len() + 1);
                    while !line.is_char_boundary(pos) {
                        pos -= 1;
                    }
                    line.insert(pos, b);
                }
            }
        }
        lines.join("\n")
    }

    fn shrink(&self, value: &String) -> Vec<String> {
        let lines: Vec<&str> = value.lines().collect();
        if lines.len() <= 1 {
            return Vec::new();
        }
        let mut out = Vec::new();
        let half = lines.len() / 2;
        out.push(lines[..half].join("\n"));
        out.push(lines[half..].join("\n"));
        for i in 0..lines.len() {
            let mut kept = lines.clone();
            kept.remove(i);
            out.push(kept.join("\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svtox_netlist::parse_bench;

    fn rng() -> Xoshiro256pp {
        Xoshiro256pp::seed_from_u64(7)
    }

    #[test]
    fn dag_strategy_generates_valid_specs_and_shrinks_smaller() {
        let s = DagStrategy::small();
        let mut r = rng();
        for _ in 0..30 {
            let spec = s.generate(&mut r);
            let n = random_dag(&spec).unwrap();
            assert_eq!(n.num_gates(), spec.num_gates);
            for shrunk in s.shrink(&spec) {
                random_dag(&shrunk).unwrap();
            }
        }
    }

    #[test]
    fn input_state_shrinks_clear_bits() {
        let s = InputStateStrategy { arity: 3 };
        let v = InputState::from_bits(0b101, 3);
        let shrunk = s.shrink(&v);
        assert_eq!(shrunk[0], InputState::from_bits(0, 3));
        assert!(shrunk.contains(&InputState::from_bits(0b100, 3)));
        assert!(shrunk.contains(&InputState::from_bits(0b001, 3)));
        assert!(s.shrink(&InputState::from_bits(0, 3)).is_empty());
    }

    #[test]
    fn bool_vector_shrinks_toward_all_false() {
        let s = BoolVector { len: 3 };
        let shrunk = s.shrink(&vec![true, false, true]);
        assert_eq!(shrunk[0], vec![false; 3]);
        assert!(s.shrink(&vec![false; 3]).is_empty());
    }

    #[test]
    fn opt_config_shrinks_toward_five_percent_proposed() {
        let s = OptConfigStrategy;
        let cfg = OptConfig {
            penalty: 1.0,
            mode: Mode::StateOnly,
        };
        let shrunk = s.shrink(&cfg);
        assert!(shrunk.iter().any(|c| c.penalty == 0.05));
        assert!(shrunk.iter().any(|c| c.mode == Mode::Proposed));
        let minimal = OptConfig {
            penalty: 0.05,
            mode: Mode::Proposed,
        };
        assert!(s.shrink(&minimal).is_empty());
    }

    #[test]
    fn bench_mutations_generate_and_shrink_by_lines() {
        let base = random_circuit("mut", 3, 5, 12).to_bench();
        let s = BenchMutations::new(&base, 4);
        let mut r = rng();
        for _ in 0..50 {
            // Mutated text must never panic the parser (it may error).
            let text = s.generate(&mut r);
            let _ = parse_bench(&text);
        }
        let mutated = s.generate(&mut r);
        for candidate in s.shrink(&mutated) {
            assert!(candidate.lines().count() < mutated.lines().count());
        }
    }

    #[test]
    fn random_edit_scripts_apply_cleanly_and_cover_the_op_space() {
        let base = random_circuit("edits", 11, 6, 24);
        let mut kinds_seen = [false; 4];
        for seed in 0..40u64 {
            let script = random_edit_script(&base, seed, 8);
            assert!(!script.is_empty(), "seed {seed} produced an empty script");
            for op in script.ops() {
                let slot = match op {
                    EditOp::Add { .. } => 0,
                    EditOp::Remove { .. } => 1,
                    EditOp::Rewire { .. } => 2,
                    EditOp::Retag { .. } => 3,
                };
                kinds_seen[slot] = true;
            }
            let mut edited = base.clone();
            script
                .apply(&mut edited)
                .unwrap_or_else(|e| panic!("seed {seed}: script does not apply: {e}"));
            assert_eq!(edited.num_inputs(), base.num_inputs());
        }
        assert_eq!(kinds_seen, [true; 4], "some op kind was never generated");
        // Same seed, same script.
        assert_eq!(
            random_edit_script(&base, 3, 6),
            random_edit_script(&base, 3, 6)
        );
    }

    #[test]
    fn rebuild_netlist_is_the_identity_on_valid_netlists() {
        let n = random_circuit("rebuild", 5, 7, 30);
        assert_eq!(rebuild_netlist(&n), n);
    }

    #[test]
    fn ported_helpers_match_the_historical_shapes() {
        let (seed, inputs, gates) = random_circuit_params(&mut rng());
        assert!(seed < 1000);
        assert!((6..14).contains(&inputs));
        assert!((20..90).contains(&gates));
        let n = random_circuit("helper", seed, inputs, gates);
        assert_eq!(n.num_inputs(), inputs);
        assert_eq!(n.num_gates(), gates);
        let (n2, lib) = circuit("helper2", 5, 14, 4);
        assert_eq!(n2.num_gates(), 14);
        assert!(lib.total_library_cells() > 0);
    }
}
