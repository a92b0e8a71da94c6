//! Layer probes for the traced run: each replays public calls of one
//! layer on the workload's own circuits and times them from outside.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use svtox_cells::Library;
use svtox_core::{DelayPenalty, Fault, Mode, Obs, Problem};
use svtox_exec::rng::{derive_seed, Xoshiro256pp};
use svtox_serve::{JobResult, JobSpec, Journal};
use svtox_sim::{Logic, PackedSimulator, PackedVec, TriSimulator};
use svtox_sta::{GateConfig, Sta};

use crate::compute::{self, Engine};
use crate::stats::{median, ratio};
use crate::trace::Tracer;
use crate::Report;

/// Journal records appended by the journal probe.
const JOURNAL_RECORDS: u64 = 40;
/// Incremental STA queries per circuit.
const STA_QUERIES: usize = 400;
/// Gate evaluations per circuit in the packed-sweep probe.
const SWEEP_GATE_EVALS: usize = 400_000;

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Search-layer metrics from engine counters (`get`) and the time the
/// searches took.
pub fn search_metrics(get: impl Fn(&str) -> f64, busy_ms: f64, report: &mut Report) {
    let leaves = get("core.search.leaves") + get("core.h1.leaves");
    report.metric("core.leaf_us", ratio(busy_ms * 1e3, leaves), "us");
    report.metric(
        "core.nodes_per_s",
        ratio(get("core.search.nodes"), busy_ms / 1e3),
        "1/s",
    );
    report.metric(
        "core.prune_ratio",
        ratio(get("core.search.prunes_local"), get("core.search.nodes")),
        "fraction",
    );
    for k in [
        "core.search.nodes",
        "core.search.leaves",
        "sta.flushes",
        "sta.gates_reevaluated",
    ] {
        report.metric(k, get(k), "count");
    }
}

/// Runs every layer probe on `probs`.
pub fn run_all(
    probs: &[Problem<'_>],
    seed: u64,
    tracer: &Tracer,
    report: &mut Report,
) -> Result<(), String> {
    tri_replay(probs, tracer, report);
    let vectors = heuristic1(probs, tracer, report)?;
    packed_sweep(probs, &vectors, tracer, report);
    sta_queries(probs, &vectors, seed, tracer, report);
    journal(seed, tracer, report);
    Ok(())
}

/// Running state of one Heuristic-1 bound replay.
struct Replay<'p, 'n> {
    problem: &'p Problem<'n>,
    tri: TriSimulator<'n>,
    contribution: Vec<f64>,
    total: f64,
    set_ns: f64,
    set_calls: u64,
    states_ns: f64,
    states_calls: u64,
}

impl<'p, 'n> Replay<'p, 'n> {
    fn gate_bound(&self, gid: svtox_netlist::GateId) -> f64 {
        let kind = self.problem.netlist().gate(gid).kind();
        self.tri
            .possible_states(gid)
            .into_iter()
            .map(|s| self.problem.min_leak(kind, s, Mode::Proposed).value())
            .fold(f64::INFINITY, f64::min)
    }

    fn new(problem: &'p Problem<'n>) -> Self {
        let netlist = problem.netlist();
        let mut r = Self {
            problem,
            tri: TriSimulator::new(netlist),
            contribution: vec![0.0; netlist.num_gates()],
            total: 0.0,
            set_ns: 0.0,
            set_calls: 0,
            states_ns: 0.0,
            states_calls: 0,
        };
        for (gid, _) in netlist.gates() {
            let c = r.gate_bound(gid);
            r.contribution[gid.index()] = c;
            r.total += c;
        }
        r
    }

    /// Decides one input and re-bounds its static fanout cone.
    fn set(&mut self, input: usize, value: Logic) -> f64 {
        let t = Instant::now();
        black_box(self.tri.set_input(input, value));
        self.set_ns += ns(t.elapsed());
        self.set_calls += 1;
        let t = Instant::now();
        let cone = self.problem.tfo(input);
        for &gid in cone {
            let c = self.gate_bound(gid);
            self.total += c - self.contribution[gid.index()];
            self.contribution[gid.index()] = c;
        }
        self.states_ns += ns(t.elapsed());
        self.states_calls += cone.len() as u64;
        self.total
    }
}

/// `TriSimulator::set_input` and `possible_states` replayed over
/// `Problem::tfo(i)` in Heuristic 1's probe order (largest cone first,
/// both branches probed, the smaller bound kept).
fn tri_replay(probs: &[Problem<'_>], tracer: &Tracer, report: &mut Report) {
    let (mut set_ns, mut set_calls, mut states_ns, mut states_calls) = (0.0, 0, 0.0, 0);
    for (j, p) in probs.iter().enumerate() {
        let _s = tracer.span("sim.tri_replay", j as u64);
        let mut r = Replay::new(p);
        let mut order: Vec<usize> = (0..p.netlist().num_inputs()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(p.tfo(i).len()));
        for i in order {
            let b0 = r.set(i, Logic::Zero);
            let b1 = r.set(i, Logic::One);
            if b0 < b1 {
                r.set(i, Logic::Zero);
            }
        }
        set_ns += r.set_ns;
        set_calls += r.set_calls;
        states_ns += r.states_ns;
        states_calls += r.states_calls;
    }
    tracer.count("sim.tri.set_input_calls", set_calls);
    tracer.count("sim.tri.possible_states_calls", states_calls);
    report.metric(
        "sim.tri_set_input_ns",
        ratio(set_ns, set_calls as f64),
        "ns",
    );
    report.metric(
        "sim.possible_states_ns",
        ratio(states_ns, states_calls as f64),
        "ns",
    );
}

/// `Optimizer::heuristic1` at 5 % on every circuit; returns the vectors.
fn heuristic1(
    probs: &[Problem<'_>],
    tracer: &Tracer,
    report: &mut Report,
) -> Result<Vec<Vec<bool>>, String> {
    let penalty = DelayPenalty::five_percent();
    let (mut us, mut decisions) = (0.0, 0u64);
    let mut vectors = Vec::new();
    for (j, p) in probs.iter().enumerate() {
        let obs = Obs::enabled();
        let t = Instant::now();
        let sol = {
            let _s = tracer.span("core.heuristic1", j as u64);
            compute::execute(p, penalty, Engine::H1, &obs)?
        };
        us += t.elapsed().as_secs_f64() * 1e6;
        decisions += obs.counter("core.h1.decisions").map_or(0, |c| c.get());
        vectors.push(sol.vector);
    }
    tracer.count("core.h1.decisions", decisions);
    report.metric("core.h1_us_per_decision", ratio(us, decisions as f64), "us");
    Ok(vectors)
}

/// One leaf's state sweep: `PackedSimulator::with_inputs` on a broadcast
/// vector, then `gate_state` on every gate.
fn packed_sweep(
    probs: &[Problem<'_>],
    vectors: &[Vec<bool>],
    tracer: &Tracer,
    report: &mut Report,
) {
    let (mut total_ns, mut sweeps) = (0.0, 0u64);
    for (j, (p, v)) in probs.iter().zip(vectors).enumerate() {
        let _s = tracer.span("sim.packed_sweep", j as u64);
        let netlist = p.netlist();
        let reps = (SWEEP_GATE_EVALS / netlist.num_gates().max(1)).max(1);
        let t = Instant::now();
        for _ in 0..reps {
            let sim = PackedSimulator::with_inputs(netlist, &PackedVec::broadcast(black_box(v)));
            for (gid, _) in netlist.gates() {
                black_box(sim.gate_state(gid, 0));
            }
        }
        total_ns += ns(t.elapsed());
        sweeps += reps as u64;
    }
    tracer.count("sim.packed.sweeps", sweeps);
    report.metric(
        "sim.packed_sweep_us",
        ratio(total_ns / 1e3, sweeps as f64),
        "us",
    );
}

/// Incremental STA queries: `Sta::set_gate` to a random allowed option
/// of the gate's state under the circuit's H1 vector, then `max_delay`.
fn sta_queries(
    probs: &[Problem<'_>],
    vectors: &[Vec<bool>],
    seed: u64,
    tracer: &Tracer,
    report: &mut Report,
) {
    let (mut total_ns, mut queries, mut flushes, mut evaluated) = (0.0, 0u64, 0u64, 0u64);
    for (j, (p, v)) in probs.iter().zip(vectors).enumerate() {
        let _s = tracer.span("sta.query", j as u64);
        let netlist = p.netlist();
        let Ok(mut sta) = Sta::new(netlist, p.library(), p.timing()) else {
            report.fail(format!("{}: STA construction failed", netlist.name()));
            continue;
        };
        let sim = PackedSimulator::with_inputs(netlist, &PackedVec::broadcast(v));
        let gates: Vec<_> = netlist.gates().map(|(gid, g)| (gid, g.kind())).collect();
        let mut rng = Xoshiro256pp::seed_from_u64(derive_seed(seed, 0x57a + j as u64));
        let before = sta.counters();
        for _ in 0..STA_QUERIES {
            let (gid, kind) = gates[rng.gen_index(gates.len())];
            let state = sim.gate_state(gid, 0);
            let allowed = p.allowed(kind, state, Mode::Proposed);
            let index = allowed[rng.gen_index(allowed.len())];
            let config = GateConfig::from(p.option(kind, state, index));
            let t = Instant::now();
            sta.set_gate(gid, config);
            black_box(sta.max_delay());
            total_ns += ns(t.elapsed());
        }
        let after = sta.counters();
        queries += STA_QUERIES as u64;
        flushes += after.flushes - before.flushes;
        evaluated += after.gates_reevaluated - before.gates_reevaluated;
    }
    tracer.count("sta.probe.queries", queries);
    report.metric("sta.query_ns", ratio(total_ns, queries as f64), "ns");
    report.metric(
        "sta.gates_per_query",
        ratio(evaluated as f64, flushes as f64),
        "count",
    );
}

/// `Journal::open` on a scratch directory, then `admit` and `done`.
fn journal(seed: u64, tracer: &Tracer, report: &mut Report) {
    let dir = PathBuf::from(format!(
        "svbench/out/journal-probe-{seed}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let obs = Obs::enabled();
    let journal = Journal::open(&dir, BTreeMap::new(), &obs, &Fault::disabled());
    let spec = JobSpec {
        circuit: Some("c432".to_string()),
        ..JobSpec::default()
    };
    let result = JobResult {
        outcome: "complete",
        reason: None,
        error: None,
        circuit: "c432".to_string(),
        solution: None,
        winner: None,
        liberty_cells: None,
        baseline_leakage_ua: None,
    };
    let (mut admit, mut done) = (Vec::new(), Vec::new());
    for id in 1..=JOURNAL_RECORDS {
        let t = Instant::now();
        {
            let _s = tracer.span("serve.journal.admit", id);
            journal.admit(id, &spec);
        }
        admit.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        {
            let _s = tracer.span("serve.journal.done", id);
            journal.done(id, &result);
        }
        done.push(t.elapsed().as_secs_f64() * 1e6);
    }
    if !journal.is_active() {
        report.fail("journal probe: the journal degraded");
    }
    drop(journal);
    let _ = std::fs::remove_dir_all(&dir);
    report.metric("serve.journal_admit_us", median(&admit), "us");
    report.metric("serve.journal_done_us", median(&done), "us");
}

/// `Optimizer::exact` time per leaf on two small seeded DAGs, for the
/// workloads whose own circuits are too large for the exact gate tree.
pub fn exact_leaf(lib: &Library, tracer: &Tracer, report: &mut Report) -> Result<(), String> {
    let netlists = [
        compute::dag("xp_", 0, (4, 3, 10, 5))?,
        compute::dag("xp_", 1, (5, 4, 12, 6))?,
    ];
    let probs = compute::problems(netlists.iter(), lib, tracer)?;
    let (mut total_ms, mut leaves) = (0.0, 0u64);
    for (j, p) in probs.iter().enumerate() {
        let obs = Obs::enabled();
        let t = Instant::now();
        {
            let _s = tracer.span("core.exact", j as u64);
            compute::execute(p, DelayPenalty::five_percent(), Engine::Exact, &obs)?;
        }
        total_ms += t.elapsed().as_secs_f64() * 1e3;
        leaves += obs.counter("core.search.leaves").map_or(0, |c| c.get());
    }
    report.metric("core.exact_leaf_ms", ratio(total_ms, leaves as f64), "ms");
    Ok(())
}
