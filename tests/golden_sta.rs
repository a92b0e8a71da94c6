//! Absolute pins of the incremental timing engine's bits.
//!
//! The STA's own tests compare one update path against another (a trial
//! against `set_option`, an incremental flush against a full analysis), so
//! a change that moves the stored bits of both sides together would go
//! unnoticed there. This test pins the bits themselves: a seeded script of
//! accepted and rejected trials, dropped leaf scopes, in-place
//! reconfigurations, relaxations, full recomputes and all-slow/all-fast
//! resets runs on c432, c6288 and a 12-input random DAG, and an FNV-1a hash
//! folds every net's timing bits after every step, each trial's verdict,
//! the final gate configurations and the final work counters.
//!
//! A mismatch prints every actual pin, so an intended change is re-pinned
//! by pasting the printout.

use svtox_cells::{InputState, Library, StateOption};
use svtox_check::domain::test_library;
use svtox_exec::rng::Xoshiro256pp;
use svtox_netlist::generators::{benchmark, random_dag, RandomDagSpec};
use svtox_netlist::{GateId, Netlist};
use svtox_sta::{Sta, TimingConfig};

/// Folds one 64-bit word into an FNV-1a hash, byte by byte.
fn fnv(hash: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

/// Folds every net's arrival, slew and load bits (after a flush).
fn fold_nets(hash: &mut u64, sta: &mut Sta<'_>) {
    for net in sta.net_bits() {
        for word in net {
            fnv(hash, word);
        }
    }
}

/// A random option of a random state of `gid`'s cell.
fn random_option<'l>(
    lib: &'l Library,
    n: &Netlist,
    gid: GateId,
    rng: &mut Xoshiro256pp,
) -> &'l StateOption {
    let kind = n.gate(gid).kind();
    let arity = kind.arity();
    let state = InputState::from_bits(rng.gen_index(1 << arity) as u16, arity);
    let opts = lib.cell(kind).expect("mapped kind").options_for(state);
    &opts[rng.gen_index(opts.len())]
}

/// Runs `steps` seeded script steps on a fresh analyzer of `n` and hashes
/// everything it stores.
fn sta_fingerprint(lib: &Library, n: &Netlist, seed: u64, steps: usize) -> u64 {
    let mut sta = Sta::new(n, lib, TimingConfig::default()).expect("mapped netlist");
    let gates: Vec<GateId> = n.gates().map(|(gid, _)| gid).collect();
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    let mut hash = 0xcbf2_9ce4_8422_2325;
    fold_nets(&mut hash, &mut sta);
    for _ in 0..steps {
        let gid = gates[rng.gen_index(gates.len())];
        match rng.gen_index(16) {
            // One trial at a limit around the current delay: a mix of
            // accepts and rejects.
            0..=6 => {
                let opt = random_option(lib, n, gid, &mut rng);
                let limit = sta.max_delay() * (0.995 + 0.01 * rng.gen_f64());
                let accepted = sta.try_option(gid, opt.version(), opt.perm(), limit);
                fnv(&mut hash, u64::from(accepted));
            }
            // A leaf scope of trials, dropped (so restored) at the end.
            7..=9 => {
                let limit = sta.max_delay() * (0.995 + 0.01 * rng.gen_f64());
                let mut leaf = sta.leaf();
                for _ in 0..1 + rng.gen_index(8) {
                    let g = gates[rng.gen_index(gates.len())];
                    let opt = random_option(lib, n, g, &mut rng);
                    let accepted = leaf.try_option(g, opt.version(), opt.perm(), limit);
                    fnv(&mut hash, u64::from(accepted));
                }
                fnv(&mut hash, leaf.max_delay().value().to_bits());
            }
            10 | 11 => {
                let opt = random_option(lib, n, gid, &mut rng);
                sta.set_option(gid, opt.version(), opt.perm());
            }
            12 | 13 => sta.set_relaxed(gid, rng.gen_bool(0.5)),
            14 => sta.recompute(),
            _ => {
                if rng.gen_bool(0.5) {
                    sta.set_all_slow();
                } else {
                    sta.set_all_fast();
                }
            }
        }
        fold_nets(&mut hash, &mut sta);
    }
    for &gid in &gates {
        let config = sta.gate_config(gid);
        fnv(&mut hash, config.version.index() as u64);
        for &p in &config.perm {
            fnv(&mut hash, u64::from(p));
        }
        fnv(&mut hash, u64::from(sta.is_relaxed(gid)));
    }
    let c = sta.counters();
    for word in [c.full_analyzes, c.flushes, c.gates_reevaluated, c.max_dirty] {
        fnv(&mut hash, word);
    }
    hash
}

/// The STA's bits, pinned on three circuits. A change to the timing
/// kernel, its queue order, its rollback or its work accounting that moves
/// any stored value or counter fails here.
#[test]
fn sta_bits_are_pinned() {
    let lib = test_library();
    let dag = random_dag(&RandomDagSpec::new("sta-pin", 12, 6, 80, 10)).expect("valid spec");
    let circuits = [
        ("c432", benchmark("c432").expect("built-in"), 300),
        ("c6288", benchmark("c6288").expect("built-in"), 120),
        ("dag12", dag, 300),
    ];
    let actual: Vec<String> = circuits
        .iter()
        .map(|(tag, n, steps)| format!("{tag} {:016x}", sta_fingerprint(&lib, n, 0x57a, *steps)))
        .collect();
    let expected = [
        "c432 d819584a0f278092",
        "c6288 6add93137986f6bb",
        "dag12 0d0375cdefe2bed6",
    ];
    assert_eq!(
        actual,
        expected,
        "STA bits moved; actual pins:\n{}",
        actual.join("\n")
    );
}
