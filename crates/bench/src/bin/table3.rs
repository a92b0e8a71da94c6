//! Table 3: Heuristic 1 vs Heuristic 2 leakage (µA), reduction factors vs
//! the 10k-random-vector average, and runtimes, at 5/10/25 % delay
//! penalties across the benchmark suite.

use svtox_bench::{default_library, ua, x_factor, BenchArgs, Instance};
use svtox_core::{DelayPenalty, ExecConfig, Mode};

fn main() {
    let args = BenchArgs::from_env();
    let library = default_library();

    println!("Table 3 — Heu1 vs Heu2 with the 4-option library (µA)");
    println!(
        "{:<7} {:>8} | {:>8} {:>5} {:>7} {:>8} {:>5} | {:>8} {:>5} {:>8} {:>5} | {:>8} {:>5} {:>8} {:>5}",
        "", "avg", "5% H1", "X", "t(s)", "5% H2", "X", "10% H1", "X", "10% H2", "X", "25% H1", "X", "25% H2", "X"
    );
    for name in &args.circuits {
        let inst = Instance::prepare(name, &library, args.vectors);
        let problem = inst.problem();
        let mut cols: Vec<String> = Vec::new();
        let mut h1_5s = String::new();
        for (i, pct) in [0.05, 0.10, 0.25].into_iter().enumerate() {
            let penalty = DelayPenalty::new(pct).expect("valid penalty");
            let h1 = problem
                .optimizer(penalty, Mode::Proposed)
                .heuristic1()
                .expect("heuristic1 runs");
            let exec = ExecConfig::serial().with_time_budget(args.h2_budget);
            let h2 = problem
                .optimizer(penalty, Mode::Proposed)
                .run(&exec, None)
                .best()
                .expect("heuristic2 runs")
                .clone();
            if i == 0 {
                h1_5s = format!("{:.1}", h1.runtime.as_secs_f64());
            }
            cols.push(format!(
                "{:>8} {:>5}",
                ua(h1.leakage),
                x_factor(inst.average, h1.leakage)
            ));
            cols.push(format!(
                "{:>8} {:>5}",
                ua(h2.leakage),
                x_factor(inst.average, h2.leakage)
            ));
        }
        println!(
            "{:<7} {:>8} | {} {:>7} {} | {} {} | {} {}",
            name,
            ua(inst.average),
            cols[0],
            h1_5s,
            cols[1],
            cols[2],
            cols[3],
            cols[4],
            cols[5],
        );
    }
    println!();
    println!(
        "(Heu2 budget {:?}; paper averages: 5.3x/6.0x @5%, 6.3x/7.2x @10%, 9.1x/9.3x @25%)",
        args.h2_budget
    );
}
