//! The paper's evaluation suite, rebuilt.
//!
//! Table 4 of the paper lists eleven circuits (ten ISCAS-85 plus a 64-bit
//! ALU) with their input and gate counts. [`benchmark`] reconstructs each by
//! name: functional generators where the original's structure drives its
//! behaviour in the paper (c6288 = array multiplier, c499/c1355 = SEC
//! decoders, alu64 = ALU), calibrated random DAGs for the rest.

use crate::error::NetlistError;
use crate::netlist::Netlist;

use super::arithmetic::{alu, multiplier};
use super::ecc::ecc;
use super::random_dag::{random_dag, RandomDagSpec};

/// How a profile is realized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Realization {
    /// Seeded layered random DAG with the profile's exact gate count.
    Random { depth: usize },
    /// 16×16 array multiplier.
    Multiplier,
    /// SEC decoder with the given mapping fan-in.
    Ecc { max_fanin: usize },
    /// 64-bit ALU.
    Alu,
}

/// One entry of the paper's Table 4 with its reconstruction recipe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchmarkProfile {
    /// Circuit name as used in the paper.
    pub name: &'static str,
    /// Primary-input count reported in Table 4.
    pub paper_inputs: usize,
    /// Primary-output count of the original circuit.
    pub paper_outputs: usize,
    /// Gate count reported in Table 4.
    pub paper_gates: usize,
    realization: Realization,
}

/// All profiles in the paper's row order.
const PROFILES: &[BenchmarkProfile] = &[
    BenchmarkProfile {
        name: "c432",
        paper_inputs: 36,
        paper_outputs: 7,
        paper_gates: 177,
        realization: Realization::Random { depth: 17 },
    },
    BenchmarkProfile {
        name: "c499",
        paper_inputs: 41,
        paper_outputs: 32,
        paper_gates: 519,
        realization: Realization::Ecc { max_fanin: 3 },
    },
    BenchmarkProfile {
        name: "c880",
        paper_inputs: 60,
        paper_outputs: 26,
        paper_gates: 364,
        realization: Realization::Random { depth: 24 },
    },
    BenchmarkProfile {
        name: "c1355",
        paper_inputs: 41,
        paper_outputs: 32,
        paper_gates: 528,
        realization: Realization::Ecc { max_fanin: 2 },
    },
    BenchmarkProfile {
        name: "c1908",
        paper_inputs: 33,
        paper_outputs: 25,
        paper_gates: 432,
        realization: Realization::Random { depth: 38 },
    },
    BenchmarkProfile {
        name: "c2670",
        paper_inputs: 233,
        paper_outputs: 140,
        paper_gates: 825,
        realization: Realization::Random { depth: 30 },
    },
    BenchmarkProfile {
        name: "c3540",
        paper_inputs: 50,
        paper_outputs: 22,
        paper_gates: 940,
        realization: Realization::Random { depth: 45 },
    },
    BenchmarkProfile {
        name: "c5315",
        paper_inputs: 178,
        paper_outputs: 123,
        paper_gates: 1627,
        realization: Realization::Random { depth: 47 },
    },
    BenchmarkProfile {
        name: "c6288",
        paper_inputs: 32,
        paper_outputs: 32,
        paper_gates: 2470,
        realization: Realization::Multiplier,
    },
    BenchmarkProfile {
        name: "c7552",
        paper_inputs: 207,
        paper_outputs: 108,
        paper_gates: 1994,
        realization: Realization::Random { depth: 42 },
    },
    BenchmarkProfile {
        name: "alu64",
        paper_inputs: 131,
        paper_outputs: 65,
        paper_gates: 1803,
        realization: Realization::Alu,
    },
];

/// Names of the suite circuits in the paper's row order.
#[must_use]
pub fn benchmark_names() -> Vec<&'static str> {
    PROFILES.iter().map(|p| p.name).collect()
}

impl BenchmarkProfile {
    /// Looks up a profile by name.
    #[must_use]
    pub fn find(name: &str) -> Option<&'static BenchmarkProfile> {
        PROFILES.iter().find(|p| p.name == name)
    }

    /// All profiles in paper order.
    #[must_use]
    pub fn all() -> &'static [BenchmarkProfile] {
        PROFILES
    }

    /// Builds the circuit for this profile (already mapped to primitives).
    ///
    /// # Errors
    ///
    /// Propagates generator errors (which indicate a bug in the profile
    /// table rather than a user mistake).
    pub fn build(&self) -> Result<Netlist, NetlistError> {
        let netlist = match self.realization {
            Realization::Random { depth } => {
                let spec = RandomDagSpec::new(
                    self.name,
                    self.paper_inputs,
                    self.paper_outputs,
                    self.paper_gates,
                    depth,
                );
                random_dag(&spec)?
            }
            Realization::Multiplier => rename(multiplier(16, 16)?, self.name),
            Realization::Ecc { max_fanin } => rename(ecc(32, max_fanin)?, self.name),
            Realization::Alu => rename(alu(64)?, self.name),
        };
        Ok(netlist)
    }
}

/// Builds one suite circuit by its paper name.
///
/// # Errors
///
/// Returns [`NetlistError::UnknownBenchmark`] for a name that is not one
/// of [`benchmark_names`].
///
/// # Example
///
/// ```
/// let c432 = svtox_netlist::generators::benchmark("c432")?;
/// assert_eq!(c432.num_gates(), 177); // exact Table 4 gate count
/// # Ok::<(), svtox_netlist::NetlistError>(())
/// ```
pub fn benchmark(name: &str) -> Result<Netlist, NetlistError> {
    BenchmarkProfile::find(name)
        .ok_or_else(|| NetlistError::UnknownBenchmark(name.to_string()))?
        .build()
}

/// Builds the entire evaluation suite in paper order.
///
/// # Errors
///
/// Propagates generator errors.
pub fn suite() -> Result<Vec<Netlist>, NetlistError> {
    PROFILES.iter().map(BenchmarkProfile::build).collect()
}

fn rename(netlist: Netlist, name: &str) -> Netlist {
    let mut n = netlist;
    n.name = name.to_string();
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_unknown_name_is_reported_as_a_circuit_not_a_gate_kind() {
        let err = benchmark("c9999").unwrap_err();
        assert_eq!(err, NetlistError::UnknownBenchmark("c9999".into()));
        assert!(
            err.to_string()
                .starts_with("unknown built-in circuit `c9999`"),
            "{err}"
        );
    }

    #[test]
    fn names_cover_the_paper_rows() {
        let names = benchmark_names();
        assert_eq!(names.len(), 11);
        assert_eq!(names[0], "c432");
        assert_eq!(names[10], "alu64");
    }

    #[test]
    fn random_profiles_hit_exact_counts() {
        for p in BenchmarkProfile::all() {
            if matches!(p.realization, Realization::Random { .. }) {
                let n = p.build().unwrap();
                assert_eq!(n.num_gates(), p.paper_gates, "{}", p.name);
                assert_eq!(n.num_inputs(), p.paper_inputs, "{}", p.name);
                assert!(n.is_primitive(), "{}", p.name);
            }
        }
    }

    #[test]
    fn functional_profiles_land_in_regime() {
        for name in ["c499", "c1355", "c6288", "alu64"] {
            let p = BenchmarkProfile::find(name).unwrap();
            let n = p.build().unwrap();
            assert!(n.is_primitive(), "{name}");
            let ratio = n.num_gates() as f64 / p.paper_gates as f64;
            assert!(
                (0.5..=2.0).contains(&ratio),
                "{name}: {} gates vs paper {}",
                n.num_gates(),
                p.paper_gates
            );
        }
    }

    #[test]
    fn unknown_name_rejected() {
        assert!(benchmark("c9999").is_err());
    }

    #[test]
    fn netlists_carry_their_names() {
        assert_eq!(benchmark("c6288").unwrap().name(), "c6288");
        assert_eq!(benchmark("c432").unwrap().name(), "c432");
    }
}
