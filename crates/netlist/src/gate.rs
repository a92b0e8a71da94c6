//! Gate kinds and their Boolean semantics.

use std::fmt;
use std::str::FromStr;

use crate::error::NetlistError;

/// The logic function of a gate.
///
/// Two tiers exist:
///
/// * **primitive** kinds — `INV`, `NAND2..4`, `NOR2..4` — are the cells the
///   standby library actually characterizes at transistor level (the paper's
///   library, Table 2, contains exactly these families);
/// * **composite** kinds — `BUF`, `AND`, `OR`, `XOR2`, `XNOR2`, and any gate
///   wider than 4 inputs — appear in `.bench` sources and in functional
///   generators and are lowered by [`crate::map_to_primitives`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GateKind {
    /// Inverter (primitive).
    Inv,
    /// Non-inverting buffer (composite; lowered to two inverters or absorbed).
    Buf,
    /// n-input NAND (primitive for n ≤ 4).
    Nand(u8),
    /// n-input NOR (primitive for n ≤ 4).
    Nor(u8),
    /// n-input AND (composite).
    And(u8),
    /// n-input OR (composite).
    Or(u8),
    /// Two-input XOR (composite).
    Xor2,
    /// Two-input XNOR (composite).
    Xnor2,
}

impl GateKind {
    /// Number of inputs this kind expects.
    #[inline]
    #[must_use]
    pub fn arity(self) -> usize {
        match self {
            Self::Inv | Self::Buf => 1,
            Self::Nand(n) | Self::Nor(n) | Self::And(n) | Self::Or(n) => n as usize,
            Self::Xor2 | Self::Xnor2 => 2,
        }
    }

    /// Whether this kind is a primitive standby-library cell.
    #[must_use]
    pub fn is_primitive(self) -> bool {
        matches!(self, Self::Inv)
            || matches!(self, Self::Nand(n) | Self::Nor(n) if (2..=4).contains(&n))
    }

    /// Whether the gate inverts (its output is the complement of the
    /// monotone function of its inputs). All primitives invert.
    #[must_use]
    pub fn is_inverting(self) -> bool {
        matches!(self, Self::Inv | Self::Nand(_) | Self::Nor(_) | Self::Xnor2)
    }

    /// Evaluates the Boolean function.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != self.arity()`.
    #[must_use]
    pub fn eval(self, inputs: &[bool]) -> bool {
        assert_eq!(
            inputs.len(),
            self.arity(),
            "gate {self} expects {} inputs",
            self.arity()
        );
        match self {
            Self::Inv => !inputs[0],
            Self::Buf => inputs[0],
            Self::Nand(_) => !inputs.iter().all(|&b| b),
            Self::And(_) => inputs.iter().all(|&b| b),
            Self::Nor(_) => !inputs.iter().any(|&b| b),
            Self::Or(_) => inputs.iter().any(|&b| b),
            Self::Xor2 => inputs[0] ^ inputs[1],
            Self::Xnor2 => !(inputs[0] ^ inputs[1]),
        }
    }

    /// Validates that the arity is in the kind's legal range.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::ArityMismatch`] for zero/one-input
    /// NAND/NOR/AND/OR or arities above [`GateKind::MAX_ARITY`].
    pub fn validate(self) -> Result<(), NetlistError> {
        let ok = match self {
            Self::Inv | Self::Buf | Self::Xor2 | Self::Xnor2 => true,
            Self::Nand(n) | Self::Nor(n) | Self::And(n) | Self::Or(n) => {
                (2..=Self::MAX_ARITY as u8).contains(&n)
            }
        };
        if ok {
            Ok(())
        } else {
            Err(NetlistError::ArityMismatch {
                kind: self.to_string(),
                expected: 2,
                got: self.arity(),
            })
        }
    }

    /// Maximum fan-in accepted at the IR level (parsers may produce wide
    /// gates; mapping narrows them to the library's limit).
    pub const MAX_ARITY: usize = 9;
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Inv => f.write_str("INV"),
            Self::Buf => f.write_str("BUF"),
            Self::Nand(n) => write!(f, "NAND{n}"),
            Self::Nor(n) => write!(f, "NOR{n}"),
            Self::And(n) => write!(f, "AND{n}"),
            Self::Or(n) => write!(f, "OR{n}"),
            Self::Xor2 => f.write_str("XOR2"),
            Self::Xnor2 => f.write_str("XNOR2"),
        }
    }
}

impl FromStr for GateKind {
    type Err = NetlistError;

    /// Parses a `.bench`-style kind name (`NAND`, `NOT`, `BUFF`, …). Arity
    /// suffixes are accepted but optional; arity is rechecked against the
    /// operand count by the parser.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let upper = s.to_ascii_uppercase();
        let (base, digits): (&str, &str) = match upper.find(|c: char| c.is_ascii_digit()) {
            Some(pos) => upper.split_at(pos),
            None => (upper.as_str(), ""),
        };
        let n: u8 = if digits.is_empty() {
            2
        } else {
            digits
                .parse()
                .map_err(|_| NetlistError::UnsupportedKind(s.to_string()))?
        };
        let kind = match base {
            "INV" | "NOT" => Self::Inv,
            "BUF" | "BUFF" => Self::Buf,
            "NAND" => Self::Nand(n),
            "NOR" => Self::Nor(n),
            "AND" => Self::And(n),
            "OR" => Self::Or(n),
            "XOR" => Self::Xor2,
            "XNOR" => Self::Xnor2,
            _ => return Err(NetlistError::UnsupportedKind(s.to_string())),
        };
        Ok(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_and_primitive() {
        assert_eq!(GateKind::Inv.arity(), 1);
        assert_eq!(GateKind::Nand(3).arity(), 3);
        assert_eq!(GateKind::Xor2.arity(), 2);
        assert!(GateKind::Inv.is_primitive());
        assert!(GateKind::Nand(2).is_primitive());
        assert!(GateKind::Nor(4).is_primitive());
        assert!(!GateKind::Nand(5).is_primitive());
        assert!(!GateKind::And(2).is_primitive());
        assert!(!GateKind::Buf.is_primitive());
        assert!(!GateKind::Xor2.is_primitive());
    }

    #[test]
    fn truth_tables() {
        assert!(GateKind::Inv.eval(&[false]));
        assert!(!GateKind::Inv.eval(&[true]));
        assert!(GateKind::Buf.eval(&[true]));
        assert!(GateKind::Nand(2).eval(&[true, false]));
        assert!(!GateKind::Nand(2).eval(&[true, true]));
        assert!(GateKind::Nor(2).eval(&[false, false]));
        assert!(!GateKind::Nor(2).eval(&[false, true]));
        assert!(GateKind::And(3).eval(&[true, true, true]));
        assert!(!GateKind::And(3).eval(&[true, false, true]));
        assert!(GateKind::Or(3).eval(&[false, false, true]));
        assert!(!GateKind::Or(3).eval(&[false, false, false]));
        assert!(GateKind::Xor2.eval(&[true, false]));
        assert!(!GateKind::Xor2.eval(&[true, true]));
        assert!(GateKind::Xnor2.eval(&[true, true]));
        assert!(!GateKind::Xnor2.eval(&[false, true]));
    }

    #[test]
    fn inverting_property_matches_truth_table() {
        for kind in [
            GateKind::Inv,
            GateKind::Buf,
            GateKind::Nand(2),
            GateKind::Nor(2),
            GateKind::And(2),
            GateKind::Or(2),
        ] {
            // For monotone kinds, all-false input: inverting gates output 1
            // on the all-false input iff they are NAND/NOR/INV.
            let all_false = vec![false; kind.arity()];
            assert_eq!(kind.eval(&all_false), kind.is_inverting());
        }
    }

    #[test]
    #[should_panic(expected = "expects 2 inputs")]
    fn eval_wrong_arity_panics() {
        let _ = GateKind::Nand(2).eval(&[true]);
    }

    #[test]
    fn parse_kind_names() {
        assert_eq!("NAND".parse::<GateKind>().unwrap(), GateKind::Nand(2));
        assert_eq!("nand3".parse::<GateKind>().unwrap(), GateKind::Nand(3));
        assert_eq!("NOT".parse::<GateKind>().unwrap(), GateKind::Inv);
        assert_eq!("BUFF".parse::<GateKind>().unwrap(), GateKind::Buf);
        assert_eq!("xor".parse::<GateKind>().unwrap(), GateKind::Xor2);
        assert_eq!("XNOR".parse::<GateKind>().unwrap(), GateKind::Xnor2);
        assert_eq!("OR4".parse::<GateKind>().unwrap(), GateKind::Or(4));
        assert!("FLIPFLOP".parse::<GateKind>().is_err());
    }

    #[test]
    fn validate_arity_ranges() {
        assert!(GateKind::Nand(2).validate().is_ok());
        assert!(GateKind::Nand(9).validate().is_ok());
        assert!(GateKind::Nand(1).validate().is_err());
        assert!(GateKind::Or(10).validate().is_err());
        assert!(GateKind::Inv.validate().is_ok());
    }

    #[test]
    fn display_roundtrip() {
        for kind in [
            GateKind::Inv,
            GateKind::Nand(3),
            GateKind::Nor(2),
            GateKind::Xor2,
        ] {
            let shown = kind.to_string();
            let parsed: GateKind = shown.parse().unwrap();
            assert_eq!(parsed, kind);
        }
    }
}
