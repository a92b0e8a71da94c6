//! Error type for netlist construction, parsing and mapping.

use std::error::Error;
use std::fmt;

/// Error produced by netlist construction, `.bench` parsing or mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetlistError {
    /// A gate was given the wrong number of inputs for its kind.
    ArityMismatch {
        /// The gate kind name.
        kind: String,
        /// Inputs the kind expects.
        expected: usize,
        /// Inputs actually supplied.
        got: usize,
    },
    /// A net id referenced a net that does not exist.
    UnknownNet(u32),
    /// A signal name was referenced before being defined and never defined.
    UndefinedSignal(String),
    /// A signal was driven more than once.
    MultipleDrivers(String),
    /// The netlist contains a combinational cycle through the named net.
    CombinationalCycle(String),
    /// The netlist has no primary inputs or no gates.
    Empty,
    /// A `.bench` line could not be parsed.
    Parse {
        /// 1-based source line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// A gate kind is not supported by the requested operation.
    UnsupportedKind(String),
    /// A name given to the built-in circuit generator is not one of its
    /// circuits.
    UnknownBenchmark(String),
    /// A netlist file could not be read from disk.
    Io {
        /// The path being read.
        path: String,
        /// The operating-system error.
        message: String,
    },
    /// An in-place ECO edit violated an edit-API precondition (removing a
    /// live or primary-output gate, a pin index out of range, a duplicate
    /// net name, …).
    Edit(String),
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ArityMismatch {
                kind,
                expected,
                got,
            } => {
                write!(f, "gate `{kind}` expects {expected} inputs, got {got}")
            }
            Self::UnknownNet(id) => write!(f, "unknown net id {id}"),
            Self::UndefinedSignal(name) => write!(f, "signal `{name}` is never defined"),
            Self::MultipleDrivers(name) => write!(f, "signal `{name}` has multiple drivers"),
            Self::CombinationalCycle(name) => {
                write!(f, "combinational cycle through net `{name}`")
            }
            Self::Empty => write!(f, "netlist has no inputs or no gates"),
            Self::Parse { line, message } => write!(f, "parse error on line {line}: {message}"),
            Self::UnsupportedKind(kind) => write!(f, "unsupported gate kind `{kind}`"),
            Self::UnknownBenchmark(name) => write!(
                f,
                "unknown built-in circuit `{name}` (known: {})",
                crate::generators::benchmark_names().join(", ")
            ),
            Self::Io { path, message } => write!(f, "cannot read {path}: {message}"),
            Self::Edit(message) => write!(f, "invalid edit: {message}"),
        }
    }
}

impl Error for NetlistError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = NetlistError::ArityMismatch {
            kind: "INV".into(),
            expected: 1,
            got: 2,
        };
        assert_eq!(e.to_string(), "gate `INV` expects 1 inputs, got 2");
        assert!(NetlistError::UnknownNet(7).to_string().contains('7'));
        assert!(NetlistError::UndefinedSignal("x".into())
            .to_string()
            .contains('x'));
        assert!(NetlistError::MultipleDrivers("y".into())
            .to_string()
            .contains('y'));
        assert!(NetlistError::CombinationalCycle("z".into())
            .to_string()
            .contains('z'));
        assert!(NetlistError::Empty.to_string().contains("no inputs"));
        let p = NetlistError::Parse {
            line: 3,
            message: "bad token".into(),
        };
        assert!(p.to_string().contains("line 3"));
        assert!(NetlistError::UnsupportedKind("FOO".into())
            .to_string()
            .contains("FOO"));
        let unknown = NetlistError::UnknownBenchmark("c17".into()).to_string();
        assert!(
            unknown.starts_with("unknown built-in circuit `c17`"),
            "{unknown}"
        );
        assert!(
            unknown.contains("c432") && unknown.contains("alu64"),
            "{unknown}"
        );
        assert!(!unknown.contains("gate kind"), "{unknown}");
    }
}
