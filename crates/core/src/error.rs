//! Error type of the optimizer crate.

use std::error::Error;
use std::fmt;

use svtox_cells::LibraryError;
use svtox_exec::ExecError;

/// Error produced by problem construction or optimization.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum OptError {
    /// A library lookup failed (netlist not mapped to primitives, or the
    /// library was built without the needed fan-in).
    Library(LibraryError),
    /// The parallel execution engine failed (e.g. a worker panicked).
    Exec(ExecError),
    /// The exact search was requested on a circuit with too many primary
    /// inputs for exhaustive state enumeration.
    TooManyInputs {
        /// Inputs in the circuit.
        inputs: usize,
        /// The caller-supplied cap.
        limit: usize,
    },
    /// The delay-penalty fraction was outside `0.0..=1.0`.
    InvalidPenalty(u64),
    /// A checkpoint file could not be used: unreadable or older-format
    /// meta line, or its recorded problem identity (circuit, sizes,
    /// penalty, mode) or plan members do not match the run being resumed.
    Checkpoint(String),
}

impl fmt::Display for OptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Library(e) => write!(f, "library error: {e}"),
            Self::Exec(e) => write!(f, "execution error: {e}"),
            Self::TooManyInputs { inputs, limit } => {
                write!(
                    f,
                    "{inputs} primary inputs exceed the exact-search limit {limit}"
                )
            }
            Self::InvalidPenalty(bits) => {
                write!(
                    f,
                    "delay penalty {} outside 0.0..=1.0",
                    f64::from_bits(*bits)
                )
            }
            Self::Checkpoint(message) => write!(f, "checkpoint error: {message}"),
        }
    }
}

impl Error for OptError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Library(e) => Some(e),
            Self::Exec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LibraryError> for OptError {
    fn from(e: LibraryError) -> Self {
        Self::Library(e)
    }
}

impl From<ExecError> for OptError {
    fn from(e: ExecError) -> Self {
        Self::Exec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svtox_netlist::GateKind;

    #[test]
    fn display_and_source() {
        let e = OptError::from(LibraryError::MissingCell(GateKind::Xor2));
        assert!(e.to_string().contains("XOR2"));
        assert!(e.source().is_some());
        let e = OptError::TooManyInputs {
            inputs: 200,
            limit: 20,
        };
        assert!(e.to_string().contains("200"));
        assert!(e.source().is_none());
        let e = OptError::InvalidPenalty(2.0f64.to_bits());
        assert!(e.to_string().contains('2'));
        let e = OptError::from(ExecError::WorkerPanic {
            worker: 1,
            message: "boom".to_string(),
        });
        assert!(e.to_string().contains("worker 1 panicked"));
        assert!(e.source().is_some());
    }
}
