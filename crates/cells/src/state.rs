//! Input states of a library cell.

use std::fmt;

/// The logic values on a cell's input pins, packed as a bitmask.
///
/// Bit `i` is the value of **logical** pin `i` (the netlist connection
/// order). Physical stack positions are reached through a version's pin
/// permutation.
///
/// # Example
///
/// ```
/// use svtox_cells::InputState;
///
/// let s = InputState::from_bits(0b01, 2);
/// assert!(s.pin(0));
/// assert!(!s.pin(1));
/// assert_eq!(s.count_ones(), 1);
/// assert_eq!(InputState::all(2).count(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InputState {
    bits: u16,
    arity: u8,
}

impl InputState {
    /// Creates a state from a bitmask over `arity` pins.
    ///
    /// # Panics
    ///
    /// Panics if `arity` exceeds 16 or `bits` has bits beyond `arity`.
    #[must_use]
    pub fn from_bits(bits: u16, arity: usize) -> Self {
        assert!(arity <= 16, "at most 16 pins supported");
        assert!(
            arity == 16 || bits < (1 << arity),
            "state {bits:#b} out of range for arity {arity}"
        );
        Self {
            bits,
            arity: arity as u8,
        }
    }

    /// Creates a state from per-pin values.
    ///
    /// # Panics
    ///
    /// Panics if more than 16 values are given.
    #[must_use]
    pub fn from_pins(values: &[bool]) -> Self {
        assert!(values.len() <= 16, "at most 16 pins supported");
        let bits = values
            .iter()
            .enumerate()
            .fold(0u16, |acc, (i, &v)| acc | (u16::from(v) << i));
        Self {
            bits,
            arity: values.len() as u8,
        }
    }

    /// The raw bitmask.
    #[inline]
    #[must_use]
    pub fn bits(self) -> u16 {
        self.bits
    }

    /// The number of pins.
    #[inline]
    #[must_use]
    pub fn arity(self) -> usize {
        self.arity as usize
    }

    /// The value of logical pin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.arity()`.
    #[must_use]
    pub fn pin(self, i: usize) -> bool {
        assert!(i < self.arity(), "pin {i} out of range");
        self.bits >> i & 1 == 1
    }

    /// Number of pins at logic 1.
    #[must_use]
    pub fn count_ones(self) -> usize {
        self.bits.count_ones() as usize
    }

    /// Returns the state with pins rearranged by a permutation: output pin
    /// `i` takes the value of pin `perm[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `perm.len() != self.arity()` or an index is out of range.
    #[must_use]
    pub fn permuted(self, perm: &[u8]) -> Self {
        assert_eq!(perm.len(), self.arity(), "permutation length mismatch");
        let bits = perm.iter().enumerate().fold(0u16, |acc, (i, &src)| {
            acc | (u16::from(self.pin(src as usize)) << i)
        });
        Self {
            bits,
            arity: self.arity,
        }
    }

    /// Iterates over all `2^arity` states in ascending bitmask order.
    pub fn all(arity: usize) -> impl ExactSizeIterator<Item = InputState> {
        assert!(arity <= 16, "at most 16 pins supported");
        (0..(1u32 << arity)).map(move |b| InputState {
            bits: b as u16,
            arity: arity as u8,
        })
    }

    /// Per-pin values in pin order.
    #[must_use]
    pub fn to_pins(self) -> Vec<bool> {
        (0..self.arity()).map(|i| self.pin(i)).collect()
    }
}

impl fmt::Display for InputState {
    /// Displays in the paper's pin order: pin 0 first (leftmost).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.arity() {
            f.write_str(if self.pin(i) { "1" } else { "0" })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_and_pins_agree() {
        let s = InputState::from_bits(0b101, 3);
        assert!(s.pin(0) && !s.pin(1) && s.pin(2));
        assert_eq!(s.count_ones(), 2);
        assert_eq!(s.to_pins(), vec![true, false, true]);
        assert_eq!(InputState::from_pins(&[true, false, true]), s);
    }

    #[test]
    fn all_enumerates_every_state() {
        let states: Vec<_> = InputState::all(2).collect();
        assert_eq!(states.len(), 4);
        assert_eq!(states[0].bits(), 0);
        assert_eq!(states[3].bits(), 3);
    }

    #[test]
    fn permutation_reorders_pins() {
        // Swap a 2-pin state.
        let s = InputState::from_bits(0b01, 2);
        let swapped = s.permuted(&[1, 0]);
        assert_eq!(swapped.bits(), 0b10);
        // Rotate a 3-pin state.
        let s = InputState::from_bits(0b011, 3);
        let rotated = s.permuted(&[2, 0, 1]);
        assert!(!rotated.pin(0)); // takes pin 2 = 0
        assert!(rotated.pin(1)); // takes pin 0 = 1
        assert!(rotated.pin(2)); // takes pin 1 = 1
    }

    #[test]
    fn identity_permutation_is_noop() {
        let s = InputState::from_bits(0b10, 2);
        assert_eq!(s.permuted(&[0, 1]), s);
    }

    #[test]
    fn display_shows_pin0_first() {
        assert_eq!(InputState::from_bits(0b01, 2).to_string(), "10");
        assert_eq!(InputState::from_bits(0b10, 2).to_string(), "01");
        assert_eq!(InputState::from_bits(0b011, 3).to_string(), "110");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_oversized_bits() {
        let _ = InputState::from_bits(0b100, 2);
    }

    #[test]
    #[should_panic(expected = "pin 2 out of range")]
    fn rejects_bad_pin_index() {
        let _ = InputState::from_bits(0b01, 2).pin(2);
    }
}
