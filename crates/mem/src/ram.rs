//! The word-addressed on-chip memory (BRAM model).

use std::cell::RefCell;
use std::rc::Rc;

use prevv_dataflow::Value;

/// A flat word-addressed memory shared between a controller and the test
/// harness.
///
/// Timing (read/write latency, port bandwidth) is modeled by the
/// controllers; `Ram` itself is purely functional storage so that the final
/// image can be compared word-for-word against the golden model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ram {
    cells: Vec<Value>,
}

impl Ram {
    /// Creates a RAM initialized to `image`.
    pub fn new(image: Vec<Value>) -> Self {
        Ram { cells: image }
    }

    /// Creates a zeroed RAM of `words` cells.
    pub fn zeroed(words: usize) -> Self {
        Self::new(vec![0; words])
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if the RAM has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Reads one word.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range (controllers resolve addresses into
    /// range before accessing).
    pub fn read(&self, addr: usize) -> Value {
        self.cells[addr]
    }

    /// Writes one word.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn write(&mut self, addr: usize, value: Value) {
        self.cells[addr] = value;
    }

    /// Read-only view of the whole image.
    pub fn image(&self) -> &[Value] {
        &self.cells
    }
}

/// Shared handle to a RAM, returned by controller attach functions so the
/// harness can inspect final memory after simulation.
pub type SharedRam = Rc<RefCell<Ram>>;

/// Wraps a RAM in a shared handle.
pub fn shared(ram: Ram) -> SharedRam {
    Rc::new(RefCell::new(ram))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip() {
        let mut r = Ram::zeroed(4);
        r.write(2, 7);
        assert_eq!(r.read(2), 7);
        assert_eq!(r.read(0), 0);
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn image_reflects_writes() {
        let mut r = Ram::new(vec![1, 2, 3]);
        r.write(0, 9);
        assert_eq!(r.image(), &[9, 2, 3]);
    }
}
