//! Credit-based flow control towards a router's mesh neighbours.
//!
//! Each mesh output VC of a CMESH router tracks how many buffer slots
//! remain in the downstream input VC. Sending a flit consumes a credit;
//! the downstream router returns one when the flit leaves its buffer.

use crate::routing::Direction;

/// Credits of one router's four mesh outputs, flat `[dir * vcs + vc]`.
/// An output with no neighbour (the chip edge) never holds a credit.
#[derive(Debug, Clone)]
pub(crate) struct Credits {
    available: Vec<u16>,
    max: u16,
    vcs: usize,
    has_neighbor: [bool; 4],
}

impl Credits {
    /// Full credits (`max` per VC) towards every existing neighbour.
    pub(crate) fn new(vcs: usize, max: u16, has_neighbor: [bool; 4]) -> Credits {
        let available = Direction::ALL
            .iter()
            .flat_map(|&dir| {
                std::iter::repeat_n(if has_neighbor[dir as usize] { max } else { 0 }, vcs)
            })
            .collect();
        Credits { available, max, vcs, has_neighbor }
    }

    /// Whether output `dir` leads to a neighbour.
    #[inline]
    pub(crate) fn has_neighbor(&self, dir: Direction) -> bool {
        self.has_neighbor[dir as usize]
    }

    /// Credits available towards downstream VC `(dir, vc)`.
    #[inline]
    pub(crate) fn available(&self, dir: Direction, vc: usize) -> u16 {
        self.available[dir as usize * self.vcs + vc]
    }

    /// True when at least one credit is available towards `(dir, vc)`.
    #[inline]
    pub(crate) fn has_credit(&self, dir: Direction, vc: usize) -> bool {
        self.available(dir, vc) > 0
    }

    /// Consumes one credit.
    ///
    /// # Panics
    ///
    /// Panics when no credit is available (protocol violation).
    pub(crate) fn consume(&mut self, dir: Direction, vc: usize) {
        let credit = &mut self.available[dir as usize * self.vcs + vc];
        assert!(*credit > 0, "switch allocation granted without credit");
        *credit -= 1;
    }

    /// Returns one credit (called when the downstream VC drains).
    ///
    /// # Panics
    ///
    /// Panics if replenishing would exceed the maximum, or if `dir` has
    /// no neighbour — either means more credits returned than consumed.
    pub(crate) fn replenish(&mut self, dir: Direction, vc: usize) {
        assert!(self.has_neighbor(dir), "credit returned for edge output");
        let credit = &mut self.available[dir as usize * self.vcs + vc];
        assert!(*credit < self.max, "credit overflow: replenished beyond maximum of {}", self.max);
        *credit += 1;
    }

    /// Sets the credits towards `(dir, vc)` (restoring a checkpoint).
    ///
    /// # Panics
    ///
    /// Panics past the maximum or on an edge output: restore checks both
    /// first.
    pub(crate) fn set(&mut self, dir: Direction, vc: usize, available: u16) {
        assert!(self.has_neighbor(dir) && available <= self.max, "bad credit count {available}");
        self.available[dir as usize * self.vcs + vc] = available;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consume_and_replenish_cycle() {
        let mut c = Credits::new(1, 2, [false, true, false, false]);
        c.consume(Direction::East, 0);
        c.consume(Direction::East, 0);
        assert!(!c.has_credit(Direction::East, 0));
        c.replenish(Direction::East, 0);
        assert!(c.has_credit(Direction::East, 0));
        c.consume(Direction::East, 0);
        assert_eq!(c.available(Direction::East, 0), 0);
    }

    #[test]
    #[should_panic(expected = "credit overflow")]
    fn replenish_beyond_max_panics() {
        let mut c = Credits::new(1, 1, [true; 4]);
        c.replenish(Direction::North, 0);
    }

    #[test]
    #[should_panic(expected = "granted without credit")]
    fn consume_without_credit_panics() {
        let mut c = Credits::new(2, 1, [true; 4]);
        c.consume(Direction::West, 1);
        c.consume(Direction::West, 1);
    }
}
