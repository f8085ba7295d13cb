//! Round-robin arbiters used by the allocation stages.
//!
//! The VA and SA stages of the router are built from `n:1` arbiters
//! (paper §3.2.5–3.2.6: VA1 uses `P·V` V:1 arbiters, VA2 uses `P·V` PV:1
//! arbiters, SA is a two-stage separable allocator). A rotating-priority
//! (round-robin) arbiter provides the strong fairness the analysis
//! assumes; the arbiter *size* is what the area/power models care about,
//! so it is exposed alongside the grant logic.

use serde::{Deserialize, Serialize};

/// A rotating-priority (round-robin) arbiter over `n` request lines.
///
/// Grants are fair: after granting line `i`, line `i+1` has the highest
/// priority on the next arbitration.
///
/// Both fields are bytes, so an arbiter is two bytes wide and sits inside
/// the router's per-VC and per-port records (DESIGN.md §14) rather than
/// in an array of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundRobinArbiter {
    size: u8,
    next_priority: u8,
}

impl RoundRobinArbiter {
    /// Creates an arbiter over `size` request lines.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or above 255.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "arbiter must have at least one request line");
        let size = u8::try_from(size).expect("arbiter supports at most 255 request lines");
        RoundRobinArbiter { size, next_priority: 0 }
    }

    /// Number of request lines (the `n` of an `n:1` arbiter).
    pub fn size(&self) -> usize {
        usize::from(self.size)
    }

    /// The line with the highest priority on the next arbitration.
    pub fn next_priority(&self) -> usize {
        usize::from(self.next_priority)
    }

    /// Makes `line` the highest-priority line; the next grant is the
    /// first requesting line at or after it.
    #[inline]
    fn grant(&mut self, line: usize) -> usize {
        let next = line + 1;
        self.next_priority = if next == self.size() { 0 } else { next as u8 };
        line
    }

    /// Arbitrates among the requests selected by `requesting` and returns
    /// the granted line, advancing the priority pointer past it.
    ///
    /// Returns `None` if no line requests.
    pub fn arbitrate<F>(&mut self, requesting: F) -> Option<usize>
    where
        F: Fn(usize) -> bool,
    {
        let (size, start) = (self.size(), self.next_priority());
        (0..size)
            .map(|offset| (start + offset) % size)
            .find(|&l| requesting(l))
            .map(|l| self.grant(l))
    }

    /// Arbitrates among an explicit list of requesting line indices.
    ///
    /// Returns `None` if the list is empty. Indices outside `0..size` are
    /// ignored.
    pub fn arbitrate_among(&mut self, lines: &[usize]) -> Option<usize> {
        self.arbitrate(|i| lines.contains(&i))
    }

    /// Arbitrates among the request lines set in `mask` (bit `i` = line
    /// `i`). Produces exactly the same grant sequence as
    /// `arbitrate(|i| mask & (1 << i) != 0)` — the first requesting line
    /// at or after the priority pointer, wrapping — but in O(1) via
    /// count-trailing-zeros, which is what the per-cycle hot path uses.
    ///
    /// Only valid for arbiters of up to 64 lines; bits at or above
    /// `size` are ignored.
    #[inline]
    pub fn arbitrate_mask(&mut self, mask: u64) -> Option<usize> {
        let size = self.size();
        debug_assert!(size <= 64, "mask arbitration supports at most 64 lines");
        let mask = if size < 64 { mask & ((1u64 << size) - 1) } else { mask };
        if mask == 0 {
            return None;
        }
        let shifted = mask >> self.next_priority;
        let line = if shifted != 0 {
            self.next_priority() + shifted.trailing_zeros() as usize
        } else {
            mask.trailing_zeros() as usize
        };
        Some(self.grant(line))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_only_requesting_lines() {
        let mut a = RoundRobinArbiter::new(4);
        assert_eq!(a.arbitrate(|i| i == 2), Some(2));
        assert_eq!(a.arbitrate(|_| false), None);
    }

    #[test]
    fn round_robin_is_fair() {
        let mut a = RoundRobinArbiter::new(3);
        // All lines always request: grants must rotate 0,1,2,0,1,2…
        let grants: Vec<_> = (0..6).map(|_| a.arbitrate(|_| true).unwrap()).collect();
        assert_eq!(grants, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn priority_moves_past_granted_line() {
        let mut a = RoundRobinArbiter::new(4);
        assert_eq!(a.arbitrate(|i| i == 3), Some(3));
        // Next arbitration starts the search at line 0.
        assert_eq!(a.arbitrate(|_| true), Some(0));
    }

    #[test]
    fn no_starvation_under_contention() {
        let mut a = RoundRobinArbiter::new(5);
        let mut counts = [0usize; 5];
        for _ in 0..1000 {
            let g = a.arbitrate(|_| true).unwrap();
            counts[g] += 1;
        }
        assert!(counts.iter().all(|&c| c == 200), "{counts:?}");
    }

    #[test]
    fn arbitrate_among_list() {
        let mut a = RoundRobinArbiter::new(4);
        assert_eq!(a.arbitrate_among(&[1, 3]), Some(1));
        assert_eq!(a.arbitrate_among(&[1, 3]), Some(3));
        assert_eq!(a.arbitrate_among(&[]), None);
        // out-of-range indices ignored
        assert_eq!(a.arbitrate_among(&[9]), None);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_size_panics() {
        let _ = RoundRobinArbiter::new(0);
    }

    #[test]
    #[should_panic(expected = "at most 255")]
    fn oversized_arbiter_panics() {
        let _ = RoundRobinArbiter::new(256);
    }
}
