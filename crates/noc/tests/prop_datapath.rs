//! Property tests on the datapath building blocks: payload
//! classification, buffers, and arbiters.

use proptest::prelude::*;

use mira_noc::arbiter::RoundRobinArbiter;
use mira_noc::flit::{FlitData, WordPattern};

proptest! {
    /// The zero-detector output is always in [1, words] and consistent
    /// with `is_short` / `active_fraction`.
    #[test]
    fn active_words_bounds(words in proptest::collection::vec(any::<u32>(), 1..8)) {
        let n = words.len();
        let d = FlitData::new(words);
        let a = d.active_words();
        prop_assert!(a >= 1 && a <= n);
        prop_assert_eq!(d.is_short(), a == 1);
        prop_assert!((d.active_fraction() - a as f64 / n as f64).abs() < 1e-12);
    }

    /// Gating is sound: every word at or above the active count is
    /// redundant (all-0 or all-1), so no information is lost.
    #[test]
    fn gated_words_are_redundant(words in proptest::collection::vec(any::<u32>(), 1..8)) {
        let d = FlitData::new(words.clone());
        for w in &words[d.active_words()..] {
            prop_assert!(WordPattern::of(*w).is_redundant());
        }
    }

    /// Forcing k active words yields exactly k (for k in range).
    #[test]
    fn with_active_words_exact(n in 1usize..8, k in 1usize..8) {
        let d = FlitData::with_active_words(n, k);
        prop_assert_eq!(d.active_words(), k.clamp(1, n));
    }

    /// A round-robin arbiter only grants requesting lines, and over any
    /// window with all lines requesting, grant counts differ by at most
    /// one (strong fairness).
    #[test]
    fn arbiter_fairness(size in 1usize..12, rounds in 1usize..100) {
        let mut arb = RoundRobinArbiter::new(size);
        let mut counts = vec![0usize; size];
        for _ in 0..rounds {
            let g = arb.arbitrate(|_| true).expect("always a requester");
            counts[g] += 1;
        }
        let min = counts.iter().min().unwrap();
        let max = counts.iter().max().unwrap();
        prop_assert!(max - min <= 1, "{counts:?}");
    }

    /// At every size the router uses (1..=64 lines, the most a `u64`
    /// request mask holds) and from any priority state, the O(1) mask
    /// arbitration grants the same line and leaves the same priority as
    /// the scanning `arbitrate`. The priority state comes from a random
    /// warm-up sequence run on both arbiters, so the byte-wide pointer is
    /// exercised across its whole range, wrap-around included.
    #[test]
    fn arbiter_mask_matches_scan(
        size in 1usize..=64,
        warmup in proptest::collection::vec(any::<u64>(), 0..80),
        masks in proptest::collection::vec(any::<u64>(), 1..40),
    ) {
        let mut scan = RoundRobinArbiter::new(size);
        for m in &warmup {
            let _ = scan.arbitrate(|i| m & (1u64 << i) != 0);
        }
        prop_assert!(scan.next_priority() < size);
        let mut fast = scan;
        for m in masks.iter().chain(&warmup) {
            let want = scan.arbitrate(|i| m & (1u64 << i) != 0);
            let got = fast.arbitrate_mask(*m);
            prop_assert_eq!(got, want, "size {} mask {:#x}", size, m);
            prop_assert_eq!(fast.next_priority(), scan.next_priority());
        }
    }

    /// With a random request subset the grant is always a requester.
    #[test]
    fn arbiter_grants_requesters(size in 1usize..12, mask in any::<u16>()) {
        let mut arb = RoundRobinArbiter::new(size);
        let requesting: Vec<bool> = (0..size).map(|i| mask & (1 << i) != 0).collect();
        match arb.arbitrate(|i| requesting[i]) {
            Some(g) => prop_assert!(requesting[g]),
            None => prop_assert!(requesting.iter().all(|r| !r)),
        }
    }
}
