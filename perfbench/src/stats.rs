//! Order statistics, tail-percentile selection and the load-knee finder.

/// Median of `xs` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Percentiles tried for a tail, highest last.
const TAIL_LADDER: [f64; 6] = [50.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a tail percentile for it to be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A selected tail percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. 99.0.
    pub pct: f64,
    /// The sample at that percentile (nearest rank).
    pub value: f64,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
    /// Total samples.
    pub count: usize,
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] samples beyond its nearest rank. With too few
/// samples for even the median to qualify, the maximum is returned as
/// the 100th percentile with nothing beyond it.
pub fn tail(xs: &[f64]) -> Tail {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let mut best =
        Tail { pct: 100.0, value: v.last().copied().unwrap_or(0.0), beyond: 0, count: n };
    for pct in TAIL_LADDER {
        // Nearest rank: the smallest index covering pct% of the samples.
        let rank = ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1)) - 1;
        let beyond = n.saturating_sub(rank + 1);
        if n > 0 && beyond >= TAIL_MIN_BEYOND {
            best = Tail { pct, value: v[rank], beyond, count: n };
        }
    }
    best
}

/// One point of an offered-versus-accepted load sweep.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LoadPoint {
    /// Offered load, flits/node/cycle.
    pub offered: f64,
    /// Accepted load over the measurement window, flits/node/cycle.
    pub accepted: f64,
    /// The run failed to drain its measured packets.
    pub saturated: bool,
}

/// Accepted load must reach this share of the offered load for a point
/// to count as below the knee.
pub const KNEE_ACCEPT_SHARE: f64 = 0.95;

impl LoadPoint {
    /// Below the knee: the run drained and accepted what was offered.
    pub fn keeps_up(&self) -> bool {
        !self.saturated && self.accepted >= KNEE_ACCEPT_SHARE * self.offered
    }
}

/// Finds the knee of an offered/accepted curve by bisection on
/// `[lo, hi]`: the highest offered load (to within `tol`) at which
/// `probe` still keeps up. `lo` must keep up and `hi` must not; every
/// probed point is returned in probe order alongside the knee.
pub fn find_knee(
    mut lo: f64,
    mut hi: f64,
    tol: f64,
    mut probe: impl FnMut(f64) -> LoadPoint,
) -> Result<(f64, Vec<LoadPoint>), String> {
    let mut seen = Vec::new();
    let first = probe(lo);
    seen.push(first);
    if !first.keeps_up() {
        return Err(format!("lower bound {lo} is already past the knee: {first:?}"));
    }
    let last = probe(hi);
    seen.push(last);
    if last.keeps_up() {
        return Err(format!("upper bound {hi} still keeps up: {last:?}"));
    }
    while hi - lo > tol {
        let mid = (lo + hi) / 2.0;
        let p = probe(mid);
        seen.push(p);
        if p.keeps_up() {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok((lo, seen))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.pct, 99.0);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.count, 1000);

        // 200 samples: p95 leaves 10 beyond, p99 only 2.
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!((t.pct, t.value, t.beyond), (95.0, 190.0, 10));

        // 20 samples: only the median qualifies.
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs).pct, 50.0);
        assert_eq!(tail(&xs).beyond, 10);
    }

    #[test]
    fn tail_of_too_few_samples_is_the_maximum() {
        let t = tail(&[5.0, 1.0, 3.0]);
        assert_eq!((t.pct, t.value, t.beyond, t.count), (100.0, 5.0, 0, 3));
        assert_eq!(tail(&[]).count, 0);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut xs: Vec<f64> = (0..500).map(|i| f64::from((i * 7919) % 500)).collect();
        let a = tail(&xs);
        xs.reverse();
        assert_eq!(a, tail(&xs));
    }

    /// A synthetic mesh: accepted tracks offered up to a bisection
    /// limit of 0.0625, then flattens, and the drain fails past it.
    fn synthetic(offered: f64) -> LoadPoint {
        let limit = 0.0625;
        LoadPoint { offered, accepted: offered.min(limit), saturated: offered > limit * 1.02 }
    }

    #[test]
    fn knee_finder_locates_a_synthetic_knee() {
        let (knee, seen) = find_knee(0.01, 0.5, 1e-4, synthetic).expect("bracketed");
        // Accepted stays within 5% of offered up to limit / 0.95.
        let expected = (0.0625f64 / KNEE_ACCEPT_SHARE).min(0.0625 * 1.02);
        assert!((knee - expected).abs() <= 1e-4, "knee {knee} vs {expected}");
        assert!(seen.len() > 2);
        assert!(synthetic(knee).keeps_up());
        assert!(!synthetic(knee + 2e-4).keeps_up());
    }

    #[test]
    fn knee_finder_rejects_an_unbracketed_range() {
        assert!(find_knee(0.3, 0.5, 1e-3, synthetic).is_err());
        assert!(find_knee(0.001, 0.01, 1e-3, synthetic).is_err());
    }
}
