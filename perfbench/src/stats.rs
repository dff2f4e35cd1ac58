//! Statistics the benchmark reports: medians and supported tails over the
//! samples of one op kind, and rates as the median over equal windows.

/// Latency samples of **one op kind**, in milliseconds. A failed or
/// refused op is recorded as `f64::INFINITY`, so it lands beyond any
/// latency limit and in the tail.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ms: Vec<f64>,
    failed: u64,
}

/// What a [`Samples`] set supports.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Samples, failed ones included.
    pub n: usize,
    /// Failed or refused ops.
    pub failed: u64,
    /// Median.
    pub p50_ms: f64,
    /// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
    /// it; the maximum when the sample is too small for that to sit at or
    /// above the median (see `tail_supported`).
    pub tail_ms: f64,
    /// Which percentile `tail_ms` is.
    pub tail_pct: f64,
    /// Whether the sample held enough ops for the tail rule.
    pub tail_supported: bool,
}

/// Samples a tail percentile must have beyond it.
pub const TAIL_BEYOND: usize = 10;

impl Samples {
    /// Record a completed op.
    pub fn ok(&mut self, ms: f64) {
        self.ms.push(ms);
    }

    /// Record a failed or refused op.
    pub fn failed(&mut self) {
        self.ms.push(f64::INFINITY);
        self.failed += 1;
    }

    /// Ops over `limit_ms`; failed ops always are.
    pub fn over_limit(&self, limit_ms: f64) -> usize {
        self.ms.iter().filter(|&&v| v > limit_ms).count()
    }

    /// Median and tail of the recorded ops.
    pub fn summary(&self) -> Summary {
        let mut sorted = self.ms.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        if n == 0 {
            return Summary {
                n,
                failed: 0,
                p50_ms: f64::NAN,
                tail_ms: f64::NAN,
                tail_pct: f64::NAN,
                tail_supported: false,
            };
        }
        let p50_ms = median_sorted(&sorted);
        // Index i has n-1-i samples beyond it. The tail must also sit at
        // or above the median, which needs n >= 2 * TAIL_BEYOND + 1.
        let tail_supported = n > 2 * TAIL_BEYOND;
        let idx = if tail_supported {
            n - 1 - TAIL_BEYOND
        } else {
            n - 1
        };
        Summary {
            n,
            failed: self.failed,
            p50_ms,
            tail_ms: sorted[idx],
            tail_pct: 100.0 * (idx + 1) as f64 / n as f64,
            tail_supported,
        }
    }
}

fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median of unsorted values (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    median_sorted(&sorted)
}

/// One finished op on a phase clock, in seconds from the phase start.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// When the op started.
    pub start_s: f64,
    /// When it finished.
    pub end_s: f64,
    /// Work it completed (1 per op, or e.g. candidate pairs).
    pub work: f64,
}

/// Rate as the median over `windows` equal windows of `[0, total_s)`.
/// Each op's work is spread evenly over its own interval, so a window
/// holding a few long ops is not quantised to whole ops; work outside
/// `[0, total_s)` is dropped.
pub fn window_median_rate(ops: &[Op], total_s: f64, windows: usize) -> f64 {
    assert!(windows > 0 && total_s > 0.0, "need a positive phase length");
    let width = total_s / windows as f64;
    let mut work = vec![0.0; windows];
    for op in ops {
        let dur = op.end_s - op.start_s;
        for (w, acc) in work.iter_mut().enumerate() {
            let lo = w as f64 * width;
            let hi = lo + width;
            let overlap = op.end_s.min(hi) - op.start_s.max(lo);
            if overlap <= 0.0 {
                continue;
            }
            *acc += if dur > 0.0 {
                op.work * overlap / dur
            } else {
                op.work
            };
        }
    }
    let rates: Vec<f64> = work.iter().map(|w| w / width).collect();
    median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn samples(values: impl IntoIterator<Item = f64>) -> Samples {
        let mut s = Samples::default();
        for v in values {
            s.ok(v);
        }
        s
    }

    #[test]
    fn percentiles_are_per_op_kind() {
        // Two op kinds of very different cost, kept apart: each kind's
        // median is its own, never a value in the gap between them.
        let mut by_kind: BTreeMap<&str, Samples> = BTreeMap::new();
        for i in 0..50 {
            by_kind
                .entry("cheap")
                .or_default()
                .ok(1.0 + f64::from(i) * 0.01);
            by_kind.entry("heavy").or_default().ok(100.0 + f64::from(i));
        }
        let cheap = by_kind["cheap"].summary();
        let heavy = by_kind["heavy"].summary();
        assert!(cheap.p50_ms < 2.0, "{cheap:?}");
        assert!(heavy.p50_ms > 100.0, "{heavy:?}");
        assert_eq!(cheap.n, 50);
    }

    #[test]
    fn tail_has_ten_samples_beyond_it() {
        let s = samples((1..=100).map(f64::from)).summary();
        assert!(s.tail_supported);
        assert_eq!(s.tail_ms, 90.0);
        assert_eq!(s.tail_pct, 90.0);
        assert_eq!(s.n, 100);

        let s = samples((1..=1000).map(f64::from)).summary();
        assert_eq!(s.tail_ms, 990.0);
        assert_eq!(s.tail_pct, 99.0);
    }

    #[test]
    fn tail_never_sits_below_median() {
        for n in 1..=120u32 {
            // Reverse order so the sort is exercised.
            let s = samples((1..=n).rev().map(f64::from)).summary();
            assert!(s.tail_ms >= s.p50_ms, "n={n}: {s:?}");
            assert_eq!(s.tail_supported, n >= 21, "n={n}");
        }
        // A sample too small for the rule reports its maximum.
        let s = samples([5.0, 1.0, 3.0]).summary();
        assert_eq!((s.p50_ms, s.tail_ms, s.tail_pct), (3.0, 5.0, 100.0));
    }

    #[test]
    fn failed_ops_count_as_over_the_limit() {
        let mut s = samples((0..100).map(|_| 1.0));
        for _ in 0..11 {
            s.failed();
        }
        assert_eq!(s.over_limit(10.0), 11);
        let sum = s.summary();
        assert_eq!(sum.failed, 11);
        assert_eq!(sum.n, 111);
        // Eleven failures reach past the ten-beyond tail.
        assert!(sum.tail_ms.is_infinite());
        assert_eq!(sum.p50_ms, 1.0);

        let mut mostly_failed = samples([1.0]);
        mostly_failed.failed();
        mostly_failed.failed();
        assert!(mostly_failed.summary().p50_ms.is_infinite());
    }

    #[test]
    fn window_rate_is_a_median_over_windows() {
        // Ten back-to-back 0.1 s ops per second for 2 s: 10/s everywhere.
        let ops: Vec<Op> = (0..20)
            .map(|i| Op {
                start_s: f64::from(i) * 0.1,
                end_s: f64::from(i + 1) * 0.1,
                work: 1.0,
            })
            .collect();
        let r = window_median_rate(&ops, 2.0, 4);
        assert!((r - 10.0).abs() < 1e-9, "{r}");

        // One stalled window does not move the median.
        let mut stalled = ops.clone();
        for op in stalled.iter_mut().take(5) {
            op.work = 0.0;
        }
        let r = window_median_rate(&stalled, 2.0, 4);
        assert!((r - 10.0).abs() < 1e-9, "{r}");
    }

    #[test]
    fn window_rate_spreads_long_ops_over_their_interval() {
        // A 1.5 s op with 3 units of work: 2/s in each of three 0.5 s
        // windows, not 3 units credited to whichever window it ends in.
        let ops = [Op {
            start_s: 0.0,
            end_s: 1.5,
            work: 3.0,
        }];
        let r = window_median_rate(&ops, 1.5, 3);
        assert!((r - 2.0).abs() < 1e-9, "{r}");
        // Work past the phase end is dropped.
        let r = window_median_rate(&ops, 0.5, 1);
        assert!((r - 2.0).abs() < 1e-9, "{r}");
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
