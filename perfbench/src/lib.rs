//! Arithmetic of the MHH benchmark: summary statistics, the tail-percentile
//! rule, the delivery-failure fraction and the derived per-layer ratios.
//!
//! Everything here is a pure function of already-measured numbers, so it is
//! unit-tested on hand-built inputs (`tests/arithmetic.rs`) independently of
//! the simulator runs the `mhh-perfbench` binary performs.

use mhh_pubsub::DeliveryAudit;

/// The percentile ladder the tail rule climbs, lowest first.
pub const TAIL_LADDER: [f64; 6] = [50.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// How many samples must lie beyond a percentile for it to count as
/// measured rather than extrapolated.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending-sorted sample: the value at rank
/// `ceil(q / 100 * n)` (1-based, clamped to `1..=n`).
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), q) - 1]
}

fn rank(n: usize, q: f64) -> usize {
    // The epsilon keeps decimal percentiles exact: 99.9 % of 10,000 is rank
    // 9,990, not the 9,991 that binary rounding of 99.9 would give.
    ((q / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Number of samples strictly beyond the nearest-rank `q`-th percentile of
/// `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// Parzen's mid-quantile of an ascending-sorted sample: the linear
/// interpolation, at probability `q / 100`, through the points
/// `(F_mid(x), x)` of the distinct values `x`, where
/// `F_mid(x) = P(X < x) + P(X = x) / 2`. On tie-free data it tracks the
/// nearest-rank percentile; on data recorded on a grid (handoff delays are
/// mostly multiples of the 10 ms hop latency) it moves smoothly with the
/// share of samples at each grid value instead of jumping a whole step.
pub fn mid_quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let n = sorted.len() as f64;
    let mut points: Vec<(f64, f64)> = Vec::new();
    let mut i = 0;
    while i < sorted.len() {
        let j = i + sorted[i..].iter().take_while(|&&x| x == sorted[i]).count();
        points.push(((i as f64 + (j - i) as f64 / 2.0) / n, sorted[i]));
        i = j;
    }
    let u = q / 100.0;
    let k = points.partition_point(|p| p.0 < u);
    if k == 0 {
        return points[0].1;
    }
    if k == points.len() {
        return points[k - 1].1;
    }
    let ((u0, x0), (u1, x1)) = (points[k - 1], points[k]);
    x0 + (x1 - x0) * (u - u0) / (u1 - u0)
}

/// A tail percentile picked by [`tail_percentile`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile (one of [`TAIL_LADDER`]).
    pub percentile: f64,
    /// Its value ([`mid_quantile`]).
    pub value: f64,
    /// Number of samples the percentile was taken over.
    pub samples: usize,
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] samples beyond its nearest rank, or `None` when even the median
/// has fewer (fewer than 20 samples).
pub fn tail_percentile(samples: &[f64]) -> Option<Tail> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    TAIL_LADDER
        .iter()
        .rev()
        .find(|&&q| n > 0 && samples_beyond(n, q) >= TAIL_MIN_BEYOND)
        .map(|&q| Tail {
            percentile: q,
            value: mid_quantile(&sorted, q),
            samples: n,
        })
}

/// Median (mean of the middle pair for an even count). Panics on an empty
/// sample.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// First quartile, median and third quartile with the `exclusive` method
/// of Python's `statistics.quantiles(values, n=4)`, which is how spreads of
/// repeated runs are judged. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let at = |j: usize| -> f64 {
        // statistics.quantiles, method="exclusive", m = n + 1.
        let pos = j as f64 * (n + 1) as f64 / 4.0;
        let i = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - i as f64;
        v[i - 1] + (v[i] - v[i - 1]) * frac
    };
    let mid = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    (at(1), mid, at(3))
}

/// Delivery failures of a set of runs against the deliveries they owed:
/// `(lost + duplicates + out_of_order) / expected`, summed over the audits.
/// Returns `(failures, expected)`; the fraction is their quotient.
pub fn delivery_failures<'a>(audits: impl IntoIterator<Item = &'a DeliveryAudit>) -> (u64, u64) {
    audits.into_iter().fold((0, 0), |(failed, expected), a| {
        (
            failed + a.lost + a.duplicates + a.out_of_order,
            expected + a.expected,
        )
    })
}

/// `failures / expected`, 0 when nothing was expected.
pub fn failed_frac<'a>(audits: impl IntoIterator<Item = &'a DeliveryAudit>) -> f64 {
    match delivery_failures(audits) {
        (_, 0) => 0.0,
        (failed, expected) => failed as f64 / expected as f64,
    }
}

/// Time inside the engine's node callback not spent in a mobility-protocol
/// hook: broker matching, routing/covering, fan-out and client recording.
/// Clamped at zero, since the two sides are read from different clocks.
pub fn node_other_s(node_s: f64, hook_s: &[f64]) -> f64 {
    (node_s - hook_s.iter().sum::<f64>()).max(0.0)
}

/// Parallel efficiency of a sweep: busy time summed over its points, over
/// the worker-seconds the sweep held (`workers × wall`).
pub fn sweep_efficiency(point_s: &[f64], workers: usize, wall_s: f64) -> f64 {
    point_s.iter().sum::<f64>() / (workers as f64 * wall_s)
}

/// FNV-1a over a string: the fingerprint of a rendered result.
pub fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One closed interval of a traced run: a call into one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-boundary name, e.g. `deploy.build`.
    pub name: String,
    /// Start, seconds since the trace began.
    pub start: f64,
    /// End, seconds since the trace began.
    pub end: f64,
    /// Index of the enclosing span in the same trace, if any.
    pub parent: Option<usize>,
}

/// Self time per span: its duration minus the part of that interval its
/// direct children cover. Children may overlap (sweep points on parallel
/// workers), so the covered part is the length of their union.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end - s.start - covered).max(0.0)
        })
        .collect()
}
