//! The benchmark's own arithmetic, checked on hand-built inputs.

use mhh_perfbench::{
    delivery_failures, failed_frac, mid_quantile, nearest_rank, node_other_s, quartiles,
    self_times, sweep_efficiency, tail_percentile, Span,
};
use mhh_pubsub::DeliveryAudit;

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn tail_is_the_highest_ladder_percentile_with_ten_samples_beyond() {
    // 100 samples: p99 leaves 1 beyond, p95 leaves 5, p90 leaves exactly 10.
    let tail = tail_percentile(&ramp(100)).expect("enough samples");
    assert_eq!(tail.percentile, 90.0);
    assert_eq!(tail.samples, 100);
    assert_eq!(nearest_rank(&ramp(100), 90.0), 90.0);
    // Tie-free data: the mid-quantile sits between ranks 90 and 91.
    assert!((tail.value - 90.5).abs() < 1e-9, "{}", tail.value);

    assert_eq!(tail_percentile(&ramp(1_000)).unwrap().percentile, 99.0);
    assert_eq!(tail_percentile(&ramp(999)).unwrap().percentile, 95.0);
    assert_eq!(tail_percentile(&ramp(10_000)).unwrap().percentile, 99.9);
    assert_eq!(tail_percentile(&ramp(20)).unwrap().percentile, 50.0);
    assert_eq!(tail_percentile(&ramp(19)), None);
    assert_eq!(tail_percentile(&[]), None);
}

#[test]
fn tail_ignores_input_order() {
    let mut shuffled = ramp(200);
    shuffled.reverse();
    assert_eq!(tail_percentile(&shuffled), tail_percentile(&ramp(200)));
}

#[test]
fn mid_quantile_interpolates_between_grid_values() {
    // Three samples at 40 and one at 60: F_mid(40) = 0.375, F_mid(60) = 0.875.
    let d = [40.0, 40.0, 40.0, 60.0];
    assert!((mid_quantile(&d, 50.0) - 45.0).abs() < 1e-9);
    assert_eq!(mid_quantile(&d, 10.0), 40.0);
    assert_eq!(mid_quantile(&d, 99.0), 60.0);
    assert_eq!(mid_quantile(&[7.0], 50.0), 7.0);
}

#[test]
fn failed_frac_counts_lost_duplicate_and_out_of_order_against_expected() {
    let audits = [
        DeliveryAudit {
            expected: 100,
            delivered: 98,
            duplicates: 3,
            pending: 0,
            lost: 2,
            out_of_order: 1,
        },
        DeliveryAudit {
            expected: 300,
            delivered: 296,
            pending: 4,
            ..DeliveryAudit::default()
        },
    ];
    // Pending events are not failures.
    assert_eq!(delivery_failures(&audits), (6, 400));
    assert!((failed_frac(&audits) - 0.015).abs() < 1e-12);
    assert_eq!(failed_frac(&[DeliveryAudit::default()]), 0.0);
}

#[test]
fn node_other_is_node_time_minus_hook_time() {
    assert!((node_other_s(5.0, &[1.0, 0.5]) - 3.5).abs() < 1e-12);
    assert_eq!(node_other_s(2.0, &[]), 2.0);
    // Hooks read from a different clock can overshoot by a hair: clamp.
    assert_eq!(node_other_s(1.0, &[1.2]), 0.0);
}

#[test]
fn sweep_efficiency_is_busy_time_over_worker_seconds() {
    assert!((sweep_efficiency(&[1.0, 1.0, 1.0, 1.0], 2, 2.5) - 0.8).abs() < 1e-12);
    assert!((sweep_efficiency(&[3.0], 2, 3.0) - 0.5).abs() < 1e-12);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let (q1, m, q3) = quartiles(&ramp(10));
    assert!((q1 - 2.75).abs() < 1e-12 && (m - 5.5).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
    // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
}

#[test]
fn self_time_subtracts_the_union_of_child_spans() {
    let span = |name: &str, start: f64, end: f64, parent: Option<usize>| Span {
        name: name.into(),
        start,
        end,
        parent,
    };
    let spans = [
        span("sweep", 0.0, 10.0, None),
        // Two overlapping points on parallel workers cover [1, 7].
        span("sweep.point", 1.0, 5.0, Some(0)),
        span("sweep.point", 3.0, 7.0, Some(0)),
        span("inner", 1.0, 2.0, Some(1)),
    ];
    let own = self_times(&spans);
    assert_eq!(own, vec![4.0, 3.0, 4.0, 1.0]);
}
