//! Micro-benchmarks of the content-filter substrate: matching and covering,
//! plus the filter table's event matching and covering query, each against
//! the linear scan it replaced, timed in the same run.

use criterion::{criterion_group, criterion_main, Criterion};
use mhh_pubsub::event::{Event, EventBuilder};
use mhh_pubsub::{BrokerId, ClientId, Filter, FilterTable, Op, Peer};

fn micro_filter(c: &mut Criterion) {
    let filters: Vec<Filter> = (0..1000)
        .map(|i| {
            let lo = (i as f64) / 1000.0 * 0.9375;
            Filter::new(vec![])
                .and("v", Op::Ge, lo)
                .and("v", Op::Lt, lo + 0.0625)
        })
        .collect();
    let events: Vec<_> = (0..256)
        .map(|i| {
            EventBuilder::new()
                .attr("v", (i as f64) / 256.0)
                .attr("source", i as i64)
                .build(i as u64, ClientId(0), i as u64)
        })
        .collect();

    c.bench_function("filter_match_1000x256", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for e in &events {
                for f in &filters {
                    if f.matches(e) {
                        hits += 1;
                    }
                }
            }
            std::hint::black_box(hits)
        })
    });

    c.bench_function("filter_covering_1000x1000", |b| {
        b.iter(|| {
            let mut covered = 0usize;
            for f in filters.iter().step_by(10) {
                for g in filters.iter().step_by(10) {
                    if f.covers(g) {
                        covered += 1;
                    }
                }
            }
            std::hint::black_box(covered)
        })
    });
}

/// MHH's `cancel_prev` question ("does anyone but these peers still need
/// this filter?") on a 2,048-entry table of the evaluation workload's
/// `lo <= v < hi` windows, each client's window also held by a broker
/// neighbor as on a migration path. The bounded covering query is timed
/// against the in-order `Filter::covers` scan it replaced (the in-run
/// baseline); both must give the same answers.
fn micro_covering_query(c: &mut Criterion) {
    let mut table = FilterTable::new();
    let mut queries = Vec::new();
    for i in 0..1024u32 {
        let lo = (i as f64 * 0.618_033_988_749_895) % 0.9375;
        let filter = Filter::new(vec![])
            .and("v", Op::Ge, lo)
            .and("v", Op::Lt, lo + 0.0625);
        table.add(Peer::Client(ClientId(i)), filter.clone());
        table.add(Peer::Broker(BrokerId(i % 4)), filter.clone());
        if i % 16 == 0 {
            queries.push((
                filter,
                [Peer::Client(ClientId(i)), Peer::Broker(BrokerId(i % 4))],
            ));
        }
    }
    assert_eq!(table.len(), 2048);
    let linear = |filter: &Filter, excluded: &[Peer]| {
        table.entries().any(|e| {
            !excluded.contains(&e.peer) && (e.filter.covers(filter) || filter.covers(&e.filter))
        })
    };
    for (q, excluded) in &queries {
        assert_eq!(table.needed_excluding(q, excluded), linear(q, excluded));
    }

    let mut group = c.benchmark_group("filter_covering_query_2048");
    group.bench_function("bounded", |b| {
        b.iter(|| {
            let needed = queries
                .iter()
                .filter(|(q, excluded)| table.needed_excluding(q, excluded))
                .count();
            std::hint::black_box(needed)
        })
    });
    group.bench_function("linear_scan", |b| {
        b.iter(|| {
            let needed = queries
                .iter()
                .filter(|(q, excluded)| linear(q, excluded))
                .count();
            std::hint::black_box(needed)
        })
    });
    group.finish();
}

/// Reverse-path matching on a city-shaped table: 2,048 `lo <= v < hi`
/// windows of width 0.0625, 2,016 of them held by four broker neighbors (as
/// remote subscribers arrive over the overlay) and one each by 32 local
/// clients, a quarter of those labeled accept-only-from a neighbor (MHH's
/// handoff label). Events arrive from each neighbor in turn and from a
/// local client. The indexed `matching_targets_into` is timed against the
/// in-order scan of every entry (the in-run baseline); both must give the
/// same targets in the same order.
fn micro_matching(c: &mut Criterion) {
    let mut table = FilterTable::new();
    for i in 0..2048u32 {
        let lo = (i as f64 * 0.618_033_988_749_895) % 0.9375;
        let filter = Filter::new(vec![])
            .and("v", Op::Ge, lo)
            .and("v", Op::Lt, lo + 0.0625);
        if i % 64 < 63 {
            table.add(Peer::Broker(BrokerId(i % 4)), filter);
        } else {
            let client = Peer::Client(ClientId(i / 64));
            let label = (i % 256 == 63).then_some(Peer::Broker(BrokerId(i % 3)));
            table.add_labeled(client, filter, label);
        }
    }
    assert_eq!(table.len(), 2048);
    let events: Vec<(Event, Peer)> = (0..256u32)
        .map(|i| {
            let event = EventBuilder::new()
                .attr("v", (i as f64 * 0.754_877_666_246_693) % 1.0)
                .build(i as u64, ClientId(0), i as u64);
            let from = match i % 5 {
                4 => Peer::Client(ClientId(7)),
                b => Peer::Broker(BrokerId(b)),
            };
            (event, from)
        })
        .collect();
    let linear = |table: &FilterTable, event: &Event, from: Peer| -> Vec<Peer> {
        let mut out: Vec<Peer> = Vec::new();
        for e in table.entries() {
            if e.peer != from
                && e.accept_only_from.is_none_or(|label| label == from)
                && e.filter.matches(event)
                && !out.contains(&e.peer)
            {
                out.push(e.peer);
            }
        }
        out
    };
    let mut targets = Vec::new();
    for (event, from) in &events {
        table.matching_targets_into(event, *from, &mut targets);
        assert_eq!(targets, linear(&table, event, *from));
    }

    let mut group = c.benchmark_group("filter_table_matching_2048");
    group.bench_function("indexed", |b| {
        b.iter(|| {
            let mut found = 0;
            for (event, from) in &events {
                table.matching_targets_into(event, *from, &mut targets);
                found += targets.len();
            }
            std::hint::black_box(found)
        })
    });
    group.bench_function("linear_scan", |b| {
        b.iter(|| {
            let found: usize = events
                .iter()
                .map(|(event, from)| linear(&table, event, *from).len())
                .sum();
            std::hint::black_box(found)
        })
    });
    group.finish();
}

criterion_group!(benches, micro_filter, micro_covering_query, micro_matching);
criterion_main!(benches);
