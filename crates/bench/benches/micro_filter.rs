//! Micro-benchmarks of the content-filter substrate: matching and covering,
//! plus the filter table's covering query against the linear scan it
//! replaced, timed in the same run.

use criterion::{criterion_group, criterion_main, Criterion};
use mhh_pubsub::event::EventBuilder;
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

criterion_group!(benches, micro_filter, micro_covering_query);
criterion_main!(benches);
