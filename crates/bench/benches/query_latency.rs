//! Criterion micro-benchmarks for oracle query latency.
//!
//! Reproduces the latency side of Table 3 / §3.2 ("our technique can answer
//! 99.9 % of the queries in less than a millisecond; the average query time
//! is roughly 365 microseconds") at the stand-in scale: per-query latency of
//! the vicinity oracle for distance and path queries, plus the
//! landmark-estimate fallback.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::SeedableRng;

use vicinity_core::config::Alpha;
use vicinity_core::OracleBuilder;
use vicinity_datasets::registry::{Dataset, Scale, StandIn};
use vicinity_graph::algo::sampling::random_pairs;

fn bench_scale() -> Scale {
    // Benches default to the small scale so `cargo bench` completes quickly;
    // VICINITY_SCALE=default/large opts into bigger graphs.
    match std::env::var("VICINITY_SCALE").as_deref() {
        Ok("default") => Scale::Default,
        Ok("large") => Scale::Large,
        Ok("tiny") => Scale::Tiny,
        _ => Scale::Small,
    }
}

fn query_latency(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_latency");
    for stand_in in [StandIn::Dblp, StandIn::LiveJournal] {
        let dataset = Dataset::stand_in(stand_in, bench_scale());
        let graph = &dataset.graph;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let pairs = random_pairs(graph, 1024, &mut rng);

        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT)
            .seed(2012)
            .build(graph);
        group.throughput(Throughput::Elements(pairs.len() as u64));
        group.bench_function(BenchmarkId::new("distance", &dataset.name), |b| {
            let mut i = 0usize;
            b.iter(|| {
                let (s, t) = pairs[i % pairs.len()];
                i += 1;
                std::hint::black_box(oracle.distance(s, t))
            });
        });
        group.bench_function(BenchmarkId::new("path", &dataset.name), |b| {
            let mut i = 0usize;
            b.iter(|| {
                let (s, t) = pairs[i % pairs.len()];
                i += 1;
                std::hint::black_box(oracle.path_with_graph(graph, s, t))
            });
        });

        // Landmark-estimate fallback latency (approximate answers).
        group.bench_function(BenchmarkId::new("landmark_estimate", &dataset.name), |b| {
            let mut i = 0usize;
            b.iter(|| {
                let (s, t) = pairs[i % pairs.len()];
                i += 1;
                std::hint::black_box(oracle.landmark_estimate(s, t))
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = query_latency
}
criterion_main!(benches);
