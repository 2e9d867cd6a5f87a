//! Integration tests for the serving subsystem: cross-validation of
//! `QueryService` answers (including fallback-on-miss) against exact BFS,
//! and concurrent serving of one shared oracle from
//! multiple threads.

use rand::SeedableRng;

use vicinity::baselines::PointToPoint;
use vicinity::core::config::Alpha;
use vicinity::core::OracleBuilder;
use vicinity::graph::algo::sampling::random_pairs;
use vicinity::prelude::*;

/// Every answer served on a social graph — whether from the index, the
/// cache or the fallback — must equal the BFS distance.
#[test]
fn serve_batch_matches_bfs_on_social_graphs() {
    for seed in [301u64, 302] {
        let graph = SocialGraphConfig::small_test().generate(seed);
        let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT)
            .seed(seed)
            .build(&graph);
        let service = QueryService::builder(oracle, graph)
            .cache_capacity(4096)
            .build()
            .expect("oracle and graph agree");

        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut pairs = random_pairs(service.graph(), 500, &mut rng);
        // Duplicate a slice of the workload so the cache path is exercised
        // and validated too.
        let repeats: Vec<_> = pairs[..50].to_vec();
        pairs.extend(repeats);

        let answers = service.serve_batch(&pairs);
        assert_eq!(answers.len(), pairs.len());

        let mut bfs = BfsEngine::new(service.graph());
        for (&(s, t), answer) in pairs.iter().zip(&answers) {
            assert_eq!(
                answer.distance(),
                bfs.distance(s, t),
                "pair ({s},{t}) seed {seed}"
            );
            assert!(
                !answer.is_miss(),
                "fallback is enabled: no unanswered queries"
            );
        }

        let stats = service.stats();
        assert_eq!(stats.queries, pairs.len() as u64);
        assert!(stats.cache_hits > 0, "repeated pairs must hit the cache");
        assert_eq!(stats.misses, 0);
    }
}

/// On a hub-free grid at small alpha the index misses often; the fallback
/// must resolve every miss exactly.
#[test]
fn fallback_on_miss_is_exact() {
    let graph = vicinity::graph::generators::classic::grid(30, 30);
    let oracle = OracleBuilder::new(Alpha::new(2.0).unwrap())
        .seed(9)
        .build(&graph);
    let service = QueryService::builder(oracle, graph).build().unwrap();

    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let pairs = random_pairs(service.graph(), 250, &mut rng);
    let answers = service.serve_batch(&pairs);

    let mut bfs = BfsEngine::new(service.graph());
    let mut fallback_seen = false;
    for (&(s, t), answer) in pairs.iter().zip(&answers) {
        assert_eq!(answer.distance(), bfs.distance(s, t), "pair ({s},{t})");
        if answer.method() == Some(ServedMethod::Fallback) {
            fallback_seen = true;
        }
    }
    assert!(
        fallback_seen,
        "a sparse grid at alpha=2 must exercise the fallback path"
    );
    assert!(service.stats().fallbacks > 0);
}

/// One oracle, one service, shared across at least four threads driving
/// their own sessions concurrently: answers stay exact and the aggregate
/// statistics account for every query.
#[test]
fn one_oracle_shared_across_four_threads() {
    let graph = SocialGraphConfig::small_test().generate(303);
    let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT)
        .seed(303)
        .build(&graph);
    let service = QueryService::builder(oracle, graph)
        .cache_capacity(2048)
        .build()
        .expect("oracle and graph agree");

    const THREADS: usize = 4;
    const PER_THREAD: usize = 300;

    // Reference answers computed single-threaded first.
    let mut workloads = Vec::new();
    for worker in 0..THREADS {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1000 + worker as u64);
        workloads.push(random_pairs(service.graph(), PER_THREAD, &mut rng));
    }
    let mut bfs = BfsEngine::new(service.graph());
    let expected: Vec<Vec<Option<u32>>> = workloads
        .iter()
        .map(|pairs| pairs.iter().map(|&(s, t)| bfs.distance(s, t)).collect())
        .collect();

    std::thread::scope(|scope| {
        for (pairs, expected) in workloads.iter().zip(&expected) {
            let mut session = service.session();
            scope.spawn(move || {
                for (&(s, t), want) in pairs.iter().zip(expected) {
                    let answer = session.serve_one(s, t);
                    assert_eq!(answer.distance(), *want, "pair ({s},{t})");
                }
            });
        }
    });

    let stats = service.stats();
    assert_eq!(stats.queries, (THREADS * PER_THREAD) as u64);
    assert_eq!(stats.misses, 0);
    assert_eq!(
        stats.queries,
        stats.index_hits + stats.fallbacks + stats.cache_hits + stats.unreachable,
        "every query must be accounted to exactly one serving method"
    );
    assert!(
        stats.latency.count() > 0,
        "latency recording is on by default"
    );
}

/// `serve_into` must reuse the caller's output vector across batches: once
/// the first batch has sized it, serving same-sized batches through the
/// same session must never reallocate (callers previously could observe
/// per-batch reallocation).
#[test]
fn serve_into_reuses_output_capacity_across_batches() {
    let graph = SocialGraphConfig::small_test().generate(305);
    let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT)
        .seed(305)
        .build(&graph);
    let service = QueryService::builder(oracle, graph)
        .cache_capacity(1024)
        .build()
        .expect("oracle and graph agree");
    let mut rng = rand::rngs::StdRng::seed_from_u64(12);
    let pairs = random_pairs(service.graph(), 256, &mut rng);

    let mut session = service.session();
    let mut out = Vec::new();
    session.serve_into(&pairs, &mut out);
    assert_eq!(out.len(), pairs.len());
    let settled_capacity = out.capacity();
    for round in 0..10 {
        out.clear();
        session.serve_into(&pairs, &mut out);
        assert_eq!(out.len(), pairs.len());
        assert_eq!(
            out.capacity(),
            settled_capacity,
            "round {round}: serve_into reallocated the output vector"
        );
    }
}

/// The batched serve_into pipeline (cache peel-off, duplicate collapsing,
/// prefetch engine, fallback) must classify every query exactly as a
/// serve_one loop does — exercised on a grid so the fallback path is part
/// of the comparison.
#[test]
fn batched_serve_matches_serve_one_loop() {
    let graph = vicinity::graph::generators::classic::grid(20, 20);
    let build = || {
        let oracle = OracleBuilder::new(Alpha::new(4.0).unwrap())
            .seed(13)
            .build(&graph);
        QueryService::builder(oracle, graph.clone())
            .cache_capacity(512)
            .build()
            .expect("oracle and graph agree")
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(14);
    let mut pairs = random_pairs(&graph, 300, &mut rng);
    let duplicates: Vec<_> = pairs[..30].to_vec();
    pairs.extend(duplicates);

    let scalar_service = build();
    let mut scalar_session = scalar_service.session();
    let scalar: Vec<ServedAnswer> = pairs
        .iter()
        .map(|&(s, t)| scalar_session.serve_one(s, t))
        .collect();

    let batched_service = build();
    let mut batched_session = batched_service.session();
    let mut batched = Vec::new();
    batched_session.serve_into(&pairs, &mut batched);

    assert_eq!(scalar.len(), batched.len());
    let mut fallback_seen = false;
    for (i, (a, b)) in scalar.iter().zip(&batched).enumerate() {
        assert_eq!(a.distance(), b.distance(), "pair {i} ({:?})", pairs[i]);
        assert_eq!(a.is_miss(), b.is_miss(), "pair {i}");
        assert_eq!(a.is_unreachable(), b.is_unreachable(), "pair {i}");
        if a.method() == Some(ServedMethod::Fallback) {
            fallback_seen = true;
        }
    }
    assert!(fallback_seen, "grid workload must exercise the fallback");
    drop(scalar_session);
    drop(batched_session);
    assert_eq!(
        scalar_service.stats().queries,
        batched_service.stats().queries
    );
}

/// Client threads, one session each, serving contiguous chunks of a batch:
/// their answers, concatenated, equal one `serve_batch` of the whole input,
/// in input order.
#[test]
fn batched_answers_preserve_input_order() {
    let graph = SocialGraphConfig::small_test().generate(304);
    let oracle = OracleBuilder::new(Alpha::PAPER_DEFAULT)
        .seed(304)
        .build(&graph);
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let pairs = random_pairs(&graph, 400, &mut rng);

    let whole = QueryService::builder(oracle.clone(), graph.clone())
        .build()
        .unwrap()
        .serve_batch(&pairs);
    let service = QueryService::builder(oracle, graph).build().unwrap();
    let chunked: Vec<ServedAnswer> = std::thread::scope(|scope| {
        let clients: Vec<_> = pairs
            .chunks(pairs.len().div_ceil(4))
            .map(|chunk| {
                let mut session = service.session();
                scope.spawn(move || {
                    let mut out = Vec::new();
                    session.serve_into(chunk, &mut out);
                    out
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|client| client.join().unwrap())
            .collect()
    });
    assert_eq!(whole, chunked);
    assert_eq!(service.stats().queries, pairs.len() as u64);
}
