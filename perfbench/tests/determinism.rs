//! Two runs with the same seed must do exactly the same work: the same
//! answer methods, index look-ups, fallback operations, repaired rows and
//! cache hits. Runs on a small graph with a fixed call count, so the test
//! is quick; the benchmark's count window gives the full-size runs the same
//! property.

use perfbench::run::{run, RunConfig, WorkCounts};
use perfbench::trace::LayerTotals;
use perfbench::workload::Workload;

fn small(workload: Workload, seed: u64) -> RunConfig {
    RunConfig {
        nodes: 3_000,
        setup_repeats: 1,
        warmup_calls: 20,
        count_window: 60,
        write_phase_updates: 40,
        ..RunConfig::new(workload, seed, 0.0, true)
    }
}

/// The work counts of a traced run, with the replay's times zeroed: only
/// the counts must repeat.
fn counts(config: RunConfig) -> WorkCounts {
    let report = run(config);
    assert!(report.correct, "{:?}", report.mismatches);
    assert_eq!(report.failed, 0, "{:?}", report.mismatches);
    let counts = report.counts.expect("a traced run reports work counts");
    WorkCounts {
        totals: LayerTotals {
            serve_ns: 0,
            cache_ns: 0,
            index_ns: 0,
            fallback_ns: 0,
            update_ns: 0,
            labels_ns: 0,
            rows_ns: 0,
            cluster_ns: 0,
            rebuild_ns: 0,
            ..counts.totals
        },
        ..counts
    }
}

#[test]
fn same_seed_same_work_counts() {
    for workload in Workload::ALL {
        let first = counts(small(workload, 7));
        let second = counts(small(workload, 7));
        assert_eq!(first, second, "{}", workload.name());
        assert!(first.totals.index_lookups > 0, "{}", workload.name());
        assert!(first.totals.updates > 0, "{}", workload.name());
        if workload == Workload::Zipf {
            assert!(
                first.totals.cache_hits > 0,
                "the zipf workload uses its cache"
            );
        }
    }
}

#[test]
fn another_seed_does_other_work() {
    let a = counts(small(Workload::Uniform, 7));
    let b = counts(small(Workload::Uniform, 8));
    assert_ne!(a, b);
}
