//! Serving statistics: latency histogram, answer-method histogram,
//! throughput, cache and fallback rates.
//!
//! Each pooled worker state records into its own `ServerStats` (no shared
//! state on the hot path), and the service folds the pool's statistics
//! only when they are read, so aggregation never contends with query
//! execution.

use std::time::Duration;

use vicinity_core::query::{AnswerMethod, QueryStats};

/// Number of logarithmic latency buckets: bucket `i` covers
/// `[2^i, 2^(i+1))` nanoseconds, which spans 1 ns to ~2.3 minutes.
const BUCKETS: usize = 48;

/// Fixed-size log₂ latency histogram over nanoseconds.
///
/// Recording is two integer ops and an increment; percentile queries
/// interpolate linearly within the winning bucket, so the relative error is
/// bounded by the bucket width (a factor of two) and in practice far
/// smaller. This keeps per-query overhead flat no matter how many millions
/// of queries a serving run records.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum_nanos: u128,
    max_nanos: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum_nanos: 0,
            max_nanos: 0,
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one latency sample.
    #[inline]
    pub fn record(&mut self, latency: Duration) {
        let nanos = latency.as_nanos().min(u64::MAX as u128) as u64;
        let bucket = (64 - nanos.max(1).leading_zeros() as usize - 1).min(BUCKETS - 1);
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum_nanos += nanos as u128;
        self.max_nanos = self.max_nanos.max(nanos);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency, or zero when empty.
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos((self.sum_nanos / self.count as u128) as u64)
    }

    /// Largest recorded sample.
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_nanos)
    }

    /// Approximate `pct`-th percentile (0–100), interpolated within the
    /// winning bucket and clamped to the observed maximum.
    pub fn percentile(&self, pct: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let rank = (pct.clamp(0.0, 100.0) / 100.0 * self.count as f64)
            .ceil()
            .max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let lower = 1u64 << i;
                let width = lower; // bucket spans [2^i, 2^(i+1))
                let into = (rank - seen) as f64 / n as f64;
                let nanos = lower as f64 + into * width as f64;
                return Duration::from_nanos((nanos as u64).min(self.max_nanos));
            }
            seen += n;
        }
        self.max()
    }

    /// Fold `other` into `self`.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_nanos += other.sum_nanos;
        self.max_nanos = self.max_nanos.max(other.max_nanos);
    }
}

/// How a served query was ultimately answered, at the granularity the
/// method histogram tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedMethod {
    /// Answered by the oracle index; which case of Algorithm 1 is recorded.
    Index(AnswerMethod),
    /// Resolved by the per-worker fallback search after an index miss.
    Fallback,
    /// Served from the result cache.
    Cache,
    /// Left unanswered: an endpoint id is unknown to the index.
    Miss,
    /// Proven unreachable.
    Unreachable,
}

/// Indexes into [`ServerStats::method_counts`]. Order matches
/// [`ServerStats::METHOD_NAMES`].
fn method_slot(method: ServedMethod) -> usize {
    match method {
        ServedMethod::Index(AnswerMethod::SameNode) => 0,
        ServedMethod::Index(AnswerMethod::SourceLandmark) => 1,
        ServedMethod::Index(AnswerMethod::TargetLandmark) => 2,
        ServedMethod::Index(AnswerMethod::TargetInSourceVicinity) => 3,
        ServedMethod::Index(AnswerMethod::SourceInTargetVicinity) => 4,
        ServedMethod::Index(AnswerMethod::VicinityIntersection) => 5,
        ServedMethod::Fallback => 6,
        ServedMethod::Cache => 7,
        ServedMethod::Miss => 8,
        ServedMethod::Unreachable => 9,
        ServedMethod::Index(AnswerMethod::LandmarkWalk) => 10,
    }
}

/// Aggregate statistics of a serving run.
#[derive(Debug, Clone, Default)]
pub struct ServerStats {
    /// Total queries served.
    pub queries: u64,
    /// Queries answered directly by the oracle index.
    pub index_hits: u64,
    /// Queries resolved by the per-worker fallback search.
    pub fallbacks: u64,
    /// Queries served from the result cache.
    pub cache_hits: u64,
    /// Queries whose endpoints are provably disconnected.
    pub unreachable: u64,
    /// Queries left unanswered because an endpoint id is unknown to the
    /// index.
    pub misses: u64,
    /// Per-method counters; see [`ServerStats::METHOD_NAMES`].
    pub method_counts: [u64; 11],
    /// Aggregate index work (hash probes, boundary scans).
    pub index_work: QueryStats,
    /// Fallback searches run: one per unique index miss (duplicates in
    /// a block and cache hits reuse an answer without a search).
    pub fallback_searches: u64,
    /// Frontier nodes whose neighbour list the fallback search read
    /// (`BidirBfsScratch::last_operations`), summed over its searches.
    pub fallback_pops: u64,
    /// Neighbour entries the fallback search read, summed over its
    /// searches.
    pub fallback_arcs: u64,
    /// Time spent inside the fallback search, summed over its searches.
    pub fallback_time: Duration,
    /// Per-query latency distribution. Queries served individually
    /// (`serve_one`) record true per-query samples; batched serving
    /// (`serve_into` / `serve_batch`) records batch-amortised samples —
    /// the batch's wall time divided over its queries — which is the
    /// meaningful figure for a pipelined engine.
    pub latency: LatencyHistogram,
    /// Summed busy time across workers (CPU-side service time).
    pub busy_time: Duration,
    /// Wall-clock time spent inside `serve_batch` calls.
    pub wall_time: Duration,
}

impl ServerStats {
    /// Labels for [`ServerStats::method_counts`], in slot order.
    pub const METHOD_NAMES: [&'static str; 11] = [
        "same-node",
        "source-landmark",
        "target-landmark",
        "target-in-source-vicinity",
        "source-in-target-vicinity",
        "vicinity-intersection",
        "fallback-bfs",
        "cache",
        "miss",
        "unreachable",
        "landmark-walk",
    ];

    /// Record one served query.
    #[inline]
    pub fn record(&mut self, method: ServedMethod, latency: Option<Duration>) {
        self.queries += 1;
        self.method_counts[method_slot(method)] += 1;
        match method {
            ServedMethod::Index(_) => self.index_hits += 1,
            ServedMethod::Fallback => self.fallbacks += 1,
            ServedMethod::Cache => self.cache_hits += 1,
            ServedMethod::Miss => self.misses += 1,
            ServedMethod::Unreachable => self.unreachable += 1,
        }
        if let Some(latency) = latency {
            self.latency.record(latency);
        }
    }

    /// Fold a worker's statistics into this aggregate.
    pub fn merge(&mut self, other: &ServerStats) {
        self.queries += other.queries;
        self.index_hits += other.index_hits;
        self.fallbacks += other.fallbacks;
        self.cache_hits += other.cache_hits;
        self.unreachable += other.unreachable;
        self.misses += other.misses;
        for (a, b) in self
            .method_counts
            .iter_mut()
            .zip(other.method_counts.iter())
        {
            *a += b;
        }
        self.index_work.merge(&other.index_work);
        self.fallback_searches += other.fallback_searches;
        self.fallback_pops += other.fallback_pops;
        self.fallback_arcs += other.fallback_arcs;
        self.fallback_time += other.fallback_time;
        self.latency.merge(&other.latency);
        self.busy_time += other.busy_time;
        self.wall_time += other.wall_time;
    }

    /// Aggregate throughput in queries per second of wall time, or zero
    /// before any batch has run.
    pub fn throughput_qps(&self) -> f64 {
        let secs = self.wall_time.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.queries as f64 / secs
    }

    /// Fraction of queries served from the cache.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.queries == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / self.queries as f64
    }

    /// Fraction of queries the index did not answer: resolved by the
    /// fallback search, or left unanswered for an unknown endpoint id.
    pub fn fallback_rate(&self) -> f64 {
        if self.queries == 0 {
            return 0.0;
        }
        (self.fallbacks + self.misses) as f64 / self.queries as f64
    }

    /// Fallback frontier nodes and neighbour entries read per search, or
    /// zeros before any search ran.
    pub fn fallback_work_per_miss(&self) -> (f64, f64) {
        if self.fallback_searches == 0 {
            return (0.0, 0.0);
        }
        let misses = self.fallback_searches as f64;
        (
            self.fallback_pops as f64 / misses,
            self.fallback_arcs as f64 / misses,
        )
    }

    /// Mean time of one fallback search in microseconds, or zero before
    /// any search ran.
    pub fn fallback_us_per_miss(&self) -> f64 {
        if self.fallback_searches == 0 {
            return 0.0;
        }
        self.fallback_time.as_secs_f64() * 1e6 / self.fallback_searches as f64
    }

    /// Method histogram as `(label, count)` pairs, skipping empty slots.
    pub fn method_histogram(&self) -> Vec<(&'static str, u64)> {
        Self::METHOD_NAMES
            .iter()
            .zip(self.method_counts.iter())
            .filter(|(_, &n)| n > 0)
            .map(|(&name, &n)| (name, n))
            .collect()
    }

    /// Multi-line human-readable summary (used by the examples and the
    /// bench harness).
    pub fn report(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "queries          {}", self.queries);
        let _ = writeln!(out, "throughput       {:.0} q/s", self.throughput_qps());
        let _ = writeln!(
            out,
            "latency          mean {:.2?}  p50 {:.2?}  p99 {:.2?}  max {:.2?}",
            self.latency.mean(),
            self.latency.percentile(50.0),
            self.latency.percentile(99.0),
            self.latency.max()
        );
        let _ = writeln!(
            out,
            "cache            {:.2}% hit rate",
            self.cache_hit_rate() * 100.0
        );
        let _ = writeln!(
            out,
            "fallback/miss    {:.3}% of queries",
            self.fallback_rate() * 100.0
        );
        let (pops, arcs) = self.fallback_work_per_miss();
        let _ = writeln!(
            out,
            "fallback work    {pops:.2} pops, {arcs:.1} arcs scanned per miss"
        );
        let _ = writeln!(
            out,
            "fallback time    {:.2} us per search",
            self.fallback_us_per_miss()
        );
        let _ = writeln!(out, "index lookups    {}", self.index_work.lookups);
        let _ = writeln!(out, "answer methods:");
        for (name, count) in self.method_histogram() {
            let _ = writeln!(out, "  {name:<26} {count}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_bracket_samples() {
        let mut h = LatencyHistogram::new();
        for micros in 1..=1000u64 {
            h.record(Duration::from_micros(micros));
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.percentile(50.0);
        let p99 = h.percentile(99.0);
        assert!(p50 >= Duration::from_micros(256) && p50 <= Duration::from_micros(1024));
        assert!(p99 >= p50);
        assert!(p99 <= h.max());
        assert_eq!(h.max(), Duration::from_millis(1));
        let mean = h.mean();
        assert!(mean > Duration::from_micros(400) && mean < Duration::from_micros(600));
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = LatencyHistogram::new();
        assert_eq!(h.percentile(99.0), Duration::ZERO);
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(Duration::from_nanos(100));
        b.record(Duration::from_micros(100));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), Duration::from_micros(100));
    }

    #[test]
    fn stats_record_and_merge() {
        use vicinity_core::query::AnswerMethod;
        let mut w1 = ServerStats::default();
        let mut w2 = ServerStats::default();
        w1.record(
            ServedMethod::Index(AnswerMethod::VicinityIntersection),
            Some(Duration::from_micros(3)),
        );
        w1.record(ServedMethod::Cache, Some(Duration::from_nanos(200)));
        w2.record(ServedMethod::Fallback, Some(Duration::from_micros(80)));
        w2.fallback_searches = 1;
        w2.fallback_pops = 3;
        w2.fallback_arcs = 40;
        w2.fallback_time = Duration::from_micros(12);
        w2.record(ServedMethod::Unreachable, None);
        w2.record(ServedMethod::Miss, None);

        let mut total = ServerStats::default();
        total.merge(&w1);
        total.merge(&w2);
        assert_eq!(total.queries, 5);
        assert_eq!(total.index_hits, 1);
        assert_eq!(total.cache_hits, 1);
        assert_eq!(total.fallbacks, 1);
        assert_eq!(total.unreachable, 1);
        assert_eq!(total.misses, 1);
        assert_eq!(total.latency.count(), 3);
        assert!((total.cache_hit_rate() - 0.2).abs() < 1e-12);
        assert!((total.fallback_rate() - 0.4).abs() < 1e-12);
        assert_eq!(total.fallback_work_per_miss(), (3.0, 40.0));
        assert_eq!(ServerStats::default().fallback_work_per_miss(), (0.0, 0.0));
        assert!((total.fallback_us_per_miss() - 12.0).abs() < 1e-9);
        assert_eq!(ServerStats::default().fallback_us_per_miss(), 0.0);
        let histogram = total.method_histogram();
        assert_eq!(histogram.len(), 5);
        assert!(histogram.contains(&("vicinity-intersection", 1)));
        assert!(histogram.contains(&("fallback-bfs", 1)));

        let mut walk = ServerStats::default();
        walk.record(ServedMethod::Index(AnswerMethod::LandmarkWalk), None);
        assert_eq!(walk.index_hits, 1);
        assert_eq!(walk.method_histogram(), vec![("landmark-walk", 1)]);
    }

    #[test]
    fn throughput_uses_wall_time() {
        let s = ServerStats {
            queries: 50_000,
            wall_time: Duration::from_millis(250),
            ..Default::default()
        };
        assert!((s.throughput_qps() - 200_000.0).abs() < 1e-6);
        assert_eq!(ServerStats::default().throughput_qps(), 0.0);
    }

    #[test]
    fn report_mentions_key_figures() {
        let mut s = ServerStats::default();
        s.record(ServedMethod::Cache, Some(Duration::from_micros(1)));
        s.wall_time = Duration::from_millis(1);
        let report = s.report();
        assert!(report.contains("throughput"));
        assert!(report.contains("cache"));
        assert!(report.contains("p99"));
        assert!(report.contains("arcs scanned per miss"));
        assert!(report.contains("us per search"));
    }
}
