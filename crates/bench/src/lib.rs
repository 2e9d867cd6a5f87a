//! # vicinity-bench
//!
//! Experiment harness reproducing every table and figure of the paper's
//! evaluation. One binary per artifact:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `table2_datasets` | Table 2 — dataset sizes |
//! | `figure2_intersections` | Figure 2 (left) — intersection fraction vs α |
//! | `figure2_boundary` | Figure 2 (center) — boundary-size CDF at α = 4 |
//! | `figure2_radius` | Figure 2 (right) — vicinity radius (and build time) vs α |
//! | `table3_query_time` | Table 3 — look-ups, query times and speed-ups, plus §4's ALT and landmark estimation |
//! | `memory_comparison` | §3.2 — memory vs all-pairs storage |
//! | `ablation_strawmen` | §2.1 — fixed-size / fixed-radius strawmen |
//! | `run_all` | everything above, in sequence |
//!
//! All binaries honour the environment variables documented on
//! [`ExperimentEnv`]: `VICINITY_SCALE`, `VICINITY_ALPHAS`,
//! `VICINITY_SAMPLE_NODES`, `VICINITY_RUNS`, `VICINITY_DATASETS`,
//! `VICINITY_DATA_DIR` and `VICINITY_CACHE_DIR`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bench_json;

use std::time::{Duration, Instant};

use vicinity_core::config::Alpha;
use vicinity_datasets::registry::{Dataset, Scale, StandIn};

/// Environment-driven experiment configuration shared by every binary.
#[derive(Debug, Clone)]
pub struct ExperimentEnv {
    /// Dataset scale (`VICINITY_SCALE` = tiny | small | default | large).
    pub scale: Scale,
    /// α values for sweep experiments (`VICINITY_ALPHAS`, comma separated).
    pub alphas: Vec<Alpha>,
    /// Nodes sampled per workload run (`VICINITY_SAMPLE_NODES`).
    pub sample_nodes: usize,
    /// Number of workload runs (`VICINITY_RUNS`).
    pub runs: usize,
    /// Datasets to include (`VICINITY_DATASETS`, comma separated names).
    pub datasets: Vec<StandIn>,
    /// Cap on the number of pairs measured against the per-query-search
    /// baselines (`VICINITY_BASELINE_PAIRS`); BFS over the larger stand-ins
    /// is slow, so Table 3 uses a subset of the workload for them.
    pub baseline_pairs: usize,
}

impl Default for ExperimentEnv {
    fn default() -> Self {
        ExperimentEnv {
            scale: Scale::Default,
            alphas: default_sweep(),
            sample_nodes: 200,
            runs: 3,
            datasets: StandIn::all().to_vec(),
            baseline_pairs: 300,
        }
    }
}

/// The default α sweep used by the Figure 2 binaries: a subset of the
/// paper's 1/64…64 range that keeps total preprocessing time reasonable.
pub fn default_sweep() -> Vec<Alpha> {
    [0.25, 1.0, 4.0, 16.0, 64.0]
        .iter()
        .map(|&a| Alpha::new(a).expect("static alphas are valid"))
        .collect()
}

impl ExperimentEnv {
    /// Read the configuration from the environment.
    pub fn from_env() -> Self {
        Self::from_lookup(|name| std::env::var(name).ok())
    }

    /// Build the configuration from a variable lookup (`VICINITY_*` name →
    /// value); unset or unparsable variables keep their defaults.
    fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Self {
        let mut env = ExperimentEnv {
            scale: Scale::from_name(&lookup("VICINITY_SCALE").unwrap_or_default()),
            ..Default::default()
        };
        if let Some(alphas) = lookup("VICINITY_ALPHAS") {
            let parsed: Vec<Alpha> = alphas
                .split(',')
                .filter_map(|s| s.trim().parse::<f64>().ok())
                .filter_map(|v| Alpha::new(v).ok())
                .collect();
            if !parsed.is_empty() {
                env.alphas = parsed;
            }
        }
        if let Some(v) = lookup("VICINITY_SAMPLE_NODES") {
            if let Ok(n) = v.trim().parse() {
                env.sample_nodes = n;
            }
        }
        if let Some(v) = lookup("VICINITY_RUNS") {
            if let Ok(n) = v.trim().parse() {
                env.runs = n;
            }
        }
        if let Some(v) = lookup("VICINITY_BASELINE_PAIRS") {
            if let Ok(n) = v.trim().parse() {
                env.baseline_pairs = n;
            }
        }
        if let Some(v) = lookup("VICINITY_DATASETS") {
            let selected: Vec<StandIn> = v
                .split(',')
                .filter_map(|name| {
                    let name = name.trim().to_lowercase();
                    StandIn::all()
                        .into_iter()
                        .find(|s| s.name().to_lowercase() == name)
                })
                .collect();
            if !selected.is_empty() {
                env.datasets = selected;
            }
        }
        env
    }

    /// Load (or generate) the selected datasets at the configured scale.
    pub fn datasets(&self) -> Vec<Dataset> {
        self.datasets
            .iter()
            .map(|&s| Dataset::stand_in(s, self.scale))
            .collect()
    }
}

/// An α value as the paper's Figure 2 axis labels it (`4`, `1/4`), as a
/// string so table columns can pad it.
pub fn format_alpha(alpha: f64) -> String {
    Alpha::new(alpha).map_or_else(|_| alpha.to_string(), |a| a.to_string())
}

/// Time a closure, returning its result and the elapsed wall-clock time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed())
}

/// Mean of a slice of durations, in milliseconds.
pub fn mean_ms(samples: &[Duration]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().map(|d| d.as_secs_f64() * 1e3).sum::<f64>() / samples.len() as f64
}

/// The given percentile (0–100) of a slice of durations, in milliseconds.
pub fn percentile_ms(samples: &[Duration], pct: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut ms: Vec<f64> = samples.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    ms.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    let idx = ((ms.len() as f64 - 1.0) * (pct / 100.0)).round() as usize;
    ms[idx.min(ms.len() - 1)]
}

/// Print a standard experiment header so outputs are self-describing.
pub fn print_header(title: &str, env: &ExperimentEnv) {
    println!("=== {title} ===");
    println!(
        "scale={} datasets=[{}] sample_nodes={} runs={}",
        env.scale.name(),
        env.datasets
            .iter()
            .map(|d| d.name())
            .collect::<Vec<_>>()
            .join(", "),
        env.sample_nodes,
        env.runs
    );
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_env_is_sane() {
        let env = ExperimentEnv::default();
        assert_eq!(env.datasets.len(), 4);
        assert!(!env.alphas.is_empty());
        assert!(env.sample_nodes > 0);
        assert!(env.runs > 0);
        assert!(env.baseline_pairs > 0);
    }

    #[test]
    fn sweep_is_increasing_and_within_paper_range() {
        let sweep = default_sweep();
        assert!(sweep.windows(2).all(|w| w[0].value() < w[1].value()));
        assert!(sweep.first().unwrap().value() >= 1.0 / 64.0);
        assert!(sweep.last().unwrap().value() <= 64.0);
    }

    #[test]
    fn env_parsing_overrides() {
        let vars: std::collections::HashMap<&str, &str> = [
            ("VICINITY_SCALE", "tiny"),
            ("VICINITY_ALPHAS", "2, 8"),
            ("VICINITY_SAMPLE_NODES", "55"),
            ("VICINITY_RUNS", "7"),
            ("VICINITY_BASELINE_PAIRS", "123"),
            ("VICINITY_DATASETS", "dblp, orkut"),
        ]
        .into_iter()
        .collect();
        let env = ExperimentEnv::from_lookup(|name| vars.get(name).map(|v| v.to_string()));
        assert_eq!(env.scale, Scale::Tiny);
        assert_eq!(
            env.alphas.iter().map(|a| a.value()).collect::<Vec<_>>(),
            vec![2.0, 8.0]
        );
        assert_eq!(env.sample_nodes, 55);
        assert_eq!(env.runs, 7);
        assert_eq!(env.baseline_pairs, 123);
        assert_eq!(env.datasets, vec![StandIn::Dblp, StandIn::Orkut]);
        // Nothing set: the defaults.
        let unset = ExperimentEnv::from_lookup(|_| None);
        assert_eq!(unset.scale, Scale::Default);
        assert_eq!(unset.runs, ExperimentEnv::default().runs);
    }

    #[test]
    fn timing_helpers() {
        let (value, elapsed) = timed(|| 41 + 1);
        assert_eq!(value, 42);
        assert!(elapsed.as_secs() < 5);
        let samples = vec![
            Duration::from_millis(1),
            Duration::from_millis(3),
            Duration::from_millis(2),
        ];
        assert!((mean_ms(&samples) - 2.0).abs() < 1e-9);
        assert!((percentile_ms(&samples, 100.0) - 3.0).abs() < 1e-9);
        assert!((percentile_ms(&samples, 0.0) - 1.0).abs() < 1e-9);
        assert_eq!(mean_ms(&[]), 0.0);
        assert_eq!(percentile_ms(&[], 50.0), 0.0);
    }
}
