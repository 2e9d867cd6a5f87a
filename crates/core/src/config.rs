//! Oracle configuration: the α parameter, landmark sampling strategy and
//! construction options.

/// The α parameter of the paper: vicinities have expected size `α·√n`.
///
/// The paper sweeps α from 1/64 to 64 (Figure 2) and uses `α = 4` for the
/// headline results (Table 3), the value at which >99.9 % of random pairs
/// have intersecting vicinities across all four datasets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Alpha(f64);

impl Alpha {
    /// The paper's default, `α = 4`.
    pub const PAPER_DEFAULT: Alpha = Alpha(4.0);

    /// Create an α value. Must be finite and positive.
    pub fn new(value: f64) -> crate::Result<Self> {
        if !value.is_finite() || value <= 0.0 {
            return Err(crate::OracleError::InvalidConfig(format!(
                "alpha must be finite and positive, got {value}"
            )));
        }
        Ok(Alpha(value))
    }

    /// The numeric value.
    pub fn value(&self) -> f64 {
        self.0
    }
}

impl Default for Alpha {
    fn default() -> Self {
        Alpha::PAPER_DEFAULT
    }
}

impl std::fmt::Display for Alpha {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 >= 1.0 || self.0 == 0.0 {
            write!(f, "{}", self.0)
        } else {
            // Render 0.25 as 1/4 etc. for the Figure 2 axis labels.
            write!(f, "1/{}", (1.0 / self.0).round() as u64)
        }
    }
}

/// How the landmark set `L` is sampled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SamplingStrategy {
    /// The paper's strategy (§2.2): node `u` is a landmark with probability
    /// `2·deg(u) / (α·√n)` (clamped to 1).
    #[default]
    DegreeProportional,
    /// Uniform sampling with the same *expected* landmark count as the
    /// degree-proportional strategy; used by the ablation experiments to
    /// show why degree weighting matters.
    Uniform,
    /// Deterministically pick the highest-degree nodes, matching the
    /// expected landmark count of the paper's strategy. Another ablation
    /// point (no randomness, maximal hub coverage).
    TopDegree,
}

/// Full construction-time configuration of the oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleConfig {
    /// Vicinity size parameter.
    pub alpha: Alpha,
    /// Landmark sampling strategy.
    pub sampling: SamplingStrategy,
    /// RNG seed for landmark sampling (construction is fully deterministic
    /// for a fixed seed).
    pub seed: u64,
    /// Store shortest-path predecessors so queries can return paths, not
    /// just distances. Costs one extra `u32` per vicinity entry.
    pub store_paths: bool,
    /// Number of worker threads for index construction; `0` means "use all
    /// available parallelism".
    pub threads: usize,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            alpha: Alpha::PAPER_DEFAULT,
            sampling: SamplingStrategy::default(),
            seed: 0xC0FFEE,
            store_paths: true,
            threads: 0,
        }
    }
}

impl OracleConfig {
    /// Validate the configuration.
    pub fn validate(&self) -> crate::Result<()> {
        Alpha::new(self.alpha.value())?;
        Ok(())
    }

    /// Number of worker threads to actually use.
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            self.threads
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_validation() {
        assert!(Alpha::new(4.0).is_ok());
        assert!(Alpha::new(0.015625).is_ok());
        assert!(Alpha::new(0.0).is_err());
        assert!(Alpha::new(-1.0).is_err());
        assert!(Alpha::new(f64::NAN).is_err());
        assert!(Alpha::new(f64::INFINITY).is_err());
    }

    #[test]
    fn alpha_default_is_paper_value() {
        assert_eq!(Alpha::default().value(), 4.0);
        assert_eq!(Alpha::PAPER_DEFAULT.value(), 4.0);
    }

    #[test]
    fn alpha_display_matches_figure_axis() {
        assert_eq!(Alpha::new(4.0).unwrap().to_string(), "4");
        assert_eq!(Alpha::new(1.0).unwrap().to_string(), "1");
        assert_eq!(Alpha::new(0.25).unwrap().to_string(), "1/4");
        assert_eq!(Alpha::new(0.015625).unwrap().to_string(), "1/64");
    }

    #[test]
    fn config_defaults_and_validation() {
        let c = OracleConfig::default();
        assert!(c.validate().is_ok());
        assert_eq!(c.sampling, SamplingStrategy::DegreeProportional);
        assert!(c.store_paths);
        assert!(c.effective_threads() >= 1);
        let fixed = OracleConfig {
            threads: 3,
            ..Default::default()
        };
        assert_eq!(fixed.effective_threads(), 3);
    }
}
