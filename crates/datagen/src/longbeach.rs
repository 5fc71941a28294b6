//! Synthetic analog of the Long Beach TIGER interval dataset.

use cpnn_core::{ObjectId, UncertainObject};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for the Long Beach analog generator.
#[derive(Debug, Clone, Copy)]
pub struct LongBeachConfig {
    /// Number of intervals (paper: 53,144).
    pub count: usize,
    /// Domain extent in x (paper: 10,000 units).
    pub domain: f64,
    /// Number of density clusters mimicking geographic clumping.
    pub clusters: usize,
    /// Fraction of intervals drawn from the uniform background rather than
    /// a cluster.
    pub background_fraction: f64,
    /// Median interval length (lengths are log-normal). Calibrated so that
    /// the average candidate-set size ≈ 96, the statistic the paper reports.
    pub median_length: f64,
    /// Log-normal shape parameter for lengths.
    pub length_sigma: f64,
}

impl Default for LongBeachConfig {
    fn default() -> Self {
        Self {
            count: 53_144,
            domain: 10_000.0,
            clusters: 24,
            background_fraction: 0.25,
            median_length: 12.0,
            length_sigma: 0.8,
        }
    }
}

/// Standard-normal sample via Box–Muller (keeps the dependency surface to
/// `rand` alone).
fn normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Generate with an explicit configuration (e.g. a different `count` for
/// the Fig. 9 size sweep).
pub fn longbeach_with(seed: u64, cfg: LongBeachConfig) -> Vec<UncertainObject> {
    let mut rng = StdRng::seed_from_u64(seed);
    // Cluster centers and widths.
    let centers: Vec<(f64, f64)> = (0..cfg.clusters.max(1))
        .map(|_| {
            let c = rng.gen_range(0.0..cfg.domain);
            let w = rng.gen_range(0.01..0.06) * cfg.domain;
            (c, w)
        })
        .collect();
    let mut out = Vec::with_capacity(cfg.count);
    for i in 0..cfg.count {
        let center = if rng.gen::<f64>() < cfg.background_fraction {
            rng.gen_range(0.0..cfg.domain)
        } else {
            let (c, w) = centers[rng.gen_range(0..centers.len())];
            (c + w * normal(&mut rng)).rem_euclid(cfg.domain)
        };
        // Log-normal length, clamped to keep regions inside a sane range.
        let len = (cfg.median_length * (cfg.length_sigma * normal(&mut rng)).exp())
            .clamp(0.25, cfg.domain * 0.02);
        let lo = (center - 0.5 * len).clamp(0.0, cfg.domain - 0.25);
        let hi = (lo + len).min(cfg.domain);
        out.push(
            UncertainObject::uniform(ObjectId(i as u64), lo, hi)
                .expect("generated region is valid"),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpnn_core::UncertainDb;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn default_matches_paper_cardinality_and_domain() {
        let cfg = LongBeachConfig::default();
        let mut cfg_small = cfg;
        cfg_small.count = 2_000;
        let data = longbeach_with(1, cfg_small);
        assert_eq!(data.len(), 2_000);
        for o in &data {
            let (lo, hi) = o.region();
            assert!(lo >= 0.0 && hi <= cfg.domain && lo < hi);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = LongBeachConfig {
            count: 500,
            ..LongBeachConfig::default()
        };
        let a = longbeach_with(7, cfg);
        let b = longbeach_with(7, cfg);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.region(), y.region());
        }
        let c = longbeach_with(8, cfg);
        assert!(a.iter().zip(&c).any(|(x, y)| x.region() != y.region()));
    }

    /// The calibration target: average candidate-set size near the paper's
    /// reported 96 (we accept a generous band — the shape of the
    /// experiments is insensitive to ±50%).
    #[test]
    fn candidate_set_size_is_calibrated() {
        let data = longbeach_with(42, LongBeachConfig::default());
        let db = UncertainDb::build(data).unwrap();
        let mut rng = StdRng::seed_from_u64(1234);
        let mut total = 0usize;
        const QUERIES: usize = 30;
        for _ in 0..QUERIES {
            let q: f64 = rng.gen_range(0.0..10_000.0);
            let res = db.pnn(q).unwrap();
            total += res.stats.candidates;
        }
        let avg = total as f64 / QUERIES as f64;
        assert!(
            (48.0..192.0).contains(&avg),
            "average candidate set size {avg} out of calibration band"
        );
    }
}
