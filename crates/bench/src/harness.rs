//! Query-set runner: executes a set of queries under one strategy and
//! aggregates the per-phase statistics the figures plot. [`run_queries`]
//! evaluates them one after another over one [`QueryScratch`], so
//! per-query timings are the paper's undisturbed measurements.

use std::time::Duration;

use cpnn_core::framework::StageReport;
use cpnn_core::pipeline::cpnn_with;
use cpnn_core::{QueryScratch, QuerySpec, Strategy, UncertainDb};

/// Aggregated statistics over a query set (each paper graph point "is an
/// average of the results for 100 queries").
#[derive(Debug, Clone, Default)]
pub struct RunSummary {
    /// Number of queries executed.
    pub queries: usize,
    /// Mean end-to-end time per query.
    pub avg_total: Duration,
    /// Mean filtering time.
    pub avg_filter: Duration,
    /// Mean initialization time (distance pdfs + subregion table).
    pub avg_init: Duration,
    /// Mean verification time.
    pub avg_verify: Duration,
    /// Mean refinement / exact-evaluation time.
    pub avg_refine: Duration,
    /// Mean candidate-set size.
    pub avg_candidates: f64,
    /// Mean subregion count `M`.
    pub avg_subregions: f64,
    /// Mean subregion integrations.
    pub avg_integrations: f64,
    /// Fraction of queries fully resolved by verification alone.
    pub resolved_fraction: f64,
    /// Mean fraction of candidates still unknown after each verifier stage,
    /// one entry per position in the chain with the stage's name (empty
    /// unless the strategy verifies). Names can repeat: the k-NN chain runs
    /// `"SR-k"` twice.
    pub unknown_fraction_after: Vec<(&'static str, f64)>,
}

/// Add one query's unknown fraction after each stage to `acc`, slot by
/// position in the chain — not by name, which would blend the two `"SR-k"`
/// stages of a k-NN query into one number. A stage the query never reached
/// adds nothing (it left no unknowns).
fn add_stage_fractions(
    acc: &mut Vec<(&'static str, f64)>,
    stages: &[StageReport],
    candidates: usize,
) {
    for (pos, st) in stages.iter().enumerate() {
        if acc.len() <= pos {
            acc.push((st.name, 0.0));
        }
        if candidates > 0 {
            acc[pos].1 += st.unknown_after as f64 / candidates as f64;
        }
    }
}

/// Position in the verifier chain of the stage that decided the query's
/// last object; `None` when refinement had to (or nothing verified).
pub fn deciding_stage(stages: &[StageReport]) -> Option<usize> {
    stages.iter().position(|st| st.unknown_after == 0)
}

/// Run every query in `queries` with the given parameters and aggregate
/// (single worker; per-query timings are undisturbed by contention).
pub fn run_queries(
    db: &UncertainDb,
    queries: &[f64],
    threshold: f64,
    tolerance: f64,
    strategy: Strategy,
) -> RunSummary {
    let spec = QuerySpec::nn(threshold, tolerance, strategy);
    let cfg = db.config().pipeline();
    let mut scratch = QueryScratch::new();

    let mut sum = RunSummary {
        queries: queries.len(),
        ..Default::default()
    };
    let mut total = Duration::ZERO;
    let mut filter = Duration::ZERO;
    let mut init = Duration::ZERO;
    let mut verify = Duration::ZERO;
    let mut refine = Duration::ZERO;
    let mut candidates = 0usize;
    let mut subregions = 0usize;
    let mut integrations = 0usize;
    let mut resolved = 0usize;
    let mut stage_acc: Vec<(&'static str, f64)> = Vec::new();

    for q in queries {
        let res = cpnn_with(db, q, &spec, &cfg, &mut scratch).expect("query evaluation succeeds");
        let s = &res.stats;
        total += s.total_time();
        filter += s.filter_time;
        init += s.init_time;
        verify += s.verify_time;
        refine += s.refine_time;
        candidates += s.candidates;
        subregions += s.subregions;
        integrations += s.integrations;
        if s.resolved_by_verification {
            resolved += 1;
        }
        add_stage_fractions(&mut stage_acc, &s.stages, s.candidates);
    }

    let n = queries.len().max(1) as u32;
    sum.avg_total = total / n;
    sum.avg_filter = filter / n;
    sum.avg_init = init / n;
    sum.avg_verify = verify / n;
    sum.avg_refine = refine / n;
    sum.avg_candidates = candidates as f64 / n as f64;
    sum.avg_subregions = subregions as f64 / n as f64;
    sum.avg_integrations = integrations as f64 / n as f64;
    sum.resolved_fraction = resolved as f64 / n as f64;
    sum.unknown_fraction_after = stage_acc
        .into_iter()
        // Average over all queries: stages that never ran left no unknowns
        // to report, so normalize by the query count, not the stage count.
        .map(|(name, acc)| (name, acc / n as f64))
        .collect();
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpnn_datagen::{longbeach::longbeach_with, query_points, LongBeachConfig};

    fn db() -> UncertainDb {
        let cfg = LongBeachConfig {
            count: 2_000,
            ..LongBeachConfig::default()
        };
        UncertainDb::build(longbeach_with(3, cfg)).unwrap()
    }

    #[test]
    fn summary_aggregates_phases() {
        let db = db();
        let queries = query_points(1, 5);
        let s = run_queries(&db, &queries, 0.3, 0.01, Strategy::Verified);
        assert_eq!(s.queries, 5);
        assert!(s.avg_candidates > 0.0);
        assert!(s.avg_total >= s.avg_refine);
        assert!(!s.unknown_fraction_after.is_empty());
        assert!(s.unknown_fraction_after.iter().all(|(_, f)| *f <= 1.0));
    }

    #[test]
    fn stages_sharing_a_name_are_kept_apart_by_position() {
        let stage = |name, unknown_after| StageReport {
            name,
            unknown_after,
            duration: Duration::ZERO,
        };
        let mut acc = Vec::new();
        // One k-NN query the coarse SR-k stage decides, one that needs the
        // fine stage too, 10 candidates each.
        let decided_coarse = [stage("RS", 8), stage("SR-k", 0)];
        let decided_fine = [stage("RS", 10), stage("SR-k", 4), stage("SR-k", 0)];
        add_stage_fractions(&mut acc, &decided_coarse, 10);
        add_stage_fractions(&mut acc, &decided_fine, 10);
        assert_eq!(acc.len(), 3);
        assert_eq!(
            acc.iter().map(|a| a.0).collect::<Vec<_>>(),
            ["RS", "SR-k", "SR-k"]
        );
        assert!((acc[0].1 - 1.8).abs() < 1e-12);
        assert!((acc[1].1 - 0.4).abs() < 1e-12, "coarse only: {}", acc[1].1);
        assert_eq!(acc[2].1, 0.0);
        assert_eq!(deciding_stage(&decided_coarse), Some(1));
        assert_eq!(deciding_stage(&decided_fine), Some(2));
        assert_eq!(deciding_stage(&decided_fine[..2]), None);
    }

    #[test]
    fn basic_strategy_has_no_stage_reports() {
        let db = db();
        let queries = query_points(2, 3);
        let s = run_queries(&db, &queries, 0.3, 0.01, Strategy::Basic);
        assert!(s.unknown_fraction_after.is_empty());
        assert!(s.avg_integrations > 0.0);
        assert_eq!(s.resolved_fraction, 0.0);
    }
}
