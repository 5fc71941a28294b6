//! 2-D k-NN experiment — beyond the paper: the C-PkNN extension over the
//! 2-D disk/rectangle engine (`pipeline::cpnn` with `k > 1` over
//! [`UncertainDb2d`]), the ROADMAP's previously bench-less workload.
//!
//! Sweeps the neighbor count `k` over a fixed synthetic 2-D dataset and a
//! fixed query workload, measuring throughput and the work profile
//! (candidates, subregions, verification-resolution rate). The k-ary
//! verifier chain (RS → SR-k on the `⌈√L⌉`-column partition → SR-k on the
//! table) does the heavy lifting; the resolution-rate column is the 2-D
//! analogue of Fig. 13, and the per-stage columns — the share of queries
//! whose last object each stage decided, with the Poisson-binomial tails a
//! query costs — are the k-NN analogue of Fig. 12. The last column counts
//! the closed-form distance-cdf knots a query evaluates: each candidate's
//! knots are computed on demand, and never past the first grid edge beyond
//! the horizon.
//!
//! Stage columns are positional: `by stage i %` is the share of queries
//! whose last object the i-th verifier of the chain decided, and the
//! `chain` column names those verifiers as the pipeline runs them
//! (RS → U-SR → L-SR at k = 1, RS → SR-k → SR-k above), whether or not a
//! query reached the last one.

use cpnn_core::framework::{default_verifiers, knn_verifiers};
use cpnn_core::{BatchExecutor, PipelineConfig, QuerySpec, Strategy, UncertainDb2d};
use cpnn_datagen::{objects_2d, query_points_2d, Synthetic2dConfig};

use crate::experiments::{DEFAULT_DELTA, DEFAULT_P};
use crate::harness::deciding_stage;
use crate::report::{key, measured, work, Table};

/// Run the experiment. Columns: k, wall ms, throughput, average
/// candidates/subregions, queries resolved by verification alone, the
/// verifier chain, the share each chain position decided, SR-k tails and
/// cdf knots evaluated per query.
pub fn run(quick: bool) -> Table {
    let cfg2d = Synthetic2dConfig {
        count: if quick { 2_000 } else { 10_000 },
        ..Synthetic2dConfig::default()
    };
    let n_queries = if quick { 200 } else { 1_000 };
    let db = UncertainDb2d::build(objects_2d(0x2D5EED, cfg2d)).expect("valid generated data");
    let queries = query_points_2d(0x2D0BEE, n_queries, cfg2d.domain);
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut table = Table::new(
        "Knn2d",
        &format!(
            "2-D C-PkNN over {} disk/rectangle objects: k sweep on a \
             {n_queries}-query VR workload",
            db.len()
        ),
        &[
            key("k"),
            measured("wall (ms)"),
            measured("queries/s"),
            work("avg cands"),
            work("avg subregions"),
            work("resolved by verify %"),
            work("chain"),
            work("by stage 1 %"),
            work("by stage 2 %"),
            work("by stage 3 %"),
            work("tails/query"),
            work("cdf evals/query"),
        ],
    );
    table.note(format!(
        "P = {DEFAULT_P}, Δ = {DEFAULT_DELTA}, strategy VR, domain {}², {} thread(s)",
        cfg2d.domain, threads
    ));
    for k in [1usize, 2, 4, 8] {
        let spec = QuerySpec::knn(k, DEFAULT_P, DEFAULT_DELTA, Strategy::Verified);
        let out = BatchExecutor::new(threads).run_uniform(
            &db,
            &queries,
            &spec,
            &PipelineConfig::default(),
        );
        let s = &out.summary;
        assert_eq!(s.errors, 0, "benchmark queries are valid");
        let stats = || {
            out.results
                .iter()
                .filter_map(|r| r.as_ref().ok())
                .map(|r| &r.stats)
        };
        let subregions: usize = stats().map(|st| st.subregions).sum();
        let tails: usize = stats().map(|st| st.pb_tails).sum();
        let cdf_evals: usize = stats().map(|st| st.cdf_evals).sum();
        // The chain the pipeline runs at this `k`; a query stops reporting
        // at the stage that decided it, so its report is a prefix.
        let verifiers = if k == 1 {
            default_verifiers()
        } else {
            knn_verifiers(k)
        };
        let chain: Vec<&str> = verifiers.iter().map(|v| v.name()).collect();
        for st in stats() {
            let ran: Vec<&str> = st.stages.iter().map(|stage| stage.name).collect();
            assert!(
                chain.starts_with(&ran),
                "k = {k}: {ran:?} runs off {chain:?}"
            );
        }
        let per_query = |count: usize| count as f64 / s.queries.max(1) as f64;
        let decided_by = |pos: usize| {
            let count = stats()
                .filter(|st| deciding_stage(&st.stages) == Some(pos))
                .count();
            format!("{:.1}", 100.0 * per_query(count))
        };
        table.push_row(vec![
            k.to_string(),
            format!("{:.1}", s.wall_time.as_secs_f64() * 1e3),
            format!("{:.0}", s.throughput()),
            format!("{:.1}", per_query(s.candidates)),
            format!("{:.1}", per_query(subregions)),
            format!("{:.1}", 100.0 * per_query(s.resolved_by_verification)),
            chain.join(" → "),
            decided_by(0),
            decided_by(1),
            decided_by(2),
            format!("{:.1}", per_query(tails)),
            format!("{:.1}", per_query(cdf_evals)),
        ]);
    }
    table
}
