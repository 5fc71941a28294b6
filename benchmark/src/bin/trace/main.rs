//! The traced run: replays a workload's seeded inputs layer by layer and
//! prints every per-layer metric. It first runs the workload untraced
//! (the same code the gated `e2e` binary runs, on the same inputs), then
//! replays those inputs through the decomposed library calls with
//! in-memory spans around each one; the replay must reproduce the
//! untraced answers. Only this binary calls library internals.
//!
//! The traced window is a fixed quarter of the gated one: per-layer
//! numbers are per-query means and exact counts, which need fewer
//! queries than a p99 does.

mod direct;
mod durable;
mod routed;
mod serving;
mod spans;

use std::collections::BTreeMap;

use cpnn_benchmark::inputs::{self, Workload};
use cpnn_benchmark::report::{self, parse_args, Reported, PER_LAYER, USAGE};
use cpnn_benchmark::workloads;
use cpnn_core::{EngineConfig, PipelineConfig, UncertainDb2d};
use cpnn_rtree::{Params, Rect};

const TRACE_SHARE: f64 = 0.25;

/// Per-layer metric values by name; a workload leaves the layers it
/// does not exercise at 0.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            self.try_set(name, value),
            "{name} is not a per-layer metric"
        );
    }

    /// Set `name` if it is a per-layer metric; say whether it was.
    pub fn try_set(&mut self, name: &str, value: f64) -> bool {
        let known = PER_LAYER.iter().find(|m| m.name == name);
        if let Some(m) = known {
            self.0.insert(m.name, value);
        }
        known.is_some()
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) if args.trace => args,
        Ok(_) => fail("--trace 0 is the e2e binary's job (benchmark/run.sh dispatches)"),
        Err(e) => fail(&e),
    };
    report::print_header("trace", &args);
    let (workload, seed) = (args.workload, args.seed);
    let seconds = args.seconds * TRACE_SHARE;
    let n = workload.queries(seconds);

    let untraced = workloads::run(workload, seed, seconds);
    let mut metrics = Metrics::default();
    let tracer = match workload {
        Workload::Nn1dVerify | Workload::Nn1dRefine => {
            let db = workloads::build_1d();
            let points = inputs::points_1d(seed, n);
            let rects = db
                .objects()
                .iter()
                .map(|o| Rect::interval(o.region().0, o.region().1))
                .collect();
            let points_nd: Vec<[f64; 1]> = points.iter().map(|&q| [q]).collect();
            direct::rtree_counts(rects, db.index_params(), &points_nd, 1, &mut metrics);
            direct::budget(
                workload,
                &db,
                &points,
                &EngineConfig::default().pipeline(),
                &direct::ONE_D,
                &untraced,
                &mut metrics,
            )
        }
        Workload::Knn2dK4 => {
            let objects = inputs::dataset_2d();
            let rects = objects.iter().map(|o| o.bounding_box()).collect();
            let points = inputs::points_2d(seed, n);
            let k = workload.spec().k;
            direct::rtree_counts(rects, Params::default(), &points, k, &mut metrics);
            let db = UncertainDb2d::build(objects).expect("generated 2-D data is valid");
            direct::budget(
                workload,
                &db,
                &points,
                &PipelineConfig::default(),
                &direct::TWO_D,
                &untraced,
                &mut metrics,
            )
        }
        Workload::ServeOpen => serving::budget(seed, seconds, &mut metrics),
        Workload::MixedDurable => durable::budget(seed, seconds, &untraced, &mut metrics),
        Workload::Routed2Shard => routed::budget(seed, seconds, &untraced, &mut metrics),
    };
    // The workload's own user-visible diagnostics, measured untraced.
    for (name, value) in &untraced.diagnostics {
        metrics.try_set(name, *value);
    }

    let spans_path = format!("benchmark/.run/{}.spans.tsv", workload.name());
    match tracer.write_tsv(std::path::Path::new(&spans_path)) {
        Ok(()) => println!("# {} spans written to {spans_path}", tracer.spans().len()),
        Err(e) => println!("# spans not written to {spans_path}: {e}"),
    }
    println!(
        "# {:<34} {:>14} {:<10} moves",
        "per-layer metric", "value", "unit"
    );
    let reported: Vec<Reported> = PER_LAYER
        .iter()
        .map(|m| {
            let value = metrics.0.get(m.name).copied().unwrap_or(0.0);
            if metrics.0.contains_key(m.name) {
                println!(
                    "  {:<34} {:>14.3} {:<10} {}",
                    m.name, value, m.unit, m.moves
                );
            }
            (m.name, m.unit, value)
        })
        .collect();
    println!(
        "{}",
        report::result_line(untraced.attempted, untraced.failed, &reported)
    );
}

fn fail(message: &str) -> ! {
    eprintln!("trace: {message}\nusage: trace {USAGE}");
    std::process::exit(2)
}
