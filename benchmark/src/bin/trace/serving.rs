//! `serve_open`'s layer: what the serving front end adds to a query —
//! the hand-off to and from the worker at idle, and what happens past
//! the knee (an overload step the gated run never takes).

use std::time::Instant;

use cpnn_benchmark::inputs::{self, Workload, HIGH_RATE, OVERLOAD_RATE};
use cpnn_benchmark::workloads::{self, Outcome};
use cpnn_core::{EngineConfig, QueryServer};

use crate::spans::Tracer;
use crate::Metrics;

pub fn diagnostic(out: &Outcome, name: &str) -> f64 {
    out.diagnostics
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |&(_, v)| v)
}

pub fn budget(seed: u64, seconds: f64, metrics: &mut Metrics) -> Tracer {
    // The rest of the rate ladder (the untraced pass ran the gated rate):
    // twice that, and past the knee — ~2x capacity offered, so the
    // unbounded queue grows for the whole step and goodput is what
    // completes by its end.
    let ladder =
        workloads::serve_open(seed, seconds, &[HIGH_RATE, OVERLOAD_RATE], &["r2k", "r12k"]);
    for name in ["open_p50_us", "open_p99_us", "backlog_peak"] {
        let name = format!("server.{name}.r2k");
        metrics.set(&name, diagnostic(&ladder, &name));
    }
    metrics.set(
        "server.overload_goodput_qps.r12k",
        diagnostic(&ladder, "server.goodput_qps.r12k"),
    );
    metrics.set(
        "server.overload_backlog_peak.r12k",
        diagnostic(&ladder, "server.backlog_peak.r12k"),
    );

    // Hand-off at idle: one request in flight at a time, so the round
    // trip minus the service time the worker itself measured is queue
    // hand-off and wake-up, with no queueing.
    let spec = Workload::ServeOpen.spec();
    let server = QueryServer::start(workloads::build_1d(), 1, EngineConfig::default().pipeline());
    let points = inputs::points_1d(seed, Workload::ServeOpen.queries(seconds) / 4);
    let pass = |tracer: &mut Tracer| {
        let start = Instant::now();
        for (i, &q) in points.iter().enumerate() {
            let span = tracer.enter("server.roundtrip", i as u32);
            let served = server.submit(q, spec).wait();
            tracer.exit(span);
            let stats = served.result.expect("served query succeeds").stats;
            tracer.child(
                span,
                "server.service",
                0,
                stats.total_time().as_nanos() as u64,
            );
        }
        start.elapsed()
    };
    // Traced first: whatever a first pass pays for being first is then
    // charged to tracing, never credited to it.
    let mut tracer = Tracer::new(true);
    let traced_wall = pass(&mut tracer);
    let untraced_wall = pass(&mut Tracer::new(false));

    let n = points.len() as f64;
    metrics.set(
        "server.handoff_us",
        tracer.totals()["server.roundtrip"].self_us / n,
    );
    metrics.set(
        "trace.untraced_e2e_us",
        untraced_wall.as_secs_f64() * 1e6 / n,
    );
    metrics.set(
        "trace.overhead_frac",
        traced_wall.as_secs_f64() / untraced_wall.as_secs_f64() - 1.0,
    );
    tracer
}
