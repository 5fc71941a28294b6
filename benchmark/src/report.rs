//! The benchmark's metric tables, command line, and output format.
//!
//! [`END_TO_END`], [`PER_LAYER`] and the workload list are the single
//! source of `BENCHMARK.json` ([`manifest_json`]; `tests/manifest.rs`
//! fails when the file drifts from them).

use crate::inputs::{Workload, RUN_SECONDS};
use crate::stats::{
    median, percentile, sliced_percentile, sliced_throughput, sorted, supported_tail,
};
use crate::workloads::Outcome;

/// A user-visible metric, reported by every workload and gated: a later
/// change may not worsen its median by more than `bound` (a share of the
/// parent's median).
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "throughput_qps",
        unit: "queries/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p99_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.20,
    },
];

/// Every timing is the median over this many equal-count slices of the
/// window of the slice's own statistic, so a host stall (this
/// sandbox has 10–150 ms ones) or a slow spell of the host (it has those
/// too, seconds long) spoils some slices and not the run's number.
pub const SLICES: usize = 10;

/// A single layer's number from the traced run. No bound; `moves` names
/// the end-to-end metric and workload it is expected to move.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const VERIFY: &str = "throughput_qps@nn1d_verify";
const REFINE: &str = "throughput_qps, latency_p99_us@nn1d_refine";
const KNN2D: &str = "throughput_qps, latency_p50_us@knn2d_k4";
const OPEN: &str = "latency_p50_us@serve_open";
const MIXED: &str = "throughput_qps, latency_p50_us@mixed_durable";
const ROUTED: &str = "throughput_qps, latency_p50_us@routed_2shard";
const NONE: &str = "none gated (diagnostic)";

#[rustfmt::skip]
pub const PER_LAYER: [PerLayer; 66] = [
    layer("rtree.prune_us", "us", "lower", VERIFY),
    layer("rtree.nodes_visited", "count", "lower", VERIFY),
    layer("rtree.records_inspected", "count", "lower", VERIFY),
    layer("distance.build_us", "us", "lower", VERIFY),
    layer("engine2d.distance_build_us", "us", "lower", KNN2D),
    layer("engine2d.bins_per_object", "count", "lower", KNN2D),
    layer("candidate.assemble_us", "us", "lower", VERIFY),
    layer("candidate.count", "count", "lower", VERIFY),
    layer("subregion.build_us", "us", "lower", VERIFY),
    layer("subregion.count", "count", "lower", VERIFY),
    layer("verifiers.total_us", "us", "lower", VERIFY),
    layer("verifiers.rs_us", "us", "lower", VERIFY),
    layer("verifiers.lsr_us", "us", "lower", VERIFY),
    layer("verifiers.usr_us", "us", "lower", VERIFY),
    layer("verifiers.srk_us", "us", "lower", KNN2D),
    layer("verifiers.unknown_after_rs", "count", "lower", REFINE),
    layer("verifiers.unknown_after_lsr", "count", "lower", REFINE),
    layer("verifiers.unknown_after_usr", "count", "lower", REFINE),
    layer("verifiers.resolved_frac", "ratio", "higher", REFINE),
    layer("refine.total_us", "us", "lower", REFINE),
    layer("refine.qual_us", "us", "lower", REFINE),
    layer("refine.bookkeeping_us", "us", "lower", REFINE),
    layer("refine.integrations", "count", "lower", REFINE),
    layer("refine.objects", "count", "lower", REFINE),
    layer("pipeline.e2e_us", "us", "lower", "latency_p50_us@nn1d_verify, nn1d_refine, knn2d_k4"),
    layer("pipeline.residual_frac", "ratio", "lower", NONE),
    layer("batch.overhead_us", "us", "lower", NONE),
    layer("batch.t2_speedup", "ratio", "higher", NONE),
    layer("server.handoff_us", "us", "lower", OPEN),
    layer("server.open_p50_us.r1k", "us", "lower", OPEN),
    layer("server.open_p50_us.r2k", "us", "lower", OPEN),
    layer("server.open_p99_us.r1k", "us", "lower", "latency_p99_us@serve_open"),
    layer("server.open_p99_us.r2k", "us", "lower", "latency_p99_us@serve_open"),
    layer("server.backlog_peak.r1k", "count", "lower", OPEN),
    layer("server.backlog_peak.r2k", "count", "lower", OPEN),
    layer("server.gen_late_max_us", "us", "lower", NONE),
    layer("server.overload_goodput_qps.r12k", "queries/s", "higher", NONE),
    layer("server.overload_backlog_peak.r12k", "count", "lower", NONE),
    layer("cache.hit_rate", "ratio", "higher", MIXED),
    layer("cache.shared_hit_rate", "ratio", "higher", MIXED),
    layer("cache.outcome_hit_rate", "ratio", "higher", MIXED),
    layer("cache.region_evictions_per_burst", "count", "lower", MIXED),
    layer("cache.hit_us", "us", "lower", MIXED),
    layer("cache.miss_us", "us", "lower", MIXED),
    layer("store.apply_us_per_op", "us", "lower", NONE),
    layer("storage.update_burst_p50_us", "us", "lower", NONE),
    layer("storage.journal_us_per_burst", "us", "lower", NONE),
    layer("storage.flush_p99_us", "us", "lower", NONE),
    layer("storage.wal_bytes_per_update", "bytes", "lower", NONE),
    layer("storage.wal_records", "count", "lower", NONE),
    layer("storage.checkpoint_ms", "ms", "lower", NONE),
    layer("persist.snapshot_bytes", "bytes", "lower", NONE),
    layer("storage.recovery_s", "s", "lower", NONE),
    layer("storage.recover_replayed_records", "count", "lower", NONE),
    layer("shard.select_us", "us", "lower", ROUTED),
    layer("shard.inproc_qps", "queries/s", "higher", NONE),
    layer("router.fanout_per_query", "count", "lower", ROUTED),
    layer("router.merge_us", "us", "lower", ROUTED),
    layer("router.evaluate_us", "us", "lower", ROUTED),
    layer("router.rtt_us", "us", "lower", ROUTED),
    layer("wire.encode_us", "us", "lower", ROUTED),
    layer("wire.decode_us", "us", "lower", ROUTED),
    layer("wire.bytes_per_query", "bytes", "lower", ROUTED),
    layer("router.over_direct", "ratio", "higher", ROUTED),
    layer("trace.untraced_e2e_us", "us", "lower", NONE),
    layer("trace.overhead_frac", "ratio", "lower", NONE),
];

/// The text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let list = |rows: Vec<String>| format!("[\n    {}\n  ]", rows.join(",\n    "));
    let workloads = Workload::ALL
        .iter()
        .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name(), w.why()))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \
         \"per_layer\": {}\n}}\n",
        list(workloads),
        list(end_to_end),
        list(per_layer)
    )
}

/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

pub const USAGE: &str =
    "--workload <nn1d_verify|nn1d_refine|knn2d_k4|serve_open|mixed_durable|routed_2shard> \
                         --seed <n> --seconds <s> --trace <0|1>";

/// The run's provenance: workload, seed, cores, commit, and the SIMD
/// override (which must be unset — the dispatched tier is what ships).
pub fn print_header(binary: &str, args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let simd = std::env::var("CPNN_SIMD").unwrap_or_else(|_| "unset".into());
    println!(
        "# {binary} workload={} seed={} seconds={} queries={} nproc={nproc} commit={commit} CPNN_SIMD={simd}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.workload.queries(args.seconds),
    );
    if simd != "unset" {
        println!("# WARNING: CPNN_SIMD is set; numbers are not comparable with the recorded ones");
    }
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A reported value: name, unit, value.
pub type Reported = (&'static str, &'static str, f64);

/// The end-to-end metrics of one untraced run, in [`END_TO_END`] order,
/// with the table a person reads printed along the way.
pub fn end_to_end_metrics(out: &Outcome) -> Vec<Reported> {
    let lat = sorted(out.latencies_us.clone());
    let n = lat.len();
    let values = [
        median(&sliced_throughput(&out.completed_at_us, SLICES)),
        median(&sliced_percentile(&out.latencies_us, SLICES, 0.50)),
        median(&sliced_percentile(&out.latencies_us, SLICES, 0.99)),
        median(&out.setup_s),
        peak_rss_mb(),
    ];
    let slices = SLICES.min(n);
    let samples = [slices, slices, slices, out.setup_s.len(), 1];
    println!(
        "# {:<18} {:>14} {:<10} {:>8} {:>6}",
        "metric", "value", "unit", "samples", "bound"
    );
    for ((m, value), samples) in END_TO_END.iter().zip(values).zip(samples) {
        println!(
            "  {:<18} {:>14.3} {:<10} {:>8} {:>5.0}%",
            m.name,
            value,
            m.unit,
            samples,
            m.bound * 100.0
        );
    }
    println!(
        "  whole-window p99 = {:.1} us (n = {n}, diagnostic)",
        percentile(&lat, 0.99)
    );
    if let Some(p) = supported_tail(n) {
        println!(
            "  highest percentile with >= 10 samples beyond it: p{} = {:.1} us (n = {n}, diagnostic)",
            p * 100.0,
            percentile(&lat, p)
        );
    }
    println!(
        "  failed_ops_frac = {} / {} = {}",
        out.failed,
        out.attempted,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| (m.name, m.unit, v))
        .collect()
}

/// The one JSON object the driver reads from the last line of stdout.
pub fn result_line(attempted: usize, failed: usize, metrics: &[Reported]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            assert!(value.is_finite(), "metric {name} is not a number: {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

/// Read one metric's value back out of a [`result_line`].
pub fn metric_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&args("--workload knn2d_k4 --seed 9 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::Knn2dK4,
                seed: 9,
                seconds: 10.0,
                trace: true
            }
        );
        assert!(parse_args(&args("--workload nope --seed 9 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&args("--workload knn2d_k4 --seed 9 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&args("--workload knn2d_k4 --seed 9 --seconds 10 --trace 2")).is_err());
        assert!(parse_args(&args("--workload knn2d_k4 --seed 9 --seconds 10")).is_err());
        assert!(parse_args(&args("--workload knn2d_k4 --seed")).is_err());
    }

    #[test]
    fn result_line_round_trips_every_digit() {
        let metrics = vec![
            ("latency_p50_us", "us", 151.234_567_891),
            ("setup_s", "s", 0.081_27),
        ];
        let line = result_line(1_000, 0, &metrics);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1000, \"failed\": 0, "));
        assert_eq!(metric_value(&line, "latency_p50_us"), Some(151.234_567_891));
        assert_eq!(metric_value(&line, "setup_s"), Some(0.081_27));
        assert_eq!(metric_value(&line, "missing"), None);
        assert!(result_line(10, 1, &metrics).starts_with("{\"correct\": false"));
    }

    #[test]
    fn metric_names_and_units_fit_the_contract() {
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(Workload::ALL.iter().map(|w| w.name()))
            .collect();
        assert!(names.iter().all(|n| ok_name(n)));
        assert!(END_TO_END
            .iter()
            .all(|m| ok_unit(m.unit) && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| ok_unit(m.unit)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
        assert!(manifest_json().len() < 64 * 1024);
    }
}
