//! Same seed, same run: the inputs (unit-tested in `inputs`) and the exact
//! work counters the traced run reports repeat bit-for-bit, and a
//! different seed changes them. Drives the real binaries, as the driver
//! does.

use std::process::Command;

use cpnn_benchmark::report::metric_value;

/// Run one binary from the repo root and return the last line of stdout.
fn run(binary: &str, workload: &str, seed: u64, trace: u8) -> String {
    let out = Command::new(binary)
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .args(["--workload", workload, "--seconds", "0.2", "--trace"])
        .arg(trace.to_string())
        .args(["--seed", &seed.to_string()])
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let line = stdout.lines().last().expect("a result line").to_string();
    assert!(
        line.starts_with("{\"correct\": true, "),
        "{workload}: {line}"
    );
    line
}

fn counters(line: &str, names: &[&str]) -> Vec<f64> {
    names
        .iter()
        .map(|n| metric_value(line, n).unwrap_or_else(|| panic!("{n} missing from {line}")))
        .collect()
}

#[test]
fn exact_counters_repeat_for_a_seed_and_move_with_it() {
    let trace = env!("CARGO_BIN_EXE_trace");
    for (workload, names) in [
        (
            "nn1d_refine",
            &["candidate.count", "subregion.count", "refine.integrations"][..],
        ),
        (
            "mixed_durable",
            &["storage.wal_bytes_per_update", "cache.hit_rate"][..],
        ),
    ] {
        let first = counters(&run(trace, workload, 11, 1), names);
        assert!(first.iter().all(|v| *v > 0.0), "{workload}: {first:?}");
        assert_eq!(
            first,
            counters(&run(trace, workload, 11, 1), names),
            "{workload}"
        );
        assert_ne!(
            first,
            counters(&run(trace, workload, 12, 1), names),
            "{workload}"
        );
    }
}

#[test]
fn the_gated_runner_reports_every_end_to_end_metric_and_no_failures() {
    let line = run(env!("CARGO_BIN_EXE_e2e"), "knn2d_k4", 5, 0);
    assert!(line.contains("\"failed\": 0, "), "{line}");
    for m in &cpnn_benchmark::report::END_TO_END {
        let value = metric_value(&line, m.name).unwrap_or_else(|| panic!("{} missing", m.name));
        assert!(value > 0.0, "{} = {value}", m.name);
    }
}
