//! The benchmark's own plumbing: `BENCHMARK.json` is what the metric
//! tables say, and the package compiles the library with the codegen the
//! shipped binaries get.

use std::collections::BTreeMap;
use std::path::Path;

fn read(relative: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn benchmark_json_is_generated_from_the_metric_tables() {
    assert_eq!(
        read("../BENCHMARK.json"),
        cpnn_benchmark::report::manifest_json(),
        "regenerate with: benchmark/target/release/e2e manifest > BENCHMARK.json"
    );
}

/// `key = value` lines of one `[section]` of a manifest.
fn section(manifest: &str, name: &str) -> BTreeMap<String, String> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != format!("[{name}]"))
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect()
}

#[test]
fn release_profile_mirrors_the_root_manifest() {
    let root = section(&read("../Cargo.toml"), "profile.release");
    let ours = section(&read("Cargo.toml"), "profile.release");
    assert!(root.contains_key("lto"), "root profile parsed: {root:?}");
    assert_eq!(
        ours, root,
        "benchmark/Cargo.toml [profile.release] drifted from the root manifest: \
         the benchmark would measure different codegen than the shipped binaries"
    );
}
