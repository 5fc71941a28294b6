//! `repro` — regenerate every table and figure of the paper's evaluation,
//! plus the 2-D k-NN, cache, update, verifier-kernel and recovery
//! experiments, and emit a machine-readable timing file (the current series file,
//! `BENCH_pr<N>.json` derived from [`CURRENT_PR`]) so later changes have a
//! perf trajectory to regress against.
//!
//! Usage:
//! ```text
//! repro [--quick] [--out DIR] [--bench-json FILE] [EXPERIMENT ...]
//! ```
//! where `EXPERIMENT` is any of `fig9 fig10 fig11 fig12 fig13 fig14 table3
//! ablations knn2d cache update verify recovery` or `all` (default).
//! `--quick` uses a reduced workload (same shapes, faster); `--out` selects the results
//! directory (default `results/`); `--bench-json` overrides the
//! timing-file path (default: the current series file, empty string
//! disables) — so one-off runs can land anywhere without touching source.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use cpnn_bench::experiments;
use cpnn_bench::report::Table;

/// The PR this tree's timings belong to. The default timing file is
/// derived from it, so each PR's trajectory lands in its own
/// `BENCH_pr<N>.json` (override any single run with `--bench-json PATH`).
const CURRENT_PR: u32 = 29;

/// The current series file: `BENCH_pr<CURRENT_PR>.json`.
fn current_series() -> String {
    format!("BENCH_pr{CURRENT_PR}.json")
}

fn main() {
    let mut quick = false;
    let mut out_dir = PathBuf::from("results");
    let mut bench_json = PathBuf::from(current_series());
    let mut wanted: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" | "-q" => quick = true,
            "--out" => {
                out_dir = PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("--out requires a directory argument");
                    std::process::exit(2);
                }));
            }
            "--bench-json" => {
                bench_json = PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("--bench-json requires a file argument");
                    std::process::exit(2);
                }));
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: repro [--quick] [--out DIR] [--bench-json FILE (default {})] \
                     [fig9|fig10|fig11|fig12|fig13|fig14|table3|ablations|knn2d|cache|update|\
                     verify|recovery|all ...]",
                    current_series()
                );
                return;
            }
            other => wanted.push(other.to_string()),
        }
    }
    if wanted.is_empty() {
        wanted.push("all".to_string());
    }
    const KNOWN: &[&str] = &[
        "all",
        "fig9",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "fig14",
        "table3",
        "ablations",
        "knn2d",
        "cache",
        "update",
        "verify",
        "recovery",
    ];
    if let Some(unknown) = wanted.iter().find(|w| !KNOWN.contains(&w.as_str())) {
        eprintln!(
            "unknown experiment `{unknown}` (expected one of: {})",
            KNOWN.join(", ")
        );
        std::process::exit(2);
    }
    let all = wanted.iter().any(|w| w == "all");
    let want = |name: &str| all || wanted.iter().any(|w| w == name);

    fs::create_dir_all(&out_dir).expect("can create results directory");
    // (table, wall-clock seconds the experiment took to regenerate)
    let mut produced: Vec<(Table, f64)> = Vec::new();

    let run = |name: &str, f: &dyn Fn(bool) -> Table, produced: &mut Vec<(Table, f64)>| {
        eprintln!(
            ">> running {name} ({}) ...",
            if quick { "quick" } else { "full" }
        );
        let start = Instant::now();
        let t = f(quick);
        let wall = start.elapsed().as_secs_f64();
        println!("{}", t.to_text());
        produced.push((t, wall));
    };

    if want("fig9") {
        run("fig9", &experiments::fig09::run, &mut produced);
    }
    if want("fig10") {
        run("fig10", &experiments::fig10::run, &mut produced);
    }
    if want("fig11") {
        run("fig11", &experiments::fig11::run, &mut produced);
    }
    if want("fig12") {
        run("fig12", &experiments::fig12::run, &mut produced);
    }
    if want("fig13") {
        run("fig13", &experiments::fig13::run, &mut produced);
    }
    if want("fig14") {
        run("fig14", &experiments::fig14::run, &mut produced);
    }
    if want("table3") {
        run("table3", &experiments::table3::run, &mut produced);
    }
    if want("ablations") {
        run(
            "ablation-a",
            &experiments::ablations::verifier_chain,
            &mut produced,
        );
        run(
            "ablation-b",
            &experiments::ablations::refinement_order,
            &mut produced,
        );
        run(
            "ablation-c",
            &experiments::ablations::distance_bins,
            &mut produced,
        );
        run(
            "ablation-d",
            &experiments::ablations::extended_chain,
            &mut produced,
        );
    }
    if want("knn2d") {
        run("knn2d", &experiments::knn2d::run, &mut produced);
    }
    if want("cache") {
        run("cache", &experiments::cache::run, &mut produced);
    }
    if want("update") {
        run("update", &experiments::update::run, &mut produced);
    }
    if want("verify") {
        run("verify", &experiments::verify::run, &mut produced);
    }
    if want("recovery") {
        run("recovery", &experiments::recovery::run, &mut produced);
    }

    for (t, _) in &produced {
        let stem = file_stem(&t.id);
        fs::write(out_dir.join(format!("{stem}.md")), t.to_markdown())
            .expect("can write markdown result");
        fs::write(out_dir.join(format!("{stem}.csv")), t.to_csv()).expect("can write csv result");
    }
    if bench_json.as_os_str().is_empty() {
        eprintln!(
            ">> wrote {} result table(s) to {}",
            produced.len(),
            out_dir.display()
        );
        return;
    }
    fs::write(&bench_json, bench_json_text(quick, &produced)).expect("can write bench json");
    eprintln!(
        ">> wrote {} result table(s) to {} and timings to {}",
        produced.len(),
        out_dir.display(),
        bench_json.display()
    );
}

fn file_stem(id: &str) -> String {
    id.to_lowercase()
        .chars()
        .map(|c| if c.is_alphanumeric() { c } else { '_' })
        .collect::<String>()
        .trim_matches('_')
        .replace("__", "_")
}

/// Hand-rolled JSON (no serde in the build environment): every experiment's
/// wall time plus its full table, so future PRs can diff both the timings
/// and the numbers themselves.
fn bench_json_text(quick: bool, produced: &[(Table, f64)]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"pr\": {CURRENT_PR},");
    let _ = writeln!(out, "  \"tool\": \"repro\",");
    let _ = writeln!(out, "  \"quick\": {quick},");
    let _ = writeln!(out, "  \"experiments\": [");
    for (i, (t, wall)) in produced.iter().enumerate() {
        let comma = if i + 1 < produced.len() { "," } else { "" };
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"id\": {},", json_str(&t.id));
        let _ = writeln!(out, "      \"title\": {},", json_str(&t.title));
        let _ = writeln!(out, "      \"wall_s\": {wall:.3},");
        let _ = writeln!(out, "      \"columns\": {},", json_str_array(&t.columns));
        let _ = writeln!(out, "      \"rows\": [");
        for (j, row) in t.rows.iter().enumerate() {
            let rc = if j + 1 < t.rows.len() { "," } else { "" };
            let _ = writeln!(out, "        {}{rc}", json_str_array(row));
        }
        let _ = writeln!(out, "      ]");
        let _ = writeln!(out, "    }}{comma}");
    }
    let _ = writeln!(out, "  ]");
    out.push_str("}\n");
    out
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_str_array(items: &[String]) -> String {
    let inner: Vec<String> = items.iter().map(|s| json_str(s)).collect();
    format!("[{}]", inner.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_strings_escape_specials() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(
            json_str_array(&["x".into(), "y\"z".into()]),
            "[\"x\", \"y\\\"z\"]"
        );
    }

    #[test]
    fn bench_json_shape_is_valid_enough() {
        let mut t = Table::new("Fig. 9", "title", &["a", "b"]);
        t.push_row(vec!["1".into(), "2".into()]);
        let s = bench_json_text(true, &[(t, 0.5)]);
        assert!(s.starts_with("{\n"));
        assert!(s.contains("\"id\": \"Fig. 9\""));
        assert!(s.contains("\"wall_s\": 0.500"));
        assert!(s.ends_with("}\n"));
    }

    #[test]
    fn file_stems_are_fs_safe() {
        assert_eq!(file_stem("Fig. 9"), "fig_9");
        assert_eq!(file_stem("Batch"), "batch");
    }

    #[test]
    fn bench_json_defaults_to_current_series() {
        assert_eq!(current_series(), format!("BENCH_pr{CURRENT_PR}.json"));
        let s = bench_json_text(true, &[]);
        assert!(s.contains(&format!("\"pr\": {CURRENT_PR},")));
    }
}
