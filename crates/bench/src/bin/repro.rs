//! `repro` — regenerate every table and figure of the paper's evaluation,
//! plus the 2-D k-NN, cache, update, verifier-kernel and recovery
//! experiments.
//!
//! Usage:
//! ```text
//! repro [--quick] [--out DIR] [EXPERIMENT ...]
//! ```
//! where `EXPERIMENT` is any of `fig9 fig10 fig11 fig12 fig13 fig14 table3
//! ablations knn2d cache update verify recovery` or `all` (default).
//! `--quick` uses a reduced workload (same shapes, faster); `--out` selects
//! the results directory (default `results/`).
//!
//! Into `DIR` go each table as `<id>.md` and `<id>.csv`, every table with
//! all its columns as `tables.json`, and the work those tables record as
//! `paper_work.json`: key and work columns only, no timings and no notes,
//! so equal code writes equal bytes on any host. A quick run of every
//! experiment must reproduce the committed `crates/bench/paper_work.json`.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use cpnn_bench::experiments::{self, ablations};
use cpnn_bench::report::Table;

/// An experiment's command-line name and its table for a quick or full run.
type Experiment = (&'static str, fn(bool) -> Table);

/// Every experiment, in output order. The `ablations` name runs three
/// tables.
const EXPERIMENTS: &[Experiment] = &[
    ("fig9", experiments::fig09::run),
    ("fig10", experiments::fig10::run),
    ("fig11", experiments::fig11::run),
    ("fig12", experiments::fig12::run),
    ("fig13", experiments::fig13::run),
    ("fig14", experiments::fig14::run),
    ("table3", experiments::table3::run),
    ("ablations", ablations::verifier_chain),
    ("ablations", ablations::refinement_order),
    ("ablations", ablations::distance_bins),
    ("knn2d", experiments::knn2d::run),
    ("cache", experiments::cache::run),
    ("update", experiments::update::run),
    ("verify", experiments::verify::run),
    ("recovery", experiments::recovery::run),
];

fn main() {
    let mut quick = false;
    let mut out_dir = PathBuf::from("results");
    let mut wanted: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    let names = || {
        let mut names = vec!["all"];
        names.extend(EXPERIMENTS.iter().map(|(name, _)| *name));
        names.dedup();
        names.join("|")
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" | "-q" => quick = true,
            "--out" => {
                out_dir = PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("--out requires a directory argument");
                    std::process::exit(2);
                }));
            }
            "--help" | "-h" => {
                eprintln!("usage: repro [--quick] [--out DIR] [{} ...]", names());
                return;
            }
            other => wanted.push(other.to_string()),
        }
    }
    if wanted.is_empty() {
        wanted.push("all".to_string());
    }
    if let Some(unknown) = wanted
        .iter()
        .find(|w| *w != "all" && !EXPERIMENTS.iter().any(|(name, _)| name == w))
    {
        eprintln!(
            "unknown experiment `{unknown}` (expected one of: {})",
            names()
        );
        std::process::exit(2);
    }
    let all = wanted.iter().any(|w| w == "all");

    fs::create_dir_all(&out_dir).expect("can create results directory");
    let mut produced: Vec<Table> = Vec::new();
    for (name, run) in EXPERIMENTS {
        if all || wanted.iter().any(|w| w == name) {
            eprintln!(
                ">> running {name} ({}) ...",
                if quick { "quick" } else { "full" }
            );
            let t = run(quick);
            println!("{}", t.to_text());
            produced.push(t);
        }
    }

    for t in &produced {
        let stem = file_stem(&t.id);
        fs::write(out_dir.join(format!("{stem}.md")), t.to_markdown())
            .expect("can write markdown result");
        fs::write(out_dir.join(format!("{stem}.csv")), t.to_csv()).expect("can write csv result");
    }
    fs::write(out_dir.join("tables.json"), tables_json(quick, &produced))
        .expect("can write tables json");
    let work: Vec<Table> = produced.iter().map(Table::work).collect();
    fs::write(out_dir.join("paper_work.json"), tables_json(quick, &work))
        .expect("can write work json");
    eprintln!(
        ">> wrote {} result table(s), tables.json and paper_work.json to {}",
        produced.len(),
        out_dir.display()
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

/// Hand-rolled JSON (no serde in the build environment): each table's id,
/// title, column headers and rows. Notes stay in the Markdown and CSV.
fn tables_json(quick: bool, tables: &[Table]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"quick\": {quick},");
    let _ = writeln!(out, "  \"experiments\": [");
    for (i, t) in tables.iter().enumerate() {
        let comma = if i + 1 < tables.len() { "," } else { "" };
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"id\": {},", json_str(&t.id));
        let _ = writeln!(out, "      \"title\": {},", json_str(&t.title));
        let _ = writeln!(out, "      \"columns\": {},", json_str_array(&t.headers()));
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

fn json_str_array<S: AsRef<str>>(items: &[S]) -> String {
    let inner: Vec<String> = items.iter().map(|s| json_str(s.as_ref())).collect();
    format!("[{}]", inner.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpnn_bench::report::{key, measured, work};

    fn sample() -> Table {
        let mut t = Table::new(
            "Fig. 9",
            "title",
            &[key("P"), measured("wall (ms)"), work("integ.")],
        );
        t.push_row(vec!["0.3".into(), "1.25".into(), "7.5".into()]);
        t.note("a note on this host");
        t
    }

    #[test]
    fn json_strings_escape_specials() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str_array(&["x", "y\"z"]), "[\"x\", \"y\\\"z\"]");
    }

    #[test]
    fn bench_json_shape_is_valid_enough() {
        let s = tables_json(true, &[sample()]);
        assert!(s.starts_with("{\n  \"quick\": true,\n"));
        assert!(s.contains("\"id\": \"Fig. 9\""));
        assert!(s.contains("\"columns\": [\"P\", \"wall (ms)\", \"integ.\"]"));
        assert!(s.contains("[\"0.3\", \"1.25\", \"7.5\"]"));
        assert!(s.ends_with("}\n"));
    }

    #[test]
    fn work_json_has_no_run_or_host_fields() {
        let s = tables_json(true, &[sample().work()]);
        assert!(s.contains("\"columns\": [\"P\", \"integ.\"]"));
        assert!(s.contains("[\"0.3\", \"7.5\"]"));
        for absent in ["\"pr\"", "wall_s", "wall (ms)", "1.25", "a note"] {
            assert!(!s.contains(absent), "work json holds {absent}: {s}");
        }
        // Equal tables write equal bytes.
        assert_eq!(s, tables_json(true, &[sample().work()]));
    }

    #[test]
    fn file_stems_are_fs_safe() {
        assert_eq!(file_stem("Fig. 9"), "fig_9");
        assert_eq!(file_stem("Batch"), "batch");
    }
}
