//! The gated runner: one workload, tracing off, every end-to-end metric.
//! `e2e manifest` prints the `BENCHMARK.json` the metric tables define.

use cpnn_benchmark::report::{self, parse_args, USAGE};
use cpnn_benchmark::workloads;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("manifest") {
        print!("{}", report::manifest_json());
        return;
    }
    let args = match parse_args(&argv) {
        Ok(args) if !args.trace => args,
        Ok(_) => fail("--trace 1 is the trace binary's job (benchmark/run.sh dispatches)"),
        Err(e) => fail(&e),
    };
    report::print_header("e2e", &args);
    let out = workloads::run(args.workload, args.seed, args.seconds);
    let metrics = report::end_to_end_metrics(&out);
    for (name, value) in &out.diagnostics {
        println!("  {name} = {value} (diagnostic; reported by the traced run)");
    }
    println!(
        "{}",
        report::result_line(out.attempted, out.failed, &metrics)
    );
}

fn fail(message: &str) -> ! {
    eprintln!("e2e: {message}\nusage: e2e {USAGE}\n       e2e manifest");
    std::process::exit(2)
}
