//! One run of one benchmark workload.
//!
//! Reads a run spec (JSON, generated from the benchmark seed by
//! `perfbench/run.py`) on standard input, runs it through the public entry
//! points of `ddosim-core`, `scenario`, `telemetry` and `tinyvm`, and
//! prints one JSON line: timings, deterministic work counts, a digest of
//! the deterministic results and, when traced, the spans and per-layer
//! probes. Exits non-zero with a message on standard error when the spec
//! is malformed or the run fails.

mod reference;
mod spec;
mod trace;
mod workload;

use std::io::Read;

fn main() {
    let mut text = String::new();
    if let Err(e) = std::io::stdin().read_to_string(&mut text) {
        eprintln!("perfbench: cannot read the run spec: {e}");
        std::process::exit(2);
    }
    let spec = match spec::Spec::parse(&text) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("perfbench: bad run spec: {e}");
            std::process::exit(2);
        }
    };
    match workload::run(&spec) {
        Ok(report) => println!("{}", report.to_string_compact()),
        Err(e) => {
            eprintln!("perfbench: {} run failed: {e}", spec.workload.name());
            std::process::exit(1);
        }
    }
}
