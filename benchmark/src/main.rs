//! The uavnet benchmark: one command, four workloads.
//!
//! ```text
//! uavnet-benchmark --workload <plan|mobility|service|city> --seed <n>
//!                  --seconds <s> --trace <0|1> [--corrupt]
//! ```
//!
//! Every run generates its inputs from `--seed`, measures for about
//! `--seconds` seconds, checks the program's outputs with the
//! independent checkers of [`check`], and prints as its last stdout
//! line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics untraced, the per-layer metrics
//! with `--trace 1`. `--corrupt` damages one output before the checks
//! run, to show that they bite (the run then exits non-zero).

mod check;
mod city;
mod common;
mod mobility;
mod plan;
mod scenario;
mod service;
mod trace;
mod util;

use common::{Args, Outcome};
use util::json_str;

fn usage() -> ! {
    eprintln!(
        "usage: uavnet-benchmark --workload <plan|mobility|service|city> --seed <n> \
         --seconds <s> --trace <0|1> [--corrupt]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut corrupt = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => seed = value().parse::<u64>().ok(),
            "--seconds" => seconds = value().parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value().as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => usage(),
                }
            }
            "--corrupt" => corrupt = true,
            _ => usage(),
        }
    }
    let workload = workload.unwrap_or_else(|| usage());
    if !["plan", "mobility", "service", "city"].contains(&workload.as_str()) {
        usage();
    }
    // The delta workloads' path is single-threaded and their cold
    // solves are set-up: one solver thread keeps those set-up timings
    // steady on a small host. The planning workloads use every core.
    let threads = match workload.as_str() {
        "mobility" | "service" => 1,
        _ => std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(8),
    };
    Args {
        workload,
        seed: seed.unwrap_or_else(|| usage()),
        seconds: seconds.unwrap_or_else(|| usage()),
        trace: trace.unwrap_or_else(|| usage()),
        corrupt,
        threads,
    }
}

/// Host and build facts stamped on every run.
fn provenance(args: &Args) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |p| p.get());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let features = if cfg!(feature = "obs") { "obs" } else { "" };
    format!(
        "{{\"provenance\": {{\"git_sha\": {}, \"source_hash\": {}, \"cpu\": {}, \"nproc\": {nproc}, \
         \"rustc\": {}, \"features\": {}, \"threads\": {}, \"workload\": {}, \"seed\": {}, \
         \"seconds\": {}, \"trace\": {}}}}}",
        json_str(&env("UAVNET_BENCH_GIT_SHA")),
        json_str(&env("UAVNET_BENCH_SOURCE_HASH")),
        json_str(&cpu),
        json_str(&env("UAVNET_BENCH_RUSTC")),
        json_str(features),
        args.threads,
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace
    )
}

fn main() {
    let args = parse_args();
    let prov = provenance(&args);
    eprintln!("{prov}");
    let mut tracer = trace::Tracer::new(args.trace);
    let outcome: Outcome = match args.workload.as_str() {
        "plan" => plan::run(&args, &mut tracer),
        "mobility" => mobility::run(&args, &mut tracer),
        "service" => service::run(&args, &mut tracer),
        "city" => city::run(&args, &mut tracer),
        _ => unreachable!("workload validated by parse_args"),
    };
    if tracer.enabled() {
        let path = std::path::PathBuf::from(format!(
            ".bench_trace/{}-seed{}.jsonl",
            args.workload, args.seed
        ));
        match tracer.write_to(&path) {
            Ok(()) => eprintln!("wrote {} spans to {}", tracer.len(), path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }
    for e in &outcome.errors {
        eprintln!("CHECK FAILED: {e}");
    }
    // Both metric sets go to stderr, so a traced run can be compared
    // with an untraced one.
    eprintln!("end_to_end: {}", outcome.e2e.to_json());
    if args.trace {
        eprintln!("per_layer: {}", outcome.layers.to_json());
    }
    let correct = outcome.errors.is_empty();
    println!("{prov}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        if args.trace {
            outcome.layers.to_json()
        } else {
            outcome.e2e.to_json()
        }
    );
    if !correct {
        std::process::exit(1);
    }
}
