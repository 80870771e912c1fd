//! The repository benchmark: closed-loop workloads against the libraries'
//! public APIs, with every output checked.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload viewer-local --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` (the default) measures the end-to-end metrics; `--trace 1`
//! (or `--traced`) runs the workload, then replays its inputs with spans
//! around each layer call and prints the per-layer metrics instead.
//! With `--workload`, the last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. Without it,
//! every workload runs in turn and prints its own such object after its
//! name; the last line then sums the outcome counts and has no metrics.
//! See README.md in this directory.

mod analysis;
mod common;
mod heap;
mod ingest;
mod layers;
#[cfg(test)]
mod seeded;
mod summary;
mod trace;
mod viewer;

use common::Ctx;
use std::path::PathBuf;
use summary::Report;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// Workload names, in the order `BENCHMARK.json` declares them.
pub const WORKLOADS: [&str; 3] = ["viewer-local", "analysis-remote", "ingest"];

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: bat-perfbench [--workload {}] [--seed N] [--seconds S] [--trace 0|1 | --traced]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args(args: &[String]) -> Args {
    let mut out = Args {
        workloads: WORKLOADS.to_vec(),
        seed: 1,
        seconds: 10.0,
        traced: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{a} needs a value")))
                .as_str()
        };
        match a.as_str() {
            "--workload" => {
                let w = value();
                let name = WORKLOADS
                    .iter()
                    .find(|n| **n == w)
                    .unwrap_or_else(|| usage(&format!("unknown workload {w}")));
                out.workloads = vec![name];
            }
            "--seed" => {
                out.seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seed takes an unsigned integer"))
            }
            "--seconds" => {
                out.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .unwrap_or_else(|| usage("--seconds takes a positive number"))
            }
            "--trace" => {
                out.traced = match value() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--traced" => out.traced = true,
            other => usage(&format!("unknown argument {other}")),
        }
    }
    out
}

/// Run one workload in its own scratch directory under `.bench_work/`,
/// removed afterwards.
fn run_workload(name: &'static str, args: &Args) -> Report {
    let root = PathBuf::from(".bench_work");
    let tag = format!("{name}-seed{}-{}", args.seed, std::process::id());
    let ctx = Ctx {
        workload: name,
        seed: args.seed,
        seconds: args.seconds,
        work: root.join(&tag),
        trace_out: root.join("traces").join(format!("{tag}.tsv")),
    };
    let mut report = Report::new(args.traced);
    let result = std::fs::create_dir_all(&ctx.work).and_then(|_| match name {
        "viewer-local" => viewer::run(&ctx, &mut report),
        "analysis-remote" => analysis::run(&ctx, &mut report),
        "ingest" => ingest::run(&ctx, &mut report),
        _ => unreachable!("workload names are checked when parsed"),
    });
    let _ = std::fs::remove_dir_all(&ctx.work);
    if let Err(e) = result {
        eprintln!("error: {name}: {e}");
        std::process::exit(1);
    }
    report
}

/// A shard worker process of the fabric that `viewer-local`'s traced run
/// starts: `--shard-worker <dir> <basename>` with `BAT_CLUSTER` set.
fn shard_worker(dir: &str, basename: &str) -> std::io::Result<()> {
    let cfg = bat_comm::ClusterConfig::from_env()
        .ok_or_else(|| std::io::Error::other("--shard-worker needs BAT_CLUSTER"))?
        .map_err(std::io::Error::other)?;
    let comm = bat_comm::Cluster::connect(&cfg)?;
    let ds = libbat::Dataset::open(dir, basename)?;
    bat_stream::run_shard(&*comm, &ds)?;
    comm.shutdown();
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--shard-worker") {
        let (Some(dir), Some(base)) = (args.get(1), args.get(2)) else {
            usage("--shard-worker <dir> <basename>");
        };
        if let Err(e) = shard_worker(dir, base) {
            eprintln!("shard worker: {e}");
            std::process::exit(1);
        }
        return;
    }
    let args = parse_args(&args);
    if args.workloads.len() == 1 {
        let report = run_workload(args.workloads[0], &args);
        println!("{}", report.to_json());
        if !report.correct {
            std::process::exit(1);
        }
        return;
    }
    // Every workload in turn: one result line each, then a combined one.
    let mut all_correct = true;
    let (mut attempted, mut failed) = (0, 0);
    for &name in &args.workloads {
        let report = run_workload(name, &args);
        println!("{name}: {}", report.to_json());
        all_correct &= report.correct;
        attempted += report.attempted;
        failed += report.failed;
    }
    println!(
        "{{\"correct\": {all_correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"workloads\": {}}}",
        args.workloads.len()
    );
    if !all_correct {
        std::process::exit(1);
    }
}
