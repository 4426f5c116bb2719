//! `hbbtv-perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! hbbtv-perfbench --workload <study-batch|collector-live|list-match>
//!                 --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload generates its inputs from the seed, sets up several
//! times (reporting the median set-up time), measures a closed loop
//! for `--seconds`, checks every output against an oracle, and prints
//! one JSON line: `{"correct", "attempted", "failed", "metrics"}`.
//! With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` the run measures half the time untraced and half with
//! spans recorded around every call into a layer, and prints the
//! per-layer metrics this workload measured; `run.py` orders them as
//! `BENCHMARK.json` lists them and fills 0 for layers the workload does
//! not exercise. Spans go to `perfbench/out/`. `WORKLOADS.md` describes
//! the workloads and what each metric should move.

mod collector_live;
mod common;
mod list_match;
mod study_batch;

use common::{describe, end_to_end, shape_metrics, Metrics, Shape, Trace, Window};

/// What the benchmark needs from a workload once it is set up.
pub trait Workload {
    /// Load shape: loop kind, callers, input size, preferred tail.
    fn shape(&self) -> Shape;
    /// Median set-up time over the repetitions made.
    fn setup_s(&self) -> f64;
    /// Checks made once during set-up: (attempted, failed).
    fn setup_checks(&self) -> (u64, u64);
    /// Measures for `seconds`. When `trace` is on, records spans and
    /// fills `layers` with this workload's per-layer metrics.
    fn window(&mut self, seconds: f64, trace: &Trace, layers: &mut Metrics) -> Window;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be a positive number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hbbtv-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut bench: Box<dyn Workload> = match args.workload.as_str() {
        "study-batch" => Box::new(study_batch::StudyBatch::setup(args.seed)),
        "collector-live" => Box::new(collector_live::CollectorLive::setup(args.seed)),
        "list-match" => Box::new(list_match::ListMatch::setup(args.seed)),
        other => {
            eprintln!("hbbtv-perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let shape = bench.shape();
    let (mut attempted, mut failed) = bench.setup_checks();

    let metrics = if !args.trace {
        let window = bench.window(args.seconds, &Trace::new(false), &mut Metrics::default());
        let (m, t) = end_to_end(&window, &shape, bench.setup_s());
        describe(&args.workload, &window, &shape, t);
        attempted += window.attempted;
        failed += window.failed;
        m
    } else {
        let plain = bench.window(
            args.seconds / 2.0,
            &Trace::new(false),
            &mut Metrics::default(),
        );
        let trace = Trace::new(true);
        let mut layers = Metrics::default();
        let traced = bench.window(args.seconds / 2.0, &trace, &mut layers);
        let t = common::tail(&traced.ops, shape.tail_preferred);
        describe(&args.workload, &traced, &shape, t);
        attempted += plain.attempted + traced.attempted;
        failed += plain.failed + traced.failed;

        let ratio = common::median(&traced.ops) / common::median(&plain.ops).max(1e-12);
        let spans = trace.take();
        layers.put("obs.trace_overhead_ratio", ratio, "ratio");
        shape_metrics(&mut layers, &traced, &shape, t);
        let path = format!("perfbench/out/trace-{}-{}.jsonl", args.workload, args.seed);
        match common::write_trace(&path, &spans) {
            Ok(()) => eprintln!("wrote {} spans to {path}", spans.len()),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
        for (name, count, total, own) in common::self_times(&spans) {
            eprintln!("  span {name:<28} n={count:<6} total {total:>9.4} s  self {own:>9.4} s");
        }
        layers
    };

    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        failed == 0,
        attempted.max(1),
        failed,
        metrics.json()
    );
}
