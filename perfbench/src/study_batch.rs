//! `study-batch`: the paper's own job. One op captures all five runs
//! (`StudyHarness::run_all`), computes the report and renders it, in a
//! closed loop with one caller.

use crate::common::{digest_check, fnv1a, median, repeated_setup, Metrics, Shape, Trace, Window};
use crate::Workload;
use hbbtv_study::obs::{NullRecorder, SimClock, Telemetry, TelemetryMode, Timestamp};
use hbbtv_study::report::StudyReport;
use hbbtv_study::{Ecosystem, StudyDataset, StudyHarness, TelemetryConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// World scale: 5% of the paper's channel lineup, ~14.6k exchanges.
const SCALE: f64 = 0.05;
/// Set-up repetitions: world, capture and `compute_naive` reference.
const SETUP_REPS: usize = 5;

/// The analysis passes whose `wall.analysis.<pass>` histograms the
/// traced run reads.
const PASSES: [&str; 11] = [
    "first_parties",
    "tracking",
    "cookies",
    "categories",
    "children",
    "leakage",
    "syncing",
    "graph",
    "consent",
    "policies",
    "significance",
];

pub struct StudyBatch {
    eco: Ecosystem,
    setup_s: f64,
    /// `compute_naive` render of the study, made once, untimed.
    reference: String,
    exchanges: usize,
    checks: (u64, u64),
}

fn digest(ds: &StudyDataset) -> u64 {
    fnv1a(format!("{ds:?}").as_bytes())
}

impl StudyBatch {
    pub fn setup(seed: u64) -> StudyBatch {
        let mut digests = Vec::new();
        let ((eco, ds, reference), setup_s) = repeated_setup(
            SETUP_REPS,
            || {
                let eco = Ecosystem::with_scale(seed, SCALE);
                let ds = StudyHarness::new(&eco).run_all();
                let reference = StudyReport::compute_naive(&eco, &ds).render(&ds);
                (eco, ds, reference)
            },
            |(_, ds, _)| digests.push(digest(ds)),
        );

        // Determinism of the generated inputs: every set-up from the
        // seed gives the same digest, the next seed a different one.
        let next_eco = Ecosystem::with_scale(seed.wrapping_add(1), SCALE);
        let next_seed = digest(&StudyHarness::new(&next_eco).run_all());
        let checks = digest_check("study-batch", &digests, next_seed);
        StudyBatch {
            exchanges: ds.runs.iter().map(|r| r.captures.len()).sum(),
            eco,
            setup_s,
            reference,
            checks,
        }
    }

    /// One op. Traced ops run the harness and the analysis under the
    /// program's own `Profile` telemetry, which supplies the visit and
    /// per-pass wall histograms.
    fn op(&self, k: u64, trace: &Trace, traced: &mut Traced) -> (f64, f64, bool) {
        let op_id = trace.id();
        let t0 = Instant::now();
        let harness = if trace.is_on() {
            StudyHarness::with_telemetry(
                &self.eco,
                TelemetryConfig::profile(Arc::new(NullRecorder)),
            )
        } else {
            StudyHarness::new(&self.eco)
        };
        let (ds, run_s) = trace.time(op_id, k, "harness.run_all", || harness.run_all());
        let tel = if trace.is_on() {
            Telemetry::scope(
                TelemetryMode::Profile,
                SimClock::starting_at(Timestamp::MEASUREMENT_START),
                1 << 56,
            )
        } else {
            Telemetry::disabled()
        };
        let (report, compute_s) = trace.time(op_id, k, "analysis.compute", || {
            StudyReport::compute_with_telemetry(&self.eco, &ds, &tel)
        });
        let (text, render_s) = trace.time(op_id, k, "analysis.render", || report.render(&ds));
        let t1 = Instant::now();
        trace.record(op_id, 0, k, "study.op", t0, t1);
        if trace.is_on() {
            traced.record(&harness, &tel, &ds, run_s, compute_s, render_s);
        }
        ((t1 - t0).as_secs_f64(), compute_s, text == self.reference)
    }
}

/// Per-op layer readings of a traced window.
#[derive(Default)]
struct Traced {
    exchanges: Vec<f64>,
    visits: Vec<f64>,
    run_all: Vec<f64>,
    visit_p50: Vec<f64>,
    visit_p99: Vec<f64>,
    frame_build: Vec<f64>,
    report: Vec<f64>,
    render: Vec<f64>,
    stages: Vec<Vec<f64>>,
}

impl Traced {
    fn record(
        &mut self,
        harness: &StudyHarness<'_>,
        tel: &Telemetry,
        ds: &StudyDataset,
        run_s: f64,
        compute_s: f64,
        render_s: f64,
    ) {
        let study = harness.telemetry().expect("profile mode records telemetry");
        self.exchanges
            .push(ds.runs.iter().map(|r| r.captures.len()).sum::<usize>() as f64);
        self.visits.push(study.total_visits() as f64);
        self.run_all.push(run_s);
        // Log2-bucket summaries per run: the median run's p50 and the
        // worst run's p99.
        let walls: Vec<_> = study
            .runs
            .iter()
            .filter_map(|r| r.histograms.get("wall.visit"))
            .collect();
        let p50s: Vec<f64> = walls.iter().map(|h| h.p50 as f64 / 1e6).collect();
        self.visit_p50.push(median(&p50s));
        self.visit_p99
            .push(walls.iter().map(|h| h.p99 as f64 / 1e6).fold(0.0, f64::max));
        let hist = tel.histograms_snapshot();
        let sum_s = |name: &str| hist.get(name).map_or(0.0, |h| h.sum as f64 / 1e6);
        self.frame_build.push(sum_s("wall.frame.build"));
        self.report.push(compute_s);
        self.render.push(render_s);
        self.stages.resize(PASSES.len(), Vec::new());
        for (i, pass) in PASSES.iter().enumerate() {
            self.stages[i].push(sum_s(&format!("wall.analysis.{pass}")));
        }
    }

    fn put(&self, m: &mut Metrics) {
        let run_all = median(&self.run_all);
        m.put("harness.exchanges", median(&self.exchanges), "count");
        m.put("harness.visits", median(&self.visits), "count");
        m.put("harness.run_all_s", run_all, "s");
        m.put(
            "harness.exchanges_per_s",
            median(&self.exchanges) / run_all.max(1e-12),
            "1/s",
        );
        m.put("harness.visit_wall_p50_s", median(&self.visit_p50), "s");
        m.put("harness.visit_wall_p99_s", median(&self.visit_p99), "s");
        m.put("analysis.frame_build_s", median(&self.frame_build), "s");
        m.put("analysis.report_s", median(&self.report), "s");
        m.put("analysis.render_s", median(&self.render), "s");
        for (pass, samples) in PASSES.iter().zip(&self.stages) {
            m.put(format!("analysis.stage.{pass}_s"), median(samples), "s");
        }
    }
}

impl Workload for StudyBatch {
    fn shape(&self) -> Shape {
        Shape {
            callers: 1,
            input: format!(
                "scale {SCALE} world, 5 runs, {} exchanges per op",
                self.exchanges
            ),
            tail_preferred: 0.9,
        }
    }

    fn setup_s(&self) -> f64 {
        self.setup_s
    }

    fn setup_checks(&self) -> (u64, u64) {
        self.checks
    }

    fn window(&mut self, seconds: f64, trace: &Trace, layers: &mut Metrics) -> Window {
        let mut w = Window::default();
        let mut traced = Traced::default();
        // One untimed warm-up op (pool threads, lazy registries), still
        // checked.
        let (_, _, ok) = self.op(0, &Trace::new(false), &mut traced);
        w.attempted += 1;
        w.failed += u64::from(!ok);

        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let mut k = 1;
        while Instant::now() < deadline {
            let (op_s, compute_s, ok) = self.op(k, trace, &mut traced);
            w.ops.push(op_s);
            w.refresh.push(compute_s);
            w.units += self.exchanges as f64;
            w.attempted += 1;
            w.failed += u64::from(!ok);
            k += 1;
        }
        w.elapsed = start.elapsed().as_secs_f64();
        if trace.is_on() {
            traced.put(layers);
        }
        w
    }
}
