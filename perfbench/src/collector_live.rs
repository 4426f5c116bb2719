//! `collector-live`: simulated TVs stream a pre-built study into the
//! ingest collector while a `LiveStudy` keeps a report live.
//!
//! The study is cut into `SHARDS_PER_RUN` sessions per run
//! (`shard_study`); one pass streams all of them under a fresh study
//! name. One client thread per connection streams sessions back to back;
//! each TV waits for its BYE ack before it sends the next session
//! (closed loop). Each pass has one `LiveStudy`. Whenever all sessions
//! of a run have been acknowledged, the main thread brings it up to
//! date: `poll` ingests that run as a delta over the runs already
//! ingested, and `render` renders the report. That delta is timed, and
//! the sessions of the next run are released only once it is done, so
//! it is timed on a quiet collector rather than against whatever
//! sessions happen to be decoding. A pass's refresh time is the sum of
//! its five deltas; its final render is compared with the in-process
//! one. The first pass of a window is a warm-up; the window starts when
//! it has landed.

use crate::common::{digest_check, fnv1a, median, repeated_setup, Metrics, Shape, Trace, Window};
use crate::Workload;
use hbbtv_ingest::frame::parse_capture_batch;
use hbbtv_ingest::{
    shard_study, Command, IngestConfig, IngestServer, LiveStudy, SessionSpec, SimTvClient,
};
use hbbtv_study::report::StudyReport;
use hbbtv_study::{Ecosystem, StudyDataset, StudyHarness};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// World scale of the streamed study: ~7.3k exchanges in 58 visits.
const SCALE: f64 = 0.02;
/// Sessions per run (`shard_study`). Visits are not split, so four or
/// five sessions per pass hold one large broadcaster visit each (~0.7
/// to 1.4 MB of payload, the rest under ~0.25 MB). With 35 sessions
/// per pass the p90 tail (3.5 per pass) lands among them, away from
/// the border between them and the rest.
const SHARDS_PER_RUN: u32 = 7;
/// Client connections from this process. With two, a session's latency
/// depended on which other session it happened to overlap, and the p90
/// tail spread past its bound from run to run; one connection keeps
/// the collector's two-worker decode pool busy on its own.
const CONNECTIONS: usize = 1;
const SETUP_REPS: usize = 9;
/// Give up on a window whose warm-up pass has not landed by then.
const WARMUP_LIMIT: Duration = Duration::from_secs(90);

/// The `ingest.*` counters the traced run reports as deltas.
const COUNTERS: [&str; 7] = [
    "ingest.frames",
    "ingest.bytes",
    "ingest.exchanges",
    "ingest.backpressure_stalls",
    "ingest.sessions_completed",
    "ingest.sessions_rejected",
    "ingest.sessions_gc",
];

pub struct CollectorLive {
    eco: Ecosystem,
    /// One pass's sessions; each pass streams clones under its own
    /// study name.
    specs: Vec<SessionSpec>,
    server: IngestServer,
    /// Index of each spec's run within the pass, in spec order.
    run_of: Vec<usize>,
    /// Sessions per run.
    run_sessions: Vec<u64>,
    /// In-process render of the study, made once, untimed.
    reference: String,
    setup_s: f64,
    checks: (u64, u64),
    /// Next pass number; study names stay fresh across windows.
    next_pass: u64,
}

/// One streamed session as the client saw it.
struct Session {
    conn: usize,
    start: Instant,
    end: Instant,
    exchanges: u64,
    ok: bool,
}

/// The refreshes of one pass: for each of its runs, `LiveStudy::poll`
/// plus `render` once the run has landed.
#[derive(Default)]
struct Refresh {
    pass: u64,
    /// Summed over the pass's runs.
    poll_s: f64,
    render_s: f64,
    /// Last BYE ack of the pass's last run until `poll` returned.
    assemble_s: f64,
    /// The incremental engine's accounting after the last render:
    /// segments, spill writes, spill loads, delta recomputes, peak
    /// resident bytes.
    incremental: [f64; 5],
    ok: bool,
}

/// The highest stage (`pass * runs + run`) whose sessions the clients
/// may stream; the main thread raises it after each delta.
struct Gate {
    released: Mutex<u64>,
    raised: Condvar,
}

impl Gate {
    fn release(&self, stage: u64) {
        *self.released.lock().expect("gate lock") = stage;
        self.raised.notify_all();
    }

    /// Waits until `stage` is released; false if `stop` was set first.
    fn wait(&self, stage: u64, stop: &AtomicBool) -> bool {
        let mut released = self.released.lock().expect("gate lock");
        while *released < stage {
            if stop.load(Ordering::SeqCst) {
                return false;
            }
            released = self
                .raised
                .wait_timeout(released, Duration::from_millis(50))
                .expect("gate lock")
                .0;
        }
        true
    }
}

fn build(seed: u64) -> (Ecosystem, Vec<SessionSpec>, StudyDataset) {
    let eco = Ecosystem::with_scale(seed, SCALE);
    let ds = StudyHarness::new(&eco).run_all();
    let specs =
        shard_study("template", &ds, SHARDS_PER_RUN).expect("harness runs are visit-partitionable");
    (eco, specs, ds)
}

/// Digest of everything the clients send for one pass.
fn digest(specs: &[SessionSpec]) -> u64 {
    let client = SimTvClient::new();
    let mut bytes = Vec::new();
    for spec in specs {
        for frame in client.frames(spec).expect("harness specs are consistent") {
            frame.encode_into(&mut bytes);
        }
    }
    fnv1a(&bytes)
}

fn study_name(pass: u64) -> String {
    format!("pass-{pass}")
}

impl CollectorLive {
    pub fn setup(seed: u64) -> CollectorLive {
        let next_seed = digest(&build(seed.wrapping_add(1)).1);
        let mut digests = Vec::new();
        let ((eco, specs, ds, server), setup_s) = repeated_setup(
            SETUP_REPS,
            || {
                let (eco, specs, ds) = build(seed);
                let server = IngestServer::start(IngestConfig::default())
                    .expect("binding the collector on localhost");
                (eco, specs, ds, server)
            },
            |(_, specs, _, _)| digests.push(digest(specs)),
        );
        let reference = StudyReport::compute(&eco, &ds).render(&ds);
        let checks = digest_check("collector-live", &digests, next_seed);
        let mut run_of = Vec::new();
        let mut run_sessions: Vec<u64> = Vec::new();
        for (i, spec) in specs.iter().enumerate() {
            if i == 0 || spec.run != specs[i - 1].run {
                run_sessions.push(0);
            }
            run_of.push(run_sessions.len() - 1);
            *run_sessions.last_mut().expect("pushed above") += 1;
        }
        CollectorLive {
            eco,
            specs,
            run_of,
            run_sessions,
            server,
            reference,
            setup_s,
            checks,
            next_pass: 0,
        }
    }

    fn pass_exchanges(&self) -> u64 {
        self.specs.iter().map(|s| s.captures.len() as u64).sum()
    }

    /// Brings the pass's `LiveStudy` up to date once one of its runs has
    /// landed, timed: `poll` ingests the run, `render` renders the
    /// report. Adds the times to `refresh` and returns the render, and
    /// whether the poll ingested exactly that one run.
    fn delta(
        &self,
        live: &mut LiveStudy,
        refresh: &mut Refresh,
        last_ack: Instant,
        trace: &Trace,
    ) -> (String, bool) {
        let pass = refresh.pass;
        let id = trace.id();
        let start = Instant::now();
        let (ingested, poll_s) =
            trace.time(id, pass, "incremental.poll", || live.poll(&self.server));
        refresh.assemble_s = (Instant::now() - last_ack).as_secs_f64();
        let (text, render_s) =
            trace.time(id, pass, "incremental.render", || live.render(&self.eco));
        trace.record(id, 0, pass, "live.delta", start, Instant::now());
        refresh.poll_s += poll_s;
        refresh.render_s += render_s;
        (text, ingested == 1)
    }

    /// Encodes and decodes one pass outside the window, to attribute
    /// client encode and server decode cost: (encode s, decode s).
    fn attribute(&self, trace: &Trace) -> (f64, f64) {
        let client = SimTvClient::new();
        let id = trace.id();
        let t0 = Instant::now();
        let (frames, encode_s) = trace.time(id, 0, "ingest.encode", || {
            self.specs
                .iter()
                .map(|s| client.frames(s).expect("harness specs are consistent"))
                .collect::<Vec<_>>()
        });
        let (decoded, decode_s) = trace.time(id, 0, "ingest.decode", || {
            frames
                .iter()
                .flatten()
                .filter(|f| f.command == Command::Capture)
                .map(|f| parse_capture_batch(&f.payload).map_or(0, |b| b.len()))
                .sum::<usize>()
        });
        trace.record(id, 0, 0, "ingest.attribution", t0, Instant::now());
        assert_eq!(
            decoded as u64,
            self.pass_exchanges(),
            "decoded payloads carry every exchange"
        );
        (encode_s, decode_s)
    }

    /// Streams released sessions on `conn` until `stop`, reporting each
    /// run whose sessions are all acknowledged as (pass, run, last ack).
    fn client(
        &self,
        conn: usize,
        shared: &Shared,
        landed: mpsc::Sender<(u64, usize, Instant)>,
        trace: &Trace,
    ) -> Vec<Session> {
        let client = SimTvClient::new();
        let per_pass = self.specs.len() as u64;
        let runs = self.run_sessions.len() as u64;
        let mut mine = Vec::new();
        loop {
            let item = shared.next_item.fetch_add(1, Ordering::SeqCst);
            let pass = item / per_pass;
            let index = (item % per_pass) as usize;
            let stage = pass * runs + self.run_of[index] as u64;
            if !shared.gate.wait(stage, &shared.stop) || shared.stop.load(Ordering::SeqCst) {
                return mine;
            }
            let mut spec = self.specs[index].clone();
            spec.study = study_name(pass);
            let id = trace.id();
            let start = Instant::now();
            let result = client.stream(self.server.addr(), &spec);
            let end = Instant::now();
            trace.record(id, 0, item, "ingest.session", start, end);
            let exchanges = spec.captures.len() as u64;
            let ok = match &result {
                Ok(r) => r.acked_exchanges == exchanges && r.exchanges == exchanges,
                Err(e) => {
                    eprintln!("collector-live: session {item} failed: {e}");
                    false
                }
            };
            mine.push(Session {
                conn,
                start,
                end,
                exchanges,
                ok,
            });
            if ok {
                let run = self.run_of[index];
                let mut acked = shared.acked.lock().expect("ack table lock");
                let n = acked.entry((pass, run)).or_insert(0);
                *n += 1;
                if *n == self.run_sessions[run] {
                    let _ = landed.send((pass, run, end));
                }
            }
        }
    }
}

/// State the client threads share with the main thread during a window.
struct Shared {
    next_item: AtomicU64,
    gate: Gate,
    stop: AtomicBool,
    /// Acknowledged sessions per (pass, run).
    acked: Mutex<BTreeMap<(u64, usize), u64>>,
}

impl Workload for CollectorLive {
    fn shape(&self) -> Shape {
        Shape {
            callers: CONNECTIONS,
            input: format!(
                "scale {SCALE} study, {} sessions of ~{} exchanges per pass ({} exchanges), default IngestConfig and StreamOptions",
                self.specs.len(),
                self.pass_exchanges() / self.specs.len().max(1) as u64,
                self.pass_exchanges()
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
        let per_pass = self.specs.len() as u64;
        let runs = self.run_sessions.len();
        let first_pass = self.next_pass;
        let shared = Shared {
            next_item: AtomicU64::new(first_pass * per_pass),
            gate: Gate {
                released: Mutex::new(first_pass * runs as u64),
                raised: Condvar::new(),
            },
            stop: AtomicBool::new(false),
            acked: Mutex::new(BTreeMap::new()),
        };
        let rejected_before = self.server.rejections().len();
        let (tx, rx) = mpsc::channel::<(u64, usize, Instant)>();
        let this = &*self;

        let mut refreshes: Vec<Refresh> = Vec::new();
        let mut window_start: Option<Instant> = None;
        let mut counters_at_start = Vec::new();
        let sessions: Vec<Session> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..CONNECTIONS)
                .map(|conn| {
                    let (shared, tx) = (&shared, tx.clone());
                    scope.spawn(move || this.client(conn, shared, tx, trace))
                })
                .collect();
            drop(tx);

            // Runs stream one at a time (the gate), so one live study
            // and one pending refresh suffice.
            let mut live = LiveStudy::new(study_name(first_pass));
            let mut pending = Refresh {
                pass: first_pass,
                ok: true,
                ..Refresh::default()
            };
            let began = Instant::now();
            loop {
                let limit = match window_start {
                    Some(t0) => t0 + Duration::from_secs_f64(seconds),
                    None => began + WARMUP_LIMIT,
                };
                let now = Instant::now();
                if now >= limit {
                    break;
                }
                let (pass, run, last_ack) = match rx.recv_timeout(limit - now) {
                    Ok(landed) => landed,
                    Err(mpsc::RecvTimeoutError::Timeout) => continue,
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                };
                let (text, one_run) = this.delta(&mut live, &mut pending, last_ack, trace);
                pending.ok &= one_run;
                if run + 1 == runs {
                    let inc = live.incremental();
                    pending.incremental = [
                        inc.segments() as f64,
                        inc.spill_writes() as f64,
                        inc.spill_loads() as f64,
                        inc.delta_recomputes() as f64,
                        inc.peak_resident_bytes() as f64,
                    ];
                    pending.ok &= live.runs_ingested() == runs && text == this.reference;
                    let next = Refresh {
                        pass: pass + 1,
                        ok: true,
                        ..Refresh::default()
                    };
                    refreshes.push(std::mem::replace(&mut pending, next));
                    live = LiveStudy::new(study_name(pass + 1));
                    if pass == first_pass {
                        window_start = Some(Instant::now());
                        counters_at_start = COUNTERS
                            .iter()
                            .map(|c| this.server.telemetry().counter_value(c))
                            .collect();
                    }
                }
                shared.gate.release(pass * runs as u64 + run as u64 + 1);
            }
            shared.stop.store(true, Ordering::SeqCst);
            shared.gate.raised.notify_all();
            clients
                .into_iter()
                .flat_map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        self.next_pass = shared.next_item.load(Ordering::SeqCst).div_ceil(per_pass);

        let mut w = Window::default();
        let rejected = self.server.rejections().len() - rejected_before;
        w.attempted = sessions.len() as u64 + refreshes.len() as u64;
        w.failed = sessions.iter().filter(|s| !s.ok).count() as u64
            + refreshes.iter().filter(|r| !r.ok).count() as u64
            + rejected as u64;
        if rejected > 0 {
            eprintln!("collector-live: the collector rejected {rejected} session(s)");
        }
        let Some(t0) = window_start else {
            eprintln!("collector-live: the warm-up pass never landed");
            w.failed += 1;
            w.attempted += 1;
            w.elapsed = seconds;
            return w;
        };
        let t1 = t0 + Duration::from_secs_f64(seconds);
        let inside: Vec<&Session> = sessions
            .iter()
            .filter(|s| s.start >= t0 && s.end <= t1)
            .collect();
        w.ops = inside
            .iter()
            .map(|s| (s.end - s.start).as_secs_f64())
            .collect();
        let timed: Vec<&Refresh> = refreshes.iter().filter(|r| r.pass != first_pass).collect();
        w.refresh = timed.iter().map(|r| r.poll_s + r.render_s).collect();
        // Per connection, exchanges of its whole sessions in the window
        // over the span from its first start to its last end, so
        // sessions cut by the window edges do not skew the rate.
        let mut rate = 0.0;
        for conn in 0..CONNECTIONS {
            let mine: Vec<&&Session> = inside.iter().filter(|s| s.conn == conn).collect();
            if let (Some(first), Some(last)) = (mine.first(), mine.last()) {
                let span = (last.end - first.start).as_secs_f64();
                rate += mine.iter().map(|s| s.exchanges as f64).sum::<f64>() / span.max(1e-9);
            }
        }
        w.units = rate * seconds;
        w.elapsed = seconds;

        if trace.is_on() {
            let pick =
                |f: fn(&Refresh) -> f64| median(&timed.iter().map(|r| f(r)).collect::<Vec<_>>());
            layers.put("incremental.poll_s", pick(|r| r.poll_s), "s");
            layers.put("incremental.render_s", pick(|r| r.render_s), "s");
            layers.put("ingest.assemble_s", pick(|r| r.assemble_s), "s");
            if let Some(last) = timed.last() {
                let [segments, writes, loads, recomputes, peak] = last.incremental;
                layers.put("incremental.segments", segments, "count");
                layers.put("incremental.spill_writes", writes, "count");
                layers.put("incremental.spill_loads", loads, "count");
                layers.put("incremental.delta_recomputes", recomputes, "count");
                layers.put("incremental.peak_resident_mb", peak / 1048576.0, "MB");
            }
            let (encode_s, decode_s) = self.attribute(trace);
            let exchanges = self.pass_exchanges() as f64;
            let window_exchanges: f64 = inside.iter().map(|s| s.exchanges as f64).sum();
            let session_time: f64 = w.ops.iter().sum();
            layers.put("ingest.encode_s", encode_s, "s");
            layers.put("ingest.decode_s", decode_s, "s");
            layers.put(
                "ingest.decode_us_per_exchange",
                decode_s / exchanges * 1e6,
                "us",
            );
            // Single-threaded decode time of the window's exchanges over
            // the summed session time.
            layers.put(
                "ingest.decode_share",
                decode_s / exchanges * window_exchanges / session_time.max(1e-9),
                "ratio",
            );
            let delta: BTreeMap<&str, f64> = COUNTERS
                .iter()
                .zip(&counters_at_start)
                .map(|(name, before)| {
                    let now = self.server.telemetry().counter_value(name);
                    (*name, now.saturating_sub(*before) as f64)
                })
                .collect();
            for (name, value) in &delta {
                layers.put(*name, *value, "count");
            }
            layers.put(
                "ingest.stalls_per_frame",
                delta["ingest.backpressure_stalls"] / delta["ingest.frames"].max(1.0),
                "ratio",
            );
        }
        w
    }
}
