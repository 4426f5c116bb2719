//! Pieces every workload shares: the span recorder for traced runs,
//! sample statistics, the metric list a run prints, and small helpers.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span: a timed call into a layer, made from benchmark
/// code.
#[derive(Debug)]
pub struct SpanRec {
    pub id: u64,
    /// The span that caused this one; 0 for a root.
    pub parent: u64,
    /// The op this span belongs to; spans of one op share it.
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder. When off, every call is a no-op and
/// [`Trace::id`] returns 0, so untraced runs pay one branch per call.
pub struct Trace {
    on: bool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

impl Trace {
    pub fn new(on: bool) -> Trace {
        Trace {
            on,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// A fresh span id, taken before the span's children run so they
    /// can name it as their parent.
    pub fn id(&self) -> u64 {
        if self.on {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Records a finished span under an id from [`Trace::id`].
    pub fn record(
        &self,
        id: u64,
        parent: u64,
        op: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let rec = SpanRec {
            id,
            parent,
            op,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        };
        self.spans.lock().expect("span buffer lock").push(rec);
    }

    /// Times `f` as a span and returns its result and duration.
    pub fn time<T>(
        &self,
        parent: u64,
        op: u64,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.id();
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(id, parent, op, name, start, end);
        (out, (end - start).as_secs_f64())
    }

    pub fn take(&self) -> Vec<SpanRec> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer lock"))
    }
}

/// Per span name: count, total time and self time (total minus the
/// part of each span's interval its children cover), in seconds.
pub fn self_times(spans: &[SpanRec]) -> Vec<(&'static str, u64, f64, f64)> {
    use std::collections::{BTreeMap, HashMap};
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut by_name: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for s in spans {
        let total = s.end_ns.saturating_sub(s.start_ns);
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
        }
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += total as f64 / 1e9;
        e.2 += total.saturating_sub(covered) as f64 / 1e9;
    }
    by_name
        .into_iter()
        .map(|(n, (c, t, s))| (n, c, t, s))
        .collect()
}

/// Writes the spans as JSON lines plus a self-time summary to `path`.
pub fn write_trace(path: &str, spans: &[SpanRec]) -> std::io::Result<()> {
    let mut out = String::new();
    for s in spans {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
        );
    }
    for (name, count, total, own) in self_times(spans) {
        let _ = writeln!(
            out,
            "{{\"summary\":\"{name}\",\"count\":{count},\"total_s\":{total:.6},\"self_s\":{own:.6}}}"
        );
    }
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

/// Median (mean of the middle pair for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..1) and the number of samples above
/// its rank.
pub fn percentile(values: &[f64], p: f64) -> (f64, usize) {
    if values.is_empty() {
        return (0.0, 0);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    (v[rank - 1], v.len() - rank)
}

/// The tail percentile to report: `preferred` if at least ten samples
/// lie beyond it, else the highest lower rung that has ten.
pub fn tail(values: &[f64], preferred: f64) -> Tail {
    let ladder = [0.999, 0.99, 0.95, 0.9, 0.75, 0.5];
    for &p in ladder.iter().filter(|&&p| p <= preferred) {
        let (value, beyond) = percentile(values, p);
        if beyond >= 10 {
            return Tail { p, value, beyond };
        }
    }
    let (value, beyond) = percentile(values, 0.5);
    Tail {
        p: 0.5,
        value,
        beyond,
    }
}

/// A reported tail percentile with its support.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub p: f64,
    pub value: f64,
    pub beyond: usize,
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over `bytes`: the input digest of the determinism check.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs `setup` `reps` times and returns the last result with the
/// median time of all repetitions. `inspect` sees each result, untimed;
/// earlier results are dropped (and their threads stopped) before the
/// next repetition starts.
pub fn repeated_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> T,
    mut inspect: impl FnMut(&T),
) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t = Instant::now();
        let out = setup();
        times.push(t.elapsed().as_secs_f64());
        inspect(&out);
        last = Some(out);
    }
    (last.expect("at least one repetition"), median(&times))
}

/// The determinism check of generated inputs: the digests made from the
/// run's own seed must all agree, and the digest from the next seed
/// must differ. Returns (attempted, failed).
pub fn digest_check(workload: &str, same_seed: &[u64], next_seed: u64) -> (u64, u64) {
    let failed = u64::from(same_seed.windows(2).any(|w| w[0] != w[1]))
        + u64::from(same_seed.contains(&next_seed));
    if failed > 0 {
        eprintln!("{workload}: input digest check failed: {same_seed:x?} from the seed, {next_seed:x} from the next");
    }
    (2, failed)
}

/// Metrics of one run, in print order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// What one measuring window produced.
#[derive(Debug, Default)]
pub struct Window {
    /// Op latencies, seconds.
    pub ops: Vec<f64>,
    /// Refresh latencies, seconds.
    pub refresh: Vec<f64>,
    /// Work units completed (exchanges, URL checks).
    pub units: f64,
    /// Seconds over which `units` were completed.
    pub elapsed: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// The load shape behind a window's numbers.
#[derive(Debug)]
pub struct Shape {
    pub callers: usize,
    pub input: String,
    pub tail_preferred: f64,
}

/// The end-to-end metrics of a window, plus its tail choice.
pub fn end_to_end(w: &Window, shape: &Shape, setup_s: f64) -> (Metrics, Tail) {
    let t = tail(&w.ops, shape.tail_preferred);
    let mut m = Metrics::default();
    m.put("setup_s", setup_s, "s");
    m.put("throughput_per_s", w.units / w.elapsed.max(1e-9), "1/s");
    m.put("op_p50_s", median(&w.ops), "s");
    m.put("op_tail_s", t.value, "s");
    m.put("refresh_s", median(&w.refresh), "s");
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    (m, t)
}

/// Per-layer metrics that describe the load shape itself.
pub fn shape_metrics(m: &mut Metrics, w: &Window, shape: &Shape, t: Tail) {
    m.put("shape.callers", shape.callers as f64, "count");
    m.put("shape.op_samples", w.ops.len() as f64, "count");
    m.put("shape.tail_percentile", t.p * 100.0, "%");
    m.put("shape.tail_samples_beyond", t.beyond as f64, "count");
    m.put("shape.refresh_samples", w.refresh.len() as f64, "count");
}

/// One line on stderr describing how the numbers were produced.
pub fn describe(workload: &str, w: &Window, shape: &Shape, t: Tail) {
    eprintln!(
        "{workload}: closed loop, {} caller(s), input {}; {} ops (p50 and p{} with {} beyond), {} refreshes, {} units in {:.2} s, {}/{} failed",
        shape.callers,
        shape.input,
        w.ops.len(),
        t.p * 100.0,
        t.beyond,
        w.refresh.len(),
        w.units,
        w.elapsed,
        w.failed,
        w.attempted
    );
}
