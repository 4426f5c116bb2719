//! `list-match`: the request URLs of a captured study checked against
//! the five bundled Table III lists plus a 10^5-rule synthetic list.
//! Each round first reloads the 10^5-rule engine from its HBFL image
//! (the write path of a list update), then checks every URL against all
//! six lists in fixed-size batches (the read path). A batch is spread
//! over the program's analysis pool (`par_map`) in small chunks, the way
//! the analysis fans out its own per-row work.

use crate::common::{digest_check, fnv1a, median, repeated_setup, Metrics, Shape, Trace, Window};
use crate::Workload;
use hbbtv_bench::matcher_workload::{synthetic_list, url_workload};
use hbbtv_filterlists::{bundled, stats, FilterList, RequestContext, ResourceKind, UrlView};
use hbbtv_net::Url;
use hbbtv_study::analysis::classify::resource_kind_of_content;
use hbbtv_study::analysis::parallel::Runtime;
use hbbtv_study::analysis::{par_map, FirstPartyMap};
use hbbtv_study::{Ecosystem, StudyHarness};
use std::time::{Duration, Instant};

/// World scale of the captured study: ~34k request URLs.
const SCALE: f64 = 0.1;
/// Rules in the synthetic list.
const RULES: usize = 100_000;
/// URL checks per op, about: a round's URLs are cut into equal batches
/// of close to this size, so no op is a short remainder.
const BATCH: usize = 4096;
/// URL checks per pool task within a batch.
const CHUNK: usize = 64;
const SETUP_REPS: usize = 3;
/// Distinct study queries the linear oracle checks against the
/// 10^5-rule list (it costs milliseconds per URL there); the bundled
/// lists are checked on every distinct query.
const LINEAR_SAMPLE: usize = 128;
/// URLs from the synthetic list's own domain universe
/// (`matcher_workload::url_workload`). The study's URLs miss that list,
/// so these probes are what shows a reloaded engine still finds its
/// hits.
const PROBES: usize = 128;

/// One request as the engine sees it: serialized once, like the
/// analysis frame does.
struct Query {
    url: Url,
    text: String,
    ctx: RequestContext,
}

/// Everything built before timing starts.
struct Inputs {
    queries: Vec<Query>,
    probes: Vec<Query>,
    bundled: Vec<FilterList>,
    synthetic: FilterList,
    image: Vec<u8>,
    parse_s: f64,
}

fn build(seed: u64) -> Inputs {
    let eco = Ecosystem::with_scale(seed, SCALE);
    let ds = StudyHarness::new(&eco).run_all();
    let fp = FirstPartyMap::identify(&ds);
    let queries = ds
        .runs
        .iter()
        .flat_map(|r| &r.captures)
        .map(|c| {
            let url = c.request.url.clone();
            let third_party = c
                .channel
                .is_none_or(|ch| fp.is_third_party(ch, url.etld1()));
            let ctx = RequestContext {
                third_party,
                kind: resource_kind_of_content(c.response.content_type),
            };
            Query {
                text: url.to_text(),
                url,
                ctx,
            }
        })
        .collect();
    let kinds = [
        ResourceKind::Image,
        ResourceKind::Script,
        ResourceKind::Other,
    ];
    let probes = url_workload(PROBES, RULES, seed)
        .into_iter()
        .enumerate()
        .map(|(i, url)| Query {
            text: url.to_text(),
            url,
            ctx: RequestContext {
                third_party: i % 2 == 0,
                kind: kinds[i % kinds.len()],
            },
        })
        .collect();
    let bundled = vec![
        FilterList::parse_hosts_list("Pi-hole", bundled::PIHOLE_TEXT),
        FilterList::parse_adblock("EasyList", bundled::EASYLIST_TEXT),
        FilterList::parse_adblock("EasyPrivacy", bundled::EASYPRIVACY_TEXT),
        FilterList::parse_hosts_list("Perflyst SmartTV", bundled::PERFLYST_TEXT),
        FilterList::parse_hosts_list("Kamran SmartTV", bundled::KAMRAN_TEXT),
    ];
    let t = Instant::now();
    let synthetic = synthetic_list(RULES, seed);
    let parse_s = t.elapsed().as_secs_f64();
    let image = synthetic.to_prebuilt();
    Inputs {
        queries,
        probes,
        bundled,
        synthetic,
        image,
        parse_s,
    }
}

fn digest(inputs: &Inputs) -> u64 {
    let mut bytes = inputs.image.clone();
    for q in inputs.queries.iter().chain(&inputs.probes) {
        bytes.extend_from_slice(q.text.as_bytes());
        bytes.push(u8::from(q.ctx.third_party));
        bytes.extend_from_slice(format!("{:?}", q.ctx.kind).as_bytes());
    }
    fnv1a(&bytes)
}

/// `engine`'s verdict on every probe.
fn probe(engine: &FilterList, probes: &[Query]) -> Vec<bool> {
    probes
        .iter()
        .map(|q| {
            engine.matches_view(
                &UrlView::new(&q.text, q.url.host(), q.url.etld1().as_str()),
                q.ctx,
            )
        })
        .collect()
}

/// Checks `queries` against the bundled lists and `engine`: (bundled
/// hits, engine hits).
fn check(bundled: &[FilterList], engine: &FilterList, queries: &[Query]) -> (u64, u64) {
    let (mut b, mut s) = (0, 0);
    for q in queries {
        let view = UrlView::new(&q.text, q.url.host(), q.url.etld1().as_str());
        for list in bundled {
            b += u64::from(list.matches_view(&view, q.ctx));
        }
        s += u64::from(engine.matches_view(&view, q.ctx));
    }
    (b, s)
}

fn agrees_with_linear(list: &FilterList, q: &Query) -> bool {
    let view = UrlView::new(&q.text, q.url.host(), q.url.etld1().as_str());
    let agrees = list.matches_view(&view, q.ctx) == list.matches_linear(&q.url, q.ctx);
    if !agrees {
        eprintln!(
            "list-match: {} disagrees with its linear scan on {}",
            list.name(),
            q.text
        );
    }
    agrees
}

pub struct ListMatch {
    inputs: Inputs,
    setup_s: f64,
    parse_times: Vec<f64>,
    /// Hit counts of the in-memory engines over all queries.
    expected: (u64, u64),
    /// The in-memory synthetic engine's verdict on every probe.
    expected_probes: Vec<bool>,
    checks: (u64, u64),
}

impl ListMatch {
    pub fn setup(seed: u64) -> ListMatch {
        let next_seed = digest(&build(seed.wrapping_add(1)));
        let mut digests = Vec::new();
        let mut parse_times = Vec::new();
        let (inputs, setup_s) = repeated_setup(
            SETUP_REPS,
            || build(seed),
            |inputs| {
                digests.push(digest(inputs));
                parse_times.push(inputs.parse_s);
            },
        );
        let expected = check(&inputs.bundled, &inputs.synthetic, &inputs.queries);
        let expected_probes = probe(&inputs.synthetic, &inputs.probes);

        // Oracle: the indexed verdicts equal the linear scan.
        let mut attempted = 0;
        let mut failed = 0;
        let mut distinct: Vec<&Query> = inputs.queries.iter().collect();
        distinct.sort_by(|a, b| {
            (&a.text, a.ctx.third_party, a.ctx.kind as u8).cmp(&(
                &b.text,
                b.ctx.third_party,
                b.ctx.kind as u8,
            ))
        });
        distinct.dedup_by(|a, b| a.text == b.text && a.ctx == b.ctx);
        for (i, q) in distinct.iter().enumerate() {
            let mut lists: Vec<&FilterList> = inputs.bundled.iter().collect();
            // An even spread of the distinct queries for the big list.
            if i % distinct.len().div_ceil(LINEAR_SAMPLE).max(1) == 0 {
                lists.push(&inputs.synthetic);
            }
            for list in lists {
                attempted += 1;
                failed += u64::from(!agrees_with_linear(list, q));
            }
        }
        for q in &inputs.probes {
            attempted += 1;
            failed += u64::from(!agrees_with_linear(&inputs.synthetic, q));
        }

        let (a, f) = digest_check("list-match", &digests, next_seed);
        attempted += a;
        failed += f;
        ListMatch {
            inputs,
            setup_s,
            parse_times,
            expected,
            expected_probes,
            checks: (attempted, failed),
        }
    }

    fn batch_size(&self) -> usize {
        let len = self.inputs.queries.len();
        len.div_ceil((len as f64 / BATCH as f64).round().max(1.0) as usize)
    }
}

impl Workload for ListMatch {
    fn shape(&self) -> Shape {
        Shape {
            callers: 1,
            input: format!(
                "{} URLs x 6 lists (5 bundled + {RULES}-rule synthetic), {} URL checks per op on a {}-worker pool, one HBFL reload per round",
                self.inputs.queries.len(),
                self.batch_size(),
                Runtime::global().workers()
            ),
            tail_preferred: 0.99,
        }
    }

    fn setup_s(&self) -> f64 {
        self.setup_s
    }

    fn setup_checks(&self) -> (u64, u64) {
        self.checks
    }

    fn window(&mut self, seconds: f64, trace: &Trace, layers: &mut Metrics) -> Window {
        let inputs = &self.inputs;
        let mut w = Window::default();
        if trace.is_on() {
            stats::reset();
            stats::enable();
        }
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let mut round = 0u64;
        'rounds: while Instant::now() < deadline {
            let round_id = trace.id();
            let t0 = Instant::now();
            let (engine, load_s) = trace.time(round_id, round, "filterlists.reload", || {
                FilterList::from_prebuilt(&inputs.image)
            });
            w.refresh.push(load_s);
            let engine = match engine {
                Ok(e) => e,
                Err(e) => {
                    eprintln!("list-match: HBFL reload failed: {e}");
                    w.attempted += 1;
                    w.failed += 1;
                    continue;
                }
            };
            let mut hits = (0, 0);
            for batch in inputs.queries.chunks(self.batch_size()) {
                if Instant::now() >= deadline {
                    w.elapsed = start.elapsed().as_secs_f64();
                    trace.record(round_id, 0, round, "list.round", t0, Instant::now());
                    break 'rounds;
                }
                let (h, op_s) = trace.time(round_id, round, "filterlists.check_batch", || {
                    let chunks: Vec<&[Query]> = batch.chunks(CHUNK).collect();
                    par_map(&chunks, |_, c| check(&inputs.bundled, &engine, c))
                        .into_iter()
                        .fold((0, 0), |a, h| (a.0 + h.0, a.1 + h.1))
                });
                hits.0 += h.0;
                hits.1 += h.1;
                w.ops.push(op_s);
                w.units += batch.len() as f64;
            }
            // A reloaded engine must find exactly what the in-memory one
            // found.
            let probes_agree = probe(&engine, &inputs.probes) == self.expected_probes;
            trace.record(round_id, 0, round, "list.round", t0, Instant::now());
            w.attempted += 1;
            if hits != self.expected || !probes_agree {
                w.failed += 1;
                eprintln!(
                    "list-match: round {round} hits {hits:?}, expected {:?}; probes agree: {probes_agree}",
                    self.expected
                );
            }
            round += 1;
        }
        if w.elapsed == 0.0 {
            w.elapsed = start.elapsed().as_secs_f64();
        }
        if trace.is_on() {
            stats::disable();
            let s = stats::snapshot();
            let engines = (s.engines_built + s.engines_prebuilt).max(1);
            layers.put("filterlists.queries", s.queries as f64, "count");
            layers.put("filterlists.bucket_probes", s.bucket_probes as f64, "count");
            layers.put(
                "filterlists.bucket_candidates",
                s.bucket_candidates as f64,
                "count",
            );
            layers.put(
                "filterlists.residual_checks",
                s.residual_checks as f64,
                "count",
            );
            layers.put(
                "filterlists.residual_walks",
                s.residual_walks as f64,
                "count",
            );
            layers.put("filterlists.rules_per_query", s.rules_per_query(), "ratio");
            layers.put(
                "filterlists.hit_ratio",
                s.hits as f64 / (s.queries.max(1)) as f64,
                "ratio",
            );
            layers.put(
                "filterlists.first_match_p99",
                s.first_match_distance.p99 as f64,
                "count",
            );
            layers.put("filterlists.parse_s", median(&self.parse_times), "s");
            layers.put("filterlists.load_s", median(&w.refresh), "s");
            layers.put(
                "filterlists.image_mb",
                inputs.image.len() as f64 / 1048576.0,
                "MB",
            );
            layers.put(
                "automaton.states",
                (s.automaton_states / engines) as f64,
                "count",
            );
        }
        w
    }
}
