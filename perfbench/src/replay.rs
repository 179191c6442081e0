//! The traced pass: replays a workload's own inputs through the public
//! functions the daemon calls, in the daemon's order, with spans recorded
//! only here. Two sub-passes:
//!
//! * the **component pass** re-enacts one daemon request path on one
//!   thread — HTTP parse → v2 parse → hex decode → keccak → cache lookup →
//!   (per lane, per batch of the observed size) histogram and trace
//!   featurisation → model walk → render → cache insert — and records a
//!   span around each call;
//! * the **scheduler pass** drives an in-process [`Scheduler`] with the
//!   daemon's options at the workload's concurrency and times
//!   `Connection::submit` → `Responses::recv`.
//!
//! The scheduler's self time is its round trip minus the component spans
//! it contains; the transport residual is the socket figure minus the
//! in-process round trip. Spans and residuals together account for the
//! untraced end-to-end numbers.

use crate::stats;
use phishinghook_evm::explorer::{out_of_budget, Explorer, ExplorerConfig};
use phishinghook_evm::keccak::{from_hex, Digest};
use phishinghook_features::{HistogramExtractor, TraceExtractor};
use phishinghook_ml::Matrix;
use phishinghook_models::{Detector, DetectorRegistry, Scanner};
use phishinghook_serve::cache::{CachedVerdict, VerdictCache};
use phishinghook_serve::proto::{parse_request_v2, render_verdict_v2, WirePayload};
use phishinghook_serve::{http, shard_of, Admission, Protocol, Scheduler, SchedulerOptions};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// Spans that run once per scored batch; their self time is reported per
/// scored row, every other span's per request.
pub const PER_ROW: [&str; 4] = ["batch", "features.hist", "features.trace", "ml.walk"];

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name (the per-layer metric it feeds).
    pub name: &'static str,
    /// Request index (or batch ordinal for batch spans).
    pub req: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
}

/// In-memory span recorder; written out once the pass ends. When off it
/// only runs the closures, which is how the tracing overhead is measured.
pub struct Tracer {
    /// Whether spans are being recorded.
    pub on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder (`on`) or a pass-through (`!on`).
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, req: u64, parent: Option<usize>) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let s = self.open(name, req, parent);
        let out = f();
        self.close(s);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-layer self time: each span's duration minus the part its children
/// cover, summed by name, with the span count. Keys sort by name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (f64, u64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
    for (s, child) in spans.iter().zip(child_ns) {
        let entry = out.entry(s.name).or_default();
        entry.0 += (s.end_ns - s.start_ns).saturating_sub(child) as f64 / 1e3;
        entry.1 += 1;
    }
    out
}

/// Writes spans as JSON lines.
///
/// # Errors
/// File errors.
pub fn write_spans(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"req\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.req, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// One replayed request: the exact line (JSONL object or bare hex) the
/// client sent, and for HTTP the raw request bytes around it.
#[derive(Debug, Clone)]
pub struct Item {
    /// The v2 request line.
    pub line: String,
    /// The full HTTP request, for the HTTP front door.
    pub http: Option<Vec<u8>>,
}

/// How the daemon under test was configured, as far as the replay needs.
#[derive(Debug, Clone)]
pub struct Shape {
    /// The daemon's scheduler options.
    pub opts: SchedulerOptions,
    /// Rows per batch the daemon formed on average (Δscored ÷ Δbatches).
    pub batch_rows: usize,
    /// Concurrent client connections.
    pub conns: usize,
    /// Bulk mode: requests in flight on the one stdin stream.
    pub window: Option<usize>,
}

/// What the component pass measured, per row or per request, in µs.
#[derive(Debug, Default, Clone)]
pub struct Components {
    /// Self µs per request by layer name (batch layers per scored row).
    pub per_item_us: BTreeMap<&'static str, f64>,
    /// Requests replayed.
    pub requests: usize,
    /// Rows scored (cache misses).
    pub rows: usize,
    /// Wall time of the pass.
    pub wall: Duration,
    /// Spans recorded.
    pub spans: Vec<Span>,
}

/// The component pass over `items` (see the module docs). The first
/// `warm` items run untraced and uncounted, so a cache starts the measured
/// part as full as the daemon's was.
///
/// # Panics
/// Panics when the replayed walk disagrees with the scanner on the first
/// batch — the replay would then not be timing what the daemon runs.
pub fn components(
    scanner: &Scanner,
    items: &[Item],
    warm: usize,
    shape: &Shape,
    trace_on: bool,
) -> Components {
    let mut tracer = Tracer::new(trace_on && warm == 0);
    let model = scanner.model();
    let hist: Option<&HistogramExtractor> = model
        .features()
        .includes_histogram()
        .then(|| model.extractor())
        .flatten();
    let trace = model.features().includes_trace().then(TraceExtractor::new);
    let names = scanner.model_names();
    let lanes = shape.opts.shards.max(1);
    let lane_bytes = shape.opts.cache_bytes / lanes;
    let caches: Vec<Option<VerdictCache>> = (0..lanes)
        .map(|_| (lane_bytes > 0).then(|| VerdictCache::new(lane_bytes)))
        .collect();
    let mut pending: Vec<Vec<Pending>> = vec![Vec::new(); lanes];
    let mut out = Components::default();
    let mut checked = false;
    let mut batch_no = 0u64;
    let mut t0 = Instant::now();

    let mut flush = |tracer: &mut Tracer, batch: Vec<Pending>, lane: usize| {
        if batch.is_empty() {
            return;
        }
        batch_no += 1;
        let root = tracer.open("batch", batch_no, None);
        let codes: Vec<&[u8]> = batch.iter().map(|p| p.code.as_slice()).collect();
        let mut mh = Matrix::zeros(codes.len(), hist.map_or(0, HistogramExtractor::n_features));
        let mut mt = Matrix::zeros(
            codes.len(),
            trace.as_ref().map_or(0, TraceExtractor::n_features),
        );
        if let Some(h) = hist {
            tracer.span("features.hist", batch_no, root, || {
                h.transform_into(&codes, &mut mh)
            });
        }
        if let Some(t) = &trace {
            tracer.span("features.trace", batch_no, root, || {
                t.transform_into(&codes, &mut mt)
            });
        }
        // The detector lays the channels side by side: histogram, then trace.
        let mut x = Matrix::zeros(codes.len(), mh.cols() + mt.cols());
        for r in 0..codes.len() {
            let (h, t) = x.row_mut(r).split_at_mut(mh.cols());
            h.copy_from_slice(mh.row(r));
            t.copy_from_slice(mt.row(r));
        }
        let (combined, members) =
            tracer.span("ml.walk", batch_no, root, || model.predict_with_members(&x));
        if !checked {
            let (want, _) = scanner.worker().score_with_members(&codes);
            assert!(
                want.iter()
                    .zip(&combined)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "replayed walk disagrees with Scanner::score_with_members"
            );
            checked = true;
        }
        let mut line = String::new();
        for (row, p) in batch.iter().enumerate() {
            let per_model: Vec<f64> = members.iter().map(|(_, probs)| probs[row]).collect();
            line.clear();
            tracer.span("serve.proto.render", p.req, root, || {
                render_verdict_v2(
                    &mut line,
                    &p.id,
                    None,
                    combined[row],
                    scanner.model_version(),
                    &names,
                    &per_model,
                )
            });
            if let (Some(cache), Some(digest)) = (&caches[lane], p.digest) {
                let value = CachedVerdict {
                    proba: combined[row],
                    per_model,
                };
                tracer.span("serve.cache.insert", p.req, root, || {
                    cache.insert(digest, value)
                });
            }
        }
        tracer.close(root);
    };

    for (i, item) in items.iter().enumerate() {
        if i == warm && warm > 0 {
            // Score what the warm-up left queued, then start measuring.
            for (lane, batch) in pending.iter_mut().enumerate() {
                flush(&mut tracer, std::mem::take(batch), lane);
            }
            tracer.on = trace_on;
            t0 = Instant::now();
        }
        let measuring = i >= warm;
        let req = i as u64;
        let root = tracer.open("request", req, None);
        let line = match &item.http {
            Some(raw) => {
                let parsed = tracer.span("serve.http.parse", req, root, || {
                    http::read_request(&mut raw.as_slice())
                });
                match parsed {
                    Ok(http::RequestOutcome::Request(r)) => {
                        String::from_utf8_lossy(&r.body).into_owned()
                    }
                    other => panic!("replayed HTTP request did not parse: {other:?}"),
                }
            }
            None => item.line.clone(),
        };
        let wire = tracer
            .span("serve.proto.parse", req, root, || {
                parse_request_v2(&line, &i.to_string())
            })
            .expect("replayed request parses");
        let WirePayload::Bytecode(hex) = &wire.payload else {
            panic!("replayed request is not a bytecode request")
        };
        let code = tracer
            .span("serve.proto.decode", req, root, || from_hex(hex.trim()))
            .expect("replayed request is valid hex");
        // The daemon hashes only when the cache or the shard router needs it.
        let digest = (lane_bytes > 0 || lanes > 1)
            .then(|| tracer.span("evm.keccak", req, root, || Digest::of(&code)));
        let lane = digest.as_ref().map_or(0, |d| shard_of(d, lanes));
        let hit = match (&caches[lane], &digest) {
            (Some(cache), Some(d)) => {
                tracer.span("serve.cache.lookup", req, root, || cache.lookup(d))
            }
            _ => None,
        };
        if let Some(v) = hit {
            let mut text = String::new();
            tracer.span("serve.proto.render", req, root, || {
                render_verdict_v2(
                    &mut text,
                    &wire.id,
                    None,
                    v.proba,
                    scanner.model_version(),
                    &names,
                    &v.per_model,
                )
            });
        } else {
            out.rows += usize::from(measuring);
            pending[lane].push(Pending {
                req,
                id: wire.id,
                code,
                digest,
            });
        }
        tracer.close(root);
        if pending[lane].len() >= shape.batch_rows.max(1) {
            flush(&mut tracer, std::mem::take(&mut pending[lane]), lane);
        }
    }
    for (lane, batch) in pending.into_iter().enumerate() {
        flush(&mut tracer, batch, lane);
    }
    out.wall = t0.elapsed();
    out.requests = items.len().saturating_sub(warm);
    let rows = out.rows.max(1) as f64;
    let requests = out.requests.max(1) as f64;
    for (name, (us, _)) in self_times(tracer.spans()) {
        let per = if PER_ROW.contains(&name) {
            us / rows
        } else {
            us / requests
        };
        out.per_item_us.insert(name, per);
    }
    out.spans = tracer.spans;
    out
}

/// A cache miss waiting for its lane's batch to fill.
#[derive(Debug, Clone)]
struct Pending {
    req: u64,
    id: String,
    code: Vec<u8>,
    digest: Option<Digest>,
}

/// What the scheduler pass measured.
#[derive(Debug, Default, Clone)]
pub struct RoundTrips {
    /// `submit` → `recv` per measured request, in µs.
    pub us: Vec<f64>,
    /// Measured requests completed per second.
    pub throughput: f64,
}

/// Drives an in-process scheduler with `shape.opts` over `items`: closed
/// loop on `shape.conns` connections, or for bulk one pipelined stream with
/// `shape.window` requests in flight. The first `warm` items only warm the
/// cache; the rest are timed for at most `budget`.
pub fn round_trips(
    scanner: &Scanner,
    items: &[Item],
    warm: usize,
    shape: &Shape,
    budget: Duration,
) -> RoundTrips {
    let scheduler = Scheduler::new(scanner, &shape.opts);
    let (us, wall): (Vec<f64>, f64) = if let Some(window) = shape.window {
        let (mut conn, responses) = scheduler.connect(Protocol::V2);
        let mut sent: Vec<Instant> = Vec::new();
        let mut us = Vec::new();
        let t0 = Instant::now();
        for item in items {
            if t0.elapsed() > budget {
                break;
            }
            sent.push(Instant::now());
            conn.submit(&item.line, Admission::Block);
            if sent.len() - us.len() >= window {
                responses.recv().expect("in-order response");
                us.push(sent[us.len()].elapsed().as_secs_f64() * 1e6);
            }
        }
        conn.finish();
        while us.len() < sent.len() {
            responses.recv().expect("in-order response");
            us.push(sent[us.len()].elapsed().as_secs_f64() * 1e6);
        }
        (us, t0.elapsed().as_secs_f64())
    } else {
        let conns = shape.conns.max(1);
        let per_conn: Vec<(Vec<f64>, f64)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..conns)
                .map(|c| {
                    let scheduler = &scheduler;
                    s.spawn(move || {
                        let (mut conn, responses) = scheduler.connect(Protocol::V2);
                        let mut us = Vec::new();
                        let mut started: Option<Instant> = None;
                        for (i, item) in items.iter().enumerate().skip(c).step_by(conns) {
                            let t = Instant::now();
                            if i >= warm && *started.get_or_insert(t) + budget < t {
                                break;
                            }
                            conn.submit(&item.line, Admission::Shed);
                            responses.recv().expect("response");
                            if i >= warm {
                                us.push(t.elapsed().as_secs_f64() * 1e6);
                            }
                        }
                        conn.finish();
                        (us, started.map_or(0.0, |t| t.elapsed().as_secs_f64()))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("replay client"))
                .collect()
        });
        let wall = per_conn.iter().map(|(_, w)| *w).fold(0.0, f64::max);
        (per_conn.into_iter().flat_map(|(us, _)| us).collect(), wall)
    };
    drop(scheduler);
    RoundTrips {
        throughput: us.len() as f64 / wall.max(1e-9),
        us,
    }
}

/// Explorer work over `codes`: mean instructions per contract and the
/// share of selector runs that ended on the gas or step budget.
pub fn explorer_counts(codes: &[Vec<u8>]) -> (f64, f64) {
    let explorer = Explorer::new(ExplorerConfig::default());
    let (mut steps, mut runs, mut exhausted) = (0u64, 0u64, 0u64);
    for code in codes {
        let trace = explorer.explore(code);
        for run in &trace.runs {
            steps += run.steps;
            runs += 1;
            exhausted += u64::from(out_of_budget(&run.status));
        }
    }
    (
        steps as f64 / codes.len().max(1) as f64,
        exhausted as f64 / runs.max(1) as f64,
    )
}

/// Training split into featurisation and model fitting, in seconds: the
/// histogram fit plus one featurisation of the training set, and the
/// whole `fit` minus that.
pub fn fit_times(spec: &str, codes: &[&[u8]], labels: &[usize], trace: bool) -> (f64, f64) {
    let t = Instant::now();
    let hist = HistogramExtractor::fit(codes);
    std::hint::black_box(hist.transform(codes));
    if trace {
        std::hint::black_box(TraceExtractor::new().transform(codes));
    }
    let features = t.elapsed().as_secs_f64();
    let mut det = DetectorRegistry::global()
        .build_str(spec, 7)
        .expect("workload spec parses");
    let t = Instant::now();
    det.fit(codes, labels);
    let fit = t.elapsed().as_secs_f64();
    (features, (fit - features).max(0.0))
}

/// Median restore time of the snapshot, in ms, over `reps` restores.
pub fn restore_ms(bytes: &[u8], reps: usize) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(Scanner::from_snapshot_bytes(bytes).expect("snapshot restores"));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&times)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            req: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("request", None, 0, 10_000),
            span("parse", Some(0), 1_000, 3_000),
            span("walk", Some(0), 3_000, 9_000),
            span("request", None, 20_000, 21_000),
        ];
        let t = self_times(&spans);
        assert_eq!(t["request"], (3.0, 2));
        assert_eq!(t["parse"], (2.0, 1));
        assert_eq!(t["walk"], (6.0, 1));
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", 0, None, || 5), 5);
        assert!(off.spans().is_empty());
        let mut on = Tracer::new(true);
        let root = on.open("a", 1, None);
        on.span("b", 1, root, || ());
        on.close(root);
        assert_eq!(on.spans().len(), 2);
        assert_eq!(on.spans()[1].parent, Some(0));
        assert!(on.spans()[0].end_ns >= on.spans()[1].end_ns);
    }
}
