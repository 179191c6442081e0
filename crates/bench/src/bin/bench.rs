//! The perf-trajectory benchmark: measures the disasm→features→inference
//! spine against the seed reference paths and emits `BENCH_pipeline.json`,
//! the repository's first committed performance datapoint.
//!
//! ```text
//! cargo run --release -p phishinghook-bench --bin bench             # full
//! cargo run --release -p phishinghook-bench --bin bench -- --quick  # CI smoke
//! cargo run --release -p phishinghook-bench --bin bench -- --contracts 512 --out results/BENCH_pipeline.json
//! ```
//!
//! JSON schema (`phishinghook-bench-pipeline/v1`): see the README's
//! "Performance" section. All times are best-of-`reps` wall-clock seconds
//! for one full pass over the corpus; throughputs derive from the same
//! pass.

use phishinghook_bench::load::{self, run_load, LoadConfig};
use phishinghook_bench::seed_paths;
use phishinghook_data::{Corpus, CorpusConfig};
use phishinghook_evm::disasm::disasm_iter;
use phishinghook_evm::keccak::{from_hex, to_hex, Digest};
use phishinghook_features::{HistogramExtractor, TraceExtractor};
use phishinghook_ml::classical::forest::ForestConfig;
use phishinghook_ml::{Classifier, Matrix, RandomForest};
use phishinghook_models::{Detector, DetectorRegistry, Scanner};
use phishinghook_serve::{
    serve_http, Admission, CachedVerdict, Protocol, Scheduler, SchedulerOptions, TcpLimits,
    VerdictCache,
};
use std::time::Instant;

struct Args {
    quick: bool,
    check_readme: bool,
    contracts: usize,
    out: String,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let quick = argv.iter().any(|a| a == "--quick");
    let check_readme = argv.iter().any(|a| a == "--check-readme");
    let mut args = Args {
        quick,
        check_readme,
        contracts: if quick { 96 } else { 512 },
        out: "BENCH_pipeline.json".to_owned(),
    };
    let mut iter = argv.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--contracts" => {
                if let Some(v) = iter.next().and_then(|v| v.parse().ok()) {
                    args.contracts = v;
                }
            }
            "--out" => {
                if let Some(v) = iter.next() {
                    args.out = v.clone();
                }
            }
            _ => {}
        }
    }
    args
}

/// One closed-loop HTTP client: sends each pre-rendered request on a
/// single keep-alive connection and fully reads each response before
/// sending the next. Returns how many answered `200`.
fn http_round(addr: std::net::SocketAddr, requests: &[String]) -> usize {
    use std::io::{BufRead, BufReader, Read, Write};
    let stream = std::net::TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let mut ok = 0usize;
    for raw in requests {
        writer.write_all(raw.as_bytes()).expect("send");
        let mut line = String::new();
        reader.read_line(&mut line).expect("status line");
        if line.starts_with("HTTP/1.1 200") {
            ok += 1;
        }
        let mut content_length = 0usize;
        loop {
            let mut header = String::new();
            reader.read_line(&mut header).expect("header");
            if header.trim_end().is_empty() {
                break;
            }
            if let Some(v) = header.trim_end().strip_prefix("Content-Length: ") {
                content_length = v.parse().expect("content length");
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).expect("body");
    }
    ok
}

/// Best-of-`reps` wall-clock seconds for one call of `f`.
fn measure<O>(reps: usize, mut f: impl FnMut() -> O) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn json_f(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_owned()
    }
}

/// Extracts the numeric value of `"key": <number>` inside the first
/// occurrence of `"section"` in the bench JSON (which this binary itself
/// wrote, so the layout is fixed: sections are top-level objects and keys
/// are unique within one).
fn json_number(doc: &str, section: &str, key: &str) -> f64 {
    let start = doc
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section `{section}` missing from bench JSON"));
    let tail = &doc[start..];
    let k = tail
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("key `{key}` missing from section `{section}`"));
    let tail = &tail[k..];
    let colon = tail.find(':').expect("key is followed by a colon");
    let rest = tail[colon + 1..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end]
        .parse()
        .unwrap_or_else(|_| panic!("`{section}.{key}` is not a number"))
}

/// README spelling of a throughput: `"205k"` for 205,254/s — the same
/// rounding the Performance tables use, so the check below can demand an
/// exact substring.
fn readme_k(v: f64) -> String {
    format!("{:.0}k", v / 1000.0)
}

/// `--check-readme`: asserts the README's Performance tables quote the
/// committed `BENCH_pipeline.json`. CI runs this after the perf-smoke
/// floors so a regenerated benchmark cannot land without the README rows
/// being resynced. Exits non-zero listing every stale anchor.
fn check_readme(bench_path: &str) {
    let doc = std::fs::read_to_string(bench_path)
        .unwrap_or_else(|e| panic!("cannot read {bench_path}: {e}"));
    let readme = std::fs::read_to_string("README.md")
        .unwrap_or_else(|e| panic!("cannot read README.md: {e}"));

    let anchors = [
        (
            "inference.batch_rows_per_sec",
            format!(
                "{} rows/s",
                readme_k(json_number(&doc, "inference", "batch_rows_per_sec"))
            ),
        ),
        (
            "inference.speedup",
            format!("{:.1}×", json_number(&doc, "inference", "speedup")),
        ),
        (
            "pipeline.contracts_per_sec",
            format!(
                "{} contracts/s",
                readme_k(json_number(&doc, "pipeline", "contracts_per_sec"))
            ),
        ),
        (
            "serve.contracts_per_sec",
            format!(
                "{} contracts/s",
                readme_k(json_number(&doc, "serve", "contracts_per_sec"))
            ),
        ),
    ];
    let stale: Vec<String> = anchors
        .iter()
        .filter(|(_, needle)| !readme.contains(needle.as_str()))
        .map(|(what, needle)| format!("  {what}: README.md does not contain `{needle}`"))
        .collect();
    if stale.is_empty() {
        println!(
            "README.md quotes {bench_path} ({} anchors verified)",
            anchors.len()
        );
    } else {
        eprintln!("README.md is out of sync with {bench_path}:");
        for line in &stale {
            eprintln!("{line}");
        }
        eprintln!("regenerate with: cargo run --release -p phishinghook-bench --bin bench, then update the README tables");
        std::process::exit(1);
    }
}

fn main() {
    let args = parse_args();
    if args.check_readme {
        check_readme(&args.out);
        return;
    }
    let reps = if args.quick { 2 } else { 5 };

    println!("PhishingHook pipeline benchmark");
    println!(
        "corpus: {} contracts, {} rep(s) per measurement{}",
        args.contracts,
        reps,
        if args.quick { " (--quick)" } else { "" }
    );

    let corpus = Corpus::generate(&CorpusConfig {
        n_contracts: args.contracts,
        seed: 0xBE9C,
        ..Default::default()
    });
    let codes: Vec<Vec<u8>> = corpus.records.into_iter().map(|r| r.bytecode).collect();
    let refs: Vec<&[u8]> = codes.iter().map(Vec::as_slice).collect();
    let total_bytes: usize = codes.iter().map(Vec::len).sum();
    let mb = total_bytes as f64 / (1024.0 * 1024.0);

    // --- Disassembly: seed collecting path vs. zero-allocation stream. ---
    let collect_secs = measure(reps, || {
        let mut n = 0usize;
        for code in &refs {
            n += seed_paths::disassemble(code).len();
        }
        n
    });
    let stream_secs = measure(reps, || {
        let mut n = 0usize;
        for code in &refs {
            n += disasm_iter(code).count();
        }
        n
    });
    println!(
        "disasm     collect {:>10.3} ms   stream {:>10.3} ms   speedup {:>6.2}x   {:.1} MB/s streamed",
        collect_secs * 1e3,
        stream_secs * 1e3,
        collect_secs / stream_secs,
        mb / stream_secs
    );

    // --- Feature extraction: seed two-phase path vs. fused stream. ---
    let extractor = HistogramExtractor::fit(&refs);
    let seed_extract_secs = measure(reps, || seed_paths::histogram_transform(&extractor, &refs));
    let fused_extract_secs = measure(reps, || extractor.transform(&refs));
    println!(
        "extract    seed    {:>10.3} ms   fused  {:>10.3} ms   speedup {:>6.2}x   {:.0} contracts/s fused",
        seed_extract_secs * 1e3,
        fused_extract_secs * 1e3,
        seed_extract_secs / fused_extract_secs,
        refs.len() as f64 / fused_extract_secs
    );

    // --- Dynamic channel: selector-driven trace extraction. ---
    // One "trace" is one contract fully explored: scan the dispatcher for
    // selectors, execute each under the explorer's gas/step budget on the
    // simulated chain, reduce to the 20 trace columns. The cost is EVM
    // execution, not byte scanning, so it is reported next to the static
    // fused path it rides alongside in `features=hist+trace` specs.
    let tracer = TraceExtractor::new();
    let trace_secs = measure(reps, || tracer.transform(&refs));
    let traces_per_sec = refs.len() as f64 / trace_secs;
    let trace_cost_x = trace_secs / fused_extract_secs;
    println!(
        "dynamic    trace   {:>10.3} ms   {:>10.0} traces/s   ({:.1}x the fused static path, {} cols, {} gas/run)",
        trace_secs * 1e3,
        traces_per_sec,
        trace_cost_x,
        tracer.n_features(),
        tracer.gas_per_run,
    );

    // --- Forest inference: seed per-row arena walk vs. the batch engine. ---
    // `predict_proba_batch` is the engine `serve` runs: thresholds binned
    // per feature at fit time, nodes repacked into 8-byte cache-line-dense
    // records, and a lockstep walk over u16s. Bins come from the model's
    // own split thresholds, so the output is bit-identical to the per-row
    // arena walk (asserted here on every row).
    let x = extractor.transform(&refs);
    let y: Vec<usize> = (0..refs.len()).map(|i| i % 2).collect();
    let mut forest = RandomForest::new(ForestConfig {
        n_trees: 100,
        max_depth: 20,
        seed: 7,
        ..ForestConfig::default()
    });
    forest.fit(&x, &y);
    let quant_bins = forest
        .quant_bins()
        .expect("a fitted forest carries its quantized mirror");
    // Batch of one: the same forest over the same rows, one
    // `predict_proba_batch` call per row — the shape an interactive
    // `/predict` request scores in, where the walk's lanes are trees. A
    // one-row call runs on one thread, like the seed walk, so their ratio
    // does not depend on the host's core count.
    let singles: Vec<Matrix> = (0..x.rows()).map(|i| x.select_rows(&[i])).collect();
    let reference = seed_paths::forest_predict_proba(&forest, &x);
    let bit_identical = forest
        .predict_proba_batch(&x)
        .iter()
        .zip(&reference)
        .all(|(a, b)| a.to_bits() == b.to_bits())
        && singles
            .iter()
            .zip(&reference)
            .all(|(row, b)| forest.predict_proba_batch(row)[0].to_bits() == b.to_bits());
    assert!(
        bit_identical,
        "the batch engine must reproduce the per-row arena walk bit-for-bit"
    );
    let seed_infer_secs = measure(reps, || seed_paths::forest_predict_proba(&forest, &x));
    let batch_infer_secs = measure(reps, || forest.predict_proba_batch(&x));
    let batch1_secs = measure(reps, || {
        singles
            .iter()
            .map(|row| forest.predict_proba_batch(row)[0])
            .sum::<f64>()
    });
    let batch1_us_per_row = batch1_secs * 1e6 / x.rows() as f64;
    println!(
        "inference  per-row {:>10.3} ms   batch  {:>10.3} ms   speedup {:>6.2}x   {:.0} rows/s batch   {} bins/feature, bit-identical",
        seed_infer_secs * 1e3,
        batch_infer_secs * 1e3,
        seed_infer_secs / batch_infer_secs,
        x.rows() as f64 / batch_infer_secs,
        quant_bins,
    );
    println!(
        "inference  batch-1 {:>10.3} ms   {:.2} us/row over {} one-row calls   speedup {:>6.2}x, bit-identical",
        batch1_secs * 1e3,
        batch1_us_per_row,
        x.rows(),
        seed_infer_secs / batch1_secs,
    );

    // --- End-to-end serving path: raw bytecode -> probabilities. ---
    let pipeline_secs = measure(reps, || {
        let features = extractor.transform(&refs);
        forest.predict_proba_batch(&features)
    });
    let contracts_per_sec = refs.len() as f64 / pipeline_secs;
    let mb_per_sec = mb / pipeline_secs;
    println!(
        "pipeline   extract+infer {:>10.3} ms        {:>10.0} contracts/s   {:.1} MB/s",
        pipeline_secs * 1e3,
        contracts_per_sec,
        mb_per_sec
    );

    // --- Serve path: snapshot restore + the batched Scanner facade. ---
    // The same hot path `phishinghook serve` drives per request batch:
    // snapshot-restored detector, reusable scratch matrix, fused
    // transform_into + the quantized batch engine.
    const SERVE_BATCH: usize = 64;
    let registry = DetectorRegistry::global();
    let mut detector = registry.build_str("rf:seed=7", 7).expect("built-in spec");
    detector.fit(&refs, &y);
    let snapshot = detector.to_snapshot_bytes();
    let restore_secs = measure(reps, || {
        Scanner::from_snapshot_bytes(&snapshot).expect("snapshot restores")
    });
    let mut engine = Scanner::from_snapshot_bytes(&snapshot).expect("snapshot restores");
    let serve_secs = measure(reps, || {
        let mut scored = 0usize;
        for chunk in refs.chunks(SERVE_BATCH) {
            scored += engine.score_batch(chunk).len();
        }
        scored
    });
    let serve_batches = refs.len().div_ceil(SERVE_BATCH);
    let serve_cps = refs.len() as f64 / serve_secs;
    // Restore amortization: how many served batches cost as much as one
    // snapshot restore. serve --tcp restores once per *process* and shares
    // the model across connections via Scanner::worker, so this is the
    // break-even a per-connection restore would have paid on every accept.
    let mean_batch_secs = serve_secs / serve_batches as f64;
    let restore_amortization_batches = restore_secs / mean_batch_secs;
    println!(
        "serve      restore {:>10.3} ms   score  {:>10.3} ms   {:>10.0} contracts/s   {} batch(es) of {SERVE_BATCH}, snapshot {} KiB, restore ≈ {:.1} batches",
        restore_secs * 1e3,
        serve_secs * 1e3,
        serve_cps,
        serve_batches,
        snapshot.len() / 1024,
        restore_amortization_batches,
    );

    // --- Scanner: single HSC vs. 3-member ensemble over the same facade. ---
    // Measures what composing the paper's ensemble scenario costs on the
    // serving path: one shared extraction per batch, N inference passes.
    const ENSEMBLE_SPEC: &str = "ensemble:rf+lgbm+catboost:vote=soft";
    let mut ensemble = registry.build_str(ENSEMBLE_SPEC, 7).expect("built-in spec");
    ensemble.fit(&refs, &y);
    let ensemble_snapshot = ensemble.to_snapshot_bytes();
    let ensemble_restore_secs = measure(reps, || {
        Scanner::from_snapshot_bytes(&ensemble_snapshot).expect("snapshot restores")
    });
    let mut ensemble_scanner =
        Scanner::from_snapshot_bytes(&ensemble_snapshot).expect("snapshot restores");
    let ensemble_scan_secs = measure(reps, || {
        let mut scored = 0usize;
        for chunk in refs.chunks(SERVE_BATCH) {
            scored += ensemble_scanner.score_batch(chunk).len();
        }
        scored
    });
    // The single-model row is the serve section's measurement (same engine,
    // same refs, same batch size) — re-measuring it would only add noise.
    let single_cps = serve_cps;
    let ensemble_cps = refs.len() as f64 / ensemble_scan_secs;
    println!(
        "scanner    single  {:>10.0} c/s   ensemble {:>8.0} c/s   ({:.2}x cost for {} members, snapshot {} KiB)",
        single_cps,
        ensemble_cps,
        single_cps / ensemble_cps,
        3,
        ensemble_snapshot.len() / 1024,
    );

    // --- Serving core: cross-connection micro-batching vs per-connection. ---
    // The chain-watch workload: many concurrent clients, one request per
    // line. The old daemon gave each connection a private loop, so a
    // single-line client scored 1-row batches; the scheduler merges rows
    // *across* connections into SERVE_BATCH-row batches. Both sides decode
    // hex and score, so the comparison is end to end per request.
    const CLIENTS: usize = 4;
    let per_client = refs.len() / CLIENTS;
    let total_requests = per_client * CLIENTS;
    let client_lines: Vec<Vec<String>> = (0..CLIENTS)
        .map(|c| {
            refs[c * per_client..(c + 1) * per_client]
                .iter()
                .map(|code| format!("0x{}", to_hex(code)))
                .collect()
        })
        .collect();
    let per_conn_secs = measure(reps, || {
        let mut scored = 0usize;
        for lines in &client_lines {
            let mut worker = engine.worker(); // one private engine per connection
            for line in lines {
                let code = from_hex(line).expect("bench hex");
                scored += worker.score_batch(&[code.as_slice()]).len();
            }
        }
        scored
    });
    let scheduler_opts = SchedulerOptions {
        batch: SERVE_BATCH,
        workers: 1,
        queue_depth: 1024,
        cache_bytes: 0, // isolate batching from caching
        ..SchedulerOptions::default()
    };
    let cross_conn_secs = measure(reps, || {
        let scheduler = Scheduler::new(&engine, &scheduler_opts);
        let scored = std::thread::scope(|scope| {
            let handles: Vec<_> = client_lines
                .iter()
                .map(|lines| {
                    let scheduler = &scheduler;
                    scope.spawn(move || {
                        let (mut conn, rx) = scheduler.connect(Protocol::V1);
                        for line in lines {
                            conn.submit(line, Admission::Block);
                        }
                        conn.finish();
                        rx.iter().count()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client"))
                .sum::<usize>()
        });
        assert_eq!(scored, total_requests, "every request answered");
        scheduler.shutdown();
        scored
    });
    let per_conn_cps = total_requests as f64 / per_conn_secs;
    let cross_conn_cps = total_requests as f64 / cross_conn_secs;
    println!(
        "scheduler  per-conn {:>9.0} c/s   cross-conn {:>7.0} c/s   speedup {:>5.2}x   ({CLIENTS} single-line clients)",
        per_conn_cps,
        cross_conn_cps,
        cross_conn_cps / per_conn_cps,
    );

    // --- HTTP gateway: closed-loop POST /predict over keep-alive. ---
    // The same clients and bytecodes as the scheduler section, but each
    // request pays the full edge path: HTTP/1.1 parsing, v2 JSON framing,
    // the scheduler (same tuning, cache off), response heads and latency
    // metrics. Closed loop: a client reads each response before sending
    // the next, so this is per-request round-trip throughput, not
    // pipelined drain rate.
    let http_requests_raw: Vec<Vec<String>> = client_lines
        .iter()
        .map(|lines| {
            lines
                .iter()
                .enumerate()
                .map(|(i, hex)| {
                    let body = format!("{{\"id\":\"{i}\",\"bytecode\":\"{hex}\"}}");
                    format!(
                        "POST /predict HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
                        body.len()
                    )
                })
                .collect()
        })
        .collect();
    let http_secs = measure(reps, || {
        let scheduler = Scheduler::new(&engine, &scheduler_opts);
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let ok = std::thread::scope(|scope| {
            let scheduler = &scheduler;
            let listener = &listener;
            let server = scope.spawn(move || {
                serve_http(
                    listener,
                    scheduler,
                    TcpLimits {
                        max_conns: None,
                        accept_total: Some(CLIENTS),
                    },
                )
                .expect("gateway serves")
            });
            let handles: Vec<_> = http_requests_raw
                .iter()
                .map(|requests| scope.spawn(move || http_round(addr, requests)))
                .collect();
            let ok: usize = handles.into_iter().map(|h| h.join().expect("client")).sum();
            server.join().expect("gateway thread");
            ok
        });
        assert_eq!(ok, total_requests, "every HTTP request answers 200");
        scheduler.shutdown();
        ok
    });
    let http_rps = total_requests as f64 / http_secs;
    println!(
        "http       closed-loop {:>6.0} req/s over {CLIENTS} keep-alive conn(s)   ({:.2}x of JSONL cross-conn)",
        http_rps,
        http_rps / cross_conn_cps,
    );

    // --- Verdict cache: hit path vs cold-score path. ---
    // Both paths are measured end to end on a cache-enabled daemon: every
    // request pays keccak-256 + LRU lookup; a miss (cold) then scores one
    // row, a hit replays the stored f64s. Bit-identity between the two
    // paths is asserted, not assumed.
    let cache_budget: usize = 8 << 20;
    let mut cold_worker = engine.worker();
    let empty_cache = VerdictCache::new(cache_budget);
    let cold_secs = measure(reps, || {
        let mut acc = 0u64;
        for code in &refs {
            let digest = Digest::of(code);
            match empty_cache.lookup(&digest) {
                Some(hit) => acc ^= hit.proba.to_bits(),
                None => acc ^= cold_worker.score_batch(&[*code])[0].to_bits(),
            }
        }
        acc
    });
    // Populate the cache from the batched path, then verify every cold
    // (per-row) score is bit-identical to what the cache replays.
    let cache = VerdictCache::new(cache_budget);
    let mut filler = engine.worker();
    for chunk in refs.chunks(SERVE_BATCH) {
        let (combined, per_model) = filler.score_with_members(chunk);
        for (row, code) in chunk.iter().enumerate() {
            cache.insert(
                Digest::of(code),
                CachedVerdict {
                    proba: combined[row],
                    per_model: per_model.iter().map(|(_, p)| p[row]).collect(),
                },
            );
        }
    }
    for code in &refs {
        let cold = cold_worker.score_batch(&[*code])[0];
        let hit = cache.lookup(&Digest::of(code)).expect("prefilled");
        assert_eq!(
            cold.to_bits(),
            hit.proba.to_bits(),
            "cache must replay the cold path's exact bits"
        );
    }
    let hit_secs = measure(reps, || {
        let mut acc = 0u64;
        for code in &refs {
            let digest = Digest::of(code);
            acc ^= cache.lookup(&digest).expect("prefilled").proba.to_bits();
        }
        acc
    });
    let cold_rps = refs.len() as f64 / cold_secs;
    let hit_rps = refs.len() as f64 / hit_secs;
    println!(
        "cache      cold    {:>10.0} r/s   hit    {:>10.0} r/s   speedup {:>5.1}x   (keccak+LRU vs extract+infer, bit-identical)",
        cold_rps,
        hit_rps,
        hit_rps / cold_rps.max(1e-12),
    );

    // --- Brownout ladder: closed-loop tail latency per degradation tier. ---
    // Each tier is pinned through its queue-fill thresholds (0% forces
    // the tier on, >100% disables it). Clients submit with shedding
    // admission and read each response before the next request, so the
    // distribution is per-request round-trip latency as a degraded
    // client would see it: full 3-member ensemble, cheapest-member-only
    // (cache-first), and cache-hit replay (cache-only, pre-warmed).
    let brownout_n = per_client.min(64);
    let brownout_lines: Vec<Vec<String>> = client_lines
        .iter()
        .map(|lines| lines[..brownout_n].to_vec())
        .collect();
    let brownout_total = brownout_n * CLIENTS;
    let mut brownout_rows: Vec<(&str, f64, f64, f64)> = Vec::new();
    for (tier, cache_first_pct, cache_only_pct, tier_cache_bytes) in [
        ("full", 101u32, 101u32, 0usize),
        ("cache_first", 0, 101, 0),
        ("cache_only", 0, 0, cache_budget),
    ] {
        let opts = SchedulerOptions {
            cache_first_pct,
            cache_only_pct,
            cache_bytes: tier_cache_bytes,
            ..scheduler_opts.clone()
        };
        let scheduler = Scheduler::new(&ensemble_scanner, &opts);
        if tier_cache_bytes > 0 {
            // Pre-warm losslessly so the cache-only tier answers hits,
            // not typed refusals.
            let (mut conn, rx) = scheduler.connect(Protocol::V1);
            let mut warmed = 0usize;
            for lines in &brownout_lines {
                for line in lines {
                    conn.submit(line, Admission::Block);
                    warmed += 1;
                }
            }
            conn.finish();
            assert_eq!(rx.iter().count(), warmed, "warm-up answered");
        }
        let t0 = Instant::now();
        let mut latencies: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = brownout_lines
                .iter()
                .map(|lines| {
                    let scheduler = &scheduler;
                    scope.spawn(move || {
                        let (mut conn, rx) = scheduler.connect(Protocol::V1);
                        let mut lat = Vec::with_capacity(lines.len());
                        for line in lines {
                            let t = Instant::now();
                            conn.submit(line, Admission::Shed);
                            let reply = rx.recv().expect("one response per request");
                            lat.push(t.elapsed().as_secs_f64());
                            assert!(
                                !reply.starts_with("ERR"),
                                "unexpected refusal in {tier}: {reply}"
                            );
                        }
                        conn.finish();
                        lat
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("brownout client"))
                .collect()
        });
        let secs = t0.elapsed().as_secs_f64();
        scheduler.shutdown();
        latencies.sort_by(f64::total_cmp);
        let q = |p: f64| latencies[((latencies.len() - 1) as f64 * p) as usize] * 1e3;
        println!(
            "brownout   {tier:<12} {:>8.0} req/s   p50 {:>8.3} ms   p99 {:>8.3} ms",
            brownout_total as f64 / secs,
            q(0.5),
            q(0.99),
        );
        brownout_rows.push((tier, brownout_total as f64 / secs, q(0.5), q(0.99)));
    }

    // --- sharded serving: open-loop overload across 1/2/4 lanes ---------
    // The open-loop generators never wait for responses, so offered load
    // stays saturating no matter how the lanes fare — the overload regime
    // a chain watcher lives in during a redeploy storm. Measured with the
    // cache off so every admitted request is scored: the throughput curve
    // is scoring *goodput* under a producer flood, which is what extra
    // lanes buy (each lane brings its own worker and its own queue, so
    // workers neither starve on a single hammered queue lock nor split
    // one thread's CPU share N ways). Every refusal must be typed.
    // Enough request volume that the producer-pressure phase dwarfs the
    // final queue-drain tail (where no contention exists to measure).
    let load_cfg = LoadConfig {
        clients: if args.quick { 128 } else { 256 },
        generators: 8,
        requests_per_client: 64,
        rate: f64::INFINITY,
        open_loop: true,
        templates: 16,
        skew: 1.1,
        seed: 0x5EED,
    };
    // The exact working set `run_load` will draw (the streams are
    // deterministic), and the ground truth for the in-binary
    // bit-equality check: every unique code scored directly, no serving
    // layer.
    let load_codes = load::unique_codes(&load_cfg);
    let load_digests: Vec<Digest> = load_codes.iter().map(|c| Digest::of(c)).collect();
    let load_refs: Vec<&[u8]> = load_codes.iter().map(Vec::as_slice).collect();
    let direct_probas = engine.worker().score_batch(&load_refs);

    let mut shard_rows: Vec<(usize, f64, f64, f64, f64)> = Vec::new();
    for shards in [1usize, 2, 4] {
        // The measured scheduler: cache off, one worker per lane.
        let opts = SchedulerOptions {
            shards,
            ..scheduler_opts.clone()
        };
        let scheduler = Scheduler::new(&engine, &opts);
        // Best-of-`reps` open-loop passes; the quantiles come from the
        // same pass as the headline throughput.
        let mut best = run_load(&scheduler, &load_cfg);
        for _ in 1..reps {
            let report = run_load(&scheduler, &load_cfg);
            if report.throughput > best.throughput {
                best = report;
            }
        }
        scheduler.shutdown();
        assert_eq!(
            best.sent,
            best.verdicts + best.overloads,
            "{shards}-shard: a request was neither answered nor typed-refused"
        );
        assert_eq!(
            best.errors + best.timeouts + best.internals,
            0,
            "{shards}-shard: untyped failures under overload"
        );

        // The bit-equality contract, asserted in the bench binary itself:
        // a cache-on sibling of the same layout is warmed over the same
        // working set, and every cached verdict must carry exactly the
        // bits the direct scorer produced — whatever the lane count.
        let checker = Scheduler::new(
            &engine,
            &SchedulerOptions {
                cache_bytes: cache_budget,
                ..opts.clone()
            },
        );
        let warmed = load::warm_caches(&checker, &load_cfg);
        assert_eq!(warmed, load_codes.len());
        for (digest, expected) in load_digests.iter().zip(&direct_probas) {
            let cached = checker
                .cached_verdict(digest)
                .expect("warmed digest resident");
            assert_eq!(
                cached.proba.to_bits(),
                expected.to_bits(),
                "{shards}-shard verdict diverged from direct scoring"
            );
        }
        checker.shutdown();

        println!(
            "shards     {shards} lane(s)    {:>8.0} verdicts/s   p50 {:>8.3} ms   p99 {:>8.3} ms",
            best.throughput, best.p50_ms, best.p99_ms,
        );
        shard_rows.push((
            shards,
            best.throughput,
            best.p50_ms,
            best.p90_ms,
            best.p99_ms,
        ));
    }
    let shard_scaling = shard_rows[2].1 / shard_rows[0].1.max(1e-12);

    let shards_json: String = shard_rows
        .iter()
        .map(|(n, rps, p50, p90, p99)| {
            format!(
                "    \"lanes_{n}\": {{ \"throughput_rps\": {}, \"p50_ms\": {}, \"p90_ms\": {}, \"p99_ms\": {} }}",
                json_f(*rps),
                json_f(*p50),
                json_f(*p90),
                json_f(*p99)
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");

    let brownout_json: String = brownout_rows
        .iter()
        .map(|(tier, rps, p50, p99)| {
            format!(
                "    \"{tier}\": {{ \"requests_per_sec\": {}, \"p50_ms\": {}, \"p99_ms\": {} }}",
                json_f(*rps),
                json_f(*p50),
                json_f(*p99)
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");

    let json = format!(
        r#"{{
  "schema": "phishinghook-bench-pipeline/v1",
  "quick": {quick},
  "reps": {reps},
  "corpus": {{ "contracts": {contracts}, "bytes": {bytes} }},
  "disasm": {{
    "collect_secs": {collect},
    "stream_secs": {stream},
    "speedup": {disasm_speedup},
    "stream_mb_per_sec": {stream_mbps},
    "stream_contracts_per_sec": {stream_cps}
  }},
  "features": {{
    "seed_secs": {seed_extract},
    "fused_secs": {fused_extract},
    "speedup": {extract_speedup},
    "fused_contracts_per_sec": {fused_cps}
  }},
  "dynamic": {{
    "columns": {trace_columns},
    "gas_per_run": {trace_gas},
    "steps_per_run": {trace_steps},
    "max_selectors": {trace_max_selectors},
    "extract_secs": {trace_secs},
    "traces_per_sec": {traces_per_sec},
    "cost_vs_static_x": {trace_cost_x}
  }},
  "inference": {{
    "per_row_secs": {seed_infer},
    "batch_secs": {batch_infer},
    "speedup": {infer_speedup},
    "batch_rows_per_sec": {batch_rps},
    "bins_per_feature": {quant_bins},
    "batch1_us_per_row": {batch1_us_per_row},
    "batch1_speedup": {batch1_speedup},
    "bit_identical": {bit_identical},
    "n_trees": 100
  }},
  "pipeline": {{
    "secs": {pipeline},
    "contracts_per_sec": {cps},
    "mb_per_sec": {mbps}
  }},
  "serve": {{
    "snapshot_bytes": {snapshot_bytes},
    "restore_secs": {restore},
    "batch_size": {serve_batch},
    "batches": {serve_batches},
    "score_secs": {serve_secs},
    "contracts_per_sec": {serve_cps},
    "mean_batch_ms": {serve_mean_batch_ms},
    "restore_amortization_batches": {restore_amort}
  }},
  "scanner": {{
    "batch_size": {serve_batch},
    "single_model": "rf:seed=7",
    "single_contracts_per_sec": {single_cps},
    "ensemble_model": "{ensemble_spec}",
    "ensemble_members": 3,
    "ensemble_snapshot_bytes": {ensemble_snapshot_bytes},
    "ensemble_restore_secs": {ensemble_restore},
    "ensemble_contracts_per_sec": {ensemble_cps},
    "ensemble_cost_x": {ensemble_cost_x}
  }},
  "scheduler": {{
    "clients": {clients},
    "requests": {total_requests},
    "batch_size": {serve_batch},
    "workers": 1,
    "per_connection_secs": {per_conn_secs},
    "per_connection_contracts_per_sec": {per_conn_cps},
    "cross_connection_secs": {cross_conn_secs},
    "cross_connection_contracts_per_sec": {cross_conn_cps},
    "speedup": {scheduler_speedup}
  }},
  "http": {{
    "clients": {clients},
    "requests": {total_requests},
    "closed_loop": true,
    "secs": {http_secs},
    "requests_per_sec": {http_rps},
    "vs_jsonl_cross_connection_x": {http_vs_jsonl}
  }},
  "cache": {{
    "budget_bytes": {cache_budget},
    "entries": {cache_entries},
    "cold_secs": {cold_secs},
    "cold_rows_per_sec": {cold_rps},
    "hit_secs": {hit_secs},
    "hit_rows_per_sec": {hit_rps},
    "hit_speedup": {hit_speedup},
    "bit_identical": true
  }},
  "brownout": {{
    "clients": {clients},
    "requests_per_tier": {brownout_total},
    "model": "{ensemble_spec}",
    "closed_loop": true,
{brownout_json}
  }},
  "shards": {{
    "clients": {load_clients},
    "generators": {load_generators},
    "requests_per_client": {load_requests},
    "open_loop": true,
    "rate": "max",
    "templates_per_generator": {load_templates},
    "skew": {load_skew},
    "unique_codes": {load_unique},
    "cache_bytes": 0,
    "workers_per_lane": 1,
    "bit_identical_across_layouts": true,
{shards_json},
    "scaling_4_vs_1_x": {shard_scaling}
  }}
}}
"#,
        quick = args.quick,
        reps = reps,
        contracts = args.contracts,
        bytes = total_bytes,
        collect = json_f(collect_secs),
        stream = json_f(stream_secs),
        disasm_speedup = json_f(collect_secs / stream_secs),
        stream_mbps = json_f(mb / stream_secs),
        stream_cps = json_f(refs.len() as f64 / stream_secs),
        seed_extract = json_f(seed_extract_secs),
        fused_extract = json_f(fused_extract_secs),
        extract_speedup = json_f(seed_extract_secs / fused_extract_secs),
        fused_cps = json_f(refs.len() as f64 / fused_extract_secs),
        trace_columns = tracer.n_features(),
        trace_gas = tracer.gas_per_run,
        trace_steps = tracer.steps_per_run,
        trace_max_selectors = tracer.max_selectors,
        trace_secs = json_f(trace_secs),
        traces_per_sec = json_f(traces_per_sec),
        trace_cost_x = json_f(trace_cost_x),
        seed_infer = json_f(seed_infer_secs),
        batch_infer = json_f(batch_infer_secs),
        infer_speedup = json_f(seed_infer_secs / batch_infer_secs),
        batch_rps = json_f(x.rows() as f64 / batch_infer_secs),
        quant_bins = quant_bins,
        batch1_us_per_row = json_f(batch1_us_per_row),
        batch1_speedup = json_f(seed_infer_secs / batch1_secs),
        pipeline = json_f(pipeline_secs),
        cps = json_f(contracts_per_sec),
        mbps = json_f(mb_per_sec),
        snapshot_bytes = snapshot.len(),
        restore = json_f(restore_secs),
        serve_batch = SERVE_BATCH,
        serve_batches = serve_batches,
        serve_secs = json_f(serve_secs),
        serve_cps = json_f(serve_cps),
        serve_mean_batch_ms = json_f(serve_secs / serve_batches as f64 * 1e3),
        restore_amort = json_f(restore_amortization_batches),
        ensemble_spec = ENSEMBLE_SPEC,
        single_cps = json_f(single_cps),
        ensemble_snapshot_bytes = ensemble_snapshot.len(),
        ensemble_restore = json_f(ensemble_restore_secs),
        ensemble_cps = json_f(ensemble_cps),
        ensemble_cost_x = json_f(single_cps / ensemble_cps),
        clients = CLIENTS,
        total_requests = total_requests,
        per_conn_secs = json_f(per_conn_secs),
        per_conn_cps = json_f(per_conn_cps),
        cross_conn_secs = json_f(cross_conn_secs),
        cross_conn_cps = json_f(cross_conn_cps),
        scheduler_speedup = json_f(cross_conn_cps / per_conn_cps),
        http_secs = json_f(http_secs),
        http_rps = json_f(http_rps),
        http_vs_jsonl = json_f(http_rps / cross_conn_cps),
        cache_budget = cache_budget,
        cache_entries = cache.stats().entries,
        cold_secs = json_f(cold_secs),
        cold_rps = json_f(cold_rps),
        hit_secs = json_f(hit_secs),
        hit_rps = json_f(hit_rps),
        hit_speedup = json_f(hit_rps / cold_rps.max(1e-12)),
        load_clients = load_cfg.clients,
        load_generators = load_cfg.generators,
        load_requests = load_cfg.requests_per_client,
        load_templates = load_cfg.templates,
        load_skew = json_f(load_cfg.skew),
        load_unique = load_codes.len(),
        shards_json = shards_json,
        shard_scaling = json_f(shard_scaling),
    );
    std::fs::write(&args.out, &json).expect("write benchmark JSON");
    println!("\nwrote {}", args.out);
}
