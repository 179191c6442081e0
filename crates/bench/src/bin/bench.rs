//! The perf-trajectory benchmark: measures the disasm→features→inference
//! spine and the snapshot checksum against the seed reference paths and
//! emits `BENCH_pipeline.json`, the repository's first committed
//! performance datapoint.
//!
//! ```text
//! cargo run --release -p phishinghook-bench --bin bench             # full
//! cargo run --release -p phishinghook-bench --bin bench -- --quick  # CI smoke
//! cargo run --release -p phishinghook-bench --bin bench -- --contracts 512 --out results/BENCH_pipeline.json
//! ```
//!
//! JSON schema (`phishinghook-bench-pipeline/v1`): see the README's
//! "Performance" section. All times are best-of-`reps` wall-clock seconds
//! for one full pass over the corpus (the `persist` times: over one forest
//! snapshot); throughputs derive from the same pass.

use phishinghook_bench::seed_paths;
use phishinghook_data::{Corpus, CorpusConfig};
use phishinghook_evm::disasm::disasm_iter;
use phishinghook_features::{HistogramExtractor, TraceExtractor};
use phishinghook_ml::classical::forest::ForestConfig;
use phishinghook_ml::{Classifier, Matrix, RandomForest};
use std::time::Instant;

const USAGE: &str = "\
bench — the pipeline benchmark: disasm, features, inference and the snapshot checksum
against the seed paths

USAGE:
  bench [--quick] [--contracts <n>] [--out <path>]   measure, write the JSON datapoint
                                                     (default BENCH_pipeline.json)
  bench --check-readme [--out <path>]                check README.md quotes the datapoint";

struct Args {
    quick: bool,
    check_readme: bool,
    contracts: usize,
    out: String,
}

/// Parses the arguments after the program name; the error is the usage
/// message to print before exiting 2.
fn parse_args(argv: &[String]) -> Result<Args, String> {
    let quick = argv.iter().any(|a| a == "--quick");
    let mut args = Args {
        quick,
        check_readme: false,
        contracts: if quick { 96 } else { 512 },
        out: "BENCH_pipeline.json".to_owned(),
    };
    let mut iter = argv.iter();
    while let Some(arg) = iter.next() {
        let mut value = || {
            iter.next()
                .ok_or_else(|| format!("`{arg}` needs a value\n\n{USAGE}"))
        };
        match arg.as_str() {
            "--quick" => {}
            "--check-readme" => args.check_readme = true,
            "--contracts" => {
                let v = value()?;
                args.contracts = match v.parse() {
                    Ok(0) => return Err(format!("`contracts` must be at least 1\n\n{USAGE}")),
                    Ok(n) => n,
                    Err(_) => {
                        return Err(format!("`{v}` is not a valid contract count\n\n{USAGE}"))
                    }
                };
            }
            "--out" => args.out = value()?.clone(),
            other => return Err(format!("unexpected argument `{other}`\n\n{USAGE}")),
        }
    }
    Ok(args)
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
            "dynamic.traces_per_sec",
            format!(
                "{} traces/s",
                readme_k(json_number(&doc, "dynamic", "traces_per_sec"))
            ),
        ),
        (
            "persist.crc_speedup",
            format!("{:.1}×", json_number(&doc, "persist", "crc_speedup")),
        ),
        (
            "pipeline.contracts_per_sec",
            format!(
                "{} contracts/s",
                readme_k(json_number(&doc, "pipeline", "contracts_per_sec"))
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
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|usage| {
        eprintln!("{usage}");
        std::process::exit(2);
    });
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

    // --- Snapshot seal/verify: seed bitwise CRC-32 vs. the table kernel. ---
    // Every `train --save` seals the envelope with one CRC pass and every
    // start-up (`serve`, `scan --model`, `watch`) verifies it with another,
    // so the checksum is timed over this forest's own snapshot, next to the
    // full restore (checksum, decode, quantized-mirror rebuild) it sits in.
    let snapshot = phishinghook_persist::to_envelope("forest", &forest);
    assert_eq!(
        seed_paths::crc32(&snapshot),
        phishinghook_persist::crc32(&snapshot),
        "the table CRC must reproduce the bitwise CRC"
    );
    let seed_crc_secs = measure(reps, || seed_paths::crc32(&snapshot));
    let table_crc_secs = measure(reps, || phishinghook_persist::crc32(&snapshot));
    let restore_secs = measure(reps, || {
        phishinghook_persist::from_envelope::<RandomForest>("forest", &snapshot)
            .expect("the forest snapshot restores")
    });
    println!(
        "persist    seed    {:>10.3} ms   table  {:>10.3} ms   speedup {:>6.2}x   CRC-32 of {} bytes; restore {:.3} ms",
        seed_crc_secs * 1e3,
        table_crc_secs * 1e3,
        seed_crc_secs / table_crc_secs,
        snapshot.len(),
        restore_secs * 1e3,
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
  "persist": {{
    "snapshot_bytes": {snapshot_bytes},
    "seed_crc_secs": {seed_crc},
    "table_crc_secs": {table_crc},
    "crc_speedup": {crc_speedup},
    "restore_secs": {restore}
  }},
  "pipeline": {{
    "secs": {pipeline},
    "contracts_per_sec": {cps},
    "mb_per_sec": {mbps}
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
        snapshot_bytes = snapshot.len(),
        seed_crc = json_f(seed_crc_secs),
        table_crc = json_f(table_crc_secs),
        crc_speedup = json_f(seed_crc_secs / table_crc_secs),
        restore = json_f(restore_secs),
        pipeline = json_f(pipeline_secs),
        cps = json_f(contracts_per_sec),
        mbps = json_f(mb_per_sec),
    );
    std::fs::write(&args.out, &json).expect("write benchmark JSON");
    println!("\nwrote {}", args.out);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, String> {
        let argv: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
        parse_args(&argv)
    }

    #[test]
    fn valid_flags_keep_their_meaning() {
        let args = parse(&["--quick", "--out", "/tmp/bench.json"]).expect("valid");
        assert!(args.quick && !args.check_readme);
        assert_eq!((args.contracts, args.out.as_str()), (96, "/tmp/bench.json"));
        let args = parse(&["--contracts", "512", "--out", "results/x.json"]).expect("valid");
        assert!(!args.quick);
        assert_eq!((args.contracts, args.out.as_str()), (512, "results/x.json"));
        let args = parse(&["--contracts", "7", "--quick"]).expect("valid");
        assert_eq!(args.contracts, 7, "an explicit count beats --quick's");
        let args = parse(&["--check-readme"]).expect("valid");
        assert!(args.check_readme);
        assert_eq!(
            (args.contracts, args.out.as_str()),
            (512, "BENCH_pipeline.json")
        );
    }

    #[test]
    fn bad_arguments_are_usage_errors() {
        for (argv, message) in [
            (
                &["--quick", "--contracts", "abc", "--bogus"][..],
                "`abc` is not a valid contract count",
            ),
            (&["--bogus"], "unexpected argument `--bogus`"),
            (&["results.json"], "unexpected argument `results.json`"),
            (&["--contracts"], "`--contracts` needs a value"),
            (&["--contracts", "0"], "`contracts` must be at least 1"),
            (&["--contracts", "-3"], "`-3` is not a valid contract count"),
            (&["--out"], "`--out` needs a value"),
        ] {
            let Err(usage) = parse(argv) else {
                panic!("{argv:?} parsed");
            };
            assert!(usage.starts_with(message), "{argv:?}: {usage}");
            assert!(usage.ends_with(USAGE), "{argv:?}: {usage}");
        }
    }
}
