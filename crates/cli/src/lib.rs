//! Implementation of the `phishinghook` command-line tool.
//!
//! Kept as a library so every subcommand is unit-testable without spawning
//! processes; [`run`] maps an argument vector to rendered output. The
//! crate is deliberately thin — argument parsing and wiring only; the
//! serving machinery (scheduler, verdict cache, wire protocols, firehose
//! driver) lives in [`phishinghook_serve`].

use phishinghook_core::cv::{check_folds, stratified_kfold};
use phishinghook_core::metrics::BinaryMetrics;
use phishinghook_data::csv::{from_csv, to_csv};
use phishinghook_data::{
    ContractRecord, Corpus, CorpusConfig, Label, RetryPolicy, Scenario, SharedChain,
};
use phishinghook_evm::disasm::{disassemble, to_csv as disasm_csv};
use phishinghook_evm::keccak::from_hex;
use phishinghook_models::{
    AnyDetector, Detector, DetectorRegistry, FeatureSet, Scanner, SpecError,
};
use phishinghook_persist::PersistError;
use phishinghook_serve::{ConfigError, FaultConfig, Protocol, ServeConfig, WatchOptions};
use std::fmt;
use std::str::FromStr;

/// CLI failure modes.
#[derive(Debug)]
pub enum CliError {
    /// Bad invocation; the message is the usage text.
    Usage(String),
    /// Malformed hex payload.
    BadHex(String),
    /// Dataset file problems.
    Io(std::io::Error),
    /// Dataset CSV parse problems.
    Csv(phishinghook_data::csv::CsvError),
    /// A dataset file with a header but no contract rows (names the file).
    EmptyDataset(String),
    /// Model snapshot problems (corrupt, truncated, wrong version/kind, …).
    Snapshot(PersistError),
    /// Malformed detector spec passed to `--model`.
    Spec(SpecError),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "{m}"),
            CliError::BadHex(s) => write!(f, "not valid hex bytecode: `{s}`"),
            CliError::Io(e) => write!(f, "{e}"),
            CliError::Csv(e) => write!(f, "{e}"),
            CliError::EmptyDataset(path) => write!(f, "dataset `{path}` has no contract rows"),
            CliError::Snapshot(e) => write!(f, "{e}"),
            CliError::Spec(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<SpecError> for CliError {
    fn from(e: SpecError) -> Self {
        CliError::Spec(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<phishinghook_data::csv::CsvError> for CliError {
    fn from(e: phishinghook_data::csv::CsvError) -> Self {
        CliError::Csv(e)
    }
}

impl From<PersistError> for CliError {
    fn from(e: PersistError) -> Self {
        CliError::Snapshot(e)
    }
}

const USAGE: &str = "\
phishinghook — opcode-based phishing detection for EVM bytecode

USAGE:
  phishinghook disasm   <hex | ->              disassemble bytecode (BDM)
  phishinghook generate <n> <out.csv> [seed] [--scenario mixed|honeypot]
                                               emit a synthetic labeled dataset
  phishinghook eval     <dataset.csv> [folds]  cross-validate the 7 HSC models
  phishinghook train    <dataset.csv> [--model <spec>] [--seed <n>] [--save <out.snap>]
                                               fit a spec-built detector, snapshot it
  phishinghook scan     --model <snap-or-spec> [--train <dataset.csv>] <hex…>
                                               classify bytecodes (snapshot, or spec
                                               trained on --train first)
  phishinghook scan     <dataset.csv> <hex…>   train Random Forest, classify bytecodes
  phishinghook serve    --model <snap-or-spec> [--train <dataset.csv>] [--proto v1|v2]
                        [--shards <n>] [--batch <n>]
                        [--queue-depth <n>] [--cache-bytes <n>] [--tcp <addr>]
                        [--http <addr>] [--chain <dataset.csv>] [--max-conns <n>]
                        [--accept <n>] [--deadline-ms <n>] [--drain-ms <n>]
                        [--retry-attempts <n>]
                        [--cache-first-pct <n>] [--cache-only-pct <n>]
                        [--fault-panic-every <n>] [--fault-panic-shard <n>]
                        [--fault-chain-permille <n>] [--fault-seed <n>]
                                               batched scoring daemon (stdin, TCP JSONL
                                               and/or HTTP gateway): cross-connection
                                               micro-batching, keccak-keyed verdict
                                               cache, typed overload
  phishinghook watch    --model <snap-or-spec> [--train <dataset.csv>] [--events <n>]
                        [--templates <n>] [--seed <n>] [--batch <n>]
                        [--cache-bytes <n>] [--quick]
                                               score a simulated chain-deployment
                                               firehose through the serving core

--model takes a detector spec or a snapshot file. Spec grammar:
  rf | knn | svm | lr | xgb | lgbm | catboost          one HSC
  <family>:seed=<n>                                    explicit seed
  <family>:features=hist|trace|hist+trace              feature channels
  ensemble:<f>+<f>[+…][:vote=soft|hard|weighted[:weights=w,…]]
          [:features=…][:seed=<n>]
Legacy names (random-forest, logistic-regression, …) remain aliases.
features= picks what the model trains on: static opcode histograms
(default), dynamic execution-trace features from the dispatcher explorer,
or both concatenated. generate --scenario honeypot emits rigged/twin
contract pairs whose histograms are identical across classes — static
detectors sit at chance there; features=hist+trace does not.
serve speaks versioned JSONL by default; --proto v1 keeps the legacy
tab-separated framing for old clients. --cache-bytes 0 disables the
verdict cache; the `stats` request line reports scheduler/cache counters.
--http binds an HTTP/1.1 gateway (POST /predict, GET /healthz, GET /readyz,
Prometheus GET /metrics) over the same scheduler and cache as the JSONL
front-ends; --chain loads a dataset as the eth_getCode source so
address-form requests ({\"address\":\"0x…\"}) resolve to deployed bytecode.
--shards splits the scheduler into independent lanes (queue + one scoring
thread + cache slice), routed by code-hash digest; it defaults to the
cores the process may use.
Robustness: --deadline-ms answers requests that waited too long with a
typed timeout (504 over HTTP); --drain-ms caps the shutdown drain;
--retry-attempts bounds chain-lookup retries (decorrelated-jitter
backoff); --cache-first-pct / --cache-only-pct set the queue-fill
percentages where brownout degrades shedding traffic to cheapest-member
and then cache-only scoring. The --fault-* flags arm the deterministic
fault-injection plan (chaos testing only); --fault-panic-shard confines
the injected worker panics to one lane.
";

/// Executes a CLI invocation, returning the text to print.
///
/// # Errors
/// Returns [`CliError::Usage`] for malformed invocations and I/O / parse /
/// snapshot errors otherwise.
pub fn run(args: &[String]) -> Result<String, CliError> {
    match args.first().map(String::as_str) {
        Some("disasm") => disasm(args.get(1).map(String::as_str)),
        Some("generate") => generate(&args[1..]),
        Some("eval") => eval(&args[1..]),
        Some("train") => train(&args[1..]),
        Some("scan") => scan(&args[1..]),
        Some("serve") => serve_cmd(&args[1..]),
        Some("watch") => watch_cmd(&args[1..]),
        _ => Err(CliError::Usage(USAGE.to_owned())),
    }
}

fn read_hex(payload: &str) -> Result<Vec<u8>, CliError> {
    let text = if payload == "-" {
        use std::io::Read;
        let mut buf = String::new();
        std::io::stdin().read_to_string(&mut buf)?;
        buf.trim().to_owned()
    } else {
        payload.to_owned()
    };
    from_hex(&text).ok_or(CliError::BadHex(text))
}

fn disasm(payload: Option<&str>) -> Result<String, CliError> {
    let payload = payload.ok_or_else(|| CliError::Usage(USAGE.to_owned()))?;
    let code = read_hex(payload)?;
    let instructions = disassemble(&code);
    let mut out = disasm_csv(&instructions);
    out.push_str(&format!(
        "# {} bytes, {} instructions\n",
        code.len(),
        instructions.len()
    ));
    Ok(out)
}

fn generate(args: &[String]) -> Result<String, CliError> {
    let mut positional: Vec<&String> = Vec::new();
    let mut scenario = Scenario::Mixed;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--scenario" {
            let v = iter
                .next()
                .ok_or_else(|| CliError::Usage(USAGE.to_owned()))?;
            scenario = v
                .parse()
                .map_err(|e| CliError::Usage(format!("{e}\n\n{USAGE}")))?;
        } else {
            positional.push(arg);
        }
    }
    let (Some(n), Some(path)) = (positional.first(), positional.get(1)) else {
        return Err(CliError::Usage(USAGE.to_owned()));
    };
    let n: usize = n
        .parse()
        .map_err(|_| CliError::Usage(format!("`{n}` is not a sample count\n\n{USAGE}")))?;
    let seed = positional
        .get(2)
        .map_or(Ok(0xC0FFEE), |s| numeric(s, "seed"))?;
    let corpus = Corpus::generate(&CorpusConfig {
        n_contracts: n,
        seed,
        scenario,
        ..Default::default()
    });
    std::fs::write(path, to_csv(&corpus.records))?;
    // The default scenario keeps the historical banner; non-default ones
    // name themselves so a dataset's provenance is visible in logs.
    let tag = match scenario {
        Scenario::Mixed => String::new(),
        s => format!("{s} "),
    };
    Ok(format!(
        "wrote {} {tag}contracts ({} phishing / {} benign) to {path}\n",
        corpus.records.len(),
        corpus.phishing().count(),
        corpus.benign().count()
    ))
}

/// Reads a labeled dataset CSV; one with no contract rows is refused,
/// since nothing can be trained or cross-validated on it.
fn load_dataset(path: &str) -> Result<Vec<ContractRecord>, CliError> {
    let text = std::fs::read_to_string(path)?;
    let records = from_csv(&text)?;
    if records.is_empty() {
        return Err(CliError::EmptyDataset(path.to_owned()));
    }
    Ok(records)
}

fn eval(args: &[String]) -> Result<String, CliError> {
    let path = args
        .first()
        .ok_or_else(|| CliError::Usage(USAGE.to_owned()))?;
    let folds = args.get(1).map_or(Ok(5), |v| numeric(v, "fold count"))?;
    let records = load_dataset(path)?;
    let codes: Vec<&[u8]> = records.iter().map(|r| r.bytecode.as_slice()).collect();
    let labels: Vec<usize> = records.iter().map(|r| r.label.as_index()).collect();
    check_folds(&labels, folds).map_err(|e| {
        CliError::Usage(format!(
            "{e}: the fold count must be between 2 and the smallest class size\n\n{USAGE}"
        ))
    })?;
    let splits = stratified_kfold(&labels, folds, 7);

    let mut out = format!(
        "{}-fold cross-validation on {} contracts\n\n",
        folds,
        records.len()
    );
    out.push_str(&format!(
        "{:<20} {:>7} {:>7} {:>7} {:>7}\n",
        "Model", "Acc%", "F1%", "Prec%", "Rec%"
    ));
    let registry = DetectorRegistry::global();
    for spec in registry.hsc_specs() {
        // Building is cheap (fitting is the expensive part), so a throwaway
        // build supplies the display name.
        let name = registry.build(&spec, 7).name().to_owned();
        let mut sums = [0.0f64; 4];
        for fold in &splits {
            let train_x: Vec<&[u8]> = fold.train.iter().map(|&i| codes[i]).collect();
            let train_y: Vec<usize> = fold.train.iter().map(|&i| labels[i]).collect();
            let test_x: Vec<&[u8]> = fold.test.iter().map(|&i| codes[i]).collect();
            let test_y: Vec<usize> = fold.test.iter().map(|&i| labels[i]).collect();
            let mut det = registry.build(&spec, 7);
            det.fit(&train_x, &train_y);
            let m = BinaryMetrics::from_predictions(&det.predict(&test_x), &test_y);
            sums[0] += m.accuracy;
            sums[1] += m.f1;
            sums[2] += m.precision;
            sums[3] += m.recall;
        }
        let k = splits.len() as f64;
        out.push_str(&format!(
            "{:<20} {:>7.2} {:>7.2} {:>7.2} {:>7.2}\n",
            name,
            sums[0] / k * 100.0,
            sums[1] / k * 100.0,
            sums[2] / k * 100.0,
            sums[3] / k * 100.0
        ));
    }
    Ok(out)
}

/// Human spelling of a detector's feature width, naming the channels so a
/// `features=trace` model's banner does not claim opcode features.
fn feature_desc(n: usize, features: FeatureSet) -> String {
    match features {
        FeatureSet::Histogram => format!("{n} opcode features"),
        FeatureSet::Trace => format!("{n} trace features"),
        FeatureSet::HistogramTrace => format!("{n} opcode+trace features"),
    }
}

/// Human spelling of a scoring engine: the quantized u16 walk with its bin
/// width, or the f64 reference engine (a model family with no tree mirror,
/// or a tree model walking its arena per row).
fn engine_desc(quant_bins: Option<usize>) -> String {
    match quant_bins {
        Some(bins) => format!("quantized engine, {bins} bins/feature"),
        None => "f64 reference engine".to_owned(),
    }
}

/// Resolves a `--model` argument: an existing file loads as a snapshot (of
/// either kind); anything else must parse as a detector spec, which is then
/// trained on `--train <dataset.csv>`.
fn scanner_from_model_arg(
    model: &str,
    train: Option<&str>,
    seed: u64,
) -> Result<(Scanner, String), CliError> {
    if std::path::Path::new(model).exists() {
        // Refuse the ambiguous combination rather than silently serving the
        // snapshot while the user believes --train retrained it.
        if let Some(train) = train {
            return Err(CliError::Usage(format!(
                "`{model}` is a snapshot file, so --train {train} would be ignored; \
                 pass a detector spec to train, or drop --train to serve the snapshot\n\n{USAGE}"
            )));
        }
        let scanner = Scanner::load(model)?;
        let banner = format!(
            "loaded {} snapshot ({}; {}) from {model}\n",
            scanner.model_name(),
            feature_desc(scanner.n_features(), scanner.model().features()),
            engine_desc(scanner.quant_bins()),
        );
        return Ok((scanner, banner));
    }
    // Not a file: must be a spec. Parse first so a typo'd snapshot path
    // fails with the spec diagnostics rather than a bare "missing file".
    let mut det = DetectorRegistry::global().build_str(model, seed)?;
    let path = train.ok_or_else(|| {
        CliError::Usage(format!(
            "`{model}` is a detector spec (not a snapshot file); training data is \
             required — add --train <dataset.csv>\n\n{USAGE}"
        ))
    })?;
    let records = load_dataset(path)?;
    let codes: Vec<&[u8]> = records.iter().map(|r| r.bytecode.as_slice()).collect();
    let labels: Vec<usize> = records.iter().map(|r| r.label.as_index()).collect();
    det.fit(&codes, &labels);
    let scanner = Scanner::new(det)?;
    let banner = format!(
        "trained {} on {} labeled contracts from {path} ({})\n",
        scanner.model_name(),
        records.len(),
        engine_desc(scanner.quant_bins()),
    );
    Ok((scanner, banner))
}

fn train(args: &[String]) -> Result<String, CliError> {
    let mut dataset: Option<&str> = None;
    let mut model_name = "random-forest".to_owned();
    let mut seed = 7u64;
    let mut save: Option<&str> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--model" => {
                model_name = iter
                    .next()
                    .ok_or_else(|| CliError::Usage(USAGE.to_owned()))?
                    .clone();
            }
            "--seed" => {
                seed = numeric(
                    iter.next()
                        .ok_or_else(|| CliError::Usage(USAGE.to_owned()))?,
                    "seed",
                )?;
            }
            "--save" => {
                save = Some(
                    iter.next()
                        .ok_or_else(|| CliError::Usage(USAGE.to_owned()))?,
                );
            }
            other if dataset.is_none() && !other.starts_with("--") => dataset = Some(other),
            other => {
                return Err(CliError::Usage(format!(
                    "unexpected argument `{other}`\n\n{USAGE}"
                )))
            }
        }
    }
    let path = dataset.ok_or_else(|| CliError::Usage(USAGE.to_owned()))?;
    let mut det = DetectorRegistry::global()
        .build_str(&model_name, seed)
        .map_err(|e| CliError::Usage(format!("bad model spec `{model_name}`: {e}\n\n{USAGE}")))?;

    let records = load_dataset(path)?;
    let codes: Vec<&[u8]> = records.iter().map(|r| r.bytecode.as_slice()).collect();
    let labels: Vec<usize> = records.iter().map(|r| r.label.as_index()).collect();
    let t0 = std::time::Instant::now();
    det.fit(&codes, &labels);
    let train_secs = t0.elapsed().as_secs_f64();

    let members = match &det {
        AnyDetector::Hsc(_) => String::new(),
        AnyDetector::Ensemble(e) => format!(" [{} members]", e.members().len()),
    };
    let mut out = format!(
        "trained {}{members} on {} labeled contracts in {:.2}s ({}; {})\n",
        det.name(),
        records.len(),
        train_secs,
        feature_desc(det.n_features(), det.features()),
        engine_desc(det.quant_bins()),
    );
    if let Some(path) = save {
        let bytes = det.to_snapshot_bytes();
        // Atomic save: a crash (or full disk) mid-write must not leave a
        // torn snapshot where a good one used to be.
        phishinghook_persist::write_bytes_atomic(path, &bytes)?;
        out.push_str(&format!(
            "saved snapshot to {path} ({} bytes)\n",
            bytes.len()
        ));
    }
    Ok(out)
}

fn scan(args: &[String]) -> Result<String, CliError> {
    if args.first().map(String::as_str) == Some("--model") {
        // Spec-or-snapshot path: load a fitted detector (or train a spec on
        // --train data) and score through the Scanner facade.
        let model = args
            .get(1)
            .ok_or_else(|| CliError::Usage(USAGE.to_owned()))?;
        let mut payloads: Vec<&String> = Vec::new();
        let mut train: Option<&str> = None;
        let mut iter = args[2..].iter();
        while let Some(arg) = iter.next() {
            if arg == "--train" {
                train = Some(
                    iter.next()
                        .ok_or_else(|| CliError::Usage(USAGE.to_owned()))?,
                );
            } else {
                payloads.push(arg);
            }
        }
        if payloads.is_empty() {
            return Err(CliError::Usage(USAGE.to_owned()));
        }
        let (mut scanner, banner) = scanner_from_model_arg(model, train, 7)?;
        let mut out = banner;
        for payload in payloads {
            let code = read_hex(payload)?;
            let reports = scanner.scan_batch(
                &[phishinghook_models::ScanRequest::bytecode("", code)],
                None,
            );
            let report = reports[0].as_ref().expect("bytecode targets always score");
            out.push_str(&format!(
                "{}…  →  {} (p={:.4})\n",
                preview(payload),
                report.verdict,
                report.proba
            ));
            if report.per_model.len() > 1 {
                for (name, proba) in &report.per_model {
                    out.push_str(&format!("    {name:<20} p={proba:.4}\n"));
                }
            }
        }
        return Ok(out);
    }

    let path = args
        .first()
        .ok_or_else(|| CliError::Usage(USAGE.to_owned()))?;
    if args.len() < 2 {
        return Err(CliError::Usage(USAGE.to_owned()));
    }
    let records = load_dataset(path)?;
    let codes: Vec<&[u8]> = records.iter().map(|r| r.bytecode.as_slice()).collect();
    let labels: Vec<usize> = records.iter().map(|r| r.label.as_index()).collect();
    let mut det = DetectorRegistry::global()
        .build_str("rf", 7)
        .expect("built-in spec");
    det.fit(&codes, &labels);

    let mut out = format!("detector trained on {} labeled contracts\n", records.len());
    for payload in &args[1..] {
        let code = read_hex(payload)?;
        let verdict = Label::from_index(det.predict(&[code.as_slice()])[0]);
        out.push_str(&format!("{}…  →  {verdict}\n", preview(payload)));
    }
    Ok(out)
}

/// First few characters of a hex payload for display.
fn preview(payload: &str) -> &str {
    if payload.len() > 18 {
        &payload[..18]
    } else {
        payload
    }
}

fn numeric<T: FromStr>(v: &str, name: &str) -> Result<T, CliError> {
    v.parse()
        .map_err(|_| CliError::Usage(format!("`{v}` is not a valid {name}\n\n{USAGE}")))
}

fn serve_cmd(args: &[String]) -> Result<String, CliError> {
    let mut model: Option<&str> = None;
    let mut train: Option<&str> = None;
    let mut chain_path: Option<&str> = None;
    let mut builder = ServeConfig::builder();
    let mut fault = FaultConfig::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = || {
            iter.next()
                .map(String::as_str)
                .ok_or_else(|| CliError::Usage(USAGE.to_owned()))
        };
        match arg.as_str() {
            "--model" => model = Some(value()?),
            "--train" => train = Some(value()?),
            "--chain" => chain_path = Some(value()?),
            "--batch" => builder = builder.batch(numeric(value()?, "batch size")?),
            "--shards" => builder = builder.shards(numeric(value()?, "shard count")?),
            "--queue-depth" => builder = builder.queue_depth(numeric(value()?, "queue depth")?),
            "--cache-bytes" => {
                builder = builder.cache_bytes(numeric(value()?, "cache byte budget")?);
            }
            "--max-conns" => builder = builder.max_conns(numeric(value()?, "connection limit")?),
            "--accept" => builder = builder.accept(numeric(value()?, "accept count")?),
            "--deadline-ms" => {
                builder = builder.deadline_ms(numeric(value()?, "deadline")?);
            }
            "--drain-ms" => builder = builder.drain_ms(numeric(value()?, "drain budget")?),
            "--cache-first-pct" => {
                builder = builder.cache_first_pct(numeric(value()?, "brownout percentage")?);
            }
            "--cache-only-pct" => {
                builder = builder.cache_only_pct(numeric(value()?, "brownout percentage")?);
            }
            "--retry-attempts" => {
                builder = builder.retry(RetryPolicy {
                    max_attempts: numeric(value()?, "retry attempt count")?,
                    ..RetryPolicy::default()
                });
            }
            "--fault-panic-every" => {
                fault.worker_panic_every = numeric(value()?, "fault batch interval")?;
            }
            "--fault-panic-shard" => {
                fault.worker_panic_shard = Some(numeric(value()?, "fault shard index")?);
            }
            "--fault-chain-permille" => {
                fault.chain_fail_permille = numeric(value()?, "fault rate (permille)")?;
            }
            "--fault-seed" => fault.seed = numeric(value()?, "fault seed")?,
            "--proto" => {
                let v = value()?;
                let proto = Protocol::parse(v).ok_or_else(|| {
                    CliError::Usage(format!(
                        "`{v}` is not a protocol version (expected v1 or v2)\n\n{USAGE}"
                    ))
                })?;
                builder = builder.proto(proto);
            }
            "--tcp" => builder = builder.tcp(value()?),
            "--http" => builder = builder.http(value()?),
            other => {
                return Err(CliError::Usage(format!(
                    "unexpected argument `{other}`\n\n{USAGE}"
                )))
            }
        }
    }
    let model = model.ok_or_else(|| {
        CliError::Usage(format!(
            "serve requires --model <snapshot-or-spec>\n\n{USAGE}"
        ))
    })?;
    if !fault.is_inert() {
        builder = builder.fault(fault);
    }
    // The builder validates the whole shape before any model work: sizes
    // must be ≥ 1, and connection limits without a listener or a fault
    // target past the last lane are refused, not silently ignored.
    let config = builder.build().map_err(|e| match e {
        ConfigError::LimitsWithoutListener(_) => CliError::Usage(format!(
            "--max-conns and --accept are connection limits; add --tcp <addr> or \
             --http <addr> (stdin mode serves exactly one stream)\n\n{USAGE}"
        )),
        e => CliError::Usage(format!("{e}\n\n{USAGE}")),
    })?;
    if let Some(fault) = config.scheduler().fault {
        let lane = fault
            .worker_panic_shard
            .map_or_else(|| "any lane".to_owned(), |s| format!("lane {s} only"));
        eprintln!(
            "fault injection ON (seed {}): panic every {} batch(es) ({lane}), chain fail {}‰",
            fault.seed, fault.worker_panic_every, fault.chain_fail_permille
        );
    }
    let chain = chain_path
        .map(|path| -> Result<SharedChain, CliError> {
            let records = load_dataset(path)?;
            let chain = SharedChain::from_records(&records);
            eprintln!("chain source: {} contract(s) from {path}", chain.len());
            Ok(chain)
        })
        .transpose()?;
    // The model is restored (or trained) exactly once per process; one
    // scheduler (a scoring thread per lane + verdict cache) serves every
    // front-end.
    // `run` prints the listener banners, serves stdin or the bound
    // listeners, and renders the aggregate report to stderr.
    let (scanner, banner) = scanner_from_model_arg(model, train, 7)?;
    eprint!("{banner}");
    phishinghook_serve::run(&scanner, &config, chain)?;
    Ok(String::new())
}

fn watch_cmd(args: &[String]) -> Result<String, CliError> {
    let mut model: Option<&str> = None;
    let mut train: Option<&str> = None;
    // The --quick preset is resolved first so the flags below override it
    // regardless of argument order.
    let mut opts = if args.iter().any(|a| a == "--quick") {
        WatchOptions::quick()
    } else {
        WatchOptions::default()
    };
    let mut serve = ServeConfig::builder();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = || {
            iter.next()
                .map(String::as_str)
                .ok_or_else(|| CliError::Usage(USAGE.to_owned()))
        };
        match arg.as_str() {
            "--model" => model = Some(value()?),
            "--train" => train = Some(value()?),
            "--quick" => {} // applied above, before any overrides
            "--events" => opts.events = numeric(value()?, "event count")?,
            "--templates" => {
                opts.firehose.templates = numeric::<usize>(value()?, "template count")?.max(1);
            }
            "--seed" => opts.firehose.seed = numeric(value()?, "seed")?,
            "--batch" => serve = serve.batch(numeric(value()?, "batch size")?),
            "--cache-bytes" => {
                serve = serve.cache_bytes(numeric(value()?, "cache byte budget")?);
            }
            other => {
                return Err(CliError::Usage(format!(
                    "unexpected argument `{other}`\n\n{USAGE}"
                )))
            }
        }
    }
    opts.serve = serve
        .build()
        .map_err(|e| CliError::Usage(format!("{e}\n\n{USAGE}")))?;
    let model = model.ok_or_else(|| {
        CliError::Usage(format!(
            "watch requires --model <snapshot-or-spec>\n\n{USAGE}"
        ))
    })?;
    let (scanner, banner) = scanner_from_model_arg(model, train, 7)?;
    let report = phishinghook_serve::run_watch(&scanner, &opts);
    Ok(format!("{banner}{}", report.render(scanner.model_name())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use phishinghook_evm::keccak::to_hex;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn usage_on_no_command() {
        assert!(matches!(run(&[]), Err(CliError::Usage(_))));
        assert!(matches!(run(&args(&["bogus"])), Err(CliError::Usage(_))));
    }

    #[test]
    fn disasm_renders_instructions() {
        let out = run(&args(&["disasm", "0x6080604052"])).expect("disassembles");
        assert!(out.contains("PUSH1,0x80,3"));
        assert!(out.contains("MSTORE"));
        assert!(out.contains("5 bytes, 3 instructions"));
    }

    #[test]
    fn disasm_rejects_bad_hex() {
        assert!(matches!(
            run(&args(&["disasm", "0xzz"])),
            Err(CliError::BadHex(_))
        ));
    }

    #[test]
    fn generate_then_eval_then_scan_roundtrip() {
        let dir = std::env::temp_dir().join("phishinghook-cli-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let csv = dir.join("ds.csv");
        let csv_str = csv.to_str().expect("utf8 path");

        let out = run(&args(&["generate", "120", csv_str, "5"])).expect("generates");
        assert!(out.contains("120 contracts"));

        // Scan one phishing and one benign bytecode from a *fresh* corpus.
        let probe = Corpus::generate(&CorpusConfig {
            n_contracts: 20,
            seed: 77,
            ..Default::default()
        });
        let phishing = probe.phishing().next().expect("phishing sample");
        let benign = probe.benign().next().expect("benign sample");
        let out = run(&args(&[
            "scan",
            csv_str,
            &format!("0x{}", to_hex(&phishing.bytecode)),
            &format!("0x{}", to_hex(&benign.bytecode)),
        ]))
        .expect("scans");
        assert!(out.contains("trained on 120"));
        assert_eq!(out.matches('→').count(), 2);
    }

    #[test]
    fn eval_reports_all_hscs() {
        let dir = std::env::temp_dir().join("phishinghook-cli-test2");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let csv = dir.join("ds.csv");
        let csv_str = csv.to_str().expect("utf8 path");
        run(&args(&["generate", "90", csv_str])).expect("generates");
        let out = run(&args(&["eval", csv_str, "3"])).expect("evaluates");
        for model in [
            "Random Forest",
            "k-NN",
            "SVM",
            "Logistic Regression",
            "XGBoost",
        ] {
            assert!(out.contains(model), "missing {model} in:\n{out}");
        }
    }

    #[test]
    fn train_save_then_scan_with_snapshot() {
        let dir = std::env::temp_dir().join("phishinghook-cli-test3");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let csv = dir.join("ds.csv");
        let snap = dir.join("knn.snap");
        let (csv_str, snap_str) = (csv.to_str().unwrap(), snap.to_str().unwrap());
        run(&args(&["generate", "100", csv_str, "9"])).expect("generates");

        let out = run(&args(&[
            "train", csv_str, "--model", "knn", "--save", snap_str,
        ]))
        .expect("trains");
        assert!(
            out.contains("trained k-NN on 100 labeled contracts"),
            "{out}"
        );
        assert!(out.contains("saved snapshot to"), "{out}");
        assert!(snap.exists());

        let probe = Corpus::generate(&CorpusConfig {
            n_contracts: 4,
            seed: 31,
            ..Default::default()
        });
        let hex = format!("0x{}", to_hex(&probe.records[0].bytecode));
        let out = run(&args(&["scan", "--model", snap_str, &hex])).expect("scans");
        assert!(out.contains("loaded k-NN snapshot"), "{out}");
        assert!(out.contains("(p="), "{out}");
        assert_eq!(out.matches('→').count(), 1);
    }

    #[test]
    fn corrupt_snapshot_is_a_typed_error() {
        let dir = std::env::temp_dir().join("phishinghook-cli-test4");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let bogus = dir.join("bogus.snap");
        std::fs::write(&bogus, b"definitely not a snapshot").expect("write");
        let err = run(&args(&["scan", "--model", bogus.to_str().unwrap(), "0x60"])).unwrap_err();
        assert!(matches!(err, CliError::Snapshot(_)), "{err:?}");
        assert!(err.to_string().contains("bad magic"), "{err}");
    }

    #[test]
    fn train_rejects_unknown_model() {
        let err = run(&args(&["train", "ds.csv", "--model", "resnet"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
    }

    #[test]
    fn serve_robustness_flags_validate_before_serving() {
        // Bad robustness knobs are refused at validation time — no model
        // is trained and no listener is bound.
        let err = run(&args(&[
            "serve",
            "--model",
            "rf",
            "--cache-first-pct",
            "90",
            "--cache-only-pct",
            "10",
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
        assert!(err.to_string().contains("cache_first_pct"), "{err}");

        let err = run(&args(&["serve", "--model", "rf", "--retry-attempts", "0"])).unwrap_err();
        assert!(err.to_string().contains("retry.max_attempts"), "{err}");

        let err = run(&args(&["serve", "--model", "rf", "--deadline-ms", "soon"])).unwrap_err();
        assert!(err.to_string().contains("not a valid deadline"), "{err}");

        // 2^32 + 50 is refused, not truncated to 50.
        let pct = ["serve", "--model", "rf", "--cache-first-pct", "4294967346"];
        let err = run(&args(&pct)).unwrap_err();
        assert!(
            err.to_string().contains("not a valid brownout percentage"),
            "{err}"
        );
    }

    #[test]
    fn train_ensemble_spec_save_then_scan_and_serve() {
        let dir = std::env::temp_dir().join("phishinghook-cli-test5");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let csv = dir.join("ds.csv");
        let snap = dir.join("ens.snap");
        let (csv_str, snap_str) = (csv.to_str().unwrap(), snap.to_str().unwrap());
        run(&args(&["generate", "90", csv_str, "21"])).expect("generates");

        let out = run(&args(&[
            "train",
            csv_str,
            "--model",
            "ensemble:rf+lgbm:vote=soft",
            "--save",
            snap_str,
        ]))
        .expect("trains");
        assert!(
            out.contains("trained ensemble:rf+lgbm:vote=soft [2 members]"),
            "{out}"
        );
        assert!(snap.exists());

        // Scanning the ensemble snapshot reports the combined verdict plus
        // one probability per member.
        let probe = Corpus::generate(&CorpusConfig {
            n_contracts: 3,
            seed: 41,
            ..Default::default()
        });
        let hex = format!("0x{}", to_hex(&probe.records[0].bytecode));
        let out = run(&args(&["scan", "--model", snap_str, &hex])).expect("scans");
        assert!(
            out.contains("loaded ensemble:rf+lgbm:vote=soft snapshot"),
            "{out}"
        );
        assert!(out.contains("Random Forest"), "{out}");
        assert!(out.contains("LightGBM"), "{out}");
        assert_eq!(out.matches("p=").count(), 3, "{out}");
    }

    #[test]
    fn scan_with_spec_trains_on_the_given_dataset() {
        let dir = std::env::temp_dir().join("phishinghook-cli-test6");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let csv = dir.join("ds.csv");
        let csv_str = csv.to_str().unwrap();
        run(&args(&["generate", "80", csv_str, "33"])).expect("generates");

        let probe = Corpus::generate(&CorpusConfig {
            n_contracts: 2,
            seed: 51,
            ..Default::default()
        });
        let hex = format!("0x{}", to_hex(&probe.records[0].bytecode));
        let out = run(&args(&["scan", "--model", "knn", "--train", csv_str, &hex])).expect("scans");
        assert!(
            out.contains("trained k-NN on 80 labeled contracts"),
            "{out}"
        );
        assert_eq!(out.matches('→').count(), 1);

        // A spec without training data is a usage error that says so.
        let err = run(&args(&["scan", "--model", "knn", &hex])).unwrap_err();
        assert!(err.to_string().contains("--train"), "{err}");
        // A snapshot combined with --train is refused, not silently stale:
        // csv_str exists, so it stands in for a snapshot path here.
        let err = run(&args(&[
            "scan", "--model", csv_str, "--train", csv_str, &hex,
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("would be ignored"), "{err}");
        // A malformed spec (that is also not a file) is a spec error.
        let err = run(&args(&["scan", "--model", "ensemble:", &hex])).unwrap_err();
        assert!(matches!(err, CliError::Spec(_)), "{err:?}");
    }

    #[test]
    fn serve_rejects_unknown_protocol() {
        let err = run(&args(&["serve", "--model", "x.snap", "--proto", "v9"])).unwrap_err();
        assert!(err.to_string().contains("protocol version"), "{err}");
    }

    #[test]
    fn serve_requires_model_flag() {
        let err = run(&args(&["serve"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
    }

    #[test]
    fn serve_validates_admission_flags() {
        let err = run(&args(&[
            "serve",
            "--model",
            "x.snap",
            "--max-conns",
            "lots",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("connection limit"), "{err}");
        let err = run(&args(&[
            "serve",
            "--model",
            "x.snap",
            "--cache-bytes",
            "-3",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("cache byte budget"), "{err}");
        // Connection limits without a TCP listener are refused, not
        // silently ignored.
        let err = run(&args(&["serve", "--model", "x.snap", "--accept", "2"])).unwrap_err();
        assert!(err.to_string().contains("add --tcp"), "{err}");
        let err = run(&args(&["serve", "--model", "x.snap", "--max-conns", "4"])).unwrap_err();
        assert!(err.to_string().contains("add --tcp"), "{err}");
        // An HTTP listener satisfies the limits-need-a-listener rule at
        // the parse layer (binding happens later, in serve::run).
        let err = run(&args(&[
            "serve",
            "--model",
            "nonexistent.snap",
            "--http",
            "127.0.0.1:0",
            "--accept",
            "1",
        ]))
        .unwrap_err();
        assert!(!err.to_string().contains("add --tcp"), "{err}");
    }

    #[test]
    fn serve_rejects_zero_sizes_through_the_typed_config() {
        let err = run(&args(&["serve", "--model", "x.snap", "--batch", "0"])).unwrap_err();
        assert!(
            err.to_string().contains("`batch` must be at least 1"),
            "{err}"
        );
        for cmd in ["serve", "watch"] {
            let err = run(&args(&[cmd, "--model", "rf", "--workers", "2"])).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{err}");
            assert!(
                err.to_string().contains("unexpected argument `--workers`"),
                "{err}"
            );
        }
        let err = run(&args(&["watch", "--model", "rf", "--batch", "0"])).unwrap_err();
        assert!(
            err.to_string().contains("`batch` must be at least 1"),
            "{err}"
        );
    }

    #[test]
    fn serve_validates_shard_flags() {
        // Zero lanes are refused by the typed config, before any model
        // work happens.
        let err = run(&args(&["serve", "--model", "x.snap", "--shards", "0"])).unwrap_err();
        assert!(
            err.to_string().contains("`shards` must be at least 1"),
            "{err}"
        );
        let err = run(&args(&["serve", "--model", "x.snap", "--shards", "lots"])).unwrap_err();
        assert!(err.to_string().contains("shard count"), "{err}");
        let err = run(&args(&[
            "serve",
            "--model",
            "x.snap",
            "--fault-panic-shard",
            "two",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("fault shard index"), "{err}");
        // Core pinning is gone; the old flag is a usage error, not a no-op.
        let err = run(&args(&["serve", "--model", "x.snap", "--pin-cores"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        assert!(
            err.to_string()
                .contains("unexpected argument `--pin-cores`"),
            "{err}"
        );
    }

    #[test]
    fn serve_rejects_a_fault_target_past_the_last_lane() {
        // Refused before any model work: a chaos run aimed at a lane the
        // daemon does not have would otherwise never inject anything.
        let err = run(&args(&[
            "serve",
            "--model",
            "x.snap",
            "--shards",
            "2",
            "--fault-panic-every",
            "1",
            "--fault-panic-shard",
            "9",
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        assert!(
            err.to_string()
                .contains("fault target lane 9 must be below `shards` (2)"),
            "{err}"
        );
        // Without --shards the lane count is the core count.
        let lanes = phishinghook_models::cores().to_string();
        let err = run(&args(&[
            "serve",
            "--model",
            "x.snap",
            "--fault-panic-every",
            "1",
            "--fault-panic-shard",
            &lanes,
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        assert!(
            err.to_string()
                .contains(&format!("lane {lanes} must be below `shards` ({lanes})")),
            "{err}"
        );
    }

    #[test]
    fn watch_requires_model_flag() {
        let err = run(&args(&["watch"])).unwrap_err();
        assert!(err.to_string().contains("watch requires --model"), "{err}");
        let err = run(&args(&["watch", "--model", "rf", "--events", "ten"])).unwrap_err();
        assert!(err.to_string().contains("event count"), "{err}");
    }

    #[test]
    fn watch_quick_runs_the_firehose_end_to_end() {
        let dir = std::env::temp_dir().join("phishinghook-cli-test7");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let csv = dir.join("ds.csv");
        let csv_str = csv.to_str().unwrap();
        run(&args(&["generate", "80", csv_str, "13"])).expect("generates");
        // --quick placed *after* the overrides: the preset must not
        // clobber explicit flags whatever the argument order.
        let out = run(&args(&[
            "watch",
            "--model",
            "rf",
            "--train",
            csv_str,
            "--events",
            "60",
            "--templates",
            "8",
            "--quick",
        ]))
        .expect("watches");
        assert!(out.contains("trained Random Forest"), "{out}");
        assert!(out.contains("watch report"), "{out}");
        assert!(out.contains("60 deploy event(s)"), "{out}");
        assert!(out.contains("hit rate"), "{out}");
    }

    #[test]
    fn generate_honeypot_scenario_and_train_trace_spec() {
        let dir = std::env::temp_dir().join("phishinghook-cli-test8");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let csv = dir.join("hp.csv");
        let csv_str = csv.to_str().unwrap();
        let out = run(&args(&[
            "generate",
            "40",
            csv_str,
            "3",
            "--scenario",
            "honeypot",
        ]))
        .expect("generates");
        assert!(out.contains("wrote 40 honeypot contracts"), "{out}");

        // A trace-bearing spec trains on it and the banner names the
        // channels rather than claiming opcode features.
        let out = run(&args(&[
            "train",
            csv_str,
            "--model",
            "rf:features=hist+trace",
        ]))
        .expect("trains");
        assert!(out.contains("trained Random Forest"), "{out}");
        assert!(out.contains("opcode+trace features"), "{out}");

        // Unknown scenarios are usage errors that say so.
        let err = run(&args(&["generate", "40", csv_str, "--scenario", "mainnet"])).unwrap_err();
        assert!(err.to_string().contains("unknown scenario"), "{err}");
    }

    #[test]
    fn missing_dataset_file_is_io_error() {
        assert!(matches!(
            run(&args(&["eval", "/nonexistent/ds.csv"])),
            Err(CliError::Io(_))
        ));
    }

    #[test]
    fn a_training_set_with_no_opcodes_trains_and_scans() {
        // Every bytecode `0x` (EOAs, say) gives zero histogram columns.
        let dir = std::env::temp_dir().join("phishinghook-cli-test-no-opcodes");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let csv = dir.join("eoas.csv");
        let csv_str = csv.to_str().unwrap();
        let mut corpus = Corpus::generate(&CorpusConfig {
            n_contracts: 12,
            seed: 5,
            ..Default::default()
        });
        for record in &mut corpus.records {
            record.bytecode.clear();
        }
        std::fs::write(&csv, to_csv(&corpus.records)).expect("write");

        let out = run(&args(&["train", csv_str, "--model", "rf"])).expect("trains");
        assert!(
            out.contains("trained Random Forest on 12 labeled contracts"),
            "{out}"
        );
        let out = run(&args(&[
            "scan",
            "--model",
            "lr",
            "--train",
            csv_str,
            "0x6080604052",
        ]))
        .expect("scans");
        assert_eq!(out.matches('→').count(), 1, "{out}");
    }

    /// A 40-contract corpus (20 per class) in a per-test temp dir.
    fn forty_contract_csv(test: &str) -> String {
        let dir = std::env::temp_dir().join(format!("phishinghook-cli-{test}"));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let csv = dir.join("c.csv");
        let csv_str = csv.to_str().expect("utf8 path").to_owned();
        let out = run(&args(&["generate", "40", &csv_str, "3"])).expect("generates");
        assert!(out.contains("(20 phishing / 20 benign)"), "{out}");
        csv_str
    }

    fn usage_message(result: Result<String, CliError>) -> String {
        match result {
            Err(CliError::Usage(msg)) => msg,
            other => panic!("expected a usage error, got {other:?}"),
        }
    }

    #[test]
    fn eval_rejects_fewer_than_two_folds() {
        let csv = forty_contract_csv("eval-few-folds");
        for k in ["0", "1"] {
            let msg = usage_message(run(&args(&["eval", &csv, k])));
            assert!(
                msg.starts_with(&format!("k-fold needs k >= 2, got {k}")),
                "{msg}"
            );
            assert!(
                msg.contains("between 2 and the smallest class size"),
                "{msg}"
            );
        }
    }

    #[test]
    fn eval_rejects_more_folds_than_the_smallest_class() {
        let csv = forty_contract_csv("eval-many-folds");
        let msg = usage_message(run(&args(&["eval", &csv, "30"])));
        assert!(
            msg.starts_with("class with 20 samples cannot fill 30 folds"),
            "{msg}"
        );
        // The largest fold count the classes allow still runs.
        let out = run(&args(&["eval", &csv, "20"])).expect("evaluates");
        assert!(
            out.starts_with("20-fold cross-validation on 40 contracts"),
            "{out}"
        );
    }

    #[test]
    fn eval_rejects_a_non_numeric_fold_count() {
        let csv = forty_contract_csv("eval-fold-text");
        let msg = usage_message(run(&args(&["eval", &csv, "x"])));
        assert!(msg.starts_with("`x` is not a valid fold count"), "{msg}");
    }

    #[test]
    fn generate_rejects_a_non_numeric_seed() {
        let dir = std::env::temp_dir().join("phishinghook-cli-generate-seed");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let csv = dir.join("out.csv");
        let _ = std::fs::remove_file(&csv);
        let csv_str = csv.to_str().expect("utf8 path");
        let msg = usage_message(run(&args(&["generate", "10", csv_str, "notaseed"])));
        assert!(msg.starts_with("`notaseed` is not a valid seed"), "{msg}");
        assert!(!csv.exists(), "nothing is written for a bad seed");
    }

    #[test]
    fn a_header_only_dataset_is_a_typed_error() {
        let dir = std::env::temp_dir().join("phishinghook-cli-header-only");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let csv = dir.join("empty.csv");
        std::fs::write(&csv, to_csv(&[])).expect("write");
        let csv_str = csv.to_str().expect("utf8 path");
        for invocation in [
            vec!["train", csv_str],
            vec!["eval", csv_str],
            vec!["scan", csv_str, "0x6080604052"],
            vec!["scan", "--model", "rf", "--train", csv_str, "0x6080604052"],
            vec!["serve", "--model", "rf", "--train", csv_str],
            vec!["watch", "--model", "rf", "--train", csv_str, "--quick"],
        ] {
            match run(&args(&invocation)) {
                Err(err @ CliError::EmptyDataset(_)) => assert_eq!(
                    err.to_string(),
                    format!("dataset `{csv_str}` has no contract rows"),
                    "{invocation:?}"
                ),
                other => panic!("{invocation:?}: expected EmptyDataset, got {other:?}"),
            }
        }
    }
}
