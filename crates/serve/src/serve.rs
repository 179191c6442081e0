//! Serving loops over the shared [`Scheduler`]: the stdin session
//! ([`serve_lines`]) and [`run`], which serves a whole process from one
//! validated [`ServeConfig`].
//!
//! Every session registers with one process-wide scheduler, so batches
//! form *across* connections and the keccak-keyed verdict cache is shared
//! by all of them. A stdin session is two thin threads — a reader that
//! frames and submits lines and a writer that drains the connection's
//! in-order response channel — plus the scheduler doing the actual work.
//!
//! Admission differs by transport, deliberately:
//!
//! * **stdin** ([`serve_lines`]) submits with [`Admission::Block`]: a bulk
//!   scoring run (`serve < corpus.hex`) wants lossless backpressure, not
//!   shed requests.
//! * **TCP JSONL** and **HTTP**, both served by the readiness loop
//!   [`serve_tcp`], submit with
//!   [`Admission::Shed`]: a saturated daemon answers queue-full with a
//!   typed overload response (`"code":"overloaded"` / `ERR` line / `503`)
//!   instead of buffering without bound, and `max_conns` refuses surplus
//!   *connections* the same way.
//!
//! Oversized request lines are handled below the protocol layer: stdin and
//! TCP cut lines with the same `proto::LineFramer`, which never buffers
//! more than [`MAX_LINE_BYTES`](crate::proto::MAX_LINE_BYTES) per line —
//! the long tail is discarded to the next newline and the request
//! answered with a typed error, keeping framing intact.

use crate::config::ServeConfig;
use crate::nbio::{serve_tcp, Transport};
use crate::proto::{Framed, LineFramer, Protocol};
use crate::scheduler::{Admission, PolledResponse, Scheduler, SubmitOutcome};
use phishinghook_data::SharedChain;
use phishinghook_models::Scanner;
use std::io::{self, BufRead, Write};
use std::net::TcpListener;
use std::time::{Duration, Instant};

/// Connection-acceptance limits for a listener loop
/// ([`serve_tcp`]), whichever transport it speaks.
#[derive(Debug, Clone, Copy, Default)]
pub struct TcpLimits {
    /// Maximum *concurrent* connections; surplus accepts are answered with
    /// one typed overload answer and closed. `None` = unlimited.
    pub max_conns: Option<usize>,
    /// Total connections to accept before draining and returning (test/CI
    /// runs). `None` = serve forever (the daemon case).
    pub accept_total: Option<usize>,
}

/// How long a listener stops accepting after an accept fails for want of
/// descriptors, buffers or memory; its live connections keep being served.
pub(crate) const ACCEPT_PAUSE: Duration = Duration::from_millis(100);

/// Whether a listener should outlive this `accept` error: out of file
/// descriptors (`EMFILE`, `ENFILE`), socket buffers (`ENOBUFS`) or memory
/// (`ENOMEM`), or a peer that gave up before its connection was accepted.
/// These pass once connections close or the peer is gone; every other
/// accept error still ends the listener.
pub(crate) fn accept_error_is_transient(e: &io::Error) -> bool {
    #[cfg(unix)]
    let out_of_resources = {
        const ENOMEM: i32 = 12;
        const ENFILE: i32 = 23;
        const EMFILE: i32 = 24;
        #[cfg(any(target_os = "linux", target_os = "android"))]
        const ENOBUFS: i32 = 105;
        #[cfg(not(any(target_os = "linux", target_os = "android")))]
        const ENOBUFS: i32 = 55;
        matches!(e.raw_os_error(), Some(ENOMEM | ENFILE | EMFILE | ENOBUFS))
    };
    #[cfg(not(unix))]
    let out_of_resources = e.kind() == io::ErrorKind::OutOfMemory;
    out_of_resources || e.kind() == io::ErrorKind::ConnectionAborted
}

/// One listener's accept pauses. An episode runs from the first transient
/// accept error to the next accepted connection and is logged once.
#[derive(Debug, Default)]
pub(crate) struct AcceptPause {
    /// When accepting resumes; `None` while not paused.
    until: Option<Instant>,
    /// This episode has been logged.
    logged: bool,
}

impl AcceptPause {
    /// Stops accepting for [`ACCEPT_PAUSE`] after a transient error.
    pub(crate) fn start(&mut self, err: &io::Error) {
        if !self.logged {
            eprintln!(
                "accept failed ({err}); pausing accepts in {} ms steps, live connections keep serving",
                ACCEPT_PAUSE.as_millis()
            );
            self.logged = true;
        }
        self.until = Some(Instant::now() + ACCEPT_PAUSE);
    }

    /// A connection was accepted: the episode, if any, is over.
    pub(crate) fn end(&mut self) {
        self.logged = false;
    }

    /// Time left in the current pause; `None` once accepting may resume.
    pub(crate) fn remaining(&mut self) -> Option<Duration> {
        let left = self.until?.saturating_duration_since(Instant::now());
        if left.is_zero() {
            self.until = None;
            return None;
        }
        Some(left)
    }
}

/// The tallies of one connection (one stdin run, TCP connection or HTTP
/// connection), or their sum over a bounded listener run. The scheduler's
/// router counts every response as it routes; the transport fills in
/// `secs`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServeReport {
    /// Scored requests (cold and cached).
    pub contracts: u64,
    /// Malformed request lines answered with an error response.
    pub errors: u64,
    /// Requests or connections shed with a typed overload response.
    pub overloads: u64,
    /// Requests answered from the verdict cache.
    pub cache_hits: u64,
    /// Requests scored cold (cache miss or cache disabled).
    pub cache_misses: u64,
    /// Total bytecode bytes scored.
    pub bytes: u64,
    /// Wall-clock seconds from first read to last write.
    pub secs: f64,
}

impl ServeReport {
    /// Human-readable multi-line summary.
    pub fn render(&self, model: &str) -> String {
        let per_sec = if self.secs > 0.0 {
            self.contracts as f64 / self.secs
        } else {
            0.0
        };
        let looked_up = self.cache_hits + self.cache_misses;
        let hit_rate = if looked_up > 0 {
            self.cache_hits as f64 / looked_up as f64 * 100.0
        } else {
            0.0
        };
        format!(
            "serve report ({model}): {} contract(s), {} error line(s), {} overload(s)\n\
             throughput {:.0} contracts/s ({:.2} MB/s), cache {} hit(s) / {} miss(es) ({:.1}% hit rate)\n",
            self.contracts,
            self.errors,
            self.overloads,
            per_sec,
            self.bytes as f64 / (1024.0 * 1024.0) / self.secs.max(1e-12),
            self.cache_hits,
            self.cache_misses,
            hit_rate,
        )
    }

    pub(crate) fn absorb(&mut self, other: &ServeReport) {
        self.contracts += other.contracts;
        self.errors += other.errors;
        self.overloads += other.overloads;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.bytes += other.bytes;
        self.secs = self.secs.max(other.secs);
    }
}

/// Serves one request stream to completion against the shared scheduler:
/// reads lines from `input`, writes one response line per request to
/// `output` (in request order), and returns the session's report.
///
/// This is the stdin transport: admission is lossless
/// ([`Admission::Block`]). TCP sessions go through
/// [`serve_tcp`], which sheds on overload instead.
///
/// # Errors
/// Propagates I/O errors from either side of the stream.
pub fn serve_lines(
    scheduler: &Scheduler,
    proto: Protocol,
    mut input: impl BufRead,
    output: impl Write + Send,
) -> io::Result<ServeReport> {
    let t0 = Instant::now();
    let (mut conn, rx) = scheduler.connect(proto);

    let (writer_result, read_error) = std::thread::scope(|scope| {
        let writer = scope.spawn(move || -> io::Result<()> {
            // Batch flushing: drain everything that is already in order
            // into the buffer before paying one flush, so a full scored
            // batch costs one syscall, while an interactive session still
            // flushes per line. The buffer is ours because the sink may
            // not have one worth the name: std's `Stdout` is line-buffered
            // and would write(2) every line. Every recv frees a slot in the
            // connection's flow-control window; on an output error this
            // returns early, dropping the stream, which disconnects
            // (unblocks) the submit side.
            let mut output = io::BufWriter::new(output);
            while let Some(line) = rx.recv() {
                output.write_all(line.as_bytes())?;
                output.write_all(b"\n")?;
                while let PolledResponse::Ready(more, _) = rx.poll() {
                    output.write_all(more.as_bytes())?;
                    output.write_all(b"\n")?;
                }
                output.flush()?;
            }
            Ok(())
        });

        // Stop consuming the input once the writer died.
        let mut submit = |framed: Framed<'_>| {
            conn.submit_framed(framed, Admission::Block) != SubmitOutcome::Disconnected
        };
        let mut framer = LineFramer::default();
        let read_error = loop {
            let chunk = match input.fill_buf() {
                Ok(chunk) => chunk,
                Err(e) => break Some(e),
            };
            if chunk.is_empty() {
                framer.finish(&mut submit);
                break None;
            }
            let n = chunk.len();
            let more = framer.push(chunk, &mut submit);
            input.consume(n);
            if !more {
                break None;
            }
        };
        conn.finish();
        (writer.join().expect("writer thread"), read_error)
    });

    let mut report = conn.report();
    writer_result?;
    if let Some(e) = read_error {
        return Err(e);
    }
    report.secs = t0.elapsed().as_secs_f64();
    Ok(report)
}

/// Runs a whole serving process from one validated [`ServeConfig`]: spawn
/// the scheduler (one scoring thread per lane, by default one lane per
/// core, with the optional chain handle for address-form requests), bind
/// whichever listeners the config names, and serve.
///
/// * **No listeners** — serve stdin to EOF with lossless (blocking)
///   admission and write responses to stdout; the report goes to stderr
///   so `serve … > verdicts.jsonl` stays clean.
/// * **`tcp` and/or `http`** — bind each, print one
///   `serving <model> on tcp://<addr> (…, <lanes> shard(s), …)` /
///   `http://<addr>` banner per listener to stderr (scripts scrape these
///   for the ephemeral port), and run one readiness loop per listener
///   (HTTP's on the calling thread) against the one scheduler — JSONL and
///   HTTP requests share batches, cache, admission control and metrics.
///   With `accept` set, returns the aggregate report once every listener
///   has accepted its quota and drained; otherwise serves forever.
///
/// [`Scheduler::begin_drain`] runs only once the work is over: after the
/// last stdin answer was written, or after every listener loop returned.
/// `run` handles no signal, so a client never sees `/healthz` report
/// `draining`, and the drain budget bounds only the scoring of jobs left
/// by connections that have already closed.
///
/// # Errors
/// Propagates bind/accept errors and stdin-mode I/O errors.
pub fn run(
    scanner: &Scanner,
    config: &ServeConfig,
    chain: Option<SharedChain>,
) -> io::Result<ServeReport> {
    let scheduler = Scheduler::with_chain(scanner, config.scheduler(), chain);
    let model = scheduler.model_name().to_owned();
    let proto = config.proto();
    let limits = config.limits();

    if config.tcp().is_none() && config.http().is_none() {
        let stdin = io::stdin();
        // Unlocked stdout handle: the writer thread is the only writer,
        // and `Stdout` is `Send` where `StdoutLock` is not.
        let report = serve_lines(&scheduler, proto, stdin.lock(), io::stdout())?;
        eprint!("{}", report.render(&model));
        scheduler.begin_drain();
        scheduler.shutdown();
        return Ok(report);
    }

    let tcp_listener = config.tcp().map(TcpListener::bind).transpose()?;
    let http_listener = config.http().map(TcpListener::bind).transpose()?;
    if let Some(listener) = &tcp_listener {
        eprintln!(
            "serving {model} on tcp://{} ({proto:?}, {} shard(s), batch {}, queue {}, cache {} bytes{})",
            listener.local_addr()?,
            scheduler.shards(),
            config.scheduler().batch,
            config.scheduler().queue_depth,
            config.scheduler().cache_bytes,
            match limits.max_conns {
                Some(m) => format!(", max {m} conns"),
                None => String::new(),
            },
        );
    }
    if let Some(listener) = &http_listener {
        eprintln!(
            "serving {model} on http://{} (POST /predict, GET /healthz, GET /readyz, GET /metrics)",
            listener.local_addr()?
        );
    }

    let mut total = ServeReport::default();
    std::thread::scope(|scope| -> io::Result<()> {
        let scheduler = &scheduler;
        let tcp_handle = tcp_listener.as_ref().map(|listener| {
            scope.spawn(move || serve_tcp(listener, scheduler, Transport::Jsonl(proto), limits))
        });
        if let Some(listener) = &http_listener {
            total.absorb(&serve_tcp(listener, scheduler, Transport::Http, limits)?);
        }
        if let Some(handle) = tcp_handle {
            total.absorb(&handle.join().expect("tcp listener thread")?);
        }
        Ok(())
    })?;
    if limits.accept_total.is_some() {
        eprint!("{}", total.render(&model));
    }
    // Flip the lifecycle to draining before the queue closes: any jobs
    // still queued past the drain budget are answered as typed timeouts
    // instead of holding shutdown hostage, and `/healthz` (were a probe
    // still connected) reports `draining`.
    scheduler.begin_drain();
    scheduler.shutdown();
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto;
    use crate::scheduler::SchedulerOptions;
    use crate::testutil::{ensemble_scanner, probe_lines, scanner};
    use phishinghook_evm::keccak::to_hex;

    fn serve_with(
        scanner: &Scanner,
        input: &str,
        opts: &SchedulerOptions,
        proto: Protocol,
    ) -> (String, ServeReport) {
        let scheduler = Scheduler::new(scanner, opts);
        let mut out = Vec::new();
        let report = serve_lines(&scheduler, proto, input.as_bytes(), &mut out).expect("serves");
        (String::from_utf8(out).expect("utf8 output"), report)
    }

    fn serve_to_string(
        input: &str,
        opts: &SchedulerOptions,
        proto: Protocol,
    ) -> (String, ServeReport) {
        serve_with(scanner(), input, opts, proto)
    }

    /// Cache off so repeated runs measure the cold path deterministically.
    fn no_cache() -> SchedulerOptions {
        SchedulerOptions {
            cache_bytes: 0,
            ..SchedulerOptions::default()
        }
    }

    #[test]
    fn v1_one_response_line_per_request_in_order() {
        let (input, codes) = probe_lines(10);
        let (out, report) = serve_to_string(&input, &SchedulerOptions::default(), Protocol::V1);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), codes.len());
        assert_eq!(report.contracts, codes.len() as u64);
        assert_eq!(report.errors, 0);
        assert_eq!(
            report.bytes,
            codes.iter().map(|c| c.len() as u64).sum::<u64>()
        );

        // Responses match direct scanner scoring, in request order.
        let refs: Vec<&[u8]> = codes.iter().map(Vec::as_slice).collect();
        let probs = scanner().worker().score_batch(&refs);
        for (line, p) in lines.iter().zip(&probs) {
            let verdict = if *p >= 0.5 { "phishing" } else { "benign" };
            assert_eq!(*line, format!("{verdict}\t{p:.6}"));
        }
    }

    /// A sink with no buffer of its own that counts the `write` calls it
    /// receives.
    #[derive(Default)]
    struct CountingSink {
        bytes: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn the_writer_makes_at_most_one_write_per_response_line() {
        // A line-buffered sink such as std's `Stdout` passes every write
        // straight to the OS, so the writer must batch lines itself.
        let (input, codes) = probe_lines(64);
        let (expected, _) = serve_to_string(&input, &no_cache(), Protocol::V1);
        let scheduler = Scheduler::new(scanner(), &no_cache());
        let mut sink = CountingSink::default();
        serve_lines(&scheduler, Protocol::V1, input.as_bytes(), &mut sink).expect("serves");
        assert_eq!(String::from_utf8(sink.bytes).expect("utf8"), expected);
        assert!(
            sink.writes <= codes.len(),
            "{} write(s) for {} response line(s)",
            sink.writes,
            codes.len()
        );
    }

    #[test]
    fn v2_responses_carry_ids_and_parse_as_jsonl() {
        let (input, codes) = probe_lines(6);
        let (out, report) = serve_to_string(&input, &SchedulerOptions::default(), Protocol::V2);
        assert_eq!(report.contracts, codes.len() as u64);
        let refs: Vec<&[u8]> = codes.iter().map(Vec::as_slice).collect();
        let probs = scanner().worker().score_batch(&refs);
        for (i, (line, p)) in out.lines().zip(&probs).enumerate() {
            // Bare-hex requests get sequence-number ids.
            assert!(
                line.starts_with(&format!("{{\"proto\":2,\"id\":\"{i}\",")),
                "{line}"
            );
            let verdict = if *p >= 0.5 { "phishing" } else { "benign" };
            assert!(
                line.contains(&format!("\"verdict\":\"{verdict}\"")),
                "{line}"
            );
            assert!(line.contains(&format!("\"proba\":{p:.6}")), "{line}");
            assert!(
                line.contains("\"model_version\":\"hsc-detector/v1\""),
                "{line}"
            );
            assert!(
                line.contains("\"per_model\":[{\"name\":\"Random Forest\""),
                "{line}"
            );
            assert!(line.ends_with("]}"), "{line}");
        }
    }

    #[test]
    fn v2_json_requests_echo_their_ids() {
        let (_, codes) = probe_lines(2);
        let input = format!(
            "{{\"id\":\"tx-a\",\"bytecode\":\"0x{}\"}}\n{{\"bytecode\":\"0x{}\"}}\nnot json or hex!!\n",
            to_hex(&codes[0]),
            to_hex(&codes[1]),
        );
        let (out, report) = serve_to_string(&input, &SchedulerOptions::default(), Protocol::V2);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(
            lines[0].starts_with("{\"proto\":2,\"id\":\"tx-a\","),
            "{}",
            lines[0]
        );
        // Missing id falls back to the request's per-connection sequence.
        assert!(
            lines[1].starts_with("{\"proto\":2,\"id\":\"1\","),
            "{}",
            lines[1]
        );
        assert!(lines[2].contains("\"error\":"), "{}", lines[2]);
        assert_eq!(report.contracts, 2);
        assert_eq!(report.errors, 1);
    }

    #[test]
    fn v2_ensembles_expose_per_member_probabilities() {
        let (input, codes) = probe_lines(4);
        let (out, _) = serve_with(
            ensemble_scanner(),
            &input,
            &SchedulerOptions::default(),
            Protocol::V2,
        );
        let refs: Vec<&[u8]> = codes.iter().map(Vec::as_slice).collect();
        let combined = ensemble_scanner().worker().score_batch(&refs);
        for (line, p) in out.lines().zip(&combined) {
            assert!(
                line.contains("\"model_version\":\"hsc-ensemble/v1\""),
                "{line}"
            );
            assert!(
                line.contains("{\"name\":\"Random Forest\",\"proba\":"),
                "{line}"
            );
            assert!(line.contains("{\"name\":\"LightGBM\",\"proba\":"), "{line}");
            assert!(line.contains(&format!("\"proba\":{p:.6}")), "{line}");
            assert_eq!(line.matches("\"name\":").count(), 2, "{line}");
        }
    }

    #[test]
    fn output_order_is_stable_for_any_batch_size_and_worker_count() {
        let (input, _) = probe_lines(23);
        for proto in [Protocol::V1, Protocol::V2] {
            let (reference, _) = serve_to_string(&input, &no_cache(), proto);
            for (batch, shards) in [(1, 1), (4, 3), (5, 2), (64, 4)] {
                for cache_bytes in [0usize, 8 << 20] {
                    let opts = SchedulerOptions {
                        batch,
                        shards,
                        cache_bytes,
                        ..SchedulerOptions::default()
                    };
                    let (out, report) = serve_to_string(&input, &opts, proto);
                    assert_eq!(
                        out, reference,
                        "batch={batch} shards={shards} cache={cache_bytes} {proto:?}"
                    );
                    assert_eq!(report.contracts, 23);
                }
            }
        }
    }

    #[test]
    fn v1_malformed_and_blank_lines() {
        let (mut input, codes) = probe_lines(3);
        input.push_str("zznothex\n\n   \n0x60\n");
        let (out, report) = serve_to_string(
            &input,
            &SchedulerOptions {
                batch: 2,
                shards: 2,
                ..SchedulerOptions::default()
            },
            Protocol::V1,
        );
        let lines: Vec<&str> = out.lines().collect();
        // 3 contracts + 1 malformed + 1 tiny-but-valid; blanks are skipped.
        assert_eq!(lines.len(), codes.len() + 2);
        assert_eq!(lines[codes.len()], "error\tnot valid hex bytecode");
        assert!(
            lines[codes.len() + 1].starts_with("phishing\t")
                || lines[codes.len() + 1].starts_with("benign\t")
        );
        assert_eq!(report.errors, 1);
        assert_eq!(report.contracts, codes.len() as u64 + 1);
    }

    #[test]
    fn oversized_lines_are_rejected_without_unbounded_buffering() {
        // A line way past MAX_LINE_BYTES is answered with a typed error and
        // framing survives: the next line still gets its own response.
        let (input, codes) = probe_lines(1);
        let huge = "60".repeat(proto::MAX_LINE_BYTES / 2 + 77);
        let session = format!("{huge}\n{input}");
        let (out, report) = serve_to_string(&session, &SchedulerOptions::default(), Protocol::V2);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 1 + codes.len());
        assert!(lines[0].contains("byte limit"), "{}", lines[0]);
        assert!(lines[0].contains("\"error\""), "{}", lines[0]);
        assert!(lines[1].contains("\"verdict\""), "{}", lines[1]);
        assert_eq!(report.errors, 1);
        assert_eq!(report.contracts, 1);
    }

    #[test]
    fn empty_input_yields_empty_report() {
        let (out, report) = serve_to_string("", &SchedulerOptions::default(), Protocol::V2);
        assert!(out.is_empty());
        assert_eq!(report.contracts, 0);
        let rendered = report.render("Random Forest");
        assert!(rendered.contains("0 contract(s)"), "{rendered}");
    }

    #[test]
    fn accept_counts_connections_per_listener() {
        use std::io::{Read, Write};
        use std::net::{SocketAddr, TcpStream};
        use std::sync::mpsc;

        // Two free loopback ports: bind each, note it, release it.
        let free = || {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            listener.local_addr().expect("addr")
        };
        let (tcp, http) = (free(), free());
        let config = ServeConfig::builder()
            .tcp(tcp.to_string())
            .http(http.to_string())
            .accept(1)
            .build()
            .expect("valid config");
        let (done_tx, done) = mpsc::channel();
        let server = std::thread::spawn(move || done_tx.send(run(scanner(), &config, None)));

        let connect = |addr: SocketAddr| {
            let start = Instant::now();
            loop {
                match TcpStream::connect(addr) {
                    Ok(stream) => break stream,
                    Err(e) if start.elapsed() > Duration::from_secs(10) => panic!("{addr}: {e}"),
                    Err(_) => std::thread::sleep(Duration::from_millis(10)),
                }
            }
        };
        let exchange = |addr: SocketAddr, request: &str| {
            let mut stream = connect(addr);
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("timeout");
            stream.write_all(request.as_bytes()).expect("send");
            stream
                .shutdown(std::net::Shutdown::Write)
                .expect("half-close");
            let mut response = String::new();
            stream.read_to_string(&mut response).expect("read");
            response
        };

        // One connection on each listener: with `accept(1)` each listener
        // takes one, and `run` returns once both have drained.
        let (lines, _) = probe_lines(2);
        let mut lines = lines.lines();
        let jsonl = exchange(tcp, &format!("{}\n", lines.next().expect("line")));
        assert!(jsonl.contains("\"verdict\""), "{jsonl}");
        let body = format!("{{\"bytecode\":\"{}\"}}", lines.next().expect("line"));
        let response = exchange(
            http,
            &format!(
                "POST /predict HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\
                 Content-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        );
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        assert!(response.contains("\"verdict\""), "{response}");

        let report = done
            .recv_timeout(Duration::from_secs(30))
            .expect("run returns after one connection per listener")
            .expect("run serves");
        assert_eq!(report.contracts, 2);
        server.join().expect("run thread").expect("result received");
    }
}
