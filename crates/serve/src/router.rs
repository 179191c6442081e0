//! The HTTP gateway: `/predict`, `/healthz` and `/metrics` over the same
//! scheduler, cache and admission control as the JSONL front-ends.
//!
//! One HTTP connection is one scheduler connection. Every HTTP request
//! routes **exactly one** response body through the scheduler's ordered
//! per-connection router — a `/predict` body is submitted verbatim as a
//! v2 JSONL line (so HTTP verdicts are bit-identical to JSONL verdicts,
//! cache and all), while `/healthz`, `/metrics` and immediate rejections
//! route an already-rendered body. The session's writer thread pairs each
//! routed body with a response head (status / content type / keep-alive)
//! carried on a same-order side channel, so pipelined requests answer in
//! request order even while their verdicts are scored out of order across
//! micro-batches.
//!
//! Endpoints:
//!
//! * `POST /predict` — body is one v2 request: `{"bytecode":"0x…"}`,
//!   `{"address":"0x…"}` (resolved through the scheduler's chain handle),
//!   or bare hex. `200` with the v2 verdict object; `400` malformed;
//!   `404` unresolvable address; `503` + `Retry-After` when shed by
//!   admission control; `413` when the body exceeds the 1 MiB cap.
//! * `GET /healthz` — lifecycle-aware liveness: `200` with
//!   `{"status":"ok"|"degraded",…}` while serving (degraded = the brownout
//!   ladder left the Full tier), `503` with `{"status":"draining",…}` once
//!   [`Scheduler::begin_drain`] ran — load balancers stop routing here
//!   *before* the listener dies.
//! * `GET /readyz` — readiness: `200` only when running **and** shallower
//!   than the cache-only brownout tier; `503` otherwise.
//! * `GET /metrics` — `200` with the Prometheus text exposition from
//!   [`metrics::render_prometheus`].
//!
//! A `/predict` admitted to the queue answers its status when the verdict
//! *routes*, not when it was admitted: the response head is marked deferred and
//! the writer maps the routed [`ResponseKind`] to `200` (verdict), `500`
//! (the scoring worker panicked on that batch) or `504` (the request
//! out-waited its deadline).
//!
//! Overloaded *connections* (`max_conns`) answer `503` + `Retry-After`
//! at accept, mirroring the JSONL listener's typed overload line.

use crate::http::{self, HttpRequest, RequestOutcome, ResponseHead};
use crate::metrics;
use crate::proto::{self, Protocol};
use crate::scheduler::{
    Admission, Connection, DegradationTier, Lifecycle, ResponseKind, Scheduler, SubmitOutcome,
};
use crate::serve::{self, ServeReport, TcpLimits};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

const JSON: &str = "application/json";
const PROMETHEUS: &str = "text/plain; version=0.0.4";

/// The response head for one routed body, sent to the session's writer in
/// submit order (1:1 with routed bodies).
struct Head {
    status: u16,
    content_type: &'static str,
    retry_after: Option<u32>,
    keep_alive: bool,
    /// The status is provisional: the body is a queued verdict slot whose
    /// real outcome (scored / worker panic / deadline timeout) is only
    /// known when it routes — the writer overrides the status from the
    /// routed [`ResponseKind`].
    deferred: bool,
}

fn error_body(detail: &str) -> String {
    let mut out = String::with_capacity(detail.len() + 12);
    out.push_str("{\"error\":");
    proto::push_json_string(&mut out, detail);
    out.push('}');
    out
}

/// Serves the HTTP gateway on `listener` against the shared scheduler.
/// Admission mirrors [`serve_tcp`](crate::nbio::serve_tcp): shed-mode
/// per request (`503` + `Retry-After`), `limits.max_conns` concurrent
/// connections (surplus accepts answer `503` and close), and
/// `limits.accept_total` bounds the accepted connections before the
/// aggregate report is returned (`None` = serve forever).
///
/// # Errors
/// Propagates accept errors other than running out of descriptors,
/// buffers or memory, which pause accepting instead; per-connection I/O
/// errors are reported to stderr and do not stop the gateway.
pub fn serve_http(
    listener: &TcpListener,
    scheduler: &Scheduler,
    limits: TcpLimits,
) -> io::Result<ServeReport> {
    let model = scheduler.model_name();
    let mut total = ServeReport::default();
    let live = AtomicUsize::new(0);
    let mut accepted = 0usize;
    let mut accept_pause = serve::AcceptPause::default();
    std::thread::scope(|scope| -> io::Result<()> {
        let channel = limits.accept_total.map(|_| mpsc::channel::<ServeReport>());
        let report_tx = channel.as_ref().map(|(tx, _)| tx);
        while limits.accept_total.is_none_or(|m| accepted < m) {
            let (mut stream, peer) = match listener.accept() {
                Ok(pair) => pair,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if serve::accept_error_is_transient(&e) => {
                    // The session threads keep serving meanwhile.
                    accept_pause.start(&e);
                    std::thread::sleep(serve::ACCEPT_PAUSE);
                    continue;
                }
                Err(e) => return Err(e),
            };
            accept_pause.end();
            accepted += 1;
            if limits
                .max_conns
                .is_some_and(|m| live.load(Ordering::SeqCst) >= m)
            {
                let _ = http::write_response(
                    &mut stream,
                    ResponseHead {
                        status: 503,
                        content_type: JSON,
                        retry_after: Some(1),
                        keep_alive: false,
                    },
                    error_body("overloaded: connection limit reached").as_bytes(),
                );
                // Drain whatever request bytes the client already sent
                // before dropping the socket: closing with unread input
                // RSTs the connection and can destroy the 503 in flight.
                let _ = stream.shutdown(std::net::Shutdown::Write);
                let _ = stream.set_read_timeout(Some(std::time::Duration::from_millis(200)));
                let mut sink = [0u8; 1024];
                while matches!(io::Read::read(&mut stream, &mut sink), Ok(n) if n > 0) {}
                scheduler.metrics().http_response(503);
                // The refusal never reaches a scheduler connection, so the
                // shared overload counter is incremented here — exactly
                // once per refused request, like the queue-shed path.
                scheduler.metrics().inc_overloads();
                eprintln!(
                    "[http {peer}] refused: {} concurrent connection(s) reached",
                    live.load(Ordering::SeqCst)
                );
                total.overloads += 1;
                continue;
            }
            if let Err(e) = stream.set_nodelay(true) {
                eprintln!("[http {peer}] dropped: {e}");
                continue;
            }
            live.fetch_add(1, Ordering::SeqCst);
            let live = &live;
            let report_tx = report_tx.cloned();
            scope.spawn(move || {
                let outcome = http_session(scheduler, &stream);
                live.fetch_sub(1, Ordering::SeqCst);
                match outcome {
                    Ok(report) => {
                        eprint!("[http {peer}] {}", report.render(model));
                        if let Some(tx) = report_tx {
                            let _ = tx.send(report);
                        }
                    }
                    Err(e) => eprintln!("[http {peer}] connection error: {e}"),
                }
            });
        }
        if let Some((tx, rx)) = channel {
            drop(tx);
            for report in rx {
                total.absorb(&report);
            }
        }
        Ok(())
    })?;
    Ok(total)
}

/// Serves one accepted HTTP connection to close/EOF: a reader loop that
/// parses requests and submits them (each producing one routed body plus
/// one [`Head`]), and a writer thread pairing the two streams in order.
fn http_session(scheduler: &Scheduler, stream: &TcpStream) -> io::Result<ServeReport> {
    let t0 = Instant::now();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream.try_clone()?);
    let (mut conn, responses) = scheduler.connect(Protocol::V2);
    let conn_id = conn.id();
    let (head_tx, head_rx) = mpsc::channel::<Head>();

    let (writer_result, read_error) = std::thread::scope(|scope| {
        let metrics = scheduler.metrics();
        let writer_thread = scope.spawn(move || -> io::Result<()> {
            // Heads arrive in submit order; routed bodies arrive in the
            // same order — pair them 1:1. Dropping `responses` on an
            // error disconnects (unblocks) the submit side.
            while let Ok(head) = head_rx.recv() {
                let Some((body, kind)) = responses.recv_with_kind() else {
                    break; // submit side gone without routing the body
                };
                // Deferred heads (queued verdict slots) learn their real
                // status from the routed response kind: the batch may have
                // panicked (500) or the deadline lapsed (504) after the
                // request was admitted with a provisional 200.
                let status = match (head.deferred, kind) {
                    (true, ResponseKind::Internal) => 500,
                    (true, ResponseKind::Timeout) => 504,
                    _ => head.status,
                };
                http::write_response(
                    &mut writer,
                    ResponseHead {
                        status,
                        content_type: head.content_type,
                        retry_after: head.retry_after,
                        keep_alive: head.keep_alive,
                    },
                    body.as_bytes(),
                )?;
                writer.flush()?;
                metrics.http_response(status);
                if !head.keep_alive {
                    break;
                }
            }
            Ok(())
        });

        let mut read_error: Option<io::Error> = None;
        loop {
            let outcome = match http::read_request(&mut reader) {
                Err(e) => {
                    read_error = Some(e);
                    break;
                }
                Ok(outcome) => outcome,
            };
            match outcome {
                RequestOutcome::Eof | RequestOutcome::Disconnected => break,
                RequestOutcome::Reject { status, detail } => {
                    scheduler.metrics().http_request();
                    if conn.submit_rendered(error_body(&detail), true)
                        == SubmitOutcome::Disconnected
                    {
                        break;
                    }
                    // Framing after a parse error is unknowable: close.
                    let _ = head_tx.send(Head {
                        status,
                        content_type: JSON,
                        retry_after: None,
                        keep_alive: false,
                        deferred: false,
                    });
                    break;
                }
                RequestOutcome::Request(req) => {
                    scheduler.metrics().http_request();
                    let Some(head) = answer(scheduler, &mut conn, req) else {
                        break; // submit side disconnected
                    };
                    let closing = !head.keep_alive;
                    if head_tx.send(head).is_err() || closing {
                        break;
                    }
                }
            }
        }
        drop(head_tx); // ends the writer's pairing loop
        conn.finish();
        (
            writer_thread.join().expect("http writer thread"),
            read_error,
        )
    });

    let mut report = scheduler.take_report(conn_id);
    writer_result?;
    if let Some(e) = read_error {
        return Err(e);
    }
    report.secs = t0.elapsed().as_secs_f64();
    Ok(report)
}

/// Routes one parsed request: exactly one body is routed through the
/// scheduler and the matching [`Head`] is returned. `None` when the
/// connection's response stream is gone (stop reading).
fn answer(scheduler: &Scheduler, conn: &mut Connection, req: HttpRequest) -> Option<Head> {
    let path = req.target.split('?').next().unwrap_or("");
    let head = |status: u16, content_type: &'static str, retry_after: Option<u32>| Head {
        status,
        content_type,
        retry_after,
        keep_alive: req.keep_alive,
        deferred: false,
    };
    let outcome = match (req.method.as_str(), path) {
        ("POST", "/predict") => {
            let body = String::from_utf8_lossy(&req.body);
            let line = body.trim();
            if line.is_empty() {
                conn.submit_rendered(error_body("empty request body"), true)
            } else {
                // The body IS one v2 JSONL request — same decode path,
                // same cache, bit-identical verdict rendering.
                conn.submit(line, Admission::Shed)
            }
        }
        ("GET", "/healthz") => {
            let draining = scheduler.lifecycle() == Lifecycle::Draining;
            let tier = scheduler.degradation_tier();
            let status_name = if draining {
                "draining"
            } else if tier > DegradationTier::Full {
                "degraded"
            } else {
                "ok"
            };
            let mut body = String::from("{\"status\":");
            proto::push_json_string(&mut body, status_name);
            body.push_str(",\"model\":");
            proto::push_json_string(&mut body, scheduler.model_name());
            body.push_str(",\"model_version\":");
            proto::push_json_string(&mut body, scheduler.model_version());
            body.push_str(",\"tier\":");
            proto::push_json_string(&mut body, tier.as_str());
            body.push('}');
            if conn.submit_rendered(body, false) == SubmitOutcome::Disconnected {
                return None;
            }
            // Draining answers 503 so load balancers pull the instance
            // while the drain finishes; degraded stays 200 (alive, just
            // trading quality for headroom — /readyz is the gate).
            return Some(head(if draining { 503 } else { 200 }, JSON, None));
        }
        ("GET", "/readyz") => {
            let draining = scheduler.lifecycle() == Lifecycle::Draining;
            let tier = scheduler.degradation_tier();
            let ready = !draining && tier < DegradationTier::CacheOnly;
            let mut body = String::from(if ready {
                "{\"ready\":true,\"tier\":"
            } else {
                "{\"ready\":false,\"tier\":"
            });
            proto::push_json_string(&mut body, tier.as_str());
            body.push('}');
            if conn.submit_rendered(body, false) == SubmitOutcome::Disconnected {
                return None;
            }
            return Some(head(if ready { 200 } else { 503 }, JSON, None));
        }
        ("GET", "/metrics") => {
            let snap = scheduler.metrics_snapshot();
            let mut text = metrics::render_prometheus(
                &snap,
                scheduler.model_name(),
                scheduler.model_version(),
                scheduler.quant_bins(),
            );
            text.push_str(&metrics::render_prometheus_shards(&scheduler.shard_stats()));
            let outcome = conn.submit_rendered(text, false);
            if outcome == SubmitOutcome::Disconnected {
                return None;
            }
            return Some(head(200, PROMETHEUS, None));
        }
        (_, "/predict" | "/healthz" | "/readyz" | "/metrics") => {
            let outcome = conn.submit_rendered(
                error_body(&format!("method {} not allowed on {path}", req.method)),
                true,
            );
            if outcome == SubmitOutcome::Disconnected {
                return None;
            }
            return Some(head(405, JSON, None));
        }
        _ => {
            let outcome =
                conn.submit_rendered(error_body(&format!("no such endpoint: {path}")), true);
            if outcome == SubmitOutcome::Disconnected {
                return None;
            }
            return Some(head(404, JSON, None));
        }
    };
    match outcome {
        // Queued slots defer their status to route time (200/500/504).
        SubmitOutcome::Queued => Some(Head {
            deferred: true,
            ..head(200, JSON, None)
        }),
        SubmitOutcome::CacheHit | SubmitOutcome::Stats => Some(head(200, JSON, None)),
        SubmitOutcome::Error => Some(head(400, JSON, None)),
        SubmitOutcome::Unresolved => Some(head(404, JSON, None)),
        SubmitOutcome::Overloaded => Some(head(503, JSON, Some(1))),
        SubmitOutcome::Disconnected => None,
        // A blank /predict body was answered inline above; a blank JSONL
        // line cannot reach here.
        SubmitOutcome::Ignored => Some(head(400, JSON, None)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::SchedulerOptions;
    use crate::serve::serve_lines;
    use crate::testutil::{probe_lines, scanner};
    use phishinghook_data::{Address, SharedChain};
    use phishinghook_evm::keccak::to_hex;
    use std::io::Read;

    fn no_cache() -> SchedulerOptions {
        SchedulerOptions {
            cache_bytes: 0,
            ..SchedulerOptions::default()
        }
    }

    /// Sends raw bytes, half-closes, and returns everything the server
    /// wrote back.
    fn raw_exchange(addr: std::net::SocketAddr, raw: String) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(raw.as_bytes()).expect("send");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        response
    }

    fn post_predict(body: &str) -> String {
        format!(
            "POST /predict HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        )
    }

    #[test]
    fn predict_is_bit_identical_to_jsonl_and_probes_interleave() {
        let (_, codes) = probe_lines(2);
        let chain = SharedChain::new();
        let address: Address = [0x42; 20];
        chain.deploy(address, codes[0].clone());
        let scheduler = Scheduler::with_chain(scanner(), &no_cache(), Some(chain));

        // The JSONL reference verdict for the same bytecode.
        let request = format!(
            "{{\"id\":\"probe\",\"bytecode\":\"0x{}\"}}",
            to_hex(&codes[0])
        );
        let mut jsonl_out = Vec::new();
        serve_lines(
            &scheduler,
            Protocol::V2,
            format!("{request}\n").as_bytes(),
            &mut jsonl_out,
        )
        .expect("jsonl serves");
        let jsonl_line = String::from_utf8(jsonl_out).expect("utf8");
        let jsonl_line = jsonl_line.trim_end();

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr_sock = listener.local_addr().expect("addr");
        let addr_hex = format!("0x{}", to_hex(&address));
        let response = std::thread::scope(|scope| {
            let scheduler = &scheduler;
            let server = scope.spawn(move || {
                serve_http(
                    &listener,
                    scheduler,
                    TcpLimits {
                        max_conns: Some(4),
                        accept_total: Some(1),
                    },
                )
                .expect("serves")
            });
            // One keep-alive connection, four pipelined requests.
            let raw = format!(
                "{}{}{}{}",
                post_predict(&request),
                post_predict(&format!(
                    "{{\"id\":\"by-addr\",\"address\":\"{addr_hex}\"}}"
                )),
                "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n",
                "GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
            );
            let response = raw_exchange(addr_sock, raw);
            let report = server.join().expect("server thread");
            assert_eq!(report.contracts, 2);
            response
        });

        assert_eq!(response.matches("HTTP/1.1 200 OK").count(), 4, "{response}");
        // The /predict body is byte-for-byte the JSONL v2 verdict line —
        // same f64 bits, same rendering.
        assert!(response.contains(jsonl_line), "{response}");
        // The address form echoes the resolved address.
        assert!(
            response.contains(&format!("\"id\":\"by-addr\",\"address\":\"{addr_hex}\"")),
            "{response}"
        );
        assert!(
            response.contains("{\"status\":\"ok\",\"model\":"),
            "{response}"
        );
        // Prometheus text carries the scheduler counters. (The body is
        // rendered when the pipelined GET is *read*, which races the
        // workers scoring the two predicts — assert presence, and check
        // exact values on the post-join snapshot below.)
        assert!(
            response.contains("phishinghook_requests_scored_total "),
            "{response}"
        );
        assert!(
            response.contains("# TYPE phishinghook_request_latency_seconds histogram"),
            "{response}"
        );
        assert!(
            response.contains("phishinghook_request_latency_p50_seconds"),
            "{response}"
        );
        assert!(
            response.contains("phishinghook_http_requests_total"),
            "{response}"
        );
        // Per-shard families ride along (one lane by default).
        assert!(
            response.contains("phishinghook_shard_queue_depth{shard=\"0\"}"),
            "{response}"
        );

        // Three scored in total: the JSONL reference probe plus the two
        // HTTP predicts (no cache, so the repeat bytecode scores again).
        let snap = scheduler.metrics_snapshot();
        assert_eq!(snap.http.requests, 4);
        assert!(snap.http.responses_2xx >= 3, "{:?}", snap.http);
        assert_eq!(snap.scheduler.scored, 3);
        assert_eq!(snap.latency.count(), 3);
    }

    #[test]
    fn connection_limit_answers_503_with_retry_after() {
        let scheduler = Scheduler::new(scanner(), &SchedulerOptions::default());
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let report = std::thread::scope(|scope| {
            let scheduler = &scheduler;
            let server = scope.spawn(move || {
                serve_http(
                    &listener,
                    scheduler,
                    TcpLimits {
                        max_conns: Some(0), // deterministic: refuse all
                        accept_total: Some(1),
                    },
                )
                .expect("serves")
            });
            let response = raw_exchange(addr, "GET /healthz HTTP/1.1\r\n\r\n".to_owned());
            assert!(
                response.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
                "{response}"
            );
            assert!(response.contains("Retry-After: 1\r\n"), "{response}");
            assert!(response.contains("\"error\":\"overloaded"), "{response}");
            server.join().expect("server thread")
        });
        assert_eq!(report.overloads, 1);
        assert_eq!(scheduler.metrics_snapshot().http.responses_5xx, 1);
    }

    #[test]
    fn malformed_and_unroutable_requests_answer_typed_and_never_wedge() {
        let scheduler = Scheduler::new(scanner(), &SchedulerOptions::default());
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::scope(|scope| {
            let scheduler = &scheduler;
            let server = scope.spawn(move || {
                serve_http(
                    &listener,
                    scheduler,
                    TcpLimits {
                        max_conns: None,
                        accept_total: Some(6),
                    },
                )
                .expect("serves")
            });
            // 1: garbage request line → 400, connection closed.
            let r = raw_exchange(addr, "NOT EVEN HTTP\r\n\r\n".to_owned());
            assert!(r.starts_with("HTTP/1.1 400 "), "{r}");
            assert!(r.contains("Connection: close"), "{r}");
            // 2: POST without Content-Length → 411.
            let r = raw_exchange(addr, "POST /predict HTTP/1.1\r\n\r\n".to_owned());
            assert!(r.starts_with("HTTP/1.1 411 "), "{r}");
            // 3: declared body over the 1 MiB cap → 413 (body never sent).
            let r = raw_exchange(
                addr,
                format!(
                    "POST /predict HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                    http::MAX_BODY_BYTES + 1
                ),
            );
            assert!(r.starts_with("HTTP/1.1 413 "), "{r}");
            // 4: abrupt disconnect mid-body → no response, no wedged worker.
            let r = raw_exchange(
                addr,
                "POST /predict HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort".to_owned(),
            );
            assert_eq!(r, "", "mid-body disconnect gets no response");
            // 5: malformed JSON body → 400 with the v2 error object.
            let r = raw_exchange(addr, post_predict("{\"bytecode\":42}"));
            assert!(r.starts_with("HTTP/1.1 400 "), "{r}");
            assert!(r.contains("\"error\":"), "{r}");
            // 6: the gateway still serves fine after all of the above.
            let r = raw_exchange(addr, "GET /healthz HTTP/1.1\r\n\r\n".to_owned());
            assert!(r.starts_with("HTTP/1.1 200 OK"), "{r}");
            server.join().expect("server thread");
        });
        let snap = scheduler.metrics_snapshot();
        assert!(snap.http.responses_4xx >= 4, "{:?}", snap.http);
    }

    #[test]
    fn unknown_paths_and_methods_answer_404_and_405() {
        let scheduler = Scheduler::new(scanner(), &SchedulerOptions::default());
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::scope(|scope| {
            let scheduler = &scheduler;
            let server = scope.spawn(move || {
                serve_http(
                    &listener,
                    scheduler,
                    TcpLimits {
                        max_conns: None,
                        accept_total: Some(1),
                    },
                )
                .expect("serves")
            });
            let raw = "GET /nope HTTP/1.1\r\n\r\n\
                       GET /predict HTTP/1.1\r\n\r\n\
                       DELETE /metrics HTTP/1.1\r\nConnection: close\r\n\r\n"
                .to_owned();
            let r = raw_exchange(addr, raw);
            assert!(r.contains("HTTP/1.1 404 "), "{r}");
            assert!(r.contains("no such endpoint: /nope"), "{r}");
            assert_eq!(r.matches("HTTP/1.1 405 ").count(), 2, "{r}");
            server.join().expect("server thread");
        });
    }

    #[test]
    fn unresolvable_addresses_answer_404() {
        // A chain with nothing deployed: address predictions are typed
        // 404s carrying the v2 error body.
        let scheduler = Scheduler::with_chain(
            scanner(),
            &SchedulerOptions::default(),
            Some(SharedChain::new()),
        );
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::scope(|scope| {
            let scheduler = &scheduler;
            let server = scope.spawn(move || {
                serve_http(
                    &listener,
                    scheduler,
                    TcpLimits {
                        max_conns: None,
                        accept_total: Some(1),
                    },
                )
                .expect("serves")
            });
            let body = format!("{{\"address\":\"0x{}\"}}", to_hex(&[9u8; 20]));
            let r = raw_exchange(addr, post_predict(&body));
            assert!(r.starts_with("HTTP/1.1 404 "), "{r}");
            assert!(r.contains("no contract code at address"), "{r}");
            server.join().expect("server thread");
        });
    }

    /// Serves `conns` sequential connections against `scheduler`, handing
    /// the bound address to `client` while the listener runs.
    fn with_gateway(
        scheduler: &Scheduler,
        conns: usize,
        client: impl FnOnce(std::net::SocketAddr, &Scheduler),
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::scope(|scope| {
            let server = scope.spawn(move || {
                serve_http(
                    &listener,
                    scheduler,
                    TcpLimits {
                        max_conns: None,
                        accept_total: Some(conns),
                    },
                )
                .expect("serves")
            });
            client(addr, scheduler);
            server.join().expect("server thread");
        });
    }

    const PROBES: &str = "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n\
                          GET /readyz HTTP/1.1\r\nConnection: close\r\n\r\n";

    #[test]
    fn healthz_and_readyz_track_lifecycle() {
        // Running and at full service: both probes answer 200.
        let scheduler = Scheduler::new(scanner(), &no_cache());
        with_gateway(&scheduler, 2, |addr, scheduler| {
            let r = raw_exchange(addr, PROBES.to_owned());
            assert!(r.starts_with("HTTP/1.1 200 "), "{r}");
            assert!(r.contains("\"status\":\"ok\""), "{r}");
            assert!(r.contains("\"tier\":\"full\""), "{r}");
            assert!(r.contains("\"ready\":true"), "{r}");

            // Draining: liveness answers 503 and readiness flips false.
            scheduler.begin_drain();
            let r = raw_exchange(addr, PROBES.to_owned());
            assert!(r.starts_with("HTTP/1.1 503 "), "{r}");
            assert!(r.contains("\"status\":\"draining\""), "{r}");
            assert!(r.contains("\"ready\":false"), "{r}");
            assert_eq!(r.matches("HTTP/1.1 503 ").count(), 2, "{r}");
        });
        scheduler.shutdown();
    }

    #[test]
    fn healthz_and_readyz_track_brownout_tiers() {
        // Cache-first brownout: alive (200, "degraded") and still ready —
        // degraded answers are answers.
        let cache_first = SchedulerOptions {
            cache_first_pct: 0,
            cache_only_pct: 101,
            ..SchedulerOptions::default()
        };
        let scheduler = Scheduler::new(scanner(), &cache_first);
        with_gateway(&scheduler, 1, |addr, _| {
            let r = raw_exchange(addr, PROBES.to_owned());
            assert!(r.contains("\"status\":\"degraded\""), "{r}");
            assert!(r.contains("\"tier\":\"cache-first\""), "{r}");
            assert!(r.contains("\"ready\":true"), "{r}");
        });
        scheduler.shutdown();

        // Cache-only brownout: alive, but not ready for new traffic.
        let cache_only = SchedulerOptions {
            cache_first_pct: 0,
            cache_only_pct: 0,
            ..SchedulerOptions::default()
        };
        let scheduler = Scheduler::new(scanner(), &cache_only);
        with_gateway(&scheduler, 1, |addr, _| {
            let r = raw_exchange(addr, PROBES.to_owned());
            assert!(r.contains("\"status\":\"degraded\""), "{r}");
            assert!(r.contains("\"tier\":\"cache-only\""), "{r}");
            assert!(r.contains("\"ready\":false"), "{r}");
            assert!(r.contains("HTTP/1.1 503 "), "{r}");
        });
        scheduler.shutdown();
    }

    #[test]
    fn worker_panics_surface_as_500_and_the_gateway_recovers() {
        use crate::fault::FaultConfig;
        let opts = SchedulerOptions {
            batch: 1,
            workers: 1,
            cache_bytes: 0,
            fault: Some(FaultConfig {
                worker_panic_every: 2,
                ..FaultConfig::default()
            }),
            ..SchedulerOptions::default()
        };
        let (_, codes) = probe_lines(1);
        let body = format!("{{\"bytecode\":\"0x{}\"}}", to_hex(&codes[0]));
        let scheduler = Scheduler::new(scanner(), &opts);
        with_gateway(&scheduler, 3, |addr, _| {
            // Sequential exchanges are one single-row batch each: the
            // fault plan panics on batch 2 only.
            let ok = raw_exchange(addr, post_predict(&body));
            assert!(ok.starts_with("HTTP/1.1 200 "), "{ok}");
            let crashed = raw_exchange(addr, post_predict(&body));
            assert!(crashed.starts_with("HTTP/1.1 500 "), "{crashed}");
            assert!(crashed.contains("\"code\":\"internal\""), "{crashed}");
            // The supervisor respawned the worker: service continues.
            let recovered = raw_exchange(addr, post_predict(&body));
            assert!(recovered.starts_with("HTTP/1.1 200 "), "{recovered}");
            assert!(recovered.contains("\"verdict\""), "{recovered}");
        });
        let snap = scheduler.metrics_snapshot();
        assert_eq!(snap.robustness.worker_panics, 1);
        assert_eq!(snap.http.responses_5xx, 1);
        scheduler.shutdown();
    }

    #[test]
    fn deadline_timeouts_surface_as_504() {
        // A 30ms chain lookup runs after the deadline clock starts, so the
        // request is past its 10ms deadline when it is queued; the
        // deferred slot resolves to 504, not 200.
        use crate::fault::FaultConfig;
        let opts = SchedulerOptions {
            deadline_ms: 10,
            cache_bytes: 0,
            fault: Some(FaultConfig {
                chain_latency_micros: 30_000,
                ..FaultConfig::default()
            }),
            ..SchedulerOptions::default()
        };
        let (_, codes) = probe_lines(1);
        let chain = SharedChain::new();
        let address: Address = [0x42; 20];
        chain.deploy(address, codes[0].clone());
        let body = format!("{{\"address\":\"0x{}\"}}", to_hex(&address));
        let scheduler = Scheduler::with_chain(scanner(), &opts, Some(chain));
        with_gateway(&scheduler, 1, |addr, _| {
            let r = raw_exchange(addr, post_predict(&body));
            assert!(r.starts_with("HTTP/1.1 504 "), "{r}");
            assert!(r.contains("\"code\":\"timeout\""), "{r}");
        });
        assert_eq!(scheduler.metrics_snapshot().robustness.timeouts, 1);
        scheduler.shutdown();
    }
}
