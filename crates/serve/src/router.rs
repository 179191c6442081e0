//! The HTTP gateway's endpoints: `/predict`, `/healthz`, `/readyz` and
//! `/metrics` over the same scheduler, cache and admission control as the
//! JSONL front-end. Connections run on the readiness loop in
//! [`nbio`](crate::nbio), which frames requests with [`http`]
//! and hands each to `submit` here.
//!
//! One HTTP connection is one scheduler connection. Every HTTP request
//! routes **exactly one** response body through the connection's ordered
//! mailbox in the scheduler — a `/predict` body is submitted verbatim as a
//! v2 JSONL line (so HTTP verdicts are bit-identical to JSONL verdicts,
//! cache and all), while `/healthz`, `/metrics` and immediate rejections
//! route an already-rendered body. `submit` returns the matching `Head`,
//! which the connection queues and pairs with the next routed body, so
//! pipelined requests answer in request order even while their verdicts
//! are scored out of order across micro-batches.
//!
//! Endpoints:
//!
//! * `POST /predict` — body is one v2 request: `{"bytecode":"0x…"}`,
//!   `{"address":"0x…"}` (resolved through the scheduler's chain handle),
//!   or bare hex. `200` with the v2 verdict object; `400` malformed;
//!   `404` unresolvable address; `503` + `Retry-After` when shed by
//!   admission control; `413` when the body exceeds the 1 MiB cap; `500`
//!   or `504` when the scoring worker panicked on the batch or the request
//!   out-waited its deadline (a queued request's status is settled when
//!   its verdict routes, not when it was admitted).
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
//! Overloaded *connections* (`max_conns`) answer `503` with
//! `Retry-After` at accept (`refusal`), mirroring the JSONL listener's
//! typed overload line.

use crate::http::{self, HttpRequest, RequestOutcome, ResponseHead};
use crate::metrics;
use crate::proto;
use crate::scheduler::{
    Admission, Connection, DegradationTier, Lifecycle, ResponseKind, Scheduler, SubmitOutcome,
};

const JSON: &str = "application/json";
const PROMETHEUS: &str = "text/plain; version=0.0.4";

/// The response head for one routed body, queued on the connection in
/// submit order (1:1 with routed bodies).
pub(crate) struct Head {
    pub(crate) response: ResponseHead,
    /// The status is provisional: the body is a queued verdict slot whose
    /// real outcome (scored / worker panic / deadline timeout) is only
    /// known when it routes.
    deferred: bool,
}

impl Head {
    /// A JSON answer's head.
    fn json(status: u16, keep_alive: bool) -> Head {
        Head {
            response: ResponseHead {
                status,
                content_type: JSON,
                retry_after: None,
                keep_alive,
            },
            deferred: false,
        }
    }

    /// Writes the response for the routed `body` of `kind` into `out`, and
    /// returns the status it carried. A deferred head takes its status
    /// from `kind`: the batch may have panicked (500), or the deadline
    /// lapsed (504), after the request was admitted.
    pub(crate) fn write(&self, body: &str, kind: ResponseKind, out: &mut Vec<u8>) -> u16 {
        let mut head = self.response;
        match (self.deferred, kind) {
            (true, ResponseKind::Internal) => head.status = 500,
            (true, ResponseKind::Timeout) => head.status = 504,
            _ => {}
        }
        http::write_response(out, head, body.as_bytes());
        head.status
    }
}

fn error_body(detail: &str) -> String {
    let mut out = String::with_capacity(detail.len() + 12);
    out.push_str("{\"error\":");
    proto::push_json_string(&mut out, detail);
    out.push('}');
    out
}

/// The `503` + `Retry-After` that refuses a connection at accept under
/// `max_conns`.
pub(crate) fn refusal() -> Vec<u8> {
    let mut head = Head::json(503, false);
    head.response.retry_after = Some(1);
    let mut out = Vec::new();
    let body = error_body("overloaded: connection limit reached");
    head.write(&body, ResponseKind::Overload, &mut out);
    out
}

/// Submits one framed request, or the reject that ends the connection's
/// framing: exactly one body is routed through the scheduler, and the
/// matching `Head` is returned. `None` when the connection's response
/// stream is gone (stop reading).
pub(crate) fn submit(
    scheduler: &Scheduler,
    conn: &mut Connection,
    outcome: RequestOutcome,
) -> Option<Head> {
    scheduler.metrics().http_request();
    match outcome {
        RequestOutcome::Request(req) => answer(scheduler, conn, req),
        // Framing after a parse error is unknowable: answer, then close.
        RequestOutcome::Reject { status, detail } => {
            let routed = conn.submit_rendered(error_body(&detail), true);
            (routed != SubmitOutcome::Disconnected).then(|| Head::json(status, false))
        }
        // The framer hands over requests and rejects only; an end of
        // stream gets no answer.
        RequestOutcome::Eof | RequestOutcome::Disconnected => None,
    }
}

/// Routes one parsed request: exactly one body is routed through the
/// scheduler and the matching `Head` is returned. `None` when the
/// connection's response stream is gone (stop reading).
fn answer(scheduler: &Scheduler, conn: &mut Connection, req: HttpRequest) -> Option<Head> {
    let path = req.target.split('?').next().unwrap_or("");
    let mut head = Head::json(200, req.keep_alive);
    // Every answer but a `/predict` line routes a body rendered here.
    let (body, is_error) = match (req.method.as_str(), path) {
        ("POST", "/predict") => {
            let body = String::from_utf8_lossy(&req.body);
            let line = body.trim();
            if line.is_empty() {
                head.response.status = 400;
                (error_body("empty request body"), true)
            } else {
                // The body IS one v2 JSONL request — same decode path,
                // same cache, bit-identical verdict rendering.
                match conn.submit(line, Admission::Shed) {
                    // Queued slots defer their status to route time
                    // (200/500/504).
                    SubmitOutcome::Queued => head.deferred = true,
                    SubmitOutcome::CacheHit | SubmitOutcome::Stats => {}
                    // A blank line was answered above.
                    SubmitOutcome::Error | SubmitOutcome::Ignored => head.response.status = 400,
                    SubmitOutcome::Unresolved => head.response.status = 404,
                    SubmitOutcome::Overloaded => {
                        head.response.status = 503;
                        head.response.retry_after = Some(1);
                    }
                    SubmitOutcome::Disconnected => return None,
                }
                return Some(head);
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
            // Draining answers 503 so load balancers pull the instance
            // while the drain finishes; degraded stays 200 (alive, just
            // trading quality for headroom — /readyz is the gate).
            if draining {
                head.response.status = 503;
            }
            (body, false)
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
            if !ready {
                head.response.status = 503;
            }
            (body, false)
        }
        ("GET", "/metrics") => {
            let snap = scheduler.metrics_snapshot();
            let mut text = metrics::render_prometheus(
                &snap,
                scheduler.model_name(),
                scheduler.model_version(),
                scheduler.quant_bins(),
                scheduler.shards(),
            );
            text.push_str(&metrics::render_prometheus_shards(&scheduler.shard_stats()));
            head.response.content_type = PROMETHEUS;
            (text, false)
        }
        (_, "/predict" | "/healthz" | "/readyz" | "/metrics") => {
            head.response.status = 405;
            let detail = format!("method {} not allowed on {path}", req.method);
            (error_body(&detail), true)
        }
        _ => {
            head.response.status = 404;
            (error_body(&format!("no such endpoint: {path}")), true)
        }
    };
    let routed = conn.submit_rendered(body, is_error);
    (routed != SubmitOutcome::Disconnected).then_some(head)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nbio::{serve_tcp, Transport};
    use crate::proto::Protocol;
    use crate::scheduler::SchedulerOptions;
    use crate::serve::{serve_lines, TcpLimits};
    use crate::testutil::{probe_lines, scanner};
    use phishinghook_data::{Address, SharedChain};
    use phishinghook_evm::keccak::to_hex;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

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
                serve_tcp(
                    &listener,
                    scheduler,
                    Transport::Http,
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
                serve_tcp(
                    &listener,
                    scheduler,
                    Transport::Http,
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
                serve_tcp(
                    &listener,
                    scheduler,
                    Transport::Http,
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
                serve_tcp(
                    &listener,
                    scheduler,
                    Transport::Http,
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
                serve_tcp(
                    &listener,
                    scheduler,
                    Transport::Http,
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
                serve_tcp(
                    &listener,
                    scheduler,
                    Transport::Http,
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
    fn predicts_shed_by_admission_answer_503_with_retry_after() {
        // The cache-only brownout tier refuses every shed-mode cache miss
        // with the typed overload: admission shedding without a race.
        let cache_only = SchedulerOptions {
            cache_first_pct: 0,
            cache_only_pct: 0,
            ..SchedulerOptions::default()
        };
        let (_, codes) = probe_lines(1);
        let body = format!(
            "{{\"id\":\"shed\",\"bytecode\":\"0x{}\"}}",
            to_hex(&codes[0])
        );
        let scheduler = Scheduler::new(scanner(), &cache_only);
        with_gateway(&scheduler, 1, |addr, _| {
            let r = raw_exchange(addr, post_predict(&body));
            assert!(r.starts_with("HTTP/1.1 503 Service Unavailable\r\n"), "{r}");
            assert!(r.contains("Retry-After: 1\r\n"), "{r}");
            assert!(r.contains("\"id\":\"shed\""), "{r}");
            assert!(r.contains("\"code\":\"overloaded\""), "{r}");
        });
        assert_eq!(scheduler.metrics_snapshot().http.responses_5xx, 1);
        scheduler.shutdown();
    }

    #[test]
    fn worker_panics_surface_as_500_and_the_gateway_recovers() {
        use crate::fault::FaultConfig;
        let opts = SchedulerOptions {
            batch: 1,
            shards: 1,
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
