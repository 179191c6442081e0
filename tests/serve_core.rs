//! Tier-1 coverage of the serving core through the umbrella crate: the
//! scheduler's headline guarantees (cross-connection sharing, bit-identical
//! caching, ordering, graceful drain) exercised end to end on a small model.

use phishinghook::evm::keccak::to_hex;
use phishinghook::models::Scanner;
use phishinghook::serve::{
    run_watch, serve_lines, Protocol, Scheduler, SchedulerOptions, WatchOptions,
};

/// This suite's probe-corpus seed (distinct per suite so per-process cache
/// state never aliases across suites).
const PROBE_SEED: u64 = 91;

fn scanner() -> &'static Scanner {
    phishinghook::serve::fixture::rf_scanner()
}

fn probes(n: usize) -> (String, Vec<Vec<u8>>) {
    phishinghook::serve::fixture::probe_lines(n, PROBE_SEED)
}

#[test]
fn scheduler_serves_cached_and_cold_requests_bit_identically() {
    let (input, codes) = probes(8);
    let scheduler = Scheduler::new(scanner(), &SchedulerOptions::default());

    // Two passes over the same stream: the first scores cold, the second is
    // answered from the keccak-keyed verdict cache — responses must match
    // byte for byte, and per-connection order must hold both times.
    let mut first = Vec::new();
    let report_cold =
        serve_lines(&scheduler, Protocol::V2, input.as_bytes(), &mut first).expect("serves");
    let mut second = Vec::new();
    let report_hot =
        serve_lines(&scheduler, Protocol::V2, input.as_bytes(), &mut second).expect("serves");
    assert_eq!(first, second, "cache hits must replay identical responses");
    assert_eq!(report_cold.contracts, codes.len() as u64);
    assert_eq!(report_hot.cache_hits, codes.len() as u64);

    // Responses also carry the scanner's own probabilities, in order.
    let refs: Vec<&[u8]> = codes.iter().map(Vec::as_slice).collect();
    let expected = scanner().worker().score_batch(&refs);
    let text = String::from_utf8(first).expect("utf8");
    for (i, (line, p)) in text.lines().zip(&expected).enumerate() {
        assert!(
            line.starts_with(&format!("{{\"proto\":2,\"id\":\"{i}\",")),
            "{line}"
        );
        assert!(line.contains(&format!("\"proba\":{p:.6}")), "{line}");
    }

    let stats = scheduler.shutdown();
    assert_eq!(stats.scheduler.scored, codes.len() as u64, "one cold pass");
    assert_eq!(
        stats.cache.expect("cache on").hits,
        codes.len() as u64,
        "one cached pass"
    );
}

#[test]
fn http_gateway_replies_bit_identically_over_the_umbrella_crate() {
    use phishinghook::serve::{serve_tcp, TcpLimits, Transport};
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    let (_, codes) = probes(1);
    let scheduler = Scheduler::new(scanner(), &SchedulerOptions::default());

    // The JSONL reference verdict (this also warms the verdict cache, so
    // the HTTP round below must replay the exact same bytes from it).
    let body = format!("{{\"id\":\"t\",\"bytecode\":\"0x{}\"}}", to_hex(&codes[0]));
    let mut jsonl = Vec::new();
    serve_lines(
        &scheduler,
        Protocol::V2,
        format!("{body}\n").as_bytes(),
        &mut jsonl,
    )
    .expect("jsonl serves");
    let jsonl = String::from_utf8(jsonl).expect("utf8");

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let response = std::thread::scope(|scope| {
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
            .expect("gateway serves")
        });
        let mut stream = TcpStream::connect(addr).expect("connect");
        // Two pipelined requests on one keep-alive connection.
        let raw = format!(
            "POST /predict HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}\
             GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
            body.len()
        );
        stream.write_all(raw.as_bytes()).expect("send");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        server.join().expect("server thread");
        response
    });

    // The /predict body is byte-for-byte the JSONL v2 verdict line.
    assert!(response.contains(jsonl.trim_end()), "{response}");
    assert!(
        response.contains("phishinghook_request_latency_seconds_bucket"),
        "{response}"
    );
    let snap = scheduler.metrics_snapshot();
    assert_eq!(snap.http.requests, 2);
    assert_eq!(
        snap.cache.expect("cache on").hits,
        1,
        "HTTP shares the cache"
    );
    scheduler.shutdown();
}

#[test]
fn serve_config_builder_validates_through_the_umbrella_crate() {
    use phishinghook::serve::ServeConfig;
    let config = ServeConfig::builder()
        .batch(4)
        .workers(1)
        .build()
        .expect("valid config");
    assert_eq!(config.scheduler().batch, 4);
    assert_eq!(config.tcp(), None);
    assert!(ServeConfig::builder().workers(0).build().is_err());
    assert!(ServeConfig::builder().max_conns(2).build().is_err());
}

#[test]
fn watch_firehose_round_trips_through_the_serving_core() {
    let report = run_watch(
        scanner(),
        &WatchOptions {
            events: 80,
            ..WatchOptions::quick()
        },
    );
    assert_eq!(report.events, 80);
    assert_eq!(report.errors, 0);
    assert_eq!(report.cache_hits + report.cache_misses, 80);
    assert!(report.unique_bytecodes <= 16);
    assert!(report.alerts > 0, "a phishing-heavy stream must alert");
}
