//! The chaos suite: deterministic fault injection across the whole
//! serving core, asserting serving invariant #5 — with a seeded
//! [`FaultPlan`](phishinghook_serve::FaultPlan) injecting worker panics,
//! chain faults and slow clients, *every submitted request gets exactly
//! one typed response and the scheduler never wedges*.
//!
//! Every fault here is seeded: a failure reproduces by rerunning the
//! test, not by rerunning it a thousand times.

use phishinghook_data::{RetryPolicy, SharedChain};
use phishinghook_evm::keccak::{to_hex, Digest};
use phishinghook_models::Scanner;
use phishinghook_serve::fault::drip;
use phishinghook_serve::{
    serve_tcp, shard_of, Admission, FaultConfig, Protocol, Scheduler, SchedulerOptions,
    SubmitOutcome, TcpLimits, Transport,
};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// The chaos suite's probe-corpus seed (distinct per suite so per-process
/// cache state never aliases across suites).
const PROBE_SEED: u64 = 99;

fn fitted_scanner() -> &'static Scanner {
    phishinghook_serve::fixture::rf_scanner()
}

fn probes(n: usize) -> Vec<Vec<u8>> {
    phishinghook_serve::fixture::probe_lines(n, PROBE_SEED).1
}

#[test]
fn every_submission_gets_exactly_one_typed_response_under_chaos() {
    let codes = probes(24);
    let chain = SharedChain::new();
    let mut addresses = Vec::new();
    for (i, code) in codes.iter().enumerate().take(8) {
        let mut addr = [0u8; 20];
        addr[0] = 0xC0;
        addr[19] = i as u8;
        chain.deploy(addr, code.clone());
        addresses.push(addr);
    }
    let opts = SchedulerOptions {
        batch: 4,
        shards: 2,
        queue_depth: 8,
        retry: RetryPolicy {
            max_attempts: 3,
            base_micros: 10,
            cap_micros: 50,
            seed: 9,
        },
        fault: Some(FaultConfig {
            seed: 0xC4A0_55ED,
            worker_panic_every: 5,
            chain_fail_permille: 200,
            chain_latency_micros: 50,
            ..FaultConfig::default()
        }),
        ..SchedulerOptions::default()
    };
    let scheduler = Scheduler::with_chain(fitted_scanner(), &opts, Some(chain));

    // Four concurrent clients, each mixing healthy bytecode, resolvable
    // and unresolvable addresses, and outright garbage — under lossless
    // and shedding admission both.
    let per_conn = 30usize;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|client: usize| {
                let scheduler = &scheduler;
                let codes = &codes;
                let addresses = &addresses;
                scope.spawn(move || {
                    let (mut conn, rx) = scheduler.connect(Protocol::V2);
                    for i in 0..per_conn {
                        let admission = if i % 3 == 0 {
                            Admission::Shed
                        } else {
                            Admission::Block
                        };
                        let line = match i % 5 {
                            0 => format!(
                                "{{\"id\":\"a{i}\",\"address\":\"0x{}\"}}",
                                to_hex(&addresses[(client + i) % addresses.len()])
                            ),
                            1 => "definitely not a request".to_owned(),
                            2 => format!(
                                "{{\"id\":\"m{i}\",\"address\":\"0x{}\"}}",
                                to_hex(&[0xEEu8; 20])
                            ),
                            _ => format!("0x{}", to_hex(&codes[(client * 7 + i) % codes.len()])),
                        };
                        let outcome = conn.submit(&line, admission);
                        // Every outcome — scored, cached, refused, failed —
                        // owes this connection exactly one response line.
                        assert!(
                            matches!(
                                outcome,
                                SubmitOutcome::Queued
                                    | SubmitOutcome::CacheHit
                                    | SubmitOutcome::Overloaded
                                    | SubmitOutcome::Error
                                    | SubmitOutcome::Unresolved
                            ),
                            "{outcome:?}"
                        );
                    }
                    conn.finish();
                    rx.iter().collect::<Vec<String>>()
                })
            })
            .collect();
        for handle in handles {
            let responses = handle.join().expect("client");
            assert_eq!(
                responses.len(),
                per_conn,
                "exactly one response per submission"
            );
            for line in &responses {
                let typed = line.contains("\"verdict\"")
                    || line.contains("\"error\"")
                    || line.contains("\"code\":\"overloaded\"")
                    || line.contains("\"code\":\"timeout\"")
                    || line.contains("\"code\":\"internal\"");
                assert!(typed, "untyped response: {line}");
            }
        }
    });

    let plan = scheduler.fault_plan().expect("fault plan armed");
    assert!(plan.panics_injected() > 0, "chaos run injected no panics");
    assert!(
        plan.chain_faults_injected() > 0,
        "chaos run injected no chain faults"
    );
    let snap = scheduler.metrics_snapshot();
    assert_eq!(snap.robustness.worker_panics, plan.panics_injected());
    // Shutdown returning at all is the never-wedges assertion: the queue
    // drains, the supervisors exit, no worker is stuck on a dead batch.
    let stats = scheduler.shutdown();
    assert!(stats.scheduler.scored > 0, "nothing was scored");
}

#[test]
fn shard_targeted_panics_blast_only_that_lane() {
    // A seeded FaultPlan panicking *every* batch on shard 2 of 4: requests
    // routed to shard 2 answer typed internal errors, every other lane
    // keeps answering verdicts, and the blast radius never crosses lanes.
    const SHARDS: usize = 4;
    const TARGET: usize = 2;
    let opts = SchedulerOptions {
        shards: SHARDS,
        batch: 1,
        cache_bytes: 0,
        fault: Some(FaultConfig {
            worker_panic_every: 1,
            worker_panic_shard: Some(TARGET),
            ..FaultConfig::default()
        }),
        ..SchedulerOptions::default()
    };
    let scheduler = Scheduler::new(fitted_scanner(), &opts);
    let codes = probes(32);
    let expect_shard: Vec<usize> = codes
        .iter()
        .map(|code| shard_of(&Digest::of(code), SHARDS))
        .collect();
    assert!(
        expect_shard.contains(&TARGET),
        "probe corpus never routes to the target shard"
    );
    assert!(
        expect_shard.iter().any(|&s| s != TARGET),
        "probe corpus only routes to the target shard"
    );

    let (mut conn, rx) = scheduler.connect(Protocol::V2);
    for code in &codes {
        let outcome = conn.submit(&format!("0x{}", to_hex(code)), Admission::Block);
        assert_eq!(outcome, SubmitOutcome::Queued, "{outcome:?}");
    }
    conn.finish();
    let responses: Vec<String> = rx.iter().collect();
    assert_eq!(responses.len(), codes.len());
    for (i, line) in responses.iter().enumerate() {
        if expect_shard[i] == TARGET {
            assert!(
                line.contains("\"code\":\"internal\""),
                "shard {TARGET} probe {i} should have panicked: {line}"
            );
        } else {
            assert!(
                line.contains("\"verdict\""),
                "shard {} probe {i} caught another lane's panic: {line}",
                expect_shard[i]
            );
        }
    }

    let plan = scheduler.fault_plan().expect("fault plan armed");
    let target_jobs = expect_shard.iter().filter(|&&s| s == TARGET).count() as u64;
    assert_eq!(plan.panics_injected(), target_jobs);
    assert_eq!(
        scheduler.metrics_snapshot().robustness.worker_panics,
        target_jobs
    );
    scheduler.shutdown();
}

#[test]
fn graceful_shutdown_drains_every_shard_within_the_drain_budget() {
    // Load all four lanes, then shut down with a 2s drain budget: every
    // admitted request still answers (verdict or typed timeout — nothing
    // vanishes), and the drain completes promptly across all N queues.
    const SHARDS: usize = 4;
    let opts = SchedulerOptions {
        shards: SHARDS,
        batch: 4,
        queue_depth: 64,
        cache_bytes: 0,
        drain_ms: 2_000,
        ..SchedulerOptions::default()
    };
    let scheduler = Scheduler::new(fitted_scanner(), &opts);
    assert_eq!(scheduler.shards(), SHARDS);
    let codes = probes(40);
    let (mut conn, rx) = scheduler.connect(Protocol::V2);
    for code in &codes {
        assert_eq!(
            conn.submit(&format!("0x{}", to_hex(code)), Admission::Block),
            SubmitOutcome::Queued
        );
    }
    conn.finish();
    scheduler.begin_drain();
    let t0 = Instant::now();
    let responses: Vec<String> = rx.iter().collect();
    let stats = scheduler.shutdown();
    let elapsed = t0.elapsed();
    assert_eq!(responses.len(), codes.len(), "a drained request vanished");
    for line in &responses {
        assert!(
            line.contains("\"verdict\"") || line.contains("\"code\":\"timeout\""),
            "untyped drain response: {line}"
        );
    }
    assert_eq!(stats.scheduler.queue_depth, 0, "a shard queue kept jobs");
    // Generous bound: the 2s budget plus scheduling slack, far below a
    // wedged-lane hang.
    assert!(elapsed < Duration::from_secs(10), "drain took {elapsed:?}");
}

#[test]
fn slow_fragmented_and_vanishing_clients_do_not_wedge_the_gateway() {
    let scheduler = Scheduler::new(fitted_scanner(), &SchedulerOptions::default());
    let codes = probes(1);
    let body = format!("{{\"bytecode\":\"0x{}\"}}", to_hex(&codes[0]));
    let request = format!(
        "POST /predict HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
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
                    accept_total: Some(3),
                },
            )
            .expect("serves")
        });

        // A slow client dribbling 3-byte fragments still gets its verdict.
        let mut stream = TcpStream::connect(addr).expect("connect");
        drip(
            &mut stream,
            request.as_bytes(),
            3,
            Duration::from_millis(1),
            None,
        )
        .expect("drip");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        assert!(response.starts_with("HTTP/1.1 200 "), "{response}");
        assert!(response.contains("\"verdict\""), "{response}");

        // A client that vanishes mid-request (half the bytes, then gone)
        // must not wedge the accept loop...
        let mut stream = TcpStream::connect(addr).expect("connect");
        drip(
            &mut stream,
            request.as_bytes(),
            7,
            Duration::ZERO,
            Some(request.len() / 2),
        )
        .expect("drip");
        drop(stream);

        // ...so the next, healthy client is still served.
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(request.as_bytes()).expect("send");
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        assert!(response.starts_with("HTTP/1.1 200 "), "{response}");

        server.join().expect("server thread");
    });
    scheduler.shutdown();
}
