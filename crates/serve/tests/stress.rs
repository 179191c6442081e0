//! Concurrency stress for the sharded lanes' building blocks: the bounded
//! queue must neither lose nor duplicate items at racy capacities, the
//! per-shard cache counters must stay arithmetically consistent under
//! contention, and the scheduler's aggregate stats must always equal the
//! sum of its per-shard stats. The last test floods a 2-lane TCP daemon
//! past its queues: every request must still get exactly one typed
//! answer, in order.

use phishinghook_evm::keccak::Digest;
use phishinghook_serve::{
    entry_bytes, fixture, serve_lines, serve_tcp, BoundedQueue, CachedVerdict, Protocol, Scheduler,
    SchedulerOptions, TcpLimits, Transport, VerdictCache,
};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// This suite's probe-corpus seed (distinct per suite so per-process cache
/// state never aliases across suites).
const PROBE_SEED: u64 = 71;

#[test]
fn racy_queue_capacities_never_lose_or_duplicate_items() {
    const PRODUCERS: u64 = 4;
    const CONSUMERS: usize = 3;
    const PER_PRODUCER: u64 = 2_000;
    // Capacity 1 serialises every handoff; capacity == producer count sits
    // right on the full/empty boundary both sides race across. Consumers
    // pop one item at a time, or drain work-conserving batches that free
    // several slots at once.
    for (capacity, max) in [1usize, PRODUCERS as usize]
        .into_iter()
        .flat_map(|c| [(c, 1), (c, 3)])
    {
        let queue = BoundedQueue::new(capacity);
        let collected = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            let producers: Vec<_> = (0..PRODUCERS)
                .map(|p| {
                    let queue = &queue;
                    scope.spawn(move || {
                        for seq in (p * PER_PRODUCER)..((p + 1) * PER_PRODUCER) {
                            queue.push(seq).expect("queue closed under producers");
                        }
                    })
                })
                .collect();
            for _ in 0..CONSUMERS {
                let queue = &queue;
                let collected = &collected;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    while queue.pop_batch(max, &mut local) {}
                    collected.lock().expect("collector").extend(local);
                });
            }
            // Close only after every producer has pushed its range: the
            // consumers then drain the remainder and see the shutdown
            // sentinel (pop_batch -> false), ending the scope.
            for producer in producers {
                producer.join().expect("producer");
            }
            queue.close();
        });
        let mut total = collected.into_inner().expect("collector");
        total.sort_unstable();
        let expected: Vec<u64> = (0..PRODUCERS * PER_PRODUCER).collect();
        assert_eq!(
            total, expected,
            "capacity {capacity}, batches of {max}: sequence numbers lost or duplicated"
        );
    }
}

#[test]
fn cache_counters_stay_consistent_under_contention() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 2_000;
    // Room for ~8 single-model entries: every thread forces evictions.
    let cache = VerdictCache::new(entry_bytes(1) * 8);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let cache = &cache;
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    let key = Digest::of(&(t * PER_THREAD + i).to_le_bytes());
                    cache.insert(
                        key,
                        CachedVerdict {
                            proba: 0.5,
                            per_model: vec![0.5],
                        },
                    );
                    // Interleave reads racing the other threads' evictions.
                    let probe = Digest::of(&(i % 64).to_le_bytes());
                    let _ = cache.lookup(&probe);
                }
            });
        }
    });
    let stats = cache.stats();
    let inserted = THREADS * PER_THREAD;
    assert_eq!(stats.insertions, inserted, "an insert was dropped");
    assert!(
        stats.evictions <= stats.insertions,
        "more evictions ({}) than insertions ({})",
        stats.evictions,
        stats.insertions
    );
    // Every key was unique, so residency is exactly the difference.
    assert_eq!(stats.entries, inserted - stats.evictions);
    assert_eq!(stats.entries as usize, cache.len());
    assert!(
        stats.bytes <= stats.capacity_bytes,
        "byte budget exceeded: {} > {}",
        stats.bytes,
        stats.capacity_bytes
    );
    assert_eq!(
        stats.hits + stats.misses,
        THREADS * PER_THREAD,
        "a lookup went uncounted"
    );
}

#[test]
fn aggregate_stats_are_the_sum_of_shard_stats() {
    const SHARDS: usize = 4;
    let opts = SchedulerOptions {
        shards: SHARDS,
        workers: 1,
        queue_depth: 64,
        ..SchedulerOptions::default()
    };
    let scheduler = Scheduler::new(fixture::rf_scanner(), &opts);
    let (input, _) = fixture::probe_lines(20, PROBE_SEED);
    // Four concurrent sessions over the same stream: lanes fill and drain
    // while other threads snapshot.
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let scheduler = &scheduler;
            let input = input.as_bytes();
            scope.spawn(move || {
                let mut out = Vec::new();
                serve_lines(scheduler, Protocol::V2, input, &mut out).expect("serves");
            });
        }
        // Racy mid-flight snapshots: per-shard capacities must always sum
        // to the configured aggregate, whatever the queues hold.
        for _ in 0..50 {
            let stats = scheduler.shard_stats();
            assert_eq!(stats.len(), SHARDS);
            let capacity: u64 = stats.iter().map(|s| s.queue_capacity).sum();
            assert_eq!(capacity, scheduler.metrics_snapshot().queue_capacity);
        }
    });
    let snap = scheduler.metrics_snapshot();
    let shard_stats = scheduler.shard_stats();
    let cache = snap.cache.expect("cache on");
    let summed = shard_stats
        .iter()
        .map(|s| s.cache.expect("per-shard cache on"))
        .fold((0u64, 0u64, 0u64, 0u64), |acc, c| {
            (
                acc.0 + c.hits,
                acc.1 + c.misses,
                acc.2 + c.insertions,
                acc.3 + c.entries,
            )
        });
    assert_eq!(cache.hits, summed.0);
    assert_eq!(cache.misses, summed.1);
    assert_eq!(cache.insertions, summed.2);
    assert_eq!(cache.entries, summed.3);
    let depth: u64 = shard_stats.iter().map(|s| s.queue_depth).sum();
    assert_eq!(depth, 0, "all lanes drained");
    scheduler.shutdown();
}

#[test]
fn socket_overload_answers_every_request_typed_and_in_order() {
    const CLIENT_THREADS: usize = 8;
    const CONNS_PER_THREAD: usize = 16;
    const PER_CONN: usize = 16;
    const CONNS: usize = CLIENT_THREADS * CONNS_PER_THREAD;
    /// How long a client waits on a socket, and the test on `serve_tcp`
    /// returning, before it fails: a wedged server fails the test instead
    /// of hanging it.
    const PATIENCE: Duration = Duration::from_secs(30);
    // One queue slot per lane, one-row batches and no cache: the event
    // loop submits a pipelined burst faster than a worker wakes and
    // scores, so shed admission has to answer part of it.
    let opts = SchedulerOptions {
        shards: 2,
        batch: 1,
        queue_depth: 2,
        cache_bytes: 0,
        ..SchedulerOptions::default()
    };
    let scheduler = Arc::new(Scheduler::new(fixture::rf_scanner(), &opts));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("addr");
    // Not scoped, so a stalled loop cannot hold the failing test open.
    let server = {
        let scheduler = Arc::clone(&scheduler);
        std::thread::spawn(move || {
            let limits = TcpLimits {
                max_conns: None,
                accept_total: Some(CONNS),
            };
            serve_tcp(
                &listener,
                &scheduler,
                Transport::Jsonl(Protocol::V2),
                limits,
            )
            .expect("serves")
        })
    };

    let (input, codes) = fixture::probe_lines(4 * PER_CONN, PROBE_SEED + 1);
    let lines: Vec<&str> = input.lines().collect();
    let refs: Vec<&[u8]> = codes.iter().map(Vec::as_slice).collect();
    let probas = fixture::rf_scanner().worker().score_batch(&refs);
    // Connection `c` sends probes `c, c + 1, …` (mod the probe count), so
    // the lanes see a different mix on every connection.
    let probe = |c: usize, i: usize| (c + i) % lines.len();

    let overloads: usize = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENT_THREADS)
            .map(|t| {
                let lines = &lines;
                let probas = &probas;
                scope.spawn(move || {
                    // Every connection pipelines its whole request stream
                    // and half-closes before any response is read.
                    let streams: Vec<(usize, TcpStream)> = (0..CONNS_PER_THREAD)
                        .map(|k| {
                            let c = t * CONNS_PER_THREAD + k;
                            let mut stream = TcpStream::connect(addr).expect("connect");
                            stream.set_read_timeout(Some(PATIENCE)).expect("timeout");
                            stream.set_write_timeout(Some(PATIENCE)).expect("timeout");
                            let request: String = (0..PER_CONN)
                                .map(|i| format!("{}\n", lines[probe(c, i)]))
                                .collect();
                            stream.write_all(request.as_bytes()).expect("send");
                            stream.shutdown(Shutdown::Write).expect("half-close");
                            (c, stream)
                        })
                        .collect();
                    let mut overloads = 0;
                    for (c, mut stream) in streams {
                        let mut response = String::new();
                        stream.read_to_string(&mut response).expect("read to EOF");
                        let answers: Vec<&str> = response.lines().collect();
                        assert_eq!(answers.len(), PER_CONN, "connection {c}: {response}");
                        for (i, line) in answers.iter().enumerate() {
                            // Bare-hex ids are the per-connection sequence
                            // number, so in-order delivery makes them 0..n.
                            let head = format!("{{\"proto\":2,\"id\":\"{i}\",");
                            assert!(line.starts_with(&head), "connection {c}: {line}");
                            if line.ends_with(",\"code\":\"overloaded\"}") {
                                overloads += 1;
                                continue;
                            }
                            let p = probas[probe(c, i)];
                            assert!(
                                line.contains("\"verdict\":")
                                    && line
                                        .contains(&format!(",\"proba\":{p:.6},\"model_version\":")),
                                "connection {c}, request {i}: want proba {p:.6}, got {line}"
                            );
                        }
                    }
                    overloads
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|client| client.join().expect("client"))
            .sum()
    });

    let report = {
        let deadline = Instant::now() + PATIENCE;
        while !server.is_finished() {
            assert!(Instant::now() < deadline, "serve_tcp did not return");
            std::thread::sleep(Duration::from_millis(5));
        }
        server.join().expect("server thread")
    };
    let sent = (CONNS * PER_CONN) as u64;
    assert!(overloads >= 1, "no request of {sent} was shed");
    assert_eq!(report.overloads, overloads as u64);
    assert_eq!(report.contracts + report.overloads, sent);
    assert_eq!(report.errors, 0);
    assert_eq!(
        scheduler.metrics_snapshot().scheduler.scored,
        report.contracts
    );
}
