//! The O(connections) death test: ten thousand mostly-idle connections
//! must cost O(shards + listeners) serving threads, not ten thousand
//! parked readers — an active client must still round-trip through the
//! crowd, and the event loop must then sleep while the crowd idles instead
//! of waking on a timer. It holds for both transports the loop speaks,
//! JSONL and HTTP. Linux-only: thread counts and context switches come
//! from `/proc/self`, and the fd budget from `setrlimit(2)`.

#![cfg(target_os = "linux")]

use phishinghook_evm::keccak::to_hex;
use phishinghook_serve::{
    fixture, serve_tcp, Protocol, Scheduler, SchedulerOptions, TcpLimits, Transport,
};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};

/// This suite's probe-corpus seed (distinct per suite so per-process cache
/// state never aliases across suites).
const PROBE_SEED: u64 = 61;

#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

const RLIMIT_NOFILE: i32 = 7;

extern "C" {
    fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
}

/// Best-effort raise of the open-file budget; returns the soft limit the
/// process ended up with. The client and server ends both live in this
/// process, so each tracked connection costs two descriptors.
fn raise_nofile(want: u64) -> u64 {
    let mut limit = RLimit { cur: 0, max: 0 };
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut limit) } != 0 {
        return 1024;
    }
    if limit.cur < want {
        let raised = RLimit {
            cur: want.max(limit.cur),
            max: want.max(limit.max),
        };
        // May fail without privilege; fall back to raising within max.
        if unsafe { setrlimit(RLIMIT_NOFILE, &raised) } != 0 {
            let within = RLimit {
                cur: limit.max,
                max: limit.max,
            };
            let _ = unsafe { setrlimit(RLIMIT_NOFILE, &within) };
        }
        if unsafe { getrlimit(RLIMIT_NOFILE, &mut limit) } != 0 {
            return 1024;
        }
    }
    limit.cur
}

/// Voluntary context switches of the first thread in this process named
/// `name`: each one is the thread going to sleep.
fn voluntary_switches(name: &str) -> u64 {
    let tasks = std::fs::read_dir("/proc/self/task").expect("proc tasks");
    let task = tasks
        .map(|entry| entry.expect("task entry").path())
        .find(|task| {
            std::fs::read_to_string(task.join("comm")).is_ok_and(|comm| comm.trim_end() == name)
        })
        .unwrap_or_else(|| panic!("no thread named {name}"));
    let status = std::fs::read_to_string(task.join("status")).expect("task status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("voluntary_ctxt_switches:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("voluntary_ctxt_switches: line")
}

fn thread_count() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("proc status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

/// Parks `idle` idle connections on a `transport` loop running on a
/// thread named `loop_thread` (`comm` keeps 15 bytes), round-trips
/// `request` with one active client through the crowd, checks the thread
/// count and that the loop sleeps while the crowd idles, and returns the
/// active client's response.
fn idle_leg(
    scheduler: &Scheduler,
    idle: usize,
    transport: Transport,
    loop_thread: &str,
    request: &str,
) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let baseline_threads = thread_count();
    let baseline_conns = scheduler.metrics_snapshot().scheduler.connections as usize;

    let (report, response) = std::thread::scope(|scope| {
        let server = std::thread::Builder::new()
            .name(loop_thread.to_owned())
            .spawn_scoped(scope, move || {
                serve_tcp(
                    &listener,
                    scheduler,
                    transport,
                    TcpLimits {
                        max_conns: None,
                        accept_total: Some(idle + 1),
                    },
                )
                .expect("serves")
            })
            .expect("spawn the event loop");

        // The idle crowd: connected, never sending, never read from.
        // Pace the ramp against the server's accept counter so the
        // listener backlog never overflows — an overflowed backlog drops
        // SYNs and stalls each retransmit for a second, which would turn
        // this test into a kernel-retry benchmark.
        let mut crowd: Vec<TcpStream> = Vec::with_capacity(idle);
        for i in 0..idle {
            match TcpStream::connect(addr) {
                Ok(stream) => crowd.push(stream),
                Err(e) => panic!("connect {i}/{idle} failed: {e}"),
            }
            if (i + 1) % 64 == 0 {
                while (scheduler.metrics_snapshot().scheduler.connections as usize)
                    < baseline_conns + i + 1 - 64
                {
                    std::thread::yield_now();
                }
            }
        }

        // One active client round-trips through the crowd.
        let mut active = TcpStream::connect(addr).expect("active connect");
        active.write_all(request.as_bytes()).expect("send");
        active
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let mut response = String::new();
        active.read_to_string(&mut response).expect("read");

        // The headline assertion: thread count is O(shards + listeners),
        // independent of the tracked connections. 2 shards × 1 worker +
        // 1 event loop + harness slack — 32 is orders of magnitude below
        // the 10k a thread-per-connection design would burn.
        let threads = thread_count();
        assert!(
            threads <= baseline_threads + 32,
            "{threads} threads for {idle} idle {transport:?} connections \
             (baseline {baseline_threads}) — thread-per-connection regression"
        );

        // With the active client retired and the crowd idle, the loop has
        // nothing to do and must stay parked: a loop that ticks wakes, and
        // so sleeps again, several times a second.
        let before = voluntary_switches(loop_thread);
        std::thread::sleep(std::time::Duration::from_secs(1));
        let slept = voluntary_switches(loop_thread) - before;
        assert!(
            slept <= 1,
            "the {transport:?} event loop went to sleep {slept} times in an idle second"
        );

        drop(active);
        drop(crowd); // EOF storm: the loop retires all of them
        (server.join().expect("server thread"), response)
    });
    assert_eq!(report.contracts, 1, "exactly the active client scored");
    response
}

#[test]
fn ten_thousand_idle_connections_cost_constant_threads() {
    let soft = raise_nofile(65_536);
    // Two fds per connection (client + server end), plus slack for the
    // process's own files, the listener, and test-harness plumbing.
    let idle = 10_000.min(((soft.saturating_sub(512)) / 2) as usize);
    assert!(
        idle >= 1_000,
        "fd budget too small to mean anything: {soft}"
    );

    let opts = SchedulerOptions {
        shards: 2,
        ..SchedulerOptions::default()
    };
    let scheduler = Scheduler::new(fixture::rf_scanner(), &opts);
    let (_, codes) = fixture::probe_lines(2, PROBE_SEED);

    // One leg per transport, one after the other: thread counts and the
    // fd budget are process-wide.
    let response = idle_leg(
        &scheduler,
        idle,
        Transport::Jsonl(Protocol::V1),
        "idle-jsonl-loop",
        &format!("0x{}\n", to_hex(&codes[0])),
    );
    // V1 verdicts are `label\tproba` lines.
    let proba = response
        .trim()
        .split('\t')
        .nth(1)
        .and_then(|p| p.parse::<f64>().ok());
    assert!(
        proba.is_some_and(|p| (0.0..=1.0).contains(&p)),
        "no verdict through the crowd: {response}"
    );

    let body = format!("{{\"bytecode\":\"0x{}\"}}", to_hex(&codes[1]));
    let response = idle_leg(
        &scheduler,
        idle,
        Transport::Http,
        "idle-http-loop",
        &format!(
            "POST /predict HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    );
    assert!(response.starts_with("HTTP/1.1 200 "), "{response}");
    assert!(response.contains("\"verdict\":"), "{response}");

    let snap = scheduler.metrics_snapshot();
    assert_eq!(snap.scheduler.connections, 2 * (idle + 1) as u64);
    assert_eq!(snap.scheduler.scored, 2);
    scheduler.shutdown();
}
