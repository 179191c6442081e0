//! Running out of file descriptors at accept must not end a listener.
//! Both socket transports pause accepting, keep serving, and take new
//! clients again once descriptors free up. Linux-only, and a file of its
//! own: it lowers this process's `RLIMIT_NOFILE`, which no other test
//! may share.

#![cfg(target_os = "linux")]

use phishinghook_evm::keccak::to_hex;
use phishinghook_serve::{
    fixture, serve_tcp, Protocol, Scheduler, SchedulerOptions, ServeReport, TcpLimits, Transport,
};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::time::Duration;

/// This suite's probe-corpus seed (distinct per suite so per-process cache
/// state never aliases across suites).
const PROBE_SEED: u64 = 67;

/// Connections waiting in the backlog when the server starts.
const CROWD: usize = 24;

/// Descriptors left free for the server: far fewer than the crowd needs.
const HEADROOM: u64 = 6;

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

/// Sets the soft open-file limit and returns the previous one.
fn set_soft_nofile(cur: u64) -> u64 {
    let mut limit = RLimit { cur: 0, max: 0 };
    assert_eq!(unsafe { getrlimit(RLIMIT_NOFILE, &mut limit) }, 0);
    let previous = limit.cur;
    limit.cur = cur;
    assert_eq!(unsafe { setrlimit(RLIMIT_NOFILE, &limit) }, 0);
    previous
}

/// The descriptor number the next open would get.
fn lowest_free_fd() -> u64 {
    let probe = std::fs::File::open("/dev/null").expect("open /dev/null");
    probe.as_raw_fd() as u64
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream
}

/// Sends `request` on a fresh connection, half-closes, and reads the
/// whole response.
fn round_trip(addr: SocketAddr, request: &str) -> String {
    let mut stream = connect(addr);
    stream.write_all(request.as_bytes()).expect("send request");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("a response from the listener");
    response
}

/// Parks a crowd in the listener's backlog, leaves the server only
/// [`HEADROOM`] descriptors, and starts `serve`, which runs out of them
/// while accepting the crowd. Then the crowd leaves, and `request` on a
/// fresh connection must be answered by the same listener. Returns that
/// response.
fn exhaust_then_recover<F>(scheduler: &Scheduler, serve: F, request: &str) -> String
where
    F: FnOnce(&TcpListener, &Scheduler, TcpLimits) -> io::Result<ServeReport> + Send,
{
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let crowd: Vec<TcpStream> = (0..CROWD).map(|_| connect(addr)).collect();
    let saved = set_soft_nofile(lowest_free_fd() + HEADROOM);
    let (response, served) = std::thread::scope(|scope| {
        let listener = &listener;
        let server = scope.spawn(move || {
            serve(
                listener,
                scheduler,
                TcpLimits {
                    max_conns: None,
                    accept_total: Some(CROWD + 1),
                },
            )
        });
        // The first accept pass empties the headroom within microseconds;
        // this leaves the listener several pauses' worth of failed accepts.
        std::thread::sleep(Duration::from_millis(300));
        if server.is_finished() {
            let ended = server.join().expect("server thread");
            panic!("the listener ended while out of descriptors: {ended:?}");
        }
        drop(crowd);
        let response = round_trip(addr, request);
        (response, server.join().expect("server thread"))
    });
    set_soft_nofile(saved);
    let report = served.expect("the listener survives running out of descriptors");
    assert_eq!(report.contracts, 1, "exactly the fresh client scored");
    response
}

#[test]
fn both_listeners_pause_accepting_when_descriptors_run_out_and_then_recover() {
    // One test for both transports: they share the process's fd limit.
    let scheduler = Scheduler::new(fixture::rf_scanner(), &SchedulerOptions::default());
    let (_, codes) = fixture::probe_lines(1, PROBE_SEED);
    let hex = format!("0x{}", to_hex(&codes[0]));

    let jsonl = exhaust_then_recover(
        &scheduler,
        |listener, scheduler, limits| {
            serve_tcp(listener, scheduler, Transport::Jsonl(Protocol::V2), limits)
        },
        &format!("{hex}\n"),
    );
    assert!(
        jsonl.starts_with("{\"proto\":2,\"id\":\"0\",\"verdict\":"),
        "{jsonl}"
    );

    let body = format!("{{\"bytecode\":\"{hex}\"}}");
    let http = exhaust_then_recover(
        &scheduler,
        |listener, scheduler, limits| serve_tcp(listener, scheduler, Transport::Http, limits),
        &format!(
            "POST /predict HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\
             Connection: close\r\n\r\n{body}",
            body.len()
        ),
    );
    assert!(http.starts_with("HTTP/1.1 200 "), "{http}");
    assert!(http.contains("\"verdict\":"), "{http}");
    scheduler.shutdown();
}
