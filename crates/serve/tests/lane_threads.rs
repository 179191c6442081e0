//! One scoring thread per lane, as many lanes as the process has cores.
//!
//! Every lane runs exactly one scoring thread, named `lane-<i>`; the
//! default lane count is the number of cores the process may use; a
//! worker panic restarts the worker on its lane's own thread; and
//! shutdown joins every lane. Threads are counted by name under
//! `/proc/self/task`, which every test in one binary shares, so this file
//! holds a single test. Linux-only.

#![cfg(target_os = "linux")]

use phishinghook_serve::{
    fixture, serve_lines, FaultConfig, Protocol, Scheduler, SchedulerOptions,
};
use std::time::{Duration, Instant};

/// This suite's probe-corpus seed (distinct per suite so per-process cache
/// state never aliases across suites).
const PROBE_SEED: u64 = 47;

/// Threads of this process whose name starts with `lane-`.
fn lane_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("proc tasks")
        .filter(|entry| {
            let comm = entry.as_ref().expect("task entry").path().join("comm");
            // A thread that exited since the listing has no comm left.
            std::fs::read_to_string(comm).is_ok_and(|name| name.starts_with("lane-"))
        })
        .count()
}

/// The lane-thread count once it reaches `want`, or the last count after
/// five seconds. A new thread names itself after it starts, and a joined
/// thread leaves the task list just after `join` returns, so a count read
/// at once can lag by a thread.
fn settled_lane_threads(want: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let count = lane_threads();
        if count == want || Instant::now() > deadline {
            return count;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn every_lane_runs_exactly_one_named_scoring_thread() {
    let scanner = fixture::rf_scanner();
    let (input, codes) = fixture::probe_lines(12, PROBE_SEED);
    assert_eq!(lane_threads(), 0, "no scheduler yet");

    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    assert_eq!(SchedulerOptions::default().shards, cores);
    for shards in [1, 2, cores] {
        let opts = SchedulerOptions {
            shards,
            ..SchedulerOptions::default()
        };
        let scheduler = Scheduler::new(scanner, &opts);
        assert_eq!(scheduler.shards(), shards);
        assert_eq!(settled_lane_threads(shards), shards, "{shards} lane(s)");
        let mut out = Vec::new();
        let report =
            serve_lines(&scheduler, Protocol::V2, input.as_bytes(), &mut out).expect("serves");
        assert_eq!(report.contracts, codes.len() as u64);
        assert_eq!(lane_threads(), shards, "{shards} lane(s) after serving");
        scheduler.shutdown();
        assert_eq!(settled_lane_threads(0), 0, "{shards} lane(s) shut down");
    }

    // Every batch panics: the workers restart on their own threads, so
    // the count holds through the panics.
    let opts = SchedulerOptions {
        shards: 2,
        batch: 1,
        cache_bytes: 0,
        fault: Some(FaultConfig {
            worker_panic_every: 1,
            ..FaultConfig::default()
        }),
        ..SchedulerOptions::default()
    };
    let scheduler = Scheduler::new(scanner, &opts);
    assert_eq!(settled_lane_threads(2), 2);
    let mut out = Vec::new();
    serve_lines(&scheduler, Protocol::V2, input.as_bytes(), &mut out).expect("serves");
    let out = String::from_utf8(out).expect("utf8");
    assert_eq!(out.lines().count(), codes.len());
    assert!(
        out.lines().all(|l| l.contains("\"code\":\"internal\"")),
        "{out}"
    );
    let panics = scheduler
        .fault_plan()
        .expect("fault plan")
        .panics_injected();
    assert_eq!(panics, codes.len() as u64);
    assert_eq!(lane_threads(), 2, "after {panics} worker panics");
    scheduler.shutdown();
    assert_eq!(settled_lane_threads(0), 0, "shut down after panics");
}
