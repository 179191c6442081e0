//! The load generators: one per front door, each using at most two
//! threads and two connections. Every request ends as one [`Record`]; the
//! caller settles records into a [`Tally`](crate::wire::Tally).

use crate::wire::{classify_http, classify_line, read_http_response, Outcome};
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::process::{ChildStdin, ChildStdout};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long responses may trail the last send before they count as lost.
pub const DRAIN: Duration = Duration::from_secs(10);

/// What the bulk reader collects: timed answers in order, and `stats`
/// responses.
type BulkAnswers = (Vec<(Instant, Outcome)>, Vec<String>);

/// Bulk lines the writer sends per write.
const BULK_CHUNK: usize = 32;

/// One request's fate.
#[derive(Debug, Clone)]
pub struct Record {
    /// Request index (into the workload's input stream).
    pub req: usize,
    /// When the request was due (open loop) or sent (closed loop) — the
    /// instant its latency counts from.
    pub start: Instant,
    /// When its response was read; `None` when it never came (lost).
    pub end: Option<Instant>,
    /// The classified response; `None` when lost.
    pub outcome: Option<Outcome>,
}

impl Record {
    fn lost(req: usize, start: Instant) -> Record {
        Record {
            req,
            start,
            end: None,
            outcome: None,
        }
    }
}

/// Everything one socket pass produced.
#[derive(Debug)]
pub struct Pass {
    /// One record per request sent, ordered by request index.
    pub records: Vec<Record>,
    /// Open loop only: how late each send went out, in ms.
    pub lags_ms: Vec<f64>,
    /// Start of the measured window (after warm-up).
    pub measure_from: Instant,
    /// End of the measured window.
    pub measure_to: Instant,
    /// Raw `stats` responses sampled during a bulk pass.
    pub stats: Vec<String>,
}

/// Runs `load` on scoped threads while the calling thread calls `tick`
/// every 50 ms (resource sampling), until the load finishes.
fn with_ticks<T: Send>(tick: &mut dyn FnMut(), load: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        let handle = s.spawn(load);
        while !handle.is_finished() {
            tick();
            std::thread::sleep(Duration::from_millis(50));
        }
        tick();
        handle.join().expect("load thread")
    })
}

/// Closed loop over `conns` keep-alive HTTP connections: each sends its
/// next `POST /predict` only after reading the previous answer. Requests
/// are numbered round-robin across connections.
pub fn http_closed(
    addr: SocketAddr,
    conns: usize,
    body: &(dyn Fn(usize) -> String + Sync),
    warmup: Duration,
    seconds: Duration,
    tick: &mut dyn FnMut(),
) -> io::Result<Pass> {
    let t0 = Instant::now();
    let (from, to) = (t0 + warmup, t0 + warmup + seconds);
    let per_conn = with_ticks(tick, || {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..conns)
                .map(|c| {
                    s.spawn(move || -> io::Result<Vec<Record>> {
                        let stream = TcpStream::connect(addr)?;
                        stream.set_nodelay(true)?;
                        stream.set_read_timeout(Some(DRAIN))?;
                        let mut writer = stream.try_clone()?;
                        let mut reader = BufReader::new(stream);
                        let mut records = Vec::new();
                        let mut req = c;
                        while Instant::now() < to {
                            let raw = crate::inputs::http_request(&body(req));
                            let start = Instant::now();
                            writer.write_all(&raw)?;
                            match read_http_response(&mut reader) {
                                Ok(Some((status, body))) => records.push(Record {
                                    req,
                                    start,
                                    end: Some(Instant::now()),
                                    outcome: Some(classify_http(status, &body)),
                                }),
                                _ => {
                                    records.push(Record::lost(req, start));
                                    break;
                                }
                            }
                            req += conns;
                        }
                        Ok(records)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("http client thread"))
                .collect::<io::Result<Vec<_>>>()
        })
    })?;
    let mut records: Vec<Record> = per_conn.into_iter().flatten().collect();
    records.sort_by_key(|r| r.req);
    Ok(Pass {
        records,
        lags_ms: Vec::new(),
        measure_from: from,
        measure_to: to,
        stats: Vec::new(),
    })
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x1;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout: std::ffi::c_int)
        -> std::ffi::c_int;
}

/// Blocks until one of `fds` is readable or `timeout_ms` passes.
fn wait_readable(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<()> {
    // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
    // structs laid out as `struct pollfd`, and `nfds` is its length, so the
    // kernel reads and writes only inside it.
    let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as std::ffi::c_ulong, timeout_ms) };
    if n < 0 {
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    Ok(())
}

/// Splits complete lines off `buf`, leaving any partial tail.
fn take_lines(buf: &mut Vec<u8>) -> Vec<String> {
    let Some(last) = buf.iter().rposition(|&b| b == b'\n') else {
        return Vec::new();
    };
    let rest = buf.split_off(last + 1);
    let lines = String::from_utf8_lossy(buf)
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(str::to_owned)
        .collect();
    *buf = rest;
    lines
}

/// Open loop over `conns` TCP JSONL connections: one thread sends request
/// `i` at `start + offsets[i]` on connection `i mod conns` whatever the
/// daemon is doing; a second thread reads every connection. Latency counts
/// from the *scheduled* instant, so a stall is charged to every request it
/// delays.
pub fn jsonl_open(
    addr: SocketAddr,
    conns: usize,
    offsets: &[Duration],
    line: &(dyn Fn(usize) -> String + Sync),
    warmup: Duration,
    tick: &mut dyn FnMut(),
) -> io::Result<Pass> {
    let streams: Vec<TcpStream> = (0..conns)
        .map(|_| {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            Ok(s)
        })
        .collect::<io::Result<_>>()?;
    let t0 = Instant::now() + Duration::from_millis(20);
    let last = offsets.last().copied().unwrap_or_default();
    let give_up = t0 + last + DRAIN;
    let n = offsets.len();
    let (sends, received) = with_ticks(tick, || {
        std::thread::scope(|s| {
            let writer = s.spawn(|| -> io::Result<Vec<(Instant, Instant)>> {
                let mut outs: Vec<TcpStream> = streams
                    .iter()
                    .map(TcpStream::try_clone)
                    .collect::<io::Result<_>>()?;
                let mut sends = Vec::with_capacity(n);
                let mut texts = vec![String::new(); conns];
                while sends.len() < n {
                    let first = sends.len();
                    let due = t0 + offsets[first];
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let end = crate::schedule::due_through(offsets, first, t0.elapsed());
                    for i in first..end {
                        texts[i % conns].push_str(&line(i));
                        texts[i % conns].push('\n');
                    }
                    for (out, text) in outs.iter_mut().zip(&mut texts) {
                        if !text.is_empty() {
                            out.write_all(text.as_bytes())?;
                            text.clear();
                        }
                    }
                    let sent = Instant::now();
                    sends.extend(offsets[first..end].iter().map(|off| (t0 + *off, sent)));
                }
                Ok(sends)
            });
            let reader = s.spawn(|| -> io::Result<HashMap<usize, (Instant, Outcome)>> {
                let mut ins: Vec<TcpStream> = streams
                    .iter()
                    .map(TcpStream::try_clone)
                    .collect::<io::Result<_>>()?;
                let mut bufs = vec![Vec::new(); conns];
                let mut got = HashMap::with_capacity(n);
                let mut chunk = vec![0u8; 1 << 16];
                let mut open = conns;
                while got.len() < n && open > 0 && Instant::now() < give_up {
                    let mut fds: Vec<PollFd> = ins
                        .iter()
                        .map(|s| PollFd {
                            fd: s.as_raw_fd(),
                            events: POLLIN,
                            revents: 0,
                        })
                        .collect();
                    wait_readable(&mut fds, 50)?;
                    for (c, fd) in fds.iter().enumerate() {
                        if fd.revents == 0 {
                            continue;
                        }
                        let k = ins[c].read(&mut chunk)?;
                        let at = Instant::now();
                        if k == 0 {
                            open -= 1;
                            continue;
                        }
                        bufs[c].extend_from_slice(&chunk[..k]);
                        for l in take_lines(&mut bufs[c]) {
                            let (id, outcome) = classify_line(&l);
                            if let Some(req) = id.and_then(|id| id.parse::<usize>().ok()) {
                                got.insert(req, (at, outcome));
                            }
                        }
                    }
                }
                Ok(got)
            });
            let sends = writer.join().expect("open-loop writer");
            let received = reader.join().expect("open-loop reader");
            (sends, received)
        })
    });
    let (sends, mut received) = (sends?, received?);
    let lags_ms = sends
        .iter()
        .map(|&(due, sent)| crate::schedule::lag(due, sent).as_secs_f64() * 1e3)
        .collect();
    let records = sends
        .iter()
        .enumerate()
        .map(|(req, &(due, _))| match received.remove(&req) {
            Some((end, outcome)) => Record {
                req,
                start: due,
                end: Some(end),
                outcome: Some(outcome),
            },
            None => Record::lost(req, due),
        })
        .collect();
    Ok(Pass {
        records,
        lags_ms,
        measure_from: t0 + warmup,
        measure_to: t0 + last,
        stats: Vec::new(),
    })
}

/// Bulk screening over the daemon's stdin: a writer thread streams bare
/// hex lines while at most `window` are unanswered (lossless `Block`
/// admission does the rest), and a reader thread takes the in-order
/// answers. `stats_every` interleaves a `stats` command after every so
/// many requests (traced runs).
#[allow(clippy::too_many_arguments)]
pub fn bulk(
    stdin: ChildStdin,
    stdout: ChildStdout,
    hex: &(dyn Fn(usize) -> String + Sync),
    window: usize,
    warmup: Duration,
    seconds: Duration,
    stats_every: Option<usize>,
    tick: &mut dyn FnMut(),
) -> io::Result<Pass> {
    let t0 = Instant::now();
    let (from, to) = (t0 + warmup, t0 + warmup + seconds);
    // The writer sleeps on `more` until the reader has drained a chunk,
    // and writes a chunk per syscall: the client stays off the cores the
    // daemon is measured on.
    let answered = AtomicUsize::new(0);
    let more = (Mutex::new(()), Condvar::new());
    let (sends, answers) = with_ticks(tick, || {
        std::thread::scope(|s| {
            let (answered, more) = (&answered, &more);
            let writer = s.spawn(move || -> io::Result<Vec<Instant>> {
                let mut stdin = stdin;
                let mut sends = Vec::new();
                let mut text = String::new();
                while Instant::now() < to {
                    let mut guard = more.0.lock().expect("bulk window lock");
                    while sends.len() - answered.load(Ordering::Acquire) > window - BULK_CHUNK
                        && Instant::now() < to
                    {
                        guard = more
                            .1
                            .wait_timeout(guard, Duration::from_millis(5))
                            .expect("bulk window lock")
                            .0;
                    }
                    drop(guard);
                    if Instant::now() >= to {
                        break; // also ends a run whose daemon stopped answering
                    }
                    text.clear();
                    for i in sends.len()..sends.len() + BULK_CHUNK {
                        text.push_str(&hex(i));
                        text.push('\n');
                        if stats_every.is_some_and(|k| i > 0 && i % k == 0) {
                            text.push_str("stats\n");
                        }
                    }
                    let at = Instant::now();
                    sends.extend(std::iter::repeat_n(at, BULK_CHUNK));
                    stdin.write_all(text.as_bytes())?;
                }
                Ok(sends) // dropping stdin ends the daemon's input
            });
            let reader = s.spawn(move || -> io::Result<BulkAnswers> {
                let mut answers = Vec::new();
                let mut stats = Vec::new();
                for line in BufReader::new(stdout).lines() {
                    let line = line?;
                    let at = Instant::now();
                    if line.starts_with("{\"proto\":2,\"stats\"") {
                        stats.push(line);
                        continue;
                    }
                    answers.push((at, classify_line(&line).1));
                    if answered.fetch_add(1, Ordering::Release) % BULK_CHUNK == BULK_CHUNK - 1 {
                        let _guard = more.0.lock().expect("bulk window lock");
                        more.1.notify_one();
                    }
                }
                Ok((answers, stats))
            });
            (
                writer.join().expect("bulk writer"),
                reader.join().expect("bulk reader"),
            )
        })
    });
    let (sends, (answers, stats)) = (sends?, answers?);
    let mut answers = answers.into_iter();
    let records = sends
        .iter()
        .enumerate()
        .map(|(req, &start)| match answers.next() {
            Some((end, outcome)) => Record {
                req,
                start,
                end: Some(end),
                outcome: Some(outcome),
            },
            None => Record::lost(req, start),
        })
        .collect();
    Ok(Pass {
        records,
        lags_ms: Vec::new(),
        measure_from: from,
        measure_to: to,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_split_off_complete_records_only() {
        let mut buf = b"{\"a\":1}\n\n{\"b\":2}\n{\"c\"".to_vec();
        assert_eq!(take_lines(&mut buf), vec!["{\"a\":1}", "{\"b\":2}"]);
        assert_eq!(buf, b"{\"c\"");
        assert!(take_lines(&mut buf).is_empty());
        buf.extend_from_slice(b":3}\n");
        assert_eq!(take_lines(&mut buf), vec!["{\"c\":3}"]);
        assert!(buf.is_empty());
    }
}
