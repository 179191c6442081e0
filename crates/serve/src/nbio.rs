//! Nonblocking-readiness JSONL transport: [`serve_tcp`], one event-loop
//! thread for every TCP connection — the JSONL twin of
//! [`serve_http`](crate::router::serve_http).
//!
//! A parked reader thread per socket would make 10k mostly-idle chain
//! watchers cost 10k threads before the first request arrives. This
//! module runs a single loop over `std` nonblocking sockets instead: the
//! listener and every accepted stream run with `set_nonblocking(true)`,
//! `poll(2)` (a raw declaration — std already links libc) reports which
//! sockets turned ready, and the loop sweeps write → route-responses →
//! read over **only** the ready connections plus those still awaiting
//! in-process responses (which poll cannot see). Each iteration is
//! therefore O(ready + awaiting) socket work, not O(connections), and
//! serving threads are O(shards + listeners) — both asserted by
//! `tests/idle_conns.rs`.
//!
//! Two invariants keep a single-threaded loop safe against the scheduler's
//! blocking seams:
//!
//! * **Submit never blocks.** [`Connection::submit`] blocks in the
//!   flow-control window when a connection has
//!   [`SchedulerOptions::max_outstanding`](crate::SchedulerOptions::max_outstanding)
//!   responses outstanding; the loop stops *reading* a connection once its
//!   own in-flight count reaches a cap strictly below that, so the window
//!   can never park the loop (and with it, every other connection).
//! * **Writes never buffer without bound.** Response bytes wait in a
//!   per-connection buffer with a soft cap; past it the loop stops
//!   draining that connection's responses and stops reading it — the
//!   scheduler's window then backpressures the socket.
//!
//! Request lines are cut by the same `proto::LineFramer` as the stdin
//! transport, so an oversized or unterminated last line is answered
//! exactly as it is there.

use crate::proto::{self, Framed, LineFramer, Protocol};
use crate::scheduler::{
    Admission, Connection, PolledResponse, Responses, Scheduler, SubmitOutcome,
};
use crate::serve::{ServeReport, TcpLimits};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

/// Stop draining responses into a connection's write buffer past this many
/// pending bytes; the client must read before more responses render.
const WRITE_BUFFER_SOFT_CAP: usize = 256 << 10;

/// Per-`read(2)` scratch size.
const READ_CHUNK: usize = 16 << 10;

/// Never let one connection's in-flight count reach the scheduler window
/// (where submit would block the loop), and keep a global fairness bound.
const INFLIGHT_CAP: usize = 512;

/// One tracked connection in the event loop.
struct Conn {
    stream: TcpStream,
    peer: std::net::SocketAddr,
    submit: Connection,
    responses: Responses,
    /// Cuts the request bytes into capped lines.
    framer: LineFramer,
    /// Pending response bytes not yet accepted by the socket.
    wbuf: Vec<u8>,
    /// Consumed prefix of `wbuf` (compacted lazily).
    wpos: usize,
    /// Responses submitted but not yet routed back — the anti-wedge cap.
    inflight: usize,
    /// Client half-closed its write side: no more requests.
    eof: bool,
    /// `finish()` ran (exactly once, at EOF).
    finished: bool,
    /// The response stream closed: every response has been routed.
    drained: bool,
    /// Hard I/O error or vanished client: tear down without draining.
    dead: bool,
    t0: Instant,
}

impl Conn {
    fn inflight_cap(&self) -> usize {
        INFLIGHT_CAP.min(self.submit.max_outstanding()).max(1)
    }

    /// Whether the loop wants more request bytes from this socket.
    fn wants_read(&self) -> bool {
        !self.eof
            && !self.dead
            && self.inflight < self.inflight_cap()
            && self.pending_write() < WRITE_BUFFER_SOFT_CAP
    }

    fn pending_write(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Flushes pending response bytes; returns bytes written.
    fn pump_write(&mut self) -> usize {
        let mut wrote = 0;
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => {
                    self.wpos += n;
                    wrote += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        } else if self.wpos > (64 << 10) {
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
        wrote
    }

    /// Moves routed responses into the write buffer; returns lines moved.
    fn pump_responses(&mut self) -> usize {
        let mut moved = 0;
        while self.pending_write() < WRITE_BUFFER_SOFT_CAP {
            match self.responses.poll() {
                PolledResponse::Ready(line, _) => {
                    self.wbuf.extend_from_slice(line.as_bytes());
                    self.wbuf.push(b'\n');
                    self.inflight = self.inflight.saturating_sub(1);
                    moved += 1;
                }
                PolledResponse::Empty => break,
                PolledResponse::Closed => {
                    self.drained = true;
                    break;
                }
            }
        }
        moved
    }

    /// Reads request bytes and submits complete lines (shed admission);
    /// returns bytes read.
    fn pump_read(&mut self) -> usize {
        let mut scratch = [0u8; READ_CHUNK];
        let mut got = 0;
        while self.wants_read() {
            match self.stream.read(&mut scratch) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => {
                    got += n;
                    let submit = |framed: Framed<'_>| {
                        submit_shed(&mut self.submit, &mut self.inflight, framed)
                    };
                    if !self.framer.push(&scratch[..n], submit) {
                        self.dead = true;
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if self.eof && !self.finished {
            // EOF ends a non-empty unterminated last line.
            let submit =
                |framed: Framed<'_>| submit_shed(&mut self.submit, &mut self.inflight, framed);
            self.dead |= !self.framer.finish(submit);
            self.submit.finish();
            self.finished = true;
        }
        got
    }

    /// Finished serving: either torn down, or EOF reached with every
    /// response routed and written.
    fn complete(&self) -> bool {
        self.dead || (self.eof && self.drained && self.pending_write() == 0)
    }
}

/// Submits one framed line with shed admission, counting it in flight
/// when it will produce a response; `false` once the response stream is
/// gone.
fn submit_shed(submit: &mut Connection, inflight: &mut usize, framed: Framed<'_>) -> bool {
    match submit.submit_framed(framed, Admission::Shed) {
        SubmitOutcome::Ignored => true,
        SubmitOutcome::Disconnected => false,
        _ => {
            *inflight += 1;
            true
        }
    }
}

#[cfg(unix)]
mod park {
    //! Readiness parking via a raw `poll(2)` declaration (std links libc).

    use super::Conn;
    use std::net::TcpListener;
    use std::os::fd::AsRawFd;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }

    /// Waits until a tracked socket is ready or `timeout_ms` elapses, and
    /// returns the indices of the connections poll reported ready (any
    /// revents, so errors and hangups surface too). In-process response
    /// channels cannot wake `poll`, so callers keep the timeout short
    /// whenever responses are still in flight.
    pub(super) fn wait(
        listener: Option<&TcpListener>,
        conns: &[Conn],
        timeout_ms: i32,
    ) -> Vec<usize> {
        let mut fds: Vec<PollFd> = Vec::with_capacity(conns.len() + 1);
        let mut owner: Vec<usize> = Vec::with_capacity(conns.len());
        if let Some(listener) = listener {
            fds.push(PollFd {
                fd: listener.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            });
            owner.push(usize::MAX); // sentinel: the accept pass handles it
        }
        for (index, conn) in conns.iter().enumerate() {
            let mut events = 0i16;
            if conn.wants_read() {
                events |= POLLIN;
            }
            if conn.pending_write() > 0 {
                events |= POLLOUT;
            }
            if events != 0 {
                fds.push(PollFd {
                    fd: conn.stream.as_raw_fd(),
                    events,
                    revents: 0,
                });
                owner.push(index);
            }
        }
        if fds.is_empty() {
            if timeout_ms > 0 {
                std::thread::sleep(std::time::Duration::from_millis(timeout_ms as u64));
            }
            return Vec::new();
        }
        let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
        if ready <= 0 {
            return Vec::new();
        }
        fds.iter()
            .zip(&owner)
            .filter(|(fd, &index)| fd.revents != 0 && index != usize::MAX)
            .map(|(_, &index)| index)
            .collect()
    }
}

#[cfg(not(unix))]
mod park {
    //! Portable fallback: a short sleep, then sweep every connection.

    use super::Conn;
    use std::net::TcpListener;

    pub(super) fn wait(
        _listener: Option<&TcpListener>,
        conns: &[Conn],
        timeout_ms: i32,
    ) -> Vec<usize> {
        if timeout_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(
                timeout_ms.clamp(1, 20) as u64
            ));
        }
        (0..conns.len()).collect()
    }
}

/// Accepts TCP connections on `listener` and serves the JSONL line
/// protocol on each over the one shared scheduler, multiplexing every
/// connection onto the calling thread — connections contribute rows to
/// the same batches and share the same verdict cache. Admission control:
///
/// * per request: shed-mode submission (typed overload response when the
///   scheduler queue is full);
/// * per connection: `limits.max_conns` concurrent sessions; surplus
///   accepts receive one overload line and are closed.
///
/// `limits.accept_total` bounds how many connections are accepted before
/// returning the aggregate report — `None` serves forever (the daemon
/// case). Each connection's report is written to stderr as it closes.
///
/// [`run`](crate::serve::run) calls this for a `tcp` listener it binds
/// itself; call it directly when the caller owns the scheduler and the
/// socket.
///
/// # Errors
/// Propagates accept errors; per-connection I/O errors tear down that
/// connection only.
pub fn serve_tcp(
    listener: &TcpListener,
    scheduler: &Scheduler,
    proto: Protocol,
    limits: TcpLimits,
) -> io::Result<ServeReport> {
    listener.set_nonblocking(true)?;
    let model = scheduler.model_name().to_owned();
    let mut total = ServeReport::default();
    let mut conns: Vec<Conn> = Vec::new();
    let mut accepted = 0usize;

    let mut last_progress = 1usize;
    loop {
        let accepting = limits.accept_total.is_none_or(|m| accepted < m);
        let mut progress = 0usize;

        // Readiness first: a zero timeout just collects what is already
        // ready while work is flowing; once an iteration moves nothing,
        // park until a socket wakes us. Responses arrive over in-process
        // channels that cannot wake poll(2), so tick fast while any are
        // expected and slowly when fully idle (the 10k-idle-watchers case).
        let awaiting: usize = conns
            .iter()
            .map(|c| c.inflight + usize::from(c.finished && !c.drained))
            .sum();
        let timeout_ms = if last_progress > 0 {
            0
        } else if awaiting > 0 {
            1
        } else {
            250
        };
        let woken = park::wait(accepting.then_some(listener), &conns, timeout_ms);

        // Accept every pending connection (or refuse it, typed).
        let mut newly_accepted = 0usize;
        while accepting && limits.accept_total.is_none_or(|m| accepted < m) {
            match listener.accept() {
                Ok((mut stream, peer)) => {
                    accepted += 1;
                    progress += 1;
                    if limits.max_conns.is_some_and(|m| conns.len() >= m) {
                        // Connection-level admission control: one typed
                        // overload line, then close. The just-accepted
                        // socket is still blocking (accept does not
                        // inherit O_NONBLOCK), so the one-line write is
                        // safe without buffering.
                        let mut line = String::new();
                        match proto {
                            Protocol::V1 => proto::render_overload_v1(&mut line),
                            Protocol::V2 => proto::render_overload_v2(&mut line, "connect"),
                        }
                        line.push('\n');
                        let _ = stream.write_all(line.as_bytes());
                        eprintln!(
                            "[{peer}] refused: {} concurrent connection(s) reached",
                            conns.len()
                        );
                        total.overloads += 1;
                        scheduler.metrics().inc_overloads();
                        continue;
                    }
                    stream.set_nonblocking(true)?;
                    let (submit, responses) = scheduler.connect(proto);
                    newly_accepted += 1;
                    conns.push(Conn {
                        stream,
                        peer,
                        submit,
                        responses,
                        framer: LineFramer::default(),
                        wbuf: Vec::new(),
                        wpos: 0,
                        inflight: 0,
                        eof: false,
                        finished: false,
                        drained: false,
                        dead: false,
                        t0: Instant::now(),
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }

        // Sweep only the connections with something to do — poll-ready
        // sockets, lanes still owed in-process responses, buffered writes,
        // and the just-accepted batch: write → route responses → write →
        // read. Idle watchers cost nothing here.
        let first_new = conns.len() - newly_accepted;
        let mut sweep = woken;
        for (index, conn) in conns.iter().enumerate() {
            if index >= first_new
                || conn.inflight > 0
                || (conn.finished && !conn.drained)
                || conn.pending_write() > 0
            {
                sweep.push(index);
            }
        }
        sweep.sort_unstable();
        sweep.dedup();
        for index in sweep {
            let conn = &mut conns[index];
            progress += conn.pump_write();
            progress += conn.pump_responses();
            if conn.pending_write() > 0 {
                progress += conn.pump_write();
            }
            progress += conn.pump_read();
        }

        // Retire completed connections.
        let mut i = 0;
        while i < conns.len() {
            if !conns[i].complete() {
                i += 1;
                continue;
            }
            let conn = conns.swap_remove(i);
            let secs = conn.t0.elapsed().as_secs_f64();
            let peer = conn.peer;
            let id = conn.submit.id();
            // Drop the submit/response halves first: dropping `submit`
            // finishes the connection, so the report below is final.
            drop(conn);
            let mut report = scheduler.take_report(id);
            report.secs = secs;
            eprint!("[{peer}] {}", report.render(&model));
            total.absorb(&report);
            progress += 1;
        }

        if conns.is_empty() && limits.accept_total.is_some_and(|m| accepted >= m) {
            return Ok(total);
        }
        last_progress = progress;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::SchedulerOptions;
    use crate::testutil::{probe_lines, scanner};

    fn spawn_client(addr: std::net::SocketAddr, input: String) -> std::thread::JoinHandle<String> {
        std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.write_all(input.as_bytes()).expect("send requests");
            stream
                .shutdown(std::net::Shutdown::Write)
                .expect("half-close");
            let mut response = String::new();
            stream
                .read_to_string(&mut response)
                .expect("read responses");
            response
        })
    }

    #[test]
    fn tcp_connections_share_one_scheduler_and_one_cache() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
        let addr = listener.local_addr().expect("addr");
        let (input, codes) = probe_lines(5);

        // Client A scores 5 codes; once its responses are back, client B
        // sends the same codes plus a stats probe — B's requests must hit
        // the process-wide cache A populated.
        let input_b = format!("{input}stats\n");
        let scheduler = Scheduler::new(scanner(), &SchedulerOptions::default());
        let server = std::thread::scope(|scope| {
            let scheduler = &scheduler;
            let handle = scope.spawn(move || {
                serve_tcp(
                    &listener,
                    scheduler,
                    Protocol::V2,
                    TcpLimits {
                        max_conns: Some(4),
                        accept_total: Some(2),
                    },
                )
                .expect("serves two conns")
            });
            let a = spawn_client(addr, input.clone());
            let response_a = a.join().expect("client a");
            assert_eq!(response_a.lines().count(), codes.len());
            let b = spawn_client(addr, input_b.clone());
            let response_b = b.join().expect("client b");
            let lines_b: Vec<&str> = response_b.lines().collect();
            assert_eq!(lines_b.len(), codes.len() + 1);
            // A's and B's verdict lines are identical (same ids, same bits).
            assert_eq!(
                response_a.lines().collect::<Vec<_>>(),
                &lines_b[..codes.len()]
            );
            let stats_line = lines_b.last().expect("stats");
            assert!(
                stats_line.contains(&format!("\"cache\":{{\"hits\":{}", codes.len())),
                "{stats_line}"
            );
            handle.join().expect("server thread")
        });
        assert_eq!(server.contracts, 2 * codes.len() as u64);
        assert_eq!(server.cache_hits, codes.len() as u64);
        let stats = scheduler.shutdown();
        assert_eq!(stats.scheduler.connections, 2);
        assert_eq!(stats.scheduler.scored, codes.len() as u64);
    }

    #[test]
    fn tcp_connection_limit_answers_typed_overload() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
        let addr = listener.local_addr().expect("addr");
        let scheduler = Scheduler::new(scanner(), &SchedulerOptions::default());
        let report = std::thread::scope(|scope| {
            let scheduler = &scheduler;
            let server = scope.spawn(move || {
                serve_tcp(
                    &listener,
                    scheduler,
                    Protocol::V2,
                    TcpLimits {
                        // No concurrent sessions allowed at all: every
                        // accept is refused with the typed overload line —
                        // deterministic, no timing involved.
                        max_conns: Some(0),
                        accept_total: Some(2),
                    },
                )
                .expect("serves")
            });
            for _ in 0..2 {
                let client = spawn_client(addr, String::new());
                let response = client.join().expect("client");
                assert_eq!(response.lines().count(), 1, "{response}");
                assert!(response.contains("\"code\":\"overloaded\""), "{response}");
            }
            server.join().expect("server thread")
        });
        assert_eq!(report.overloads, 2);
        assert_eq!(report.contracts, 0);
    }

    #[test]
    fn tcp_oversized_line_is_typed_and_framing_survives() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
        let addr = listener.local_addr().expect("addr");
        let (input, codes) = probe_lines(2);
        let mut lines = input.lines();
        let (first, second) = (lines.next().expect("probe"), lines.next().expect("probe"));
        let scheduler = Scheduler::new(scanner(), &SchedulerOptions::default());
        let (response, report) = std::thread::scope(|scope| {
            let scheduler = &scheduler;
            let server = scope.spawn(move || {
                serve_tcp(
                    &listener,
                    scheduler,
                    Protocol::V2,
                    TcpLimits {
                        max_conns: None,
                        accept_total: Some(1),
                    },
                )
                .expect("serves")
            });
            // The oversized line arrives over several writes, then a valid
            // line, then a valid line with no trailing newline.
            let mut stream = TcpStream::connect(addr).expect("connect");
            let piece = vec![b'6'; proto::MAX_LINE_BYTES / 2 + 1];
            for _ in 0..3 {
                stream.write_all(&piece).expect("send oversized piece");
            }
            stream
                .write_all(format!("\n{first}\n{second}").as_bytes())
                .expect("send valid lines");
            stream
                .shutdown(std::net::Shutdown::Write)
                .expect("half-close");
            let mut response = String::new();
            stream
                .read_to_string(&mut response)
                .expect("read responses");
            (response, server.join().expect("server thread"))
        });
        let lines: Vec<&str> = response.lines().collect();
        assert_eq!(lines.len(), 3, "{response}");
        let oversized = 3 * (proto::MAX_LINE_BYTES / 2 + 1);
        assert_eq!(
            lines[0],
            format!(
                "{{\"proto\":2,\"id\":\"0\",\"error\":\"{}\"}}",
                proto::oversized_line_message(oversized)
            )
        );
        for (i, line) in lines[1..].iter().enumerate() {
            assert!(
                line.starts_with(&format!("{{\"proto\":2,\"id\":\"{}\",\"verdict\":", i + 1)),
                "{line}"
            );
        }
        assert_eq!(report.errors, 1);
        assert_eq!(report.contracts, codes.len() as u64);
    }
}
