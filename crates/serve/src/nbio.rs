//! The readiness loop: [`serve_tcp`] runs one event-loop thread per
//! listener for every connection it accepts, speaking JSONL or HTTP/1.1
//! ([`Transport`]).
//!
//! A parked reader thread per socket would make 10k mostly-idle chain
//! watchers, or idle keep-alive HTTP clients, cost 10k threads before the
//! first request arrives. This module runs a single loop over `std`
//! nonblocking sockets instead: the listener and every accepted stream run
//! with `set_nonblocking(true)`, `poll(2)` (a raw declaration — std
//! already links libc) reports which sockets turned ready, and the loop
//! sweeps write → route-responses → read over **only** the ready
//! connections plus those still awaiting in-process responses. Each
//! iteration is therefore O(ready + awaiting) socket work, not
//! O(connections), and serving threads are O(shards + listeners) — both
//! asserted, for each transport, by `tests/idle_conns.rs`.
//!
//! A response leaves as soon as it exists:
//!
//! * **Nagle is off.** Every accepted socket sets `TCP_NODELAY`, so a
//!   small response never waits for the ACK that the client's next
//!   request would carry.
//! * **A waker, not a tick.** Routed responses arrive in each connection's
//!   in-process mailbox, which `poll(2)` cannot see. Each connection
//!   registers a wake hook with the scheduler, and its mailbox runs the
//!   hook on every change the loop can see: an answer filling the front
//!   slot, or the stream closing — from a worker, or from the loop's own
//!   `finish`. The hook writes one byte to a
//!   self-pipe (`UnixStream::pair`) whose read end sits in the poll set —
//!   but only while the loop is parked, and once per park, so a burst of
//!   routed lines costs one write and an awake loop costs none. The loop
//!   therefore parks with no timeout, and an idle loop makes no system
//!   calls.
//!
//! Two invariants keep a single-threaded loop safe against the scheduler's
//! blocking seams:
//!
//! * **Submit never blocks.** [`Connection::submit`] blocks while a
//!   connection's mailbox holds
//!   [`SchedulerOptions::max_outstanding`](crate::SchedulerOptions::max_outstanding)
//!   unreceived responses; the loop stops *reading* a connection once its
//!   own in-flight count reaches a cap strictly below that, and reads at
//!   most two bytes per free slot (the shortest request, `x\n`, is two),
//!   so the window can never park the loop (and with it, every other
//!   connection).
//! * **Writes never buffer without bound.** Response bytes wait in a
//!   per-connection buffer with a soft cap; past it the loop stops
//!   draining that connection's responses and stops reading it — the
//!   mailbox's window then backpressures the socket.
//!
//! Each connection has a framing. JSONL cuts lines with the stdin
//! transport's `proto::LineFramer`, so oversized and unterminated lines
//! answer as they do there. HTTP cuts requests with the framer in
//! [`http`](crate::http) and queues each one's response head until its
//! body routes, so pipelined answers leave in request order; a typed
//! reject or a close request ends the connection's requests.
//!
//! Two things at accept end neither a client's answer nor the listener.
//! A connection refused under `max_conns` gets its overload answer and a
//! half-close, then stays in the poll set with its input discarded until
//! the client closes, so request bytes it already sent never turn the
//! close into a reset. (An HTTP connection whose last answer closes it
//! lingers the same way.) An accept that fails for want of descriptors,
//! buffers or memory stops accepting for a fixed 100 ms pause, logged
//! once per episode, while the live connections keep being served.

use crate::http::RequestFramer;
use crate::proto::{Framed, LineFramer, Protocol};
use crate::router::{self, Head};
use crate::scheduler::{
    Admission, Connection, PolledResponse, Responses, Scheduler, SubmitOutcome, WakeHook,
};
use crate::serve::{self, ServeReport, TcpLimits};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Instant;

/// Stop draining responses into a connection's write buffer past this many
/// pending bytes; the client must read before more responses render.
const WRITE_BUFFER_SOFT_CAP: usize = 256 << 10;

/// Per-`read(2)` scratch size.
const READ_CHUNK: usize = 16 << 10;

/// Never let one connection's in-flight count reach the scheduler window
/// (where submit would block the loop), and keep a global fairness bound.
const INFLIGHT_CAP: usize = 512;

/// Answered connections held open at once while their input drains to
/// the client's EOF; past this many, one closes right after its answer.
const MAX_LINGERING: usize = 64;

/// What a listener speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// One request per line, under the given wire protocol.
    Jsonl(Protocol),
    /// HTTP/1.1: the gateway endpoints in [`router`].
    Http,
}

/// How one connection cuts requests and frames answers.
enum Framing {
    /// Capped request lines; one response line each.
    Jsonl(LineFramer),
    /// HTTP requests, and the heads of the answers whose bodies have not
    /// routed yet, in request order.
    Http(RequestFramer, VecDeque<Head>),
}

/// One tracked connection in the event loop.
struct Conn {
    stream: TcpStream,
    peer: std::net::SocketAddr,
    submit: Connection,
    responses: Responses,
    framing: Framing,
    /// Pending response bytes not yet accepted by the socket.
    wbuf: Vec<u8>,
    /// Consumed prefix of `wbuf` (compacted lazily).
    wpos: usize,
    /// Responses submitted but not yet routed back — the anti-wedge cap.
    inflight: usize,
    /// Client half-closed its write side: no more requests.
    eof: bool,
    /// An HTTP answer closes the connection: no more requests.
    closing: bool,
    /// `finish()` ran (exactly once, when the requests ended).
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
            && !self.closing
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

    /// Moves routed responses into the write buffer; returns how many.
    fn pump_responses(&mut self, scheduler: &Scheduler) -> usize {
        let mut moved = 0;
        while self.pending_write() < WRITE_BUFFER_SOFT_CAP {
            match self.responses.poll() {
                PolledResponse::Ready(body, kind) => {
                    match &mut self.framing {
                        Framing::Jsonl(_) => {
                            self.wbuf.extend_from_slice(body.as_bytes());
                            self.wbuf.push(b'\n');
                        }
                        // `router::submit` queued one head per routed body.
                        Framing::Http(_, heads) => {
                            if let Some(head) = heads.pop_front() {
                                let status = head.write(&body, kind, &mut self.wbuf);
                                scheduler.metrics().http_response(status);
                            }
                        }
                    }
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

    /// Reads request bytes and submits complete requests (shed admission);
    /// returns bytes read.
    fn pump_read(&mut self, scheduler: &Scheduler) -> usize {
        let mut scratch = [0u8; READ_CHUNK];
        let mut got = 0;
        while self.wants_read() {
            // Two bytes per free window slot; see the module docs.
            let room = self.submit.max_outstanding() - self.inflight;
            let buf = &mut scratch[..READ_CHUNK.min(room.saturating_mul(2))];
            match self.stream.read(buf) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => {
                    got += n;
                    let chunk = &scratch[..n];
                    let more = match &mut self.framing {
                        Framing::Jsonl(framer) => framer.push(chunk, |framed| {
                            submit_shed(&mut self.submit, &mut self.inflight, framed)
                        }),
                        Framing::Http(framer, heads) => framer.push(chunk, |outcome| {
                            let head = router::submit(scheduler, &mut self.submit, outcome);
                            head.is_some_and(|head| {
                                self.inflight += 1;
                                self.closing = !head.response.keep_alive;
                                heads.push_back(head);
                                !self.closing
                            })
                        }),
                    };
                    if !more {
                        // A closing answer ends the requests; else the
                        // response stream is gone.
                        self.dead |= !self.closing;
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
        if (self.eof || self.closing) && !self.finished {
            // EOF ends a non-empty unterminated JSONL line; an HTTP request
            // cut short gets no answer.
            if let Framing::Jsonl(framer) = &mut self.framing {
                let submit =
                    |framed: Framed<'_>| submit_shed(&mut self.submit, &mut self.inflight, framed);
                self.dead |= !framer.finish(submit);
            }
            self.submit.finish();
            self.finished = true;
        }
        got
    }

    /// Finished serving: either torn down, or the requests ended with
    /// every response routed and written.
    fn complete(&self) -> bool {
        self.dead || (self.finished && self.drained && self.pending_write() == 0)
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

/// Half-closes a socket after its last answer and keeps it, input
/// discarded, until the client closes: closing over unread input would
/// reset the connection and destroy the answer in flight.
fn linger(lingering: &mut Vec<TcpStream>, stream: TcpStream) {
    if lingering.len() < MAX_LINGERING
        && stream.shutdown(Shutdown::Write).is_ok()
        && stream.set_nonblocking(true).is_ok()
    {
        lingering.push(stream);
    }
}

/// Reads and discards a lingering socket's input; `true` once the client
/// has closed (or the socket failed) and the socket can be dropped. Reads
/// a bounded amount per call, so a client that keeps sending cannot hold
/// the loop.
fn drain_lingering(stream: &mut TcpStream) -> bool {
    let mut sink = [0u8; READ_CHUNK];
    for _ in 0..4 {
        match stream.read(&mut sink) {
            Ok(0) => return true,
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return true,
        }
    }
    false
}

/// The indices [`park::wait`] reports ready.
struct Ready {
    /// Into the connections.
    conns: Vec<usize>,
    /// Into the lingering sockets.
    lingering: Vec<usize>,
}

#[cfg(unix)]
mod park {
    //! Readiness parking via a raw `poll(2)` declaration (std links libc),
    //! and the self-pipe [`Waker`] that routed responses poke.

    use super::{Conn, Ready};
    use std::io::{self, Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::{AtomicU8, Ordering};

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

    /// The loop is running: a wake only marks [`NOTIFIED`].
    const AWAKE: u8 = 0;
    /// A wake arrived while the loop was running, so it must not park.
    const NOTIFIED: u8 = 1;
    /// The loop is in a blocking `poll(2)`: a wake writes the pipe.
    const PARKED: u8 = 2;

    /// A self-pipe in the loop's poll set. Both ends live here, so a wake
    /// can never write into a closed pipe.
    pub(super) struct Waker {
        state: AtomicU8,
        tx: UnixStream,
        rx: UnixStream,
    }

    impl Waker {
        pub(super) fn new() -> io::Result<Waker> {
            let (tx, rx) = UnixStream::pair()?;
            tx.set_nonblocking(true)?;
            rx.set_nonblocking(true)?;
            Ok(Waker {
                state: AtomicU8::new(AWAKE),
                tx,
                rx,
            })
        }

        /// Makes the loop's current or next park return. Writes the pipe
        /// only when the loop is parked, once per park; a full pipe already
        /// holds a wake, so a failed write loses nothing.
        pub(super) fn wake(&self) {
            if self.state.swap(NOTIFIED, Ordering::AcqRel) == PARKED {
                let _ = (&self.tx).write(&[1]);
            }
        }
    }

    /// Waits until a tracked socket is ready, the waker fires, or
    /// `timeout_ms` elapses (`-1`: no timeout), and returns the connections
    /// and lingering sockets poll reported ready (any revents, so errors
    /// and hangups surface too). A nonzero timeout parks only when no wake
    /// arrived since the previous call; before returning, the waker is
    /// drained and re-armed, so every wake after that reaches the next
    /// call.
    pub(super) fn wait(
        waker: &Waker,
        listener: Option<&TcpListener>,
        conns: &[Conn],
        lingering: &[TcpStream],
        timeout_ms: i32,
    ) -> Ready {
        let mut fds: Vec<PollFd> = Vec::with_capacity(conns.len() + lingering.len() + 2);
        // Slot 0 is the waker; the listener is the accept pass's business.
        fds.push(PollFd {
            fd: waker.rx.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        });
        if let Some(listener) = listener {
            fds.push(PollFd {
                fd: listener.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            });
        }
        // Past the fixed slots, `owner` maps each slot to a connection, or
        // to a lingering socket offset by `conns.len()`.
        let fixed = fds.len();
        let mut owner: Vec<usize> = Vec::with_capacity(fds.capacity());
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
        for (index, stream) in lingering.iter().enumerate() {
            fds.push(PollFd {
                fd: stream.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            });
            owner.push(conns.len() + index);
        }

        let parks = timeout_ms != 0
            && waker
                .state
                .compare_exchange(AWAKE, PARKED, Ordering::AcqRel, Ordering::Acquire)
                .is_ok();
        let timeout_ms = if parks { timeout_ms } else { 0 };
        let polled = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
        // Re-arm before the caller sweeps: every wake from here on is
        // either seen by that sweep or stops the next park.
        waker.state.swap(AWAKE, Ordering::AcqRel);
        let mut ready = Ready {
            conns: Vec::new(),
            lingering: Vec::new(),
        };
        if polled <= 0 {
            return ready;
        }
        if fds[0].revents != 0 {
            let mut sink = [0u8; 64];
            while matches!((&waker.rx).read(&mut sink), Ok(n) if n > 0) {}
        }
        for (fd, &index) in fds[fixed..].iter().zip(&owner) {
            if fd.revents == 0 {
                continue;
            }
            if index < conns.len() {
                ready.conns.push(index);
            } else {
                ready.lingering.push(index - conns.len());
            }
        }
        ready
    }
}

#[cfg(not(unix))]
mod park {
    //! Portable fallback with no waker: a short sleep, then sweep every
    //! connection and lingering socket.

    use super::{Conn, Ready};
    use std::net::{TcpListener, TcpStream};

    pub(super) struct Waker;

    impl Waker {
        pub(super) fn new() -> std::io::Result<Waker> {
            Ok(Waker)
        }

        pub(super) fn wake(&self) {}
    }

    pub(super) fn wait(
        _waker: &Waker,
        _listener: Option<&TcpListener>,
        conns: &[Conn],
        lingering: &[TcpStream],
        timeout_ms: i32,
    ) -> Ready {
        // No timeout (`-1`) sleeps the shortest tick.
        if timeout_ms != 0 {
            std::thread::sleep(std::time::Duration::from_millis(
                timeout_ms.clamp(1, 20) as u64
            ));
        }
        Ready {
            conns: (0..conns.len()).collect(),
            lingering: (0..lingering.len()).collect(),
        }
    }
}

/// Accepts TCP connections on `listener` and serves `transport` on each
/// over the one shared scheduler, multiplexing every connection onto the
/// calling thread — connections contribute rows to the same batches and
/// share the same verdict cache. Admission control:
///
/// * per request: shed-mode submission (a typed overload answer — the
///   JSONL overload line, or HTTP `503` + `Retry-After` — when the
///   scheduler queue is full);
/// * per connection: `limits.max_conns` concurrent sessions; a surplus
///   accept receives one overload answer and a half-close, and its input
///   is discarded until the client closes.
///
/// `limits.accept_total` bounds how many connections are accepted before
/// returning the aggregate report — `None` serves forever (the daemon
/// case). A bounded run returns once every accepted connection, refused
/// ones included, has closed. Each connection's report is written to
/// stderr as it closes.
///
/// [`run`](crate::serve::run) calls this once per listener it binds, each
/// on a thread of its own; call it directly when the caller owns the
/// scheduler and the socket.
///
/// # Errors
/// Propagates accept errors other than running out of descriptors,
/// buffers or memory, which pause accepting instead; per-connection I/O
/// errors tear down that connection only.
pub fn serve_tcp(
    listener: &TcpListener,
    scheduler: &Scheduler,
    transport: Transport,
    limits: TcpLimits,
) -> io::Result<ServeReport> {
    listener.set_nonblocking(true)?;
    let waker = Arc::new(park::Waker::new()?);
    let wake: WakeHook = {
        let waker = Arc::clone(&waker);
        Arc::new(move || waker.wake())
    };
    let model = scheduler.model_name().to_owned();
    let (proto, tag, refusal) = match transport {
        Transport::Jsonl(proto) => {
            let line = proto.render_connection_refusal("connect") + "\n";
            (proto, "", line.into_bytes())
        }
        Transport::Http => (Protocol::V2, "http ", router::refusal()),
    };
    let mut total = ServeReport::default();
    let mut conns: Vec<Conn> = Vec::new();
    let mut lingering: Vec<TcpStream> = Vec::new();
    let mut accepted = 0usize;
    let mut accept_pause = serve::AcceptPause::default();

    let mut last_progress = 1usize;
    loop {
        let mut progress = 0usize;
        let paused_for = accept_pause.remaining();
        let accepting = paused_for.is_none() && limits.accept_total.is_none_or(|m| accepted < m);

        // Readiness first: a zero timeout just collects what is already
        // ready while work is flowing; once an iteration moves nothing,
        // park until a socket or the waker fires — or, while accepting is
        // paused, until the pause ends.
        let timeout_ms = if last_progress > 0 {
            0
        } else {
            paused_for.map_or(-1, |left| left.as_millis() as i32 + 1)
        };
        let ready = park::wait(
            &waker,
            accepting.then_some(listener),
            &conns,
            &lingering,
            timeout_ms,
        );

        // Accept every pending connection (or refuse it, typed).
        let mut newly_accepted = 0usize;
        while accepting && limits.accept_total.is_none_or(|m| accepted < m) {
            let (mut stream, peer) = match listener.accept() {
                Ok(pair) => pair,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) if serve::accept_error_is_transient(&e) => {
                    accept_pause.start(&e);
                    break;
                }
                Err(e) => return Err(e),
            };
            accept_pause.end();
            accepted += 1;
            progress += 1;
            if limits.max_conns.is_some_and(|m| conns.len() >= m) {
                // Connection-level admission control: one typed overload
                // answer, then a lingering half-close. The just-accepted
                // socket is still blocking (accept does not inherit
                // O_NONBLOCK), so the short write is safe without
                // buffering.
                let _ = stream.write_all(&refusal);
                eprintln!(
                    "[{tag}{peer}] refused: {} concurrent connection(s) reached",
                    conns.len()
                );
                total.overloads += 1;
                // The refusal never reaches a scheduler connection, so the
                // shared counters are incremented here — exactly once per
                // refused connection, like the queue-shed path.
                scheduler.metrics().inc_overloads();
                if transport == Transport::Http {
                    scheduler.metrics().http_response(503);
                }
                linger(&mut lingering, stream);
                continue;
            }
            if let Err(e) = stream
                .set_nonblocking(true)
                .and_then(|()| stream.set_nodelay(true))
            {
                eprintln!("[{tag}{peer}] dropped: {e}");
                continue;
            }
            let (submit, responses) = scheduler.connect_with_wake(proto, Some(Arc::clone(&wake)));
            newly_accepted += 1;
            conns.push(Conn {
                stream,
                peer,
                submit,
                responses,
                framing: match transport {
                    Transport::Jsonl(_) => Framing::Jsonl(LineFramer::default()),
                    Transport::Http => Framing::Http(RequestFramer::default(), VecDeque::new()),
                },
                wbuf: Vec::new(),
                wpos: 0,
                inflight: 0,
                eof: false,
                closing: false,
                finished: false,
                drained: false,
                dead: false,
                t0: Instant::now(),
            });
        }

        // Sweep only the connections with something to do — poll-ready
        // sockets, lanes still owed in-process responses, buffered writes,
        // and the just-accepted batch: write → route responses → write →
        // read. Idle watchers cost nothing here.
        let first_new = conns.len() - newly_accepted;
        let mut sweep = ready.conns;
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
            progress += conn.pump_responses(scheduler);
            if conn.pending_write() > 0 {
                progress += conn.pump_write();
            }
            progress += conn.pump_read(scheduler);
        }

        // Drop the lingering sockets whose clients have closed. Descending
        // order keeps the lower indices valid across `swap_remove`.
        for index in ready.lingering.into_iter().rev() {
            if drain_lingering(&mut lingering[index]) {
                lingering.swap_remove(index);
                progress += 1;
            }
        }

        // Retire completed connections.
        let mut i = 0;
        while i < conns.len() {
            if !conns[i].complete() {
                i += 1;
                continue;
            }
            let conn = conns.swap_remove(i);
            let mut report = conn.submit.report();
            report.secs = conn.t0.elapsed().as_secs_f64();
            eprint!("[{tag}{}] {}", conn.peer, report.render(&model));
            total.absorb(&report);
            // An HTTP answer ended a connection whose client may still be
            // sending.
            if !conn.eof && !conn.dead {
                linger(&mut lingering, conn.stream);
            }
            progress += 1;
        }

        if conns.is_empty()
            && lingering.is_empty()
            && limits.accept_total.is_some_and(|m| accepted >= m)
        {
            return Ok(total);
        }
        last_progress = progress;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto;
    use crate::scheduler::SchedulerOptions;
    use crate::testutil::{probe_lines, scanner};
    use std::io::{BufRead, BufReader};
    use std::net::SocketAddr;
    use std::thread::JoinHandle;
    use std::time::Duration;

    /// How long a test waits on a socket read or on `serve_tcp` returning
    /// before it fails: a lost wake-up fails a test instead of hanging it.
    const PATIENCE: Duration = Duration::from_secs(10);

    /// Runs a bounded `serve_tcp` on a thread of its own. The thread is not
    /// scoped, so a stalled loop cannot hold a failing test open.
    fn spawn_loop(
        scheduler: &Arc<Scheduler>,
        transport: Transport,
        limits: TcpLimits,
    ) -> (SocketAddr, JoinHandle<ServeReport>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
        let addr = listener.local_addr().expect("addr");
        let scheduler = Arc::clone(scheduler);
        let server = std::thread::spawn(move || {
            serve_tcp(&listener, &scheduler, transport, limits).expect("serves")
        });
        (addr, server)
    }

    /// [`spawn_loop`] serving v2 JSONL.
    fn spawn_server(
        scheduler: &Arc<Scheduler>,
        limits: TcpLimits,
    ) -> (SocketAddr, JoinHandle<ServeReport>) {
        spawn_loop(scheduler, Transport::Jsonl(Protocol::V2), limits)
    }

    /// The bounded run's report, once `serve_tcp` has returned.
    fn join_server(server: JoinHandle<ServeReport>) -> ServeReport {
        let deadline = Instant::now() + PATIENCE;
        while !server.is_finished() {
            assert!(Instant::now() < deadline, "serve_tcp did not return");
            std::thread::sleep(Duration::from_millis(5));
        }
        server.join().expect("server thread")
    }

    fn connect(addr: SocketAddr) -> TcpStream {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(PATIENCE))
            .expect("read timeout");
        stream
    }

    fn spawn_client(addr: SocketAddr, input: String) -> JoinHandle<String> {
        std::thread::spawn(move || {
            let mut stream = connect(addr);
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
        let (input, codes) = probe_lines(5);

        // Client A scores 5 codes; once its responses are back, client B
        // sends the same codes plus a stats probe — B's requests must hit
        // the process-wide cache A populated.
        let input_b = format!("{input}stats\n");
        let scheduler = Arc::new(Scheduler::new(scanner(), &SchedulerOptions::default()));
        let (addr, server) = spawn_server(
            &scheduler,
            TcpLimits {
                max_conns: Some(4),
                accept_total: Some(2),
            },
        );
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
        let server = join_server(server);
        assert_eq!(server.contracts, 2 * codes.len() as u64);
        assert_eq!(server.cache_hits, codes.len() as u64);
        let stats = Arc::into_inner(scheduler)
            .expect("the server thread released the scheduler")
            .shutdown();
        assert_eq!(stats.scheduler.connections, 2);
        assert_eq!(stats.scheduler.scored, codes.len() as u64);
    }

    #[test]
    fn tcp_connection_limit_answers_typed_overload() {
        let scheduler = Arc::new(Scheduler::new(scanner(), &SchedulerOptions::default()));
        let (addr, server) = spawn_server(
            &scheduler,
            TcpLimits {
                // No concurrent sessions allowed at all: every accept is
                // refused with the typed overload line — deterministic, no
                // timing involved.
                max_conns: Some(0),
                accept_total: Some(2),
            },
        );
        for _ in 0..2 {
            let client = spawn_client(addr, String::new());
            let response = client.join().expect("client");
            assert_eq!(response.lines().count(), 1, "{response}");
            assert!(response.contains("\"code\":\"overloaded\""), "{response}");
        }
        let report = join_server(server);
        assert_eq!(report.overloads, 2);
        assert_eq!(report.contracts, 0);
    }

    #[test]
    fn tcp_refused_clients_that_already_sent_requests_still_read_the_overload_line() {
        // Unread request bytes at close would make the kernel reset the
        // connection, and a reset destroys the overload line in flight.
        const CLIENTS: usize = 8;
        let (input, _) = probe_lines(4);
        let scheduler = Arc::new(Scheduler::new(scanner(), &SchedulerOptions::default()));
        let (addr, server) = spawn_server(
            &scheduler,
            TcpLimits {
                max_conns: Some(0),
                accept_total: Some(CLIENTS),
            },
        );
        let clients: Vec<JoinHandle<String>> = (0..CLIENTS)
            .map(|_| {
                let input = input.clone();
                std::thread::spawn(move || {
                    let mut stream = connect(addr);
                    stream.write_all(input.as_bytes()).expect("send requests");
                    // Read to EOF without half-closing first: the server
                    // ends the exchange, not the client.
                    let mut response = String::new();
                    stream
                        .read_to_string(&mut response)
                        .expect("the overload line, then EOF — not a reset");
                    response
                })
            })
            .collect();
        let overload_line = "{\"proto\":2,\"id\":\"connect\",\"error\":\"overloaded: connection limit reached\",\"code\":\"overloaded\"}\n";
        for client in clients {
            assert_eq!(client.join().expect("client"), overload_line);
        }
        let report = join_server(server);
        assert_eq!(report.overloads, CLIENTS as u64);
        assert_eq!(report.contracts, 0);
    }

    #[test]
    fn http_refused_clients_that_already_sent_requests_still_read_the_503() {
        // The HTTP twin: each refused client pipelined requests before it
        // read, and must read exactly one 503, then EOF.
        const CLIENTS: usize = 8;
        let requests = "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n".repeat(4);
        let scheduler = Arc::new(Scheduler::new(scanner(), &SchedulerOptions::default()));
        let (addr, server) = spawn_loop(
            &scheduler,
            Transport::Http,
            TcpLimits {
                max_conns: Some(0),
                accept_total: Some(CLIENTS),
            },
        );
        let clients: Vec<JoinHandle<String>> = (0..CLIENTS)
            .map(|_| {
                let requests = requests.clone();
                std::thread::spawn(move || {
                    let mut stream = connect(addr);
                    stream
                        .write_all(requests.as_bytes())
                        .expect("send requests");
                    let mut response = String::new();
                    stream
                        .read_to_string(&mut response)
                        .expect("the 503, then EOF — not a reset");
                    response
                })
            })
            .collect();
        for client in clients {
            let response = client.join().expect("client");
            assert!(
                response.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
                "{response}"
            );
            assert_eq!(response.matches("HTTP/1.1 ").count(), 1, "{response}");
            assert!(response.contains("Retry-After: 1\r\n"), "{response}");
            assert!(response.ends_with("{\"error\":\"overloaded: connection limit reached\"}"));
        }
        let report = join_server(server);
        assert_eq!(report.overloads, CLIENTS as u64);
        let snap = scheduler.metrics_snapshot();
        assert_eq!(snap.http.responses_5xx, CLIENTS as u64);
        assert_eq!(snap.http.requests, 0, "refused before any request was read");
    }

    #[test]
    fn a_refused_http_client_that_keeps_sending_cannot_stall_accepting() {
        let scheduler = Arc::new(Scheduler::new(scanner(), &SchedulerOptions::default()));
        let (addr, server) = spawn_loop(
            &scheduler,
            Transport::Http,
            TcpLimits {
                max_conns: Some(1),
                accept_total: Some(3),
            },
        );
        // A live keep-alive connection holds the only slot.
        let live = connect(addr);
        (&live)
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .expect("send");
        let mut live_reader = BufReader::new(&live);
        let mut status = String::new();
        live_reader.read_line(&mut status).expect("live answer");
        assert!(status.starts_with("HTTP/1.1 200 "), "{status}");

        // Client A reads its 503, then keeps sending without closing: one
        // byte every 50 ms for 2 s.
        let mut a = connect(addr);
        let mut refused = String::new();
        a.read_to_string(&mut refused).expect("A's 503, then EOF");
        assert!(refused.starts_with("HTTP/1.1 503 "), "{refused}");
        let dribbler = std::thread::spawn(move || {
            for _ in 0..40 {
                a.write_all(b"x").expect("the refused socket keeps reading");
                std::thread::sleep(Duration::from_millis(50));
            }
            a
        });

        // Client B arrives 200 ms in and must be refused at once.
        std::thread::sleep(Duration::from_millis(200));
        let start = Instant::now();
        let mut b = connect(addr);
        b.set_read_timeout(Some(Duration::from_secs(1)))
            .expect("read timeout");
        let mut answer = String::new();
        b.read_to_string(&mut answer)
            .expect("B's 503 within a second, while A still sends");
        assert!(start.elapsed() < Duration::from_secs(1));
        assert!(answer.starts_with("HTTP/1.1 503 "), "{answer}");
        assert!(answer.contains("Retry-After: 1\r\n"), "{answer}");

        drop(dribbler.join().expect("dribbler"));
        drop(live_reader);
        drop(live);
        drop(b);
        let report = join_server(server);
        assert_eq!(report.overloads, 2);
    }

    #[test]
    fn a_pipelined_burst_past_the_window_never_blocks_the_loop() {
        // Four window slots and eight requests in one write: a read that
        // submitted them all would park the loop in the window for good.
        let opts = SchedulerOptions {
            max_outstanding: 4,
            ..SchedulerOptions::default()
        };
        let scheduler = Arc::new(Scheduler::new(scanner(), &opts));
        for (transport, burst) in [
            (Transport::Jsonl(Protocol::V2), "x\n".repeat(8)),
            (Transport::Http, "GET /healthz HTTP/1.1\r\n\r\n".repeat(8)),
        ] {
            let (addr, server) = spawn_loop(
                &scheduler,
                transport,
                TcpLimits {
                    max_conns: None,
                    accept_total: Some(1),
                },
            );
            let mut stream = connect(addr);
            stream.write_all(burst.as_bytes()).expect("send the burst");
            stream
                .shutdown(std::net::Shutdown::Write)
                .expect("half-close");
            let mut response = String::new();
            stream
                .read_to_string(&mut response)
                .expect("every answer, then EOF");
            let answers = match transport {
                Transport::Jsonl(_) => response.lines().count(),
                Transport::Http => response.matches("HTTP/1.1 200 OK").count(),
            };
            assert_eq!(answers, 8, "{transport:?}: {response}");
            join_server(server);
        }
    }

    #[test]
    fn tcp_half_close_after_the_last_answer_retires_the_connection() {
        // One request at a time: a worker routes each answer while the
        // loop is parked, so each one needs a wake. Then EOF arrives in a
        // read of its own, after every answer has routed: `finish` closes
        // the response stream on the loop's own thread, and the loop must
        // still retire the connection rather than park for good.
        let (input, codes) = probe_lines(8);
        let scheduler = Arc::new(Scheduler::new(scanner(), &SchedulerOptions::default()));
        let (addr, server) = spawn_server(
            &scheduler,
            TcpLimits {
                max_conns: None,
                accept_total: Some(1),
            },
        );
        let stream = connect(addr);
        let mut reader = BufReader::new(&stream);
        for (i, line) in input.lines().enumerate() {
            (&stream)
                .write_all(format!("{line}\n").as_bytes())
                .expect("send request");
            let mut answer = String::new();
            reader.read_line(&mut answer).expect("read the answer");
            assert!(
                answer.starts_with(&format!("{{\"proto\":2,\"id\":\"{i}\",\"verdict\":")),
                "{answer}"
            );
        }
        stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        let mut rest = String::new();
        reader
            .read_to_string(&mut rest)
            .expect("the server closes the connection");
        assert_eq!(rest, "");
        let report = join_server(server);
        assert_eq!(report.contracts, codes.len() as u64);
    }

    #[test]
    fn tcp_oversized_line_is_typed_and_framing_survives() {
        let (input, codes) = probe_lines(2);
        let mut lines = input.lines();
        let (first, second) = (lines.next().expect("probe"), lines.next().expect("probe"));
        let scheduler = Arc::new(Scheduler::new(scanner(), &SchedulerOptions::default()));
        let (addr, server) = spawn_server(
            &scheduler,
            TcpLimits {
                max_conns: None,
                accept_total: Some(1),
            },
        );
        // The oversized line arrives over several writes, then a valid
        // line, then a valid line with no trailing newline.
        let mut stream = connect(addr);
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
        let report = join_server(server);
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
