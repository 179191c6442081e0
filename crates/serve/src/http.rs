//! std-only HTTP/1.1 framing: the incremental request framer the event
//! loop feeds, [`read_request`] over any buffered reader, and response
//! writing for the gateway in [`router`](crate::router).
//!
//! This is deliberately a *small* HTTP/1.1, hardened rather than
//! featureful — the gateway fronts one JSON-in/JSON-out prediction
//! endpoint plus two GET probes, so the parser supports exactly what
//! those need and rejects the rest with typed statuses:
//!
//! * **Framing**: `Content-Length` bodies only. `Transfer-Encoding`
//!   (chunked included) answers `501`; a `POST` without `Content-Length`
//!   answers `411`. A signed `Content-Length`, or whitespace before a
//!   field name's colon or leading its line (an obsolete line folding),
//!   answers `400` (RFC 9112 §5, RFC 9110 §8.6).
//! * **Keep-alive and pipelining**: HTTP/1.1 defaults to keep-alive
//!   (HTTP/1.0 to close), `Connection: close` is honored, and because
//!   the framer cuts requests strictly in stream order, pipelined
//!   requests parse and answer in order for free.
//! * **Bounds everywhere**: request line and each header line are capped
//!   at [`MAX_HEADER_LINE`] bytes (`431` beyond, detected while the line
//!   is still arriving), header count at [`MAX_HEADER_COUNT`], and
//!   declared bodies at [`MAX_BODY_BYTES`] (`413` beyond) — the same
//!   1 MiB cap as a JSONL request line, so no front-end can smuggle a
//!   larger payload than the other.
//! * **`Expect: 100-continue` is not implemented**: any `Expect` header
//!   answers `417` up front instead of stalling the client. (`curl`
//!   sends it for large POSTs; pass `-H 'Expect:'` to suppress.)
//!
//! Malformed input is never fatal to the process: every parse failure is
//! a [`RequestOutcome::Reject`] the connection answers and then closes on
//! (framing after a parse error is unknowable), and an abrupt disconnect
//! mid-request surfaces as [`RequestOutcome::Disconnected`].

use std::io::{self, BufRead};

/// Byte cap for the request line and each header line (`431` beyond).
pub const MAX_HEADER_LINE: usize = 8192;
/// Maximum header count per request (`431` beyond).
pub const MAX_HEADER_COUNT: usize = 100;
/// Byte cap for a request body — the same 1 MiB as a JSONL request line.
pub const MAX_BODY_BYTES: usize = crate::proto::MAX_LINE_BYTES;

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// The method verbatim (`GET`, `POST`, …).
    pub method: String,
    /// The request target verbatim (`/predict`, `/metrics?x=1`, …).
    pub target: String,
    /// Whether the connection stays open after this exchange.
    pub keep_alive: bool,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

/// What one attempt to read a request produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestOutcome {
    /// A complete, well-formed request.
    Request(HttpRequest),
    /// Clean EOF at a request boundary (client done; not an error).
    Eof,
    /// The peer vanished mid-request (EOF inside the head or body).
    Disconnected,
    /// A malformed request: answer with `status` and close the
    /// connection (framing after a parse error is unknowable).
    Reject {
        /// The status to answer with (`400`, `411`, `413`, `417`, `431`,
        /// `501`, `505`).
        status: u16,
        /// Human-readable reason, echoed in the JSON error body.
        detail: String,
    },
}

/// A [`RequestOutcome::Reject`], as the error of a parse step.
fn reject<T>(status: u16, detail: impl Into<String>) -> Result<T, RequestOutcome> {
    let detail = detail.into();
    Err(RequestOutcome::Reject { status, detail })
}

/// The request being framed, from its request line on.
#[derive(Debug)]
struct RequestHead {
    /// The request so far; its body fills once the head has ended.
    request: HttpRequest,
    content_length: Option<usize>,
    headers: usize,
    /// The body bytes still owed, once the head has ended.
    owed: Option<usize>,
}

impl RequestHead {
    /// Parses a request line.
    fn parse(line: &str) -> Result<RequestHead, RequestOutcome> {
        let mut parts = line.split(' ');
        let (method, target, version) =
            match (parts.next(), parts.next(), parts.next(), parts.next()) {
                (Some(m), Some(t), Some(v), None) if !m.is_empty() && t.starts_with('/') => {
                    (m, t, v)
                }
                _ => return reject(400, format!("malformed request line: {line:?}")),
            };
        let keep_alive = match version {
            "HTTP/1.1" => true,
            "HTTP/1.0" => false,
            _ => return reject(505, format!("unsupported protocol version {version:?}")),
        };
        let request = HttpRequest {
            method: method.to_owned(),
            target: target.to_owned(),
            keep_alive,
            body: Vec::new(),
        };
        Ok(RequestHead {
            request,
            content_length: None,
            headers: 0,
            owed: None,
        })
    }

    /// Applies one non-blank header line. A field name is a token, so
    /// whitespace before its colon, or leading its line (an obsolete line
    /// folding), rejects it.
    fn header(&mut self, line: &str) -> Result<(), RequestOutcome> {
        self.headers += 1;
        if self.headers > MAX_HEADER_COUNT {
            return reject(431, format!("more than {MAX_HEADER_COUNT} headers"));
        }
        let (name, value) = match line.split_once(':') {
            Some((name, value)) if is_token(name) => (name, value.trim()),
            _ => return reject(400, format!("malformed header line: {line:?}")),
        };
        let is = |known: &str| name.eq_ignore_ascii_case(known);
        if is("content-length") {
            // Digits only: `usize`'s parser would also take a leading `+`.
            let digits = value.bytes().all(|b| b.is_ascii_digit());
            match value.parse().ok().filter(|_| digits) {
                Some(n) if self.content_length.is_none_or(|m| m == n) => {
                    self.content_length = Some(n);
                }
                _ => return reject(400, format!("invalid Content-Length: {value:?}")),
            }
        } else if is("transfer-encoding") {
            return reject(501, "transfer encodings (chunked included) not supported");
        } else if is("expect") {
            let detail = "Expect (including 100-continue) not supported; send the body directly";
            return reject(417, detail);
        } else if is("connection") {
            for token in value.split(',').map(str::trim) {
                if token.eq_ignore_ascii_case("close") {
                    self.request.keep_alive = false;
                } else if token.eq_ignore_ascii_case("keep-alive") {
                    self.request.keep_alive = true;
                }
            }
        }
        Ok(())
    }

    /// Ends the head: allocates the body at its declared length, and
    /// returns that length.
    fn end(&mut self) -> Result<usize, RequestOutcome> {
        let method = &self.request.method;
        let length = match self.content_length {
            Some(n) if n > MAX_BODY_BYTES => {
                return reject(
                    413,
                    format!("body of {n} bytes exceeds the {MAX_BODY_BYTES} byte limit"),
                );
            }
            Some(n) => n,
            None if matches!(method.as_str(), "POST" | "PUT" | "PATCH") => {
                return reject(411, format!("{method} requires Content-Length"));
            }
            None => 0,
        };
        self.request.body.reserve_exact(length);
        self.owed = Some(length);
        Ok(length)
    }
}

/// Whether `name` is a token (RFC 9110 §5.6.2), as a field name must be.
fn is_token(name: &str) -> bool {
    let tchar = |b: u8| b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b);
    !name.is_empty() && name.bytes().all(tchar)
}

/// Cuts an HTTP/1.1 byte stream into requests, however the stream is split
/// into chunks: the event loop feeds it each read, and [`read_request`]
/// feeds it a buffered reader. Each byte is scanned once, a head line is
/// buffered only up to [`MAX_HEADER_LINE`], and a body is allocated once,
/// at its declared length.
#[derive(Debug, Default)]
pub(crate) struct RequestFramer {
    /// The head line being cut, without its `\n`.
    line: Vec<u8>,
    /// The request being framed, once its request line has parsed.
    head: Option<RequestHead>,
}

impl RequestFramer {
    /// Feeds the next bytes of the stream, handing each request they
    /// complete, or the reject that ends the stream, to `emit` in order.
    /// Stops after a reject, or at the first `false` from `emit`, and
    /// returns `false`, dropping the rest of `chunk`.
    pub(crate) fn push(
        &mut self,
        mut chunk: &[u8],
        mut emit: impl FnMut(RequestOutcome) -> bool,
    ) -> bool {
        while let (used, Some(outcome)) = self.feed(chunk) {
            chunk = &chunk[used..];
            let framed = !matches!(outcome, RequestOutcome::Reject { .. });
            if !emit(outcome) || !framed {
                return false;
            }
        }
        true
    }

    /// Ends the stream: [`RequestOutcome::Eof`] at a request boundary,
    /// [`RequestOutcome::Disconnected`] inside a request.
    pub(crate) fn finish(&self) -> RequestOutcome {
        match (self.line.is_empty(), &self.head) {
            (true, None) => RequestOutcome::Eof,
            _ => RequestOutcome::Disconnected,
        }
    }

    /// Consumes `chunk` up to the end of the next request, and returns the
    /// bytes consumed and the request's outcome, if it ended.
    fn feed(&mut self, chunk: &[u8]) -> (usize, Option<RequestOutcome>) {
        let mut used = 0;
        while used < chunk.len() {
            let rest = &chunk[used..];
            if let Some(RequestHead {
                request,
                owed: Some(owed),
                ..
            }) = &mut self.head
            {
                let take = rest.len().min(*owed);
                request.body.extend_from_slice(&rest[..take]);
                *owed -= take;
                used += take;
                if *owed == 0 {
                    return (used, self.complete());
                }
                continue;
            }
            let newline = rest.iter().position(|&b| b == b'\n');
            let len = newline.unwrap_or(rest.len());
            if self.line.len() + len > MAX_HEADER_LINE {
                let which = self.head.as_ref().map_or("request", |_| "header");
                let detail = format!("{which} line too long");
                return (
                    chunk.len(),
                    Some(RequestOutcome::Reject {
                        status: 431,
                        detail,
                    }),
                );
            }
            self.line.extend_from_slice(&rest[..len]);
            let Some(newline) = newline else {
                return (chunk.len(), None);
            };
            used += newline + 1;
            let mut line = std::mem::take(&mut self.line);
            let text = String::from_utf8_lossy(line.strip_suffix(b"\r").unwrap_or(&line));
            let outcome = self.end_line(&text);
            line.clear();
            self.line = line;
            if outcome.is_some() {
                return (used, outcome);
            }
        }
        (used, None)
    }

    /// Applies one complete head line; returns the outcome when the line
    /// ends a body-less request or rejects it.
    fn end_line(&mut self, line: &str) -> Option<RequestOutcome> {
        let applied = match &mut self.head {
            None => RequestHead::parse(line).map(|head| self.head = Some(head)),
            Some(head) if !line.is_empty() => head.header(line),
            // The blank line ends the head.
            Some(head) => match head.end() {
                Ok(0) => return self.complete(),
                Ok(_) => Ok(()),
                Err(rejected) => Err(rejected),
            },
        };
        applied.err()
    }

    /// The request whose head or body just ended; framing starts over.
    fn complete(&mut self) -> Option<RequestOutcome> {
        self.head
            .take()
            .map(|head| RequestOutcome::Request(head.request))
    }
}

/// Reads and validates one request off `reader`, consuming exactly its
/// bytes (see the module docs for the supported subset and the rejection
/// statuses).
///
/// # Errors
/// Propagates only genuine transport errors; EOFs and malformed input are
/// encoded in the [`RequestOutcome`].
pub fn read_request(reader: &mut impl BufRead) -> io::Result<RequestOutcome> {
    let mut framer = RequestFramer::default();
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            return Ok(framer.finish());
        }
        let (used, outcome) = framer.feed(chunk);
        reader.consume(used);
        if let Some(outcome) = outcome {
            return Ok(outcome);
        }
    }
}

/// The standard reason phrase for the statuses this gateway emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        411 => "Length Required",
        413 => "Content Too Large",
        417 => "Expectation Failed",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        505 => "HTTP Version Not Supported",
        _ => "",
    }
}

/// Everything one response needs besides its body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseHead {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Emits `Retry-After: <secs>` when set (the overload answer).
    pub retry_after: Option<u32>,
    /// `Connection: keep-alive` vs `close`.
    pub keep_alive: bool,
}

/// Appends one complete `Content-Length`-framed response to `out`, the
/// connection's write buffer.
pub fn write_response(out: &mut Vec<u8>, head: ResponseHead, body: &[u8]) {
    let mut text = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        head.status,
        reason_phrase(head.status),
        head.content_type,
        body.len(),
    );
    if let Some(secs) = head.retry_after {
        text.push_str(&format!("Retry-After: {secs}\r\n"));
    }
    text.push_str(if head.keep_alive {
        "Connection: keep-alive\r\n\r\n"
    } else {
        "Connection: close\r\n\r\n"
    });
    out.extend_from_slice(text.as_bytes());
    out.extend_from_slice(body);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::BufReader;

    fn parse(raw: &[u8]) -> RequestOutcome {
        read_request(&mut BufReader::new(raw)).expect("no transport error")
    }

    #[test]
    fn get_and_post_parse_with_keep_alive_defaults() {
        let out = parse(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        let RequestOutcome::Request(req) = out else {
            panic!("{out:?}");
        };
        assert_eq!(req.method, "GET");
        assert_eq!(req.target, "/healthz");
        assert!(req.keep_alive);
        assert!(req.body.is_empty());

        let out = parse(b"POST /predict HTTP/1.0\r\nContent-Length: 4\r\n\r\n0x60");
        let RequestOutcome::Request(req) = out else {
            panic!("{out:?}");
        };
        assert_eq!(req.body, b"0x60");
        assert!(!req.keep_alive, "HTTP/1.0 defaults to close");

        let out = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
        let RequestOutcome::Request(req) = out else {
            panic!("{out:?}");
        };
        assert!(!req.keep_alive);
    }

    #[test]
    fn pipelined_requests_parse_in_sequence() {
        let raw: &[u8] =
            b"POST /predict HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiGET /metrics HTTP/1.1\r\n\r\n";
        let mut reader = BufReader::new(raw);
        let RequestOutcome::Request(first) = read_request(&mut reader).expect("io") else {
            panic!("first");
        };
        assert_eq!(first.body, b"hi");
        let RequestOutcome::Request(second) = read_request(&mut reader).expect("io") else {
            panic!("second");
        };
        assert_eq!(second.target, "/metrics");
        assert_eq!(read_request(&mut reader).expect("io"), RequestOutcome::Eof);
    }

    #[test]
    fn malformed_request_lines_reject_400() {
        for raw in [
            &b"NONSENSE\r\n\r\n"[..],
            b"GET/predict HTTP/1.1\r\n\r\n",
            b"GET predict HTTP/1.1\r\n\r\n", // target must start with /
            b"GET /x HTTP/1.1 extra\r\n\r\n",
        ] {
            match parse(raw) {
                RequestOutcome::Reject { status: 400, .. } => {}
                other => panic!("{raw:?} -> {other:?}"),
            }
        }
        match parse(b"GET /x SPDY/3\r\n\r\n") {
            RequestOutcome::Reject { status: 505, .. } => {}
            other => panic!("{other:?}"),
        }
        // A field name is a token: no colon, whitespace before the colon,
        // or a line that starts with whitespace (an obsolete line folding)
        // all reject, even when the line would carry a Content-Length.
        for raw in [
            &b"GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n"[..],
            b"POST /p HTTP/1.1\r\nContent-Length : 2\r\n\r\nhi",
            b"POST /p HTTP/1.1\r\nHost: x\r\n Content-Length: 2\r\n\r\nhi",
            b"POST /p HTTP/1.1\r\n\tContent-Length: 2\r\n\r\nhi",
        ] {
            match parse(raw) {
                RequestOutcome::Reject {
                    status: 400,
                    detail,
                } => {
                    assert!(detail.starts_with("malformed header line"), "{detail}");
                }
                other => panic!("{raw:?} -> {other:?}"),
            }
        }
    }

    #[test]
    fn content_length_edge_cases() {
        // Missing on POST.
        match parse(b"POST /predict HTTP/1.1\r\n\r\n") {
            RequestOutcome::Reject { status: 411, .. } => {}
            other => panic!("{other:?}"),
        }
        // Unparsable, or signed: a length is digits only.
        for raw in [
            &b"POST /p HTTP/1.1\r\nContent-Length: banana\r\n\r\n"[..],
            b"POST /p HTTP/1.1\r\nContent-Length: +2\r\n\r\nhi",
            b"POST /p HTTP/1.1\r\nContent-Length: -0\r\n\r\n",
        ] {
            match parse(raw) {
                RequestOutcome::Reject {
                    status: 400,
                    detail,
                } => {
                    assert!(detail.starts_with("invalid Content-Length"), "{detail}");
                }
                other => panic!("{raw:?} -> {other:?}"),
            }
        }
        // Conflicting duplicates.
        match parse(b"POST /p HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n") {
            RequestOutcome::Reject { status: 400, .. } => {}
            other => panic!("{other:?}"),
        }
        // Over the cap: rejected from the header alone, no body read.
        let huge = format!(
            "POST /p HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        match parse(huge.as_bytes()) {
            RequestOutcome::Reject {
                status: 413,
                detail,
            } => {
                assert!(detail.contains("byte limit"), "{detail}");
            }
            other => panic!("{other:?}"),
        }
        // Exactly at the cap is fine.
        let mut raw =
            format!("POST /p HTTP/1.1\r\nContent-Length: {MAX_BODY_BYTES}\r\n\r\n").into_bytes();
        raw.extend(vec![b'a'; MAX_BODY_BYTES]);
        match parse(&raw) {
            RequestOutcome::Request(req) => assert_eq!(req.body.len(), MAX_BODY_BYTES),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unsupported_framings_reject_typed() {
        match parse(b"POST /p HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n") {
            RequestOutcome::Reject { status: 501, .. } => {}
            other => panic!("{other:?}"),
        }
        match parse(b"POST /p HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\nhi") {
            RequestOutcome::Reject { status: 417, .. } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn oversized_head_lines_reject_431() {
        let long_target = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_HEADER_LINE));
        match parse(long_target.as_bytes()) {
            RequestOutcome::Reject { status: 431, .. } => {}
            other => panic!("{other:?}"),
        }
        let long_header = format!(
            "GET /x HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "b".repeat(MAX_HEADER_LINE)
        );
        match parse(long_header.as_bytes()) {
            RequestOutcome::Reject { status: 431, .. } => {}
            other => panic!("{other:?}"),
        }
        let many_headers = format!(
            "GET /x HTTP/1.1\r\n{}\r\n",
            "X-N: 1\r\n".repeat(MAX_HEADER_COUNT + 1)
        );
        match parse(many_headers.as_bytes()) {
            RequestOutcome::Reject { status: 431, .. } => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn abrupt_disconnects_are_typed_not_errors() {
        // Mid request line, mid headers, mid body: all Disconnected.
        for raw in [
            &b"GET /heal"[..],
            b"GET /x HTTP/1.1\r\nHost: x",
            b"GET /x HTTP/1.1\r\nHost: x\r\n",
            b"POST /p HTTP/1.1\r\nContent-Length: 10\r\n\r\nonly5",
        ] {
            assert_eq!(parse(raw), RequestOutcome::Disconnected, "{raw:?}");
        }
        // A clean EOF at the boundary is Eof, not Disconnected.
        assert_eq!(parse(b""), RequestOutcome::Eof);
    }

    #[test]
    fn responses_are_content_length_framed() {
        let mut out = Vec::new();
        write_response(
            &mut out,
            ResponseHead {
                status: 503,
                content_type: "application/json",
                retry_after: Some(1),
                keep_alive: false,
            },
            b"{\"error\":\"overloaded\"}",
        );
        let text = String::from_utf8(out).expect("utf8");
        assert!(
            text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"),
            "{text}"
        );
        assert!(text.contains("Content-Length: 22\r\n"), "{text}");
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");
        assert!(
            text.contains("Connection: close\r\n\r\n{\"error\""),
            "{text}"
        );

        let mut ok = Vec::new();
        write_response(
            &mut ok,
            ResponseHead {
                status: 200,
                content_type: "text/plain; version=0.0.4",
                retry_after: None,
                keep_alive: true,
            },
            b"x 1\n",
        );
        let text = String::from_utf8(ok).expect("utf8");
        assert!(
            text.contains("Connection: keep-alive\r\n\r\nx 1\n"),
            "{text}"
        );
        assert!(!text.contains("Retry-After"), "{text}");
    }

    proptest! {
        #[test]
        fn arbitrary_bytes_never_panic_the_parser(
            bytes in proptest::collection::vec(any::<u8>(), 0..768),
        ) {
            // Whatever a client throws at the socket, the parser answers
            // with an outcome or an I/O error — never a panic, never an
            // unbounded loop (the cap mirrors a keep-alive session).
            let mut reader = BufReader::new(&bytes[..]);
            for _ in 0..4 {
                match read_request(&mut reader) {
                    Ok(RequestOutcome::Request(_)) => {}
                    _ => break,
                }
            }
        }

        #[test]
        fn any_split_of_a_pipelined_stream_frames_like_read_request(
            picks in proptest::collection::vec(0usize..7, 1..5),
            cut_short in any::<bool>(),
            cut_at in any::<usize>(),
            one_byte in any::<bool>(),
            sizes in proptest::collection::vec(1usize..48, 1..8),
        ) {
            // 1-4 requests, valid, rejected or oversized, back to back, and
            // maybe cut short at any byte.
            let samples = [
                b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n".to_vec(),
                b"POST /predict HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello".to_vec(),
                b"POST /predict HTTP/1.0\nContent-Length: 2\n\nhi".to_vec(),
                b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\n".to_vec(),
                b"POST /p HTTP/1.1\r\nContent-Length: +2\r\n\r\nhi".to_vec(),
                b"POST /p HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec(),
                format!("GET /x HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "b".repeat(MAX_HEADER_LINE))
                    .into_bytes(),
            ];
            let mut stream: Vec<u8> = picks.iter().flat_map(|&i| samples[i].clone()).collect();
            if cut_short {
                stream.truncate(cut_at % (stream.len() + 1));
            }

            // The reference: `read_request` over the whole buffer, until the
            // first outcome that ends the connection.
            let mut reader = &stream[..];
            let mut expected = Vec::new();
            loop {
                let outcome = read_request(&mut reader).expect("a slice never fails to read");
                let more = matches!(outcome, RequestOutcome::Request(_));
                expected.push(outcome);
                if !more {
                    break;
                }
            }

            // The framer, fed the same bytes in 1-byte or random chunks.
            let mut framer = RequestFramer::default();
            let mut framed = Vec::new();
            let mut rest = &stream[..];
            let mut open = true;
            for size in sizes.iter().cycle() {
                if !open || rest.is_empty() {
                    break;
                }
                let (chunk, tail) = rest.split_at(if one_byte { 1 } else { *size }.min(rest.len()));
                rest = tail;
                open = framer.push(chunk, |outcome| {
                    framed.push(outcome);
                    true
                });
            }
            if open {
                framed.push(framer.finish());
            }
            prop_assert_eq!(framed, expected);
        }

        #[test]
        fn truncated_requests_never_panic(cut in 0usize..64) {
            // A client that disconnects mid-request (any prefix of a valid
            // exchange) must yield Eof/Disconnected/Reject — not a panic.
            let raw: &[u8] = b"POST /predict HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
            let cut = cut % (raw.len() + 1);
            let mut reader = BufReader::new(&raw[..cut]);
            let _ = read_request(&mut reader);
        }
    }
}
