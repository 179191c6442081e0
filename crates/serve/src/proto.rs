//! The serve daemon's wire protocols (moved here from `phishinghook-cli`
//! when serving grew its own crate).
//!
//! # Protocol v2 (default): versioned JSONL
//!
//! One JSON object per line in each direction, hand-rolled (this workspace
//! is dependency-free by policy — see the README's dependency section).
//!
//! **Requests** are either a JSON object or, for convenience, a bare hex
//! line (the id then defaults to the 0-based request sequence number).
//! The object form carries *either* raw `bytecode` *or* a 20-byte
//! `address` the daemon resolves through its attached chain source
//! (`eth_getCode`) — the shared [`Target`](phishinghook_models::Target)
//! shape every request surface speaks:
//!
//! ```text
//! {"id":"tx-9","bytecode":"0x6080604052"}
//! {"id":"tx-10","address":"0xd8dA6BF26964aF9D7eEd9e03E53415D37aA96045"}
//! {"proto":"2","id":"tx-11","bytecode":"0x6080"}
//! 6080604052
//! stats
//! ```
//!
//! The optional `proto` request field lets clients pin the version they
//! speak; any value other than `2` is answered with a typed
//! `unsupported proto version` error. The literal line `stats` (see
//! [`STATS_COMMAND`]) is a command, not a bytecode: it returns the daemon's
//! scheduler/cache counters. Responses to address-form requests
//! additionally echo the resolved `"address"` — an additive field;
//! bytecode-request framing is byte-for-byte unchanged.
//!
//! **Responses** echo the id and carry the combined verdict plus one
//! `per_model` entry per underlying model — the field that makes ensembles
//! observable over the wire:
//!
//! ```text
//! {"proto":2,"id":"tx-9","verdict":"phishing","proba":0.934211,"model_version":"hsc-ensemble/v1","per_model":[{"name":"Random Forest","proba":0.941023},{"name":"LightGBM","proba":0.927399}]}
//! {"proto":2,"id":"4","error":"not valid hex bytecode"}
//! {"proto":2,"id":"7","error":"server overloaded: the scheduler queue is full","code":"overloaded"}
//! ```
//!
//! `proto` is always the first field, so clients can dispatch on the
//! protocol version before touching anything else. Probabilities are
//! printed with six decimal places (same precision as protocol v1). The
//! overload response additionally carries `"code":"overloaded"` so clients
//! can distinguish *retry later* from *your request is malformed*.
//!
//! # Protocol v1 (`--proto v1`): bare lines
//!
//! The original ad-hoc framing, kept verbatim for old clients: hex in,
//! `verdict\tproba` out, `error\t…` for malformed lines. Two typed
//! additions ride along without disturbing old parsers: overload is
//! signalled by an `ERR\toverloaded: …` line and the `stats` command
//! answers with a single `stats\tkey=value\t…` line.
//!
//! # Hardening invariants
//!
//! Decoding adversarial input never panics and never disconnects:
//!
//! * request lines longer than [`MAX_LINE_BYTES`] are refused with a typed
//!   error before any parsing — on the stdin and TCP transports already
//!   while reading, by the one capped line framer both of them share;
//! * malformed JSON, nested values, unknown fields and unknown `proto`
//!   versions all produce descriptive per-line error responses;
//! * blank lines are ignored (no response, no sequence number);
//! * interleaved framings degrade gracefully — a JSON object sent to a v1
//!   session is merely invalid hex, a bare hex line sent to a v2 session is
//!   the documented convenience form.

use crate::cache::CacheStats;
use crate::metrics::MetricsSnapshot;
use phishinghook_models::Verdict;
use std::fmt::Write as _;

/// Hard ceiling on one request line, pre-parse (1 MiB). Real deployed
/// bytecode tops out below 24 KiB hex (EIP-170: 24,576 bytes of code), so
/// the ceiling is generous for legitimate traffic while bounding what one
/// line can make the daemon buffer or hash.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// The line-protocol command (both framings) answering with scheduler and
/// cache counters instead of a verdict.
pub const STATS_COMMAND: &str = "stats";

/// Which framing a serving loop speaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Protocol {
    /// Bare `verdict\tproba` lines (legacy).
    V1,
    /// Versioned JSONL with ids and per-model probabilities.
    #[default]
    V2,
}

impl Protocol {
    /// Parses a `--proto` flag value (`"v1"` / `"1"` / `"v2"` / `"2"`).
    pub fn parse(s: &str) -> Option<Protocol> {
        match s.trim().to_ascii_lowercase().as_str() {
            "v1" | "1" => Some(Protocol::V1),
            "v2" | "2" => Some(Protocol::V2),
            _ => None,
        }
    }

    /// One verdict line (without trailing newline) in this framing: v1
    /// carries only the verdict and `proba` (see [`render_verdict_v2`]).
    pub fn render_verdict(
        self,
        id: &str,
        address: Option<&phishinghook_data::Address>,
        proba: f64,
        model_version: &str,
        names: &[String],
        probas: &[f64],
    ) -> String {
        let mut out = String::with_capacity(64);
        match self {
            Protocol::V1 => {
                let _ = write!(out, "{}\t{proba:.6}", Verdict::from_proba(proba));
            }
            Protocol::V2 => {
                render_verdict_v2(&mut out, id, address, proba, model_version, names, probas);
            }
        }
        out
    }

    /// The error line for a malformed or unresolvable request.
    pub fn render_error(self, id: &str, message: &str) -> String {
        self.render_refusal(id, message, None)
    }

    /// The typed overload line: the request's lane queue is full.
    pub fn render_overload(self, id: &str) -> String {
        self.render_refusal(id, OVERLOAD_DETAIL, Some("overloaded"))
    }

    /// The typed overload line that refuses a whole connection at accept:
    /// the listener already holds its `max_conns` connections.
    pub fn render_connection_refusal(self, id: &str) -> String {
        self.render_refusal(id, CONNECTION_LIMIT_DETAIL, Some("overloaded"))
    }

    /// The typed timeout line: the request expired in the queue and was
    /// answered without being scored (HTTP maps this to `504`).
    pub fn render_timeout(self, id: &str) -> String {
        self.render_refusal(id, TIMEOUT_DETAIL, Some("timeout"))
    }

    /// The typed internal-error line: a worker panicked while scoring the
    /// batch holding this request (HTTP maps this to `500`). The worker is
    /// respawned; the request may be retried.
    pub fn render_internal(self, id: &str) -> String {
        self.render_refusal(id, INTERNAL_DETAIL, Some("internal"))
    }

    /// An answer that is not a verdict. v2 is an error object, with a
    /// `"code"` when the refusal is typed, so clients can tell *retry
    /// later* apart from *malformed request*; v1 is `error\t…`, or
    /// `ERR\t<code>: …` for a typed refusal, which old parsers of
    /// `error\t…` lines never mistake for one.
    fn render_refusal(self, id: &str, detail: &str, code: Option<&str>) -> String {
        match (self, code) {
            (Protocol::V1, None) => format!("error\t{detail}"),
            (Protocol::V1, Some(code)) => format!("ERR\t{code}: {detail}"),
            (Protocol::V2, _) => {
                let mut out = String::from("{\"proto\":2,\"id\":");
                push_json_string(&mut out, id);
                out.push_str(",\"error\":");
                push_json_string(&mut out, detail);
                if let Some(code) = code {
                    let _ = write!(out, ",\"code\":\"{code}\"");
                }
                out.push('}');
                out
            }
        }
    }

    /// The `stats` command's answer. `quant_bins` is the widest
    /// per-feature bin count of the served model's quantized mirrors
    /// (`None` when every model scores through its arena or is not a tree
    /// model): v2 reports it under `engine`, v1 at the end of the line.
    pub fn render_stats(self, stats: &MetricsSnapshot, quant_bins: Option<usize>) -> String {
        let mut out = String::new();
        match self {
            Protocol::V1 => render_stats_v1(&mut out, stats, quant_bins),
            Protocol::V2 => render_stats_v2(&mut out, stats, quant_bins),
        }
        out
    }
}

/// Pre-parse admission check: refuses lines longer than [`MAX_LINE_BYTES`].
///
/// # Errors
/// The typed error message to send back on the matching response line.
pub fn check_line_len(line: &str) -> Result<(), String> {
    if line.len() > MAX_LINE_BYTES {
        return Err(oversized_line_message(line.len()));
    }
    Ok(())
}

/// The typed error for a request line of `line_bytes` bytes, past
/// [`MAX_LINE_BYTES`].
pub(crate) fn oversized_line_message(line_bytes: usize) -> String {
    format!("request line of {line_bytes} bytes exceeds the {MAX_LINE_BYTES} byte limit")
}

/// One request line cut by a [`LineFramer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Framed<'a> {
    /// A line of at most [`MAX_LINE_BYTES`] bytes, without its newline.
    Line(&'a [u8]),
    /// A longer line, by its true byte length; its bytes were discarded.
    Oversized(usize),
}

/// Cuts a request byte stream into lines under the [`MAX_LINE_BYTES`] cap,
/// for the stdin and TCP transports alike: it buffers at most
/// `MAX_LINE_BYTES` bytes of a line, discards an oversized line's bytes up
/// to the next newline while still counting them, and lets EOF
/// ([`LineFramer::finish`]) end a non-empty last line.
#[derive(Debug, Default)]
pub(crate) struct LineFramer {
    /// The current line's bytes, while it still fits the cap.
    buf: Vec<u8>,
    /// The current line's true length, counted past the cap.
    len: usize,
}

impl LineFramer {
    /// Feeds the next bytes of the stream, handing each line they complete
    /// to `emit` in order. Stops at the first `false` from `emit` (the
    /// consumer is gone) and returns `false`, dropping the rest of `chunk`.
    pub(crate) fn push(
        &mut self,
        mut chunk: &[u8],
        mut emit: impl FnMut(Framed<'_>) -> bool,
    ) -> bool {
        while let Some(pos) = chunk.iter().position(|&b| b == b'\n') {
            let (line, rest) = chunk.split_at(pos);
            chunk = &rest[1..];
            if !self.end_line(line, &mut emit) {
                return false;
            }
        }
        self.len += chunk.len();
        let room = MAX_LINE_BYTES.saturating_sub(self.buf.len());
        self.buf.extend_from_slice(&chunk[..chunk.len().min(room)]);
        true
    }

    /// Ends the stream: a non-empty unterminated last line still counts.
    /// Returns what `emit` returned, or `true` when there was no such line.
    pub(crate) fn finish(&mut self, mut emit: impl FnMut(Framed<'_>) -> bool) -> bool {
        self.len == 0 || self.end_line(&[], &mut emit)
    }

    /// Emits the current line, completed by `tail`, and starts a new one.
    fn end_line(&mut self, tail: &[u8], emit: &mut impl FnMut(Framed<'_>) -> bool) -> bool {
        let len = self.len + tail.len();
        let more = if len > MAX_LINE_BYTES {
            emit(Framed::Oversized(len))
        } else if self.buf.is_empty() {
            emit(Framed::Line(tail))
        } else {
            self.buf.extend_from_slice(tail);
            emit(Framed::Line(&self.buf))
        };
        self.buf.clear();
        self.len = 0;
        more
    }
}

/// The still-hex payload of one decoded request line: what the client sent
/// before any validation or resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WirePayload {
    /// Hex bytecode text (possibly `0x`-prefixed), not yet decoded.
    Bytecode(String),
    /// Hex account address text (possibly `0x`-prefixed), not yet decoded;
    /// resolves to bytecode through the daemon's chain source.
    Address(String),
}

/// One decoded request line: the caller-visible id plus the raw payload
/// still to be validated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireRequest {
    /// Echoed in the response (v2); v1 responses are purely positional.
    pub id: String,
    /// What the request asks to score.
    pub payload: WirePayload,
}

/// Decodes one v2 request line: a JSON object with `bytecode` *or*
/// `address` (exactly one required), `id` (optional, defaulting to
/// `fallback_id`) and `proto` (optional, must be version 2) — or a bare
/// hex line (bytecode).
///
/// # Errors
/// A human-readable message describing the malformed line (sent back to the
/// client as an error object; the daemon never disconnects on bad input).
pub fn parse_request_v2(line: &str, fallback_id: &str) -> Result<WireRequest, String> {
    check_line_len(line)?;
    let trimmed = line.trim();
    if !trimmed.starts_with('{') {
        // Bare hex convenience form.
        return Ok(WireRequest {
            id: fallback_id.to_owned(),
            payload: WirePayload::Bytecode(trimmed.to_owned()),
        });
    }
    let fields = parse_flat_object(trimmed)?;
    let mut id = None;
    let mut hex = None;
    let mut address = None;
    for (key, value) in fields {
        match key.as_str() {
            // Numeric ids (JSON-RPC style) are accepted and echoed as text.
            "id" => id = Some(value.text),
            "bytecode" => {
                if !value.quoted {
                    return Err("field `bytecode` must be a JSON string".to_owned());
                }
                hex = Some(value.text);
            }
            "address" => {
                if !value.quoted {
                    return Err("field `address` must be a JSON string".to_owned());
                }
                address = Some(value.text);
            }
            "proto" => {
                if !matches!(value.text.as_str(), "2" | "v2") {
                    return Err(format!(
                        "unsupported proto version `{}` (this endpoint speaks v2)",
                        value.text
                    ));
                }
            }
            other => return Err(format!("unknown request field `{other}`")),
        }
    }
    let payload = match (hex, address) {
        (Some(_), Some(_)) => {
            return Err(
                "request carries both `bytecode` and `address`; send exactly one".to_owned(),
            )
        }
        (Some(hex), None) => WirePayload::Bytecode(hex),
        (None, Some(addr)) => WirePayload::Address(addr),
        (None, None) => return Err("request object is missing `bytecode` or `address`".to_owned()),
    };
    Ok(WireRequest {
        id: id.unwrap_or_else(|| fallback_id.to_owned()),
        payload,
    })
}

/// Decodes a hex account address (`0x`-optional, exactly 40 hex digits)
/// into its 20 bytes.
///
/// # Errors
/// The typed per-line error message.
pub fn parse_address(text: &str) -> Result<phishinghook_data::Address, String> {
    let bytes = phishinghook_evm::keccak::from_hex(text.trim())
        .ok_or_else(|| "not a valid hex address".to_owned())?;
    let address: phishinghook_data::Address = bytes
        .try_into()
        .map_err(|_| "address must be exactly 20 bytes of hex".to_owned())?;
    Ok(address)
}

/// Renders an address as the `0x`-prefixed lowercase hex the wire speaks.
pub fn format_address(address: &phishinghook_data::Address) -> String {
    format!("0x{}", phishinghook_evm::keccak::to_hex(address))
}

/// Renders one v2 verdict line (without trailing newline) from scoring
/// results: the shared shape behind both the cold path and the cache-hit
/// path (`names` and `probas` must have equal length). `address` — set for
/// address-form requests — is echoed as an additive field right after the
/// id; bytecode-request responses are rendered byte-for-byte as before.
pub fn render_verdict_v2(
    out: &mut String,
    id: &str,
    address: Option<&phishinghook_data::Address>,
    proba: f64,
    model_version: &str,
    names: &[String],
    probas: &[f64],
) {
    debug_assert_eq!(names.len(), probas.len());
    out.push_str("{\"proto\":2,\"id\":");
    push_json_string(out, id);
    if let Some(address) = address {
        out.push_str(",\"address\":");
        push_json_string(out, &format_address(address));
    }
    let _ = write!(
        out,
        ",\"verdict\":\"{}\",\"proba\":{proba:.6},\"model_version\":",
        Verdict::from_proba(proba)
    );
    push_json_string(out, model_version);
    out.push_str(",\"per_model\":[");
    for (i, (name, p)) in names.iter().zip(probas).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        push_json_string(out, name);
        let _ = write!(out, ",\"proba\":{p:.6}}}");
    }
    out.push_str("]}");
}

/// The human-readable overload detail shared by both framings.
const OVERLOAD_DETAIL: &str = "server overloaded: the scheduler queue is full";

/// The human-readable connection-refusal detail shared by both framings
/// and the HTTP gateway's `503` at accept.
pub(crate) const CONNECTION_LIMIT_DETAIL: &str = "overloaded: connection limit reached";

/// The human-readable deadline-exceeded detail shared by both framings.
const TIMEOUT_DETAIL: &str = "deadline exceeded before the request was scored";

/// The human-readable worker-failure detail shared by both framings.
const INTERNAL_DETAIL: &str = "internal error: the scoring worker failed on this batch";

/// Renders the v2 `stats` command response (without trailing newline).
fn render_stats_v2(out: &mut String, stats: &MetricsSnapshot, quant_bins: Option<usize>) {
    let s = &stats.scheduler;
    let _ = write!(
        out,
        "{{\"proto\":2,\"stats\":{{\"scheduler\":{{\"submitted\":{},\"scored\":{},\"errors\":{},\"overloads\":{},\"batches\":{},\"connections\":{},\"queue_depth\":{}}},\"cache\":",
        s.submitted, s.scored, s.errors, s.overloads, s.batches, s.connections, s.queue_depth
    );
    match &stats.cache {
        Some(c) => render_cache_stats_json(out, c),
        None => out.push_str("null"),
    }
    out.push_str(",\"engine\":{\"quant_bins\":");
    match quant_bins {
        Some(bins) => {
            let _ = write!(out, "{bins}");
        }
        None => out.push_str("null"),
    }
    out.push_str("}}}");
}

fn render_cache_stats_json(out: &mut String, c: &CacheStats) {
    let _ = write!(
        out,
        "{{\"hits\":{},\"misses\":{},\"evictions\":{},\"insertions\":{},\"entries\":{},\"bytes\":{},\"capacity_bytes\":{},\"hit_rate\":{:.6}}}",
        c.hits, c.misses, c.evictions, c.insertions, c.entries, c.bytes, c.capacity_bytes,
        c.hit_rate()
    );
}

/// Renders the v1 `stats` command response: one `stats\tkey=value\t…` line.
/// The engine field (`quant_bins`, 0 for the arena) rides at the end so
/// older clients that read a fixed prefix keep parsing.
fn render_stats_v1(out: &mut String, stats: &MetricsSnapshot, quant_bins: Option<usize>) {
    let s = &stats.scheduler;
    let c = stats.cache.unwrap_or_default();
    let _ = write!(
        out,
        "stats\thits={}\tmisses={}\tevictions={}\tentries={}\tsubmitted={}\tscored={}\terrors={}\toverloads={}\tbatches={}\tquant_bins={}",
        c.hits,
        c.misses,
        c.evictions,
        c.entries,
        s.submitted,
        s.scored,
        s.errors,
        s.overloads,
        s.batches,
        quant_bins.unwrap_or(0),
    );
}

/// Appends `s` as a JSON string literal (quoted, escaped).
pub(crate) fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// One flat JSON value: its text plus whether it arrived as a quoted
/// string (scalars like `2`, `true`, `null` keep their literal spelling).
#[derive(Debug, Clone, PartialEq, Eq)]
struct JsonValue {
    text: String,
    quoted: bool,
}

/// Parses a flat JSON object whose values are strings or bare scalars —
/// `{"key":"value","proto":2, …}` — which is everything a v2 *request* may
/// carry. Nested objects/arrays are rejected with a descriptive message.
fn parse_flat_object(text: &str) -> Result<Vec<(String, JsonValue)>, String> {
    let mut chars = text.chars().peekable();
    let mut fields = Vec::new();

    skip_ws(&mut chars);
    if chars.next() != Some('{') {
        return Err("request is not a JSON object".to_owned());
    }
    skip_ws(&mut chars);
    if chars.peek() == Some(&'}') {
        chars.next();
    } else {
        loop {
            skip_ws(&mut chars);
            let key = parse_string(&mut chars)?;
            skip_ws(&mut chars);
            if chars.next() != Some(':') {
                return Err(format!("expected `:` after key `{key}`"));
            }
            skip_ws(&mut chars);
            let value = parse_value(&mut chars).map_err(|e| format!("field `{key}`: {e}"))?;
            fields.push((key, value));
            skip_ws(&mut chars);
            match chars.next() {
                Some(',') => continue,
                Some('}') => break,
                _ => return Err("expected `,` or `}` in request object".to_owned()),
            }
        }
    }
    skip_ws(&mut chars);
    if chars.next().is_some() {
        return Err("trailing characters after request object".to_owned());
    }
    Ok(fields)
}

fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) {
    while chars.peek().is_some_and(|c| c.is_ascii_whitespace()) {
        chars.next();
    }
}

/// Parses one flat JSON value: a string literal or a bare scalar (number,
/// `true`, `false`, `null`). Nested containers are rejected.
fn parse_value(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Result<JsonValue, String> {
    match chars.peek() {
        Some('"') => Ok(JsonValue {
            text: parse_string(chars)?,
            quoted: true,
        }),
        Some('{') | Some('[') => {
            Err("nested objects/arrays are not accepted in requests".to_owned())
        }
        Some(c) if c.is_ascii_digit() || matches!(c, '-' | 't' | 'f' | 'n') => {
            let mut text = String::new();
            while chars
                .peek()
                .is_some_and(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '+' | '.'))
            {
                text.push(chars.next().expect("peeked"));
            }
            Ok(JsonValue {
                text,
                quoted: false,
            })
        }
        _ => Err("expected a JSON string or scalar value".to_owned()),
    }
}

/// Parses one JSON string literal, cursor positioned at the opening quote.
fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Result<String, String> {
    if chars.next() != Some('"') {
        return Err("expected a JSON string".to_owned());
    }
    let mut out = String::new();
    loop {
        match chars.next() {
            None => return Err("unterminated string".to_owned()),
            Some('"') => return Ok(out),
            Some('\\') => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('/') => out.push('/'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some('b') => out.push('\u{0008}'),
                Some('f') => out.push('\u{000C}'),
                Some('u') => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        let d = chars
                            .next()
                            .and_then(|c| c.to_digit(16))
                            .ok_or("bad \\u escape")?;
                        code = code * 16 + d;
                    }
                    // Surrogates and other invalid scalars degrade to U+FFFD
                    // rather than failing the whole request.
                    out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                }
                _ => return Err("unknown escape sequence".to_owned()),
            },
            Some(c) => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::SchedulerStats;
    use proptest::prelude::*;

    #[test]
    fn protocol_flag_parses() {
        assert_eq!(Protocol::parse("v1"), Some(Protocol::V1));
        assert_eq!(Protocol::parse("2"), Some(Protocol::V2));
        assert_eq!(Protocol::parse("V2"), Some(Protocol::V2));
        assert_eq!(Protocol::parse("v3"), None);
        assert_eq!(Protocol::default(), Protocol::V2);
    }

    fn hex_of(req: &WireRequest) -> &str {
        match &req.payload {
            WirePayload::Bytecode(hex) => hex,
            WirePayload::Address(_) => panic!("expected bytecode payload: {req:?}"),
        }
    }

    #[test]
    fn bare_hex_requests_get_the_fallback_id() {
        let req = parse_request_v2("  0x6080  ", "7").expect("parses");
        assert_eq!(req.id, "7");
        assert_eq!(hex_of(&req), "0x6080");
    }

    #[test]
    fn json_requests_carry_their_own_id() {
        let req = parse_request_v2(r#"{"id":"tx-1","bytecode":"0x60"}"#, "0").expect("parses");
        assert_eq!(req.id, "tx-1");
        assert_eq!(hex_of(&req), "0x60");
        // Field order and whitespace don't matter; id is optional.
        let req = parse_request_v2(r#" { "bytecode" : "60" } "#, "fallback").expect("parses");
        assert_eq!(req.id, "fallback");
        assert_eq!(hex_of(&req), "60");
        // JSON-RPC-style numeric ids are accepted and echoed as text.
        let req = parse_request_v2(r#"{"id":41,"bytecode":"60"}"#, "0").expect("parses");
        assert_eq!(req.id, "41");
    }

    #[test]
    fn address_requests_parse_and_decode() {
        let line = r#"{"id":"a-1","address":"0x0101010101010101010101010101010101010101"}"#;
        let req = parse_request_v2(line, "0").expect("parses");
        assert_eq!(req.id, "a-1");
        let WirePayload::Address(hex) = &req.payload else {
            panic!("expected address payload: {req:?}");
        };
        assert_eq!(parse_address(hex), Ok([1u8; 20]));
        assert_eq!(format_address(&[1u8; 20]), format!("0x{}", "01".repeat(20)));

        // Address validation is strict about length and hex-ness.
        assert!(parse_address("0x01").unwrap_err().contains("20 bytes"));
        assert!(parse_address("zz").unwrap_err().contains("hex"));

        // Exactly one of bytecode/address, as a string.
        assert!(
            parse_request_v2(r#"{"bytecode":"60","address":"0x01"}"#, "0")
                .unwrap_err()
                .contains("exactly one")
        );
        assert!(parse_request_v2(r#"{"address":42}"#, "0")
            .unwrap_err()
            .contains("must be a JSON string"));
    }

    #[test]
    fn request_proto_field_is_validated() {
        assert!(parse_request_v2(r#"{"proto":2,"bytecode":"60"}"#, "0").is_ok());
        assert!(parse_request_v2(r#"{"proto":"2","bytecode":"60"}"#, "0").is_ok());
        assert!(parse_request_v2(r#"{"proto":"v2","bytecode":"60"}"#, "0").is_ok());
        for bad in [
            r#"{"proto":1,"bytecode":"60"}"#,
            r#"{"proto":"v1","bytecode":"60"}"#,
            r#"{"proto":3,"bytecode":"60"}"#,
            r#"{"proto":null,"bytecode":"60"}"#,
        ] {
            let err = parse_request_v2(bad, "0").unwrap_err();
            assert!(err.contains("unsupported proto version"), "{bad}: {err}");
        }
    }

    #[test]
    fn malformed_json_requests_are_descriptive_errors() {
        assert!(parse_request_v2(r#"{"bytecode":}"#, "0").is_err());
        assert!(parse_request_v2(r#"{"id":"x"}"#, "0")
            .unwrap_err()
            .contains("missing `bytecode`"));
        assert!(parse_request_v2(r#"{"surprise":"y","bytecode":"60"}"#, "0")
            .unwrap_err()
            .contains("unknown request field"));
        assert!(parse_request_v2(r#"{"bytecode":42}"#, "0")
            .unwrap_err()
            .contains("must be a JSON string"));
        assert!(parse_request_v2(r#"{"bytecode":{"hex":"60"}}"#, "0")
            .unwrap_err()
            .contains("nested"));
        assert!(parse_request_v2(r#"{"bytecode":["60"]}"#, "0")
            .unwrap_err()
            .contains("nested"));
        assert!(parse_request_v2(r#"{"bytecode":"60"} extra"#, "0")
            .unwrap_err()
            .contains("trailing"));
        assert!(parse_request_v2(r#"{"bytecode":"60""#, "0").is_err());
        assert!(parse_request_v2("{", "0").is_err());
        assert!(parse_request_v2(r#"{"a"}"#, "0").is_err());
    }

    #[test]
    fn oversized_lines_are_refused_before_parsing() {
        let line = "6".repeat(MAX_LINE_BYTES + 2);
        let err = parse_request_v2(&line, "0").unwrap_err();
        assert!(err.contains("byte limit"), "{err}");
        assert!(check_line_len(&line).is_err());
        assert!(check_line_len(&"6".repeat(MAX_LINE_BYTES)).is_ok());
        assert_eq!(err, oversized_line_message(MAX_LINE_BYTES + 2));
    }

    /// Frames `input` fed in `chunk`-byte pieces: `Ok(line)` per line,
    /// `Err(true length)` per oversized line.
    fn frame_in_chunks(input: &[u8], chunk: usize) -> Vec<Result<Vec<u8>, usize>> {
        let mut framer = LineFramer::default();
        let mut out = Vec::new();
        let mut collect = |framed: Framed<'_>| {
            out.push(match framed {
                Framed::Line(line) => Ok(line.to_vec()),
                Framed::Oversized(len) => Err(len),
            });
            true
        };
        for piece in input.chunks(chunk) {
            assert!(framer.push(piece, &mut collect));
        }
        assert!(framer.finish(&mut collect));
        out
    }

    #[test]
    fn line_framer_output_does_not_depend_on_chunking() {
        let exact = vec![b'6'; MAX_LINE_BYTES];
        let one_over = vec![b'0'; MAX_LINE_BYTES + 1];
        let multi_mib = vec![b'f'; 3 * MAX_LINE_BYTES + 5];
        let mut input = b"\n".to_vec();
        for line in [&exact, &one_over, &multi_mib] {
            input.extend_from_slice(line);
            input.push(b'\n');
        }
        input.extend_from_slice(b"6080604052");
        let expected = vec![
            Ok(Vec::new()),
            Ok(exact),
            Err(MAX_LINE_BYTES + 1),
            Err(3 * MAX_LINE_BYTES + 5),
            Ok(b"6080604052".to_vec()),
        ];
        for chunk in [input.len(), 1, 7, 4096] {
            assert!(
                frame_in_chunks(&input, chunk) == expected,
                "chunks of {chunk} bytes"
            );
        }

        // The first `false` from `emit` stops the push mid-chunk.
        let mut framer = LineFramer::default();
        let mut seen = 0;
        let more = framer.push(b"a\nb\nc\n", |_| {
            seen += 1;
            seen < 2
        });
        assert!(!more);
        assert_eq!(seen, 2);
    }

    #[test]
    fn string_escapes_round_trip() {
        let req = parse_request_v2(r#"{"id":"a\"b\\c\ndA","bytecode":"60"}"#, "0").expect("parses");
        assert_eq!(req.id, "a\"b\\c\ndA");
        let line = Protocol::V2.render_error(&req.id, "nope");
        assert_eq!(line, r#"{"proto":2,"id":"a\"b\\c\ndA","error":"nope"}"#);
        assert_eq!(Protocol::V1.render_error(&req.id, "nope"), "error\tnope");
    }

    #[test]
    fn verdict_rendering_is_stable() {
        let mut line = String::new();
        render_verdict_v2(
            &mut line,
            "tx-9",
            None,
            0.75,
            "hsc-ensemble/v1",
            &["Random Forest".to_owned(), "LightGBM".to_owned()],
            &[0.8, 0.7],
        );
        assert_eq!(
            line,
            "{\"proto\":2,\"id\":\"tx-9\",\"verdict\":\"phishing\",\"proba\":0.750000,\
             \"model_version\":\"hsc-ensemble/v1\",\"per_model\":[\
             {\"name\":\"Random Forest\",\"proba\":0.800000},\
             {\"name\":\"LightGBM\",\"proba\":0.700000}]}"
        );
        assert!(line.starts_with("{\"proto\":2,"));
        let names = ["Random Forest".to_owned(), "LightGBM".to_owned()];
        let v2 =
            Protocol::V2.render_verdict("tx-9", None, 0.75, "hsc-ensemble/v1", &names, &[0.8, 0.7]);
        assert_eq!(v2, line);
        let v1 =
            Protocol::V1.render_verdict("tx-9", None, 0.25, "hsc-ensemble/v1", &names, &[0.8, 0.7]);
        assert_eq!(v1, "benign\t0.250000");
    }

    #[test]
    fn address_echo_is_additive_and_after_the_id() {
        // Same scoring results, with and without the echoed address: the
        // address form only *inserts* one field right after the id —
        // bytecode-request framing is untouched.
        let names = ["Random Forest".to_owned()];
        let mut bare = String::new();
        render_verdict_v2(
            &mut bare,
            "tx-9",
            None,
            0.75,
            "hsc-detector/v1",
            &names,
            &[0.75],
        );
        let mut echoed = String::new();
        render_verdict_v2(
            &mut echoed,
            "tx-9",
            Some(&[0xAB; 20]),
            0.75,
            "hsc-detector/v1",
            &names,
            &[0.75],
        );
        let inserted = format!(",\"address\":\"0x{}\"", "ab".repeat(20));
        let expected = bare.replacen("\"id\":\"tx-9\"", &format!("\"id\":\"tx-9\"{inserted}"), 1);
        assert_eq!(echoed, expected);
    }

    #[test]
    fn overload_rendering_is_typed_in_both_framings() {
        let v2 = Protocol::V2.render_overload("9");
        assert_eq!(
            v2,
            "{\"proto\":2,\"id\":\"9\",\"error\":\"server overloaded: the scheduler queue is full\",\"code\":\"overloaded\"}"
        );
        let v1 = Protocol::V1.render_overload("9");
        assert_eq!(
            v1,
            "ERR\toverloaded: server overloaded: the scheduler queue is full"
        );
    }

    #[test]
    fn connection_refusal_rendering_names_the_limit_in_both_framings() {
        let v2 = Protocol::V2.render_connection_refusal("connect");
        assert_eq!(
            v2,
            "{\"proto\":2,\"id\":\"connect\",\"error\":\"overloaded: connection limit reached\",\"code\":\"overloaded\"}"
        );
        let v1 = Protocol::V1.render_connection_refusal("connect");
        assert_eq!(v1, "ERR\toverloaded: overloaded: connection limit reached");
    }

    #[test]
    fn timeout_and_internal_rendering_is_typed_in_both_framings() {
        let v2 = Protocol::V2.render_timeout("late-1");
        assert_eq!(
            v2,
            "{\"proto\":2,\"id\":\"late-1\",\"error\":\"deadline exceeded before the request was scored\",\"code\":\"timeout\"}"
        );
        let v1 = Protocol::V1.render_timeout("late-1");
        assert_eq!(
            v1,
            "ERR\ttimeout: deadline exceeded before the request was scored"
        );

        let v2 = Protocol::V2.render_internal("boom");
        assert_eq!(
            v2,
            "{\"proto\":2,\"id\":\"boom\",\"error\":\"internal error: the scoring worker failed on this batch\",\"code\":\"internal\"}"
        );
        assert!(v2.contains(INTERNAL_DETAIL), "{v2}");
        let v1 = Protocol::V1.render_internal("boom");
        assert_eq!(
            v1,
            "ERR\tinternal: internal error: the scoring worker failed on this batch"
        );
    }

    #[test]
    fn stats_rendering_covers_both_framings() {
        let snapshot = MetricsSnapshot {
            scheduler: SchedulerStats {
                submitted: 10,
                scored: 8,
                errors: 1,
                overloads: 1,
                batches: 3,
                connections: 2,
                queue_depth: 0,
            },
            cache: Some(CacheStats {
                hits: 4,
                misses: 6,
                evictions: 1,
                insertions: 6,
                entries: 5,
                bytes: 680,
                capacity_bytes: 1024,
            }),
            ..MetricsSnapshot::default()
        };
        let v2 = Protocol::V2.render_stats(&snapshot, Some(256));
        assert!(
            v2.starts_with("{\"proto\":2,\"stats\":{\"scheduler\":{"),
            "{v2}"
        );
        assert!(v2.contains("\"submitted\":10"), "{v2}");
        assert!(v2.contains("\"cache\":{\"hits\":4,\"misses\":6"), "{v2}");
        assert!(v2.contains("\"hit_rate\":0.400000"), "{v2}");
        assert!(v2.ends_with(",\"engine\":{\"quant_bins\":256}}}"), "{v2}");
        let v1 = Protocol::V1.render_stats(&snapshot, Some(256));
        assert!(v1.starts_with("stats\thits=4\tmisses=6"), "{v1}");
        assert!(v1.contains("scored=8"), "{v1}");
        assert!(v1.ends_with("\tbatches=3\tquant_bins=256"), "{v1}");

        // Cache disabled: v2 renders null, v1 renders zeros. A model with
        // no quantized mirror reports null/0 bins.
        let disabled = MetricsSnapshot {
            cache: None,
            ..snapshot
        };
        let v2 = Protocol::V2.render_stats(&disabled, None);
        assert!(v2.contains("\"cache\":null"), "{v2}");
        assert!(v2.ends_with(",\"engine\":{\"quant_bins\":null}}}"), "{v2}");
        let v1 = Protocol::V1.render_stats(&disabled, None);
        assert!(v1.contains("hits=0"), "{v1}");
        assert!(v1.ends_with("\tbatches=3\tquant_bins=0"), "{v1}");
    }

    proptest! {
        #[test]
        fn arbitrary_bytes_never_panic_the_v2_parser(
            bytes in proptest::collection::vec(any::<u8>(), 0..512),
        ) {
            // The decoder fronts a public socket: any byte soup that
            // happens to be UTF-8 must come back as a typed error or a
            // request — never a panic.
            if let Ok(line) = std::str::from_utf8(&bytes) {
                let _ = parse_request_v2(line, "0");
            }
        }

        #[test]
        fn mutated_valid_v2_requests_never_panic(pos in 0usize..64, byte in any::<u8>()) {
            // Single-byte corruption of a well-formed request: the parser
            // either still accepts it or rejects it typed.
            let mut line = br#"{"id":"probe","bytecode":"0x6001600255"}"#.to_vec();
            let i = pos % line.len();
            line[i] = byte;
            if let Ok(text) = std::str::from_utf8(&line) {
                if let Err(detail) = parse_request_v2(text, "7") {
                    prop_assert!(!detail.is_empty());
                }
            }
        }
    }
}
