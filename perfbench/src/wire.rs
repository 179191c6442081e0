//! What comes back over the wire: a small JSON reader, HTTP/1.1 response
//! framing, the classification of every response into exactly one
//! outcome, and the bit-level verdict comparison.

use phishinghook_models::Verdict;
use std::io::{self, BufRead};

/// A parsed JSON value. Numbers keep their text so a probability can be
/// read with the standard library's correctly rounded parser.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as written.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in wire order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON document.
    ///
    /// # Errors
    /// A description of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing bytes at {}", p.i));
        }
        Ok(v)
    }

    /// The field `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as text (strings and numbers).
    pub fn text(&self) -> Option<&str> {
        match self {
            Json::Str(s) | Json::Num(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number.
    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&b) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at {}", b as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("bad object at {}", self.i)),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("bad array at {}", self.i)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.word("true", Json::Bool(true)),
            Some(b'f') => self.word("false", Json::Bool(false)),
            Some(b'n') => self.word("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
                {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).expect("ascii digits");
                text.parse::<f64>()
                    .map_err(|_| format!("bad number `{text}`"))?;
                Ok(Json::Num(text.to_owned()))
            }
            _ => Err(format!("unexpected byte at {}", self.i)),
        }
    }

    fn word(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at {}", self.i))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return Err(format!("expected string at {}", self.i));
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            match self.s.get(self.i) {
                None => return Err("unterminated string".to_owned()),
                Some(b'"') => {
                    self.i += 1;
                    return String::from_utf8(out).map_err(|_| "string is not UTF-8".to_owned());
                }
                Some(b'\\') => {
                    let esc = *self.s.get(self.i + 1).ok_or("dangling escape")?;
                    self.i += 2;
                    match esc {
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).ok_or("short \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            self.i += 4;
                            let c = char::from_u32(code).unwrap_or('\u{fffd}');
                            out.extend_from_slice(c.to_string().as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                Some(&b) => {
                    out.push(b);
                    self.i += 1;
                }
            }
        }
    }
}

/// A verdict as the daemon rendered it.
#[derive(Debug, Clone, PartialEq)]
pub struct WireVerdict {
    /// The echoed request id.
    pub id: String,
    /// `"phishing"` or `"benign"`.
    pub verdict: String,
    /// The combined probability, as printed.
    pub proba: f64,
    /// The daemon's model version string.
    pub model_version: String,
    /// Per-model `(name, probability)` in member order.
    pub per_model: Vec<(String, f64)>,
}

/// Exactly one of these settles every request.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A scored verdict.
    Verdict(WireVerdict),
    /// Refused by admission control (typed overload, or HTTP 503).
    Overload,
    /// Answered with a typed deadline timeout (or HTTP 504).
    Timeout,
    /// Any other answer: malformed request, worker failure, unparseable
    /// response.
    Error(String),
}

/// Classifies one v2 JSONL response line; also returns its id.
pub fn classify_line(line: &str) -> (Option<String>, Outcome) {
    let json = match Json::parse(line) {
        Ok(json) => json,
        Err(e) => return (None, Outcome::Error(format!("unparseable response: {e}"))),
    };
    let id = json.get("id").and_then(Json::text).map(str::to_owned);
    if let Some(err) = json.get("error") {
        let outcome = match json.get("code").and_then(Json::text) {
            Some("overloaded") => Outcome::Overload,
            Some("timeout") => Outcome::Timeout,
            _ => Outcome::Error(err.text().unwrap_or("error").to_owned()),
        };
        return (id, outcome);
    }
    (id.clone(), parse_verdict(&json, id))
}

fn parse_verdict(json: &Json, id: Option<String>) -> Outcome {
    let verdict = || -> Option<WireVerdict> {
        let per_model = match json.get("per_model")? {
            Json::Arr(items) => items
                .iter()
                .map(|m| Some((m.get("name")?.text()?.to_owned(), m.get("proba")?.num()?)))
                .collect::<Option<Vec<_>>>()?,
            _ => return None,
        };
        Some(WireVerdict {
            id: id?,
            verdict: json.get("verdict")?.text()?.to_owned(),
            proba: json.get("proba")?.num()?,
            model_version: json.get("model_version")?.text()?.to_owned(),
            per_model,
        })
    };
    verdict().map_or_else(
        || Outcome::Error("verdict response is missing fields".to_owned()),
        Outcome::Verdict,
    )
}

/// Classifies one HTTP `/predict` answer by status, then body.
pub fn classify_http(status: u16, body: &[u8]) -> Outcome {
    match status {
        200 => match classify_line(&String::from_utf8_lossy(body)) {
            (_, Outcome::Verdict(v)) => Outcome::Verdict(v),
            (_, other) => Outcome::Error(format!("200 without a verdict: {other:?}")),
        },
        503 => Outcome::Overload,
        504 => Outcome::Timeout,
        s => Outcome::Error(format!("HTTP {s}")),
    }
}

/// Reads one `Content-Length`-framed HTTP/1.1 response: `None` on a clean
/// end of stream before the status line.
///
/// # Errors
/// Transport errors, and `InvalidData` for a malformed head.
pub fn read_http_response(reader: &mut impl BufRead) -> io::Result<Option<(u16, Vec<u8>)>> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Ok(None);
    }
    let status: u16 = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut length = None;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "eof in head"));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = Some(
                    value
                        .trim()
                        .parse::<usize>()
                        .map_err(|_| bad("bad length"))?,
                );
            }
        }
    }
    let mut body = vec![0; length.ok_or_else(|| bad("no content-length"))?];
    reader.read_exact(&mut body)?;
    Ok(Some((status, body)))
}

/// The `f64` a client reads back for `proba` after the daemon printed it
/// with six decimals — the only bits the wire can carry.
pub fn wire_bits(proba: f64) -> u64 {
    format!("{proba:.6}")
        .parse::<f64>()
        .expect("formatted float parses")
        .to_bits()
}

/// An in-process reference score: combined and per-model probabilities.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    /// Combined probability.
    pub proba: f64,
    /// Per-model probabilities in member order.
    pub per_model: Vec<f64>,
}

/// Compares a wire verdict with the reference bit for bit (after the
/// wire's six-decimal rendering), including every member's probability and
/// the hard verdict. A response carrying only the primary member is the
/// brownout tier's degraded answer and must match that member alone.
///
/// # Errors
/// A description of the first mismatch.
pub fn check_verdict(
    wire: &WireVerdict,
    reference: &Reference,
    names: &[String],
) -> Result<(), String> {
    let degraded = names.len() > 1 && wire.per_model.len() == 1;
    let (expected, expected_members): (f64, &[f64]) = if degraded {
        (reference.per_model[0], &reference.per_model[..1])
    } else {
        (reference.proba, &reference.per_model)
    };
    if wire.proba.to_bits() != wire_bits(expected) {
        return Err(format!(
            "id {}: proba {} != reference {expected:.6}",
            wire.id, wire.proba
        ));
    }
    let expected_verdict = Verdict::from_proba(expected).as_str();
    if wire.verdict != expected_verdict {
        return Err(format!(
            "id {}: verdict {} != {expected_verdict}",
            wire.id, wire.verdict
        ));
    }
    if wire.per_model.len() != expected_members.len() {
        return Err(format!(
            "id {}: {} per-model entries",
            wire.id,
            wire.per_model.len()
        ));
    }
    for ((name, p), (want_name, want)) in wire
        .per_model
        .iter()
        .zip(names.iter().zip(expected_members))
    {
        if name != want_name || p.to_bits() != wire_bits(*want) {
            return Err(format!(
                "id {}: member {name} p={p} != {want_name} {want:.6}",
                wire.id
            ));
        }
    }
    Ok(())
}

/// Per-workload request accounting: every request ends as exactly one of
/// these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Correct verdicts.
    pub verdicts: u64,
    /// Verdicts whose bits differ from the reference.
    pub mismatches: u64,
    /// Typed overloads.
    pub overloads: u64,
    /// Typed timeouts.
    pub timeouts: u64,
    /// Error answers.
    pub errors: u64,
    /// Requests that never got an answer.
    pub lost: u64,
}

impl Tally {
    /// Requests sent.
    pub fn attempted(&self) -> u64 {
        self.verdicts + self.mismatches + self.overloads + self.timeouts + self.errors + self.lost
    }

    /// Requests that did not end in a correct verdict.
    pub fn failed(&self) -> u64 {
        self.attempted() - self.verdicts
    }

    /// `failed ÷ attempted` (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        match self.attempted() {
            0 => 0.0,
            n => self.failed() as f64 / n as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const VERDICT: &str = r#"{"proto":2,"id":"7","verdict":"phishing","proba":0.934211,"model_version":"hsc-ensemble/v1","per_model":[{"name":"Random Forest","proba":0.941023},{"name":"LightGBM","proba":0.927399}]}"#;

    #[test]
    fn json_reader_handles_the_daemon_shapes() {
        let v = Json::parse(r#"{"a":[1,-2.5e3,true,null],"b":"x\"\\A"}"#).unwrap();
        assert_eq!(v.get("b").and_then(Json::text), Some("x\"\\A"));
        match v.get("a") {
            Some(Json::Arr(items)) => {
                assert_eq!(items[1].num(), Some(-2500.0));
                assert_eq!(items[2], Json::Bool(true));
                assert_eq!(items[3], Json::Null);
            }
            other => panic!("{other:?}"),
        }
        assert!(Json::parse("{\"a\":1} x").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("\"open").is_err());
    }

    #[test]
    fn jsonl_lines_classify_into_exactly_one_outcome() {
        let (id, outcome) = classify_line(VERDICT);
        assert_eq!(id.as_deref(), Some("7"));
        match outcome {
            Outcome::Verdict(v) => {
                assert_eq!(v.proba, 0.934211);
                assert_eq!(v.per_model.len(), 2);
                assert_eq!(v.per_model[1].0, "LightGBM");
            }
            other => panic!("{other:?}"),
        }
        let overload = r#"{"proto":2,"id":"3","error":"server overloaded: the scheduler queue is full","code":"overloaded"}"#;
        assert_eq!(
            classify_line(overload),
            (Some("3".into()), Outcome::Overload)
        );
        let timeout = r#"{"proto":2,"id":"4","error":"deadline exceeded","code":"timeout"}"#;
        assert_eq!(classify_line(timeout).1, Outcome::Timeout);
        let internal = r#"{"proto":2,"id":"5","error":"internal error","code":"internal"}"#;
        assert!(matches!(classify_line(internal).1, Outcome::Error(_)));
        let bad = r#"{"proto":2,"id":"6","error":"not valid hex bytecode"}"#;
        assert!(matches!(classify_line(bad).1, Outcome::Error(_)));
        assert!(matches!(classify_line("garbage").1, Outcome::Error(_)));
        assert!(matches!(
            classify_line(r#"{"id":"1","verdict":"benign"}"#).1,
            Outcome::Error(_)
        ));
    }

    #[test]
    fn http_answers_classify_by_status_then_body() {
        assert!(matches!(
            classify_http(200, VERDICT.as_bytes()),
            Outcome::Verdict(_)
        ));
        assert_eq!(classify_http(503, b"{}"), Outcome::Overload);
        assert_eq!(classify_http(504, b"{}"), Outcome::Timeout);
        assert!(matches!(classify_http(400, b"{}"), Outcome::Error(_)));
        assert!(matches!(
            classify_http(200, b"{\"error\":\"x\"}"),
            Outcome::Error(_)
        ));
    }

    #[test]
    fn http_responses_are_framed_by_content_length() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 5\r\nConnection: keep-alive\r\n\r\nhelloHTTP/1.1 503 Service Unavailable\r\ncontent-length: 2\r\n\r\n{}";
        let mut reader = &raw[..];
        assert_eq!(
            read_http_response(&mut reader).unwrap(),
            Some((200, b"hello".to_vec()))
        );
        assert_eq!(
            read_http_response(&mut reader).unwrap(),
            Some((503, b"{}".to_vec()))
        );
        assert_eq!(read_http_response(&mut reader).unwrap(), None);
        let mut truncated = &b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nabc"[..];
        assert!(read_http_response(&mut truncated).is_err());
        let mut no_length = &b"HTTP/1.1 200 OK\r\n\r\n"[..];
        assert!(read_http_response(&mut no_length).is_err());
    }

    #[test]
    fn verdicts_compare_bit_for_bit_after_wire_rendering() {
        let names = vec!["Random Forest".to_owned(), "LightGBM".to_owned()];
        let reference = Reference {
            proba: 0.934_211_2,
            per_model: vec![0.941_023_4, 0.927_398_9],
        };
        let Outcome::Verdict(wire) = classify_line(VERDICT).1 else {
            panic!("verdict expected")
        };
        assert_eq!(check_verdict(&wire, &reference, &names), Ok(()));
        // One unit in the sixth decimal is a mismatch.
        let off = Reference {
            proba: 0.934_212_2,
            ..reference.clone()
        };
        assert!(check_verdict(&wire, &off, &names).is_err());
        let member_off = Reference {
            per_model: vec![0.941_023_4, 0.927_397_0],
            ..reference.clone()
        };
        assert!(check_verdict(&wire, &member_off, &names).is_err());
        // A degraded answer carries the primary member only.
        let degraded = WireVerdict {
            proba: 0.941023,
            per_model: vec![("Random Forest".into(), 0.941023)],
            ..wire.clone()
        };
        assert_eq!(check_verdict(&degraded, &reference, &names), Ok(()));
        assert_eq!(wire_bits(0.5), 0.5f64.to_bits());
        assert_ne!(wire_bits(0.123_456_4), wire_bits(0.123_456_6));
    }

    #[test]
    fn tally_derives_failures_from_the_counts() {
        let t = Tally {
            verdicts: 90,
            mismatches: 1,
            overloads: 5,
            timeouts: 2,
            errors: 1,
            lost: 1,
        };
        assert_eq!(t.attempted(), 100);
        assert_eq!(t.failed(), 10);
        assert!((t.error_rate() - 0.1).abs() < 1e-12);
        assert_eq!(Tally::default().error_rate(), 0.0);
    }
}
