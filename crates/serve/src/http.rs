//! Minimal HTTP/1.1 wire handling: the **framing rules** requests and
//! responses share (`read_head`, also used by [`crate::client`]), an
//! **incremental request parser** (drives the event loop in
//! [`crate::server`]) and response serialization.
//!
//! Deliberately small, but no longer one-request-per-connection:
//! **keep-alive and pipelining are supported**. HTTP/1.1 requests
//! persist by default (HTTP/1.0 requires an explicit
//! `Connection: keep-alive`), `Connection: close` is honored both ways,
//! and back-to-back pipelined requests parse from a single buffer, each
//! answered in order. Still no chunked transfer encoding; heads are
//! capped at 16 KiB and bodies at a configurable limit. That subset is
//! all `curl`, load generators, and browsers need for a JSON API.
//!
//! Error codes on the wire (the server half-closes after each of them):
//!
//! | Status | Code | Trigger |
//! |---|---|---|
//! | 400 | `bad_request` | malformed head, bad `Content-Length`, chunked TE |
//! | 408 | `request_timeout` | a partially received request idled past the per-state read deadline (slowloris eviction) |
//! | 413 | `payload_too_large` | declared body exceeds the cap |
//! | 503 | `overloaded` | the worker's connection table is full at accept |
//!
//! A *fully* idle keep-alive connection (no request bytes pending) is
//! closed silently at the keep-alive deadline — there is no request to
//! answer, so no 408.

/// Cap on a message head (start line + headers), in either direction.
/// Anything larger is malformed for this API (data goes in the body).
pub(crate) const MAX_HEAD: usize = 16 * 1024;

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// Path without query string (`/sessions/3/lfs`).
    pub path: String,
    /// Raw query string after the `?` (no leading `?`; empty when the
    /// target had none). Routes parse their own parameters with
    /// [`Request::query_param`].
    pub query: String,
    /// Raw body bytes (UTF-8 JSON for every route that takes one).
    pub body: Vec<u8>,
}

impl Request {
    /// Look up a `key=value` query parameter (first match; no percent
    /// decoding — the API's parameter values are plain tokens).
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == key).then_some(v)
        })
    }
}

/// A complete request plus its wire framing facts.
#[derive(Debug)]
pub struct ParsedRequest {
    /// The request itself.
    pub request: Request,
    /// Bytes this request consumed from the buffer (head + body). The
    /// caller drains them before parsing the next pipelined request.
    pub consumed: usize,
    /// Whether the connection may persist after the response: HTTP/1.1
    /// default, overridden by `Connection: close` / `keep-alive`.
    pub keep_alive: bool,
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum ReadError {
    /// Syntactically broken request (or an unsupported framing such as
    /// `Transfer-Encoding: chunked`) — answer 400.
    Malformed(String),
    /// Declared body exceeds the configured cap — answer 413.
    TooLarge { limit: usize },
}

/// One message head at the front of a buffer, as [`read_head`] found it.
#[derive(Default)]
pub(crate) struct Head<'a> {
    /// The request line or status line.
    pub start_line: &'a [u8],
    /// Head length including the blank line: the body starts here.
    pub len: usize,
    pub content_length: Option<usize>,
    /// `Connection: close` → `false`, `keep-alive` → `true` (the last
    /// wins); `None` leaves the version's default.
    pub persist: Option<bool>,
}

/// Find and read the message head at the front of `buf`: the framing
/// rules requests and responses share, written once.
///
/// - The head is capped at [`MAX_HEAD`] bytes.
/// - `Content-Length` is 1*DIGIT (RFC 9112 §6.3: no sign, no inner
///   whitespace; `str::parse` alone would accept `+10`), and repeats
///   must agree (RFC 9110 §8.6; differing values are a smuggling vector).
/// - `Transfer-Encoding` is rejected: Content-Length is the only framing.
/// - `Connection: close` / `keep-alive` set persistence.
///
/// `Ok(None)` means more bytes are needed; rules are judged on complete
/// heads only. The first `scanned` bytes were searched for the terminator
/// by an earlier call, so a dripped head costs O(head) in total. Fields
/// are compared in place; nothing is allocated unless the head is rejected.
pub(crate) fn read_head(buf: &[u8], scanned: usize) -> Result<Option<Head<'_>>, String> {
    // While the terminator is missing, only fresh bytes need a look.
    let fresh = &buf[scanned.saturating_sub(3)..];
    let look = scanned == 0 || fresh.windows(4).any(|w| w == b"\r\n\r\n");
    let (start_line, mut lines) = if look {
        split_crlf(buf)
    } else {
        (&buf[..0], None)
    };
    let mut head = Head {
        start_line,
        ..Head::default()
    };
    let mut broken = Ok(());
    while let Some((line, rest)) = lines.map(split_crlf) {
        match rest {
            Some(after) if line.is_empty() => {
                head.len = buf.len() - after.len();
                break;
            }
            Some(_) if broken.is_ok() => broken = field(&mut head, line),
            _ => {}
        }
        lines = rest;
    }
    match head.len {
        // No terminator yet. One still to come may start in the last 3
        // bytes, so the cap cannot be judged before then (in any chunking).
        0 if buf.len() <= MAX_HEAD + 3 => Ok(None),
        // The cap covers the head up to its terminator.
        len if len > 0 && len - 4 <= MAX_HEAD => broken.map(|()| Some(head)),
        _ => Err("head exceeds 16KiB".into()),
    }
}

/// Apply one header field to `head` by the framing rules.
fn field(head: &mut Head<'_>, line: &[u8]) -> Result<(), String> {
    let Some(colon) = find_byte(b':', line) else {
        return Ok(());
    };
    let (name, value) = (line[..colon].trim_ascii(), line[colon + 1..].trim_ascii());
    if name.eq_ignore_ascii_case(b"content-length") {
        let parsed = Some(value)
            .filter(|v| !v.is_empty() && v.iter().all(u8::is_ascii_digit))
            .and_then(|v| std::str::from_utf8(v).ok()?.parse().ok())
            .ok_or_else(|| format!("bad Content-Length {:?}", String::from_utf8_lossy(value)))?;
        if let Some(prev) = head.content_length.filter(|&prev| prev != parsed) {
            return Err(format!(
                "conflicting Content-Length values ({prev} and {parsed})"
            ));
        }
        head.content_length = Some(parsed);
    } else if name.eq_ignore_ascii_case(b"transfer-encoding") {
        return Err("Transfer-Encoding is not supported; send Content-Length".into());
    } else if name.eq_ignore_ascii_case(b"connection") {
        // A comma-separated option list; only persistence matters.
        for opt in value.split(|&b| b == b',').map(<[u8]>::trim_ascii) {
            if opt.eq_ignore_ascii_case(b"close") {
                head.persist = Some(false);
            } else if opt.eq_ignore_ascii_case(b"keep-alive") {
                head.persist = Some(true);
            }
        }
    }
    Ok(())
}

/// Split `bytes` at its first CRLF: the line before it, and what follows
/// (`None` when there is no CRLF). A bare `\n` does not end a line.
fn split_crlf(bytes: &[u8]) -> (&[u8], Option<&[u8]>) {
    let mut from = 0;
    while let Some(nl) = find_byte(b'\n', &bytes[from..]).map(|pos| from + pos) {
        if nl > 0 && bytes[nl - 1] == b'\r' {
            return (&bytes[..nl - 1], Some(&bytes[nl + 1..]));
        }
        from = nl + 1;
    }
    (bytes, None)
}

/// Offset of the first `byte` in `hay`, searched a word at a time (a
/// head is scanned once per line, so this is the parse's inner loop).
fn find_byte(byte: u8, hay: &[u8]) -> Option<usize> {
    const LOW: u64 = u64::from_ne_bytes([1; 8]);
    let mut words = hay.chunks_exact(8);
    for (i, word) in words.by_ref().enumerate() {
        let x = u64::from_le_bytes(word.try_into().expect("8 bytes")) ^ (LOW * u64::from(byte));
        // Nonzero iff some byte of `x` is zero; the lowest flag is exact.
        let hit = x.wrapping_sub(LOW) & !x & (LOW << 7);
        if hit != 0 {
            return Some(i * 8 + hit.trailing_zeros() as usize / 8);
        }
    }
    let tail = words.remainder();
    let pos = tail.iter().position(|&b| b == byte)?;
    Some(hay.len() - tail.len() + pos)
}

/// Validated head facts, cached between [`RequestParser::parse`] calls
/// so a slowly arriving body never re-parses headers.
struct HeadMeta {
    method: String,
    path: String,
    query: String,
    body_start: usize,
    content_length: usize,
    keep_alive: bool,
}

/// Incremental single-request parser over an append-only byte buffer.
///
/// Call [`parse`](RequestParser::parse) whenever the buffer grows:
/// `Ok(None)` means "need more bytes", `Ok(Some(parsed))` yields the
/// request (the caller drains `parsed.consumed` bytes and calls
/// [`reset`](RequestParser::reset) before the next pipelined request),
/// and `Err` is a protocol error to answer and close on. The head scan
/// is incremental — only freshly appended bytes are searched for the
/// `\r\n\r\n` terminator, so a dripped head costs O(head) total, not
/// O(head²).
#[derive(Default)]
pub struct RequestParser {
    scanned: usize,
    head: Option<HeadMeta>,
}

impl RequestParser {
    /// Fresh parser (also the state after [`reset`](Self::reset)).
    pub fn new() -> Self {
        Self::default()
    }

    /// Forget per-request state; call after consuming a parsed request.
    pub fn reset(&mut self) {
        self.scanned = 0;
        self.head = None;
    }

    /// Has this parser seen any bytes of an in-progress request? (Used
    /// to distinguish "idle connection" from "mid-request" deadlines.)
    pub fn mid_request(&self) -> bool {
        self.scanned > 0 || self.head.is_some()
    }

    /// Try to complete one request from `buf` (which must start at the
    /// request's first byte). See the type docs for the contract.
    pub fn parse(
        &mut self,
        buf: &[u8],
        max_body: usize,
    ) -> Result<Option<ParsedRequest>, ReadError> {
        if self.head.is_none() {
            match read_head(buf, self.scanned).map_err(ReadError::Malformed)? {
                Some(head) => self.head = Some(parse_head(head, max_body)?),
                None => {
                    self.scanned = buf.len();
                    return Ok(None);
                }
            }
        }
        let head = self.head.as_ref().expect("head parsed above");
        let total = head.body_start + head.content_length;
        if buf.len() < total {
            return Ok(None);
        }
        let head = self.head.take().expect("head parsed above");
        let request = Request {
            method: head.method,
            path: head.path,
            query: head.query,
            body: buf[head.body_start..total].to_vec(),
        };
        Ok(Some(ParsedRequest {
            request,
            consumed: total,
            keep_alive: head.keep_alive,
        }))
    }
}

/// Validate a request head's request line and body cap.
fn parse_head(head: Head<'_>, max_body: usize) -> Result<HeadMeta, ReadError> {
    let request_line = String::from_utf8_lossy(head.start_line);
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| ReadError::Malformed("empty request line".into()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| ReadError::Malformed("missing request target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| ReadError::Malformed("missing HTTP version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Malformed(format!(
            "unsupported version {version}"
        )));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };
    let content_length = head.content_length.unwrap_or(0);
    if content_length > max_body {
        return Err(ReadError::TooLarge { limit: max_body });
    }
    Ok(HeadMeta {
        method,
        path,
        query,
        body_start: head.len,
        content_length,
        // HTTP/1.1 defaults to keep-alive; HTTP/1.0 to close.
        keep_alive: head.persist.unwrap_or(version != "HTTP/1.0"),
    })
}

/// A response ready to serialize. Body is JSON unless a route opted
/// into another media type (the Prometheus exposition endpoint).
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Body bytes (a `String`: every body the API emits is UTF-8 text).
    pub body: String,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Correlation id echoed as `X-Request-Id`. The event loop stamps
    /// this on every response it writes; `None` only in unit tests and
    /// in-process callers of [`crate::router::handle`].
    pub request_id: Option<String>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            body: body.into(),
            content_type: "application/json",
            request_id: None,
        }
    }

    /// A plain-text response (Prometheus exposition format version
    /// 0.0.4 advertises itself via the content type).
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            body: body.into(),
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            request_id: None,
        }
    }

    /// Serialize to wire bytes. Identical byte-for-byte to the historic
    /// one-shot format except for the `Connection` header (states
    /// whether the server will keep the connection open) and the
    /// `X-Request-Id` correlation header when one is stamped.
    pub fn to_bytes(&self, keep_alive: bool) -> Vec<u8> {
        let mut out = Vec::with_capacity(160 + self.body.len());
        let rid_header = match &self.request_id {
            Some(rid) => format!("X-Request-Id: {rid}\r\n"),
            None => String::new(),
        };
        out.extend_from_slice(
            format!(
                "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{}Connection: {}\r\n\r\n",
                self.status,
                reason(self.status),
                self.content_type,
                self.body.len(),
                rid_header,
                if keep_alive { "keep-alive" } else { "close" },
            )
            .as_bytes(),
        );
        out.extend_from_slice(self.body.as_bytes());
        out
    }
}

/// Reason phrase for every status the API uses.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        421 => "Misdirected Request",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Test support for the wire decoders: feed `wire` to `next` as a socket
/// might deliver it, cut at `cuts` (any order; past the end clamps), and
/// after each append take every item `next` splits off the buffer's
/// front. Returns the items and the error that stopped them, if any.
#[cfg(test)]
pub(crate) fn feed<T, E: std::fmt::Debug>(
    wire: &[u8],
    cuts: &[usize],
    mut next: impl FnMut(&mut Vec<u8>) -> Result<Option<T>, E>,
) -> (Vec<T>, Option<String>) {
    let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(wire.len())).collect();
    bounds.extend([0, wire.len()]);
    bounds.sort_unstable();
    let (mut buf, mut got) = (Vec::new(), Vec::new());
    for w in bounds.windows(2) {
        buf.extend_from_slice(&wire[w[0]..w[1]]);
        while let Some(item) = next(&mut buf).transpose() {
            match item {
                Ok(item) => got.push(item),
                Err(e) => return (got, Some(format!("{e:?}"))),
            }
        }
    }
    (got, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Parse a complete buffer through the incremental parser.
    fn parse_once(raw: &[u8]) -> Result<Option<ParsedRequest>, ReadError> {
        RequestParser::new().parse(raw, 1024)
    }

    /// Parse one request that `raw` holds in full.
    fn parse_request(raw: &[u8]) -> Result<Request, ReadError> {
        parse_once(raw).map(|p| p.expect("complete request").request)
    }

    #[test]
    fn parses_post_with_body() {
        let req =
            parse_request(b"POST /sessions HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd")
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/sessions");
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn strips_query_string_and_uppercases_method() {
        let req = parse_request(b"get /metrics?pretty=1 HTTP/1.0\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/metrics");
        assert_eq!(req.query, "pretty=1");
        assert!(req.body.is_empty());
    }

    #[test]
    fn query_params_are_parsed_on_demand() {
        let req =
            parse_request(b"GET /events?since=42&format=prometheus&flag HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.query_param("since"), Some("42"));
        assert_eq!(req.query_param("format"), Some("prometheus"));
        assert_eq!(req.query_param("flag"), Some(""));
        assert_eq!(req.query_param("absent"), None);
        let bare = parse_request(b"GET /events HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(bare.query, "");
        assert_eq!(bare.query_param("since"), None);
    }

    #[test]
    fn request_id_and_content_type_surface_as_headers() {
        let mut resp = Response::text(200, "x_total 1\n");
        resp.request_id = Some("3-17".to_string());
        let wire = String::from_utf8(resp.to_bytes(true)).unwrap();
        assert!(wire.contains("Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"));
        assert!(wire.contains("X-Request-Id: 3-17\r\n"));
        // The correlation header sits inside the head, before the blank line.
        let head_end = wire.find("\r\n\r\n").unwrap();
        assert!(wire.find("X-Request-Id").unwrap() < head_end);
    }

    #[test]
    fn keep_alive_defaults_follow_the_http_version() {
        let p = parse_once(b"GET /x HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(p.keep_alive, "HTTP/1.1 defaults to keep-alive");
        let p = parse_once(b"GET /x HTTP/1.0\r\nHost: t\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!p.keep_alive, "HTTP/1.0 defaults to close");
        let p = parse_once(b"GET /x HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!p.keep_alive, "explicit close wins");
        let p = parse_once(b"GET /x HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(p.keep_alive, "explicit keep-alive wins, case-insensitive");
    }

    #[test]
    fn pipelined_requests_parse_back_to_back() {
        let raw =
            b"POST /a HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiGET /b HTTP/1.1\r\nHost: t\r\n\r\n";
        let mut parser = RequestParser::new();
        let first = parser.parse(raw, 1024).unwrap().unwrap();
        assert_eq!(first.request.path, "/a");
        assert_eq!(first.request.body, b"hi");
        parser.reset();
        let second = parser.parse(&raw[first.consumed..], 1024).unwrap().unwrap();
        assert_eq!(second.request.path, "/b");
        assert_eq!(second.consumed, raw.len() - first.consumed);
    }

    #[test]
    fn incremental_parse_is_restartable_at_every_byte() {
        let raw: &[u8] = b"POST /drip HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi";
        let mut parser = RequestParser::new();
        for end in 0..raw.len() {
            assert!(
                parser.parse(&raw[..end], 1024).unwrap().is_none(),
                "complete at only {end} bytes?"
            );
            if end >= 1 {
                assert!(parser.mid_request());
            }
        }
        let done = parser.parse(raw, 1024).unwrap().unwrap();
        assert_eq!(done.request.path, "/drip");
        assert_eq!(done.request.body, b"hi");
        assert_eq!(done.consumed, raw.len());
    }

    #[test]
    fn rejects_oversized_body() {
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 9999\r\n\r\n";
        match parse_once(raw) {
            Err(ReadError::TooLarge { limit }) => assert_eq!(limit, 1024),
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn rejects_chunked_and_garbage() {
        assert!(matches!(
            parse_once(b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
        assert!(matches!(
            parse_once(b"NONSENSE\r\n\r\n"),
            Err(ReadError::Malformed(_))
        ));
    }

    #[test]
    fn content_length_must_be_digits_only() {
        // `str::parse::<usize>` accepts a leading '+'; RFC 9112 does not.
        // (OWS around the value is trimmed before the digit check — that
        // part *is* legal field syntax.)
        for bad in ["+10", "-1", "4 4", "0x4", ""] {
            let raw = format!("POST /x HTTP/1.1\r\nContent-Length:{bad}\r\n\r\nabcd");
            assert!(
                matches!(parse_once(raw.as_bytes()), Err(ReadError::Malformed(_))),
                "Content-Length {bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn conflicting_content_lengths_are_rejected_identical_ones_allowed() {
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 5\r\n\r\nabcde";
        assert!(matches!(parse_once(raw), Err(ReadError::Malformed(_))));
        let raw = b"POST /x HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nabcd";
        let req = parse_request(raw).unwrap();
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn oversized_head_is_rejected_at_the_cap() {
        let mut raw = b"GET /x HTTP/1.1\r\n".to_vec();
        raw.extend_from_slice(format!("X-Pad: {}\r\n", "a".repeat(MAX_HEAD)).as_bytes());
        raw.extend_from_slice(b"\r\n");
        assert!(matches!(
            parse_once(&raw),
            Err(ReadError::Malformed(msg)) if msg.contains("16KiB")
        ));
    }

    #[test]
    fn response_has_framing_headers() {
        let got = String::from_utf8(Response::json(422, "{\"x\":1}").to_bytes(false)).unwrap();
        assert!(got.starts_with("HTTP/1.1 422 Unprocessable Entity\r\n"));
        assert!(got.contains("Content-Length: 7\r\n"));
        assert!(got.contains("Connection: close\r\n"));
        assert!(got.ends_with("{\"x\":1}"));
    }

    #[test]
    fn keep_alive_bytes_differ_only_in_the_connection_header() {
        let resp = Response::json(200, r#"{"status":"ok"}"#);
        let close = String::from_utf8(resp.to_bytes(false)).unwrap();
        let keep = String::from_utf8(resp.to_bytes(true)).unwrap();
        assert!(keep.contains("Connection: keep-alive\r\n"));
        assert_eq!(
            close.replace("Connection: close", "Connection: keep-alive"),
            keep
        );
    }

    /// Parse `wire` as the event loop does, cut at `cuts`: parse after
    /// every append, drain each request and reset. Each request comes
    /// back as its `Debug` text, which shows all six fields of a parse.
    fn parse_all(wire: &[u8], cuts: &[usize]) -> (Vec<String>, Option<String>) {
        let mut parser = RequestParser::new();
        feed(wire, cuts, |buf| {
            let parsed = parser.parse(buf, 1024)?;
            if let Some(p) = &parsed {
                buf.drain(..p.consumed);
                parser.reset();
            }
            Ok::<_, ReadError>(parsed.map(|p| format!("{p:?}")))
        })
    }

    /// One request: method case, target, version, `Connection` and body vary.
    fn request_case() -> impl Strategy<Value = Vec<u8>> {
        let pick = |words: &[&'static str]| prop::sample::select(words.to_vec());
        let line = (pick(&["GET", "post", "Delete"]), pick(&["1.0", "1.1"]));
        let conn = pick(&["", "close", "Keep-Alive, x"]);
        (line, "/[a-z0-9/?=&]{0,16}", conn, "[ -~]{0,40}").prop_map(|((m, v), path, conn, body)| {
            let head = format!("{m} {path} HTTP/{v}\r\nConnection: {conn}\r\n");
            format!("{head}content-LENGTH: {}\r\n\r\n{body}", body.len()).into_bytes()
        })
    }

    proptest! {
        /// Any chunking of 1–4 pipelined requests, byte-at-a-time
        /// included, parses like the one-shot parse.
        #[test]
        fn any_chunking_parses_like_the_one_shot_parse(
            requests in prop::collection::vec(request_case(), 1..5),
            cuts in prop::collection::vec(0usize..400, 0..8),
        ) {
            let wire = requests.concat();
            let one_shot = parse_all(&wire, &[]);
            prop_assert_eq!((one_shot.0.len(), &one_shot.1), (requests.len(), &None));
            let drip: Vec<usize> = (0..wire.len()).collect();
            for cuts in [&cuts, &drip] {
                prop_assert_eq!(&parse_all(&wire, cuts), &one_shot);
            }
        }

        /// Arbitrary bytes (requests with bytes overwritten) never panic
        /// the parser, in any chunking.
        #[test]
        fn arbitrary_bytes_never_panic(
            mut wire in request_case(),
            edits in prop::collection::vec((any::<usize>(), any::<u8>()), 0..8),
            cuts in prop::collection::vec(0usize..200, 0..6),
        ) {
            let len = wire.len();
            edits.into_iter().for_each(|(at, byte)| wire[at % len] = byte);
            prop_assert_eq!(parse_all(&wire, &cuts), parse_all(&wire, &[]));
        }

        /// Past 16 KiB a head is malformed and past `max_body` a declared
        /// body is too large, however the bytes arrive; byte-at-a-time
        /// across the cap too, where a terminator yet to come may still
        /// end inside it.
        #[test]
        fn caps_hold_in_any_chunking(
            pad in (MAX_HEAD - 40)..(MAX_HEAD + 40),
            length in 1025usize..1_000_000,
            cuts in prop::collection::vec(0usize..(MAX_HEAD + 100), 0..6),
        ) {
            let head = format!("GET /x HTTP/1.1\r\nX-Pad: {}\r\n\r\n", "a".repeat(pad));
            let big = format!("POST /x HTTP/1.1\r\nContent-Length: {length}\r\n\r\n");
            let over = head.len() - 4 > MAX_HEAD;
            let near_cap: Vec<usize> = (MAX_HEAD - 8..MAX_HEAD + 8).collect();
            for cuts in [&[][..], &cuts, &near_cap] {
                let (got, err) = parse_all(head.as_bytes(), cuts);
                let capped = err.is_some_and(|e| e.contains("16KiB"));
                prop_assert_eq!((got.len(), capped), (usize::from(!over), over));
                let err = parse_all(big.as_bytes(), cuts).1;
                prop_assert_eq!(err.as_deref(), Some("TooLarge { limit: 1024 }"));
            }
        }
    }
}
