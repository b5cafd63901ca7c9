//! Minimal HTTP/1.1 over `std::net` — just enough protocol for the
//! daemon's endpoints, written defensively: every malformed input is a
//! typed [`HttpError`], never a panic, and header/body sizes are capped
//! so a hostile client cannot balloon memory.
//!
//! Connections are single-request (`Connection: close`); keep-alive is
//! deliberately out of scope — it buys little on a loopback deployment
//! and complicates draining.

use deepsd::telemetry::json_string;
use std::io::{Read, Write};

/// Upper bound on the request line + headers.
const MAX_HEAD_BYTES: usize = 8 * 1024;

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// Path without the query string, e.g. `/predict`.
    pub path: String,
    /// Decoded `key=value` pairs from the query string, in order.
    pub query: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` was present).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a query parameter.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// The socket failed or closed mid-request.
    Io(std::io::Error),
    /// The client exceeded a read timeout (slow-loris containment).
    Timeout,
    /// The bytes were not a well-formed request.
    Malformed(String),
    /// Head or body exceeded its size cap.
    TooLarge(usize),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "http io: {e}"),
            HttpError::Timeout => write!(f, "read timed out"),
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::TooLarge(n) => write!(f, "request too large ({n} bytes)"),
        }
    }
}

impl std::error::Error for HttpError {}

fn io_error(e: std::io::Error) -> HttpError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => HttpError::Timeout,
        _ => HttpError::Io(e),
    }
}

/// Reads and parses one request from the stream, honouring the
/// stream's configured read timeout and the `max_body` cap.
pub fn read_request(stream: &mut impl Read, max_body: usize) -> Result<Request, HttpError> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::TooLarge(buf.len()));
        }
        let n = stream.read(&mut chunk).map_err(io_error)?;
        if n == 0 {
            return Err(HttpError::Malformed("connection closed mid-head".into()));
        }
        buf.extend_from_slice(chunk.get(..n).unwrap_or_default());
    };

    let head = std::str::from_utf8(buf.get(..head_end).unwrap_or_default())
        .map_err(|e| HttpError::Malformed(format!("head not utf-8: {e}")))?;
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::Malformed("empty head".into()))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| HttpError::Malformed("missing method".into()))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing request target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing HTTP version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!("bad version '{version}'")));
    }

    let mut content_length = 0usize;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed(format!("bad header line '{line}'")));
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| HttpError::Malformed(format!("bad content-length '{value}'")))?;
        }
    }
    if content_length > max_body {
        return Err(HttpError::TooLarge(content_length));
    }

    // Body: whatever arrived with the head, then read the remainder.
    let mut body: Vec<u8> = buf.get(head_end + 4..).unwrap_or_default().to_vec();
    while body.len() < content_length {
        let n = stream.read(&mut chunk).map_err(io_error)?;
        if n == 0 {
            return Err(HttpError::Malformed(format!(
                "connection closed mid-body ({}/{content_length} bytes)",
                body.len()
            )));
        }
        body.extend_from_slice(chunk.get(..n).unwrap_or_default());
        if body.len() > max_body {
            return Err(HttpError::TooLarge(body.len()));
        }
    }
    body.truncate(content_length);

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), parse_query(q)),
        None => (target.to_string(), Vec::new()),
    };
    Ok(Request {
        method,
        path,
        query,
        body,
    })
}

/// Position of the `\r\n\r\n` separator, if complete.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn parse_query(q: &str) -> Vec<(String, String)> {
    q.split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (kv.to_string(), String::new()),
        })
        .collect()
}

/// An outgoing response.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Content type of `body`.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
    /// Optional `Retry-After` advice (set on shed responses).
    pub retry_after: Option<u32>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body,
            retry_after: None,
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: &str) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.to_string(),
            retry_after: None,
        }
    }

    /// A JSON error envelope: `{"error":"…"}`.
    pub fn error(status: u16, message: &str) -> Response {
        Response::json(status, format!("{{\"error\":{}}}", json_string(message)))
    }

    /// The standard reason phrase for this status.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Response",
        }
    }
}

/// Writes a complete `Connection: close` response: head and body go
/// out in one `write_all` from one buffer, so a small reply leaves in
/// one segment.
pub fn write_response(stream: &mut impl Write, resp: &Response) -> Result<(), HttpError> {
    let mut out = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: close\r\n",
        resp.status,
        resp.reason(),
        resp.content_type,
        resp.body.len()
    );
    if let Some(secs) = resp.retry_after {
        out.push_str(&format!("retry-after: {secs}\r\n"));
    }
    out.push_str("\r\n");
    out.push_str(&resp.body);
    stream.write_all(out.as_bytes()).map_err(io_error)?;
    stream.flush().map_err(io_error)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_parsing_handles_edges() {
        let q = parse_query("day=10&t=600&flag&x=");
        assert_eq!(q.len(), 4);
        assert_eq!(q[0], ("day".into(), "10".into()));
        assert_eq!(q[2], ("flag".into(), String::new()));
        assert_eq!(parse_query(""), Vec::new());
    }

    #[test]
    fn reasons_cover_used_statuses() {
        for s in [200u16, 202, 400, 404, 405, 408, 413, 429, 500, 503] {
            assert_ne!(Response::text(s, "").reason(), "Response", "status {s}");
        }
    }

    /// Never-panic property: arbitrary bytes and mutated requests parse
    /// or fail with a typed error, and a parsed body never exceeds its
    /// cap.
    #[test]
    fn arbitrary_and_mutated_requests_never_panic() {
        use deepsd_rng::{cases, mutate, random_bytes};
        const MAX_BODY: usize = 64;
        let valid: [&[u8]; 3] = [
            b"GET /predict?day=10&t=600&area=2 HTTP/1.1\r\nhost: x\r\n\r\n",
            b"POST /observe HTTP/1.1\r\ncontent-length: 31\r\n\r\n{\"orders\":[[3,600,7,0,1,true]]}",
            b"GET /metrics HTTP/1.0\r\n\r\n",
        ];
        cases(1024, |case| {
            let bytes = if case.gen_bool(0.25) {
                random_bytes(case, 256)
            } else {
                let mut b = valid[case.gen_range(0..valid.len())].to_vec();
                mutate(case, &mut b);
                b
            };
            match read_request(&mut &bytes[..], MAX_BODY) {
                Ok(req) => assert!(req.body.len() <= MAX_BODY),
                Err(HttpError::Malformed(_) | HttpError::TooLarge(_)) => {}
                Err(e) => panic!("unexpected error kind: {e}"),
            }
        });
    }

    /// Pins the exact bytes of the replies the daemon sends most, and
    /// that each leaves in a single write.
    #[test]
    fn responses_are_written_exactly_in_one_write() {
        /// Records every `write` call.
        #[derive(Default)]
        struct Writes(Vec<Vec<u8>>);
        impl Write for Writes {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut shed = Response::error(429, "queue full");
        shed.retry_after = Some(1);
        let cases = [
            (
                Response::json(200, "{\"gaps\":[1.5]}".to_string()),
                "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 14\r\n\
                 connection: close\r\n\r\n{\"gaps\":[1.5]}",
            ),
            (
                shed,
                "HTTP/1.1 429 Too Many Requests\r\ncontent-type: application/json\r\n\
                 content-length: 22\r\nconnection: close\r\nretry-after: 1\r\n\r\n\
                 {\"error\":\"queue full\"}",
            ),
            (
                Response::error(400, "bad \"day\""),
                "HTTP/1.1 400 Bad Request\r\ncontent-type: application/json\r\n\
                 content-length: 23\r\nconnection: close\r\n\r\n{\"error\":\"bad \\\"day\\\"\"}",
            ),
        ];
        for (resp, want) in cases {
            let mut out = Writes::default();
            write_response(&mut out, &resp).expect("in-memory write");
            assert_eq!(out.0.len(), 1, "status {}", resp.status);
            assert_eq!(String::from_utf8_lossy(&out.0[0]), want);
        }
    }

    #[test]
    fn head_end_detection() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nbody"), Some(14));
        assert_eq!(find_head_end(b"partial\r\n"), None);
    }
}
