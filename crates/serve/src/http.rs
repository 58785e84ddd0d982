//! Minimal HTTP/1.1 — just enough protocol for a localhost synthetics
//! daemon: one request per connection, `Content-Length` bodies,
//! `Connection: close` responses. Hand-rolled over `std::net` because
//! the build environment vendors its dependencies; the subset here is
//! the stable core of RFC 9112 (request line, header block, sized
//! body), with hard limits so a garbage peer cannot balloon memory.

use std::io::{BufRead, Write};

/// Upper bound on the request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a request body.
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, …).
    pub method: String,
    /// Path component of the request target (query string stripped).
    pub path: String,
    /// Body bytes (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

/// Why a request could not be read. Each maps to one 4xx response; the
/// daemon never answers a malformed head with anything but a typed
/// error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The peer closed before sending a complete request head.
    Closed,
    /// Socket-level failure (represented by its message: `std::io::Error`
    /// is not `Clone`/`Eq`, and callers only report the text).
    Io(String),
    /// The request line or a header line was not HTTP.
    BadRequest(String),
    /// The head exceeded [`MAX_HEAD_BYTES`].
    HeadTooLarge,
    /// `Content-Length` exceeded [`MAX_BODY_BYTES`].
    BodyTooLarge(usize),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Closed => write!(f, "connection closed mid-request"),
            HttpError::Io(e) => write!(f, "socket error: {e}"),
            HttpError::BadRequest(d) => write!(f, "malformed request: {d}"),
            HttpError::HeadTooLarge => {
                write!(f, "request head exceeds {MAX_HEAD_BYTES} bytes")
            }
            HttpError::BodyTooLarge(n) => {
                write!(f, "request body of {n} bytes exceeds {MAX_BODY_BYTES}")
            }
        }
    }
}

fn io_err(e: std::io::Error) -> HttpError {
    HttpError::Io(e.to_string())
}

/// Read one CRLF- (or bare-LF-) terminated line, bounding total head
/// consumption via `budget`.
fn read_line(stream: &mut impl BufRead, budget: &mut usize) -> Result<String, HttpError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match stream.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Err(HttpError::Closed);
                }
                break;
            }
            Ok(_) => {
                *budget = budget.checked_sub(1).ok_or(HttpError::HeadTooLarge)?;
                if byte[0] == b'\n' {
                    break;
                }
                line.push(byte[0]);
            }
            Err(e) => return Err(io_err(e)),
        }
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| HttpError::BadRequest("non-UTF-8 header line".into()))
}

/// Read and parse one request from the stream.
pub fn read_request(stream: &mut impl BufRead) -> Result<Request, HttpError> {
    let mut budget = MAX_HEAD_BYTES;
    let request_line = read_line(stream, &mut budget)?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("empty request line".into()))?
        .to_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("request line missing target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::BadRequest("request line missing version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!(
            "unsupported version {version}"
        )));
    }
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut content_length = 0usize;
    loop {
        let line = read_line(stream, &mut budget)?;
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadRequest(format!(
                "header without colon: {line}"
            )));
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| HttpError::BadRequest(format!("bad Content-Length: {value}")))?;
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::BodyTooLarge(content_length));
    }
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).map_err(io_err)?;
    Ok(Request { method, path, body })
}

/// Write one `Connection: close` response with a JSON body, in one
/// `write` where the stream takes it: a head written piece by piece goes
/// out as several small segments.
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    reason: &str,
    body: &str,
) -> std::io::Result<()> {
    let response = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Parse one response off a stream: `(status, body)`. The client half of
/// [`write_response`], shared by the load generator and the tests.
pub fn read_response(stream: &mut impl BufRead) -> Result<(u16, String), HttpError> {
    let mut budget = MAX_HEAD_BYTES;
    let status_line = read_line(stream, &mut budget)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| HttpError::BadRequest(format!("bad status line: {status_line}")))?;
    let mut content_length = 0usize;
    loop {
        let line = read_line(stream, &mut budget)?;
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| HttpError::BadRequest(format!("bad Content-Length: {value}")))?;
            }
        }
    }
    let mut body = vec![0u8; content_length];
    stream.read_exact(&mut body).map_err(io_err)?;
    String::from_utf8(body)
        .map(|b| (status, b))
        .map_err(|_| HttpError::BadRequest("non-UTF-8 response body".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(raw: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut Cursor::new(raw.to_vec()))
    }

    #[test]
    fn parses_get_without_body() {
        let r = parse(b"GET /health HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/health");
        assert!(r.body.is_empty());
    }

    #[test]
    fn parses_post_with_body_and_query() {
        let r = parse(b"post /simulate?x=1 HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd").unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.path, "/simulate");
        assert_eq!(r.body, b"abcd");
    }

    #[test]
    fn bare_lf_lines_are_tolerated() {
        let r = parse(b"GET /metrics HTTP/1.0\nContent-Length: 0\n\n").unwrap();
        assert_eq!(r.path, "/metrics");
    }

    #[test]
    fn malformed_heads_are_typed_errors() {
        assert!(matches!(parse(b"\r\n\r\n"), Err(HttpError::BadRequest(_))));
        assert!(matches!(
            parse(b"GET /x SPDY/3\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse(b"GET /x HTTP/1.1\r\nbroken header\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert!(matches!(
            parse(b"GET /x HTTP/1.1\r\nContent-Length: lots\r\n\r\n"),
            Err(HttpError::BadRequest(_))
        ));
        assert_eq!(parse(b""), Err(HttpError::Closed));
    }

    #[test]
    fn oversized_head_and_body_are_bounded() {
        let mut huge = b"GET /x HTTP/1.1\r\n".to_vec();
        huge.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 10));
        assert_eq!(parse(&huge), Err(HttpError::HeadTooLarge));
        let declared = MAX_BODY_BYTES + 1;
        let req = format!("POST /x HTTP/1.1\r\nContent-Length: {declared}\r\n\r\n");
        assert_eq!(
            parse(req.as_bytes()),
            Err(HttpError::BodyTooLarge(declared))
        );
    }

    #[test]
    fn response_roundtrip() {
        let mut wire = Vec::new();
        write_response(&mut wire, 200, "OK", "{\"ok\":true}").unwrap();
        let (status, body) = read_response(&mut Cursor::new(wire)).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "{\"ok\":true}");
    }
}
