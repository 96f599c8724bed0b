//! Hand-rolled HTTP/1.1 request parsing and response writing over
//! `std::net::TcpStream` — consistent with the workspace's no-registry
//! policy (see `compat/`), the service speaks exactly the subset of the
//! protocol it needs: one request per connection, `Content-Length` bodies,
//! `Connection: close` responses.
//!
//! Robustness decisions live here: the header block and body are read
//! under explicit size caps, socket read/write deadlines are the slowloris
//! defense (a stalled client trips `RequestError::TimedOut`, never a stuck
//! worker), and every malformed input maps to a typed error the server
//! turns into a 4xx/5xx response instead of a dropped connection.

use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Maximum size of the request line + headers block. Generous for any
/// legitimate client; small enough that a hostile one cannot balloon a
/// worker's memory.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// Bytes asked of the socket per read while the head arrives.
const HEAD_CHUNK: usize = 4096;

/// A parsed request: method, split target, lower-cased headers, raw body.
#[derive(Debug)]
pub struct Request {
    /// The method verbatim (`GET`, `POST`, ...).
    pub method: String,
    /// The path portion of the target, before any `?`.
    pub path: String,
    /// Decoded `key=value` query parameters, in order.
    pub query: Vec<(String, String)>,
    /// Headers with lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The body (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Bytes consumed off the wire for this request (head + body).
    pub bytes_read: u64,
}

impl Request {
    /// The first query parameter named `key`.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The first header named `key` (lower-case).
    pub fn header(&self, key: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read. Each variant maps to one response
/// status (or, for [`RequestError::Closed`], to silently dropping the
/// connection).
#[derive(Debug)]
pub enum RequestError {
    /// Syntactically invalid request line or header → 400.
    Malformed(String),
    /// Declared body exceeds the configured cap → 413.
    BodyTooLarge {
        /// The declared `Content-Length`.
        declared: usize,
        /// The configured cap it exceeded.
        limit: usize,
    },
    /// `Transfer-Encoding` is not supported → 501.
    UnsupportedTransferEncoding,
    /// A body-carrying method without `Content-Length` → 411.
    LengthRequired,
    /// The socket deadline expired before a full request arrived → 408,
    /// then close (slowloris containment).
    TimedOut,
    /// The peer closed the connection before sending a full request; no
    /// response is possible or owed.
    Closed,
    /// Any other socket failure.
    Io(io::Error),
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Malformed(m) => write!(f, "malformed request: {m}"),
            RequestError::BodyTooLarge { declared, limit } => {
                write!(f, "body of {declared} byte(s) exceeds the {limit}-byte cap")
            }
            RequestError::UnsupportedTransferEncoding => {
                f.write_str("transfer encodings are not supported; send Content-Length")
            }
            RequestError::LengthRequired => f.write_str("Content-Length is required"),
            RequestError::TimedOut => f.write_str("timed out reading the request"),
            RequestError::Closed => f.write_str("connection closed mid-request"),
            RequestError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

/// Fold socket errors into the two cases the server treats differently:
/// deadline expiry vs. everything else.
fn io_error(e: io::Error) -> RequestError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => RequestError::TimedOut,
        io::ErrorKind::UnexpectedEof
        | io::ErrorKind::ConnectionReset
        | io::ErrorKind::ConnectionAborted
        | io::ErrorKind::BrokenPipe => RequestError::Closed,
        _ => RequestError::Io(e),
    }
}

/// Read one request off the stream. `max_body` caps `Content-Length`;
/// the head block is capped at [`MAX_HEAD_BYTES`]. Socket deadlines must
/// already be set by the caller.
pub fn read_request(stream: &mut TcpStream, max_body: usize) -> Result<Request, RequestError> {
    // Read in chunks until the blank line, so a head costs a few `read`
    // calls. A chunk may run past the head into the body; the bytes after
    // the blank line are kept as the body's start.
    let mut buf = Vec::with_capacity(HEAD_CHUNK);
    let mut chunk = [0u8; HEAD_CHUNK];
    let head_len = loop {
        let n = match stream.read(&mut chunk) {
            Ok(0) => {
                return if buf.is_empty() {
                    Err(RequestError::Closed)
                } else {
                    Err(RequestError::Malformed("truncated header block".into()))
                };
            }
            Ok(n) => n,
            Err(e) => return Err(io_error(e)),
        };
        // The blank line may straddle the previous chunk's end.
        let from = buf.len().saturating_sub(3);
        buf.extend_from_slice(&chunk[..n]);
        let end = buf[from..]
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .map(|at| from + at + 4);
        if end.unwrap_or(buf.len()) > MAX_HEAD_BYTES {
            return Err(RequestError::Malformed(format!(
                "header block exceeds {MAX_HEAD_BYTES} bytes"
            )));
        }
        if let Some(end) = end {
            break end;
        }
    };

    let (head, early_body) = buf.split_at(head_len);
    let head = std::str::from_utf8(head)
        .map_err(|_| RequestError::Malformed("header block is not UTF-8".into()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(RequestError::Malformed(format!(
                "bad request line {request_line:?}"
            )))
        }
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(RequestError::Malformed(format!(
            "unsupported protocol {version:?}"
        )));
    }
    if !method.bytes().all(|b| b.is_ascii_uppercase()) {
        return Err(RequestError::Malformed(format!("bad method {method:?}")));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue; // the blank terminator
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(RequestError::Malformed(format!("bad header {line:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let (path, query) = split_target(target);

    // Body: Content-Length only. Reject transfer encodings outright and
    // require a length for methods that carry bodies.
    let header = |name: &str| {
        headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    };
    if header("transfer-encoding").is_some() {
        return Err(RequestError::UnsupportedTransferEncoding);
    }
    let declared = match header("content-length") {
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| RequestError::Malformed(format!("bad Content-Length {v:?}")))?,
        None if method == "POST" || method == "PUT" => return Err(RequestError::LengthRequired),
        None => 0,
    };
    if declared > max_body {
        return Err(RequestError::BodyTooLarge {
            declared,
            limit: max_body,
        });
    }
    // Bytes past the declared body are dropped: one request per
    // connection.
    let early = early_body.len().min(declared);
    let mut body = vec![0u8; declared];
    body[..early].copy_from_slice(&early_body[..early]);
    stream.read_exact(&mut body[early..]).map_err(io_error)?;

    Ok(Request {
        method: method.to_string(),
        path,
        query,
        headers,
        body,
        bytes_read: (head_len + declared) as u64,
    })
}

/// Split `"/v1/scan?fuel=9&no_prune=1"` into the path and its decoded
/// parameters. Decoding covers `+` and `%XX` — enough for every value the
/// API accepts (numbers and short flags).
fn split_target(target: &str) -> (String, Vec<(String, String)>) {
    match target.split_once('?') {
        None => (target.to_string(), Vec::new()),
        Some((path, qs)) => {
            let params = qs
                .split('&')
                .filter(|p| !p.is_empty())
                .map(|pair| match pair.split_once('=') {
                    Some((k, v)) => (percent_decode(k), percent_decode(v)),
                    None => (percent_decode(pair), String::new()),
                })
                .collect();
            (path.to_string(), params)
        }
    }
}

/// Minimal percent-decoding (`+` → space, `%XX` → byte). Invalid escapes
/// pass through verbatim rather than failing the whole request.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => out.push(b' '),
            b'%' => match (hex(bytes.get(i + 1)), hex(bytes.get(i + 2))) {
                (Some(hi), Some(lo)) => {
                    out.push(hi * 16 + lo);
                    i += 2;
                }
                _ => out.push(b'%'),
            },
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn hex(b: Option<&u8>) -> Option<u8> {
    b.and_then(|b| (*b as char).to_digit(16)).map(|d| d as u8)
}

/// A response ready to serialize: status, content type, extra headers,
/// body. Every response closes the connection (`Connection: close`), which
/// keeps worker scheduling fair under load — no connection can camp on a
/// worker between requests.
#[derive(Debug)]
pub struct Response {
    /// The status code.
    pub status: u16,
    /// The `Content-Type` value.
    pub content_type: &'static str,
    /// Additional headers (name, value).
    pub extra_headers: Vec<(String, String)>,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            extra_headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// A plain-text response with the given status.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            extra_headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// A one-line JSON error document: `{"error": "..."}`.
    pub fn error(status: u16, message: &str) -> Response {
        let doc = serde_json::Value::Object(vec![(
            "error".to_string(),
            serde_json::Value::String(message.to_string()),
        )]);
        let mut body = serde_json::to_string(&doc).unwrap_or_else(|_| "{}".into());
        body.push('\n');
        Response::json(status, body)
    }

    /// Add a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.extra_headers
            .push((name.to_string(), value.to_string()));
        self
    }

    /// Serialize and write the full response. Returns the bytes written.
    pub fn write_to(&self, stream: &mut TcpStream) -> io::Result<u64> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            reason(self.status),
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.extra_headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()?;
        Ok((head.len() + self.body.len()) as u64)
    }
}

/// The reason phrase for each status the service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        207 => "Multi-Status",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        411 => "Length Required",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_splitting_and_decoding() {
        let (path, query) = split_target("/v1/scan?fuel=100&no_prune=1&name=a%20b+c");
        assert_eq!(path, "/v1/scan");
        assert_eq!(
            query,
            vec![
                ("fuel".to_string(), "100".to_string()),
                ("no_prune".to_string(), "1".to_string()),
                ("name".to_string(), "a b c".to_string()),
            ]
        );
        let (path, query) = split_target("/healthz");
        assert_eq!(path, "/healthz");
        assert!(query.is_empty());
    }

    #[test]
    fn invalid_percent_escapes_pass_through() {
        assert_eq!(percent_decode("100%"), "100%");
        assert_eq!(percent_decode("a%zz"), "a%zz");
        assert_eq!(percent_decode("%41"), "A");
    }

    #[test]
    fn reason_phrases_cover_the_emitted_codes() {
        for code in [
            200, 207, 400, 404, 405, 408, 409, 411, 413, 422, 500, 501, 503,
        ] {
            assert_ne!(reason(code), "Unknown", "code {code}");
        }
    }
}
