//! Minimal HTTP/1.1 framing over a [`TcpStream`], with the connection
//! hygiene the accept loop relies on: every read is bounded by the
//! stream's read timeout and by explicit header/body size caps, so a
//! slow, silent, or malformed client costs a worker at most one timeout
//! — never a wedge.
//!
//! Supported surface: request line + headers + `Content-Length` bodies,
//! keep-alive (the default in 1.1) and `Connection: close`. Chunked
//! transfer encoding is rejected with `400` — no shipped client uses it.

use std::io::{Read, Write};
use std::net::TcpStream;

/// Why reading a request failed.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed the connection cleanly before sending anything.
    Closed,
    /// The read timeout expired; `partial` says whether any bytes of a
    /// request had already arrived (a half-written request → `408`)
    /// or the connection was simply idle (close silently).
    Timeout {
        /// Whether a partial request was on the wire.
        partial: bool,
    },
    /// Headers or body exceeded the configured caps (→ `413`).
    TooLarge,
    /// The bytes did not parse as an HTTP/1.1 request (→ `400`).
    Malformed(String),
    /// An I/O error other than a timeout.
    Io(std::io::Error),
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Request method, upper-case as sent (`GET`, `POST`, …).
    pub method: String,
    /// Request target (path + optional query), as sent.
    pub path: String,
    /// Header `(name, value)` pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of header `name` (lower-case), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to keep the connection open (HTTP/1.1
    /// default unless `Connection: close`).
    pub fn keep_alive(&self) -> bool {
        !self
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// One server side of a connection: the stream plus a carry-over buffer
/// so pipelined bytes past a request boundary are not lost between
/// keep-alive requests.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// Cap on the request line + headers, separate from the body cap.
const MAX_HEAD_BYTES: usize = 16 * 1024;

impl Conn {
    /// Wraps an accepted stream. The caller is expected to have set the
    /// stream's read/write timeouts.
    pub fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            buf: Vec::new(),
        }
    }

    /// Reads and parses one request, enforcing the head cap and
    /// `max_body` (plus the stream's read timeout per `read` call).
    ///
    /// # Errors
    ///
    /// See [`HttpError`].
    pub fn read_request(&mut self, max_body: usize) -> Result<Request, HttpError> {
        // Find the end of the head, reading more as needed.
        let head_end = loop {
            if let Some(pos) = find_subslice(&self.buf, b"\r\n\r\n") {
                break pos + 4;
            }
            if self.buf.len() > MAX_HEAD_BYTES {
                return Err(HttpError::TooLarge);
            }
            self.fill(!self.buf.is_empty())?;
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).into_owned();
        let mut lines = head.split("\r\n");
        let request_line = lines.next().unwrap_or_default();
        let mut parts = request_line.split(' ');
        let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(p), Some(v)) if !m.is_empty() && !p.is_empty() => {
                (m.to_string(), p.to_string(), v)
            }
            _ => {
                return Err(HttpError::Malformed(format!(
                    "bad request line: {request_line:?}"
                )))
            }
        };
        if !version.starts_with("HTTP/1.") {
            return Err(HttpError::Malformed(format!("bad version: {version:?}")));
        }
        let mut headers = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let Some((name, value)) = line.split_once(':') else {
                return Err(HttpError::Malformed(format!("bad header line: {line:?}")));
            };
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
        let request = Request {
            method,
            path,
            headers,
            body: Vec::new(),
        };
        if request.header("transfer-encoding").is_some() {
            return Err(HttpError::Malformed(
                "chunked transfer encoding is not supported".to_string(),
            ));
        }
        // Fail closed on framing: a second `Content-Length` or a value
        // that is not all ASCII digits (`parse` alone accepts `+5`) could
        // be read differently by a proxy in front of this server.
        let mut lengths = request
            .headers
            .iter()
            .filter(|(k, _)| k == "content-length");
        let content_length = match (lengths.next(), lengths.next()) {
            (None, _) => 0,
            (Some((_, v)), None) => v
                .parse::<usize>()
                .ok()
                .filter(|_| v.bytes().all(|b| b.is_ascii_digit()))
                .ok_or_else(|| HttpError::Malformed(format!("bad content-length: {v:?}")))?,
            (Some(_), Some(_)) => {
                return Err(HttpError::Malformed(
                    "more than one content-length header".to_string(),
                ))
            }
        };
        if content_length > max_body {
            return Err(HttpError::TooLarge);
        }
        // Read the body, then carry any pipelined surplus over.
        while self.buf.len() < head_end + content_length {
            self.fill(true)?;
        }
        let mut request = request;
        request.body = self.buf[head_end..head_end + content_length].to_vec();
        self.buf.drain(..head_end + content_length);
        Ok(request)
    }

    /// Reads more bytes into the carry-over buffer. `partial` marks
    /// whether a request is already in flight (decides the timeout
    /// flavor).
    fn fill(&mut self, partial: bool) -> Result<(), HttpError> {
        let mut chunk = [0u8; 4096];
        match self.stream.read(&mut chunk) {
            Ok(0) => {
                if self.buf.is_empty() && !partial {
                    Err(HttpError::Closed)
                } else {
                    Err(HttpError::Malformed(
                        "connection closed mid-request".to_string(),
                    ))
                }
            }
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Err(HttpError::Timeout {
                    partial: partial || !self.buf.is_empty(),
                })
            }
            Err(e) => Err(HttpError::Io(e)),
        }
    }

    /// Writes one response. `keep_alive` controls the `Connection`
    /// header — the framing a compliant client needs to reuse the
    /// connection.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn write_response(
        &mut self,
        status: u16,
        content_type: &str,
        body: &[u8],
        keep_alive: bool,
    ) -> std::io::Result<()> {
        let head = format!(
            "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
            status_reason(status),
            body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body)?;
        self.stream.flush()
    }

    /// Deliberately writes only a prefix of the response and stops —
    /// the fault-injection layer's mid-response connection drop. The
    /// head advertises the full `Content-Length`, so a client that
    /// trusts the framing sees an unexpected EOF mid-body, exactly like
    /// a server crashing between `write` calls. The caller must drop
    /// the connection afterwards.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn write_truncated_response(
        &mut self,
        status: u16,
        content_type: &str,
        body: &[u8],
    ) -> std::io::Result<()> {
        let head = format!(
            "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            status_reason(status),
            body.len(),
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(&body[..body.len() / 2])?;
        self.stream.flush()
    }
}

/// Canonical reason phrase of the status codes this server emits.
pub fn status_reason(status: u16) -> &'static str {
    match status {
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
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack
        .windows(needle.len())
        .position(|window| window == needle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, Conn) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server
            .set_read_timeout(Some(std::time::Duration::from_millis(200)))
            .unwrap();
        (client, Conn::new(server))
    }

    #[test]
    fn parses_request_with_body_and_keeps_pipelined_surplus() {
        let (mut client, mut conn) = pair();
        client
            .write_all(b"POST /v1/infer HTTP/1.1\r\nContent-Length: 5\r\nX-Test: a\r\n\r\nhelloGET /healthz HTTP/1.1\r\n\r\n")
            .unwrap();
        let req = conn.read_request(1024).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/infer");
        assert_eq!(req.header("x-test"), Some("a"));
        assert_eq!(req.body, b"hello");
        assert!(req.keep_alive());
        let next = conn.read_request(1024).unwrap();
        assert_eq!(next.method, "GET");
        assert_eq!(next.path, "/healthz");
    }

    #[test]
    fn half_written_request_times_out_as_partial() {
        let (mut client, mut conn) = pair();
        client
            .write_all(b"POST /v1/infer HTTP/1.1\r\nContent-Len")
            .unwrap();
        match conn.read_request(1024) {
            Err(HttpError::Timeout { partial }) => assert!(partial),
            other => panic!("expected partial timeout, got {other:?}"),
        }
    }

    #[test]
    fn idle_connection_times_out_as_non_partial() {
        let (_client, mut conn) = pair();
        match conn.read_request(1024) {
            Err(HttpError::Timeout { partial }) => assert!(!partial),
            other => panic!("expected idle timeout, got {other:?}"),
        }
    }

    #[test]
    fn clean_close_before_any_bytes_is_closed() {
        let (client, mut conn) = pair();
        drop(client);
        assert!(matches!(conn.read_request(1024), Err(HttpError::Closed)));
    }

    #[test]
    fn oversized_body_is_rejected_before_reading_it() {
        let (mut client, mut conn) = pair();
        client
            .write_all(b"POST /x HTTP/1.1\r\nContent-Length: 999999\r\n\r\n")
            .unwrap();
        assert!(matches!(conn.read_request(1024), Err(HttpError::TooLarge)));
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        let cases: [&[u8]; 6] = [
            b"NOT-HTTP\r\n\r\n",
            b"GET /x SPDY/3\r\n\r\n",
            b"GET /x HTTP/1.1\r\nbadheader\r\n\r\n",
            b"GET /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            b"POST /x HTTP/1.1\r\nContent-Length: 1\r\ncontent-length: 1\r\n\r\nx",
            b"POST /x HTTP/1.1\r\nContent-Length: +1\r\n\r\nx",
        ];
        for case in cases {
            let (mut client, mut conn) = pair();
            client.write_all(case).unwrap();
            assert!(
                matches!(conn.read_request(1024), Err(HttpError::Malformed(_))),
                "{}",
                String::from_utf8_lossy(case)
            );
        }
    }

    #[test]
    fn truncated_response_stops_mid_body() {
        let (mut client, mut conn) = pair();
        conn.write_truncated_response(200, "application/json", b"0123456789")
            .unwrap();
        drop(conn);
        let mut raw = Vec::new();
        client.read_to_end(&mut raw).unwrap();
        let text = String::from_utf8_lossy(&raw);
        assert!(text.contains("Content-Length: 10"));
        assert!(text.ends_with("01234"), "got {text:?}");
    }

    #[test]
    fn connection_close_is_honored() {
        let (mut client, mut conn) = pair();
        client
            .write_all(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let req = conn.read_request(1024).unwrap();
        assert!(!req.keep_alive());
        conn.write_response(200, "text/plain", b"bye", false)
            .unwrap();
        drop(conn); // server closes; the client read below needs the EOF
        let mut response = String::new();
        client.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(response.contains("Connection: close"));
        assert!(response.ends_with("bye"));
    }
}
