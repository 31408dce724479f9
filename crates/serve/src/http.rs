//! A deliberately minimal HTTP/1.1 layer over blocking sockets.
//!
//! The container vendors no async runtime or HTTP stack, so the daemon
//! speaks just enough HTTP/1.1 for its JSON API: request line, headers
//! (`Content-Length`, `Connection`), fixed-length bodies, keep-alive.
//! No chunked encoding, no TLS, no multipart — clients are
//! [`crate::client::Client`], `minex-loadgen`, and `curl` in CI.

use std::io::{self, BufRead, Read, Write};

/// Header block size cap (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Body size cap — graph uploads are the big payload; 64 MiB bounds a
/// ~2M-edge upload with slack while keeping a misbehaving client finite.
pub const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;
/// The most a body reserves before its bytes arrive.
const BODY_RESERVE_BYTES: usize = 64 * 1024;

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// The path, without query string processing (the v1 API uses none).
    pub path: String,
    /// The raw body (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

/// Reads one request off `reader`, given `first_line` already accumulated
/// by the caller (the caller owns request-line reads so it can poll a
/// shutdown flag between requests; see `server.rs`).
///
/// # Errors
///
/// `InvalidData` on malformed framing; IO errors propagate.
pub fn read_request(reader: &mut impl BufRead, first_line: &str) -> io::Result<Request> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let mut parts = first_line.split_whitespace();
    let method = parts.next().ok_or_else(|| bad("empty request line"))?;
    let path = parts
        .next()
        .ok_or_else(|| bad("request line missing path"))?;
    let version = parts
        .next()
        .ok_or_else(|| bad("request line missing version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(bad("unsupported HTTP version"));
    }
    // HTTP/1.1 defaults to keep-alive; `Connection: close` opts out.
    let mut keep_alive = version != "HTTP/1.0";
    let mut content_length = 0usize;
    let mut head_bytes = first_line.len();
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line)?;
        if n == 0 {
            return Err(bad("connection closed mid-headers"));
        }
        head_bytes += n;
        if head_bytes > MAX_HEAD_BYTES {
            return Err(bad("header block too large"));
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(bad("malformed header"));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse().map_err(|_| bad("bad content-length"))?;
            if content_length > MAX_BODY_BYTES {
                return Err(bad("body too large"));
            }
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        }
    }
    Ok(Request {
        method: method.to_string(),
        path: path.to_string(),
        body: read_body(reader, content_length)?,
        keep_alive,
    })
}

/// Reads a body of `content_length` bytes, growing the buffer as they
/// arrive: a declared length alone must not make either side allocate it.
/// A peer that closes early is an `UnexpectedEof`.
pub(crate) fn read_body(reader: &mut impl Read, content_length: usize) -> io::Result<Vec<u8>> {
    let mut body = Vec::with_capacity(content_length.min(BODY_RESERVE_BYTES));
    reader.take(content_length as u64).read_to_end(&mut body)?;
    if body.len() < content_length {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "body shorter than Content-Length",
        ));
    }
    Ok(body)
}

/// The reason phrase for the status codes the v1 API emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Sends `head` and `body` in one `write_all`, then flushes. A message
/// split over several small writes can stall on Nagle's algorithm plus
/// the peer's delayed ACK (~40 ms per message).
fn write_message(writer: &mut impl Write, head: &str, body: &[u8]) -> io::Result<()> {
    let mut message = Vec::with_capacity(head.len() + body.len());
    message.extend_from_slice(head.as_bytes());
    message.extend_from_slice(body);
    writer.write_all(&message)?;
    writer.flush()
}

/// Writes one response (status, `Content-Type`, `Content-Length`,
/// `Connection`) in a single write and flushes.
///
/// # Errors
///
/// IO errors propagate.
pub fn write_response(
    writer: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    write_message(writer, &head, body)
}

/// Writes one JSON request (request line, `Host`, `Content-Type`,
/// `Content-Length`) in a single write and flushes.
///
/// # Errors
///
/// IO errors propagate.
pub(crate) fn write_request(
    writer: &mut impl Write,
    method: &str,
    path: &str,
    body: &[u8],
) -> io::Result<()> {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: minex\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len(),
    );
    write_message(writer, &head, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(head: &str, rest: &[u8]) -> io::Result<Request> {
        let mut reader = BufReader::new(rest);
        read_request(&mut reader, head)
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse(
            "POST /v1/sessions HTTP/1.1\r\n",
            b"Host: x\r\nContent-Length: 4\r\n\r\nabcd",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/sessions");
        assert_eq!(req.body, b"abcd");
        assert!(req.keep_alive);
    }

    #[test]
    fn connection_close_and_http10_disable_keep_alive() {
        let req = parse("GET / HTTP/1.1\r\n", b"Connection: close\r\n\r\n").unwrap();
        assert!(!req.keep_alive);
        let req = parse("GET / HTTP/1.0\r\n", b"\r\n").unwrap();
        assert!(!req.keep_alive);
    }

    #[test]
    fn rejects_malformed_framing() {
        assert!(parse("GET\r\n", b"\r\n").is_err());
        assert!(parse("GET / SPDY/3\r\n", b"\r\n").is_err());
        assert!(parse("GET / HTTP/1.1\r\n", b"NoColonHere\r\n\r\n").is_err());
        assert!(parse(
            "GET / HTTP/1.1\r\n",
            format!("Content-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1).as_bytes()
        )
        .is_err());
        assert!(parse("GET / HTTP/1.1\r\n", b"Content-Length: 9\r\n\r\nxx").is_err());
    }

    #[test]
    fn a_declared_length_without_its_bytes_is_unexpected_eof() {
        let head = format!("Content-Length: {MAX_BODY_BYTES}\r\n\r\nab");
        let err = parse("POST /v1/sessions HTTP/1.1\r\n", head.as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    /// Hands out one byte per `read`.
    struct Trickle<'a>(&'a [u8]);

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let Some((&first, rest)) = self.0.split_first() else {
                return Ok(0);
            };
            let Some(slot) = buf.first_mut() else {
                return Ok(0);
            };
            *slot = first;
            self.0 = rest;
            Ok(1)
        }
    }

    #[test]
    fn a_body_trickling_in_one_byte_per_read_comes_back_whole() {
        let body: Vec<u8> = (0..=255u8).cycle().take(70_000).collect();
        let mut rest = format!("Content-Length: {}\r\n\r\n", body.len()).into_bytes();
        rest.extend_from_slice(&body);
        let mut reader = BufReader::with_capacity(1, Trickle(&rest));
        let req = read_request(&mut reader, "POST /v1/sessions HTTP/1.1\r\n").unwrap();
        assert_eq!(req.body, body);
    }

    #[test]
    fn responses_roundtrip_through_the_parser_shape() {
        let mut out = Vec::new();
        write_response(&mut out, 503, "application/json", b"{}", false).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    /// Records every `write` call it sees.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_message_goes_out_in_one_write() {
        let body = br#"{"query":"mst"}"#;
        let mut out = CountingWriter::default();
        write_response(&mut out, 200, "application/json", body, true).unwrap();
        assert_eq!(out.writes, 1, "one write per response");
        assert!(out.bytes.ends_with(body));

        let mut out = CountingWriter::default();
        write_request(&mut out, "POST", "/v1/sessions/0/query", body).unwrap();
        assert_eq!(out.writes, 1, "one write per request");
        let sent = String::from_utf8(out.bytes).unwrap();
        let (head, rest) = sent.split_once("\r\n").unwrap();
        let req = parse(&format!("{head}\r\n"), rest.as_bytes()).unwrap();
        assert_eq!(
            (req.method.as_str(), req.path.as_str()),
            ("POST", "/v1/sessions/0/query")
        );
        assert_eq!(req.body, body);
    }
}
