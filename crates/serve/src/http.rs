//! Minimal HTTP/1.1 framing over `std::net` — just enough protocol for
//! a keep-alive JSON API: request-line + header parsing with size
//! limits, `Content-Length` bodies, and response writing. No chunked
//! transfer, no TLS, no external dependencies.

use std::io::{self, BufRead, Read, Write};

/// Maximum accepted size of the request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Maximum accepted request body size.
pub const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Method verb (`GET`, `POST`, ...), uppercase as sent.
    pub method: String,
    /// Request path (query string included, if any).
    pub path: String,
    /// Headers as (lowercased-name, value) pairs.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// `read_line` with the size limit enforced *while* reading: a line
/// that would push the head past its budget fails before it is
/// buffered, so a newline-free byte stream cannot grow memory
/// unboundedly (the same no-unbounded-allocation rule the checkpoint
/// decoder follows). Returns the bytes consumed.
fn read_line_bounded<R: BufRead>(
    stream: &mut R,
    line: &mut String,
    budget: usize,
) -> io::Result<usize> {
    let mut limited = stream.by_ref().take(budget as u64 + 1);
    let n = limited.read_line(line)?;
    if n > budget {
        return Err(bad("request head too large"));
    }
    Ok(n)
}

/// Read one request from a buffered stream.
///
/// Returns `Ok(None)` on clean EOF before any bytes (client closed a
/// keep-alive connection) and `Err` on malformed or oversized input.
pub fn read_request<R: BufRead>(stream: &mut R) -> io::Result<Option<Request>> {
    // Head: accumulate lines until the blank separator.
    let mut line = String::new();
    let n = read_line_bounded(stream, &mut line, MAX_HEAD_BYTES)?;
    if n == 0 {
        return Ok(None);
    }
    let mut head_bytes = n;
    let request_line = line.trim_end().to_string();
    let mut parts = request_line.split_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) if v.starts_with("HTTP/1.") => {
            (m.to_string(), p.to_string(), v)
        }
        _ => return Err(bad("malformed request line")),
    };
    let _ = version;

    let mut headers = Vec::new();
    loop {
        let mut hline = String::new();
        let n = read_line_bounded(stream, &mut hline, MAX_HEAD_BYTES - head_bytes)?;
        if n == 0 {
            return Err(bad("eof inside headers"));
        }
        head_bytes += n;
        let trimmed = hline.trim_end();
        if trimmed.is_empty() {
            break;
        }
        let (k, v) = trimmed
            .split_once(':')
            .ok_or_else(|| bad("malformed header"))?;
        headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
    }

    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| v.parse::<usize>().map_err(|_| bad("bad content-length")))
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(bad("request body too large"));
    }
    // Grow the body as bytes actually arrive rather than allocating
    // the client-claimed Content-Length up front — a header alone must
    // not be able to pin 64 MiB per connection.
    let mut body = Vec::new();
    stream
        .by_ref()
        .take(content_length as u64)
        .read_to_end(&mut body)?;
    if body.len() != content_length {
        return Err(bad("body shorter than content-length"));
    }
    Ok(Some(Request {
        method,
        path,
        headers,
        body,
    }))
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Standard reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Content",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write a response with a `Content-Length` body.
pub fn write_response<W: Write>(
    stream: &mut W,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    let conn = if keep_alive { "keep-alive" } else { "close" };
    write!(
        stream,
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n\r\n",
        status,
        reason(status),
        content_type,
        body.len(),
        conn
    )?;
    stream.write_all(body)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn parses_a_post_with_body() {
        let raw = b"POST /v1/predict HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello";
        let req = read_request(&mut BufReader::new(&raw[..]))
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/predict");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"hello");
        assert!(!req.wants_close());
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(read_request(&mut BufReader::new(&b""[..]))
            .unwrap()
            .is_none());
    }

    #[test]
    fn rejects_malformed_request_lines() {
        for raw in [
            &b"GARBAGE\r\n\r\n"[..],
            &b"GET /\r\n\r\n"[..],
            &b"GET / SPDY/9\r\n\r\n"[..],
        ] {
            assert!(read_request(&mut BufReader::new(raw)).is_err());
        }
    }

    #[test]
    fn newline_free_floods_fail_without_unbounded_buffering() {
        // A request "line" with no terminator must error once it passes
        // the head budget — not accumulate bytes until memory runs out.
        struct Zeros;
        impl std::io::Read for Zeros {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                buf.fill(b'a');
                Ok(buf.len())
            }
        }
        let mut endless = BufReader::new(Zeros);
        assert!(read_request(&mut endless).is_err());
    }

    #[test]
    fn rejects_oversized_heads() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..2000 {
            raw.extend_from_slice(format!("x-h{i}: {}\r\n", "v".repeat(20)).as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        assert!(read_request(&mut BufReader::new(&raw[..])).is_err());
    }

    #[test]
    fn response_is_well_formed() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "application/json", b"{}", true).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(s.contains("content-length: 2\r\n"));
        assert!(s.contains("connection: keep-alive\r\n"));
        assert!(s.ends_with("\r\n\r\n{}"));
    }
}
