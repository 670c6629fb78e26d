//! Minimal HTTP/1.1 framing over blocking streams.
//!
//! Just enough of RFC 7230 for the telemetry plane: one request per
//! connection (every response carries `Connection: close`), bounded head
//! and body sizes, `Content-Length` bodies only (no chunked encoding).
//! Query strings are split on `&`/`=` without percent-decoding — every
//! parameter this server accepts is a plain integer.

use std::io::{self, BufRead, Read, Write};

use relpat_obs::Json;

/// Upper bound on the request line + headers.
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on an accepted request body.
const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed inbound request.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    /// Path component only, query string stripped.
    pub path: String,
    /// Decoded `key=value` pairs from the query string, in order.
    pub query: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Request {
    /// First value for a query parameter, if present.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Body as UTF-8, if valid.
    pub fn body_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum ReadError {
    /// Peer closed the connection before sending a request line.
    Eof,
    /// Transport failure (including read timeout).
    Io(io::Error),
    /// Malformed request; the message is safe to echo in a 400 body.
    Bad(&'static str),
}

impl From<io::Error> for ReadError {
    fn from(e: io::Error) -> Self {
        ReadError::Io(e)
    }
}

/// Reads one line of the request head (up to and including `\n`, or to
/// EOF) and counts it against `left`, the head bytes still allowed under
/// [`MAX_HEAD_BYTES`]. At most `left + 1` bytes are read, so a peer that
/// streams bytes without a newline is cut off at the cap, not buffered.
fn read_head_line(reader: &mut impl BufRead, left: &mut usize) -> Result<String, ReadError> {
    let mut line = Vec::new();
    let n = Read::take(&mut *reader, *left as u64 + 1).read_until(b'\n', &mut line)?;
    if n > *left {
        return Err(ReadError::Bad("request head too large"));
    }
    *left -= n;
    String::from_utf8(line).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e).into())
}

/// Reads one request from the stream.
pub fn read_request(reader: &mut impl BufRead) -> Result<Request, ReadError> {
    let mut head_left = MAX_HEAD_BYTES;
    let line = read_head_line(reader, &mut head_left)?;
    if line.is_empty() {
        return Err(ReadError::Eof);
    }
    let request_line = line.trim_end_matches(['\r', '\n']);
    let mut parts = request_line.split_ascii_whitespace();
    let method = parts.next().ok_or(ReadError::Bad("empty request line"))?.to_string();
    let target = parts.next().ok_or(ReadError::Bad("missing request target"))?;
    let version = parts.next().ok_or(ReadError::Bad("missing HTTP version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(ReadError::Bad("unsupported HTTP version"));
    }

    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query = query_str
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (kv.to_string(), String::new()),
        })
        .collect();

    let mut content_length = 0usize;
    loop {
        let header = read_head_line(reader, &mut head_left)?;
        if header.is_empty() {
            return Err(ReadError::Bad("truncated headers"));
        }
        let header = header.trim_end_matches(['\r', '\n']);
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| ReadError::Bad("invalid Content-Length"))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(ReadError::Bad("request body too large"));
    }

    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Request { method, path: path.to_string(), query, body })
}

/// An outbound response; always closes the connection.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    pub body: Vec<u8>,
}

impl Response {
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
        }
    }

    pub fn json(status: u16, body: &Json) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: body.to_string().into_bytes(),
        }
    }

    /// Standard error shape: `{"error": "..."}`.
    pub fn error(status: u16, message: &str) -> Response {
        Response::json(status, &Json::obj().set("error", message))
    }

    /// Prometheus text exposition format v0.0.4.
    pub fn prometheus(body: String) -> Response {
        Response {
            status: 200,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            body: body.into_bytes(),
        }
    }

    /// Writes head and body with one `write_all`: one `send` on a socket.
    pub fn write_to(&self, writer: &mut impl Write) -> io::Result<()> {
        let mut out = Vec::with_capacity(128 + self.body.len());
        write!(
            out,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            reason_phrase(self.status),
            self.content_type,
            self.body.len(),
        )?;
        out.extend_from_slice(&self.body);
        writer.write_all(&out)?;
        writer.flush()
    }
}

fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, ReadError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_request_line_query_and_body() {
        let req = parse(
            "POST /answer?slow=3&verbose HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nbody",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/answer");
        assert_eq!(req.query_param("slow"), Some("3"));
        assert_eq!(req.query_param("verbose"), Some(""));
        assert_eq!(req.body_str(), Some("body"));
    }

    #[test]
    fn eof_before_request_line_is_distinguished_from_bad_requests() {
        assert!(matches!(parse(""), Err(ReadError::Eof)));
        assert!(matches!(parse("GET\r\n\r\n"), Err(ReadError::Bad(_))));
        assert!(matches!(parse("GET / SPDY/3\r\n\r\n"), Err(ReadError::Bad(_))));
    }

    /// Reads `raw` and returns the outcome with the bytes consumed.
    fn read_counted(raw: Vec<u8>) -> (Result<Request, ReadError>, u64) {
        let mut cursor = io::Cursor::new(raw);
        let result = read_request(&mut cursor);
        (result, cursor.position())
    }

    #[test]
    fn unterminated_request_line_stops_at_the_head_cap() {
        let mut raw = b"GET /".to_vec();
        raw.resize(1 << 20, b'a');
        let (result, consumed) = read_counted(raw);
        assert!(matches!(result, Err(ReadError::Bad("request head too large"))), "{result:?}");
        assert!(consumed <= MAX_HEAD_BYTES as u64 + 1, "consumed {consumed} bytes");
    }

    #[test]
    fn unterminated_header_line_stops_at_the_head_cap() {
        let mut raw = b"GET / HTTP/1.1\r\nX-Fill: ".to_vec();
        raw.resize(1 << 20, b'a');
        let (result, consumed) = read_counted(raw);
        assert!(matches!(result, Err(ReadError::Bad("request head too large"))), "{result:?}");
        assert!(consumed <= MAX_HEAD_BYTES as u64 + 1, "consumed {consumed} bytes");
    }

    #[test]
    fn oversized_content_length_is_rejected() {
        let raw = "POST / HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n";
        assert!(matches!(parse(raw), Err(ReadError::Bad(_))));
    }

    #[test]
    fn response_wire_format_has_length_and_close() {
        let mut out = Vec::new();
        Response::text(200, "ok\n").write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 3\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\nok\n"));
    }

    /// Records every `write` call it receives.
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
    fn each_response_is_written_with_one_write_call() {
        let json = Json::obj().set("answers", Json::Arr(vec![Json::from("Snow")]));
        for response in
            [Response::text(200, "ok\n"), Response::json(200, &json), Response::error(404, "nope")]
        {
            let mut writer = CountingWriter::default();
            response.write_to(&mut writer).unwrap();
            assert_eq!(writer.writes, 1, "{response:?}");
            let status_line = format!("HTTP/1.1 {} ", response.status);
            assert!(writer.bytes.starts_with(status_line.as_bytes()), "{response:?}");
            assert!(writer.bytes.ends_with(&response.body), "{response:?}");
        }
    }
}
