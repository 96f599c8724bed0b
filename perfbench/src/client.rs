//! A minimal HTTP/1.1 client for the in-process server: one request per
//! connection, as the server speaks (`Connection: close`).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed response.
#[derive(Debug)]
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// The `X-Generation` header, when present.
    pub generation: Option<u64>,
    /// The body.
    pub body: String,
}

/// Send one request and read the whole response.
pub fn send(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> io::Result<Reply> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.set_nodelay(true)?;
    let mut raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body);
    stream.write_all(&raw)?;
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf)?;
    parse_reply(&buf)
}

fn parse_reply(buf: &[u8]) -> io::Result<Reply> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let split = buf
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("response has no header terminator"))?;
    let head = std::str::from_utf8(&buf[..split]).map_err(|_| bad("response head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let generation = lines.find_map(|l| {
        let (name, value) = l.split_once(':')?;
        name.eq_ignore_ascii_case("x-generation")
            .then(|| value.trim().parse().ok())
            .flatten()
    });
    let body =
        String::from_utf8(buf[split + 4..].to_vec()).map_err(|_| bad("body is not UTF-8"))?;
    Ok(Reply {
        status,
        generation,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_generation_and_body() {
        let r = parse_reply(b"HTTP/1.1 200 OK\r\nX-Generation: 7\r\nContent-Length: 2\r\n\r\n{}")
            .unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.generation, Some(7));
        assert_eq!(r.body, "{}");
        assert!(parse_reply(b"garbage").is_err());
    }
}
