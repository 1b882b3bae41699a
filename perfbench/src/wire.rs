//! A minimal HTTP/1.1 keep-alive client for the load generators, framed
//! by `Content-Length`. It is the benchmark's own, not the server
//! crate's client, so the load generator stays fixed when the code under
//! test changes.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// The parts of a response the benchmark checks.
pub struct Response {
    pub status: u16,
    pub cache_hits: Option<u64>,
    pub cache_misses: Option<u64>,
    pub body: String,
}

/// The wire bytes of a `POST /v1/solve` carrying `body`.
pub fn solve_request(body: &str) -> Vec<u8> {
    format!(
        "POST /v1/solve HTTP/1.1\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A keep-alive connection: writes go straight to the socket, reads are
/// buffered so pipelined responses split across reads are reassembled.
pub struct Conn {
    pub stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(16 * 1024),
        })
    }

    /// A second handle on the same socket, for a reader thread.
    pub fn split(&self) -> io::Result<Conn> {
        Ok(Conn {
            stream: self.stream.try_clone()?,
            buf: Vec::with_capacity(16 * 1024),
        })
    }

    pub fn send(&mut self, request: &[u8]) -> io::Result<()> {
        self.stream.write_all(request)
    }

    /// Reads the next response in order.
    pub fn recv(&mut self) -> io::Result<Response> {
        loop {
            if let Some((response, used)) = parse(&self.buf)? {
                self.buf.drain(..used);
                return Ok(response);
            }
            let mut chunk = [0u8; 16 * 1024];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-response",
                ));
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }

    pub fn roundtrip(&mut self, request: &[u8]) -> io::Result<Response> {
        self.send(request)?;
        self.recv()
    }

    /// `GET path` and its body.
    pub fn get(&mut self, path: &str) -> io::Result<Response> {
        self.roundtrip(format!("GET {path} HTTP/1.1\r\nContent-Length: 0\r\n\r\n").as_bytes())
    }
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("bad response: {what}"))
}

fn parse(buf: &[u8]) -> io::Result<Option<(Response, usize)>> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| bad("head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|line| line.split(' ').nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| bad("status line"))?;
    let mut length = None;
    let mut cache_hits = None;
    let mut cache_misses = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Err(bad("header line"));
        };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => length = value.parse::<usize>().ok(),
            "x-cache-hits" => cache_hits = value.parse().ok(),
            "x-cache-misses" => cache_misses = value.parse().ok(),
            _ => {}
        }
    }
    let total = head_end + 4 + length.ok_or_else(|| bad("no Content-Length"))?;
    if buf.len() < total {
        return Ok(None);
    }
    let body = String::from_utf8(buf[head_end + 4..total].to_vec()).map_err(|_| bad("body"))?;
    Ok(Some((
        Response {
            status,
            cache_hits,
            cache_misses,
            body,
        },
        total,
    )))
}
