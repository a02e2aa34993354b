//! A minimal HTTP/1.1 keep-alive client.
//!
//! The load generator speaks HTTP itself rather than through the server
//! crate's client, so the measuring side stays the same code when the
//! measured crate changes.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Largest response body accepted (a 128×128 map with mask is ~80 KiB).
const MAX_RESPONSE: usize = 64 << 20;

/// One persistent connection, reopened when the server closes it.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<(BufReader<TcpStream>, TcpStream)>,
}

impl Conn {
    /// A connection to `addr`; the socket opens on first use.
    #[must_use]
    pub fn new(addr: SocketAddr) -> Self {
        Conn { addr, stream: None }
    }

    /// Sends one request and reads its response: `(status, body)`.
    ///
    /// # Errors
    ///
    /// Any transport failure or malformed response. The connection is
    /// dropped after an error, so the next call reconnects.
    pub fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> io::Result<(u16, Vec<u8>)> {
        let outcome = self.exchange_once(method, path, body);
        match &outcome {
            Ok((_, _, close)) if !close => {}
            _ => self.stream = None,
        }
        outcome.map(|(status, body, _)| (status, body))
    }

    fn exchange_once(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> io::Result<(u16, Vec<u8>, bool)> {
        if self.stream.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, Duration::from_secs(10))?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(120)))?;
            stream.set_write_timeout(Some(Duration::from_secs(120)))?;
            let writer = stream.try_clone()?;
            self.stream = Some((BufReader::new(stream), writer));
        }
        let (reader, writer) = self.stream.as_mut().expect("connected above");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n\r\n",
            self.addr,
            body.len()
        );
        writer.write_all(head.as_bytes())?;
        writer.write_all(body)?;
        read_response(reader)
    }
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Reads one response: status, body and whether the server closes.
fn read_response(r: &mut impl BufRead) -> io::Result<(u16, Vec<u8>, bool)> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before a response",
        ));
    }
    let status: u16 = line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad(format!("malformed status line {line:?}")))?;
    let mut length = None;
    let mut close = false;
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(bad("connection closed inside the response head".into()));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(bad(format!("malformed header {header:?}")));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = Some(
                value
                    .parse::<usize>()
                    .map_err(|_| bad(format!("bad length {value:?}")))?,
            );
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    let length = length.ok_or_else(|| bad("response without Content-Length".into()))?;
    if length > MAX_RESPONSE {
        return Err(bad(format!("response of {length} bytes exceeds the cap")));
    }
    let mut body = vec![0u8; length];
    r.read_exact(&mut body)?;
    Ok((status, body, close))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_framed_responses_back_to_back() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nConnection: keep-alive\r\n\r\nabc\
                    HTTP/1.1 503 Service Unavailable\r\ncontent-length: 0\r\nConnection: close\r\n\r\n";
        let mut r = BufReader::new(&raw[..]);
        assert_eq!(
            read_response(&mut r).unwrap(),
            (200, b"abc".to_vec(), false)
        );
        assert_eq!(read_response(&mut r).unwrap(), (503, Vec::new(), true));
        assert!(read_response(&mut r).is_err());
    }
}
