//! The one blocking HTTP/1.1 client: the `/rebalance` handoff, `panda
//! report --follow`, the serve tests and the serve benchmarks use it.
//! Several [`Client::send`]s then several [`Client::read_response`]s is
//! pipelining. [`decode`] frames a response by the server's own rules
//! (`http::read_head`) plus a required `Content-Length`. No chunked
//! encoding, TLS or redirects.
//!
//! Errors are `io::Error`s. A clean EOF before any byte of a response is
//! `UnexpectedEof`. Bytes that cannot be framed, an EOF mid-response
//! included, are `InvalidData`: an error, never a partial reply.

use crate::http::read_head;
use std::io::{self, ErrorKind, Read, Result, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// The error for a response this client cannot frame.
fn malformed(msg: &str) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, format!("malformed response: {msg}"))
}

/// Where one complete response sits at the front of a buffer.
#[derive(Debug, Clone, Copy)]
pub struct Frame {
    pub status: u16,
    /// Head length including the blank line: the body starts here.
    pub head_len: usize,
    /// Head plus body.
    pub len: usize,
}

/// Decode the response at the front of `buf`; `Ok(None)` means more
/// bytes are needed. Allocates only to describe a rejection.
pub fn decode(buf: &[u8]) -> Result<Option<Frame>> {
    let Some(head) = read_head(buf, 0).map_err(|msg| malformed(&msg))? else {
        return Ok(None);
    };
    // `HTTP/1.x NNN[ reason]`
    let status = match *head.start_line {
        [b'H', b'T', b'T', b'P', b'/', b'1', b'.', minor, b' ', d0, d1, d2, ref reason @ ..]
            if [minor, d0, d1, d2].iter().all(u8::is_ascii_digit)
                && reason.first().is_none_or(|&b| b == b' ') =>
        {
            let digit = |d: u8| u16::from(d - b'0');
            digit(d0) * 100 + digit(d1) * 10 + digit(d2)
        }
        _ => {
            let line = String::from_utf8_lossy(head.start_line);
            return Err(malformed(&format!("bad status line {line:?}")));
        }
    };
    let len = head
        .content_length
        .and_then(|body| head.len.checked_add(body))
        .ok_or_else(|| malformed("no usable Content-Length"))?;
    let frame = Frame {
        status,
        head_len: head.len,
        len,
    };
    Ok((buf.len() >= len).then_some(frame))
}

/// One response.
#[derive(Debug)]
pub struct Reply {
    pub status: u16,
    /// Status line and headers, blank line included.
    pub head: String,
    pub body: String,
}

/// A connection to one server.
pub struct Client {
    stream: TcpStream,
    host: String,
    /// Requests queued by [`send`](Client::send), not yet written.
    out: Vec<u8>,
    /// Receive buffer; `buf[..filled]` holds bytes not yet returned.
    buf: Vec<u8>,
    filled: usize,
}

impl Client {
    /// Connect to `addr`. `timeout` bounds the connect and every later
    /// read and write; `None` blocks.
    pub fn connect(addr: impl ToSocketAddrs, timeout: Option<Duration>) -> Result<Self> {
        let stream = match timeout {
            None => TcpStream::connect(addr)?,
            Some(t) => {
                let addr = addr.to_socket_addrs()?.next();
                let addr = addr.ok_or(io::Error::from(ErrorKind::InvalidInput))?;
                TcpStream::connect_timeout(&addr, t)?
            }
        };
        stream.set_read_timeout(timeout)?;
        stream.set_write_timeout(timeout)?;
        let host = stream.peer_addr()?.to_string();
        Ok(Client {
            stream,
            host,
            out: Vec::new(),
            buf: Vec::new(),
            filled: 0,
        })
    }

    /// Queue one keep-alive request.
    pub fn send(&mut self, method: &str, path: &str, body: &str) {
        self.queue(method, path, body, "");
    }

    fn queue(&mut self, method: &str, path: &str, body: &str, extra: &str) {
        let (host, len) = (&self.host, body.len());
        // Writing to a `Vec` cannot fail.
        let _ = write!(
            self.out,
            "{method} {path} HTTP/1.1\r\nHost: {host}\r\nContent-Length: {len}\r\n{extra}\r\n{body}"
        );
    }

    /// Write all queued requests in one write, then read exactly one
    /// response; bytes past it stay buffered for the next call.
    pub fn read_response(&mut self) -> Result<Reply> {
        self.stream.write_all(&self.out)?;
        self.out.clear();
        loop {
            if let Some(frame) = decode(&self.buf[..self.filled])? {
                let reply = match std::str::from_utf8(&self.buf[..frame.len]) {
                    Ok(text) => Ok(Reply {
                        status: frame.status,
                        head: text[..frame.head_len].to_string(),
                        body: text[frame.head_len..].to_string(),
                    }),
                    Err(_) => Err(malformed("not UTF-8")),
                };
                self.buf.copy_within(frame.len..self.filled, 0);
                self.filled -= frame.len;
                return reply;
            }
            if self.filled == self.buf.len() {
                self.buf.resize(self.filled + 16 * 1024, 0);
            }
            match self.stream.read(&mut self.buf[self.filled..]) {
                Ok(0) if self.filled == 0 => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(0) => return Err(malformed("EOF mid-response")),
                Ok(n) => self.filled += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// [`send`](Client::send), then [`read_response`](Client::read_response).
    pub fn roundtrip(&mut self, method: &str, path: &str, body: &str) -> Result<Reply> {
        self.send(method, path, body);
        self.read_response()
    }
}

/// One request on a fresh connection, sent with `Connection: close`.
pub fn request(
    addr: impl ToSocketAddrs,
    method: &str,
    path: &str,
    body: &str,
    timeout: Option<Duration>,
) -> Result<Reply> {
    let mut client = Client::connect(addr, timeout)?;
    client.queue(method, path, body, "Connection: close\r\n");
    client.read_response()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{feed, Response, MAX_HEAD};
    use proptest::prelude::*;

    /// Take the response at the front of `buf`, as `read_response` does.
    fn take(buf: &mut Vec<u8>) -> Result<Option<(u16, Vec<u8>)>> {
        Ok(decode(buf)?.map(|f| (f.status, buf.drain(..f.len).collect())))
    }

    /// A response as the server writes it, with its status.
    fn response_case() -> impl Strategy<Value = (u16, Vec<u8>)> {
        let status = prop::sample::select(vec![200u16, 400, 404, 413, 503]);
        (status, "[ -~]{0,60}", any::<bool>(), 0u32..9).prop_map(|(status, body, keep, rid)| {
            let mut resp = Response::json(status, body);
            resp.request_id = (rid > 0).then(|| format!("0-{rid}"));
            (status, resp.to_bytes(keep))
        })
    }

    proptest! {
        /// Any chunking of 1–4 pipelined responses, byte-at-a-time
        /// included, decodes to what the server wrote.
        #[test]
        fn any_chunking_decodes_what_the_server_wrote(
            cases in prop::collection::vec(response_case(), 1..5),
            cuts in prop::collection::vec(0usize..600, 0..8),
        ) {
            let wire: Vec<u8> = cases.iter().flat_map(|(_, w)| w.clone()).collect();
            let drip: Vec<usize> = (0..wire.len()).collect();
            for cuts in [&[][..], &cuts, &drip] {
                prop_assert_eq!(&feed(&wire, cuts, take), &(cases.clone(), None));
            }
        }

        /// A bad Content-Length, Transfer-Encoding, an oversized head, a
        /// truncated body or a bad status line gives an error or "need more
        /// bytes", never a response, however the bytes arrive.
        #[test]
        fn unframeable_responses_never_decode(
            (_, wire) in response_case(),
            flaw in 0usize..9,
            pad in MAX_HEAD..MAX_HEAD + 200,
            cuts in prop::collection::vec(0usize..MAX_HEAD + 400, 0..6),
        ) {
            let text = String::from_utf8(wire).unwrap();
            let body_len = text.len() - text.find("\r\n\r\n").unwrap() - 4;
            let length = format!("Content-Length: {body_len}");
            let bad = match flaw {
                0 => text.replace(&length, "Content-Length: +10"),
                1 => text.replace(&length, "Content-Length: 4 4"),
                2 => text.replace(&length, &format!("{length}\r\n{length}1")),
                3 => text.replace(&length, &format!("{length}\r\nTransfer-Encoding: chunked")),
                4 => text.replace(&length, &format!("{length}\r\nX-Pad: {}", "p".repeat(pad))),
                5 => text[..text.len() - 1].to_string(),
                6 => text.replacen("HTTP/1.1", "HTTP/2", 1),
                7 => text.replacen(" ", "  ", 1),
                _ => text.replacen(' ', "", 1),
            };
            for cuts in [&[][..], &cuts] {
                prop_assert!(feed(bad.as_bytes(), cuts, take).0.is_empty(), "flaw {}", flaw);
            }
        }
    }
}
