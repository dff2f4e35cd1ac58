//! A keep-alive HTTP/1.1 client and `panda serve` child processes.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// The server reaps keep-alive connections idle for 5 s (its default);
/// a connection idle this long is replaced before its next request.
const IDLE_RECONNECT: Duration = Duration::from_secs(4);

/// One persistent connection, one request in flight at a time.
pub struct Conn {
    addr: String,
    stream: TcpStream,
    buf: Vec<u8>,
    last_used: Instant,
}

fn open(addr: &str) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    Ok(stream)
}

impl Conn {
    /// Connect with Nagle off (single small requests must not wait).
    pub fn connect(addr: &str) -> io::Result<Conn> {
        Ok(Conn {
            addr: addr.to_string(),
            stream: open(addr)?,
            buf: Vec::with_capacity(16 * 1024),
            last_used: Instant::now(),
        })
    }

    /// Send one request and read its `Content-Length`-framed response.
    pub fn call(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        if self.last_used.elapsed() > IDLE_RECONNECT {
            self.stream = open(&self.addr)?;
            self.buf.clear();
        }
        let resp = self.exchange(method, path, body);
        self.last_used = Instant::now();
        resp
    }

    fn exchange(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        self.stream.write_all(&wire(method, path, body))?;
        self.read_response()
    }

    /// Write all `requests` back to back (HTTP/1.1 pipelining), then read
    /// their responses in order.
    pub fn pipeline(
        &mut self,
        requests: &[(&str, String, Vec<u8>)],
    ) -> io::Result<Vec<(u16, Vec<u8>)>> {
        let batch: Vec<u8> = requests
            .iter()
            .flat_map(|(method, path, body)| wire(method, path, body))
            .collect();
        self.stream.write_all(&batch)?;
        let resp = requests.iter().map(|_| self.read_response()).collect();
        self.last_used = Instant::now();
        resp
    }

    fn read_response(&mut self) -> io::Result<(u16, Vec<u8>)> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if let Some((status, head_end, total)) = frame(&self.buf)? {
                let body = self.buf[head_end..total].to_vec();
                self.buf.drain(..total);
                return Ok((status, body));
            }
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
}

fn wire(method: &str, path: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// `(status, body start, response end)` once `buf` holds a whole response.
fn frame(buf: &[u8]) -> io::Result<Option<(u16, usize, usize)>> {
    let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let head = std::str::from_utf8(&buf[..pos]).map_err(|_| bad("non-UTF-8 head"))?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("no status"))?;
    let len: usize = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().ok())?
        })
        .ok_or_else(|| bad("no Content-Length"))?;
    let total = pos + 4 + len;
    Ok((buf.len() >= total).then_some((status, pos + 4, total)))
}

/// A `panda serve` child process, killed and reaped on drop.
pub struct Served {
    child: Child,
    /// HTTP address.
    pub addr: String,
    /// Replication listener, when started with `--repl-addr`.
    pub repl: Option<String>,
    _stdout: BufReader<ChildStdout>,
}

impl Served {
    /// Start `panda serve` with `args` and wait for its listening lines.
    /// `exec_workers` pins the server's compute pool (`PANDA_WORKERS`)
    /// rather than inheriting it from this process's environment.
    pub fn spawn(bin: &Path, args: &[&str], exec_workers: usize) -> Result<Served, String> {
        let mut child = Command::new(bin)
            .arg("serve")
            .args(args)
            .env("PANDA_WORKERS", exec_workers.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let wants_repl = args.contains(&"--repl-addr");
        let (mut addr, mut repl) = (None, None);
        let mut line = String::new();
        while addr.is_none() || (wants_repl && repl.is_none()) {
            line.clear();
            let n = stdout.read_line(&mut line).unwrap_or(0);
            if n == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("panda serve {args:?} exited before listening"));
            }
            if let Some(rest) = line.trim().strip_prefix("panda serve listening on http://") {
                addr = Some(rest.to_string());
            }
            if let Some(rest) = line.trim().strip_prefix("replication listener on ") {
                repl = rest.split_whitespace().next().map(str::to_string);
            }
        }
        Ok(Served {
            child,
            addr: addr.expect("loop exits with an address"),
            repl,
            _stdout: stdout,
        })
    }

    /// Peak resident set (`VmHWM`) of the server process, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Graceful stop: `POST /shutdown`, then wait up to 10 s before a kill.
    pub fn stop(mut self) {
        if let Ok(mut conn) = Conn::connect(&self.addr) {
            let _ = conn.call("POST", "/shutdown", b"");
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MB (NaN when unreadable).
pub fn peak_rss_mb(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_need_the_whole_body() {
        let full = b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nhi";
        assert_eq!(
            frame(full).unwrap(),
            Some((200, full.len() - 2, full.len()))
        );
        assert_eq!(frame(&full[..full.len() - 1]).unwrap(), None);
        assert!(frame(b"HTTP/1.1 200 OK\r\n\r\n").is_err());
    }
}
