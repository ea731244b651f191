//! A minimal keep-alive HTTP/1.1 client and the closed-loop load generator.
//! The client is the benchmark's own, so a change to the server's HTTP
//! code cannot change how the load is offered or timed.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Reply timeout: far above any single request of these workloads.
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// A response as the client saw it.
#[derive(Clone, Debug)]
pub struct Reply {
    pub status: u16,
    /// The `x-dclab-cache` header (`hit`, `miss` or `coalesced`).
    pub cache: Option<String>,
    pub body: Vec<u8>,
}

/// The full bytes of one request.
pub fn request_bytes(method: &str, target: &str, body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "{method} {target} HTTP/1.1\r\nhost: perfbench\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    /// Send one request and read its whole reply.
    pub fn exchange(&mut self, request: &[u8]) -> io::Result<Reply> {
        self.stream.write_all(request)?;
        self.read_reply()
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 64 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-reply",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    fn read_reply(&mut self) -> io::Result<Reply> {
        let head_end = loop {
            if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i + 4;
            }
            self.fill()?;
        };
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut length = 0usize;
        let mut cache = None;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            match name.trim().to_ascii_lowercase().as_str() {
                "content-length" => {
                    length = value
                        .trim()
                        .parse()
                        .map_err(|_| bad("bad content-length"))?
                }
                "x-dclab-cache" => cache = Some(value.trim().to_string()),
                _ => {}
            }
        }
        while self.buf.len() < head_end + length {
            self.fill()?;
        }
        let body = self.buf[head_end..head_end + length].to_vec();
        self.buf.drain(..head_end + length);
        Ok(Reply {
            status,
            cache,
            body,
        })
    }
}

/// One request over a fresh connection (control traffic: health,
/// metrics, shutdown).
pub fn call(addr: SocketAddr, method: &str, target: &str, body: &[u8]) -> io::Result<Reply> {
    Conn::open(addr)?.exchange(&request_bytes(method, target, body))
}

/// What one timed request came back with.
pub struct Outcome {
    /// From the first request byte written to the last reply byte read.
    pub latency: Duration,
    /// The reply, or the transport error's text.
    pub reply: Result<Reply, String>,
}

/// Closed loop: `conns` callers on their own keep-alive connections
/// (opened before the window starts), each sending its next request only
/// after reading the previous reply. Requests are taken in index order
/// from a shared counter; outcomes come back in request order with the
/// window's wall time.
pub fn closed_loop(
    addr: SocketAddr,
    requests: &[&[u8]],
    conns: usize,
) -> io::Result<(Vec<Outcome>, Duration)> {
    let opened = (0..conns)
        .map(|_| Conn::open(addr))
        .collect::<io::Result<Vec<_>>>()?;
    let next = &AtomicUsize::new(0);
    let slots: &Vec<Mutex<Option<Outcome>>> = &requests.iter().map(|_| Mutex::new(None)).collect();
    let started = Instant::now();
    std::thread::scope(|s| {
        for first in opened {
            s.spawn(move || {
                let mut conn = Some(first);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= requests.len() {
                        break;
                    }
                    let t0 = Instant::now();
                    let reply = match conn.as_mut() {
                        Some(c) => c.exchange(requests[i]),
                        None => Conn::open(addr).and_then(|mut c| {
                            let r = c.exchange(requests[i]);
                            conn = Some(c);
                            r
                        }),
                    };
                    let latency = t0.elapsed();
                    if reply.is_err() {
                        // Reconnect for the next request.
                        conn = None;
                    }
                    *slots[i].lock().expect("outcome slot poisoned") = Some(Outcome {
                        latency,
                        reply: reply.map_err(|e| e.to_string()),
                    });
                }
            });
        }
    });
    let wall = started.elapsed();
    let outcomes = slots
        .iter()
        .map(|m| {
            m.lock()
                .expect("outcome slot poisoned")
                .take()
                .expect("every request was sent")
        })
        .collect();
    Ok((outcomes, wall))
}
