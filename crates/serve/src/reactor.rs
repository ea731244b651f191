//! The serve core: a std-only epoll reactor (Linux only).
//!
//! One reactor thread owns every connection and multiplexes readiness
//! with `epoll` — the syscalls are declared `extern "C"` against the
//! platform libc that std already links (the same hand-rolled discipline
//! as `graph::bitset` and `store`'s CRC framing: no external crates).
//! Connection capacity is therefore decoupled from the worker count: the
//! budget (`--max-conns`, default 1024) is bounded by memory per
//! connection, not by threads, and no worker is held by a kept-alive
//! connection between its requests.
//!
//! Per-connection state machine:
//!
//! ```text
//!            readable                    complete request
//! KeepAlive ─────────▶ Reading ──────────────┬─────────────────▶ Dispatched
//!    ▲                   ▲                   │ (inline endpoint)     │ worker
//!    │                   │                   ▼                       │ renders,
//!    │ keep-alive        └──── response ── Writing ◀────────────────┘ eventfd
//!    └──────────────────────── flushed ──────┘                        wakes
//! ```
//!
//! * **Reading / KeepAlive** — interest `EPOLLIN`; bytes land in the
//!   connection's recycled [`RecvBuffer`] and [`try_parse`] runs after
//!   every read (incremental: a byte-by-byte dribbler costs re-parses,
//!   never blocks the thread). A complete HTTP/1.1 head with
//!   `Expect: 100-continue` whose body has not all arrived gets one
//!   interim `100 Continue` line, so the client sends the body at once.
//! * **Dispatched** — a `/solve` or `/batch` was handed to the
//!   [`WorkerPool`]; interest drops to 0 (pipelined bytes wait in the
//!   buffer). The worker routes + renders off-thread and pushes the
//!   finished bytes into the completion queue, then writes the eventfd to
//!   wake the reactor.
//! * **Writing** — interest `EPOLLOUT` after a short write; a drained
//!   output buffer transitions to KeepAlive (and immediately re-parses
//!   any pipelined request) or closes.
//!
//! Backpressure is shed *before* a worker is consumed: a full pool queue
//! answers `503` + `Retry-After` from the reactor thread, and the
//! connection budget answers `503` at accept. Inline endpoints
//! (`/healthz`, `/metrics`, `/debug/*`, `/shutdown`) are routed on the
//! reactor thread itself, so observability stays live while every worker
//! is saturated. Stalled connections (slow-loris) are reaped by a
//! per-connection idle deadline (`--conn-idle-ms`,
//! `dclab_conns_reaped_total`).

use std::collections::HashMap;
use std::fs::File;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dclab_par::{SubmitError, WorkerPool};

use crate::http::{
    expects_continue, render_response, try_parse, ParseError, RecvBuffer, Request, CONTINUE,
    MAX_HEAD_BYTES,
};
use crate::server::{self, ServeCtx};

/// Raw epoll/eventfd bindings against the libc std already links.
mod sys {
    use std::os::fd::RawFd;

    pub const EPOLL_CLOEXEC: i32 = 0o2000000;
    pub const EPOLL_CTL_ADD: i32 = 1;
    pub const EPOLL_CTL_DEL: i32 = 2;
    pub const EPOLL_CTL_MOD: i32 = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EFD_CLOEXEC: i32 = 0o2000000;
    pub const EFD_NONBLOCK: i32 = 0o4000;

    /// Kernel `struct epoll_event` ABI: packed on x86-64 (the kernel
    /// declares it `__attribute__((packed))` there so 32-bit and 64-bit
    /// layouts agree), naturally aligned on other architectures.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: i32) -> i32;
        pub fn epoll_ctl(epfd: i32, op: i32, fd: RawFd, event: *mut EpollEvent) -> i32;
        pub fn epoll_wait(
            epfd: i32,
            events: *mut EpollEvent,
            maxevents: i32,
            timeout_ms: i32,
        ) -> i32;
        pub fn eventfd(initval: u32, flags: i32) -> i32;
    }
}

/// Safe handle over one epoll instance.
struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    fn new() -> std::io::Result<Epoll> {
        let fd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Epoll {
            fd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    fn ctl(&self, op: i32, fd: RawFd, events: u32, token: u64) -> std::io::Result<()> {
        let mut ev = sys::EpollEvent {
            events,
            data: token,
        };
        let rc = unsafe { sys::epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut ev) };
        if rc < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(())
    }

    fn add(&self, fd: RawFd, events: u32, token: u64) -> std::io::Result<()> {
        self.ctl(sys::EPOLL_CTL_ADD, fd, events, token)
    }

    fn modify(&self, fd: RawFd, events: u32, token: u64) -> std::io::Result<()> {
        self.ctl(sys::EPOLL_CTL_MOD, fd, events, token)
    }

    fn delete(&self, fd: RawFd) -> std::io::Result<()> {
        self.ctl(sys::EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Wait for readiness, retrying on `EINTR`. Returns the number of
    /// events filled into `events`.
    fn wait(&self, events: &mut [sys::EpollEvent], timeout_ms: i32) -> std::io::Result<usize> {
        loop {
            let rc = unsafe {
                sys::epoll_wait(
                    self.fd.as_raw_fd(),
                    events.as_mut_ptr(),
                    events.len() as i32,
                    timeout_ms,
                )
            };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = std::io::Error::last_os_error();
            if err.kind() != std::io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

/// A finished worker job: the fully rendered response bytes for one
/// dispatched request.
pub(crate) struct Completion {
    token: u64,
    bytes: Vec<u8>,
    keep_alive: bool,
}

/// Worker → reactor channel: a mutex-protected queue plus an eventfd the
/// workers write to wake the reactor out of `epoll_wait`.
pub(crate) struct Completions {
    queue: Mutex<Vec<Completion>>,
    /// Non-blocking eventfd wrapped in a `File` (std's `Read`/`Write` on
    /// `&File` work on any fd; the drop closes it).
    wake: File,
}

impl Completions {
    /// Called from worker threads: enqueue, then wake the reactor.
    pub(crate) fn push(&self, token: u64, bytes: Vec<u8>, keep_alive: bool) {
        self.queue
            .lock()
            .expect("completions poisoned")
            .push(Completion {
                token,
                bytes,
                keep_alive,
            });
        let _ = (&self.wake).write(&1u64.to_ne_bytes());
    }

    /// Called from the reactor: clear the eventfd counter and take the
    /// queued completions. (Clearing first means a concurrent push can at
    /// worst cause one spurious extra wakeup, never a lost one.)
    fn drain(&self) -> Vec<Completion> {
        let mut counter = [0u8; 8];
        let _ = (&self.wake).read(&mut counter);
        std::mem::take(&mut *self.queue.lock().expect("completions poisoned"))
    }
}

/// Per-connection state-machine state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ConnState {
    /// Partial request bytes buffered; interest `EPOLLIN`.
    Reading,
    /// A request is on a worker; interest 0 until the completion lands.
    Dispatched,
    /// Response bytes pending; interest `EPOLLOUT` once a write blocks.
    Writing,
    /// Between requests, buffer empty; interest `EPOLLIN`.
    KeepAlive,
}

struct Conn {
    stream: TcpStream,
    state: ConnState,
    rb: RecvBuffer,
    out: Vec<u8>,
    out_pos: usize,
    /// Currently registered epoll interest mask.
    interest: u32,
    last_activity: Instant,
    close_after_write: bool,
    /// Peer EOF seen (half-close): serve what is buffered, then close.
    eof: bool,
    /// `100 Continue` already sent for the request being read.
    continue_sent: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            state: ConnState::KeepAlive,
            rb: RecvBuffer::default(),
            out: Vec::new(),
            out_pos: 0,
            interest: sys::EPOLLIN,
            last_activity: Instant::now(),
            close_after_write: false,
            eof: false,
            continue_sent: false,
        }
    }
}

/// Reactor tuning (from the `dclab serve` flags).
pub(crate) struct ReactorConfig {
    pub workers: usize,
    pub queue_cap: usize,
    pub max_conns: usize,
    pub conn_idle_ms: u64,
}

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// epoll_wait tick: bounds idle-sweep latency and shutdown polling.
const TICK_MS: i32 = 100;

/// Hard cap on the graceful-drain window after shutdown is requested.
const DRAIN_DEADLINE: Duration = Duration::from_secs(10);

/// What to do with a connection after handling an event.
#[derive(PartialEq, Eq)]
enum Verdict {
    Keep,
    Close,
}

struct Reactor {
    epoll: Epoll,
    listener: TcpListener,
    ctx: Arc<ServeCtx>,
    pool: WorkerPool,
    completions: Arc<Completions>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    cfg: ReactorConfig,
    draining: bool,
}

/// Run the reactor until graceful shutdown completes. Owns the listener,
/// the worker pool, and every connection; the caller's only other handle
/// on the server is `ctx`.
pub(crate) fn run(listener: TcpListener, ctx: Arc<ServeCtx>, cfg: ReactorConfig) {
    let epoll = Epoll::new().expect("epoll_create1 failed");
    let wake_fd = unsafe { sys::eventfd(0, sys::EFD_CLOEXEC | sys::EFD_NONBLOCK) };
    assert!(wake_fd >= 0, "eventfd failed");
    let completions = Arc::new(Completions {
        queue: Mutex::new(Vec::new()),
        wake: unsafe { File::from_raw_fd(wake_fd) },
    });
    epoll
        .add(listener.as_raw_fd(), sys::EPOLLIN, TOKEN_LISTENER)
        .expect("epoll add listener");
    epoll
        .add(completions.wake.as_raw_fd(), sys::EPOLLIN, TOKEN_WAKE)
        .expect("epoll add eventfd");
    let pool = WorkerPool::new(cfg.workers, cfg.queue_cap);
    ctx.metrics
        .pool_workers
        .store(pool.workers() as u64, Ordering::Relaxed);
    let mut r = Reactor {
        epoll,
        listener,
        ctx,
        pool,
        completions,
        conns: HashMap::new(),
        next_token: FIRST_CONN_TOKEN,
        cfg,
        draining: false,
    };
    let mut events = [sys::EpollEvent { events: 0, data: 0 }; 64];
    let mut last_sweep = Instant::now();
    let mut drain_started: Option<Instant> = None;
    loop {
        let n = r.epoll.wait(&mut events, TICK_MS).unwrap_or(0);
        for ev in &events[..n] {
            let token = ev.data;
            let revents = ev.events;
            match token {
                TOKEN_LISTENER => r.accept_ready(),
                TOKEN_WAKE => r.drain_completions(),
                _ => r.conn_event(token, revents),
            }
        }
        r.refresh_gauges();
        if last_sweep.elapsed() >= Duration::from_millis(50) {
            r.sweep_idle();
            last_sweep = Instant::now();
        }
        if r.ctx.shutdown_requested() {
            let started = *drain_started.get_or_insert_with(|| {
                r.begin_drain();
                Instant::now()
            });
            // Deliver any completions that raced the drain check.
            r.drain_completions();
            if r.conns.is_empty() || started.elapsed() > DRAIN_DEADLINE {
                break;
            }
        }
    }
    r.conns.clear();
    r.ctx.metrics.conns_open.store(0, Ordering::Relaxed);
    // Drain + join the pool, then seal the archive (fsync + clean footer)
    // so a reopened store trusts the whole log.
    r.pool.shutdown();
    if let Some(store) = &r.ctx.store {
        if store.close_clean().is_ok() {
            r.ctx.metrics.store_flushes.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl Reactor {
    fn refresh_gauges(&self) {
        let m = &self.ctx.metrics;
        m.pool_queue_depth
            .store(self.pool.queue_len() as u64, Ordering::Relaxed);
        m.pool_in_flight
            .store(self.pool.in_flight() as u64, Ordering::Relaxed);
        m.conns_open
            .store(self.conns.len() as u64, Ordering::Relaxed);
    }

    /// Accept every pending connection (level-triggered, so loop to
    /// `WouldBlock`). Over-budget connections get a best-effort `503` and
    /// close — the cheapest possible shed, before any bytes are read.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.ctx
                        .metrics
                        .conns_accepted
                        .fetch_add(1, Ordering::Relaxed);
                    if self.draining {
                        continue; // dropped: we are shutting down
                    }
                    if self.conns.len() >= self.cfg.max_conns {
                        self.shed_at_budget(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .epoll
                        .add(stream.as_raw_fd(), sys::EPOLLIN, token)
                        .is_ok()
                    {
                        self.conns.insert(token, Conn::new(stream));
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }

    /// Connection-budget shed: `503` + `Retry-After`, written blocking
    /// with a short timeout (the socket was just accepted; the write
    /// almost always fits the send buffer whole).
    fn shed_at_budget(&self, mut stream: TcpStream) {
        self.ctx
            .metrics
            .rejected_conn_budget
            .fetch_add(1, Ordering::Relaxed);
        self.ctx.metrics.record_status(503);
        let rid = server::generate_request_id();
        let body = server::error_json("connection budget exhausted", "overload");
        let bytes = render_response(
            503,
            &[("retry-after", "1"), ("x-request-id", &rid)],
            body.as_bytes(),
            false,
        );
        let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
        let _ = stream.write_all(&bytes);
    }

    fn drain_completions(&mut self) {
        for c in self.completions.drain() {
            // The connection may have died (error, idle reap) while its
            // solve ran; the rendered bytes are simply dropped then.
            let Some(mut conn) = self.conns.remove(&c.token) else {
                continue;
            };
            debug_assert_eq!(conn.state, ConnState::Dispatched);
            conn.out.extend_from_slice(&c.bytes);
            conn.close_after_write = !c.keep_alive;
            conn.state = ConnState::Writing;
            conn.last_activity = Instant::now();
            if self.advance_write(&mut conn, c.token) == Verdict::Keep {
                self.conns.insert(c.token, conn);
            } else {
                self.refresh_gauges();
            }
        }
    }

    fn conn_event(&mut self, token: u64, revents: u32) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        let verdict = if revents & (sys::EPOLLERR | sys::EPOLLHUP) != 0
            && conn.state != ConnState::Dispatched
        {
            Verdict::Close
        } else {
            match conn.state {
                ConnState::Reading | ConnState::KeepAlive if revents & sys::EPOLLIN != 0 => {
                    self.readable(&mut conn, token)
                }
                ConnState::Writing if revents & sys::EPOLLOUT != 0 => {
                    self.advance_write(&mut conn, token)
                }
                // Dispatched (or a stale-mask event): nothing to do now.
                _ => Verdict::Keep,
            }
        };
        if verdict == Verdict::Keep {
            self.conns.insert(token, conn);
        }
    }

    /// Pull every available byte, then run the parse/dispatch loop.
    fn readable(&mut self, conn: &mut Conn, token: u64) -> Verdict {
        loop {
            let spare = conn.rb.spare(4096);
            match conn.stream.read(spare) {
                Ok(0) => {
                    conn.eof = true;
                    break;
                }
                Ok(n) => {
                    conn.rb.commit(n);
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Verdict::Close,
            }
        }
        self.advance_parse(conn, token)
    }

    /// Parse-and-serve loop: handle complete requests until the buffer
    /// runs dry, a request is dispatched to a worker, or a write blocks.
    fn advance_parse(&mut self, conn: &mut Conn, token: u64) -> Verdict {
        loop {
            if conn.state != ConnState::Reading && conn.state != ConnState::KeepAlive {
                return Verdict::Keep;
            }
            match try_parse(conn.rb.data(), MAX_HEAD_BYTES, self.ctx.max_body_bytes) {
                Ok(Some((req, consumed))) => {
                    conn.rb.consume(consumed);
                    conn.continue_sent = false;
                    let verdict = self.process_request(conn, token, req);
                    if verdict == Verdict::Close {
                        return Verdict::Close;
                    }
                }
                Ok(None) => {
                    if conn.eof {
                        if conn.rb.is_empty() {
                            return Verdict::Close; // clean end of keep-alive
                        }
                        // EOF in the middle of a request: answer 400
                        // "truncated request" rather than close silently
                        // (the peer may have only half-closed and still
                        // reads).
                        return self.respond_error(
                            conn,
                            token,
                            400,
                            "truncated request",
                            "bad-request",
                        );
                    }
                    if !conn.continue_sent && expects_continue(conn.rb.data()) {
                        // No response is pending while Reading (each one
                        // flushes before the next parse), so the interim
                        // line cannot interleave with one. A short write
                        // closes instead of leaving half a status line.
                        conn.continue_sent = true;
                        if conn.stream.write_all(CONTINUE).is_err() {
                            return Verdict::Close;
                        }
                    }
                    conn.state = if conn.rb.is_empty() {
                        ConnState::KeepAlive
                    } else {
                        ConnState::Reading
                    };
                    return self.want(conn, token, sys::EPOLLIN);
                }
                Err(ParseError::Bad(reason)) => {
                    return self.respond_error(conn, token, 400, reason, "bad-request");
                }
                Err(ParseError::TooLarge(reason)) => {
                    let status = if reason.contains("header") { 431 } else { 413 };
                    return self.respond_error(conn, token, status, reason, "too-large");
                }
            }
        }
    }

    /// One complete request: dispatch solves to the pool, answer
    /// everything else inline on the reactor thread.
    fn process_request(&mut self, conn: &mut Conn, token: u64, req: Request) -> Verdict {
        let rid = server::request_id(&req);
        if server::needs_worker(&req) {
            if self.ctx.shutdown_requested() {
                return self.respond_error(conn, token, 503, "server shutting down", "overload");
            }
            let jctx = Arc::clone(&self.ctx);
            let jcomp = Arc::clone(&self.completions);
            let job = move || {
                let (status, extra, body) = server::route(&jctx, &req, &rid);
                let keep_alive = req.keep_alive() && !jctx.shutdown_requested();
                jctx.metrics.record_status(status);
                let mut headers: Vec<(&str, &str)> =
                    extra.iter().map(|(k, v)| (*k, v.as_str())).collect();
                headers.push(("x-request-id", &rid));
                let bytes = render_response(status, &headers, body.as_bytes(), keep_alive);
                jcomp.push(token, bytes, keep_alive);
            };
            match self.pool.try_submit(job) {
                Ok(()) => {
                    conn.state = ConnState::Dispatched;
                    conn.last_activity = Instant::now();
                    self.want(conn, token, 0)
                }
                Err(SubmitError::QueueFull(job)) => {
                    // Shed before a worker is consumed: the queued job owns
                    // the request; drop it and answer from the reactor.
                    drop(job);
                    self.ctx
                        .metrics
                        .rejected_overload
                        .fetch_add(1, Ordering::Relaxed);
                    self.ctx.metrics.record_status(503);
                    let body = server::error_json("server overloaded", "overload");
                    let keep_alive = true; // the conn is cheap; let the client retry on it
                    let rid2 = server::generate_request_id();
                    let bytes = render_response(
                        503,
                        &[("retry-after", "1"), ("x-request-id", &rid2)],
                        body.as_bytes(),
                        keep_alive,
                    );
                    self.enqueue_response(conn, token, bytes, !keep_alive)
                }
                Err(SubmitError::ShuttingDown) => {
                    self.respond_error(conn, token, 503, "server shutting down", "overload")
                }
            }
        } else {
            let (status, extra, body) = server::route(&self.ctx, &req, &rid);
            let keep_alive = req.keep_alive() && !self.ctx.shutdown_requested();
            self.ctx.metrics.record_status(status);
            let mut headers: Vec<(&str, &str)> =
                extra.iter().map(|(k, v)| (*k, v.as_str())).collect();
            headers.push(("x-request-id", &rid));
            let bytes = render_response(status, &headers, body.as_bytes(), keep_alive);
            self.enqueue_response(conn, token, bytes, !keep_alive)
        }
    }

    /// Parse-level error: a JSON error body under a generated request id,
    /// then close (a framing error poisons the byte stream).
    fn respond_error(
        &mut self,
        conn: &mut Conn,
        token: u64,
        status: u16,
        reason: &str,
        kind: &str,
    ) -> Verdict {
        self.ctx.metrics.record_status(status);
        let rid = server::generate_request_id();
        let body = server::error_json(reason, kind);
        let bytes = render_response(status, &[("x-request-id", &rid)], body.as_bytes(), false);
        self.enqueue_response(conn, token, bytes, true)
    }

    fn enqueue_response(
        &mut self,
        conn: &mut Conn,
        token: u64,
        bytes: Vec<u8>,
        close_after: bool,
    ) -> Verdict {
        conn.out.extend_from_slice(&bytes);
        conn.close_after_write = conn.close_after_write || close_after;
        conn.state = ConnState::Writing;
        self.advance_write(conn, token)
    }

    /// Write until done or `WouldBlock`. A drained buffer transitions back
    /// to KeepAlive and immediately re-enters the parse loop (pipelined
    /// requests already buffered must not wait for new readiness).
    fn advance_write(&mut self, conn: &mut Conn, token: u64) -> Verdict {
        while conn.out_pos < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => return Verdict::Close,
                Ok(n) => {
                    conn.out_pos += n;
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    conn.state = ConnState::Writing;
                    return self.want(conn, token, sys::EPOLLOUT);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Verdict::Close,
            }
        }
        conn.out.clear();
        conn.out_pos = 0;
        if conn.close_after_write {
            return Verdict::Close;
        }
        conn.state = ConnState::KeepAlive;
        let v = self.want(conn, token, sys::EPOLLIN);
        if v == Verdict::Close {
            return v;
        }
        self.advance_parse(conn, token)
    }

    /// Update the registered interest mask if it changed.
    fn want(&self, conn: &mut Conn, token: u64, mask: u32) -> Verdict {
        if conn.interest == mask {
            return Verdict::Keep;
        }
        match self.epoll.modify(conn.stream.as_raw_fd(), mask, token) {
            Ok(()) => {
                conn.interest = mask;
                Verdict::Keep
            }
            Err(_) => Verdict::Close,
        }
    }

    /// Reap connections idle past the deadline. Dispatched connections are
    /// exempt — a long solve is the server's latency, not the client
    /// stalling — so a slow-loris can hold a buffer for `--conn-idle-ms`,
    /// never a worker.
    fn sweep_idle(&mut self) {
        let idle = Duration::from_millis(self.cfg.conn_idle_ms.max(1));
        let now = Instant::now();
        let stale: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                c.state != ConnState::Dispatched && now.duration_since(c.last_activity) > idle
            })
            .map(|(&t, _)| t)
            .collect();
        for token in stale {
            self.conns.remove(&token);
            self.ctx
                .metrics
                .conns_reaped
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Shutdown requested: stop accepting, drop idle connections, keep
    /// Dispatched/Writing connections until their responses flush.
    fn begin_drain(&mut self) {
        self.draining = true;
        let _ = self.epoll.delete(self.listener.as_raw_fd());
        self.conns
            .retain(|_, c| matches!(c.state, ConnState::Dispatched | ConnState::Writing));
    }
}
