//! End-to-end tests for the epoll reactor serve core: partial-I/O
//! robustness, a golden transcript of response bytes, EOF mid-request,
//! connection-budget capacity, slow-loris reaping, body caps, and
//! consistent-hash cluster routing.
//!
//! The transcript leans on one determinism fact: a report's
//! `stats.phases` (microsecond timings) is filled only when a live trace
//! is installed, which `POST /solve` does and `POST /batch` does not. So
//! a cold `/batch` response is byte-deterministic, and a warm `/solve`
//! for the same instance returns the batch's phase-free cached bytes —
//! the same on every run and at every `DCLAB_THREADS` setting.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dclab_graph::generators::{classic, random};
use dclab_graph::io as graph_io;
use dclab_serve::loadgen::{self, Client};
use dclab_serve::server::{start, ServeConfig};
use dclab_serve::ServerHandle;
use rand::SeedableRng;

fn server_with(cfg: ServeConfig) -> ServerHandle {
    start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..cfg
    })
    .expect("bind ephemeral port")
}

fn reactor_server() -> ServerHandle {
    server_with(ServeConfig {
        workers: 2,
        cache_mb: 8,
        queue_cap: 0,
        ..Default::default()
    })
}

fn shutdown(handle: ServerHandle) {
    let mut client = Client::new(handle.addr());
    let _ = client.request("POST", "/shutdown", "");
    drop(client);
    handle.join();
}

/// Read exactly one HTTP/1.1 response frame (head + content-length body)
/// in `chunk`-byte reads; returns the raw frame bytes.
fn read_frame(stream: &mut TcpStream, chunk: usize) -> Vec<u8> {
    let mut frame = Vec::new();
    let mut buf = vec![0u8; chunk.max(1)];
    let head_end = loop {
        let n = stream.read(&mut buf).expect("read response head");
        assert!(
            n > 0,
            "server closed mid-head: {:?}",
            String::from_utf8_lossy(&frame)
        );
        frame.extend_from_slice(&buf[..n]);
        if let Some(pos) = frame.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
    };
    let head = String::from_utf8_lossy(&frame[..head_end]).to_ascii_lowercase();
    let content_length: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("content-length:"))
        .expect("content-length header")
        .trim()
        .parse()
        .expect("numeric content-length");
    while frame.len() < head_end + content_length {
        let n = stream.read(&mut buf).expect("read response body");
        assert!(n > 0, "server closed mid-body");
        frame.extend_from_slice(&buf[..n]);
    }
    assert_eq!(frame.len(), head_end + content_length, "no trailing bytes");
    frame
}

fn render_request(method: &str, target: &str, rid: &str, body: &str, close: bool) -> String {
    let conn = if close { "connection: close\r\n" } else { "" };
    format!(
        "{method} {target} HTTP/1.1\r\nhost: t\r\nx-request-id: {rid}\r\n{conn}content-length: {}\r\n\r\n{body}",
        body.len()
    )
}

// ---------------------------------------------------------------------
// Satellite: partial I/O. Requests dribbled a byte at a time, responses
// read one byte at a time, across keep-alive.
// ---------------------------------------------------------------------

#[test]
fn dribbled_requests_and_one_byte_reads_across_keep_alive() {
    let handle = reactor_server();
    let body = graph_io::write_edge_list(&classic::petersen());
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.set_nodelay(true).unwrap();

    let mut frames = Vec::new();
    for i in 0..2 {
        let request = render_request(
            "POST",
            "/solve?p=2,1",
            &format!("dribble-{i}"),
            &body,
            false,
        );
        // One byte per write, with pauses, so the reactor sees the
        // request as dozens of partial reads and must keep parser state
        // across them.
        for (j, byte) in request.as_bytes().iter().enumerate() {
            stream.write_all(std::slice::from_ref(byte)).unwrap();
            if j % 16 == 0 {
                stream.flush().unwrap();
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        stream.flush().unwrap();
        frames.push(read_frame(&mut stream, 1));
    }
    let cold = String::from_utf8(frames[0].clone()).unwrap();
    let warm = String::from_utf8(frames[1].clone()).unwrap();
    assert!(cold.starts_with("HTTP/1.1 200"), "{cold}");
    assert!(warm.starts_with("HTTP/1.1 200"), "{warm}");
    assert!(cold.contains("x-dclab-cache: miss"), "{cold}");
    assert!(warm.contains("x-dclab-cache: hit"), "{warm}");
    assert!(cold.contains("x-request-id: dribble-0"), "{cold}");
    // Same instance bytes → bit-identical report, cold or cached.
    let body_of = |f: &str| f.split("\r\n\r\n").nth(1).unwrap().to_string();
    assert_eq!(body_of(&cold), body_of(&warm));
    drop(stream);
    shutdown(handle);
}

// ---------------------------------------------------------------------
// Golden transcript. An 8-step keep-alive script (404, 405, a parse
// error, guard 422s, a cold /batch miss and a warm /solve hit) must be
// answered with exactly the committed response frames, request ids
// pinned by the client.
// ---------------------------------------------------------------------

const TRANSCRIPT: &str = "tests/fixtures/reactor_transcript.txt";

const TRANSCRIPT_HEADER: &str = "\
# Response frames to the reactor_e2e keep-alive script, one line per step:
# index, method, target, then the frame with \\ written as \\\\, CR as \\r and
# LF as \\n.";

/// One response frame on one line: `\` → `\\`, CR → `\r`, LF → `\n`.
fn escape_frame(frame: &[u8]) -> String {
    let text = std::str::from_utf8(frame).expect("response frames are UTF-8");
    text.replace('\\', "\\\\")
        .replace('\r', "\\r")
        .replace('\n', "\\n")
}

/// The fixture was recorded from the thread-per-connection server that
/// preceded the reactor, whose responses the reactor matched byte for
/// byte; on a mismatch the test names the steps that moved and writes the
/// transcript it got to `target/tmp/reactor_transcript.txt`. Copy that
/// file over the fixture only when the change is intended.
#[test]
fn reactor_responses_match_the_recorded_transcript() {
    let handle = reactor_server();
    let petersen = graph_io::write_edge_list(&classic::petersen());
    let k30 = graph_io::write_edge_list(&classic::complete(30));
    let batch = format!("{petersen}%%\nnot a graph\n");
    // (method, target, body). The /batch runs cold with NO live trace, so
    // its reports carry no phase timings; the warm /solve then returns
    // those phase-free bytes from the cache.
    let script: Vec<(&str, &str, &str)> = vec![
        ("GET", "/healthz", ""),
        ("GET", "/nope", ""),
        ("GET", "/solve", ""),
        ("POST", "/solve?p=2,1", "0 1\nnot an edge\n"),
        ("POST", "/solve?p=2,1&strategy=exact", &k30),
        ("POST", "/batch?p=2,1", &batch),
        ("POST", "/solve?p=2,1", &petersen),
        ("POST", "/solve?p=2,1&strategy=exact", &k30),
    ];
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let frames: Vec<Vec<u8>> = script
        .iter()
        .enumerate()
        .map(|(i, (method, target, body))| {
            let close = i == script.len() - 1;
            let req = render_request(method, target, &format!("diff-{i}"), body, close);
            stream.write_all(req.as_bytes()).unwrap();
            stream.flush().unwrap();
            read_frame(&mut stream, 4096)
        })
        .collect();
    drop(stream);
    shutdown(handle);
    // The warm /solve really was a phase-free cache hit.
    let warm = String::from_utf8_lossy(&frames[6]);
    assert!(warm.contains("x-dclab-cache: hit"), "{warm}");
    assert!(!warm.contains("\"phases\""), "{warm}");

    let got: Vec<String> = script
        .iter()
        .zip(&frames)
        .enumerate()
        .map(|(i, ((method, target, _), frame))| {
            format!("{i} {method} {target} {}", escape_frame(frame))
        })
        .collect();
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let fixture = std::fs::read_to_string(root.join(TRANSCRIPT)).unwrap_or_default();
    let want: Vec<&str> = fixture
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    if want == got {
        return;
    }
    let moved: Vec<String> = (0..got.len().max(want.len()))
        .filter(|&i| want.get(i).copied() != got.get(i).map(String::as_str))
        .map(|i| format!("  step {i}: {:?}", script.get(i).map(|(m, t, _)| (m, t))))
        .collect();
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("reactor_transcript.txt");
    std::fs::write(&out, format!("{TRANSCRIPT_HEADER}\n{}\n", got.join("\n"))).unwrap();
    panic!(
        "{} response frames differ from {TRANSCRIPT}:\n{}\nthe transcript received now is in \
         {}; copy that file over the fixture if the change is intended",
        moved.len(),
        moved.join("\n"),
        out.display()
    );
}

// ---------------------------------------------------------------------
// EOF in the middle of a request: a peer that half-closes after part of
// a head gets 400 "truncated request"; one that half-closes before
// sending a byte is closed without a reply.
// ---------------------------------------------------------------------

#[test]
fn eof_mid_request_answers_400_and_eof_before_a_request_closes() {
    let handle = reactor_server();
    let read_all_after_half_close = |sent: &[u8]| {
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.write_all(sent).unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let mut reply = Vec::new();
        stream.read_to_end(&mut reply).expect("server closes");
        String::from_utf8(reply).unwrap()
    };
    let truncated = read_all_after_half_close(b"GET /healthz HT");
    assert!(truncated.starts_with("HTTP/1.1 400"), "{truncated}");
    assert!(truncated.contains("truncated request"), "{truncated}");
    assert!(truncated.contains("connection: close"), "{truncated}");
    let silent = read_all_after_half_close(b"");
    assert!(silent.is_empty(), "{silent}");
    shutdown(handle);
}

// ---------------------------------------------------------------------
// Capacity: the reactor sustains at least 4 × (workers + 1)
// concurrent keep-alive connections, each proven live by a served
// request, with no 5xx: four times the most that a core pinning one
// worker per connection could hold, with a connection queued besides.
// ---------------------------------------------------------------------

/// Open keep-alive connections one at a time, each proving liveness with
/// a served request, until one fails to respond or `limit` is reached.
fn sustained_conns(addr: SocketAddr, limit: usize) -> usize {
    let mut held = Vec::new();
    for i in 0..limit {
        let Ok(mut stream) = TcpStream::connect(addr) else {
            return i;
        };
        stream
            .set_read_timeout(Some(Duration::from_millis(700)))
            .unwrap();
        let req = render_request("GET", "/healthz", &format!("cap-{i}"), "", false);
        if stream.write_all(req.as_bytes()).is_err() {
            return i;
        }
        let mut buf = [0u8; 1024];
        let mut got = Vec::new();
        loop {
            match stream.read(&mut buf) {
                Ok(0) | Err(_) => return i, // closed or timed out: not served
                Ok(n) => {
                    got.extend_from_slice(&buf[..n]);
                    if got.windows(4).any(|w| w == b"\r\n\r\n") {
                        break;
                    }
                }
            }
        }
        let head = String::from_utf8_lossy(&got);
        assert!(
            head.starts_with("HTTP/1.1 200"),
            "unexpected non-200: {head}"
        );
        held.push(stream); // keep it open: the point is concurrency
    }
    limit
}

#[test]
fn reactor_sustains_4x_workers_plus_one_keep_alive_connections() {
    let workers = 2;
    let reactor = server_with(ServeConfig {
        workers,
        cache_mb: 8,
        queue_cap: workers, // a small bounded queue
        ..Default::default()
    });
    let target = 4 * (workers + 1);
    let sustained = sustained_conns(reactor.addr(), 64.max(target));
    assert!(
        sustained >= target,
        "reactor sustained {sustained} < 4 × (workers + 1) = {target}"
    );
    shutdown(reactor);
}

// ---------------------------------------------------------------------
// Connection budget: accepts beyond --max-conns are shed with
// 503 + Retry-After before any worker is involved.
// ---------------------------------------------------------------------

#[test]
fn connections_beyond_budget_are_shed_with_503() {
    let handle = server_with(ServeConfig {
        workers: 2,
        cache_mb: 8,
        queue_cap: 0,
        max_conns: 3,
        ..Default::default()
    });
    let addr = handle.addr();
    let mut held = Vec::new();
    for i in 0..3 {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let req = render_request("GET", "/healthz", &format!("budget-{i}"), "", false);
        stream.write_all(req.as_bytes()).unwrap();
        read_frame(&mut stream, 4096);
        held.push(stream);
    }
    // Fourth connection: shed at accept, without sending a single byte.
    let mut extra = TcpStream::connect(addr).unwrap();
    extra
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let mut shed = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match extra.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => shed.extend_from_slice(&buf[..n]),
            Err(e) => panic!("expected shed response then close, got {e}"),
        }
    }
    let shed = String::from_utf8_lossy(&shed);
    assert!(shed.starts_with("HTTP/1.1 503"), "{shed}");
    assert!(shed.contains("retry-after: 1"), "{shed}");
    assert!(shed.contains("connection: close"), "{shed}");

    // The shed is visible on /metrics via one of the budgeted conns.
    let req = render_request("GET", "/metrics", "budget-m", "", false);
    held[0].write_all(req.as_bytes()).unwrap();
    let metrics = String::from_utf8(read_frame(&mut held[0], 4096)).unwrap();
    assert!(
        metrics.contains("dclab_rejected_conn_budget_total 1"),
        "{metrics}"
    );
    drop(held);
    shutdown(handle);
}

// ---------------------------------------------------------------------
// Satellite: slow-loris defense. Idle connections past --conn-idle-ms
// are reaped and counted.
// ---------------------------------------------------------------------

#[test]
fn idle_connections_are_reaped_and_counted() {
    let handle = server_with(ServeConfig {
        workers: 2,
        cache_mb: 8,
        queue_cap: 0,
        conn_idle_ms: 150,
        ..Default::default()
    });
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let req = render_request("GET", "/healthz", "idle-0", "", false);
    stream.write_all(req.as_bytes()).unwrap();
    read_frame(&mut stream, 4096);

    // Go idle past the deadline; the reaper must close us (EOF), and a
    // half-sent head counts as idle too (the classic slow-loris).
    let started = Instant::now();
    let mut buf = [0u8; 64];
    match stream.read(&mut buf) {
        Ok(0) => {}
        other => panic!("expected reap EOF, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(4),
        "reap took {:?}",
        started.elapsed()
    );

    let mut client = Client::new(handle.addr());
    let metrics = client.request("GET", "/metrics", "").unwrap();
    let reaped: u64 = metrics
        .body
        .lines()
        .find_map(|l| l.strip_prefix("dclab_conns_reaped_total "))
        .expect("reap counter present")
        .trim()
        .parse()
        .unwrap();
    assert!(reaped >= 1, "{}", metrics.body);
    drop(client);
    shutdown(handle);
}

// ---------------------------------------------------------------------
// Satellite: --max-body-bytes. Oversized declared bodies get 413 with a
// JSON error body — before the body is transferred.
// ---------------------------------------------------------------------

#[test]
fn oversized_bodies_rejected_with_413_on_both_paths() {
    let handle = server_with(ServeConfig {
        workers: 2,
        cache_mb: 8,
        queue_cap: 0,
        max_body_bytes: 1024,
        ..Default::default()
    });
    // Declare a 100 MB body but send only the head: the 413 must arrive
    // immediately, proving the server rejects on the declared length
    // instead of buffering.
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .write_all(b"POST /solve HTTP/1.1\r\nhost: t\r\ncontent-length: 104857600\r\n\r\n")
        .unwrap();
    let frame = String::from_utf8(read_frame(&mut stream, 4096)).unwrap();
    assert!(frame.starts_with("HTTP/1.1 413"), "{frame}");
    assert!(frame.contains("\"kind\":\"too-large\""), "{frame}");
    assert!(frame.contains("connection: close"), "{frame}");

    // An in-budget request on a fresh connection still works.
    let mut client = Client::new(handle.addr());
    let small = graph_io::write_edge_list(&classic::complete(4));
    let ok = client.request("POST", "/solve?p=2,1", &small).unwrap();
    assert_eq!(ok.status, 200, "{}", ok.body);
    drop(client);
    shutdown(handle);
}

// ---------------------------------------------------------------------
// Satellite: `Expect: 100-continue`. curl sends it on uploads over 1 MiB
// and holds the body back until the interim line arrives or 1 s passes.
// ---------------------------------------------------------------------

#[test]
fn expect_100_continue_is_answered_before_the_body() {
    let handle = server_with(ServeConfig {
        workers: 2,
        cache_mb: 8,
        queue_cap: 0,
        max_body_bytes: 4096,
        ..Default::default()
    });
    let body = graph_io::write_edge_list(&classic::petersen());
    let head = |expect: &str| {
        format!(
            "POST /solve?p=2,1 HTTP/1.1\r\nhost: t\r\n{expect}content-length: {}\r\n\r\n",
            body.len()
        )
    };
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    // Once per request, across keep-alive; the header value is matched
    // case-insensitively.
    for expect in ["expect: 100-continue\r\n", "Expect: 100-Continue\r\n"] {
        stream.write_all(head(expect).as_bytes()).unwrap();
        let mut interim = [0u8; 25];
        stream
            .read_exact(&mut interim)
            .expect("100 Continue within 2 s of the head");
        assert_eq!(&interim, b"HTTP/1.1 100 Continue\r\n\r\n");
        stream.write_all(body.as_bytes()).unwrap();
        let frame = String::from_utf8(read_frame(&mut stream, 4096)).unwrap();
        assert!(frame.starts_with("HTTP/1.1 200"), "{frame}");
    }
    // Without the header, a head sent ahead of its body gets no interim
    // line: the next bytes on the wire are the final response.
    stream.write_all(head("").as_bytes()).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    stream.write_all(body.as_bytes()).unwrap();
    let frame = String::from_utf8(read_frame(&mut stream, 4096)).unwrap();
    assert!(frame.starts_with("HTTP/1.1 200"), "{frame}");
    // An oversized declared body is refused outright, with no interim line.
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .write_all(b"POST /solve HTTP/1.1\r\nhost: t\r\nexpect: 100-continue\r\ncontent-length: 104857600\r\n\r\n")
        .unwrap();
    let frame = String::from_utf8(read_frame(&mut stream, 4096)).unwrap();
    assert!(frame.starts_with("HTTP/1.1 413"), "{frame}");
    drop(stream);
    shutdown(handle);
}

// ---------------------------------------------------------------------
// Tentpole: cluster mode. Two replicas consistent-hash canonical
// instance identities; non-owners proxy one hop; a soak across both
// replicas sees zero hard 5xx and live routing.
// ---------------------------------------------------------------------

fn free_addr() -> String {
    let l = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = l.local_addr().unwrap().to_string();
    drop(l);
    addr
}

#[test]
fn two_replica_cluster_routes_and_shares_the_cache() {
    let addr_a = free_addr();
    let addr_b = free_addr();
    let replicas = vec![addr_a.clone(), addr_b.clone()];
    let mk = |own: &str| {
        start(ServeConfig {
            addr: own.into(),
            workers: 2,
            cache_mb: 8,
            queue_cap: 0,
            cluster: replicas.clone(),
            ..Default::default()
        })
        .expect("bind cluster replica")
    };
    let a = mk(&addr_a);
    let b = mk(&addr_b);
    let mut via_a = Client::new(a.addr());
    let mut via_b = Client::new(b.addr());

    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let mut local = 0u64;
    let mut forwarded = 0u64;
    for i in 0..12 {
        let n = 10 + (i % 6);
        let g = random::gnp_with_diameter_at_most(&mut rng, n, 0.6, 2);
        let body = graph_io::write_edge_list(&g);
        let cold = via_a.request("POST", "/solve?p=2,1", &body).unwrap();
        assert_eq!(cold.status, 200, "{}", cold.body);
        match cold.header("x-dclab-routed") {
            Some("local") => local += 1,
            Some("forwarded") => forwarded += 1,
            other => panic!("missing/odd routing header {other:?}"),
        }
        // The owner cached it, so the same instance via the OTHER
        // replica is a hit — either locally owned or proxied to the
        // owner's cache — with a bit-identical report.
        let warm = via_b.request("POST", "/solve?p=2,1", &body).unwrap();
        assert_eq!(warm.status, 200, "{}", warm.body);
        assert_eq!(warm.header("x-dclab-cache"), Some("hit"), "instance {i}");
        assert_eq!(warm.body, cold.body, "instance {i} report diverged");
    }
    assert!(local > 0, "no locally-owned instances in 12 draws");
    assert!(forwarded > 0, "no forwarded instances in 12 draws");

    // Cross-replica soak: mixed corpus, several connections, no hard
    // 5xx, routing live on both sides.
    let stats = loadgen::soak(&loadgen::SoakConfig {
        addrs: vec![a.addr(), b.addr()],
        connections: 4,
        duration: Duration::from_millis(800),
        seed: 42,
        instances: 10,
    })
    .expect("soak runs");
    assert!(stats.requests > 0);
    assert_eq!(stats.transport_errors, 0);
    assert_eq!(stats.hard_5xx, 0, "{:?}", stats);
    assert_eq!(stats.unexpected, 0, "{:?}", stats);
    assert!(stats.routed_forwarded > 0, "{:?}", stats);
    assert!(stats.routed_local > 0, "{:?}", stats);

    drop(via_a);
    drop(via_b);
    shutdown(a);
    shutdown(b);
}
