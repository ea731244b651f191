//! End-to-end tests for the epoll reactor serve core: partial-I/O
//! robustness, differential byte-identity against `--legacy-blocking`,
//! connection-budget capacity, slow-loris reaping, body caps, admin
//! responsiveness under worker saturation, and consistent-hash cluster
//! routing.
//!
//! The differential suite leans on one determinism fact: a report's
//! `stats.phases` (microsecond timings) is filled only when a live trace
//! is installed, which `POST /solve` does and `POST /batch` does not. So
//! a cold `/batch` response is byte-deterministic, and a warm `/solve`
//! for the same instance returns the batch's phase-free cached bytes —
//! identical across two independent servers.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
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
// Satellite: differential oracle. The same request sequence against a
// reactor server and a --legacy-blocking server must produce identical
// response BYTES (request ids pinned by the client).
// ---------------------------------------------------------------------

#[test]
fn reactor_and_legacy_blocking_responses_are_byte_identical() {
    let mk = |legacy| {
        server_with(ServeConfig {
            workers: 2,
            cache_mb: 8,
            queue_cap: 0,
            legacy_blocking: legacy,
            ..Default::default()
        })
    };
    let reactor = mk(false);
    let legacy = mk(true);

    let petersen = graph_io::write_edge_list(&classic::petersen());
    let k30 = graph_io::write_edge_list(&classic::complete(30));
    let batch = format!("{petersen}%%\nnot a graph\n");
    // (method, target, body, expect). The /batch runs cold with NO live
    // trace, so its reports carry no phase timings; the warm /solve then
    // returns those phase-free bytes from the cache on both servers.
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

    let run = |addr: SocketAddr| -> Vec<Vec<u8>> {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        script
            .iter()
            .enumerate()
            .map(|(i, (method, target, body))| {
                let close = i == script.len() - 1;
                let req = render_request(method, target, &format!("diff-{i}"), body, close);
                stream.write_all(req.as_bytes()).unwrap();
                stream.flush().unwrap();
                read_frame(&mut stream, 4096)
            })
            .collect()
    };

    let via_reactor = run(reactor.addr());
    let via_legacy = run(legacy.addr());
    for (i, (r, l)) in via_reactor.iter().zip(&via_legacy).enumerate() {
        assert_eq!(
            String::from_utf8_lossy(r),
            String::from_utf8_lossy(l),
            "script step {i} ({:?}) diverged between reactor and legacy",
            script[i]
        );
    }
    // Sanity: the warm /solve really was a phase-free cache hit.
    let warm = String::from_utf8_lossy(&via_reactor[6]);
    assert!(warm.contains("x-dclab-cache: hit"), "{warm}");
    assert!(!warm.contains("\"phases\""), "{warm}");
    shutdown(reactor);
    shutdown(legacy);
}

// ---------------------------------------------------------------------
// Tentpole acceptance: at equal worker count the reactor sustains at
// least 4x the concurrent keep-alive connections of the legacy path,
// with no 5xx.
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
fn reactor_sustains_4x_the_keep_alive_connections_of_legacy() {
    let workers = 2;
    let mk = |legacy| {
        server_with(ServeConfig {
            workers,
            cache_mb: 8,
            queue_cap: workers, // small bounded queue, same for both
            legacy_blocking: legacy,
            ..Default::default()
        })
    };
    let legacy = mk(true);
    // Every legacy keep-alive connection pins a worker, so it saturates
    // at the worker count no matter how many sockets accept().
    let legacy_sustained = sustained_conns(legacy.addr(), 32);
    assert!(
        legacy_sustained <= workers + 1,
        "legacy path should pin workers, sustained {legacy_sustained}"
    );
    drop(legacy); // keep-alive conns pin its workers; don't drain, just drop

    let reactor = mk(false);
    let target = (legacy_sustained.max(1)) * 4;
    let reactor_sustained = sustained_conns(reactor.addr(), 64.max(target));
    assert!(
        reactor_sustained >= target,
        "reactor sustained {reactor_sustained} < 4x legacy's {legacy_sustained}"
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
// JSON error body — before the body is transferred — on both paths.
// ---------------------------------------------------------------------

#[test]
fn oversized_bodies_rejected_with_413_on_both_paths() {
    for legacy in [false, true] {
        let handle = server_with(ServeConfig {
            workers: 2,
            cache_mb: 8,
            queue_cap: 0,
            max_body_bytes: 1024,
            legacy_blocking: legacy,
            ..Default::default()
        });
        // Declare a 100 MB body but send only the head: the 413 must
        // arrive immediately, proving the server rejects on the declared
        // length instead of buffering.
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream
            .write_all(b"POST /solve HTTP/1.1\r\nhost: t\r\ncontent-length: 104857600\r\n\r\n")
            .unwrap();
        let frame = String::from_utf8(read_frame(&mut stream, 4096)).unwrap();
        assert!(
            frame.starts_with("HTTP/1.1 413"),
            "legacy={legacy}: {frame}"
        );
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
// Satellite: admin endpoints stay responsive while every worker is busy
// and the queue is full — they run on the reactor thread, never the pool.
// ---------------------------------------------------------------------

#[test]
fn metrics_and_debug_respond_while_workers_are_saturated() {
    let handle = server_with(ServeConfig {
        workers: 1,
        cache_mb: 8,
        queue_cap: 1,
        ..Default::default()
    });
    let addr = handle.addr();

    // Two deadline solves on distinct instances: one occupies the single
    // worker, the other fills the queue.
    let solvers: Vec<_> = (0..2)
        .map(|seed| {
            std::thread::spawn(move || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let g = random::gnp_with_diameter_at_most(&mut rng, 300, 0.5, 2);
                let body = graph_io::write_edge_list(&g);
                let mut client = Client::new(addr);
                client
                    .request("POST", "/solve?p=2,1&strategy=race&deadline-ms=1500", &body)
                    .unwrap()
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(400));

    // Worker busy + queue full: admin endpoints must still answer fast.
    let mut client = Client::new(addr);
    for target in ["/healthz", "/metrics", "/debug/slowlog", "/debug/traces"] {
        let started = Instant::now();
        let resp = client.request("GET", target, "").unwrap();
        assert_eq!(resp.status, 200, "{target}: {}", resp.body);
        assert!(
            started.elapsed() < Duration::from_millis(500),
            "{target} took {:?} under saturation",
            started.elapsed()
        );
    }

    // A third solve is shed with 503 + Retry-After — and the shed
    // happens without blocking and keeps the connection usable.
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    let g = random::gnp_with_diameter_at_most(&mut rng, 300, 0.5, 2);
    let body = graph_io::write_edge_list(&g);
    let shed = client
        .request("POST", "/solve?p=2,1&strategy=race&deadline-ms=1500", &body)
        .unwrap();
    assert_eq!(shed.status, 503, "{}", shed.body);
    assert_eq!(shed.header("retry-after"), Some("1"));
    assert!(shed.body.contains("\"kind\":\"overload\""), "{}", shed.body);
    let after = client.request("GET", "/healthz", "").unwrap();
    assert_eq!(after.status, 200, "connection survives a shed");

    for j in solvers {
        let resp = j.join().unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
    }
    drop(client);
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
