//! End-to-end tests: a real server on an ephemeral port, a real TCP
//! client, full request/response cycles.

use std::io::{ErrorKind, Read, Write};
use std::time::Duration;

use dclab_graph::generators::classic;
use dclab_graph::io as graph_io;
use dclab_serve::loadgen::{self, Client};
use dclab_serve::server::{start, ServeConfig};
use dclab_serve::ServerHandle;
use dclab_serve::{cluster, http};

fn test_server() -> (ServerHandle, Client) {
    let handle = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        cache_mb: 8,
        queue_cap: 0,
        ..Default::default()
    })
    .expect("bind ephemeral port");
    let client = Client::new(handle.addr());
    (handle, client)
}

fn stop(handle: ServerHandle, client: Client) {
    drop(client);
    handle.shutdown();
    handle.join();
}

#[test]
fn healthz_and_metrics_respond() {
    let (handle, mut client) = test_server();
    let health = client.request("GET", "/healthz", "").unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(health.body, "{\"status\":\"ok\"}");
    // Default /metrics is Prometheus text with its own content-type.
    let metrics = client.request("GET", "/metrics", "").unwrap();
    assert_eq!(metrics.status, 200);
    assert_eq!(
        metrics.header("content-type"),
        Some("text/plain; version=0.0.4"),
        "Prometheus text must not claim to be JSON"
    );
    assert!(metrics.body.contains("# TYPE dclab_requests_total counter"));
    assert!(metrics.body.contains("dclab_cache_hits_total 0"));
    assert!(metrics
        .body
        .contains("# TYPE dclab_solve_latency_seconds histogram"));
    // JSON view still available for humans and the loadgen.
    let json = client.request("GET", "/metrics?format=json", "").unwrap();
    assert_eq!(json.status, 200);
    assert_eq!(json.header("content-type"), Some("application/json"));
    assert!(json.body.contains("\"requests_total\":"));
    assert!(json.body.contains("\"cache\":{"));
    assert!(json.body.contains("\"solve_latency\":{"));
    let bad = client.request("GET", "/metrics?format=xml", "").unwrap();
    assert_eq!(bad.status, 400);
    stop(handle, client);
}

#[test]
fn solve_cold_then_warm_is_bit_identical() {
    let (handle, mut client) = test_server();
    let body = graph_io::write_edge_list(&classic::petersen());
    let cold = client
        .request("POST", "/solve?p=2,1&strategy=auto", &body)
        .unwrap();
    assert_eq!(cold.status, 200, "{}", cold.body);
    assert_eq!(cold.header("x-dclab-cache"), Some("miss"));
    assert!(cold.body.contains("\"span\":9"), "λ_{{2,1}}(Petersen) = 9");
    let warm = client
        .request("POST", "/solve?p=2,1&strategy=auto", &body)
        .unwrap();
    assert_eq!(warm.status, 200);
    assert_eq!(warm.header("x-dclab-cache"), Some("hit"));
    assert_eq!(cold.body, warm.body, "cached report is bit-identical");
    stop(handle, client);
}

#[test]
fn isomorphic_relabeling_hits_the_cache() {
    let (handle, mut client) = test_server();
    let g = classic::petersen();
    let perm = vec![5, 0, 8, 2, 9, 1, 7, 3, 6, 4];
    let h = g.relabeled(&perm);
    let first = client
        .request("POST", "/solve?p=2,1", &graph_io::write_edge_list(&g))
        .unwrap();
    assert_eq!(first.header("x-dclab-cache"), Some("miss"));
    let second = client
        .request("POST", "/solve?p=2,1", &graph_io::write_edge_list(&h))
        .unwrap();
    assert_eq!(
        second.header("x-dclab-cache"),
        Some("hit"),
        "relabeled instance must hit the canonical entry"
    );
    // Same span, and a labeling valid for the *relabeled* graph.
    assert!(second.body.contains("\"span\":9"));
    stop(handle, client);
}

#[test]
fn guard_failure_returns_422_with_json_error() {
    let (handle, mut client) = test_server();
    // n = 30 > EXACT_MAX_N with an explicit exact request → GuardError.
    let body = graph_io::write_edge_list(&classic::complete(30));
    let resp = client
        .request("POST", "/solve?p=2,1&strategy=exact", &body)
        .unwrap();
    assert_eq!(resp.status, 422, "{}", resp.body);
    assert!(resp.body.contains("\"kind\":\"guard\""), "{}", resp.body);
    assert!(
        resp.body.contains("exceeds the exact-solver guard"),
        "GuardError message surfaces verbatim: {}",
        resp.body
    );
    stop(handle, client);
}

/// A restart count past the guard is refused before the heuristic
/// allocates a slot per restart, so `/solve` and each `/batch` item answer with a
/// guard error and the server keeps serving.
#[test]
fn oversized_restarts_return_422_and_the_server_keeps_serving() {
    let (handle, mut client) = test_server();
    let body = graph_io::write_edge_list(&classic::petersen());
    for (path, status) in [("/solve", 422), ("/batch", 200)] {
        let target = format!("{path}?p=2,1&strategy=heuristic&restarts=1099511627776");
        let resp = client.request("POST", &target, &body).unwrap();
        assert_eq!(resp.status, status, "{path}: {}", resp.body);
        assert!(resp.body.contains("\"kind\":\"guard\""), "{}", resp.body);
        assert!(
            resp.body.contains("exceeds the restart guard"),
            "{}",
            resp.body
        );
    }
    let health = client.request("GET", "/healthz", "").unwrap();
    assert_eq!(health.status, 200, "server survives the request");
    stop(handle, client);
}

#[test]
fn an_oversized_vertex_count_is_a_parse_error_and_the_server_keeps_serving() {
    // Fourteen bytes that once asked for ~2.4 TB of neighbor lists.
    let (handle, mut client) = test_server();
    for path in ["/solve", "/batch"] {
        let resp = client
            .request("POST", &format!("{path}?p=2,1"), "n 99999999999\n")
            .unwrap();
        let status = if path == "/solve" { 400 } else { 200 };
        assert_eq!(resp.status, status, "{path}: {}", resp.body);
        assert!(resp.body.contains("\"kind\":\"parse\""), "{}", resp.body);
        assert!(
            resp.body
                .contains("line 1: vertex count 99999999999 exceeds the limit of 1048576"),
            "{}",
            resp.body
        );
    }
    let health = client.request("GET", "/healthz", "").unwrap();
    assert_eq!(health.status, 200, "server survives the request");
    stop(handle, client);
}

#[test]
fn unsupported_and_parse_errors_are_typed() {
    let (handle, mut client) = test_server();
    // Path graph has diameter > 2: the Theorem 2 reduction refuses.
    let body = graph_io::write_edge_list(&classic::path(8));
    let resp = client
        .request("POST", "/solve?p=2,1&strategy=exact", &body)
        .unwrap();
    assert_eq!(resp.status, 422);
    assert!(
        resp.body.contains("\"kind\":\"reduction\""),
        "{}",
        resp.body
    );
    // Garbage body → 400 with line-accurate parse error.
    let resp = client
        .request("POST", "/solve?p=2,1", "0 1\nnot an edge\n")
        .unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("\"kind\":\"parse\""));
    assert!(resp.body.contains("line 2"), "{}", resp.body);
    // Bad query params → 400.
    let resp = client
        .request("POST", "/solve?strategy=frobnicate", "0 1\n")
        .unwrap();
    assert_eq!(resp.status, 400);
    stop(handle, client);
}

#[test]
fn dimacs_bodies_sniffed_and_explicit() {
    let (handle, mut client) = test_server();
    let dimacs = graph_io::write_dimacs(&classic::petersen());
    let sniffed = client.request("POST", "/solve?p=2,1", &dimacs).unwrap();
    assert_eq!(sniffed.status, 200, "{}", sniffed.body);
    let explicit = client
        .request("POST", "/solve?p=2,1&format=dimacs", &dimacs)
        .unwrap();
    assert_eq!(explicit.status, 200);
    assert_eq!(explicit.header("x-dclab-cache"), Some("hit"));
    stop(handle, client);
}

#[test]
fn batch_endpoint_solves_many_and_reports_cache_headers() {
    let (handle, mut client) = test_server();
    let a = graph_io::write_edge_list(&classic::complete(5));
    let b = graph_io::write_edge_list(&classic::petersen());
    let body = format!("{a}%%\n{b}%%\nthis is not a graph\n");
    let resp = client.request("POST", "/batch?p=2,1", &body).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("x-dclab-cache-hits"), Some("0"));
    assert_eq!(resp.header("x-dclab-cache-misses"), Some("2"));
    assert!(resp.body.starts_with('['));
    assert!(
        resp.body.contains("\"kind\":\"parse\""),
        "third item errored"
    );
    // Replaying the batch is all hits.
    let again = client.request("POST", "/batch?p=2,1", &body).unwrap();
    assert_eq!(again.header("x-dclab-cache-hits"), Some("2"));
    assert_eq!(again.header("x-dclab-cache-misses"), Some("0"));
    stop(handle, client);
}

#[test]
fn unknown_paths_and_methods_rejected() {
    let (handle, mut client) = test_server();
    let resp = client.request("GET", "/nope", "").unwrap();
    assert_eq!(resp.status, 404);
    let resp = client.request("GET", "/solve", "").unwrap();
    assert_eq!(resp.status, 405);
    let resp = client.request("POST", "/healthz", "").unwrap();
    assert_eq!(resp.status, 405);
    stop(handle, client);
}

#[test]
fn metrics_reflect_traffic_and_strategies() {
    let (handle, mut client) = test_server();
    let body = graph_io::write_edge_list(&classic::complete(8));
    for _ in 0..3 {
        let r = client
            .request("POST", "/solve?p=2,1&strategy=exact", &body)
            .unwrap();
        assert_eq!(r.status, 200);
    }
    let metrics = client.request("GET", "/metrics?format=json", "").unwrap();
    assert!(
        metrics.body.contains("\"solve_requests\":3"),
        "{}",
        metrics.body
    );
    assert!(metrics.body.contains("\"hits\":2"), "{}", metrics.body);
    assert!(metrics.body.contains("\"misses\":1"), "{}", metrics.body);
    assert!(metrics.body.contains("\"exact\":1"), "one actual solve");
    // The Prometheus view reports the same traffic.
    let prom = client.request("GET", "/metrics", "").unwrap();
    assert!(
        prom.body
            .contains("dclab_endpoint_requests_total{endpoint=\"solve\"} 3"),
        "{}",
        prom.body
    );
    assert!(prom.body.contains("dclab_cache_hits_total 2"));
    assert!(prom
        .body
        .contains("dclab_solves_total{strategy=\"exact\"} 1"));
    stop(handle, client);
}

/// The `oracle` query param pins the distance backend; hub- and
/// dense-backed solves return the same labeling but cache separately,
/// and hub traffic shows up in the `dclab_oracle_*` metric families.
#[test]
fn oracle_param_routes_and_is_metered() {
    let (handle, mut client) = test_server();
    let body = graph_io::write_edge_list(&classic::petersen());
    let hub = client
        .request(
            "POST",
            "/solve?p=2,1&strategy=oracle-path&oracle=hub",
            &body,
        )
        .unwrap();
    assert_eq!(hub.status, 200, "{}", hub.body);
    assert_eq!(hub.header("x-dclab-cache"), Some("miss"));
    assert!(
        hub.body.contains("\"oracle\":{\"backend\":\"hub\""),
        "{}",
        hub.body
    );
    let dense = client
        .request(
            "POST",
            "/solve?p=2,1&strategy=oracle-path&oracle=dense",
            &body,
        )
        .unwrap();
    // A pinned-dense request is a distinct cache identity: miss, not hit.
    assert_eq!(dense.header("x-dclab-cache"), Some("miss"));
    assert!(
        dense.body.contains("\"backend\":\"dense\""),
        "{}",
        dense.body
    );
    // Identical solution either way; only the stats tail differs.
    let span_of = |b: &str| {
        b.split("\"span\":")
            .nth(1)
            .unwrap()
            .split(',')
            .next()
            .unwrap()
            .to_string()
    };
    assert_eq!(span_of(&hub.body), span_of(&dense.body));
    // Repeating the hub request hits its cache entry.
    let again = client
        .request(
            "POST",
            "/solve?p=2,1&strategy=oracle-path&oracle=hub",
            &body,
        )
        .unwrap();
    assert_eq!(again.header("x-dclab-cache"), Some("hit"));
    let prom = client.request("GET", "/metrics", "").unwrap();
    assert!(
        prom.body.contains("dclab_oracle_labels_built_total 1"),
        "{}",
        prom.body
    );
    assert!(prom
        .body
        .contains("# TYPE dclab_oracle_query_total counter"));
    assert!(!prom.body.contains("dclab_oracle_query_total 0\n"));
    let bad = client
        .request("POST", "/solve?p=2,1&oracle=quantum", &body)
        .unwrap();
    assert_eq!(bad.status, 400, "{}", bad.body);
    stop(handle, client);
}

/// A raw HTTP/1.0 exchange: write `head` + `body`, read everything until
/// the server closes or the timeout hits. Returns the raw response text
/// and whether the server closed the connection after one response.
fn raw_http_exchange(addr: std::net::SocketAddr, request: &str) -> (String, bool) {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    stream.flush().unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let closed = loop {
        match stream.read(&mut chunk) {
            Ok(0) => break true, // server EOF — connection closed
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => break false, // timeout: server is keeping it open
        }
    };
    (String::from_utf8_lossy(&buf).into_owned(), closed)
}

#[test]
fn http10_defaults_to_close() {
    let (handle, client) = test_server();
    let addr = handle.addr();
    // No Connection header: a 1.0 client expects the server to close —
    // before the fix it would hang waiting for EOF on a kept-alive socket.
    let (resp, closed) = raw_http_exchange(addr, "GET /healthz HTTP/1.0\r\nhost: x\r\n\r\n");
    assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
    assert!(resp.contains("connection: close"), "{resp}");
    assert!(closed, "server must close after an HTTP/1.0 response");
    // Explicit opt-in keeps the connection open.
    let (resp, closed) = raw_http_exchange(
        addr,
        "GET /healthz HTTP/1.0\r\nhost: x\r\nConnection: keep-alive\r\n\r\n",
    );
    assert!(resp.contains("connection: keep-alive"), "{resp}");
    assert!(!closed, "keep-alive HTTP/1.0 connection must stay open");
    // HTTP/1.1 without a Connection header still defaults to keep-alive.
    let (resp, closed) = raw_http_exchange(addr, "GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n");
    assert!(resp.contains("connection: keep-alive"), "{resp}");
    assert!(!closed);
    stop(handle, client);
}

#[test]
fn shutdown_endpoint_drains_gracefully() {
    let (handle, mut client) = test_server();
    let resp = client.request("POST", "/shutdown", "").unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.body.contains("shutting-down"));
    drop(client);
    // join() must return promptly (accept loop polls the flag).
    let start = std::time::Instant::now();
    handle.join();
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "graceful shutdown took {:?}",
        start.elapsed()
    );
}

#[test]
fn loadgen_self_test_passes() {
    let summary = loadgen::self_test(Duration::from_millis(500)).expect("self test passes");
    assert!(summary.contains("\"status\":\"ok\""));
    assert!(summary.contains("\"warm_hit_rate\":1.000000"), "{summary}");
}

#[test]
fn deadline_solve_returns_best_incumbent_never_5xx() {
    use rand::SeedableRng;
    let (handle, mut client) = test_server();
    // A hardness-corpus instance (Griggs–Yeh reduction of G(399, ½)) whose
    // optimum encodes a Hamiltonian-path question: a 1 ms deadline cannot
    // prove optimality — the root Held–Karp bound certifies 400 but every
    // harvested incumbent lands above it. The response must still be 200
    // with a harvested (engine-validated) labeling, flagged timed_out.
    // (A plain dense G(n,p) no longer works here: greedy reaches the
    // root-bound optimum and the solve is *proved* despite the deadline.)
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let g = dclab_core::hardness::griggs_yeh_reduction(&dclab_graph::generators::random::gnp(
        &mut rng, 399, 0.5,
    ));
    let body = graph_io::write_edge_list(&g);
    let resp = client
        .request("POST", "/solve?p=2,1&strategy=race&deadline-ms=1", &body)
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(resp.body.contains("\"timed_out\":true"), "{}", resp.body);
    assert!(resp.body.contains("\"strategy_requested\":\"race\""));
    // Timed-out reports still carry a certificate: the deadline-capped
    // root ascent pins the lower bound at 400 (hk-ascent rung) and the
    // report surfaces the relative gap next to it.
    assert!(resp.body.contains("\"lower_bound\":400"), "{}", resp.body);
    assert!(
        resp.body.contains("\"kind\":\"hk-ascent\""),
        "{}",
        resp.body
    );
    assert!(resp.body.contains("\"gap\":0.0"), "{}", resp.body);
    assert_eq!(resp.header("x-dclab-cache"), Some("miss"));

    // The harvest is cached under the deadline-bearing key: replaying the
    // identical request is a hit with a bit-identical report.
    let warm = client
        .request("POST", "/solve?p=2,1&strategy=race&deadline-ms=1", &body)
        .unwrap();
    assert_eq!(warm.status, 200);
    assert_eq!(warm.header("x-dclab-cache"), Some("hit"));
    assert_eq!(warm.body, resp.body);

    // Timeout + race-winner counters surfaced on /metrics, plus the
    // certificate-kind counter and gap histogram for the fresh solve.
    let metrics = client.request("GET", "/metrics", "").unwrap();
    assert!(
        metrics.body.contains("dclab_solve_timeouts_total 1"),
        "{}",
        metrics.body
    );
    assert!(
        metrics
            .body
            .contains("dclab_bound_kind_total{kind=\"hk-ascent\"} 1"),
        "{}",
        metrics.body
    );
    assert!(
        metrics.body.contains("dclab_optimality_gap_count 1"),
        "{}",
        metrics.body
    );
    assert!(metrics
        .body
        .contains("# TYPE dclab_race_wins_total counter"));
    let race_wins: u64 = metrics
        .body
        .lines()
        .filter(|l| l.starts_with("dclab_race_wins_total{"))
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum();
    assert_eq!(race_wins, 1, "exactly one race winner recorded");
    stop(handle, client);
}

#[test]
fn bad_deadline_param_is_a_400() {
    let (handle, mut client) = test_server();
    let body = graph_io::write_edge_list(&classic::petersen());
    let resp = client
        .request("POST", "/solve?p=2,1&deadline-ms=soon", &body)
        .unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("bad deadline-ms"));
    stop(handle, client);
}

#[test]
fn deadline_requests_are_clamped_to_the_server_cap() {
    // A 1 ms cap turns even a generous client deadline into an instant
    // harvest — observable through the timeout counter.
    let handle = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        cache_mb: 8,
        queue_cap: 0,
        max_deadline_ms: 1,
        ..Default::default()
    })
    .expect("bind ephemeral port");
    let mut client = Client::new(handle.addr());
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let g = dclab_graph::generators::random::gnp_with_diameter_at_most(&mut rng, 400, 0.5, 2);
    let body = graph_io::write_edge_list(&g);
    let resp = client
        .request(
            "POST",
            "/solve?p=2,1&strategy=heuristic&deadline-ms=600000",
            &body,
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert!(
        resp.body.contains("\"timed_out\":true"),
        "cap not applied: {}",
        resp.body
    );
    stop(handle, client);
}

#[test]
fn request_ids_and_debug_traces() {
    let (handle, mut client) = test_server();
    let body = graph_io::write_edge_list(&classic::petersen());

    // A sane client-supplied X-Request-Id is echoed back and keys the
    // retained trace; restarts=1 keeps the heuristic single-threaded
    // (multi-restart runs fan lk spans across threads, whose *summed*
    // time may exceed the solve span's wall time) so phase totals nest
    // inside the engine's "solve" span.
    let resp = client
        .request_with_headers(
            "POST",
            "/solve?p=2,1&strategy=heuristic&restarts=1",
            &[("x-request-id", "e2e-trace-1")],
            &body,
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(resp.header("x-request-id"), Some("e2e-trace-1"));

    // The traced solve surfaced per-phase attribution in the report.
    let report = dclab_engine::json::parse(&resp.body).unwrap();
    let phases = report
        .path("stats.phases")
        .and_then(|v| v.as_arr())
        .expect("traced solve carries stats.phases");
    assert!(!phases.is_empty());
    let solve_total = phases
        .iter()
        .find(|p| p.get("name").and_then(|v| v.as_str()) == Some("solve"))
        .and_then(|p| p.get("total_us").and_then(|v| v.as_f64()))
        .expect("solve phase present");
    for p in phases {
        let name = p.get("name").and_then(|v| v.as_str()).unwrap();
        let total = p.get("total_us").and_then(|v| v.as_f64()).unwrap();
        assert!(
            total <= solve_total,
            "phase {name} ({total}µs) exceeds the enclosing solve span ({solve_total}µs)"
        );
    }

    // Requests without the header get a generated id.
    let anon = client.request("GET", "/healthz", "").unwrap();
    assert!(anon.header("x-request-id").unwrap().starts_with("req-"));
    // Hostile ids are replaced, not echoed.
    let hostile = client
        .request_with_headers("GET", "/healthz", &[("x-request-id", "a b")], "")
        .unwrap();
    assert!(hostile.header("x-request-id").unwrap().starts_with("req-"));

    // The flight recorder indexes the finished trace…
    let index = client.request("GET", "/debug/traces", "").unwrap();
    assert_eq!(index.status, 200);
    let index_json = dclab_engine::json::parse(&index.body).unwrap();
    let recent = index_json.get("recent").and_then(|v| v.as_arr()).unwrap();
    assert!(
        recent
            .iter()
            .any(|t| t.get("id").and_then(|v| v.as_str()) == Some("e2e-trace-1")),
        "{}",
        index.body
    );

    // …and serves the full span tree by request id.
    let full = client
        .request("GET", "/debug/traces/e2e-trace-1", "")
        .unwrap();
    assert_eq!(full.status, 200, "{}", full.body);
    let trace = dclab_engine::json::parse(&full.body).unwrap();
    assert_eq!(
        trace.get("label").and_then(|v| v.as_str()),
        Some("heuristic")
    );
    let spans = trace.get("spans").and_then(|v| v.as_arr()).unwrap();
    let span_names: Vec<&str> = spans
        .iter()
        .filter_map(|s| s.get("name").and_then(|v| v.as_str()))
        .collect();
    assert!(span_names.contains(&"request"), "{span_names:?}");
    assert!(span_names.contains(&"solve"), "{span_names:?}");

    // Unknown ids 404; wrong method on the debug surface is 405.
    let missing = client
        .request("GET", "/debug/traces/no-such-id", "")
        .unwrap();
    assert_eq!(missing.status, 404);
    let wrong = client.request("POST", "/debug/traces", "").unwrap();
    assert_eq!(wrong.status, 405);

    // A warm hit returns byte-identical JSON (phases come from the cached
    // report) and still records its own request trace.
    let warm = client
        .request_with_headers(
            "POST",
            "/solve?p=2,1&strategy=heuristic&restarts=1",
            &[("x-request-id", "e2e-trace-2")],
            &body,
        )
        .unwrap();
    assert_eq!(warm.header("x-dclab-cache"), Some("hit"));
    assert_eq!(warm.body, resp.body);
    let warm_trace = client
        .request("GET", "/debug/traces/e2e-trace-2", "")
        .unwrap();
    assert_eq!(warm_trace.status, 200, "{}", warm_trace.body);

    // Per-phase histograms made it to /metrics.
    let metrics = client.request("GET", "/metrics", "").unwrap();
    assert!(
        metrics
            .body
            .contains("# TYPE dclab_phase_seconds histogram"),
        "{}",
        metrics.body
    );
    assert!(metrics
        .body
        .contains("dclab_phase_seconds_count{phase=\"solve\"}"));
    stop(handle, client);
}

#[test]
fn cache_hits_trace_parse_and_canonicalization() {
    let (handle, mut client) = test_server();
    let g = classic::petersen();
    let miss = client
        .request("POST", "/solve?p=2,1", &graph_io::write_edge_list(&g))
        .unwrap();
    assert_eq!(miss.header("x-dclab-cache"), Some("miss"));
    // The solve's own attribution leaves the pre-solve spans out.
    assert!(!miss.body.contains("\"name\":\"parse\""), "{}", miss.body);
    let perm = [3, 8, 0, 5, 9, 1, 7, 2, 6, 4];
    let hit = client
        .request_with_headers(
            "POST",
            "/solve?p=2,1",
            &[("x-request-id", "e2e-hit-trace")],
            &graph_io::write_edge_list(&g.relabeled(&perm)),
        )
        .unwrap();
    assert_eq!(hit.header("x-dclab-cache"), Some("hit"), "{}", hit.body);

    let full = client
        .request("GET", "/debug/traces/e2e-hit-trace", "")
        .unwrap();
    assert_eq!(full.status, 200, "{}", full.body);
    let trace = dclab_engine::json::parse(&full.body).unwrap();
    let spans = trace.get("spans").and_then(|v| v.as_arr()).unwrap();
    let names: Vec<&str> = spans
        .iter()
        .filter_map(|s| s.get("name").and_then(|v| v.as_str()))
        .collect();
    assert_eq!(names, ["parse", "canon", "request"], "{}", full.body);

    let metrics = client.request("GET", "/metrics", "").unwrap();
    for phase in ["parse", "canon"] {
        let bucket = format!("dclab_phase_seconds_bucket{{phase=\"{phase}\"");
        assert!(metrics.body.contains(&bucket), "{}", metrics.body);
        let count = format!("dclab_phase_seconds_count{{phase=\"{phase}\"}} 2");
        assert!(metrics.body.contains(&count), "{}", metrics.body);
    }
    stop(handle, client);
}

#[test]
fn slow_solves_hit_the_structured_log() {
    // Threshold 0: every solve is "slow", so the log line contract is
    // testable without an actually slow instance.
    let handle = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        cache_mb: 8,
        queue_cap: 0,
        slow_solve_ms: 0,
        ..Default::default()
    })
    .expect("bind ephemeral port");
    let mut client = Client::new(handle.addr());
    let body = graph_io::write_edge_list(&classic::petersen());
    let resp = client
        .request_with_headers(
            "POST",
            "/solve?p=2,1&strategy=greedy",
            &[("x-request-id", "e2e-slow-1")],
            &body,
        )
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);

    let slowlog = client.request("GET", "/debug/slowlog", "").unwrap();
    assert_eq!(slowlog.status, 200);
    let parsed = dclab_engine::json::parse(&slowlog.body).unwrap();
    assert_eq!(
        parsed.get("slow_solve_ms").and_then(|v| v.as_f64()),
        Some(0.0)
    );
    let lines = parsed.get("lines").and_then(|v| v.as_arr()).unwrap();
    let line = lines
        .iter()
        .filter_map(|l| l.as_str())
        .find(|l| l.contains("request_id=e2e-slow-1"))
        .expect("slow-solve line for our request id");
    assert!(line.starts_with("slow-solve "), "{line}");
    assert!(line.contains("strategy=greedy"), "{line}");
    assert!(line.contains("total_us="), "{line}");
    assert!(line.contains("timed_out=false"), "{line}");
    assert!(line.contains("phases="), "{line}");
    assert!(line.contains("solve:"), "{line}");

    // The counter moved too.
    let metrics = client.request("GET", "/metrics?format=json", "").unwrap();
    let m = dclab_engine::json::parse(&metrics.body).unwrap();
    assert!(m.get("slow_solves").and_then(|v| v.as_f64()).unwrap() >= 1.0);
    stop(handle, client);
}

#[test]
fn clients_reject_an_oversized_declared_response_body() {
    // A fake server that declares a terabyte body: reading it must cost
    // the client an error, not an allocation of the declared size (which
    // aborts the process).
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    // Three exchanges: the client retries a failed one once on a fresh
    // connection, the proxy never retries.
    let server = std::thread::spawn(move || {
        for stream in listener.incoming().take(3) {
            let mut stream = stream.unwrap();
            // Both requests have empty bodies: the head is the whole request.
            let mut head = Vec::new();
            while !head.ends_with(b"\r\n\r\n") {
                let mut byte = [0u8];
                stream.read_exact(&mut byte).unwrap();
                head.push(byte[0]);
            }
            stream
                .write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 1000000000000\r\n\r\n")
                .unwrap();
        }
    });
    let err = Client::new(addr).request("GET", "/health", "").unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");

    // The cluster proxy reads upstream replies through the same reader.
    let raw = b"POST /solve?p=2,1 HTTP/1.1\r\ncontent-length: 0\r\n\r\n";
    let (req, _) = http::try_parse(raw, http::MAX_HEAD_BYTES, http::MAX_BODY_BYTES)
        .unwrap()
        .unwrap();
    let err = cluster::proxy(&addr.to_string(), &req, "rid-1", "127.0.0.1:1").unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
    server.join().expect("fake server");
}

/// A served report with its `stats.phases` timings dropped: the only
/// fields a live trace fills with wall-clock numbers.
fn without_phases(body: &str) -> dclab_engine::json::Value {
    use dclab_engine::json::Value;
    let mut report = dclab_engine::json::parse(body).expect("report JSON");
    if let Value::Obj(fields) = &mut report {
        for (key, value) in fields.iter_mut() {
            if let (true, Value::Obj(stats)) = (key == "stats", value) {
                stats.retain(|(name, _)| name != "phases");
            }
        }
    }
    report
}

#[test]
fn served_answers_do_not_depend_on_load() {
    use dclab_graph::generators::random;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    // Six distinct serve-cold-shaped instances. Sent two at a time, each
    // solve's fan-outs (diameter sweep, APSP, LK restarts) run inline or
    // borrow a helper depending on what the other worker is doing at that
    // moment; sent one at a time, they find the budget free.
    let mut rng = StdRng::seed_from_u64(26);
    let bodies: Vec<String> = (0..6)
        .map(|_| {
            graph_io::write_edge_list(&random::gnp_with_diameter_at_most(&mut rng, 60, 0.2, 3))
        })
        .collect();
    let target = "/solve?p=4,3,2&strategy=auto";
    let server = || {
        start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            cache_mb: 8,
            queue_cap: 0,
            ..Default::default()
        })
        .expect("bind ephemeral port")
    };

    let loaded = server();
    let addr = loaded.addr();
    let mut concurrent: Vec<(usize, http::Response)> = std::thread::scope(|s| {
        let callers: Vec<_> = (0..2)
            .map(|conn| {
                let bodies = &bodies;
                s.spawn(move || {
                    let mut client = Client::new(addr);
                    (conn..bodies.len())
                        .step_by(2)
                        .map(|i| (i, client.request("POST", target, &bodies[i]).unwrap()))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        callers
            .into_iter()
            .flat_map(|c| c.join().expect("client thread"))
            .collect()
    });
    loaded.shutdown();
    loaded.join();
    concurrent.sort_by_key(|&(i, _)| i);

    let fresh = server();
    let mut client = Client::new(fresh.addr());
    for (i, loaded_resp) in &concurrent {
        let alone = client.request("POST", target, &bodies[*i]).unwrap();
        assert_eq!(loaded_resp.status, 200, "{}", loaded_resp.body);
        assert_eq!(alone.status, 200, "{}", alone.body);
        assert_eq!(loaded_resp.header("x-dclab-cache"), Some("miss"));
        assert_eq!(alone.header("x-dclab-cache"), Some("miss"));
        let (a, b) = (
            without_phases(&loaded_resp.body),
            without_phases(&alone.body),
        );
        assert!(a.get("span").is_some(), "{}", loaded_resp.body);
        assert_eq!(a, b, "instance {i}: the report depends on load");
    }
    assert_eq!(concurrent.len(), bodies.len());
    stop(fresh, client);
}
