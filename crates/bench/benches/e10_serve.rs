//! E10 bench — the solve service end to end: cold vs. warm latency over a
//! live HTTP server, exercising the canonical-instance report cache.
//!
//! Replays the loadgen corpora against an in-process `dclab-serve` server
//! on an ephemeral port:
//!
//! * **exact corpus** (Held–Karp-range instances, `strategy=exact`): pass 1
//!   is all cache misses (real solves), pass 2 all hits. The interesting
//!   number is the warm-p50 speedup — the whole point of the cache.
//! * **mixed corpus** (several strategies, isomorphic relabelings,
//!   adversarial guard 422s): the warm pass must run ≥ 90 % hits with
//!   bit-identical report bodies.
//!
//! * **connection capacity**: keep-alive connections the epoll reactor
//!   sustains concurrently, each proven live by a served request. It must
//!   manage at least 4 × (workers + 1): four times the most a core pinning
//!   one worker per connection could hold, with one connection queued
//!   besides (gated as `serve_conns_sustained` in bench-gate).
//! * **cluster soak**: two consistent-hash replicas under concurrent
//!   mixed load; publishes the latency histogram (p50/p90/p99/p999),
//!   routing tallies, and the hard-5xx count (must be zero).
//!
//! Writes machine-readable results to `BENCH_serve.json` at the workspace
//! root and exits non-zero if the acceptance invariants fail (warm p50 at
//! least 10× faster than cold on the exact corpus; warm hit rate ≥ 0.9;
//! reactor capacity ≥ 4 × (workers + 1); clean cluster soak).
//!
//! `DCLAB_BENCH_QUICK=1` shrinks the corpora, the capacity probe cap, and
//! the soak duration for CI.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

use dclab_engine::json::{array, Obj};
use dclab_serve::loadgen::{exact_corpus, mixed_corpus, run_pass, PassStats, SoakConfig};
use dclab_serve::{loadgen, start, ServeConfig};

fn pass_json(name: &str, stats: &PassStats) -> String {
    Obj::new()
        .str("pass", name)
        .raw("stats", &stats.to_json())
        .finish()
}

/// Open keep-alive connections one at a time, each proving liveness with
/// a served `/healthz`, until one fails to get a response or `limit` is
/// reached. All sockets are held open, so the count is true concurrency.
fn sustained_conns(addr: SocketAddr, limit: usize) -> usize {
    let mut held = Vec::new();
    for i in 0..limit {
        let Ok(mut stream) = TcpStream::connect(addr) else {
            return i;
        };
        let _ = stream.set_read_timeout(Some(Duration::from_millis(700)));
        let req = format!("GET /healthz HTTP/1.1\r\nhost: b\r\nx-request-id: cap-{i}\r\ncontent-length: 0\r\n\r\n");
        if stream.write_all(req.as_bytes()).is_err() {
            return i;
        }
        let mut buf = [0u8; 1024];
        let mut got = Vec::new();
        loop {
            match stream.read(&mut buf) {
                Ok(0) | Err(_) => return i,
                Ok(n) => {
                    got.extend_from_slice(&buf[..n]);
                    if got.windows(4).any(|w| w == b"\r\n\r\n") {
                        break;
                    }
                }
            }
        }
        if !got.starts_with(b"HTTP/1.1 200") {
            return i;
        }
        held.push(stream);
    }
    limit
}

fn free_addr() -> String {
    let l = TcpListener::bind("127.0.0.1:0").expect("probe a free port");
    let addr = l.local_addr().expect("local addr").to_string();
    drop(l);
    addr
}

fn main() {
    let quick = std::env::var("DCLAB_BENCH_QUICK").is_ok();
    let workers = 4;
    let handle = start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        cache_mb: 64,
        queue_cap: 0,
        ..Default::default()
    })
    .expect("bind ephemeral port");
    let addr = handle.addr();

    // --- Exact-strategy corpus: cold (all solves) vs. warm (all hits). ---
    let exact = exact_corpus(2024, if quick { 6 } else { 10 });
    let cold = run_pass(addr, &exact).expect("cold exact pass");
    let warm = run_pass(addr, &exact).expect("warm exact pass");
    let (cold_p50, warm_p50) = (cold.percentile_us(0.5), warm.percentile_us(0.5));
    let speedup = cold_p50 as f64 / warm_p50.max(1) as f64;
    println!(
        "bench e10_serve/exact: cold p50 {cold_p50} us, warm p50 {warm_p50} us, \
         speedup {speedup:.1}x (hits {}/{})",
        warm.hits, warm.requests
    );

    // --- Mixed corpus: warm hit rate and bit-identical reports. ---
    let mixed = mixed_corpus(2024, if quick { 10 } else { 16 });
    let mixed_cold = run_pass(addr, &mixed).expect("cold mixed pass");
    let mixed_warm = run_pass(addr, &mixed).expect("warm mixed pass");
    // Gated tail latency (bench-gate `serve_p99_us`): the cold mixed pass
    // exercises real solves across strategies, so its p99 notices when
    // per-request work (tracing, cache, routing) bloats the tail.
    let serve_p99_us = mixed_cold.percentile_us(0.99);
    println!(
        "bench e10_serve/mixed: warm hit rate {:.3}, cold p99 {serve_p99_us} us, unexpected {}",
        mixed_warm.hit_rate(),
        mixed_cold.unexpected + mixed_warm.unexpected
    );

    // --- Connection capacity: a reactor keep-alive connection costs a ---
    // --- buffer, not a worker. ---
    let cap_limit = if quick { 96 } else { 256 };
    let conns_sustained = sustained_conns(addr, cap_limit);
    let min_conns = 4 * (workers + 1);
    println!(
        "bench e10_serve/capacity: reactor sustained {conns_sustained} keep-alive conns \
         (probe cap {cap_limit}) on {workers} workers, gate {min_conns}"
    );

    // --- Two-replica cluster soak: mixed load, latency histogram, ---
    // --- routing tallies, zero hard 5xx. ---
    let addr_a = free_addr();
    let addr_b = free_addr();
    let replicas = vec![addr_a.clone(), addr_b.clone()];
    let mk_replica = |own: &String| {
        start(ServeConfig {
            addr: own.clone(),
            workers: 2,
            cache_mb: 16,
            queue_cap: 0,
            cluster: replicas.clone(),
            ..Default::default()
        })
        .expect("bind cluster replica")
    };
    let replica_a = mk_replica(&addr_a);
    let replica_b = mk_replica(&addr_b);
    let soak = loadgen::soak(&SoakConfig {
        addrs: vec![replica_a.addr(), replica_b.addr()],
        connections: 8,
        duration: Duration::from_millis(if quick { 800 } else { 2000 }),
        seed: 2024,
        instances: 12,
    })
    .expect("cluster soak");
    println!(
        "bench e10_serve/cluster: {} reqs, p50 {} us, p99 {} us, p999 {} us, \
         hit rate {:.3}, local rate {:.3}, forwarded {}, hard 5xx {}",
        soak.requests,
        soak.percentile_us(0.5),
        soak.percentile_us(0.99),
        soak.percentile_us(0.999),
        soak.hit_rate(),
        soak.routing_local_rate(),
        soak.routed_forwarded,
        soak.hard_5xx
    );
    replica_a.shutdown();
    replica_b.shutdown();
    replica_a.join();
    replica_b.join();

    let passes = array(vec![
        pass_json("exact_cold", &cold),
        pass_json("exact_warm", &warm),
        pass_json("mixed_cold", &mixed_cold),
        pass_json("mixed_warm", &mixed_warm),
    ]);
    let json = format!(
        "{}\n",
        Obj::new()
            .str("bench", "e10_serve")
            .u64("exact_cold_p50_us", cold_p50)
            .u64("exact_warm_p50_us", warm_p50)
            .f64("exact_warm_speedup_p50", speedup)
            .f64("mixed_warm_hit_rate", mixed_warm.hit_rate())
            .u64("serve_p99_us", serve_p99_us)
            .usize("serve_conns_sustained", conns_sustained)
            .raw("cluster_soak", &soak.to_json())
            .raw("passes", &passes)
            .finish()
    );
    // Land at the workspace root regardless of the bench CWD.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    std::fs::write(path, &json).expect("write BENCH_serve.json");
    println!("wrote {path}");

    handle.shutdown();
    handle.join();

    // Acceptance invariants (ISSUE 2): fail loudly rather than reporting a
    // regressed cache as a passing bench.
    let mut failures = Vec::new();
    if speedup < 10.0 {
        failures.push(format!("warm p50 speedup {speedup:.1}x < 10x"));
    }
    if warm.hit_rate() < 1.0 {
        failures.push(format!(
            "exact warm pass hit rate {:.3} < 1",
            warm.hit_rate()
        ));
    }
    if mixed_warm.hit_rate() < 0.9 {
        failures.push(format!(
            "mixed warm pass hit rate {:.3} < 0.9",
            mixed_warm.hit_rate()
        ));
    }
    for ((name, cold_body), (_, warm_body)) in cold.bodies.iter().zip(&warm.bodies) {
        if cold_body != warm_body {
            failures.push(format!("report for '{name}' differs between passes"));
        }
    }
    if cold.unexpected + warm.unexpected + mixed_cold.unexpected + mixed_warm.unexpected > 0 {
        failures.push("unexpected HTTP statuses".into());
    }
    if conns_sustained < min_conns {
        failures.push(format!(
            "reactor sustained {conns_sustained} conns < 4 × (workers + 1) = {min_conns}"
        ));
    }
    // Cluster soak: routing live, no hard 5xx, no transport errors.
    if soak.hard_5xx > 0 {
        failures.push(format!("cluster soak saw {} hard 5xx", soak.hard_5xx));
    }
    if soak.unexpected > 0 {
        failures.push(format!(
            "cluster soak saw {} unexpected statuses",
            soak.unexpected
        ));
    }
    if soak.transport_errors > 0 {
        failures.push(format!(
            "cluster soak saw {} transport errors",
            soak.transport_errors
        ));
    }
    if soak.routed_forwarded == 0 || soak.routed_local == 0 {
        failures.push("cluster soak routing not exercised both ways".into());
    }
    if !failures.is_empty() {
        eprintln!("e10_serve FAILED: {}", failures.join("; "));
        std::process::exit(1);
    }
}
