//! Load-test harness: a minimal blocking HTTP client, a mixed request
//! corpus (cold solves, warm repeats, isomorphic relabelings, adversarial
//! guard instances), per-pass latency/hit statistics, and a concurrent
//! multi-replica soak mode ([`soak`]) for cluster runs.
//!
//! Used four ways: the `e10_serve` bench (cold-vs-warm latency →
//! `BENCH_serve.json`), the CI smoke job (`dclab serve --self-test`), the
//! CI cluster-soak job (`dclab loadgen --addrs a,b`), and ad-hoc load
//! tests against a live server.

use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use dclab_engine::json::Obj;
use dclab_graph::generators::{classic, random};
use dclab_graph::io as graph_io;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::http::{read_response, Response};

/// Blocking keep-alive HTTP/1.1 client for one server.
pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client { addr, conn: None }
    }

    fn connect(&mut self) -> std::io::Result<&mut BufReader<TcpStream>> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(30)))?;
            self.conn = Some(BufReader::new(stream));
        }
        Ok(self.conn.as_mut().expect("just connected"))
    }

    /// Send one request; retries once on a stale keep-alive connection.
    pub fn request(&mut self, method: &str, target: &str, body: &str) -> std::io::Result<Response> {
        self.request_with_headers(method, target, &[], body)
    }

    /// Like [`Client::request`] but with extra request headers (e.g. a
    /// client-chosen `x-request-id` for trace correlation).
    pub fn request_with_headers(
        &mut self,
        method: &str,
        target: &str,
        headers: &[(&str, &str)],
        body: &str,
    ) -> std::io::Result<Response> {
        match self.request_once(method, target, headers, body) {
            Ok(r) => Ok(r),
            Err(_) => {
                // Server may have closed the idle connection; reconnect.
                self.conn = None;
                self.request_once(method, target, headers, body)
            }
        }
    }

    fn request_once(
        &mut self,
        method: &str,
        target: &str,
        headers: &[(&str, &str)],
        body: &str,
    ) -> std::io::Result<Response> {
        let addr = self.addr;
        let reader = self.connect()?;
        let mut head = format!(
            "{method} {target} HTTP/1.1\r\nhost: {addr}\r\ncontent-length: {}\r\n",
            body.len()
        );
        for (name, value) in headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        let stream = reader.get_mut();
        stream.write_all(head.as_bytes())?;
        stream.write_all(body.as_bytes())?;
        stream.flush()?;
        let response = read_response(reader);
        let close = response.as_ref().map_or(true, |r| {
            r.header("connection")
                .is_some_and(|v| v.eq_ignore_ascii_case("close"))
        });
        if close {
            self.conn = None;
        }
        response
    }
}

/// One scripted request.
#[derive(Clone, Debug)]
pub struct CorpusItem {
    pub name: String,
    /// Path + query, e.g. `/solve?p=2,1&strategy=exact`.
    pub target: String,
    pub body: String,
    pub expect_status: u16,
}

/// A deterministic mixed corpus: solvable diameter-2 instances under
/// several strategies, isomorphic relabelings of some of them (exercising
/// canonical-cache hits), and adversarial guard instances that must come
/// back as HTTP 422.
pub fn mixed_corpus(seed: u64, instances: usize) -> Vec<CorpusItem> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut items = Vec::new();
    for i in 0..instances.max(1) {
        let n = 10 + (i % 8) * 2;
        let g = random::gnp_with_diameter_at_most(&mut rng, n, 0.55, 2);
        let strategy = ["auto", "exact", "greedy", "heuristic"][i % 4];
        items.push(CorpusItem {
            name: format!("gnp{n}-{i}-{strategy}"),
            target: format!("/solve?p=2,1&strategy={strategy}"),
            body: graph_io::write_edge_list(&g),
            expect_status: 200,
        });
        // Every third instance also appears as an isomorphic relabeling:
        // a different byte body that must hit the same cache entry.
        if i % 3 == 0 {
            let perm = random::random_permutation(&mut rng, n);
            let h = g.relabeled(&perm);
            items.push(CorpusItem {
                name: format!("gnp{n}-{i}-{strategy}-relabel"),
                target: format!("/solve?p=2,1&strategy={strategy}"),
                body: graph_io::write_edge_list(&h),
                expect_status: 200,
            });
        }
    }
    // Adversarial guard requests: exact beyond EXACT_MAX_N must 422.
    for i in 0..(instances / 8).max(1) {
        let g = classic::complete(30 + i);
        items.push(CorpusItem {
            name: format!("guard-k{}", 30 + i),
            target: "/solve?p=2,1&strategy=exact".into(),
            body: graph_io::write_edge_list(&g),
            expect_status: 422,
        });
    }
    // DIMACS-format coverage.
    let g = classic::petersen();
    items.push(CorpusItem {
        name: "petersen-dimacs".into(),
        target: "/solve?p=2,1&strategy=auto&format=dimacs".into(),
        body: graph_io::write_dimacs(&g),
        expect_status: 200,
    });
    items
}

/// A soak-friendly corpus: cheap strategies only (greedy/heuristic), so
/// per-request cost is dominated by serving and routing rather than
/// Held–Karp solves, plus isomorphic relabelings (cross-replica cache
/// hits) and a sprinkle of guard 422s.
pub fn soak_corpus(seed: u64, instances: usize) -> Vec<CorpusItem> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut items = Vec::new();
    for i in 0..instances.max(1) {
        let n = 10 + (i % 8) * 2;
        let g = random::gnp_with_diameter_at_most(&mut rng, n, 0.55, 2);
        let strategy = ["greedy", "heuristic"][i % 2];
        items.push(CorpusItem {
            name: format!("soak{n}-{i}-{strategy}"),
            target: format!("/solve?p=2,1&strategy={strategy}"),
            body: graph_io::write_edge_list(&g),
            expect_status: 200,
        });
        if i % 3 == 0 {
            let perm = random::random_permutation(&mut rng, n);
            let h = g.relabeled(&perm);
            items.push(CorpusItem {
                name: format!("soak{n}-{i}-{strategy}-relabel"),
                target: format!("/solve?p=2,1&strategy={strategy}"),
                body: graph_io::write_edge_list(&h),
                expect_status: 200,
            });
        }
    }
    // Guard rejections are instant 422s: error-path coverage at soak rate.
    let g = classic::complete(30);
    items.push(CorpusItem {
        name: "soak-guard-k30".into(),
        target: "/solve?p=2,1&strategy=exact".into(),
        body: graph_io::write_edge_list(&g),
        expect_status: 422,
    });
    items
}

/// An exact-strategy-only corpus of small instances (the cold-vs-warm
/// latency benchmark: Held–Karp solves are expensive, cache hits are not).
pub fn exact_corpus(seed: u64, instances: usize) -> Vec<CorpusItem> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..instances.max(1))
        .map(|i| {
            let n = 16 + (i % 5) * 2; // 16..24: squarely in Held–Karp range
            let g = random::gnp_with_diameter_at_most(&mut rng, n, 0.6, 2);
            CorpusItem {
                name: format!("exact{n}-{i}"),
                target: "/solve?p=2,1&strategy=exact".into(),
                body: graph_io::write_edge_list(&g),
                expect_status: 200,
            }
        })
        .collect()
}

/// Statistics from one pass over a corpus.
#[derive(Clone, Debug, Default)]
pub struct PassStats {
    pub requests: u64,
    pub hits: u64,
    pub misses: u64,
    pub coalesced: u64,
    /// Responses whose status did not match the item's `expect_status`.
    pub unexpected: u64,
    /// Per-request wall latencies, microseconds, request order.
    pub latencies_us: Vec<u64>,
    /// Response bodies keyed by item name (for bit-identical comparisons).
    pub bodies: Vec<(String, String)>,
}

/// `part / (part + rest)`, 0 when both are 0.
fn share(part: u64, rest: u64) -> f64 {
    let denom = part + rest;
    if denom == 0 {
        0.0
    } else {
        part as f64 / denom as f64
    }
}

/// The nearest-rank `q`-quantile of `latencies_us`, 0 when empty.
fn percentile(latencies_us: &[u64], q: f64) -> u64 {
    if latencies_us.is_empty() {
        return 0;
    }
    let mut sorted = latencies_us.to_vec();
    sorted.sort_unstable();
    let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

impl PassStats {
    pub fn hit_rate(&self) -> f64 {
        share(self.hits, self.misses)
    }

    pub fn percentile_us(&self, q: f64) -> u64 {
        percentile(&self.latencies_us, q)
    }

    pub fn to_json(&self) -> String {
        Obj::new()
            .u64("requests", self.requests)
            .u64("hits", self.hits)
            .u64("misses", self.misses)
            .u64("coalesced", self.coalesced)
            .u64("unexpected", self.unexpected)
            .f64("hit_rate", self.hit_rate())
            .u64("p50_us", self.percentile_us(0.50))
            .u64("p90_us", self.percentile_us(0.90))
            .u64("p99_us", self.percentile_us(0.99))
            .u64("p999_us", self.percentile_us(0.999))
            .finish()
    }
}

/// Replay `corpus` once against `addr` over a keep-alive connection.
pub fn run_pass(addr: SocketAddr, corpus: &[CorpusItem]) -> std::io::Result<PassStats> {
    let mut client = Client::new(addr);
    let mut stats = PassStats::default();
    for item in corpus {
        let started = Instant::now();
        let resp = client.request("POST", &item.target, &item.body)?;
        let elapsed = started.elapsed().as_micros().min(u64::MAX as u128) as u64;
        stats.requests += 1;
        stats.latencies_us.push(elapsed);
        if resp.status != item.expect_status {
            stats.unexpected += 1;
        }
        match resp.header("x-dclab-cache") {
            Some("hit") => stats.hits += 1,
            Some("miss") => stats.misses += 1,
            Some("coalesced") => stats.coalesced += 1,
            _ => {}
        }
        stats.bodies.push((item.name.clone(), resp.body));
    }
    Ok(stats)
}

/// Replay the corpus `passes` times; returns per-pass stats.
pub fn run(
    addr: SocketAddr,
    corpus: &[CorpusItem],
    passes: usize,
) -> std::io::Result<Vec<PassStats>> {
    (0..passes).map(|_| run_pass(addr, corpus)).collect()
}

/// Knobs for a concurrent multi-replica soak ([`soak`]).
#[derive(Clone, Debug)]
pub struct SoakConfig {
    /// Replica addresses; clients are spread round-robin across them.
    pub addrs: Vec<SocketAddr>,
    /// Concurrent keep-alive connections (client threads).
    pub connections: usize,
    pub duration: Duration,
    /// Corpus seed (same corpus on every connection, offset per thread so
    /// replicas see interleaved cold/warm traffic).
    pub seed: u64,
    /// Corpus size passed to [`soak_corpus`].
    pub instances: usize,
}

impl Default for SoakConfig {
    fn default() -> SoakConfig {
        SoakConfig {
            addrs: Vec::new(),
            connections: 8,
            duration: Duration::from_secs(5),
            seed: 42,
            instances: 12,
        }
    }
}

/// Aggregate statistics from a [`soak`] run.
#[derive(Clone, Debug, Default)]
pub struct SoakStats {
    pub requests: u64,
    /// Transport-level failures (connect/read errors after one retry).
    pub transport_errors: u64,
    /// Responses whose status did not match the corpus expectation and
    /// were not an overload shed.
    pub unexpected: u64,
    /// `503` overload sheds (expected under deliberate saturation; never
    /// counted as unexpected).
    pub sheds: u64,
    /// 5xx responses that are *not* sheds — the cluster-soak gate asserts
    /// this stays zero.
    pub hard_5xx: u64,
    pub hits: u64,
    pub misses: u64,
    pub coalesced: u64,
    /// `x-dclab-routed` tallies (cluster mode only; all zero otherwise).
    pub routed_local: u64,
    pub routed_forwarded: u64,
    pub routed_fallback: u64,
    /// Per-request wall latencies, microseconds, arrival order.
    pub latencies_us: Vec<u64>,
}

impl SoakStats {
    fn absorb(&mut self, other: SoakStats) {
        self.requests += other.requests;
        self.transport_errors += other.transport_errors;
        self.unexpected += other.unexpected;
        self.sheds += other.sheds;
        self.hard_5xx += other.hard_5xx;
        self.hits += other.hits;
        self.misses += other.misses;
        self.coalesced += other.coalesced;
        self.routed_local += other.routed_local;
        self.routed_forwarded += other.routed_forwarded;
        self.routed_fallback += other.routed_fallback;
        self.latencies_us.extend(other.latencies_us);
    }

    pub fn hit_rate(&self) -> f64 {
        share(self.hits, self.misses)
    }

    /// Fraction of routed responses answered by the replica the client
    /// happened to dial (cluster mode). ~1/replicas under uniform load.
    pub fn routing_local_rate(&self) -> f64 {
        share(
            self.routed_local,
            self.routed_forwarded + self.routed_fallback,
        )
    }

    pub fn percentile_us(&self, q: f64) -> u64 {
        percentile(&self.latencies_us, q)
    }

    pub fn to_json(&self) -> String {
        Obj::new()
            .u64("requests", self.requests)
            .u64("transport_errors", self.transport_errors)
            .u64("unexpected", self.unexpected)
            .u64("sheds", self.sheds)
            .u64("hard_5xx", self.hard_5xx)
            .u64("hits", self.hits)
            .u64("misses", self.misses)
            .u64("coalesced", self.coalesced)
            .f64("hit_rate", self.hit_rate())
            .u64("routed_local", self.routed_local)
            .u64("routed_forwarded", self.routed_forwarded)
            .u64("routed_fallback", self.routed_fallback)
            .f64("routing_local_rate", self.routing_local_rate())
            .u64("p50_us", self.percentile_us(0.50))
            .u64("p90_us", self.percentile_us(0.90))
            .u64("p99_us", self.percentile_us(0.99))
            .u64("p999_us", self.percentile_us(0.999))
            .finish()
    }
}

/// Concurrent soak: `connections` keep-alive clients spread round-robin
/// over the replica list, each replaying the [`soak_corpus`] (offset by
/// its thread index) until the deadline. Latencies, cache statuses,
/// `x-dclab-routed` tallies, and shed/5xx counts are merged across all
/// threads.
pub fn soak(cfg: &SoakConfig) -> Result<SoakStats, String> {
    if cfg.addrs.is_empty() {
        return Err("soak needs at least one address".into());
    }
    let corpus = std::sync::Arc::new(soak_corpus(cfg.seed, cfg.instances));
    let deadline = Instant::now() + cfg.duration;
    let mut joins = Vec::new();
    for t in 0..cfg.connections.max(1) {
        let addr = cfg.addrs[t % cfg.addrs.len()];
        let corpus = std::sync::Arc::clone(&corpus);
        joins.push(std::thread::spawn(move || {
            soak_thread(addr, &corpus, t, deadline)
        }));
    }
    let mut total = SoakStats::default();
    for j in joins {
        total.absorb(j.join().map_err(|_| "soak thread panicked".to_string())?);
    }
    Ok(total)
}

fn soak_thread(
    addr: SocketAddr,
    corpus: &[CorpusItem],
    offset: usize,
    deadline: Instant,
) -> SoakStats {
    let mut client = Client::new(addr);
    let mut stats = SoakStats::default();
    let mut i = offset;
    while Instant::now() < deadline {
        let item = &corpus[i % corpus.len()];
        i += 1;
        let started = Instant::now();
        let resp = match client.request("POST", &item.target, &item.body) {
            Ok(r) => r,
            Err(_) => {
                stats.transport_errors += 1;
                continue;
            }
        };
        let elapsed = started.elapsed().as_micros().min(u64::MAX as u128) as u64;
        stats.requests += 1;
        stats.latencies_us.push(elapsed);
        if resp.status == 503 {
            stats.sheds += 1;
        } else if resp.status >= 500 {
            stats.hard_5xx += 1;
            stats.unexpected += 1;
        } else if resp.status != item.expect_status {
            stats.unexpected += 1;
        }
        match resp.header("x-dclab-cache") {
            Some("hit") => stats.hits += 1,
            Some("miss") => stats.misses += 1,
            Some("coalesced") => stats.coalesced += 1,
            _ => {}
        }
        match resp.header("x-dclab-routed") {
            Some("local") => stats.routed_local += 1,
            Some("forwarded") => stats.routed_forwarded += 1,
            Some("fallback") => stats.routed_fallback += 1,
            _ => {}
        }
    }
    stats
}

/// In-process smoke test (the CI job behind `dclab serve --self-test`):
/// start a server on an ephemeral port, replay a mixed corpus for roughly
/// `duration`, then shut down cleanly. Returns a JSON summary, or an error
/// describing which invariant failed.
pub fn self_test(duration: Duration) -> Result<String, String> {
    let handle = crate::server::start(crate::server::ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        cache_mb: 16,
        queue_cap: 0,
        ..Default::default()
    })
    .map_err(|e| format!("start failed: {e}"))?;
    let addr = handle.addr();
    let corpus = mixed_corpus(42, 12);
    let deadline = Instant::now() + duration;
    let mut passes: Vec<PassStats> = Vec::new();
    loop {
        let pass = run_pass(addr, &corpus).map_err(|e| format!("loadgen pass failed: {e}"))?;
        passes.push(pass);
        if Instant::now() >= deadline && passes.len() >= 2 {
            break;
        }
    }

    // Invariants the smoke test asserts.
    let warm = &passes[passes.len() - 1];
    let total_hits: u64 = passes.iter().map(|p| p.hits).sum();
    if total_hits == 0 {
        return Err("no cache hits across passes".into());
    }
    if warm.hit_rate() < 0.9 {
        return Err(format!(
            "warm-pass hit rate {:.2} below 0.9",
            warm.hit_rate()
        ));
    }
    if let Some(bad) = passes.iter().position(|p| p.unexpected > 0) {
        return Err(format!(
            "pass {bad} had {} unexpected statuses",
            passes[bad].unexpected
        ));
    }
    // Warm reports must be byte-identical to cold ones (same instance
    // bytes → same JSON, cache or not).
    let cold = &passes[0];
    for ((name, cold_body), (_, warm_body)) in cold.bodies.iter().zip(&warm.bodies) {
        if cold_body != warm_body {
            return Err(format!("report for '{name}' changed between passes"));
        }
    }

    // Clean shutdown via the admin endpoint, then join.
    let mut client = Client::new(addr);
    let resp = client
        .request("POST", "/shutdown", "")
        .map_err(|e| format!("shutdown request failed: {e}"))?;
    if resp.status != 200 {
        return Err(format!("shutdown returned {}", resp.status));
    }
    // Close our connection before joining so no worker is left blocked on
    // a keep-alive read.
    drop(client);
    handle.join();

    let passes_json: Vec<String> = passes.iter().map(PassStats::to_json).collect();
    Ok(Obj::new()
        .str("status", "ok")
        .usize("passes", passes_json.len())
        .u64("total_hits", total_hits)
        .f64("warm_hit_rate", warm.hit_rate())
        .raw("per_pass", &dclab_engine::json::array(passes_json))
        .finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpora_are_deterministic_and_shaped() {
        let a = mixed_corpus(7, 12);
        let b = mixed_corpus(7, 12);
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x.body == y.body));
        assert!(a.iter().any(|i| i.expect_status == 422), "has guard items");
        assert!(a.iter().any(|i| i.name.ends_with("relabel")));
        assert!(a.iter().any(|i| i.target.contains("format=dimacs")));
        let e = exact_corpus(7, 10);
        assert!(e.iter().all(|i| i.target.contains("strategy=exact")));
        // The soak corpus must never carry an exact-strategy 200 item:
        // Held–Karp cold solves would turn the soak histogram into a
        // solver benchmark.
        let s = soak_corpus(7, 12);
        assert!(s
            .iter()
            .all(|i| i.expect_status != 200 || !i.target.contains("exact")));
        assert!(s.iter().any(|i| i.expect_status == 422));
        assert!(s.iter().any(|i| i.name.ends_with("relabel")));
    }

    #[test]
    fn soak_stats_merge_and_rates() {
        let mut total = SoakStats::default();
        total.absorb(SoakStats {
            requests: 10,
            hits: 6,
            misses: 2,
            sheds: 1,
            routed_local: 5,
            routed_forwarded: 3,
            latencies_us: vec![10, 20],
            ..Default::default()
        });
        total.absorb(SoakStats {
            requests: 5,
            hits: 2,
            misses: 0,
            hard_5xx: 1,
            unexpected: 1,
            routed_local: 1,
            routed_fallback: 1,
            latencies_us: vec![30],
            ..Default::default()
        });
        assert_eq!(total.requests, 15);
        assert_eq!(total.latencies_us.len(), 3);
        assert!((total.hit_rate() - 0.8).abs() < 1e-9);
        assert!((total.routing_local_rate() - 0.6).abs() < 1e-9);
        let json = total.to_json();
        assert!(json.contains("\"hard_5xx\":1"));
        assert!(json.contains("\"p99_us\":30"));
    }

    #[test]
    fn pass_stats_percentiles() {
        let stats = PassStats {
            latencies_us: vec![10, 20, 30, 40, 50, 60, 70, 80, 90, 100],
            ..Default::default()
        };
        assert_eq!(stats.percentile_us(0.5), 50);
        assert_eq!(stats.percentile_us(0.9), 90);
        assert_eq!(stats.percentile_us(1.0), 100);
    }
}
