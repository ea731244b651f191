//! End-to-end tests for the persistent solution archive: a server with
//! `store_path` must survive a restart with its whole solved corpus —
//! warm boot → hit rate 1.0, zero fresh solves — and the shutdown drain
//! must seal the log so a reopened store trusts every record.

use dclab_graph::generators::classic;
use dclab_graph::io as graph_io;
use dclab_serve::loadgen::{exact_corpus, run_pass, Client};
use dclab_serve::server::{start, ServeConfig};
use dclab_store::Store;

/// A temp directory for one test, removed when its owner drops: at the
/// end of the test, and on a failed assertion too.
struct Scratch(std::path::PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("dclab-store-e2e-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        Scratch(dir)
    }

    /// The archive path inside the directory.
    fn store_path(&self) -> String {
        let path = self.0.join("archive.dcst");
        path.to_str().expect("utf-8 path").to_string()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn store_config(path: &str) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        cache_mb: 16,
        queue_cap: 0,
        store_path: Some(path.to_string()),
        ..Default::default()
    }
}

/// The ISSUE 4 acceptance demo: populate via the loadgen exact corpus,
/// restart the server on the same archive, replay — the second pass is
/// hit rate 1.0 with zero fresh solves.
#[test]
fn warm_boot_replays_exact_corpus_with_hit_rate_one_and_zero_solves() {
    let dir = Scratch::new("warm-boot");
    let path = dir.store_path();
    // 3 instances (n = 16, 18, 20): big enough that a fresh Held–Karp
    // solve is unmistakably expensive, small enough for debug-mode CI.
    let corpus = exact_corpus(1234, 3);

    // --- First server: every request is a fresh solve + write-behind. ---
    let h1 = start(store_config(&path)).expect("bind first server");
    let cold = run_pass(h1.addr(), &corpus).expect("cold pass");
    assert_eq!(cold.misses, cold.requests, "first pass is all misses");
    assert_eq!(cold.unexpected, 0);
    h1.shutdown();
    h1.join(); // drain seals the archive (fsync + footer)

    // --- Second server, same archive: warm boot → pure cache hits. ---
    let h2 = start(store_config(&path)).expect("bind second server");
    let warm = run_pass(h2.addr(), &corpus).expect("warm pass");
    assert_eq!(
        warm.hits, warm.requests,
        "restarted server must serve the whole corpus from the archive: {warm:?}"
    );
    assert_eq!(warm.misses, 0, "zero fresh solves after restart");
    assert!((warm.hit_rate() - 1.0).abs() < f64::EPSILON);

    // Reports served after the restart are identical to the pre-restart
    // ones (canonical round trip through the archive is lossless).
    for ((name, cold_body), (_, warm_body)) in cold.bodies.iter().zip(&warm.bodies) {
        assert_eq!(
            cold_body, warm_body,
            "report for '{name}' changed across restart"
        );
    }

    // Metrics corroborate: warm boot loaded records, no engine solve ran.
    let mut client = Client::new(h2.addr());
    let metrics = client.request("GET", "/metrics?format=json", "").unwrap();
    assert!(
        metrics.body.contains("\"store\":{\"enabled\":true"),
        "{}",
        metrics.body
    );
    assert!(
        metrics.body.contains("\"warm_boot\":3"),
        "3 archived instances warm-boot the cache: {}",
        metrics.body
    );
    assert!(
        metrics.body.contains("\"strategies\":{\"exact\":0"),
        "no fresh exact solve after restart: {}",
        metrics.body
    );
    drop(client);
    h2.shutdown();
    h2.join();
}

/// Satellite: the shutdown drain flushes the store (fsync + clean index
/// footer); a reopened store sees the last pre-shutdown solve.
#[test]
fn shutdown_drain_seals_archive_with_last_solve() {
    let dir = Scratch::new("drain");
    let path = dir.store_path();
    let handle = start(store_config(&path)).expect("bind");
    let mut client = Client::new(handle.addr());
    let body = graph_io::write_edge_list(&classic::petersen());
    let resp = client
        .request("POST", "/solve?p=2,1&strategy=exact", &body)
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    let resp = client.request("POST", "/shutdown", "").unwrap();
    assert_eq!(resp.status, 200);
    drop(client);
    handle.join();

    let (store, open) = Store::open(&path).expect("reopen archive");
    assert!(open.clean_footer, "drain wrote the clean-shutdown footer");
    assert_eq!(open.torn_bytes_dropped, 0);
    assert_eq!(open.live, 1, "the pre-shutdown solve is archived");
    let (key, val) = store.iter_live().unwrap().remove(0);
    assert_eq!(key.n, 10, "Petersen has 10 vertices");
    let report = dclab_engine::binary::report_from_bytes(&val).expect("decodes");
    assert_eq!(report.solution.span, 9, "λ_{{2,1}}(Petersen) = 9");
}

/// Read-through: a record imported into the archive offline is served on
/// an LRU miss even without a warm-boot entry (server started before the
/// record existed is the inverse case — here we archive out-of-band, then
/// boot, then evince the store path by checking the metrics counter).
#[test]
fn store_hits_count_reads_that_skip_the_engine() {
    let dir = Scratch::new("read-through");
    let path = dir.store_path();

    // Populate the archive out-of-band (no server involved).
    {
        let (store, _) = Store::open(&path).unwrap();
        let g = classic::complete(6);
        let p = dclab_core::pvec::PVec::l21();
        let key = dclab_serve::CacheKey::for_request(
            &g,
            &p,
            dclab_engine::Strategy::Exact,
            dclab_engine::Budget::default(),
            dclab_engine::OraclePolicy::Auto,
        );
        let report = dclab_engine::solve(
            &dclab_engine::SolveRequest::new(g, p).with_strategy(dclab_engine::Strategy::Exact),
        )
        .unwrap();
        assert!(dclab_serve::persist::store_append(&store, &key, &report).unwrap());
        store.close_clean().unwrap();
    }

    let handle = start(store_config(&path)).expect("bind");
    let mut client = Client::new(handle.addr());
    // Warm boot already loaded it → first request is a cache hit with no
    // fresh solve.
    let body = graph_io::write_edge_list(&classic::complete(6));
    let resp = client
        .request("POST", "/solve?p=2,1&strategy=exact", &body)
        .unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(resp.header("x-dclab-cache"), Some("hit"));
    let metrics = client.request("GET", "/metrics?format=json", "").unwrap();
    assert!(
        metrics.body.contains("\"strategies\":{\"exact\":0"),
        "archived record served without an engine solve: {}",
        metrics.body
    );
    drop(client);
    handle.shutdown();
    handle.join();
}
