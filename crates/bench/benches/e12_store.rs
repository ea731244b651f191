//! E12 bench — the persistent solution archive end to end:
//!
//! * **append throughput**: framed CRC32 appends of real binary-encoded
//!   reports, records/s and MB/s;
//! * **cold-open index rebuild**: time to reopen the archive and rebuild
//!   the in-memory index from a sequential scan;
//! * **warm-boot hit rate**: populate a server through the loadgen exact
//!   corpus, restart it on the same archive, replay — the second pass must
//!   be hit rate 1.0 with zero fresh solves.
//!
//! Writes `BENCH_store.json` at the workspace root and exits non-zero if
//! the acceptance invariants fail. Both modes run the same sweep: each
//! number is one timed run.

use std::time::Instant;

use dclab_bench::ledger::Ledger;
use dclab_core::pvec::PVec;
use dclab_engine::{solve, Budget, OraclePolicy, SolveRequest, Strategy};
use dclab_graph::generators::random;
use dclab_serve::loadgen::{exact_corpus, run_pass};
use dclab_serve::{start, ServeConfig};
use dclab_store::{Store, StoreKey};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dclab-e12-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

fn main() {
    let appends: u64 = 20_000;

    // A representative record: a real solved diameter-2 instance, binary
    // encoded; per-append key uniqueness comes from the p-vector.
    let mut rng = StdRng::seed_from_u64(7);
    let g = random::gnp_with_diameter_at_most(&mut rng, 24, 0.55, 2);
    let report = solve(&SolveRequest::new(g.clone(), PVec::l21()).with_strategy(Strategy::Greedy))
        .expect("solvable");
    let val = report.to_bytes();
    let canon = dclab_graph::canon::CanonicalForm::of(&g);
    let key_for = |i: u64| StoreKey {
        n: canon.n as u32,
        edges: canon.edges.clone(),
        pvec: vec![2, 1, i + 1],
        strategy: Strategy::Greedy,
        budget: Budget::default(),
        oracle: OraclePolicy::Auto,
    };

    // --- Append throughput. ---
    let path = temp_path("throughput.dcst");
    let (store, _) = Store::open(&path).expect("create archive");
    let started = Instant::now();
    for i in 0..appends {
        store.append(&key_for(i), &val).expect("append");
    }
    let append_secs = started.elapsed().as_secs_f64();
    store.flush().expect("fsync");
    let bytes = store.stats().bytes;
    let appends_per_sec = appends as f64 / append_secs.max(1e-9);
    let mb_per_sec = bytes as f64 / 1e6 / append_secs.max(1e-9);
    println!(
        "bench e12_store/append: {appends} records in {append_secs:.3}s \
         ({appends_per_sec:.0} rec/s, {mb_per_sec:.1} MB/s, {bytes} bytes)"
    );
    drop(store);

    // --- Cold-open index rebuild. ---
    let started = Instant::now();
    let (reopened, open_stats) = Store::open(&path).expect("reopen");
    let open_secs = started.elapsed().as_secs_f64();
    println!(
        "bench e12_store/cold-open: {} records indexed in {open_secs:.3}s \
         ({:.0} rec/s)",
        open_stats.live,
        open_stats.live as f64 / open_secs.max(1e-9)
    );
    let open_ok = open_stats.live == appends && open_stats.torn_bytes_dropped == 0;
    drop(reopened);

    // --- Warm-boot hit rate on the exact corpus. ---
    let serve_path = temp_path("warm-boot.dcst");
    let corpus = exact_corpus(2025, 3);
    let cfg = |path: &std::path::Path| ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        cache_mb: 64,
        queue_cap: 0,
        store_path: Some(path.to_str().expect("utf-8").to_string()),
        ..Default::default()
    };
    let h1 = start(cfg(&serve_path)).expect("bind first server");
    let cold = run_pass(h1.addr(), &corpus).expect("cold pass");
    h1.shutdown();
    h1.join();
    let boot_started = Instant::now();
    let h2 = start(cfg(&serve_path)).expect("bind second server");
    let warm_boot_secs = boot_started.elapsed().as_secs_f64();
    let warm = run_pass(h2.addr(), &corpus).expect("warm pass");
    h2.shutdown();
    h2.join();
    let warm_hit_rate = warm.hit_rate();
    println!(
        "bench e12_store/warm-boot: boot {warm_boot_secs:.3}s, \
         hit rate {warm_hit_rate:.3} ({} hits / {} requests, {} fresh solves)",
        warm.hits, warm.requests, warm.misses
    );

    let mut ledger = Ledger::new("e12_store", "BENCH_store.json", 1);
    ledger.metric("append_records", appends as f64);
    ledger.metric("append_secs", append_secs);
    ledger.metric("store_appends_per_sec", appends_per_sec);
    ledger.metric("append_mb_per_sec", mb_per_sec);
    ledger.metric("archive_bytes", bytes as f64);
    ledger.metric("cold_open_secs", open_secs);
    ledger.metric("cold_open_records", open_stats.live as f64);
    ledger.metric("warm_boot_secs", warm_boot_secs);
    ledger.metric("warm_requests", warm.requests as f64);
    ledger.metric("warm_fresh_solves", warm.misses as f64);
    ledger.metric("store_warm_hit_rate", warm_hit_rate);

    // Acceptance invariants (ISSUE 4): fail loudly.
    let mut failures = Vec::new();
    if !open_ok {
        failures.push(format!(
            "cold open recovered {} of {appends} records",
            open_stats.live
        ));
    }
    if cold.misses != cold.requests {
        failures.push("first pass was not all fresh solves".into());
    }
    if warm_hit_rate < 1.0 || warm.misses > 0 {
        failures.push(format!(
            "warm-boot pass must be hit rate 1.0 with zero fresh solves \
             (got {warm_hit_rate:.3}, {} misses)",
            warm.misses
        ));
    }
    ledger.finish(&failures);
}
