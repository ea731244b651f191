//! Store wiring: the glue between the in-memory canonical cache and the
//! persistent solution archive (`dclab-store`).
//!
//! Three flows, all keyed by the same canonical identity a [`CacheKey`]
//! carries:
//!
//! * **Warm boot** ([`warm_boot`]) — on server start, every live archive
//!   record is decoded and inserted into the LRU, so a restarted server
//!   answers its old corpus with cache *hits* and zero fresh solves.
//! * **Read-through** ([`store_lookup`]) — an LRU miss consults the
//!   archive before paying for a solve (covers entries evicted from the
//!   LRU, and archives imported from other processes).
//! * **Write-behind** ([`store_append`]) — a fresh solve is appended in
//!   canonical space (one record per instance class; the write reaches the
//!   OS before the response goes out, fsync happens on shutdown/flush).

use dclab_core::pvec::PVec;
use dclab_engine::binary::{report_from_bytes, report_to_bytes};
use dclab_engine::SolveReport;
use dclab_graph::io::MAX_VERTICES;
use dclab_graph::Graph;
use dclab_store::{Store, StoreKey};

use crate::cache::{CacheKey, ReportCache};

/// The archive key for a cache key: same canonical instance identity,
/// minus the in-memory-only fields (hash, permutation).
pub fn store_key(key: &CacheKey) -> StoreKey {
    StoreKey {
        n: key.canon.n as u32,
        edges: key.canon.edges.clone(),
        pvec: key.pvec.entries().to_vec(),
        strategy: key.strategy,
        budget: key.budget,
        oracle: key.oracle,
    }
}

/// Archive lookup: a hit returns the report translated into the
/// requester's vertex space. I/O or decode failures degrade to a miss.
pub fn store_lookup(store: &Store, key: &CacheKey) -> Option<SolveReport> {
    let bytes = store.get(&store_key(key)).ok()??;
    let canon_report = report_from_bytes(&bytes).ok()?;
    Some(key.from_canonical_space(&canon_report))
}

/// Archive a solved report (given in the requester's space) under the
/// canonical key. Returns `Ok(true)` when a new record was appended.
pub fn store_append(store: &Store, key: &CacheKey, report: &SolveReport) -> std::io::Result<bool> {
    let canon_report = key.to_canonical_space(report);
    store.append(&store_key(key), &report_to_bytes(&canon_report))
}

/// Load every live archive record into the cache. Returns the number of
/// entries loaded; undecodable records, and records whose vertex count
/// exceeds [`MAX_VERTICES`], are skipped, not fatal (the boot must never be
/// wedged by one foreign record).
pub fn warm_boot(cache: &ReportCache, store: &Store) -> u64 {
    let Ok(records) = store.iter_live() else {
        return 0;
    };
    let mut loaded = 0u64;
    for (skey, val) in records {
        // A count past the parsers' bound could only come from a foreign
        // or corrupt record; building its graph could exhaust memory.
        if skey.n as usize > MAX_VERTICES {
            continue;
        }
        let Ok(report) = report_from_bytes(&val) else {
            continue;
        };
        let Some(pvec) = PVec::new(skey.pvec.clone()) else {
            continue;
        };
        if report.solution.labeling.labels().len() != skey.n as usize {
            continue;
        }
        let edges: Vec<(usize, usize)> = skey
            .edges
            .iter()
            .map(|&(u, v)| (u as usize, v as usize))
            .collect();
        if edges
            .iter()
            .any(|&(u, v)| u >= skey.n as usize || v >= skey.n as usize || u == v)
        {
            continue;
        }
        let graph = Graph::from_edges(skey.n as usize, &edges);
        // The archived report lives in canonical space, which *is* the
        // vertex space of the graph we just rebuilt from canonical edges —
        // so a plain put() (which re-canonizes) files it correctly, and a
        // future isomorphic requester translates it into their own space.
        let cache_key =
            CacheKey::for_request(&graph, &pvec, skey.strategy, skey.budget, skey.oracle);
        cache.put(&cache_key, &report);
        loaded += 1;
    }
    loaded
}

#[cfg(test)]
mod tests {
    use super::*;
    use dclab_engine::{solve, Budget, OraclePolicy, SolveRequest, Strategy};
    use dclab_graph::generators::classic;

    /// A temp directory for one test, removed when its owner drops: at the
    /// end of the test, and on a failed assertion too.
    struct Scratch(std::path::PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Scratch {
            let dir =
                std::env::temp_dir().join(format!("dclab-persist-{}-{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("temp dir");
            Scratch(dir)
        }

        fn join(&self, name: &str) -> std::path::PathBuf {
            self.0.join(name)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// A fresh archive in its own scratch directory; keep the directory
    /// alive while the store is in use.
    fn temp_store(tag: &str) -> (Scratch, Store) {
        let dir = Scratch::new(tag);
        let store = Store::open(dir.join("archive.dcst")).expect("open store").0;
        (dir, store)
    }

    #[test]
    fn append_then_lookup_round_trips_in_requester_space() {
        let (_dir, store) = temp_store("lookup");
        let g = classic::petersen();
        let p = PVec::l21();
        let key = CacheKey::for_request(
            &g,
            &p,
            Strategy::Exact,
            Budget::default(),
            OraclePolicy::Auto,
        );
        let report =
            solve(&SolveRequest::new(g.clone(), p.clone()).with_strategy(Strategy::Exact)).unwrap();
        assert!(store_lookup(&store, &key).is_none());
        assert!(store_append(&store, &key, &report).unwrap());
        let found = store_lookup(&store, &key).expect("archive hit");
        assert_eq!(found.to_json(), report.to_json(), "bit-identical");

        // An isomorphic relabeling hits the same record and gets a report
        // valid for *its* graph.
        let perm = vec![3, 8, 0, 5, 9, 1, 7, 2, 6, 4];
        let h = g.relabeled(&perm);
        let key_h = CacheKey::for_request(
            &h,
            &p,
            Strategy::Exact,
            Budget::default(),
            OraclePolicy::Auto,
        );
        let found_h = store_lookup(&store, &key_h).expect("isomorphic archive hit");
        assert_eq!(found_h.solution.span, report.solution.span);
        found_h
            .solution
            .labeling
            .validate(&h, &p)
            .expect("labeling valid for the relabeled graph");
    }

    #[test]
    fn warm_boot_turns_archive_records_into_cache_hits() {
        let (_dir, store) = temp_store("warmboot");
        let p = PVec::l21();
        let mut keys = Vec::new();
        for n in [5usize, 6, 7] {
            let g = classic::complete(n);
            let key = CacheKey::for_request(
                &g,
                &p,
                Strategy::Auto,
                Budget::default(),
                OraclePolicy::Auto,
            );
            let report = solve(&SolveRequest::new(g, p.clone())).unwrap();
            store_append(&store, &key, &report).unwrap();
            keys.push((key, report));
        }
        let cache = ReportCache::new(1 << 20);
        assert_eq!(warm_boot(&cache, &store), 3);
        for (key, report) in keys {
            let cached = cache.get(&key).expect("warm-booted entry hits");
            assert_eq!(cached.to_json(), report.to_json());
        }
    }

    #[test]
    fn warm_boot_skips_a_record_past_the_vertex_bound() {
        // A well-formed record, one label per vertex, whose edgeless graph
        // has one vertex more than a parser would accept.
        let (_dir, store) = temp_store("warmboot-bound");
        let p = PVec::l21();
        let g = classic::complete(3);
        let key = CacheKey::for_request(
            &g,
            &p,
            Strategy::Auto,
            Budget::default(),
            OraclePolicy::Auto,
        );
        let mut report = solve(&SolveRequest::new(g, p)).unwrap();
        let n = MAX_VERTICES + 1;
        report.solution.labeling = dclab_core::labeling::Labeling::new(vec![0; n]);
        let mut skey = store_key(&key);
        skey.n = n as u32;
        skey.edges.clear();
        store.append(&skey, &report_to_bytes(&report)).unwrap();
        assert_eq!(warm_boot(&ReportCache::new(1 << 20), &store), 0);
    }
}
