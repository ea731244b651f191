//! Sharded LRU report cache keyed by canonical instance identity, with
//! single-flight deduplication.
//!
//! **Key** — a [`CacheKey`] combines the graph's [`CanonicalForm`] (see
//! `dclab_graph::canon`) with the p-vector, strategy, and budget. The
//! 64-bit lookup hash is isomorphism-invariant, so relabelings of the same
//! instance land in the same bucket; a hit is confirmed by comparing the
//! canonical edge list (plus p/strategy/budget) exactly, so a hash
//! collision degrades to a miss, never to a wrong answer.
//!
//! **Value** — the [`SolveReport`] translated into canonical vertex space.
//! On a hit the labeling is translated back through the *requester's* own
//! canonical permutation, which makes a cached report valid for any
//! isomorphic relabeling of the stored instance, and byte-identical for a
//! byte-identical request.
//!
//! **Single-flight** — concurrent identical requests elect one leader that
//! solves while the rest block on a condvar and share the result
//! ([`CacheStatus::Coalesced`]).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use dclab_core::pvec::PVec;
use dclab_core::routes::Solution;
use dclab_engine::{Budget, EngineError, OraclePolicy, SolveReport, Strategy};
use dclab_graph::canon::{CanonicalForm, Fnv64};
use dclab_graph::Graph;

/// Identity of a cacheable request.
#[derive(Clone, Debug)]
pub struct CacheKey {
    /// Isomorphism-invariant combined hash (graph canon ⊕ p ⊕ strategy ⊕
    /// budget ⊕ oracle policy); the shard/bucket index.
    pub hash: u64,
    pub canon: CanonicalForm,
    pub pvec: PVec,
    pub strategy: Strategy,
    pub budget: Budget,
    pub oracle: OraclePolicy,
}

impl CacheKey {
    /// Build the key for a request (computes the canonical form).
    pub fn for_request(
        g: &Graph,
        pvec: &PVec,
        strategy: Strategy,
        budget: Budget,
        oracle: OraclePolicy,
    ) -> CacheKey {
        let canon = CanonicalForm::of(g);
        let mut h = Fnv64::new();
        h.write_u64(canon.hash);
        h.write_u64(pvec.k() as u64);
        for &e in pvec.entries() {
            h.write_u64(e);
        }
        h.write_bytes(strategy.name().as_bytes());
        h.write_u64(budget.node_budget.map_or(u64::MAX, |b| b));
        h.write_u64(budget.restarts.map_or(u64::MAX, |r| r as u64));
        h.write_u64(budget.lb_iters.map_or(u64::MAX, |i| i as u64));
        h.write_u64(budget.deadline_ms.map_or(u64::MAX, |d| d));
        h.write_u64(oracle.code() as u64);
        CacheKey {
            hash: h.finish(),
            canon,
            pvec: pvec.clone(),
            strategy,
            budget,
            oracle,
        }
    }

    /// Translate a report from this requester's vertex space into
    /// canonical space (the space cached entries and archived records use).
    pub fn to_canonical_space(&self, report: &SolveReport) -> SolveReport {
        to_canonical(report, &self.canon.perm).0
    }

    /// Inverse of [`CacheKey::to_canonical_space`]: make a canonical-space
    /// report valid for the exact graph this requester sent.
    pub fn from_canonical_space(&self, report: &SolveReport) -> SolveReport {
        from_canonical(&CanonReport(report.clone()), &self.canon.perm)
    }

    /// Exact identity check behind a bucket hit.
    fn matches(&self, other: &CacheKey) -> bool {
        self.hash == other.hash
            && self.pvec == other.pvec
            && self.strategy == other.strategy
            && self.budget == other.budget
            && self.oracle == other.oracle
            && self.canon.same_canonical_graph(&other.canon)
    }
}

/// How a request was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheStatus {
    /// Served from the cache.
    Hit,
    /// Solved here and stored.
    Miss,
    /// Waited on a concurrent identical solve and shared its result.
    Coalesced,
}

impl CacheStatus {
    /// Stable lowercase name (the `X-Dclab-Cache` header value).
    pub fn name(self) -> &'static str {
        match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
            CacheStatus::Coalesced => "coalesced",
        }
    }
}

/// A report in canonical vertex space.
#[derive(Clone, Debug)]
struct CanonReport(SolveReport);

/// Translate a caller-space report into canonical space via `perm`.
fn to_canonical(report: &SolveReport, perm: &[u32]) -> CanonReport {
    CanonReport(remap(report, |v| perm[v as usize]))
}

/// Translate a canonical-space report into the requester's space.
fn from_canonical(report: &CanonReport, perm: &[u32]) -> SolveReport {
    let n = perm.len();
    let mut inv = vec![0u32; n];
    for (old, &new) in perm.iter().enumerate() {
        inv[new as usize] = old as u32;
    }
    remap(&report.0, |v| inv[v as usize])
}

fn remap(report: &SolveReport, map: impl Fn(u32) -> u32) -> SolveReport {
    let labels = report.solution.labeling.labels();
    let mut new_labels = vec![0u64; labels.len()];
    for (v, &l) in labels.iter().enumerate() {
        new_labels[map(v as u32) as usize] = l;
    }
    let order: Vec<u32> = report.solution.order.iter().map(|&v| map(v)).collect();
    SolveReport {
        solution: Solution {
            span: report.solution.span,
            order,
            labeling: dclab_core::labeling::Labeling::new(new_labels),
        },
        ..report.clone()
    }
}

struct Entry {
    key: CacheKey,
    report: CanonReport,
    bytes: usize,
    last_used: u64,
}

impl Entry {
    fn estimate_bytes(key: &CacheKey, report: &CanonReport) -> usize {
        let graph_bytes = key.canon.edges.len() * 8 + key.canon.perm.len() * 4;
        let report_bytes = report.0.solution.labeling.labels().len() * 8
            + report.0.solution.order.len() * 4
            + report.0.stats.notes.iter().map(String::len).sum::<usize>();
        256 + 2 * graph_bytes + report_bytes
    }
}

#[derive(Default)]
struct Shard {
    /// Bucket chains: hash → entries whose key hashed there.
    buckets: HashMap<u64, Vec<Entry>>,
    bytes: usize,
}

/// One in-flight solve shared by concurrent identical requests.
struct Flight {
    key: CacheKey,
    result: Mutex<Option<Result<CanonReport, EngineError>>>,
    done: Condvar,
}

/// Aggregate cache counters (monotonic).
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheCounters {
    pub hits: u64,
    pub misses: u64,
    pub coalesced: u64,
    pub evictions: u64,
    pub entries: u64,
    pub bytes: u64,
}

/// The sharded LRU report cache.
pub struct ReportCache {
    shards: Vec<Mutex<Shard>>,
    flights: Mutex<HashMap<u64, Arc<Flight>>>,
    per_shard_budget: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    coalesced: AtomicU64,
    evictions: AtomicU64,
}

/// Shard count: enough to keep lock contention negligible for a worker
/// pool of typical size, small enough that tiny budgets still fit entries.
const SHARDS: usize = 16;

impl ReportCache {
    /// A cache holding at most ~`budget_bytes` of entries (split evenly
    /// across shards; each shard keeps at least one entry regardless).
    pub fn new(budget_bytes: usize) -> ReportCache {
        ReportCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            flights: Mutex::new(HashMap::new()),
            per_shard_budget: budget_bytes / SHARDS,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, hash: u64) -> &Mutex<Shard> {
        &self.shards[(hash as usize) % SHARDS]
    }

    /// Look up `key`; a hit returns the report translated into the
    /// requester's vertex space.
    pub fn get(&self, key: &CacheKey) -> Option<SolveReport> {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard(key.hash).lock().expect("cache lock poisoned");
        let entries = shard.buckets.get_mut(&key.hash)?;
        let entry = entries.iter_mut().find(|e| e.key.matches(key))?;
        entry.last_used = tick;
        let report = from_canonical(&entry.report, &key.canon.perm);
        drop(shard);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(report)
    }

    /// Store a solved report (given in the requester's space) under `key`.
    pub fn put(&self, key: &CacheKey, report: &SolveReport) {
        let canon_report = to_canonical(report, &key.canon.perm);
        let bytes = Entry::estimate_bytes(key, &canon_report);
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shard(key.hash).lock().expect("cache lock poisoned");
        let bucket = shard.buckets.entry(key.hash).or_default();
        if let Some(existing) = bucket.iter_mut().find(|e| e.key.matches(key)) {
            existing.last_used = tick;
            return;
        }
        bucket.push(Entry {
            key: key.clone(),
            report: canon_report,
            bytes,
            last_used: tick,
        });
        shard.bytes += bytes;
        self.evict_over_budget(&mut shard);
    }

    /// Evict least-recently-used entries until the shard fits its budget
    /// (always keeping the newest entry). The victim order is computed with
    /// one scan + sort rather than rescanning the shard per eviction, so an
    /// eviction storm is O(n log n) under the shard lock, not O(n²).
    fn evict_over_budget(&self, shard: &mut Shard) {
        if shard.bytes <= self.per_shard_budget {
            return;
        }
        // `last_used` ticks are globally unique, so (tick, hash) identifies
        // an entry exactly; oldest first.
        let mut victims: Vec<(u64, u64)> = shard
            .buckets
            .iter()
            .flat_map(|(&h, es)| es.iter().map(move |e| (e.last_used, h)))
            .collect();
        victims.sort_unstable();
        let mut remaining = victims.len();
        for (last_used, hash) in victims {
            if shard.bytes <= self.per_shard_budget || remaining <= 1 {
                break;
            }
            let bucket = shard.buckets.get_mut(&hash).expect("victim bucket exists");
            let idx = bucket
                .iter()
                .position(|e| e.last_used == last_used)
                .expect("victim entry exists");
            let evicted = bucket.remove(idx);
            if bucket.is_empty() {
                shard.buckets.remove(&hash);
            }
            shard.bytes -= evicted.bytes;
            remaining -= 1;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The full caching protocol: hit → return; concurrent identical solve
    /// in flight → wait and share; otherwise lead a solve via `solve_fn`,
    /// store, and publish to waiters. `solve_fn` runs without any cache
    /// lock held.
    pub fn get_or_solve<F>(
        &self,
        key: &CacheKey,
        solve_fn: F,
    ) -> (Result<SolveReport, EngineError>, CacheStatus)
    where
        F: FnOnce() -> Result<SolveReport, EngineError>,
    {
        if let Some(report) = self.get(key) {
            return (Ok(report), CacheStatus::Hit);
        }

        // Join or open a flight.
        let flight = {
            let mut flights = self.flights.lock().expect("flight lock poisoned");
            if let Some(existing) = flights.get(&key.hash) {
                if existing.key.matches(key) {
                    let f = Arc::clone(existing);
                    drop(flights);
                    let mut slot = f.result.lock().expect("flight result poisoned");
                    while slot.is_none() {
                        slot = f.done.wait(slot).expect("flight result poisoned");
                    }
                    let outcome = match slot.as_ref().expect("just waited for Some") {
                        Ok(canon) => Ok(from_canonical(canon, &key.canon.perm)),
                        Err(e) => Err(e.clone()),
                    };
                    self.coalesced.fetch_add(1, Ordering::Relaxed);
                    return (outcome, CacheStatus::Coalesced);
                }
                // Same hash, different instance: solve unshared (rare).
                None
            } else {
                let f = Arc::new(Flight {
                    key: key.clone(),
                    result: Mutex::new(None),
                    done: Condvar::new(),
                });
                flights.insert(key.hash, Arc::clone(&f));
                Some(f)
            }
        };

        // Double-check after winning the flight: a previous leader may have
        // populated the cache between our miss and the flight insert.
        if let Some(f) = &flight {
            if let Some(report) = self.get(key) {
                *f.result.lock().expect("flight result poisoned") =
                    Some(Ok(to_canonical(&report, &key.canon.perm)));
                f.done.notify_all();
                let mut flights = self.flights.lock().expect("flight lock poisoned");
                if let Some(cur) = flights.get(&key.hash) {
                    if Arc::ptr_eq(cur, f) {
                        flights.remove(&key.hash);
                    }
                }
                return (Ok(report), CacheStatus::Hit);
            }
        }

        // A panicking solver must not strand the flight: waiters would
        // block forever on the condvar and every future identical request
        // would join the dead flight. Catch the panic, publish an error to
        // the waiters, and answer this request with an internal error.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(solve_fn))
            .unwrap_or_else(|panic| {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_default();
                Err(EngineError::Internal(format!("solver panicked: {msg}")))
            });
        self.misses.fetch_add(1, Ordering::Relaxed);
        if let Ok(report) = &outcome {
            self.put(key, report);
        }

        if let Some(f) = flight {
            let canon_result = outcome
                .as_ref()
                .map(|r| to_canonical(r, &key.canon.perm))
                .map_err(Clone::clone);
            *f.result.lock().expect("flight result poisoned") = Some(canon_result);
            f.done.notify_all();
            let mut flights = self.flights.lock().expect("flight lock poisoned");
            if let Some(cur) = flights.get(&key.hash) {
                if Arc::ptr_eq(cur, &f) {
                    flights.remove(&key.hash);
                }
            }
        }
        (outcome, CacheStatus::Miss)
    }

    /// Counter snapshot (for `/metrics`).
    pub fn counters(&self) -> CacheCounters {
        let mut entries = 0u64;
        let mut bytes = 0u64;
        for shard in &self.shards {
            let s = shard.lock().expect("cache lock poisoned");
            entries += s.buckets.values().map(|b| b.len() as u64).sum::<u64>();
            bytes += s.bytes as u64;
        }
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries,
            bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dclab_engine::{solve, SolveRequest};
    use dclab_graph::generators::classic;

    fn key_and_report(g: &Graph, strategy: Strategy) -> (CacheKey, SolveReport) {
        let p = PVec::l21();
        let key = CacheKey::for_request(g, &p, strategy, Budget::default(), OraclePolicy::Auto);
        let report = solve(&SolveRequest::new(g.clone(), p).with_strategy(strategy)).unwrap();
        (key, report)
    }

    #[test]
    fn byte_identical_round_trip() {
        let cache = ReportCache::new(1 << 20);
        let g = classic::petersen();
        let (key, report) = key_and_report(&g, Strategy::Auto);
        assert!(cache.get(&key).is_none());
        cache.put(&key, &report);
        let cached = cache.get(&key).expect("hit");
        assert_eq!(
            cached.to_json(),
            report.to_json(),
            "bit-identical on same instance"
        );
    }

    #[test]
    fn isomorphic_relabeling_hits_and_is_valid() {
        let cache = ReportCache::new(1 << 20);
        let g = classic::petersen();
        let p = PVec::l21();
        let (key, report) = key_and_report(&g, Strategy::Exact);
        cache.put(&key, &report);

        let perm = vec![4, 7, 1, 8, 0, 3, 6, 2, 5, 9];
        let h = g.relabeled(&perm);
        let key_h = CacheKey::for_request(
            &h,
            &p,
            Strategy::Exact,
            Budget::default(),
            OraclePolicy::Auto,
        );
        assert_eq!(key.hash, key_h.hash, "isomorphic instances share the hash");
        let cached = cache.get(&key_h).expect("isomorphic relabeling hits");
        assert_eq!(cached.solution.span, report.solution.span);
        cached
            .solution
            .labeling
            .validate(&h, &p)
            .expect("remapped labeling valid for h");
    }

    #[test]
    fn different_pvec_or_strategy_miss() {
        let cache = ReportCache::new(1 << 20);
        let g = classic::petersen();
        let (key, report) = key_and_report(&g, Strategy::Auto);
        cache.put(&key, &report);
        let other_p = CacheKey::for_request(
            &g,
            &PVec::ones(2),
            Strategy::Auto,
            Budget::default(),
            OraclePolicy::Auto,
        );
        let other_s = CacheKey::for_request(
            &g,
            &PVec::l21(),
            Strategy::Greedy,
            Budget::default(),
            OraclePolicy::Auto,
        );
        assert!(cache.get(&other_p).is_none());
        assert!(cache.get(&other_s).is_none());
    }

    #[test]
    fn lru_evicts_under_byte_pressure() {
        // Budget so small each shard fits ~1 entry; inserting many distinct
        // instances must evict and never exceed ~budget.
        let cache = ReportCache::new(SHARDS * 600);
        let p = PVec::l21();
        for n in 3..30 {
            let g = classic::path(n);
            let key = CacheKey::for_request(
                &g,
                &p,
                Strategy::Greedy,
                Budget::default(),
                OraclePolicy::Auto,
            );
            let report =
                solve(&SolveRequest::new(g.clone(), p.clone()).with_strategy(Strategy::Greedy))
                    .unwrap();
            cache.put(&key, &report);
        }
        let c = cache.counters();
        assert!(c.evictions > 0, "evictions happened: {c:?}");
        assert!(c.entries < 27, "entries bounded: {c:?}");
    }

    #[test]
    fn get_or_solve_miss_then_hit() {
        let cache = ReportCache::new(1 << 20);
        let g = classic::complete(6);
        let p = PVec::l21();
        let key = CacheKey::for_request(
            &g,
            &p,
            Strategy::Auto,
            Budget::default(),
            OraclePolicy::Auto,
        );
        let solve_fn = || solve(&SolveRequest::new(g.clone(), p.clone()));
        let (r1, s1) = cache.get_or_solve(&key, solve_fn);
        assert_eq!(s1, CacheStatus::Miss);
        let (r2, s2) = cache.get_or_solve(&key, || panic!("must not re-solve"));
        assert_eq!(s2, CacheStatus::Hit);
        assert_eq!(r1.unwrap().to_json(), r2.unwrap().to_json());
    }

    #[test]
    fn single_flight_coalesces_concurrent_identical_requests() {
        use std::sync::atomic::AtomicUsize;
        let cache = Arc::new(ReportCache::new(1 << 20));
        let solves = Arc::new(AtomicUsize::new(0));
        let g = classic::complete_bipartite(4, 4);
        let p = PVec::l21();
        let key = CacheKey::for_request(
            &g,
            &p,
            Strategy::Auto,
            Budget::default(),
            OraclePolicy::Auto,
        );
        let mut handles = Vec::new();
        for _ in 0..8 {
            let (cache, solves, key, g, p) = (
                Arc::clone(&cache),
                Arc::clone(&solves),
                key.clone(),
                g.clone(),
                p.clone(),
            );
            handles.push(std::thread::spawn(move || {
                let (result, status) = cache.get_or_solve(&key, || {
                    solves.fetch_add(1, Ordering::SeqCst);
                    // Slow the leader so the others pile onto the flight.
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    solve(&SolveRequest::new(g, p))
                });
                (result.unwrap().solution.span, status)
            }));
        }
        let results: Vec<(u64, CacheStatus)> =
            handles.into_iter().map(|h| h.join().unwrap()).collect();
        let spans: Vec<u64> = results.iter().map(|&(s, _)| s).collect();
        assert!(spans.windows(2).all(|w| w[0] == w[1]), "all spans agree");
        assert_eq!(
            solves.load(Ordering::SeqCst),
            1,
            "exactly one solve ran: {results:?}"
        );
    }

    #[test]
    fn panicking_solve_fails_every_waiter_and_strands_no_flight() {
        const WAITERS: usize = 3;
        let cache = Arc::new(ReportCache::new(1 << 20));
        let g = classic::cycle(5);
        let p = PVec::l21();
        let key = CacheKey::for_request(
            &g,
            &p,
            Strategy::Auto,
            Budget::default(),
            OraclePolicy::Auto,
        );
        let (opened, flight_open) = std::sync::mpsc::channel();
        let leader = {
            let (cache, key) = (Arc::clone(&cache), key.clone());
            std::thread::spawn(move || {
                cache.get_or_solve(&key, || {
                    opened.send(()).unwrap();
                    // Hold the flight until every waiter has joined it (the
                    // flight map and this leader hold one handle each).
                    while Arc::strong_count(&cache.flights.lock().unwrap()[&key.hash]) < 2 + WAITERS
                    {
                        std::thread::yield_now();
                    }
                    panic!("boom")
                })
            })
        };
        flight_open.recv().unwrap();
        let waiters: Vec<_> = (0..WAITERS)
            .map(|_| {
                let (cache, key) = (Arc::clone(&cache), key.clone());
                std::thread::spawn(move || {
                    cache.get_or_solve(&key, || unreachable!("a waiter never leads"))
                })
            })
            .collect();
        let want = EngineError::Internal("solver panicked: boom".into());
        let (result, status) = leader.join().unwrap();
        assert_eq!(
            (result.unwrap_err(), status),
            (want.clone(), CacheStatus::Miss)
        );
        for waiter in waiters {
            let (result, status) = waiter.join().unwrap();
            assert_eq!(
                (result.unwrap_err(), status),
                (want.clone(), CacheStatus::Coalesced)
            );
        }
        // No stranded flight: the next identical request solves afresh.
        assert!(cache.flights.lock().unwrap().is_empty());
        let (result, status) = cache.get_or_solve(&key, || solve(&SolveRequest::new(g, p)));
        assert_eq!(status, CacheStatus::Miss);
        assert!(result.is_ok());
    }
}
