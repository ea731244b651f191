//! Property tests for the archive (ISSUE 4 satellite):
//!
//! * **Round trip** — append N random reports, reopen, every value comes
//!   back byte-identical (and again after a compaction).
//! * **Torn-tail recovery** — truncate the log at *every* byte offset of
//!   the final record: open always succeeds, earlier records are intact,
//!   and only the torn record is dropped.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::RngExt;

use dclab_engine::{Budget, OraclePolicy, Strategy};
use dclab_store::{Store, StoreKey};

/// A temp directory for one test case, removed when its owner drops: at
/// the end of the case, and on a failed assertion too.
struct Scratch(std::path::PathBuf);

impl Scratch {
    fn new(tag: &str, case: u64) -> Scratch {
        let dir = std::env::temp_dir().join(format!(
            "dclab-store-props-{}-{tag}-{case}",
            std::process::id()
        ));
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

/// A random (but case-unique) key: `idx` is baked into the p-vector so two
/// generated keys never collide within one case.
fn random_key(rng: &mut StdRng, idx: u64) -> StoreKey {
    let n = rng.random_range(2u32..16);
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.random_bool(0.3) {
                edges.push((u, v));
            }
        }
    }
    let strategies = [Strategy::Auto, Strategy::Exact, Strategy::Greedy];
    StoreKey {
        n,
        edges,
        pvec: vec![idx + 1, rng.random_range(1u64..5)],
        strategy: strategies[rng.random_range(0usize..3)],
        budget: Budget {
            node_budget: if rng.random_bool(0.5) {
                Some(rng.random_range(1u64..10_000))
            } else {
                None
            },
            restarts: None,
            lb_iters: None,
            // Exercise both key layouts: the pre-anytime format (no tail)
            // and the deadline-tagged tail.
            deadline_ms: if rng.random_bool(0.5) {
                Some(rng.random_range(1u64..100_000))
            } else {
                None
            },
        },
        // Exercise all three oracle-tail layouts (Auto omits the byte).
        oracle: [OraclePolicy::Auto, OraclePolicy::Dense, OraclePolicy::Hub]
            [rng.random_range(0usize..3)],
    }
}

fn random_val(rng: &mut StdRng) -> Vec<u8> {
    let len = rng.random_range(1usize..200);
    (0..len)
        .map(|_| rng.random_range(0u64..256) as u8)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(25))]

    #[test]
    fn append_reopen_round_trip_is_byte_identical(seed in any::<u64>(), count in 1usize..12) {
        let mut rng = <StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let dir = Scratch::new("round-trip", seed ^ count as u64);
        let path = dir.join("archive.dcst");
        let mut expected = Vec::new();
        {
            let (store, _) = Store::open(&path).expect("create");
            for i in 0..count {
                let key = random_key(&mut rng, i as u64);
                let val = random_val(&mut rng);
                prop_assert!(store.append(&key, &val).expect("append"));
                expected.push((key, val));
            }
        }
        let (store, open) = Store::open(&path).expect("reopen");
        prop_assert_eq!(open.live, count as u64);
        prop_assert_eq!(open.torn_bytes_dropped, 0u64);
        for (key, val) in &expected {
            let got = store.get(key).expect("read").expect("present");
            prop_assert_eq!(&got, val);
        }
        // Compaction must preserve every byte too.
        store.compact().expect("compact");
        for (key, val) in &expected {
            let got = store.get(key).expect("read").expect("present after compact");
            prop_assert_eq!(&got, val);
        }
    }

    #[test]
    fn torn_tail_at_every_offset_recovers_earlier_records(seed in any::<u64>(), count in 1usize..6) {
        let mut rng = <StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let dir = Scratch::new("torn", seed ^ (count as u64) << 32);
        let path = dir.join("archive.dcst");
        let mut expected = Vec::new();
        let last_record_start;
        {
            let (store, _) = Store::open(&path).expect("create");
            let mut tail_before_last = 0;
            for i in 0..count {
                tail_before_last = store.stats().bytes;
                let key = random_key(&mut rng, i as u64);
                let val = random_val(&mut rng);
                store.append(&key, &val).expect("append");
                expected.push((key, val));
            }
            last_record_start = tail_before_last as usize;
        }
        let full = std::fs::read(&path).expect("read archive");
        let torn_path = dir.join("torn.dcst");
        // Every truncation point inside the final record (from its first
        // byte up to one short of complete).
        for cut in last_record_start..full.len() {
            std::fs::write(&torn_path, &full[..cut]).expect("write torn copy");
            let (store, open) = Store::open(&torn_path).expect("open never fails on a torn tail");
            if cut == last_record_start {
                prop_assert_eq!(open.torn_bytes_dropped, 0u64);
            } else {
                prop_assert!(open.torn_bytes_dropped > 0, "partial record dropped at cut {}", cut);
            }
            prop_assert_eq!(open.live, count as u64 - 1);
            for (key, val) in &expected[..count - 1] {
                let got = store.get(key).expect("read").expect("earlier record intact");
                prop_assert_eq!(&got, val);
            }
            prop_assert!(
                store.get(&expected[count - 1].0).expect("read").is_none(),
                "torn record must not resurface"
            );
        }
        // Truncating nothing keeps all records.
        let (_, open) = Store::open(&path).expect("reopen full");
        prop_assert_eq!(open.live, count as u64);
    }
}
