//! [`StoreKey`] — the durable identity of an archived solve.
//!
//! A key is the canonical instance (vertex count + `graph::canon` canonical
//! edge list) plus the request parameters that shape the answer (p-vector,
//! strategy, budget). Two requests whose graphs are isomorphic relabelings
//! canonize to the same edge list and therefore the same key, so the
//! archive — like the serve layer's in-memory cache — stores one report per
//! instance *class*, not per byte encoding.
//!
//! Keys are compared by their encoded bytes (exact), and bucketed by an
//! FNV-1a hash of those bytes; a hash collision degrades to a linear probe
//! within the bucket, never to a wrong record.

use dclab_engine::binary::{
    get_opt_uvarint, get_u8, get_uvarint, put_opt_uvarint, put_uvarint, CodecError,
};
use dclab_engine::{Budget, OraclePolicy, Strategy};
use dclab_graph::canon::Fnv64;

/// Durable identity of one archived solve (see module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreKey {
    /// Canonical vertex count.
    pub n: u32,
    /// Canonical edge list (`u < v`, sorted) from `graph::canon`.
    pub edges: Vec<(u32, u32)>,
    /// The p-vector entries.
    pub pvec: Vec<u64>,
    pub strategy: Strategy,
    pub budget: Budget,
    /// Distance-backend policy of the request (`Auto` for every key
    /// written before the field existed).
    pub oracle: OraclePolicy,
}

impl StoreKey {
    /// Stable byte encoding (the archive's key payload).
    ///
    /// The budget's `deadline_ms` and the oracle policy are encoded as
    /// layered *optional tails*. The deadline (an option-tagged varint)
    /// is appended when `Some` — or when an oracle tail follows, so the
    /// layers stay unambiguous. The oracle policy byte is appended only
    /// when the policy is not `Auto`. A deadline-free `Auto` key
    /// therefore byte-matches every key written before either field
    /// existed — old archives keep hitting — and decode treats a buffer
    /// ending at `lb_iters` as `deadline_ms: None, oracle: Auto`.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(16 + 4 * self.edges.len() + 2 * self.pvec.len());
        put_uvarint(&mut buf, self.n as u64);
        put_uvarint(&mut buf, self.edges.len() as u64);
        for &(u, v) in &self.edges {
            put_uvarint(&mut buf, u as u64);
            put_uvarint(&mut buf, v as u64);
        }
        put_uvarint(&mut buf, self.pvec.len() as u64);
        for &p in &self.pvec {
            put_uvarint(&mut buf, p);
        }
        buf.push(self.strategy.code());
        put_opt_uvarint(&mut buf, self.budget.node_budget);
        put_opt_uvarint(&mut buf, self.budget.restarts.map(|r| r as u64));
        put_opt_uvarint(&mut buf, self.budget.lb_iters.map(|i| i as u64));
        if self.budget.deadline_ms.is_some() || self.oracle != OraclePolicy::Auto {
            put_opt_uvarint(&mut buf, self.budget.deadline_ms);
        }
        if self.oracle != OraclePolicy::Auto {
            buf.push(self.oracle.code());
        }
        buf
    }

    /// Strict inverse of [`StoreKey::encode`] (whole buffer consumed).
    pub fn decode(bytes: &[u8]) -> Result<StoreKey, CodecError> {
        let pos = &mut 0usize;
        let bad = |pos: usize, msg: &str| CodecError {
            offset: pos,
            message: msg.to_string(),
        };
        let n = u32::try_from(get_uvarint(bytes, pos)?)
            .map_err(|_| bad(*pos, "vertex count not a u32"))?;
        // Every edge takes at least two bytes and every p-vector entry at
        // least one, so a count the remaining bytes cannot hold is refused
        // before anything is allocated for it.
        let n_edges = get_uvarint(bytes, pos)?;
        if n_edges > (bytes.len() - *pos) as u64 / 2 {
            return Err(bad(*pos, "edge count exceeds buffer"));
        }
        let n_edges = n_edges as usize;
        let mut edges = Vec::with_capacity(n_edges);
        for _ in 0..n_edges {
            let u = u32::try_from(get_uvarint(bytes, pos)?)
                .map_err(|_| bad(*pos, "endpoint not a u32"))?;
            let v = u32::try_from(get_uvarint(bytes, pos)?)
                .map_err(|_| bad(*pos, "endpoint not a u32"))?;
            edges.push((u, v));
        }
        let n_pvec = get_uvarint(bytes, pos)?;
        if n_pvec > (bytes.len() - *pos) as u64 {
            return Err(bad(*pos, "p-vector length exceeds buffer"));
        }
        let n_pvec = n_pvec as usize;
        let mut pvec = Vec::with_capacity(n_pvec);
        for _ in 0..n_pvec {
            pvec.push(get_uvarint(bytes, pos)?);
        }
        let code = get_u8(bytes, pos)?;
        let strategy =
            Strategy::from_code(code).ok_or_else(|| bad(*pos - 1, "unknown strategy code"))?;
        let mut budget = Budget {
            node_budget: get_opt_uvarint(bytes, pos)?,
            restarts: get_opt_uvarint(bytes, pos)?.map(|r| r as usize),
            lb_iters: get_opt_uvarint(bytes, pos)?.map(|i| i as usize),
            ..Budget::default()
        };
        // Layered versioned tails: keys written before anytime solving end
        // here (deadline_ms: None, oracle: Auto); newer keys append the
        // deadline option, and oracle-pinned keys a policy byte after it.
        let mut oracle = OraclePolicy::Auto;
        if *pos < bytes.len() {
            budget.deadline_ms = get_opt_uvarint(bytes, pos)?;
            if *pos < bytes.len() {
                let code = get_u8(bytes, pos)?;
                oracle = OraclePolicy::from_code(code)
                    .ok_or_else(|| bad(*pos - 1, "unknown oracle policy code"))?;
                if oracle == OraclePolicy::Auto {
                    // Auto is canonically omitted; an explicit byte would
                    // make two byte strings decode to one key.
                    return Err(bad(*pos - 1, "non-canonical oracle tail"));
                }
            } else if budget.deadline_ms.is_none() {
                // The canonical encoding omits a None deadline unless an
                // oracle byte follows; a bare explicit None would break
                // encode∘decode = identity.
                return Err(bad(*pos - 1, "non-canonical deadline tail"));
            }
        }
        if *pos != bytes.len() {
            return Err(bad(*pos, "trailing bytes after key"));
        }
        Ok(StoreKey {
            n,
            edges,
            pvec,
            strategy,
            budget,
            oracle,
        })
    }

    /// Bucket hash of the encoded key (FNV-1a over the key bytes).
    pub fn hash(&self) -> u64 {
        hash_key_bytes(&self.encode())
    }
}

/// FNV-1a of already-encoded key bytes (the index bucket function).
pub fn hash_key_bytes(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write_bytes(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StoreKey {
        StoreKey {
            n: 5,
            edges: vec![(0, 1), (0, 4), (2, 3)],
            pvec: vec![2, 1],
            strategy: Strategy::Auto,
            budget: Budget {
                node_budget: Some(1000),
                restarts: None,
                lb_iters: Some(0),
                ..Budget::default()
            },
            oracle: OraclePolicy::Auto,
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let key = sample();
        let bytes = key.encode();
        let back = StoreKey::decode(&bytes).expect("decodes");
        assert_eq!(back, key);
        assert_eq!(back.encode(), bytes);
        assert_eq!(back.hash(), key.hash());
    }

    #[test]
    fn different_fields_change_bytes_and_hash() {
        let base = sample();
        let mut other = base.clone();
        other.strategy = Strategy::Greedy;
        assert_ne!(other.encode(), base.encode());
        assert_ne!(other.hash(), base.hash());
        let mut other = base.clone();
        other.pvec = vec![1, 1];
        assert_ne!(other.encode(), base.encode());
    }

    #[test]
    fn truncated_and_trailing_rejected() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            assert!(StoreKey::decode(&bytes[..cut]).is_err(), "prefix {cut}");
        }
        // A lone `0` tail is a non-canonical explicit-None deadline.
        let mut long = bytes.clone();
        long.push(0);
        assert!(StoreKey::decode(&long).is_err());
        // Bytes after a well-formed deadline tail are also rejected.
        let mut keyed = sample();
        keyed.budget.deadline_ms = Some(50);
        let mut long = keyed.encode();
        long.push(0);
        assert!(StoreKey::decode(&long).is_err());
    }

    /// The satellite's versioned-decode contract: archives written before
    /// `Budget::deadline_ms` existed — whose keys end at `lb_iters` — must
    /// keep decoding (as `deadline_ms: None`) and re-encode byte-for-byte,
    /// so every pre-anytime record keeps hitting.
    #[test]
    fn pre_deadline_keys_decode_and_round_trip() {
        // sample() has deadline_ms: None, so its encoding *is* the old
        // format: no tail bytes beyond lb_iters.
        let old_format_bytes = sample().encode();
        let decoded = StoreKey::decode(&old_format_bytes).expect("old key decodes");
        assert_eq!(decoded.budget.deadline_ms, None);
        assert_eq!(decoded, sample());
        assert_eq!(decoded.encode(), old_format_bytes, "byte round trip");
        assert_eq!(decoded.hash(), sample().hash());
    }

    #[test]
    fn deadline_keys_round_trip_and_differ_from_deadline_free() {
        let base = sample();
        let mut with_deadline = base.clone();
        with_deadline.budget.deadline_ms = Some(50);
        let bytes = with_deadline.encode();
        assert_eq!(bytes.len(), base.encode().len() + 2, "tag + varint tail");
        let back = StoreKey::decode(&bytes).expect("decodes");
        assert_eq!(back, with_deadline);
        assert_eq!(back.encode(), bytes);
        assert_ne!(bytes, base.encode());
        assert_ne!(with_deadline.hash(), base.hash());
    }

    /// The layered-tail contract for the oracle policy: `Auto` keys are
    /// byte-identical to the pre-oracle encoding (old archives keep
    /// hitting); pinned-backend keys append the policy byte — behind an
    /// explicit deadline option when the deadline is `None`, so the two
    /// tails never collide — and every combination round-trips.
    #[test]
    fn oracle_policy_tail_layers_over_the_deadline_tail() {
        let base = sample();
        assert_eq!(base.oracle, OraclePolicy::Auto);
        for deadline in [None, Some(50)] {
            for oracle in [OraclePolicy::Auto, OraclePolicy::Dense, OraclePolicy::Hub] {
                let mut key = base.clone();
                key.budget.deadline_ms = deadline;
                key.oracle = oracle;
                let bytes = key.encode();
                let back = StoreKey::decode(&bytes).expect("decodes");
                assert_eq!(back, key);
                assert_eq!(back.encode(), bytes, "byte round trip");
                if oracle != OraclePolicy::Auto {
                    assert_eq!(*bytes.last().unwrap(), oracle.code());
                }
            }
        }
        // Deadline-free pinned key: tail is exactly [None tag, policy].
        let mut hub = base.clone();
        hub.oracle = OraclePolicy::Hub;
        let bytes = hub.encode();
        assert_eq!(bytes.len(), base.encode().len() + 2);
        assert_ne!(hub.hash(), base.hash());
        // A dangling explicit-None deadline (no policy byte after it)
        // stays non-canonical.
        assert!(StoreKey::decode(&bytes[..bytes.len() - 1]).is_err());
        // And an explicit Auto policy byte is rejected too.
        let mut padded = base.encode();
        padded.extend_from_slice(&[0, 0]);
        assert!(StoreKey::decode(&padded).is_err());
    }
}
