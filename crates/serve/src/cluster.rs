//! Cluster mode: consistent-hash routing of canonical instance keys
//! across serve replicas.
//!
//! `dclab serve --cluster a:7001,b:7002,...` makes every replica a router:
//! each `/solve` request's [`CacheKey::hash`](crate::cache::CacheKey) —
//! the isomorphism-invariant canonical identity from PR 2 — is looked up
//! on a shared hash ring, and the replica that owns the key either solves
//! locally or proxies to the owner. Because every replica builds the ring
//! from the same `--cluster` list, they all agree on ownership with zero
//! coordination traffic, and isomorphic relabelings of one instance land
//! on the same owner (one cache entry, one archive record, cluster-wide).
//!
//! The ring uses virtual nodes (`VNODES` points per replica, placed by
//! FNV-64 over `addr#index`; points and keys both pass through a 64-bit
//! finalizer) so key ranges stay balanced for small replica counts and
//! only `1/N` of keys move when a replica joins or leaves.
//! Warm-up/replication reuses the existing `dclab store export/import`
//! streaming — there is no separate replication protocol.
//!
//! Forwarding protocol (plain HTTP between replicas):
//!
//! * the proxy adds `x-dclab-forwarded: <self-addr>` — a replica seeing
//!   that header always solves locally (loop prevention, one hop max);
//! * every cluster-routed response carries `x-dclab-routed:
//!   local|forwarded|fallback` so clients and the loadgen soak can audit
//!   routing behavior;
//! * a proxy failure (owner down, timeout) falls back to a local solve —
//!   the mesh degrades to independent replicas instead of erroring, which
//!   is what keeps a soak 5xx-free through single-replica restarts.

use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use dclab_graph::canon::Fnv64;

use crate::http::{read_response, Request, Response};

/// Loop-prevention header: present on replica-to-replica forwarded
/// requests; its value is the proxying replica's address.
pub const FORWARDED_HEADER: &str = "x-dclab-forwarded";

/// Response header naming the route taken: `local`, `forwarded`, or
/// `fallback`.
pub const ROUTED_HEADER: &str = "x-dclab-routed";

/// Virtual nodes per replica on the ring. 64 points keeps the max/min
/// ownership ratio tight (≈1.3 at N=2..8) while the ring stays a few
/// hundred entries — binary search cost is noise next to a solve.
const VNODES: usize = 64;

/// Where a hash lands on the ring: the MurmurHash3 64-bit finalizer.
/// FNV-64 alone diffuses poorly when its inputs differ in a few bytes
/// (the `#index` suffix of one replica's points, the port digits between
/// replicas), which clusters whole replicas on a small arc of the ring.
fn ring_position(hash: u64) -> u64 {
    let mut x = hash;
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// Proxy connect/read/write timeout. Generous enough for a warm hit or a
/// small solve on the owner; a slow owner trips the local fallback rather
/// than stalling the client indefinitely.
const PROXY_TIMEOUT: Duration = Duration::from_secs(10);

/// Consistent-hash ring over the replica set, plus this node's identity.
#[derive(Debug)]
pub struct Cluster {
    /// Replica addresses exactly as given on the command line (the ring
    /// hash is over these strings, so every replica must receive the same
    /// list — document order does not matter, the ring sorts by point).
    replicas: Vec<String>,
    /// `(ring_point, replica_index)` sorted by point.
    ring: Vec<(u64, usize)>,
    /// Index of this node in `replicas`.
    self_index: usize,
}

impl Cluster {
    /// Build the ring from the `--cluster` replica list. `self_addr` must
    /// appear in the list (it is how a replica knows which ranges are its
    /// own); returns `None` otherwise so the caller can fail fast with a
    /// configuration error.
    pub fn new(replicas: Vec<String>, self_addr: &str) -> Option<Cluster> {
        let self_index = replicas.iter().position(|r| r == self_addr)?;
        let mut ring = Vec::with_capacity(replicas.len() * VNODES);
        for (i, addr) in replicas.iter().enumerate() {
            for v in 0..VNODES {
                let mut h = Fnv64::new();
                h.write_bytes(addr.as_bytes());
                h.write_bytes(b"#");
                h.write_u64(v as u64);
                ring.push((ring_position(h.finish()), i));
            }
        }
        ring.sort_unstable();
        Some(Cluster {
            replicas,
            ring,
            self_index,
        })
    }

    pub fn replicas(&self) -> &[String] {
        &self.replicas
    }

    pub fn self_addr(&self) -> &str {
        &self.replicas[self.self_index]
    }

    /// Which replica owns `key_hash`: first ring point at or after the
    /// key's ring position, wrapping to the first point past the top.
    pub fn owner_index(&self, key_hash: u64) -> usize {
        let pos = ring_position(key_hash);
        let i = self.ring.partition_point(|&(p, _)| p < pos);
        let (_, replica) = self.ring[i % self.ring.len()];
        replica
    }

    /// `Some(owner_addr)` when another replica owns the key, `None` when
    /// this node does.
    pub fn owner_if_remote(&self, key_hash: u64) -> Option<&str> {
        let owner = self.owner_index(key_hash);
        (owner != self.self_index).then(|| self.replicas[owner].as_str())
    }
}

/// Forward `req` to the owning replica and relay its response. The
/// request is re-sent with its original target (query string and all) and
/// body; `connection: close` keeps the proxy protocol trivially correct
/// (replica-to-replica connections are cheap on the reactor). Any error —
/// connect, timeout, malformed upstream response — returns `Err` and the
/// caller solves locally instead.
pub fn proxy(owner: &str, req: &Request, rid: &str, self_addr: &str) -> std::io::Result<Response> {
    let addr = owner
        .parse::<std::net::SocketAddr>()
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
    let mut stream = TcpStream::connect_timeout(&addr, PROXY_TIMEOUT)?;
    stream.set_read_timeout(Some(PROXY_TIMEOUT))?;
    stream.set_write_timeout(Some(PROXY_TIMEOUT))?;
    stream.set_nodelay(true)?;
    let head = format!(
        "{} {} HTTP/1.1\r\nhost: {}\r\ncontent-length: {}\r\nx-request-id: {}\r\n{}: {}\r\nconnection: close\r\n\r\n",
        req.method,
        req.target,
        owner,
        req.body.len(),
        rid,
        FORWARDED_HEADER,
        self_addr,
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(&req.body)?;
    stream.flush()?;
    read_response(&mut BufReader::new(stream))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node() -> (Cluster, Cluster) {
        let replicas = vec!["127.0.0.1:7001".to_string(), "127.0.0.1:7002".to_string()];
        let a = Cluster::new(replicas.clone(), "127.0.0.1:7001").unwrap();
        let b = Cluster::new(replicas, "127.0.0.1:7002").unwrap();
        (a, b)
    }

    #[test]
    fn replicas_agree_on_ownership() {
        let (a, b) = two_node();
        for key in (0..10_000u64).map(|i| i.wrapping_mul(0x9e3779b97f4a7c15)) {
            assert_eq!(a.owner_index(key), b.owner_index(key), "key {key:#x}");
        }
    }

    #[test]
    fn ownership_is_roughly_balanced() {
        // Every port pair, not one lucky one: tests and deployments bind
        // whatever ports they get.
        for port in 7000..7100 {
            let replicas = vec![
                format!("127.0.0.1:{port}"),
                format!("127.0.0.1:{}", port + 1),
            ];
            let a = Cluster::new(replicas.clone(), &replicas[0]).unwrap();
            let total = 20_000u64;
            let mine = (0..total)
                .map(|i| i.wrapping_mul(0x9e3779b97f4a7c15))
                .filter(|&k| a.owner_index(k) == 0)
                .count() as f64;
            let share = mine / total as f64;
            assert!(
                (0.3..=0.7).contains(&share),
                "replica 0 of {replicas:?} owns {share:.2} of the keyspace"
            );
        }
    }

    #[test]
    fn remote_owner_is_never_self() {
        let (a, b) = two_node();
        for key in (0..1000u64).map(|i| i.wrapping_mul(0x9e3779b97f4a7c15)) {
            if let Some(owner) = a.owner_if_remote(key) {
                assert_eq!(owner, b.self_addr());
                assert!(b.owner_if_remote(key).is_none(), "owner must serve locally");
            } else {
                assert_eq!(b.owner_if_remote(key), Some(a.self_addr()));
            }
        }
    }

    #[test]
    fn self_must_be_in_replica_list() {
        assert!(Cluster::new(vec!["a:1".into(), "b:2".into()], "c:3").is_none());
    }

    #[test]
    fn join_moves_only_a_fraction_of_keys() {
        let two = Cluster::new(
            vec!["127.0.0.1:7001".into(), "127.0.0.1:7002".into()],
            "127.0.0.1:7001",
        )
        .unwrap();
        let three = Cluster::new(
            vec![
                "127.0.0.1:7001".into(),
                "127.0.0.1:7002".into(),
                "127.0.0.1:7003".into(),
            ],
            "127.0.0.1:7001",
        )
        .unwrap();
        let total = 20_000u64;
        let moved = (0..total)
            .map(|i| i.wrapping_mul(0x9e3779b97f4a7c15))
            .filter(|&k| {
                let before = two.replicas()[two.owner_index(k)].clone();
                let after = three.replicas()[three.owner_index(k)].clone();
                before != after
            })
            .count() as f64;
        let fraction = moved / total as f64;
        // Consistent hashing: adding a third replica should move about 1/3
        // of keys, nowhere near the ~100% a mod-N scheme reshuffles.
        assert!(
            fraction < 0.55,
            "adding a replica moved {fraction:.2} of keys"
        );
    }
}
