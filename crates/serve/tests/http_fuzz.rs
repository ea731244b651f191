//! Deterministic mutation fuzzer for the request parser,
//! [`http::try_parse`], and the query-string and percent decoding it runs
//! on the request target. The corpus is rendered requests: with and
//! without a query, with `%XX` and `+` escapes, with bodies, with
//! `Expect: 100-continue`, in HTTP/1.0, with a bad `Content-Length`, with
//! bare-LF line endings and pipelined. Each iteration applies one to three
//! seeded mutations of four generic kinds: byte flips, splices from
//! another corpus request, truncations and appended bytes.
//!
//! The parser must never panic. An accepted request must lie inside the
//! input and the limits: `used ≤ len`, a body of at most `max_body` bytes
//! and a head of at most `max_head`. Feeding the bytes in two chunks and
//! parsing after each, as the reactor does, must give the same result as
//! feeding them whole. Each run goes once under the production limits and
//! once under small ones, so the size checks fire too.
//!
//! Tier-1 runs 10⁴ iterations per limit pair; the ignored 10⁶-iteration
//! run is `cargo test --release -p dclab-serve -- --ignored`.

use dclab_serve::http::{self, ParseError};
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

const PRODUCTION: (usize, usize) = (http::MAX_HEAD_BYTES, http::MAX_BODY_BYTES);
const SMALL: (usize, usize) = (256, 512);

/// Rendered requests covering each branch of the parser.
fn corpus() -> Vec<Vec<u8>> {
    let edges = "n 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n0 3\n";
    let long_edges: String = std::iter::once("n 120\n".to_string())
        .chain((1..120).map(|v| format!("0 {v}\n")))
        .collect();
    let post = |target: &str, headers: &str, body: &str| {
        format!(
            "POST {target} HTTP/1.1\r\nHost: 127.0.0.1\r\n{headers}Content-Length: {}\r\n\r\n{body}",
            body.len()
        )
    };
    let requests = [
        "GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n".to_string(),
        "GET /metrics?format=json HTTP/1.1\r\nConnection: close\r\n\r\n".to_string(),
        "GET /debug/traces/req%2D1?note=a+b%20c&flag&x=%E2%9C%93 HTTP/1.1\r\n\r\n".to_string(),
        post("/solve?p=2,1&strategy=auto", "", edges),
        post(
            "/solve?p=3%2C2&strategy=oracle-path&oracle=hub",
            "X-Request-Id: fuzz-1\r\n",
            edges,
        ),
        post("/solve?p=2,1", "Expect: 100-continue\r\n", &long_edges),
        format!(
            "POST /batch HTTP/1.0\r\nConnection: keep-alive\r\nContent-Length: {}\r\n\r\n{edges}",
            edges.len()
        ),
        "POST /solve HTTP/1.1\r\nContent-Length: 12x\r\n\r\nn 1\n".to_string(),
        "POST /solve HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n".to_string(),
        format!(
            "GET /healthz?{} HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "k=v&".repeat(40),
            "p".repeat(200)
        ),
        "GET /healthz HTTP/1.1\nHost: bare-lf\n\n".to_string(),
        format!(
            "{}GET /healthz HTTP/1.1\r\n\r\n",
            post("/solve?p=2,1", "", edges)
        ),
    ];
    requests.into_iter().map(String::into_bytes).collect()
}

/// One seeded mutation of `buf`; splices draw from `corpus`.
fn mutate(rng: &mut StdRng, buf: &mut Vec<u8>, corpus: &[Vec<u8>]) {
    match rng.random_range(0..4) {
        0 if !buf.is_empty() => {
            for _ in 0..rng.random_range(1..4) {
                let at = rng.random_range(0..buf.len());
                buf[at] ^= rng.random_range(1..256u32) as u8;
            }
        }
        1 => {
            // Splice a slice of a corpus request in: inserted over a cut
            // of any length, or overwriting in place.
            let other = &corpus[rng.random_range(0..corpus.len())];
            let at = rng.random_range(0..buf.len() + 1);
            let from = rng.random_range(0..other.len() + 1);
            let mut take = rng.random_range(0..other.len() - from + 1);
            let cut = if rng.random_bool(0.5) {
                rng.random_range(0..buf.len() - at + 1)
            } else {
                take = take.min(buf.len() - at);
                take
            };
            buf.splice(at..at + cut, other[from..from + take].iter().copied());
        }
        2 => {
            let len = rng.random_range(0..buf.len() + 1);
            buf.truncate(len);
        }
        3 => {
            for _ in 0..rng.random_range(1..16) {
                buf.push(rng.next_u32() as u8);
            }
        }
        _ => {}
    }
}

/// How one input came out.
#[derive(Default)]
struct Tally {
    accepted: u64,
    incomplete: u64,
    bad: u64,
    too_large: u64,
}

/// Parse `buf` whole and in two chunks split at `split`; check the
/// invariants in the module docs and count the outcome.
fn parse_and_check(buf: &[u8], split: usize, (max_head, max_body): (usize, usize), t: &mut Tally) {
    let parse = |data: &[u8]| http::try_parse(data, max_head, max_body);
    let whole = parse(buf);
    // The reactor parses what has arrived after every read and acts on
    // the first answer that is not "need more bytes".
    let chunked = match parse(&buf[..split]) {
        Ok(None) => parse(buf),
        first => first,
    };
    assert_eq!(
        format!("{chunked:?}"),
        format!("{whole:?}"),
        "split at {split} changed the result"
    );
    match whole {
        Ok(Some((request, used))) => {
            assert!(used <= buf.len(), "used {used} of {}", buf.len());
            assert!(request.body.len() <= max_body, "body over the limit");
            let head = used - request.body.len();
            assert!(head <= max_head, "head of {head} bytes over the limit");
            t.accepted += 1;
        }
        Ok(None) => t.incomplete += 1,
        Err(ParseError::Bad(_)) => t.bad += 1,
        Err(ParseError::TooLarge(_)) => t.too_large += 1,
    }
}

/// Run `iterations` mutated parses from `seed` under `limits`; panics with
/// the iteration and input on the first failed check.
fn fuzz(iterations: u64, seed: u64, limits: (usize, usize)) -> Tally {
    let corpus = corpus();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tally = Tally::default();
    for it in 0..iterations {
        let mut buf = corpus[rng.random_range(0..corpus.len())].clone();
        for _ in 0..rng.random_range(1..4) {
            mutate(&mut rng, &mut buf, &corpus);
        }
        let split = rng.random_range(0..buf.len() + 1);
        if catch_unwind(AssertUnwindSafe(|| {
            parse_and_check(&buf, split, limits, &mut tally)
        }))
        .is_err()
        {
            panic!(
                "iteration {it} (seed {seed:#x}, limits {limits:?}, split {split}): {:?}",
                String::from_utf8_lossy(&buf)
            );
        }
    }
    // Both outcomes must occur, or the mutations are not probing the
    // parser's checks.
    assert!(
        tally.accepted > 0 && tally.bad + tally.too_large > 0,
        "accepted {}, incomplete {}, bad {}, too large {}",
        tally.accepted,
        tally.incomplete,
        tally.bad,
        tally.too_large
    );
    tally
}

/// Both limit pairs; the small one must reject some inputs for size.
fn fuzz_both_limits(iterations: u64, seed: u64) {
    fuzz(iterations, seed, PRODUCTION);
    let small = fuzz(iterations, seed ^ 0x5A11, SMALL);
    assert!(small.too_large > 0, "the small limits never fired");
}

#[test]
fn parser_survives_mutated_requests() {
    fuzz_both_limits(10_000, 0x4779);
}

#[test]
#[ignore = "10⁶ iterations; run with cargo test --release -p dclab-serve -- --ignored"]
fn parser_survives_a_million_mutated_requests() {
    fuzz_both_limits(1_000_000, 0x4779_0001);
}
