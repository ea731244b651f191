//! The instance parsers as they were before the byte lexer and the
//! counting build, kept verbatim as the reference, and the differential
//! fuzzer that holds [`super::parse_edge_list`] and [`super::parse_dimacs`]
//! to them: the same graph or the same error, line and message, on seeded
//! mutations of round-tripped graphs and of hand-written seeds.

use super::{err, ParseError, MAX_VERTICES};
use crate::graph::Graph;

pub fn parse_edge_list(text: &str) -> Result<Graph, ParseError> {
    let mut n: Option<usize> = None;
    let mut edges: Vec<(usize, usize, usize)> = Vec::new(); // (line, u, v)
    let mut max_v = 0usize;
    let mut saw_any = false;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw);
        if line.is_empty() {
            continue;
        }
        let mut it = line.split_whitespace();
        let first = it.next().unwrap();
        if first == "n" {
            if saw_any || n.is_some() {
                return Err(err(lineno, "n header must be the first directive"));
            }
            let v = it
                .next()
                .ok_or_else(|| err(lineno, "n header missing count"))?;
            if it.next().is_some() {
                return Err(err(lineno, "trailing tokens after n header"));
            }
            n = Some(
                v.parse()
                    .map_err(|_| err(lineno, format!("bad vertex count '{v}'")))?,
            );
            continue;
        }
        saw_any = true;
        let u: usize = first
            .parse()
            .map_err(|_| err(lineno, format!("bad endpoint '{first}'")))?;
        let v_tok = it
            .next()
            .ok_or_else(|| err(lineno, "edge line needs two endpoints"))?;
        let v: usize = v_tok
            .parse()
            .map_err(|_| err(lineno, format!("bad endpoint '{v_tok}'")))?;
        if it.next().is_some() {
            return Err(err(lineno, "trailing tokens after edge"));
        }
        if u == v {
            return Err(err(lineno, format!("self-loop at vertex {u}")));
        }
        if let Some(n) = n {
            // Header came first (enforced above), so check in place.
            if u >= n || v >= n {
                return Err(err(
                    lineno,
                    format!("endpoint {} out of range for declared n = {n}", u.max(v)),
                ));
            }
        }
        max_v = max_v.max(u).max(v);
        edges.push((lineno, u, v));
    }
    let n = match n {
        Some(n) => n,
        None => {
            if edges.is_empty() {
                0
            } else {
                max_v + 1
            }
        }
    };
    build(n, &edges)
}

pub fn parse_dimacs(text: &str) -> Result<Graph, ParseError> {
    let mut n: Option<usize> = None;
    let mut declared_m: Option<usize> = None;
    let mut p_line = 1usize;
    let mut edges: Vec<(usize, usize, usize)> = Vec::new(); // (line, u, v)
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        // Comment lines: `c` as its own token, or glued (`cGraph from ...`).
        if line.starts_with('c') {
            continue;
        }
        let mut it = line.split_whitespace();
        match it.next().unwrap() {
            "p" => {
                if n.is_some() {
                    return Err(err(lineno, "duplicate p line"));
                }
                match it.next() {
                    Some("edge") | Some("edges") | Some("col") => {}
                    other => {
                        return Err(err(
                            lineno,
                            format!("expected 'p edge', got 'p {}'", other.unwrap_or("")),
                        ))
                    }
                }
                let nv = it.next().ok_or_else(|| err(lineno, "p line missing n"))?;
                let nm = it.next().ok_or_else(|| err(lineno, "p line missing m"))?;
                n = Some(
                    nv.parse()
                        .map_err(|_| err(lineno, format!("bad n '{nv}'")))?,
                );
                declared_m = Some(
                    nm.parse()
                        .map_err(|_| err(lineno, format!("bad m '{nm}'")))?,
                );
                if it.next().is_some() {
                    return Err(err(lineno, "trailing tokens after p line"));
                }
                p_line = lineno;
            }
            "e" => {
                let n = n.ok_or_else(|| err(lineno, "e line before p line"))?;
                let ut = it.next().ok_or_else(|| err(lineno, "e line missing u"))?;
                let vt = it.next().ok_or_else(|| err(lineno, "e line missing v"))?;
                let u: usize = ut
                    .parse()
                    .map_err(|_| err(lineno, format!("bad endpoint '{ut}'")))?;
                let v: usize = vt
                    .parse()
                    .map_err(|_| err(lineno, format!("bad endpoint '{vt}'")))?;
                if u == 0 || v == 0 || u > n || v > n {
                    return Err(err(
                        lineno,
                        format!("endpoint out of range 1..={n}: e {u} {v}"),
                    ));
                }
                if u == v {
                    return Err(err(lineno, format!("self-loop at vertex {u}")));
                }
                if it.next().is_some() {
                    return Err(err(lineno, "trailing tokens after e line"));
                }
                edges.push((lineno, u - 1, v - 1));
            }
            other => return Err(err(lineno, format!("unknown directive '{other}'"))),
        }
    }
    let n = n.ok_or_else(|| err(text.lines().count().max(1), "missing p line"))?;
    if let Some(m) = declared_m {
        if m != edges.len() {
            return Err(err(
                p_line,
                format!("p line declares {m} edges but {} were listed", edges.len()),
            ));
        }
    }
    build(n, &edges)
}

fn build(n: usize, edges: &[(usize, usize, usize)]) -> Result<Graph, ParseError> {
    let mut g = Graph::new(n);
    for &(line, u, v) in edges {
        if !g.add_edge(u, v) {
            return Err(err(line, format!("duplicate edge {u}-{v}")));
        }
    }
    Ok(g)
}

fn strip_comment(line: &str) -> &str {
    match line.find('#') {
        Some(i) => line[..i].trim(),
        None => line.trim(),
    }
}

/// Whether some run of digits in `text` reads at least [`MAX_VERTICES`].
/// Every number the reference parses is such a run, so without one its
/// graph stays below the bound; with one it may allocate for it.
fn reaches_bound(text: &str) -> bool {
    text.split(|c: char| !c.is_ascii_digit()).any(|run| {
        let run = run.trim_start_matches('0');
        run.len() > 7 || run.parse::<usize>().is_ok_and(|x| x >= MAX_VERTICES)
    })
}

mod fuzz {
    use super::*;
    use crate::generators::{classic, random};
    use crate::io::{write_dimacs, write_edge_list};
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{RngExt, SeedableRng};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Hand-written seeds for what round-tripped graphs never contain.
    const SEEDS: &[&str] = &[
        "n 4\r\n0 1\r\n1 2\r\n2 3\r\n",
        "0\u{b}1\n1\u{c}2\n\u{b}\n2 3\u{c}\n\u{c}3\t0\r\n",
        "0\u{a0}1\n1\u{2003}2\n\u{a0}2 3\n\u{2003}# em space\n3 0\u{85}\n",
        "+5 3\n0 +1\n+2\t+4\n",
        "000000000000000000000002 3\n1 0000000000000000000000000000001\n99999999999999999999 1\n",
        "0 1#glued\n1 2 #spaced\n#only\n   # indented\n2 3#\n3\t0\t#tabbed\n",
        "0 1\nn 4\n2 3\n",
        "# lead\nn 3\nn 3\n0 1\n",
        "\n\n  # header after blanks\nn 6 # six\n5 1\n0 4\n3 2\n1 0\n4 5\n2 0\n",
        "0 1\n1 2\n2 0\n1 0\n0 2\n",
        "n 3\n0 1\n2 2\n",
        "0 1 2\n1\nx y\nn\nn 3 4\nn x\n-1 2\n",
        "c head\np edge 4 3\ncmid\ne 1 2\nc  x\ne 2 3\ne 3 4\nc tail\n",
        "p edge 3 2\r\ne 1 2\r\ne 2 1\r\n",
        " \t p col 5 3 \ne\t1 5\n  e 5 4\t\n e 2 3\u{a0}\n",
        "p edge 4 2\ne 1 1\ne 0 2\ne 1 5\ne 1 2 3\ne 1\nx\np edge 2 1\n",
        "c only comments\n\n",
        "p edges 3 2\ne +1 2\ne 2 0003\n",
    ];

    /// Tokens spliced in by the mutator: numbers of every kind the lexer
    /// must tell apart, directives, comment marks and whitespace.
    const TOKENS: &[&str] = &[
        "0",
        "1",
        "7",
        "12",
        "+3",
        "+",
        "-1",
        "00000000000000000000004",
        "9999999999999999999",
        "18446744073709551616",
        "1048577",
        "99999999999",
        "n",
        "n 9",
        "e",
        "e 1 2",
        "p edge 9 3",
        "c",
        "x",
        "#",
        " # note",
        " ",
        "\t",
        "\n",
        "\r\n",
        "\r",
        "\u{b}",
        "\u{c}",
        "\u{a0}",
        "\u{2003}",
        "é",
    ];

    /// Bytes the substitution mutation writes.
    const BYTES: &[u8] = b"0123456789 \t\r\n#+-necpx\x0b\x0c";

    fn corpus() -> Vec<String> {
        let mut rng = StdRng::seed_from_u64(0x10);
        let graphs = [
            Graph::new(0),
            Graph::new(3),
            classic::path(6),
            classic::cycle(9),
            classic::star(7),
            classic::petersen(),
            random::gnp(&mut rng, 24, 0.2),
            random::core_periphery(&mut rng, 40, 4, 0.05),
        ];
        let mut texts: Vec<String> = SEEDS.iter().map(|s| s.to_string()).collect();
        for g in &graphs {
            texts.push(write_edge_list(g));
            texts.push(write_dimacs(g));
            // The same edges in a shuffled order and orientation, with no
            // header: lists arrive unsorted and n is inferred.
            let mut edges: Vec<(usize, usize)> = g.edges().collect();
            edges.shuffle(&mut rng);
            let shuffled: String = edges
                .iter()
                .map(|&(u, v)| {
                    if rng.random_bool(0.5) {
                        format!("{v} {u}\n")
                    } else {
                        format!("{u} {v}\n")
                    }
                })
                .collect();
            texts.push(shuffled);
        }
        texts
    }

    /// One seeded mutation of `buf`: byte deletions, token insertions,
    /// byte substitutions, a truncation, or a line copied elsewhere.
    fn mutate(rng: &mut StdRng, buf: &mut Vec<u8>) {
        let at = rng.random_range(0..buf.len() + 1);
        match rng.random_range(0..6) {
            0 => {
                let len = rng.random_range(1..4).min(buf.len() - at);
                buf.drain(at..at + len);
            }
            1 | 2 => {
                let token = TOKENS[rng.random_range(0..TOKENS.len())];
                buf.splice(at..at, token.bytes());
            }
            3 if !buf.is_empty() => {
                for _ in 0..rng.random_range(1..4) {
                    let i = rng.random_range(0..buf.len());
                    buf[i] = BYTES[rng.random_range(0..BYTES.len())];
                }
            }
            4 => buf.truncate(at),
            _ => {
                let text = buf.clone();
                let lines: Vec<&[u8]> = text.split_inclusive(|&b| b == b'\n').collect();
                if let Some(line) = lines.get(rng.random_range(0..lines.len() + 1)) {
                    let to = rng.random_range(0..lines.len() + 1);
                    let offset: usize = lines[..to].iter().map(|l| l.len()).sum();
                    buf.splice(offset..offset, line.iter().copied());
                }
            }
        }
    }

    type Parser = fn(&str) -> Result<Graph, ParseError>;

    /// Both decoders on one input: no panic, and the reference's answer
    /// unless the input holds a number at or past the bound and the new
    /// decoder refused it (the reference would allocate for that number).
    fn check(text: &str, case: &str) {
        let pairs: [(&str, Parser, Parser); 2] = [
            ("edge list", crate::io::parse_edge_list, parse_edge_list),
            ("DIMACS", crate::io::parse_dimacs, parse_dimacs),
        ];
        for (format, parse, reference) in pairs {
            let got = catch_unwind(AssertUnwindSafe(|| parse(text)))
                .unwrap_or_else(|_| panic!("{format} parser panicked on {case}: {text:?}"));
            if got.is_err() && reaches_bound(text) {
                continue;
            }
            assert_eq!(got, reference(text), "{format}, {case}: {text:?}");
        }
    }

    fn run(iterations: usize, seed: u64) {
        let corpus = corpus();
        for text in &corpus {
            check(text, "an unmutated corpus text");
        }
        let mut rng = StdRng::seed_from_u64(seed);
        for i in 0..iterations {
            let mut buf = corpus[rng.random_range(0..corpus.len())]
                .clone()
                .into_bytes();
            for _ in 0..rng.random_range(1..4) {
                mutate(&mut rng, &mut buf);
            }
            let text = String::from_utf8_lossy(&buf);
            check(&text, &format!("iteration {i}"));
        }
    }

    #[test]
    fn decoders_match_the_reference_on_mutated_inputs() {
        run(10_000, 0x1D0);
    }

    /// The long run: `cargo test --release -p dclab-graph -- --ignored`.
    #[test]
    #[ignore]
    fn decoders_match_the_reference_on_a_million_mutated_inputs() {
        run(1_000_000, 0x1D1);
    }
}
