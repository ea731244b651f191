//! Instance I/O: parse and serialize graphs in the two formats the `dclab`
//! CLI accepts.
//!
//! * **Edge list** — one `u v` pair per line, optional first line `n <N>`
//!   to pin the vertex count (isolated tail vertices are otherwise
//!   unrepresentable); `#` starts a comment. Vertices are 0-based.
//! * **DIMACS** — the classic `c` / `p edge <n> <m>` / `e <u> <v>` format
//!   with 1-based vertices.
//!
//! Parsing is strict about shape (every edge line must have exactly two
//! endpoints in range) but forgiving about redundancy: duplicate edges and
//! self-loops are rejected rather than silently dropped, so a round-trip
//! through [`write_edge_list`] / [`parse_edge_list`] is exact.

use crate::graph::Graph;

/// On-disk instance formats.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    EdgeList,
    Dimacs,
}

impl Format {
    /// Guess from a file name: `.col`/`.dimacs` → DIMACS, else edge list.
    pub fn from_path(path: &str) -> Format {
        let lower = path.to_ascii_lowercase();
        if lower.ends_with(".col") || lower.ends_with(".dimacs") {
            Format::Dimacs
        } else {
            Format::EdgeList
        }
    }
}

/// Parses a format name: `edgelist` / `edge-list` or `dimacs` / `col`.
impl std::str::FromStr for Format {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "edgelist" | "edge-list" => Ok(Format::EdgeList),
            "dimacs" | "col" => Ok(Format::Dimacs),
            other => Err(format!("unknown format '{other}'")),
        }
    }
}

/// Parse failure, with the 1-based source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Parse `text` as `format`.
pub fn parse(text: &str, format: Format) -> Result<Graph, ParseError> {
    match format {
        Format::EdgeList => parse_edge_list(text),
        Format::Dimacs => parse_dimacs(text),
    }
}

/// Serialize `g` as `format`.
pub fn serialize(g: &Graph, format: Format) -> String {
    match format {
        Format::EdgeList => write_edge_list(g),
        Format::Dimacs => write_dimacs(g),
    }
}

/// Parse the edge-list format (0-based, optional `n <N>` header, `#`
/// comments). The vertex count is `max endpoint + 1` unless pinned higher
/// by the header.
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

/// Parse the DIMACS `.col` format (1-based `e u v` lines).
///
/// Tolerant of the formatting noise found in real `.col` files: leading and
/// trailing whitespace (including CR from CRLF line endings), blank lines,
/// and `c` comment lines anywhere — before the `p` line, interleaved with
/// `e` lines, or after them — including the glued `cComment text` form.
/// Malformed directives still fail with the exact 1-based source line.
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

/// Serialize as the edge-list format (with `n` header, sorted edges).
pub fn write_edge_list(g: &Graph) -> String {
    let mut out = String::with_capacity(16 + g.m() * 8);
    out.push_str(&format!("n {}\n", g.n()));
    for (u, v) in g.edges() {
        out.push_str(&format!("{u} {v}\n"));
    }
    out
}

/// Serialize as DIMACS (1-based).
pub fn write_dimacs(g: &Graph) -> String {
    let mut out = String::with_capacity(32 + g.m() * 10);
    out.push_str(&format!("p edge {} {}\n", g.n(), g.m()));
    for (u, v) in g.edges() {
        out.push_str(&format!("e {} {}\n", u + 1, v + 1));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::classic;

    #[test]
    fn edge_list_round_trip() {
        let g = classic::petersen();
        let text = write_edge_list(&g);
        let back = parse_edge_list(&text).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn dimacs_round_trip() {
        let g = classic::petersen();
        let text = write_dimacs(&g);
        let back = parse_dimacs(&text).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn edge_list_without_header_infers_n() {
        let g = parse_edge_list("0 1\n1 2\n").unwrap();
        assert_eq!((g.n(), g.m()), (3, 2));
    }

    #[test]
    fn edge_list_header_pins_isolated_vertices() {
        let g = parse_edge_list("n 5\n0 1\n").unwrap();
        assert_eq!((g.n(), g.m()), (5, 1));
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let g = parse_edge_list("# a triangle\nn 3\n\n0 1 # first\n1 2\n0 2\n").unwrap();
        assert!(g.is_complete());
    }

    #[test]
    fn malformed_lines_rejected_with_position() {
        assert_eq!(parse_edge_list("0 1\nx 2\n").unwrap_err().line, 2);
        assert_eq!(parse_edge_list("0\n").unwrap_err().line, 1);
        assert!(parse_edge_list("3 3\n")
            .unwrap_err()
            .message
            .contains("self-loop"));
        let dup = parse_edge_list("0 1\n1 2\n1 0\n").unwrap_err();
        assert!(dup.message.contains("duplicate"));
        assert_eq!(dup.line, 3);
        let range = parse_edge_list("n 2\n0 1\n0 5\n").unwrap_err();
        assert!(range.message.contains("out of range"));
        assert_eq!(range.line, 3);
    }

    #[test]
    fn dimacs_requires_p_line_and_checks_m() {
        assert!(parse_dimacs("e 1 2\n").is_err());
        assert!(parse_dimacs("p edge 3 2\ne 1 2\n").is_err()); // m mismatch
        let g = parse_dimacs("c comment\np edge 3 2\ne 1 2\ne 2 3\n").unwrap();
        assert_eq!((g.n(), g.m()), (3, 2));
        assert!(g.has_edge(0, 1) && g.has_edge(1, 2));
    }

    #[test]
    fn dimacs_tolerates_real_world_noise() {
        // Trailing whitespace (spaces, tabs, CR), blank lines, and comment
        // lines — plain and glued — interleaved with the e lines.
        let text = "c generated by dclab \r\n\
                    \n\
                    p edge 4 4   \t\r\n\
                    e 1 2\t\n\
                    cInterleaved glued comment\n\
                    e 2 3   \n\
                    \n\
                    c another one\n\
                    e 3 4\r\n\
                    e 4 1\n\
                    c trailing comment\n";
        let g = parse_dimacs(text).unwrap();
        assert_eq!((g.n(), g.m()), (4, 4));
        assert!(g.has_edge(0, 1) && g.has_edge(1, 2) && g.has_edge(2, 3) && g.has_edge(3, 0));
    }

    #[test]
    fn dimacs_errors_stay_line_accurate() {
        // Noise lines still count toward the reported line number.
        let bad_e = parse_dimacs("c head\n\np edge 3 2\nc mid\ne 1 2\ne 2 9\n").unwrap_err();
        assert_eq!(bad_e.line, 6);
        assert!(bad_e.message.contains("out of range"));
        let trailing = parse_dimacs("p edge 3 1\ne 1 2 7\n").unwrap_err();
        assert_eq!(trailing.line, 2);
        assert!(trailing.message.contains("trailing tokens"));
        let trailing_p = parse_dimacs("p edge 3 1 extra\n").unwrap_err();
        assert_eq!(trailing_p.line, 1);
        assert!(trailing_p.message.contains("trailing tokens"));
    }

    #[test]
    fn format_guess_from_extension() {
        assert_eq!(Format::from_path("foo.col"), Format::Dimacs);
        assert_eq!(Format::from_path("FOO.DIMACS"), Format::Dimacs);
        assert_eq!(Format::from_path("foo.edges"), Format::EdgeList);
        assert_eq!(Format::from_path("foo.txt"), Format::EdgeList);
    }

    #[test]
    fn format_names_parse() {
        for (name, want) in [
            ("edgelist", Format::EdgeList),
            ("edge-list", Format::EdgeList),
            ("dimacs", Format::Dimacs),
            ("col", Format::Dimacs),
        ] {
            assert_eq!(name.parse(), Ok(want));
        }
        assert_eq!(
            "csv".parse::<Format>(),
            Err("unknown format 'csv'".to_string())
        );
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(parse_edge_list("").unwrap().n(), 0);
        assert_eq!(parse_edge_list("n 4\n").unwrap().n(), 4);
        assert_eq!(parse_dimacs("p edge 0 0\n").unwrap().n(), 0);
    }
}
