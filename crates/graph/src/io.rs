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
//! through [`write_edge_list`] / [`parse_edge_list`] is exact. No instance
//! has more than [`MAX_VERTICES`] vertices.
//!
//! The edge-list parser reads the common line shape, two plain numbers,
//! straight from the bytes into `(u32, u32)` pairs, and hands every other
//! line to a per-line parser that writes every error message. Both formats
//! build through one counting constructor. docs/FORMATS.md states the
//! grammar and which error wins.

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

/// The most vertices an instance may have. A declared count above it, or a
/// vertex id at or above it, is a [`ParseError`] on its line, before
/// anything is allocated for the graph.
pub const MAX_VERTICES: usize = 1 << 20;

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
    let bytes = text.as_bytes();
    let mut scan = EdgeListScan {
        n: None,
        saw_any: false,
        max_v: 0,
        edges: Vec::with_capacity(bytes.len() / 8),
    };
    let mut start = 0;
    let mut lineno = 0;
    while start < bytes.len() {
        lineno += 1;
        let (shape, end) = lex_edge_line(bytes, start);
        // Ids at or above this are out of range: the declared count, or
        // the bound on every instance.
        let limit = scan.n.unwrap_or(MAX_VERTICES) as u64;
        match shape {
            Shape::Blank => {}
            Shape::Pair(u, v) if u != v && u.max(v) < limit => scan.push(u as usize, v as usize),
            _ => scan.line(lineno, &text[start..end])?,
        }
        start = end + 1;
    }
    let n = match scan.n {
        Some(n) => n,
        None if scan.edges.is_empty() => 0,
        None => scan.max_v + 1,
    };
    build_graph(text, n, &scan.edges, |line| {
        strip_comment(line)
            .split_whitespace()
            .next()
            .is_some_and(|first| first != "n")
    })
}

/// What the edge-list scan has read so far.
struct EdgeListScan {
    /// The `n` header's count, once read.
    n: Option<usize>,
    /// Whether an edge line came before (an `n` header must not follow one).
    saw_any: bool,
    max_v: usize,
    edges: Vec<(u32, u32)>,
}

impl EdgeListScan {
    fn push(&mut self, u: usize, v: usize) {
        self.saw_any = true;
        self.max_v = self.max_v.max(u).max(v);
        self.edges.push((u as u32, v as u32));
    }

    /// The per-line parser: it reads every line the byte lexer passes on
    /// and writes every error.
    fn line(&mut self, lineno: usize, raw: &str) -> Result<(), ParseError> {
        let line = strip_comment(raw);
        if line.is_empty() {
            return Ok(());
        }
        let mut it = line.split_whitespace();
        let first = it.next().expect("a non-blank line has a token");
        if first == "n" {
            if self.saw_any || self.n.is_some() {
                return Err(err(lineno, "n header must be the first directive"));
            }
            let v = it
                .next()
                .ok_or_else(|| err(lineno, "n header missing count"))?;
            if it.next().is_some() {
                return Err(err(lineno, "trailing tokens after n header"));
            }
            let n = v
                .parse()
                .map_err(|_| err(lineno, format!("bad vertex count '{v}'")))?;
            self.n = Some(check_count(lineno, n)?);
            return Ok(());
        }
        self.saw_any = true;
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
        let top = u.max(v);
        match self.n {
            // The header came first (enforced above), so check in place.
            Some(n) if top >= n => {
                return Err(err(
                    lineno,
                    format!("endpoint {top} out of range for declared n = {n}"),
                ))
            }
            None if top >= MAX_VERTICES => {
                return Err(err(
                    lineno,
                    format!("endpoint {top} out of range: ids must be below {MAX_VERTICES}"),
                ))
            }
            _ => {}
        }
        self.push(u, v);
        Ok(())
    }
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
    let mut edges: Vec<(u32, u32)> = Vec::new(); // 0-based
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
        match it.next().expect("a non-blank line has a token") {
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
                let count = nv
                    .parse()
                    .map_err(|_| err(lineno, format!("bad n '{nv}'")))?;
                declared_m = Some(
                    nm.parse()
                        .map_err(|_| err(lineno, format!("bad m '{nm}'")))?,
                );
                if it.next().is_some() {
                    return Err(err(lineno, "trailing tokens after p line"));
                }
                n = Some(check_count(lineno, count)?);
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
                edges.push(((u - 1) as u32, (v - 1) as u32));
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
    build_graph(text, n, &edges, |line| {
        line.split_whitespace().next() == Some("e")
    })
}

/// A declared vertex count, held to [`MAX_VERTICES`].
fn check_count(lineno: usize, n: usize) -> Result<usize, ParseError> {
    if n > MAX_VERTICES {
        return Err(err(
            lineno,
            format!("vertex count {n} exceeds the limit of {MAX_VERTICES}"),
        ));
    }
    Ok(n)
}

/// Build the scanned graph. A repeated pair is reported at its second
/// occurrence. Only that error path reads the text again, for the line of
/// the k-th edge: every line `is_edge` picks out gave one pair, in order.
fn build_graph(
    text: &str,
    n: usize,
    edges: &[(u32, u32)],
    is_edge: impl Fn(&str) -> bool,
) -> Result<Graph, ParseError> {
    Graph::from_pairs(n, edges).map_err(|k| {
        let (u, v) = edges[k];
        let line = text
            .lines()
            .enumerate()
            .filter(|(_, line)| is_edge(line))
            .nth(k)
            .map(|(idx, _)| idx + 1)
            .expect("every scanned pair has its edge line");
        err(line, format!("duplicate edge {u}-{v}"))
    })
}

fn strip_comment(line: &str) -> &str {
    match line.find('#') {
        Some(i) => line[..i].trim(),
        None => line.trim(),
    }
}

/// One line as the byte lexer sees it.
enum Shape {
    /// Nothing but ASCII blanks and, possibly, a comment.
    Blank,
    /// Two plain decimal numbers of at most 19 digits each, which always
    /// fit in a `u64`.
    Pair(u64, u64),
    /// Anything else, for the per-line parser.
    Other,
}

/// ASCII whitespace other than the line feed. `str::trim` and
/// `split_whitespace` treat these bytes alike, so a line of them needs no
/// Unicode decoding.
fn is_blank(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r' | b'\x0b' | b'\x0c')
}

fn skip_blanks(b: &[u8], mut i: usize) -> usize {
    while i < b.len() && is_blank(b[i]) {
        i += 1;
    }
    i
}

/// Index of the line feed at or after `i`, or the end of the text.
fn line_end(b: &[u8], i: usize) -> usize {
    b[i..]
        .iter()
        .position(|&c| c == b'\n')
        .map_or(b.len(), |k| i + k)
}

/// Whether `i` ends the line.
fn at_end(b: &[u8], i: usize) -> bool {
    i == b.len() || b[i] == b'\n'
}

/// A run of 1–19 ASCII digits at `i`, with the index after it.
fn number(b: &[u8], mut i: usize) -> Option<(u64, usize)> {
    let start = i;
    let mut x = 0u64;
    while i < b.len() && b[i].is_ascii_digit() {
        if i - start == 19 {
            return None;
        }
        x = x * 10 + u64::from(b[i] - b'0');
        i += 1;
    }
    (i > start).then_some((x, i))
}

/// `number blanks number blanks` at `i`: the numbers and the index after
/// the trailing blanks.
fn pair(b: &[u8], i: usize) -> Option<(u64, u64, usize)> {
    let (u, i) = number(b, i)?;
    let j = skip_blanks(b, i);
    if j == i {
        return None;
    }
    let (v, i) = number(b, j)?;
    Some((u, v, skip_blanks(b, i)))
}

/// Lex the edge-list line that starts at `start`: blanks, `u`, blanks,
/// `v`, blanks and an optional `#` comment. Returns the shape and the
/// index of the line's end.
fn lex_edge_line(b: &[u8], start: usize) -> (Shape, usize) {
    let i = skip_blanks(b, start);
    if at_end(b, i) {
        return (Shape::Blank, i);
    }
    if b[i] == b'#' {
        return (Shape::Blank, line_end(b, i));
    }
    match pair(b, i) {
        Some((u, v, j)) if at_end(b, j) => (Shape::Pair(u, v), j),
        Some((u, v, j)) if b[j] == b'#' => (Shape::Pair(u, v), line_end(b, j)),
        _ => (Shape::Other, line_end(b, i)),
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
mod reference;

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
    fn vertex_counts_are_bounded() {
        // At the bound: accepted, in both formats.
        let at = MAX_VERTICES;
        assert_eq!(parse_edge_list(&format!("n {at}\n")).unwrap().n(), at);
        assert_eq!(parse_edge_list(&format!("0 {}\n", at - 1)).unwrap().n(), at);
        let g = parse_dimacs(&format!("p edge {at} 1\ne 1 {at}\n")).unwrap();
        assert!(g.n() == at && g.has_edge(0, at - 1));
        // Just past it: an error on its line, before anything is allocated.
        let over = at + 1;
        let e = parse_edge_list(&format!("# big\nn {over}\n0 1\n")).unwrap_err();
        assert_eq!(
            (e.line, e.message.as_str()),
            (2, "vertex count 1048577 exceeds the limit of 1048576")
        );
        let e = parse_edge_list(&format!("0 1\n2 {at}\n")).unwrap_err();
        assert_eq!(
            (e.line, e.message.as_str()),
            (
                2,
                "endpoint 1048576 out of range: ids must be below 1048576"
            )
        );
        let e = parse_edge_list("n 99999999999\n").unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("exceeds the limit"), "{e}");
        let e = parse_dimacs(&format!("c big\np edge {over} 0\n")).unwrap_err();
        assert_eq!(
            (e.line, e.message.as_str()),
            (2, "vertex count 1048577 exceeds the limit of 1048576")
        );
        // A declared count keeps naming its own range.
        let e = parse_edge_list(&format!("n 4\n0 {at}\n")).unwrap_err();
        assert_eq!(
            e.message,
            "endpoint 1048576 out of range for declared n = 4"
        );
    }

    #[test]
    fn scan_errors_win_and_duplicates_name_their_second_line() {
        // A bad line reports even after an earlier repeated pair.
        let e = parse_edge_list("0 1\n1 0\n2 x\n").unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (3, "bad endpoint 'x'"));
        // The repeat is reported where it occurs, as written, past
        // comments, blank lines and lines the per-line parser read.
        let e = parse_edge_list("# c\n0 1\n\n+1 2\n2\u{a0}0 # x\n2 1\n").unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (6, "duplicate edge 2-1"));
        let e = parse_dimacs("p edge 3 2\nc x\ne 2 1\n\n e 1 2\n").unwrap_err();
        assert_eq!((e.line, e.message.as_str()), (5, "duplicate edge 0-1"));
    }

    #[test]
    fn lexed_and_per_line_lines_agree() {
        // The same triangle in the byte lexer's shape and in shapes only
        // the per-line parser reads: CRLF, VT/FF, NBSP, `+`, zero padding.
        let plain = parse_edge_list("0 1\n1 2\n2 0\n").unwrap();
        for text in [
            "0 1\r\n1 2\r\n2 0\r\n",
            "0\u{b}1\n1\u{c}2\n\t2 0 #c\n",
            "0\u{a0}1\n1\u{2003}2\n2 0\n",
            "+0 1\n1 +2\n2 0\n",
            "000000000000000000000 1\n1 2\n2 0000000000000000000000\n",
        ] {
            assert_eq!(parse_edge_list(text).unwrap(), plain, "{text:?}");
        }
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(parse_edge_list("").unwrap().n(), 0);
        assert_eq!(parse_edge_list("n 4\n").unwrap().n(), 4);
        assert_eq!(parse_dimacs("p edge 0 0\n").unwrap().n(), 0);
    }
}
