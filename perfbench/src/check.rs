//! The answer checker. It runs after the timed window, and it reads the
//! graph straight from the bytes that were sent, so it trusts neither the
//! program's parser nor its validator.

use dclab_engine::json::{self, Value};

/// The parts of a `SolveReport` JSON the benchmark checks and sums.
#[derive(Clone, Debug)]
pub struct Answer {
    pub span: u64,
    pub lower_bound: u64,
    pub optimal: bool,
    pub strategy_used: String,
    pub labels: Vec<u64>,
    pub reductions_computed: u64,
    pub ascent_iters: u64,
    /// `stats.oracle.backend`, when the solve went through an oracle.
    pub oracle_backend: Option<String>,
    pub oracle_queries: u64,
    pub oracle_label_entries: u64,
    /// `stats.phases` as `(name, total µs)`: traced (served) solves only.
    pub phases: Vec<(String, u64)>,
}

fn field<'a>(v: &'a Value, path: &str) -> Result<&'a Value, String> {
    v.path(path).ok_or_else(|| format!("report lacks {path}"))
}

fn count(v: &Value, path: &str) -> Result<u64, String> {
    field(v, path)?
        .as_f64()
        .filter(|x| *x >= 0.0 && x.fract() == 0.0)
        .map(|x| x as u64)
        .ok_or_else(|| format!("report field {path} is not a count"))
}

impl Answer {
    pub fn parse(body: &str) -> Result<Answer, String> {
        let v = json::parse(body)?;
        let labels = field(&v, "labels")?
            .as_arr()
            .ok_or("labels is not an array")?
            .iter()
            .map(|l| match l.as_f64() {
                Some(x) if x >= 0.0 && x.fract() == 0.0 => Ok(x as u64),
                _ => Err("label is not a count".to_string()),
            })
            .collect::<Result<Vec<u64>, String>>()?;
        let optimal = match field(&v, "optimal")? {
            Value::Bool(b) => *b,
            _ => return Err("optimal is not a bool".into()),
        };
        let oracle = v.path("stats.oracle");
        let phases = match v.path("stats.phases").and_then(Value::as_arr) {
            Some(items) => items
                .iter()
                .map(|p| {
                    let name = field(p, "name")?.as_str().ok_or("phase name")?;
                    Ok((name.to_string(), count(p, "total_us")?))
                })
                .collect::<Result<Vec<_>, String>>()?,
            None => Vec::new(),
        };
        Ok(Answer {
            span: count(&v, "span")?,
            lower_bound: count(&v, "lower_bound")?,
            optimal,
            strategy_used: field(&v, "strategy_used")?
                .as_str()
                .ok_or("strategy_used is not a string")?
                .to_string(),
            labels,
            reductions_computed: count(&v, "stats.reductions_computed")?,
            ascent_iters: count(&v, "stats.bound.ascent_iters")?,
            oracle_backend: oracle
                .and_then(|o| o.get("backend"))
                .and_then(Value::as_str)
                .map(str::to_string),
            oracle_queries: oracle.map_or(Ok(0), |o| count(o, "queries"))?,
            oracle_label_entries: oracle.map_or(Ok(0), |o| count(o, "label_entries"))?,
            phases,
        })
    }

    /// `(span − lower_bound) / lower_bound`, computed from the exact
    /// integers rather than the report's rounded `gap`.
    pub fn gap(&self) -> f64 {
        if self.lower_bound == 0 {
            return 0.0;
        }
        (self.span - self.lower_bound) as f64 / self.lower_bound as f64
    }
}

/// Adjacency lists of an edge-list text (`n <N>` header, one `u v` pair
/// per line), read independently of `dclab_graph::io`.
pub fn read_edge_list(text: &str) -> Result<Vec<Vec<u32>>, String> {
    let mut adj: Vec<Vec<u32>> = Vec::new();
    for line in text.lines() {
        let mut tok = line.split_whitespace();
        match (tok.next(), tok.next()) {
            (Some("n"), Some(n)) => {
                adj = vec![Vec::new(); n.parse().map_err(|_| format!("bad header {line:?}"))?]
            }
            (Some(u), Some(v)) => {
                let (u, v): (usize, usize) = u
                    .parse()
                    .ok()
                    .zip(v.parse().ok())
                    .ok_or_else(|| format!("bad edge line {line:?}"))?;
                if u >= adj.len() || v >= adj.len() {
                    return Err(format!("edge {u}-{v} outside the header's range"));
                }
                adj[u].push(v as u32);
                adj[v].push(u as u32);
            }
            (None, _) => {}
            _ => return Err(format!("bad line {line:?}")),
        }
    }
    Ok(adj)
}

/// How to check a labeling's distance constraints.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rule {
    /// Breadth-first search to depth `k = |p|` from every vertex.
    Bfs,
    /// For `p = (p₁, p₂)` with `p₁ ≥ p₂`: labels pairwise at least `p₂`
    /// apart and adjacent labels at least `p₁` apart, in O(m + n log n).
    /// Sufficient on any graph; exact on graphs of diameter ≤ 2.
    Diameter2,
}

fn violation(u: usize, v: usize, d: usize, need: u64, got: u64) -> String {
    format!("vertices {u} and {v} at distance {d} need labels {need} apart, got {got}")
}

/// Check every distance constraint of `p` on the graph.
pub fn check_labeling(
    adj: &[Vec<u32>],
    p: &[u64],
    labels: &[u64],
    rule: Rule,
) -> Result<(), String> {
    let n = adj.len();
    if labels.len() != n {
        return Err(format!("{} labels for {n} vertices", labels.len()));
    }
    match rule {
        Rule::Diameter2 => {
            assert!(
                p.len() == 2 && p[0] >= p[1],
                "Diameter2 needs p = (p1 >= p2)"
            );
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by_key(|&v| labels[v]);
            for w in order.windows(2) {
                let got = labels[w[1]] - labels[w[0]];
                if got < p[1] {
                    return Err(violation(w[0], w[1], 2, p[1], got));
                }
            }
            for (u, nbrs) in adj.iter().enumerate() {
                for &v in nbrs {
                    let got = labels[u].abs_diff(labels[v as usize]);
                    if got < p[0] {
                        return Err(violation(u, v as usize, 1, p[0], got));
                    }
                }
            }
        }
        Rule::Bfs => {
            let k = p.len();
            let mut dist = vec![usize::MAX; n];
            let mut queue = Vec::with_capacity(n);
            for s in 0..n {
                queue.clear();
                queue.push(s);
                dist[s] = 0;
                let mut head = 0;
                while head < queue.len() {
                    let u = queue[head];
                    head += 1;
                    let d = dist[u];
                    if d > 0 {
                        let got = labels[s].abs_diff(labels[u]);
                        if got < p[d - 1] {
                            return Err(violation(s, u, d, p[d - 1], got));
                        }
                    }
                    if d == k {
                        continue;
                    }
                    for &v in &adj[u] {
                        let v = v as usize;
                        if dist[v] == usize::MAX {
                            dist[v] = d + 1;
                            queue.push(v);
                        }
                    }
                }
                for &u in &queue {
                    dist[u] = usize::MAX;
                }
            }
        }
    }
    Ok(())
}

/// Everything one answer must satisfy: a valid labeling of the exact
/// graph sent, span = max label ≥ lower bound, and `optimal` only when
/// the span meets the bound.
pub fn check_answer(a: &Answer, adj: &[Vec<u32>], p: &[u64], rule: Rule) -> Result<(), String> {
    let max = a.labels.iter().copied().max().unwrap_or(0);
    if a.span != max {
        return Err(format!("span {} but the largest label is {max}", a.span));
    }
    if a.span < a.lower_bound {
        return Err(format!(
            "span {} below lower bound {}",
            a.span, a.lower_bound
        ));
    }
    if a.optimal && a.span != a.lower_bound {
        return Err(format!(
            "marked optimal with span {} above lower bound {}",
            a.span, a.lower_bound
        ));
    }
    check_labeling(adj, p, &a.labels, rule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dclab_core::pvec::PVec;
    use dclab_engine::{solve, SolveRequest};
    use dclab_graph::generators::{classic, random};
    use dclab_graph::io;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn solved(text: &str, p: &[u64]) -> Answer {
        let g = io::parse(text, io::Format::EdgeList).unwrap();
        let report = solve(&SolveRequest::new(g, PVec::new(p.to_vec()).unwrap())).unwrap();
        Answer::parse(&report.to_json()).unwrap()
    }

    #[test]
    fn checker_accepts_solver_answers_and_rejects_corrupted_labelings() {
        let mut rng = StdRng::seed_from_u64(5);
        let cases = [
            (
                io::write_edge_list(&classic::petersen()),
                vec![2, 1],
                Rule::Diameter2,
            ),
            (
                io::write_edge_list(&classic::petersen()),
                vec![2, 1],
                Rule::Bfs,
            ),
            (
                io::write_edge_list(&random::gnp_with_diameter_at_most(&mut rng, 40, 0.2, 3)),
                vec![4, 3, 2],
                Rule::Bfs,
            ),
        ];
        for (text, p, rule) in cases {
            let adj = read_edge_list(&text).unwrap();
            let good = solved(&text, &p);
            check_answer(&good, &adj, &p, rule).expect("solver answer is valid");

            // Give a vertex its neighbour's label.
            let mut clash = good.clone();
            let v = adj[0][0] as usize;
            clash.labels[v] = clash.labels[0];
            assert!(
                check_labeling(&adj, &p, &clash.labels, rule).is_err(),
                "{rule:?}"
            );

            // Squeeze every label into half the range.
            let mut squeezed = good.clone();
            squeezed.labels.iter_mut().for_each(|l| *l /= 2);
            assert!(
                check_labeling(&adj, &p, &squeezed.labels, rule).is_err(),
                "{rule:?}"
            );

            let mut wrong_span = good.clone();
            wrong_span.span += 1;
            assert!(check_answer(&wrong_span, &adj, &p, rule).is_err());

            let mut false_optimal = good.clone();
            false_optimal.optimal = true;
            false_optimal.lower_bound = false_optimal.span.saturating_sub(1);
            assert!(check_answer(&false_optimal, &adj, &p, rule).is_err());

            let mut short = good.clone();
            short.labels.pop();
            assert!(check_answer(&short, &adj, &p, rule).is_err());
        }
    }

    #[test]
    fn bfs_rule_ignores_pairs_beyond_k() {
        // Path 0-1-2-3: with p = (2, 1), vertices 0 and 3 may share a label.
        let adj = read_edge_list("n 4\n0 1\n1 2\n2 3\n").unwrap();
        check_labeling(&adj, &[2, 1], &[0, 2, 4, 0], Rule::Bfs).unwrap();
        assert!(check_labeling(&adj, &[2, 1], &[0, 2, 0, 4], Rule::Bfs).is_err());
    }
}
