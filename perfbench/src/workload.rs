//! The three workloads: their inputs, the untraced run, the answer check
//! and the invariants that make each measure what its name says.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use dclab_engine::json::{self, Value};
use dclab_graph::{io as graph_io, Graph};

use crate::check::{self, Answer, Rule};
use crate::child::{self, Server};
use crate::client::{self, Conn, Outcome};
use crate::corpus;

/// Connections of the load generator: one closed loop each.
const SERVE_CONNS: usize = 2;

/// `serve-relabel` keeps its 8 bases cached for the whole run.
const RELABEL_CACHE_MB: usize = 64;

/// `serve-cold`'s cache budget, far below the stream's footprint: each of
/// the cache's 16 shards holds about one entry, so steady-state puts evict.
const COLD_CACHE_MB: usize = 1;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ServeRelabel,
    ServeCold,
    OracleLarge,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ServeRelabel,
        Workload::ServeCold,
        Workload::OracleLarge,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeRelabel => "serve-relabel",
            Workload::ServeCold => "serve-cold",
            Workload::OracleLarge => "oracle-large",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Ops per second the workload sustained on a 2-core host. A run of
    /// `s` seconds sends a fixed sequence of `rate × s` ops, so a run
    /// lasts about `s` seconds and its quality sums repeat exactly.
    fn rate(self) -> f64 {
        match self {
            Workload::ServeRelabel => 30.0,
            Workload::ServeCold => 55.0,
            Workload::OracleLarge => 1.6,
        }
    }

    pub fn ops(self, seconds: u64) -> usize {
        ((self.rate() * seconds as f64).round() as usize).max(1)
    }

    /// Ops the traced run replays (a prefix of the run's sequence).
    pub fn replay_ops(self) -> usize {
        match self {
            Workload::ServeRelabel => 48,
            Workload::ServeCold => 64,
            Workload::OracleLarge => 6,
        }
    }

    pub fn p(self) -> &'static [u64] {
        match self {
            Workload::ServeRelabel | Workload::OracleLarge => &[2, 1],
            Workload::ServeCold => &[4, 3, 2],
        }
    }

    fn target(self) -> &'static str {
        match self {
            Workload::ServeRelabel | Workload::OracleLarge => "/solve?p=2,1&strategy=auto",
            Workload::ServeCold => "/solve?p=4,3,2&strategy=auto",
        }
    }

    fn rule(self) -> Rule {
        match self {
            Workload::ServeRelabel | Workload::OracleLarge => Rule::Diameter2,
            Workload::ServeCold => Rule::Bfs,
        }
    }

    /// Set-ups per run; the run reports their median. A `serve-cold`
    /// set-up takes milliseconds, so it affords more samples against
    /// host jitter; `oracle-large` parses its corpus this many times.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::ServeRelabel | Workload::OracleLarge => 3,
            Workload::ServeCold => 9,
        }
    }

    pub fn is_serve(self) -> bool {
        self != Workload::OracleLarge
    }
}

/// One request exactly as it goes on the wire.
pub struct Sent {
    pub bytes: Vec<u8>,
    head: usize,
}

impl Sent {
    fn new(target: &str, body: &str) -> Sent {
        let bytes = client::request_bytes("POST", target, body.as_bytes());
        Sent {
            head: bytes.len() - body.len(),
            bytes,
        }
    }

    pub fn body(&self) -> &str {
        std::str::from_utf8(&self.bytes[self.head..]).expect("bodies are built from text")
    }
}

/// A run's generated inputs (never timed).
pub enum Inputs {
    Relabel {
        bases: Vec<Graph>,
        /// The prefill: each base in generator order.
        prefill: Vec<Sent>,
        requests: Vec<Sent>,
        base_of: Vec<usize>,
    },
    Cold {
        requests: Vec<Sent>,
    },
    Large {
        texts: Vec<String>,
    },
}

impl Inputs {
    pub fn generate(w: Workload, seed: u64, ops: usize) -> Inputs {
        let target = w.target();
        match w {
            Workload::ServeRelabel => {
                let bases = corpus::relabel_bases();
                let prefill = bases
                    .iter()
                    .map(|g| Sent::new(target, &graph_io::write_edge_list(g)))
                    .collect();
                let reqs = corpus::relabel_requests(seed, ops, &bases);
                Inputs::Relabel {
                    base_of: reqs.iter().map(|r| r.base).collect(),
                    requests: reqs.iter().map(|r| Sent::new(target, &r.body)).collect(),
                    prefill,
                    bases,
                }
            }
            Workload::ServeCold => Inputs::Cold {
                requests: corpus::cold_instances(seed, ops)
                    .iter()
                    .map(|b| Sent::new(target, b))
                    .collect(),
            },
            Workload::OracleLarge => Inputs::Large {
                texts: corpus::large_instances(seed, ops, corpus::LARGE),
            },
        }
    }

    /// Request body bytes per op.
    pub fn body_bytes(&self) -> Vec<usize> {
        match self {
            Inputs::Relabel { requests, .. } | Inputs::Cold { requests } => {
                requests.iter().map(|s| s.body().len()).collect()
            }
            Inputs::Large { texts } => texts.iter().map(String::len).collect(),
        }
    }
}

/// A workload invariant with the count behind it.
pub struct Invariant {
    pub what: &'static str,
    pub count: u64,
    pub holds: bool,
}

/// The untraced run, checked.
pub struct Run {
    pub ops: usize,
    /// Non-200 responses plus transport errors.
    pub failed: usize,
    /// Timed window, in seconds.
    pub window_s: f64,
    /// Every set-up's time, in seconds; `setup_s` is their median.
    pub setup_times: Vec<f64>,
    /// Per answered op, in ms.
    pub latencies_ms: Vec<f64>,
    pub peak_rss_mb: f64,
    /// CPU of the serving process over the window.
    pub cpu_s: f64,
    /// Answers that passed the checker, with their op index.
    pub answers: Vec<(usize, Answer)>,
    /// Checker failures, one line each.
    pub wrong: Vec<String>,
    pub invariants: Vec<Invariant>,
    /// Cache outcomes and archive appends from `x-dclab-cache` and
    /// `/metrics?format=json` over the window.
    pub counts: BTreeMap<&'static str, f64>,
    /// Response body bytes per answered op.
    pub reply_bytes: Vec<usize>,
}

impl Run {
    fn new(ops: usize, window_s: f64, setup_times: Vec<f64>, peak_rss_mb: f64, cpu_s: f64) -> Run {
        Run {
            ops,
            failed: 0,
            window_s,
            setup_times,
            latencies_ms: Vec::new(),
            peak_rss_mb,
            cpu_s,
            answers: Vec::new(),
            wrong: Vec::new(),
            invariants: Vec::new(),
            counts: BTreeMap::new(),
            reply_bytes: Vec::new(),
        }
    }

    pub fn correct(&self) -> bool {
        self.wrong.is_empty() && self.invariants.iter().all(|i| i.holds)
    }
}

fn metrics_json(addr: std::net::SocketAddr) -> Result<Value, String> {
    let reply = client::call(addr, "GET", "/metrics?format=json", b"")
        .map_err(|e| format!("GET /metrics: {e}"))?;
    json::parse(&String::from_utf8_lossy(&reply.body))
}

/// Start a server `reps` times, each time running `prepare` on it; keep
/// the last server and report every set-up's time.
fn set_up<T>(
    reps: usize,
    cache_mb: usize,
    store: Option<&Path>,
    mut prepare: impl FnMut(&Server) -> Result<T, String>,
) -> Result<(Server, T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps {
        if let Some((server, _)) = kept.take() {
            Server::stop(server)?;
        }
        if let Some(path) = store {
            // Every set-up opens a fresh archive.
            let _ = std::fs::remove_file(path);
        }
        let t0 = Instant::now();
        let server = Server::start(cache_mb, store)?;
        let prepared = prepare(&server)?;
        times.push(t0.elapsed().as_secs_f64());
        kept = Some((server, prepared));
    }
    let (server, prepared) = kept.expect("at least one set-up");
    Ok((server, prepared, times))
}

/// Check one report against the instance text that was sent; returns the
/// answer or why it is wrong.
fn check_report(w: Workload, sent: &str, report: &str) -> Result<Answer, String> {
    let answer = Answer::parse(report)?;
    let adj = check::read_edge_list(sent)?;
    check::check_answer(&answer, &adj, w.p(), w.rule())?;
    Ok(answer)
}

/// A serve workload's timed window, as the load generator and the
/// serving process saw it.
struct Window {
    outcomes: Vec<Outcome>,
    wall: Duration,
    /// CPU of the serving process over the window.
    cpu_s: f64,
    peak_rss_mb: f64,
    metrics_before: Value,
    metrics_after: Value,
}

impl Window {
    /// Run the timed window against a ready server, then stop it.
    fn run(w: Workload, server: Server, requests: &[Sent]) -> Result<Window, String> {
        let pid = server.pid();
        let metrics_before = metrics_json(server.addr)?;
        let before = child::proc_sample(pid)?;
        let wire: Vec<&[u8]> = requests.iter().map(|s| s.bytes.as_slice()).collect();
        let (outcomes, wall) = client::closed_loop(server.addr, &wire, SERVE_CONNS)
            .map_err(|e| format!("{}: opening connections: {e}", w.name()))?;
        let after = child::proc_sample(pid)?;
        let metrics_after = metrics_json(server.addr)?;
        server.stop()?;
        Ok(Window {
            outcomes,
            wall,
            cpu_s: after.cpu_s - before.cpu_s,
            peak_rss_mb: after.hwm_mb,
            metrics_before,
            metrics_after,
        })
    }

    /// How much a `/metrics?format=json` counter grew over the window.
    fn delta(&self, path: &str) -> Result<f64, String> {
        let read = |v: &Value| {
            v.path(path)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("/metrics lacks {path}"))
        };
        Ok(read(&self.metrics_after)? - read(&self.metrics_before)?)
    }
}

pub fn run(w: Workload, inputs: &Inputs, work: &Path) -> Result<Run, String> {
    match inputs {
        Inputs::Relabel {
            prefill,
            requests,
            base_of,
            ..
        } => {
            let (server, replies, setup_times) =
                set_up(w.setup_reps(), RELABEL_CACHE_MB, None, |server| {
                    let mut conn = Conn::open(server.addr).map_err(|e| e.to_string())?;
                    prefill
                        .iter()
                        .map(|sent| conn.exchange(&sent.bytes).map_err(|e| e.to_string()))
                        .collect::<Result<Vec<_>, String>>()
                })?;
            // Checked after the set-up clock stopped.
            let cold = prefill
                .iter()
                .zip(&replies)
                .map(|(sent, reply)| {
                    if reply.status != 200 || reply.cache.as_deref() != Some("miss") {
                        return Err(format!("prefill answered {}", reply.status));
                    }
                    check_report(w, sent.body(), &String::from_utf8_lossy(&reply.body))
                        .map_err(|e| format!("prefill answer is wrong: {e}"))
                })
                .collect::<Result<Vec<Answer>, String>>()?;
            let window = Window::run(w, server, requests)?;
            let evictions = window.delta("cache.evictions")?;
            let mut run = collect(w, requests, window, setup_times, |i, a| {
                let base = base_of[i];
                if a.span == cold[base].span {
                    Ok(())
                } else {
                    Err(format!(
                        "hit span {} differs from base {base}'s cold span {}",
                        a.span, cold[base].span
                    ))
                }
            });
            let hits = run.counts["cache.hit_ratio"] * run.ops as f64;
            run.counts.insert("cache.evictions", evictions);
            run.invariants.push(Invariant {
                what: "answers that were cache hits",
                count: hits as u64,
                holds: hits as usize == run.ops,
            });
            Ok(run)
        }
        Inputs::Cold { requests } => {
            let store = work.join("serve-cold.dcst");
            let (server, (), setup_times) =
                set_up(w.setup_reps(), COLD_CACHE_MB, Some(&store), |_| Ok(()))?;
            let window = Window::run(w, server, requests)?;
            let _ = std::fs::remove_file(&store);
            let appends = window.delta("store.appends")?;
            let evictions = window.delta("cache.evictions")?;
            let mut run = collect(w, requests, window, setup_times, |_, _| Ok(()));
            let misses = run.ops as f64 * (1.0 - run.counts["cache.hit_ratio"]);
            run.counts.insert("store.appends", appends);
            run.counts.insert("cache.evictions", evictions);
            run.invariants.extend([
                Invariant {
                    what: "answers that were cache misses",
                    count: misses as u64,
                    holds: misses as usize == run.ops,
                },
                Invariant {
                    what: "archive appends (one per request)",
                    count: appends as u64,
                    holds: appends as usize == run.ops,
                },
                Invariant {
                    what: "cache evictions (must be > 0)",
                    count: evictions as u64,
                    holds: evictions > 0.0,
                },
            ]);
            Ok(run)
        }
        Inputs::Large { texts } => {
            let lib = child::run_lib_worker(texts, w.setup_reps())?;
            let window: Duration = lib.ops.iter().map(|(d, _)| *d).sum();
            let mut run = Run::new(
                texts.len(),
                window.as_secs_f64(),
                lib.setup_times,
                lib.hwm_mb,
                lib.cpu_s,
            );
            for (i, ((latency, answer), text)) in lib.ops.iter().zip(texts).enumerate() {
                let json = match answer {
                    Ok(json) => json,
                    Err(e) => {
                        run.failed += 1;
                        run.wrong.push(format!("op {i}: solve failed: {e}"));
                        continue;
                    }
                };
                run.latencies_ms.push(latency.as_secs_f64() * 1e3);
                run.reply_bytes.push(json.len());
                match check_report(w, text, json) {
                    Ok(a) => run.answers.push((i, a)),
                    Err(e) => run.wrong.push(format!("op {i}: {e}")),
                }
            }
            let hub = run
                .answers
                .iter()
                .filter(|(_, a)| a.oracle_backend.as_deref() == Some("hub"))
                .count();
            let oracle_path = run
                .answers
                .iter()
                .filter(|(_, a)| a.strategy_used == "oracle-path")
                .count();
            run.invariants.extend([
                Invariant {
                    what: "reports with stats.oracle.backend == hub",
                    count: hub as u64,
                    holds: hub == run.ops,
                },
                Invariant {
                    what: "reports with strategy_used == oracle-path",
                    count: oracle_path as u64,
                    holds: oracle_path == run.ops,
                },
            ]);
            finish_counts(&mut run);
            Ok(run)
        }
    }
}

/// Turn a serve window's outcomes into a checked [`Run`]. `extra` adds a
/// workload-specific check of answer `i`.
fn collect(
    w: Workload,
    requests: &[Sent],
    window: Window,
    setup_times: Vec<f64>,
    extra: impl Fn(usize, &Answer) -> Result<(), String>,
) -> Run {
    let mut run = Run::new(
        requests.len(),
        window.wall.as_secs_f64(),
        setup_times,
        window.peak_rss_mb,
        window.cpu_s,
    );
    let mut hits = 0usize;
    for (i, (outcome, sent)) in window.outcomes.into_iter().zip(requests).enumerate() {
        let reply = match outcome.reply {
            Ok(r) if r.status == 200 => r,
            _ => {
                run.failed += 1;
                continue;
            }
        };
        run.latencies_ms.push(outcome.latency.as_secs_f64() * 1e3);
        run.reply_bytes.push(reply.body.len());
        if reply.cache.as_deref() == Some("hit") {
            hits += 1;
        }
        let report = String::from_utf8_lossy(&reply.body);
        match check_report(w, sent.body(), &report).and_then(|a| extra(i, &a).map(|()| a)) {
            Ok(a) => run.answers.push((i, a)),
            Err(e) => run.wrong.push(format!("op {i}: {e}")),
        }
    }
    run.counts
        .insert("cache.hit_ratio", hits as f64 / run.ops as f64);
    finish_counts(&mut run);
    run
}

/// Counts every workload reads off its reports, plus the invariant every
/// report must keep.
fn finish_counts(run: &mut Run) {
    let ops = run.ops as f64;
    let answers = run.answers.iter().map(|(_, a)| a);
    let sum = |f: fn(&Answer) -> u64| -> f64 { run.answers.iter().map(|(_, a)| f(a) as f64).sum() };
    let approx_wins = answers
        .clone()
        .filter(|a| a.strategy_used == "approx15")
        .count();
    let vertices = sum(|a| a.labels.len() as u64);
    let single_reduction = answers.filter(|a| a.reductions_computed <= 1).count();
    let entries = sum(|a| a.oracle_label_entries);
    let counts = [
        ("christofides.win_ratio", approx_wins as f64 / ops),
        ("bound.ascent_iters_per_op", sum(|a| a.ascent_iters) / ops),
        ("oracle.queries_per_op", sum(|a| a.oracle_queries) / ops),
        (
            "oracle.label_entries_per_vertex",
            if vertices > 0.0 {
                entries / vertices
            } else {
                0.0
            },
        ),
    ];
    run.counts.extend(counts);
    run.invariants.push(Invariant {
        what: "reports with reductions_computed <= 1",
        count: single_reduction as u64,
        holds: single_reduction == run.answers.len(),
    });
}
