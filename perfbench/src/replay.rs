//! The traced run: replay a prefix of a workload's inputs in this
//! process, calling each layer's public function in lifecycle order
//! under a span. Layers the engine runs inside `engine::solve` are
//! replayed again on their own after the whole call, so the engine's
//! dispatch share is the whole call minus those parts.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dclab_core::bounds::{span_bound_with_reduction, span_lower_bound_cheap};
use dclab_core::distance::DistanceSource;
use dclab_core::oracle_route::oracle_path_route;
use dclab_core::pvec::PVec;
use dclab_core::reduction::reduce_to_path_tsp;
use dclab_core::routes;
use dclab_engine::{solve, Budget, InstanceFeatures, OraclePolicy, SolveRequest, Strategy};
use dclab_graph::io as graph_io;
use dclab_par::Deadline;
use dclab_serve::{http, persist, CacheKey, ReportCache};
use dclab_store::Store;
use dclab_tsp::driver::HeuristicConfig;
use dclab_tsp::matching::MatchingBackend;

use crate::spans::Recorder;
use crate::workload::{Inputs, Workload};

/// Held–Karp ascent iterations of the engine's default certificate.
const LB_ITERS: usize = 50;

/// What one replayed op produced, for comparison with the served report.
pub struct Replayed {
    pub span: u64,
    pub lower_bound: u64,
    pub queries: u64,
}

pub struct Replay {
    /// Replay wall time with spans recorded and without.
    pub wall_on: Duration,
    pub wall_off: Duration,
    pub ops: usize,
    /// The recorded lane's spans.
    pub rec: Recorder,
    pub results: Vec<Replayed>,
}

/// Span names whose self time the engine's dispatch share excludes.
pub fn engine_parts(w: Workload) -> &'static [&'static str] {
    match w {
        Workload::ServeRelabel => &[],
        Workload::ServeCold => &[
            "features",
            "reduce",
            "lk",
            "christofides",
            "bound",
            "validate",
        ],
        Workload::OracleLarge => &["features", "oracle", "oracle_route", "validate"],
    }
}

fn pvec(p: &[u64]) -> PVec {
    PVec::new(p.to_vec()).expect("workload p-vectors are valid")
}

fn key_for(g: &dclab_graph::Graph, p: &PVec) -> CacheKey {
    CacheKey::for_request(g, p, Strategy::Auto, Budget::default(), OraclePolicy::Auto)
}

/// Parse the exact request bytes and build the graph and cache key, the
/// way the server's `/solve` handler does.
fn front(
    rec: &mut Recorder,
    bytes: &[u8],
    p: &PVec,
) -> Result<(dclab_graph::Graph, CacheKey), String> {
    let parsed = rec.span("http", |_| {
        http::try_parse(bytes, http::MAX_HEAD_BYTES, http::MAX_BODY_BYTES)
    });
    let (req, _) = parsed
        .map_err(|e| format!("replayed request does not parse: {e:?}"))?
        .ok_or("replayed request is incomplete")?;
    let body = std::str::from_utf8(&req.body).map_err(|_| "body is not UTF-8")?;
    let g = rec
        .span("io", |_| graph_io::parse(body, graph_io::Format::EdgeList))
        .map_err(|e| e.to_string())?;
    let key = rec.span("canon", |_| key_for(&g, p));
    Ok((g, key))
}

fn respond(rec: &mut Recorder, json: &str, cache: &str) {
    let bytes = rec.span("http", |_| {
        http::render_response(200, &[("x-dclab-cache", cache)], json.as_bytes(), true)
    });
    black_box(bytes);
}

/// One replay lane: the state a server would hold across requests.
enum Lane {
    Relabel(ReportCache),
    Cold(ReportCache, Store, PathBuf),
    Large,
}

impl Lane {
    fn new(inputs: &Inputs, p: &PVec, work: &Path, name: &str) -> Result<Lane, String> {
        Ok(match inputs {
            Inputs::Relabel { bases, .. } => {
                // The prefill, untimed: one cold solve per base.
                let cache = ReportCache::new(64 << 20);
                for g in bases {
                    let report = solve(&SolveRequest::new(g.clone(), p.clone()))
                        .map_err(|e| e.to_string())?;
                    cache.put(&key_for(g, p), &report);
                }
                Lane::Relabel(cache)
            }
            Inputs::Cold { .. } => {
                let path = work.join(format!("replay-{name}.dcst"));
                let _ = std::fs::remove_file(&path);
                let store = Store::open(&path)
                    .map_err(|e| format!("opening the replay archive: {e}"))?
                    .0;
                Lane::Cold(ReportCache::new(1 << 20), store, path)
            }
            Inputs::Large { .. } => Lane::Large,
        })
    }

    /// Replay op `i` under an `op` span.
    fn op(
        &self,
        inputs: &Inputs,
        i: usize,
        p: &PVec,
        rec: &mut Recorder,
    ) -> Result<Replayed, String> {
        rec.set_op(i);
        rec.span("op", |rec| match (self, inputs) {
            (Lane::Relabel(cache), Inputs::Relabel { requests, .. }) => {
                let (_, key) = front(rec, &requests[i].bytes, p)?;
                let report = rec
                    .span("cache", |_| cache.get(&key))
                    .ok_or("replayed lookup missed the cache")?;
                let json = rec.span("report", |_| report.to_json());
                respond(rec, &json, "hit");
                Ok(Replayed {
                    span: report.solution.span,
                    lower_bound: report.lower_bound,
                    queries: 0,
                })
            }
            (Lane::Cold(cache, store, _), Inputs::Cold { requests }) => {
                let (g, key) = front(rec, &requests[i].bytes, p)?;
                if rec.span("cache", |_| cache.get(&key)).is_some() {
                    return Err("replayed lookup hit a cold instance".into());
                }
                let req = SolveRequest::new(g.clone(), p.clone());
                let report = rec
                    .span("engine", |_| solve(&req))
                    .map_err(|e| e.to_string())?;
                rec.span("cache", |_| cache.put(&key, &report));
                rec.span("store", |_| persist::store_append(store, &key, &report))
                    .map_err(|e| format!("archive append: {e}"))?;
                let json = rec.span("report", |_| report.to_json());
                respond(rec, &json, "miss");
                // The engine's parts, each on its own.
                black_box(rec.span("features", |_| InstanceFeatures::extract(&g, p)));
                let reduced = rec
                    .span("reduce", |_| reduce_to_path_tsp(&g, p))
                    .map_err(|e| e.to_string())?;
                let lk = rec.span("lk", |_| {
                    routes::heuristic_route(&reduced, &HeuristicConfig::default())
                });
                let chr = rec.span("christofides", |_| {
                    routes::approx15_route(&reduced, MatchingBackend::Auto)
                });
                let bound = rec.span("bound", |_| {
                    span_bound_with_reduction(&g, p, &reduced, LB_ITERS, &Deadline::none())
                });
                // Auto keeps Christofides only when it is strictly shorter.
                let best = if chr.span < lk.span { chr } else { lk };
                rec.span("validate", |_| {
                    best.labeling.validate_with_distances(&reduced.dist, p)
                })
                .map_err(|v| format!("replayed labeling invalid: {v:?}"))?;
                Ok(Replayed {
                    span: best.span,
                    lower_bound: bound.value,
                    queries: 0,
                })
            }
            (Lane::Large, Inputs::Large { texts }) => {
                let g = rec
                    .span("io", |_| {
                        graph_io::parse(&texts[i], graph_io::Format::EdgeList)
                    })
                    .map_err(|e| e.to_string())?;
                let req = SolveRequest::new(g.clone(), p.clone());
                let report = rec
                    .span("engine", |_| solve(&req))
                    .map_err(|e| e.to_string())?;
                black_box(rec.span("report", |_| report.to_json()));
                // The engine's parts, each on its own.
                let features = rec.span("features", |_| InstanceFeatures::extract(&g, p));
                let src = rec
                    .span("oracle", |_| DistanceSource::build_hub(&g))
                    .map_err(|e| format!("hub-label build: {e}"))?;
                let sol = rec.span("oracle_route", |_| oracle_path_route(&g, p, &src));
                rec.span("validate", |_| sol.labeling.validate_with_source(&src, p))
                    .map_err(|v| format!("replayed labeling invalid: {v:?}"))?;
                Ok(Replayed {
                    span: sol.span,
                    lower_bound: span_lower_bound_cheap(&g, p, features.diameter),
                    queries: src.queries(),
                })
            }
            _ => unreachable!("a lane is built from the inputs it replays"),
        })
    }
}

impl Drop for Lane {
    fn drop(&mut self) {
        if let Lane::Cold(_, _, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Replay the first `ops` inputs twice, op by op: once with spans
/// recorded and once without, alternating which goes first, so the
/// recorder's overhead is measured under the same conditions.
pub fn replay(w: Workload, inputs: &Inputs, ops: usize, work: &Path) -> Result<Replay, String> {
    let p = pvec(w.p());
    let lane_on = Lane::new(inputs, &p, work, "on")?;
    let lane_off = Lane::new(inputs, &p, work, "off")?;
    let mut rec = Recorder::new(true);
    let mut off = Recorder::new(false);
    let mut results = Vec::with_capacity(ops);
    let (mut wall_on, mut wall_off) = (Duration::ZERO, Duration::ZERO);
    for i in 0..ops {
        for first_on in [i % 2 == 0, i % 2 == 1] {
            let t0 = Instant::now();
            if first_on {
                results.push(lane_on.op(inputs, i, &p, &mut rec)?);
                wall_on += t0.elapsed();
            } else {
                black_box(lane_off.op(inputs, i, &p, &mut off)?);
                wall_off += t0.elapsed();
            }
        }
    }
    Ok(Replay {
        wall_on,
        wall_off,
        ops,
        rec,
        results,
    })
}
