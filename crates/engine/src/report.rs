//! [`SolveReport`]: what the engine returns — solution, provenance, lower
//! bound, and dispatch stats — plus its JSON form.

use dclab_core::bounds::BoundKind;
use dclab_core::routes::Solution;

use crate::features::InstanceFeatures;
use crate::json::Obj;
use crate::request::Strategy;

/// Provenance of the report's `lower_bound`: which rung of the certificate
/// ladder produced it, what it certified, and what the certificate cost.
/// Always present — deadline-free solves simply carry `time_us: 0` (the
/// engine never reads a clock for them, preserving bit-determinism).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BoundStats {
    /// Strongest certificate rung backing `value` (see [`BoundKind`]).
    pub kind: BoundKind,
    /// The certified lower bound on the span (== the report's
    /// `lower_bound`).
    pub value: u64,
    /// Held–Karp ascent iterations executed (0 when the ascent never ran
    /// or a weaker rung was already as strong).
    pub ascent_iters: u64,
    /// Wall-clock µs spent computing lower bounds for this request.
    /// Always 0 on deadline-free solves (no clock reads).
    pub time_us: u64,
}

impl BoundStats {
    pub fn to_json(&self) -> String {
        Obj::new()
            .str("kind", self.kind.name())
            .u64("value", self.value)
            .u64("ascent_iters", self.ascent_iters)
            .u64("time_us", self.time_us)
            .finish()
    }
}

/// Per-phase timing attribution snapshotted from an installed
/// [`dclab_trace::Trace`]: total µs and call count for every span name the
/// solve recorded. Empty whenever tracing is disabled — timings never leak
/// into untraced (deterministic) reports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseStat {
    /// Phase name from the trace registry ("reduce", "apsp", "lk", …).
    pub name: String,
    /// Number of spans recorded under this name.
    pub calls: u64,
    /// Total duration across those spans, in µs.
    pub total_us: u64,
}

impl PhaseStat {
    pub fn to_json(&self) -> String {
        Obj::new()
            .str("name", &self.name)
            .u64("calls", self.calls)
            .u64("total_us", self.total_us)
            .finish()
    }
}

/// How an oracle-routed solve used its distance backend. Integer-only
/// and deterministic: the backend choice, label sizes, and query counts
/// depend only on the instance and the request, never on timings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OracleStats {
    /// Distance backend that served the solve: "dense" or "hub".
    pub backend: String,
    /// Oracle builds for this request (the engine's contract is ≤ 1,
    /// mirroring `reductions_computed`).
    pub builds: usize,
    /// Total (hub, dist) label entries (0 for the dense backend).
    pub label_entries: u64,
    /// Resident bytes of the backing store.
    pub footprint_bytes: u64,
    /// Point distance queries the solve issued (route + validation).
    pub queries: u64,
    /// An `OraclePolicy::Auto` request resolved to the dense matrix (the
    /// instance fit under the footprint threshold).
    pub dense_fallback: bool,
}

impl OracleStats {
    pub fn to_json(&self) -> String {
        Obj::new()
            .str("backend", &self.backend)
            .usize("builds", self.builds)
            .u64("label_entries", self.label_entries)
            .u64("footprint_bytes", self.footprint_bytes)
            .u64("queries", self.queries)
            .bool("dense_fallback", self.dense_fallback)
            .finish()
    }
}

/// How a request was executed. Without a wall-clock deadline every field
/// except `phases` is deterministic (no timings), so batch reports compare
/// bit-for-bit across thread counts; `timed_out` can only become `true`
/// when the request armed `Budget::deadline_ms`, and `phases` is only
/// non-empty when the caller installed a live trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EngineStats {
    /// Theorem 2 reductions computed for this request. The engine's
    /// contract is that this is ≤ 1: the reduction is computed once and
    /// shared across every candidate route `Auto` tries.
    pub reductions_computed: usize,
    /// Concrete routes executed, in order (≥ 1; > 1 when `Auto` raced or
    /// fell back).
    pub routes_tried: Vec<Strategy>,
    /// Human-readable dispatch trace ("n=30 > exact guard", …).
    pub notes: Vec<String>,
    /// The wall-clock deadline fired before optimality was proved: the
    /// solution is the best incumbent harvested at the deadline, still a
    /// valid labeling, just not necessarily optimal.
    pub timed_out: bool,
    /// Lower-bound provenance: certificate kind, value, ascent iterations,
    /// and metered µs (0 unless the request armed a deadline).
    pub bound: BoundStats,
    /// The features the dispatch decision was based on.
    pub features: InstanceFeatures,
    /// Per-phase µs attribution (empty unless a live trace was installed
    /// for the solve). Omitted from the JSON when empty so untraced
    /// reports stay byte-identical to pre-trace builds.
    pub phases: Vec<PhaseStat>,
    /// Distance-oracle usage (`None` unless the solve went through a
    /// [`crate::request::OraclePolicy`]-routed path). Omitted from the
    /// JSON when `None` so matrix-path reports stay byte-identical to
    /// pre-oracle builds.
    pub oracle: Option<OracleStats>,
}

impl EngineStats {
    pub fn to_json(&self) -> String {
        let mut obj = Obj::new()
            .usize("reductions_computed", self.reductions_computed)
            .str_array("routes_tried", self.routes_tried.iter().map(|s| s.name()))
            .str_array("notes", self.notes.iter().map(String::as_str))
            .bool("timed_out", self.timed_out)
            .raw("bound", &self.bound.to_json())
            .raw("features", &self.features.to_json());
        if !self.phases.is_empty() {
            let items: Vec<String> = self.phases.iter().map(PhaseStat::to_json).collect();
            obj = obj.raw("phases", &format!("[{}]", items.join(",")));
        }
        if let Some(oracle) = &self.oracle {
            obj = obj.raw("oracle", &oracle.to_json());
        }
        obj.finish()
    }
}

/// A solved request with provenance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SolveReport {
    /// The labeling (validated before the report is built).
    pub solution: Solution,
    /// What the caller asked for (possibly `Auto`).
    pub strategy_requested: Strategy,
    /// The concrete route that produced `solution` (never `Auto`).
    pub strategy_used: Strategy,
    /// Best lower-bound certificate on `λ_p(G)` the engine obtained.
    pub lower_bound: u64,
    /// `solution.span` is proved optimal (exact route, or span ==
    /// lower_bound).
    pub optimal: bool,
    pub stats: EngineStats,
}

impl SolveReport {
    /// Relative optimality gap `(span − lower_bound) / lower_bound`.
    /// `None` when the lower bound is 0 (the gap is undefined — only
    /// degenerate instances like `n ≤ 1` or `pmin == 0` get there).
    /// 0.0 exactly when the solve is proved optimal.
    pub fn gap(&self) -> Option<f64> {
        (self.lower_bound > 0)
            .then(|| (self.solution.span - self.lower_bound) as f64 / self.lower_bound as f64)
    }

    /// Deterministic single-line JSON (stable field order, no timings).
    /// `timed_out` is surfaced at the top level (clients deciding whether
    /// to retry should not have to dig through stats) and repeated inside
    /// `stats` alongside the rest of the dispatch trace; `gap` sits next
    /// to it for the same reason and is omitted when undefined.
    pub fn to_json(&self) -> String {
        let mut obj = Obj::new()
            .str("strategy_requested", self.strategy_requested.name())
            .str("strategy_used", self.strategy_used.name())
            .u64("span", self.solution.span)
            .u64("lower_bound", self.lower_bound)
            .bool("optimal", self.optimal)
            .bool("timed_out", self.stats.timed_out);
        if let Some(gap) = self.gap() {
            obj = obj.f64("gap", gap);
        }
        obj.u64_array("labels", self.solution.labeling.labels().iter().copied())
            .u64_array("order", self.solution.order.iter().map(|&v| v as u64))
            .raw("stats", &self.stats.to_json())
            .finish()
    }
}

const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SolveReport>();
    assert_send_sync::<EngineStats>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use dclab_core::labeling::Labeling;
    use dclab_core::pvec::PVec;
    use dclab_graph::generators::classic;

    #[test]
    fn report_json_shape() {
        let g = classic::complete(3);
        let labeling = Labeling::new(vec![0, 2, 4]);
        let report = SolveReport {
            solution: Solution {
                span: labeling.span(),
                order: labeling.sorted_order(),
                labeling,
            },
            strategy_requested: Strategy::Auto,
            strategy_used: Strategy::Exact,
            lower_bound: 4,
            optimal: true,
            stats: EngineStats {
                reductions_computed: 1,
                routes_tried: vec![Strategy::Exact],
                notes: vec!["n=3 within exact guard".into()],
                timed_out: false,
                bound: BoundStats {
                    kind: BoundKind::ProvedOptimal,
                    value: 4,
                    ascent_iters: 0,
                    time_us: 0,
                },
                features: crate::features::InstanceFeatures::extract(&g, &PVec::l21()),
                phases: Vec::new(),
                oracle: None,
            },
        };
        let j = report.to_json();
        assert!(j.starts_with("{\"strategy_requested\":\"auto\""));
        assert!(j.contains("\"span\":4"));
        assert!(j.contains("\"timed_out\":false"));
        // Proved optimal ⇒ gap is exactly 0; the bound object attributes
        // the certificate.
        assert!(j.contains("\"gap\":0.000000"));
        assert!(j.contains(
            "\"bound\":{\"kind\":\"proved-optimal\",\"value\":4,\
             \"ascent_iters\":0,\"time_us\":0}"
        ));
        assert!(j.contains("\"labels\":[0,2,4]"));
        assert!(j.contains("\"reductions_computed\":1"));
        assert!(j.contains("\"features\":{\"n\":3"));
        // Untraced reports carry no phases key at all (byte-stability with
        // pre-trace builds); traced ones do.
        assert!(!j.contains("\"phases\""));
        let mut traced = report.clone();
        traced.stats.phases = vec![PhaseStat {
            name: "apsp".into(),
            calls: 1,
            total_us: 42,
        }];
        let tj = traced.to_json();
        assert!(tj.contains("\"phases\":[{\"name\":\"apsp\",\"calls\":1,\"total_us\":42}]"));
        // Oracle stats appear only on oracle-routed reports.
        assert!(!j.contains("\"oracle\""));
        let mut with_oracle = report.clone();
        with_oracle.stats.oracle = Some(OracleStats {
            backend: "hub".into(),
            builds: 1,
            label_entries: 12,
            footprint_bytes: 96,
            queries: 7,
            dense_fallback: false,
        });
        let oj = with_oracle.to_json();
        assert!(oj.contains(
            "\"oracle\":{\"backend\":\"hub\",\"builds\":1,\"label_entries\":12,\
             \"footprint_bytes\":96,\"queries\":7,\"dense_fallback\":false}"
        ));
    }
}
