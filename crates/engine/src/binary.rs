//! Compact binary codec for [`SolveReport`] — the on-disk twin of the JSON
//! form.
//!
//! The persistent solution archive (`dclab-store`) keeps one report per
//! canonical instance; JSON would bloat the log 3–5× and cost a parse we
//! never wrote. This codec is a versioned, length-prefixed, LEB128-varint
//! encoding with a stable layout:
//!
//! ```text
//! u8 version | u8 strategy_requested | u8 strategy_used
//! varint lower_bound | u8 optimal
//! varint span | varint #labels, labels… | varint #order, order…
//! varint reductions_computed | varint #routes, route codes…
//! varint #notes, (varint len, utf8)… | features (see below)
//! ```
//!
//! Features: `varint n, m, max_degree` · `opt diameter` · `varint k` ·
//! one flag byte (`smooth | all_ones << 1 | two_valued << 2 | cograph << 3`).
//!
//! **Version 2** appends one `timed_out` byte after the feature flags.
//! Version 1 records (every archive written before anytime solving
//! existed) still decode — the missing byte reads as `timed_out = false`,
//! which is exactly right: a deadline-free solve cannot time out.
//!
//! **Version 3** appends the per-phase timing tail after `timed_out`:
//! `varint #phases, (varint len, utf8 name, varint calls, varint
//! total_us)…`. Version ≤ 2 records decode with empty `phases` — archives
//! written before tracing existed simply have no attribution.
//!
//! **Version 4** appends the oracle tail after the phases: one presence
//! byte, then (when present) `u8 backend (1 = dense, 2 = hub) | varint
//! builds | varint label_entries | varint footprint_bytes | varint
//! queries | u8 dense_fallback`. Version ≤ 3 records decode with
//! `oracle = None` — they predate the distance-oracle subsystem.
//!
//! **Version 5** appends the lower-bound provenance tail after the oracle
//! tail: `u8 bound kind code | varint value | varint ascent_iters | varint
//! time_us` (see [`dclab_core::bounds::BoundKind`] for the codes). Version
//! ≤ 4 records predate the certificate ladder, so their bound degrades to
//! the weakest attribution that is always true: `kind = degree` with
//! `value = lower_bound` and zero iterations/time. Re-encoding such a
//! record upgrades it to the current version with that degraded tail.
//! Encoding always emits the current version.
//!
//! Decoding is strict: unknown versions, unknown strategy codes, truncated
//! buffers, and trailing bytes are all errors — a corrupt archive record
//! can never silently decode into a wrong report. [`report_from_bytes`]
//! followed by [`report_to_bytes`] is byte-identical (round-trip tested,
//! including property tests over solved random instances).

use dclab_core::bounds::BoundKind;
use dclab_core::labeling::Labeling;
use dclab_core::routes::Solution;

use crate::features::InstanceFeatures;
use crate::report::{BoundStats, EngineStats, SolveReport};
use crate::request::Strategy;

/// Current codec version (first byte of every encoded report).
pub const REPORT_CODEC_VERSION: u8 = 5;

/// Oldest codec version [`report_from_bytes`] still accepts (pre-anytime
/// records without the `timed_out` byte).
pub const REPORT_CODEC_MIN_VERSION: u8 = 1;

/// Decode failure: what was malformed and roughly where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodecError {
    pub offset: usize,
    pub message: String,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for CodecError {}

fn err(offset: usize, message: impl Into<String>) -> CodecError {
    CodecError {
        offset,
        message: message.into(),
    }
}

/// Append `v` as an unsigned LEB128 varint.
pub fn put_uvarint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Read an unsigned LEB128 varint at `*pos`, advancing it.
pub fn get_uvarint(bytes: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *bytes
            .get(*pos)
            .ok_or_else(|| err(*pos, "truncated varint"))?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return Err(err(*pos - 1, "varint overflows u64"));
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(err(*pos, "varint too long"));
        }
    }
}

/// `Option<u64>` as a presence byte followed by the varint when `Some`.
pub fn put_opt_uvarint(buf: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(v) => {
            buf.push(1);
            put_uvarint(buf, v);
        }
        None => buf.push(0),
    }
}

/// Inverse of [`put_opt_uvarint`].
pub fn get_opt_uvarint(bytes: &[u8], pos: &mut usize) -> Result<Option<u64>, CodecError> {
    match get_u8(bytes, pos)? {
        0 => Ok(None),
        1 => Ok(Some(get_uvarint(bytes, pos)?)),
        tag => Err(err(*pos - 1, format!("bad option tag {tag}"))),
    }
}

/// Read one byte at `*pos`, advancing it.
pub fn get_u8(bytes: &[u8], pos: &mut usize) -> Result<u8, CodecError> {
    let byte = *bytes.get(*pos).ok_or_else(|| err(*pos, "truncated byte"))?;
    *pos += 1;
    Ok(byte)
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_uvarint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn get_str(bytes: &[u8], pos: &mut usize) -> Result<String, CodecError> {
    let len = get_uvarint(bytes, pos)? as usize;
    let end = pos
        .checked_add(len)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| err(*pos, "truncated string"))?;
    let s = std::str::from_utf8(&bytes[*pos..end])
        .map_err(|_| err(*pos, "invalid utf-8"))?
        .to_string();
    *pos = end;
    Ok(s)
}

fn get_strategy(bytes: &[u8], pos: &mut usize) -> Result<Strategy, CodecError> {
    let code = get_u8(bytes, pos)?;
    Strategy::from_code(code).ok_or_else(|| err(*pos - 1, format!("unknown strategy code {code}")))
}

/// Encode a report. Infallible: every in-memory report has a binary form.
pub fn report_to_bytes(r: &SolveReport) -> Vec<u8> {
    let labels = r.solution.labeling.labels();
    let mut buf = Vec::with_capacity(32 + 2 * labels.len());
    buf.push(REPORT_CODEC_VERSION);
    buf.push(r.strategy_requested.code());
    buf.push(r.strategy_used.code());
    put_uvarint(&mut buf, r.lower_bound);
    buf.push(r.optimal as u8);
    put_uvarint(&mut buf, r.solution.span);
    put_uvarint(&mut buf, labels.len() as u64);
    for &l in labels {
        put_uvarint(&mut buf, l);
    }
    put_uvarint(&mut buf, r.solution.order.len() as u64);
    for &v in &r.solution.order {
        put_uvarint(&mut buf, v as u64);
    }
    let stats = &r.stats;
    put_uvarint(&mut buf, stats.reductions_computed as u64);
    put_uvarint(&mut buf, stats.routes_tried.len() as u64);
    for &s in &stats.routes_tried {
        buf.push(s.code());
    }
    put_uvarint(&mut buf, stats.notes.len() as u64);
    for note in &stats.notes {
        put_str(&mut buf, note);
    }
    let f = &stats.features;
    put_uvarint(&mut buf, f.n as u64);
    put_uvarint(&mut buf, f.m as u64);
    put_uvarint(&mut buf, f.max_degree as u64);
    put_opt_uvarint(&mut buf, f.diameter.map(u64::from));
    put_uvarint(&mut buf, f.k as u64);
    buf.push(
        f.smooth as u8
            | (f.all_ones as u8) << 1
            | (f.two_valued as u8) << 2
            | (f.cograph as u8) << 3,
    );
    // Version 2 extension: the anytime timeout flag.
    buf.push(stats.timed_out as u8);
    // Version 3 extension: per-phase timing attribution (empty for
    // untraced solves — one count byte).
    put_uvarint(&mut buf, stats.phases.len() as u64);
    for p in &stats.phases {
        put_str(&mut buf, &p.name);
        put_uvarint(&mut buf, p.calls);
        put_uvarint(&mut buf, p.total_us);
    }
    // Version 4 extension: the oracle tail (one presence byte for the
    // matrix-path reports that carry no oracle stats).
    match &stats.oracle {
        None => buf.push(0),
        Some(o) => {
            buf.push(1);
            buf.push(match o.backend.as_str() {
                "dense" => 1,
                "hub" => 2,
                other => unreachable!("unknown oracle backend '{other}'"),
            });
            put_uvarint(&mut buf, o.builds as u64);
            put_uvarint(&mut buf, o.label_entries);
            put_uvarint(&mut buf, o.footprint_bytes);
            put_uvarint(&mut buf, o.queries);
            buf.push(o.dense_fallback as u8);
        }
    }
    // Version 5 extension: lower-bound provenance.
    buf.push(stats.bound.kind.code());
    put_uvarint(&mut buf, stats.bound.value);
    put_uvarint(&mut buf, stats.bound.ascent_iters);
    put_uvarint(&mut buf, stats.bound.time_us);
    buf
}

/// Decode a report. Strict: the whole buffer must be consumed.
pub fn report_from_bytes(bytes: &[u8]) -> Result<SolveReport, CodecError> {
    let pos = &mut 0usize;
    let version = get_u8(bytes, pos)?;
    if !(REPORT_CODEC_MIN_VERSION..=REPORT_CODEC_VERSION).contains(&version) {
        return Err(err(
            0,
            format!("unsupported report codec version {version}"),
        ));
    }
    let strategy_requested = get_strategy(bytes, pos)?;
    let strategy_used = get_strategy(bytes, pos)?;
    let lower_bound = get_uvarint(bytes, pos)?;
    let optimal = match get_u8(bytes, pos)? {
        0 => false,
        1 => true,
        b => return Err(err(*pos - 1, format!("bad optimal flag {b}"))),
    };
    let span = get_uvarint(bytes, pos)?;
    let n_labels = get_uvarint(bytes, pos)? as usize;
    if n_labels > bytes.len() {
        // Each label costs ≥ 1 byte; an impossible count is corruption.
        return Err(err(*pos, format!("label count {n_labels} exceeds buffer")));
    }
    let mut labels = Vec::with_capacity(n_labels);
    for _ in 0..n_labels {
        labels.push(get_uvarint(bytes, pos)?);
    }
    let n_order = get_uvarint(bytes, pos)? as usize;
    if n_order > bytes.len() {
        return Err(err(*pos, format!("order count {n_order} exceeds buffer")));
    }
    let mut order = Vec::with_capacity(n_order);
    for _ in 0..n_order {
        let v = get_uvarint(bytes, pos)?;
        let v = u32::try_from(v).map_err(|_| err(*pos, format!("order entry {v} not a u32")))?;
        order.push(v);
    }
    let reductions_computed = get_uvarint(bytes, pos)? as usize;
    let n_routes = get_uvarint(bytes, pos)? as usize;
    if n_routes > bytes.len() {
        return Err(err(*pos, format!("route count {n_routes} exceeds buffer")));
    }
    let mut routes_tried = Vec::with_capacity(n_routes);
    for _ in 0..n_routes {
        routes_tried.push(get_strategy(bytes, pos)?);
    }
    let n_notes = get_uvarint(bytes, pos)? as usize;
    if n_notes > bytes.len() {
        return Err(err(*pos, format!("note count {n_notes} exceeds buffer")));
    }
    let mut notes = Vec::with_capacity(n_notes);
    for _ in 0..n_notes {
        notes.push(get_str(bytes, pos)?);
    }
    let n = get_uvarint(bytes, pos)? as usize;
    let m = get_uvarint(bytes, pos)? as usize;
    let max_degree = get_uvarint(bytes, pos)? as usize;
    let diameter = match get_opt_uvarint(bytes, pos)? {
        Some(d) => {
            Some(u32::try_from(d).map_err(|_| err(*pos, format!("diameter {d} not a u32")))?)
        }
        None => None,
    };
    let k = get_uvarint(bytes, pos)? as usize;
    let flags = get_u8(bytes, pos)?;
    if flags & !0x0f != 0 {
        return Err(err(*pos - 1, format!("unknown feature flags {flags:#04x}")));
    }
    // Version 1 ends at the feature flags; version 2 adds `timed_out`.
    let timed_out = if version >= 2 {
        match get_u8(bytes, pos)? {
            0 => false,
            1 => true,
            b => return Err(err(*pos - 1, format!("bad timed_out flag {b}"))),
        }
    } else {
        false
    };
    // Version 3 adds the per-phase timing tail; older records decode with
    // no attribution.
    let mut phases = Vec::new();
    if version >= 3 {
        let n_phases = get_uvarint(bytes, pos)? as usize;
        if n_phases > bytes.len() {
            return Err(err(*pos, format!("phase count {n_phases} exceeds buffer")));
        }
        phases.reserve(n_phases);
        for _ in 0..n_phases {
            let name = get_str(bytes, pos)?;
            let calls = get_uvarint(bytes, pos)?;
            let total_us = get_uvarint(bytes, pos)?;
            phases.push(crate::report::PhaseStat {
                name,
                calls,
                total_us,
            });
        }
    }
    // Version 4 adds the oracle tail; older records decode with no
    // oracle stats.
    let mut oracle = None;
    if version >= 4 {
        match get_u8(bytes, pos)? {
            0 => {}
            1 => {
                let backend = match get_u8(bytes, pos)? {
                    1 => "dense".to_string(),
                    2 => "hub".to_string(),
                    b => return Err(err(*pos - 1, format!("unknown oracle backend code {b}"))),
                };
                let builds = get_uvarint(bytes, pos)? as usize;
                let label_entries = get_uvarint(bytes, pos)?;
                let footprint_bytes = get_uvarint(bytes, pos)?;
                let queries = get_uvarint(bytes, pos)?;
                let dense_fallback = match get_u8(bytes, pos)? {
                    0 => false,
                    1 => true,
                    b => return Err(err(*pos - 1, format!("bad dense_fallback flag {b}"))),
                };
                oracle = Some(crate::report::OracleStats {
                    backend,
                    builds,
                    label_entries,
                    footprint_bytes,
                    queries,
                    dense_fallback,
                });
            }
            tag => return Err(err(*pos - 1, format!("bad oracle tag {tag}"))),
        }
    }
    // Version 5 adds the lower-bound provenance tail; older records
    // degrade to the always-true degree attribution of their recorded
    // lower bound.
    let bound = if version >= 5 {
        let code = get_u8(bytes, pos)?;
        let kind = BoundKind::from_code(code)
            .ok_or_else(|| err(*pos - 1, format!("unknown bound kind code {code}")))?;
        BoundStats {
            kind,
            value: get_uvarint(bytes, pos)?,
            ascent_iters: get_uvarint(bytes, pos)?,
            time_us: get_uvarint(bytes, pos)?,
        }
    } else {
        BoundStats {
            kind: BoundKind::Degree,
            value: lower_bound,
            ascent_iters: 0,
            time_us: 0,
        }
    };
    if *pos != bytes.len() {
        return Err(err(*pos, "trailing bytes after report"));
    }
    let labeling = Labeling::new(labels);
    Ok(SolveReport {
        solution: Solution {
            span,
            order,
            labeling,
        },
        strategy_requested,
        strategy_used,
        lower_bound,
        optimal,
        stats: EngineStats {
            reductions_computed,
            routes_tried,
            notes,
            timed_out,
            bound,
            features: InstanceFeatures {
                n,
                m,
                max_degree,
                diameter,
                k,
                smooth: flags & 1 != 0,
                all_ones: flags & 2 != 0,
                two_valued: flags & 4 != 0,
                cograph: flags & 8 != 0,
            },
            phases,
            oracle,
        },
    })
}

impl SolveReport {
    /// Compact binary form (see [`crate::binary`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        report_to_bytes(self)
    }

    /// Decode the binary form; strict inverse of [`SolveReport::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<SolveReport, CodecError> {
        report_from_bytes(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve, SolveRequest};
    use dclab_core::pvec::PVec;
    use dclab_graph::generators::classic;

    fn sample_report(strategy: Strategy) -> SolveReport {
        solve(&SolveRequest::new(classic::petersen(), PVec::l21()).with_strategy(strategy))
            .expect("solvable")
    }

    /// Encoded size of a report's v5 bound tail (the codec's last bytes).
    fn bound_tail_len(r: &SolveReport) -> usize {
        let mut tail = Vec::new();
        tail.push(r.stats.bound.kind.code());
        put_uvarint(&mut tail, r.stats.bound.value);
        put_uvarint(&mut tail, r.stats.bound.ascent_iters);
        put_uvarint(&mut tail, r.stats.bound.time_us);
        tail.len()
    }

    #[test]
    fn round_trip_is_identity() {
        for strategy in [Strategy::Auto, Strategy::Exact, Strategy::Greedy] {
            let report = sample_report(strategy);
            let bytes = report.to_bytes();
            let back = SolveReport::from_bytes(&bytes).expect("decodes");
            assert_eq!(back, report, "struct round trip");
            assert_eq!(back.to_json(), report.to_json(), "json round trip");
            assert_eq!(back.to_bytes(), bytes, "byte round trip");
        }
    }

    #[test]
    fn binary_is_smaller_than_json() {
        let report = sample_report(Strategy::Auto);
        assert!(
            report.to_bytes().len() * 2 < report.to_json().len(),
            "binary ({}) should be well under half of JSON ({})",
            report.to_bytes().len(),
            report.to_json().len()
        );
    }

    #[test]
    fn truncation_at_every_prefix_fails_cleanly() {
        let bytes = sample_report(Strategy::Auto).to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                SolveReport::from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = sample_report(Strategy::Greedy).to_bytes();
        bytes.push(0);
        assert!(SolveReport::from_bytes(&bytes).is_err());
    }

    #[test]
    fn unknown_version_and_strategy_rejected() {
        let mut bytes = sample_report(Strategy::Greedy).to_bytes();
        bytes[0] = 99;
        assert!(report_from_bytes(&bytes).is_err());
        bytes[0] = 0; // below the minimum version
        assert!(report_from_bytes(&bytes).is_err());
        bytes[0] = REPORT_CODEC_VERSION;
        bytes[1] = 200; // strategy code out of range
        assert!(report_from_bytes(&bytes).is_err());
    }

    /// Versioned decode: version-1 records (pre-anytime, no `timed_out`
    /// byte), version-2 records (pre-trace, no phase tail), version-3
    /// records (pre-oracle, no oracle tail), and version-4 records
    /// (pre-ladder, no bound tail) must still decode — reading
    /// `timed_out = false`, `phases = []`, `oracle = None`, and a
    /// degree-kind bound respectively — and re-encode as equivalent
    /// current-version records.
    #[test]
    fn older_version_records_still_decode() {
        let report = sample_report(Strategy::Auto);
        assert!(!report.stats.timed_out, "deadline-free sample");
        assert!(report.stats.phases.is_empty(), "untraced sample");
        assert!(report.stats.oracle.is_none(), "matrix-path sample");
        let v5 = report.to_bytes();
        assert_eq!(v5[0], REPORT_CODEC_VERSION);
        // Pre-v5 records have no certificate attribution, so they decode
        // to this degraded twin: the recorded lower bound on the ladder's
        // weakest (always-true) rung.
        let mut degraded = report.clone();
        degraded.stats.bound = BoundStats {
            kind: BoundKind::Degree,
            value: report.lower_bound,
            ascent_iters: 0,
            time_us: 0,
        };
        let upgraded = degraded.to_bytes();
        assert_eq!(upgraded[0], REPORT_CODEC_VERSION);
        // A v4 record is the v5 record minus the bound tail.
        let mut v4 = v5[..v5.len() - bound_tail_len(&report)].to_vec();
        v4[0] = 4;
        let decoded = SolveReport::from_bytes(&v4).expect("v4 decodes");
        assert_eq!(decoded, degraded);
        assert_eq!(decoded.stats.bound.kind, BoundKind::Degree);
        assert_eq!(decoded.stats.bound.value, report.lower_bound);
        assert_eq!(decoded.to_bytes(), upgraded, "re-encode upgrades to v5");
        // A matrix-path v4 record's oracle tail is exactly one zero
        // presence byte; stripping it (and restamping) is exactly what
        // PR 7–8 archives hold as v3.
        assert_eq!(*v4.last().unwrap(), 0, "empty oracle tail");
        let mut v3 = v4[..v4.len() - 1].to_vec();
        v3[0] = 3;
        let decoded = SolveReport::from_bytes(&v3).expect("v3 decodes");
        assert_eq!(decoded, degraded);
        assert!(decoded.stats.oracle.is_none());
        assert_eq!(decoded.to_bytes(), upgraded, "re-encode upgrades to v5");
        // An untraced v3 record's phase tail is one zero-count byte; v2
        // drops it.
        assert_eq!(*v3.last().unwrap(), 0, "empty phase tail");
        let mut v2 = v3[..v3.len() - 1].to_vec();
        v2[0] = 2;
        let decoded = SolveReport::from_bytes(&v2).expect("v2 decodes");
        assert_eq!(decoded, degraded);
        assert!(decoded.stats.phases.is_empty());
        assert_eq!(decoded.to_bytes(), upgraded, "re-encode upgrades to v5");
        // A v1 record further drops the timed_out byte.
        let mut v1 = v2[..v2.len() - 1].to_vec();
        v1[0] = 1;
        let decoded = SolveReport::from_bytes(&v1).expect("v1 decodes");
        assert_eq!(decoded, degraded);
        assert!(!decoded.stats.timed_out);
        assert_eq!(decoded.to_bytes(), upgraded, "re-encode upgrades to v5");
        // Strictness survives the versioning: stray trailing bytes on the
        // old layouts are still rejected.
        for old in [&v1, &v2, &v3, &v4] {
            let mut trailing = old.clone();
            trailing.push(7);
            assert!(SolveReport::from_bytes(&trailing).is_err());
        }
    }

    /// The v5 bound tail round-trips nontrivial values and rejects
    /// unknown kind codes.
    #[test]
    fn bound_tail_round_trips() {
        let mut report = sample_report(Strategy::Auto);
        report.optimal = false;
        report.lower_bound = 7;
        report.stats.bound = BoundStats {
            kind: BoundKind::HkAscent,
            value: 7,
            ascent_iters: 23,
            time_us: 1_234,
        };
        let bytes = report.to_bytes();
        let back = SolveReport::from_bytes(&bytes).expect("decodes");
        assert_eq!(back, report);
        assert_eq!(back.to_bytes(), bytes);
        // The kind byte is the first of the tail; an unassigned code
        // fails loudly rather than mis-attributing the certificate.
        let kind_at = bytes.len() - bound_tail_len(&report);
        assert_eq!(bytes[kind_at], BoundKind::HkAscent.code());
        let mut bad = bytes.clone();
        bad[kind_at] = 99;
        assert!(SolveReport::from_bytes(&bad).is_err());
    }

    /// The v4 oracle tail round-trips for both backends, and its strict
    /// decode rejects unknown backend codes.
    #[test]
    fn oracle_tail_round_trips() {
        use crate::request::OraclePolicy;
        for policy in [OraclePolicy::Dense, OraclePolicy::Hub] {
            let report = solve(
                &SolveRequest::new(classic::petersen(), PVec::l21())
                    .with_strategy(Strategy::OraclePath)
                    .with_oracle(policy),
            )
            .expect("oracle path solves");
            let o = report.stats.oracle.as_ref().expect("oracle stats present");
            assert_eq!(o.backend, policy.name());
            let bytes = report.to_bytes();
            let back = SolveReport::from_bytes(&bytes).expect("decodes");
            assert_eq!(back, report);
            assert_eq!(back.to_bytes(), bytes);
            // Corrupting the backend code inside the tail fails loudly.
            // Locate the tail by encoding the same report without oracle
            // stats: that record ends at the presence byte followed by
            // the bound tail.
            let mut stripped = report.clone();
            stripped.stats.oracle = None;
            let presence = stripped.to_bytes().len() - 1 - bound_tail_len(&stripped);
            assert_eq!(bytes[presence], 1, "presence byte");
            let mut bad = bytes.clone();
            bad[presence + 1] = 9;
            assert!(SolveReport::from_bytes(&bad).is_err());
        }
    }

    #[test]
    fn phase_tail_round_trips() {
        let mut report = sample_report(Strategy::Auto);
        report.stats.phases = vec![
            crate::report::PhaseStat {
                name: "reduce".into(),
                calls: 1,
                total_us: 1200,
            },
            crate::report::PhaseStat {
                name: "lk".into(),
                calls: 4,
                total_us: 98_765,
            },
        ];
        let bytes = report.to_bytes();
        let back = SolveReport::from_bytes(&bytes).expect("decodes");
        assert_eq!(back, report);
        assert_eq!(back.to_bytes(), bytes);
        // Truncating anywhere inside the phase tail fails cleanly.
        let untraced_len = {
            let mut r = report.clone();
            r.stats.phases.clear();
            r.to_bytes().len()
        };
        for cut in untraced_len..bytes.len() {
            assert!(
                SolveReport::from_bytes(&bytes[..cut]).is_err(),
                "phase-tail prefix of {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn timed_out_flag_round_trips() {
        let mut report = sample_report(Strategy::Auto);
        report.stats.timed_out = true;
        let bytes = report.to_bytes();
        let back = SolveReport::from_bytes(&bytes).expect("decodes");
        assert!(back.stats.timed_out);
        assert_eq!(back, report);
        // The flag byte is strict: 2 is not a bool. The flag sits just
        // before the (empty) phase tail, oracle presence byte, and bound
        // tail that close an untraced matrix-path record.
        let flag_at = bytes.len() - 3 - bound_tail_len(&report);
        assert_eq!(bytes[flag_at], 1, "timed_out flag byte");
        let mut bad = bytes.clone();
        bad[flag_at] = 2;
        assert!(SolveReport::from_bytes(&bad).is_err());
    }

    #[test]
    fn varints_round_trip_at_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_uvarint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }
}
