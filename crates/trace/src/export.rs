//! Trace rendering: the span-tree JSON served by `/debug/traces/<id>` and
//! written by `dclab solve --trace`, plus Chrome `trace_event` export.
//!
//! The crate stays std-only, so the workspace's one JSON string escaper,
//! [`json_escape`], lives here: the engine's JSON writer and the serve
//! tier call it too.

use crate::SolveTrace;

/// Escape a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl SolveTrace {
    /// Render the full span tree as JSON: trace header plus a flat span
    /// array (sorted by start) carrying explicit `parent` links.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.spans.len() * 96);
        out.push_str(&format!(
            "{{\"id\":\"{}\",\"label\":\"{}\",\"total_us\":{},\"spans\":[",
            json_escape(&self.id),
            json_escape(&self.label),
            self.total_us
        ));
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{},\"dur_us\":{},\"tid\":{}",
                s.id,
                s.parent,
                json_escape(s.name),
                s.start_us,
                s.dur_us,
                s.tid
            ));
            if !s.detail.is_empty() {
                out.push_str(&format!(",\"detail\":\"{}\"", json_escape(&s.detail)));
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// One-line summary object (for trace listings).
    pub fn summary_json(&self) -> String {
        format!(
            "{{\"id\":\"{}\",\"label\":\"{}\",\"total_us\":{},\"spans\":{}}}",
            json_escape(&self.id),
            json_escape(&self.label),
            self.total_us,
            self.spans.len()
        )
    }

    /// Render as Chrome `trace_event` JSON (the object form with a
    /// `traceEvents` array), loadable in `chrome://tracing` and Perfetto.
    ///
    /// Spans become complete (`"ph":"X"`) events on their recording
    /// thread's track; zero-duration checkpoints become instant events
    /// (`"ph":"i"`). Timestamps are already µs, the format's native unit.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.spans.len() * 128);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        out.push_str(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{{\"name\":\"dclab solve {}\"}}}}",
            json_escape(&self.id)
        ));
        for s in &self.spans {
            out.push(',');
            if s.dur_us == 0 {
                out.push_str(&format!(
                    "{{\"name\":\"{}\",\"cat\":\"solve\",\"ph\":\"i\",\"s\":\"t\",\
                     \"ts\":{},\"pid\":1,\"tid\":{},\"args\":{{\"detail\":\"{}\"}}}}",
                    json_escape(s.name),
                    s.start_us,
                    s.tid,
                    json_escape(&s.detail)
                ));
            } else {
                out.push_str(&format!(
                    "{{\"name\":\"{}\",\"cat\":\"solve\",\"ph\":\"X\",\"ts\":{},\
                     \"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{\"detail\":\"{}\"}}}}",
                    json_escape(s.name),
                    s.start_us,
                    s.dur_us,
                    s.tid,
                    json_escape(&s.detail)
                ));
            }
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Span;

    fn sample() -> SolveTrace {
        SolveTrace {
            id: "req-1".into(),
            label: "lk".into(),
            total_us: 1500,
            seq: 0,
            spans: vec![
                Span {
                    id: 1,
                    parent: 0,
                    name: "solve",
                    detail: String::new(),
                    start_us: 0,
                    dur_us: 1400,
                    tid: 1,
                },
                Span {
                    id: 2,
                    parent: 1,
                    name: "lk",
                    detail: "kicks=3 \"quoted\"\nline".into(),
                    start_us: 100,
                    dur_us: 0,
                    tid: 2,
                },
            ],
        }
    }

    #[test]
    fn escape_handles_quotes_backslash_newline() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn to_json_links_parents_and_escapes_detail() {
        let j = sample().to_json();
        assert!(j.contains("\"id\":\"req-1\""));
        assert!(j.contains("\"parent\":1"));
        assert!(j.contains("kicks=3 \\\"quoted\\\"\\nline"));
        assert!(!j.contains('\n'));
    }

    #[test]
    fn chrome_export_has_complete_and_instant_events() {
        let j = sample().to_chrome_json();
        assert!(j.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(j.contains("\"ph\":\"X\""));
        assert!(j.contains("\"ph\":\"i\""));
        assert!(j.contains("\"dur\":1400"));
        assert!(j.ends_with("]}"));
    }
}
