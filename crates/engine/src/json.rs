//! Minimal JSON emission and parsing (no external crates in this
//! workspace): a small object/array builder producing deterministic field
//! order — which is what lets `solve_batch` output be compared bit-for-bit
//! across thread counts — plus a strict recursive-descent reader
//! ([`parse`]) for the tools that consume our own output (the CI bench
//! regression gate reads committed `BENCH_*.json` baselines with it).

use dclab_trace::export::json_escape;

/// Incremental JSON object writer with insertion-ordered fields.
pub struct Obj {
    buf: String,
    first: bool,
}

impl Obj {
    pub fn new() -> Obj {
        Obj {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, k: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push('"');
        self.buf.push_str(&json_escape(k));
        self.buf.push_str("\":");
    }

    /// Raw pre-serialized JSON value (nested object/array).
    pub fn raw(mut self, k: &str, v: &str) -> Obj {
        self.key(k);
        self.buf.push_str(v);
        self
    }

    pub fn str(self, k: &str, v: &str) -> Obj {
        let quoted = format!("\"{}\"", json_escape(v));
        self.raw(k, &quoted)
    }

    pub fn u64(self, k: &str, v: u64) -> Obj {
        let s = v.to_string();
        self.raw(k, &s)
    }

    pub fn usize(self, k: &str, v: usize) -> Obj {
        self.u64(k, v as u64)
    }

    pub fn bool(self, k: &str, v: bool) -> Obj {
        self.raw(k, if v { "true" } else { "false" })
    }

    /// `null`-able u64 (e.g. a diameter that may not exist).
    pub fn opt_u64(self, k: &str, v: Option<u64>) -> Obj {
        match v {
            Some(v) => self.u64(k, v),
            None => self.raw(k, "null"),
        }
    }

    pub fn f64(self, k: &str, v: f64) -> Obj {
        // Fixed precision keeps output deterministic and diff-friendly.
        let s = format!("{v:.6}");
        self.raw(k, &s)
    }

    pub fn u64_array(self, k: &str, vs: impl IntoIterator<Item = u64>) -> Obj {
        let body = vs
            .into_iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(",");
        self.raw(k, &format!("[{body}]"))
    }

    pub fn str_array<'a>(self, k: &str, vs: impl IntoIterator<Item = &'a str>) -> Obj {
        let body = vs
            .into_iter()
            .map(|v| format!("\"{}\"", json_escape(v)))
            .collect::<Vec<_>>()
            .join(",");
        self.raw(k, &format!("[{body}]"))
    }

    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

impl Default for Obj {
    fn default() -> Self {
        Obj::new()
    }
}

/// Serialize a sequence of pre-serialized JSON values as an array.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    let body = items.into_iter().collect::<Vec<_>>().join(",");
    format!("[{body}]")
}

/// A parsed JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// All JSON numbers as `f64` (plenty for bench metrics and reports).
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    /// Insertion-ordered (matches the emitter; lookups are linear, which
    /// is fine at the sizes we parse).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup (`None` on non-objects or missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Walk a `.`-separated path of object fields.
    pub fn path(&self, path: &str) -> Option<&Value> {
        path.split('.').try_fold(self, |v, key| v.get(key))
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parse one JSON document (the whole string must be consumed, modulo
/// trailing whitespace).
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("byte {pos}: trailing content after document"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&byte) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("byte {}: expected '{}'", *pos, byte as char))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(format!("byte {}: unexpected end of input", *pos)),
        Some(b'{') => parse_obj(bytes, pos),
        Some(b'[') => parse_arr(bytes, pos),
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Value::Null),
        Some(_) => parse_num(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("byte {}: expected '{lit}'", *pos))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Value::Num)
        .ok_or_else(|| format!("byte {start}: invalid number"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(format!("byte {}: unterminated string", *pos)),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = bytes
                    .get(*pos)
                    .ok_or_else(|| format!("byte {}: dangling escape", *pos))?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| format!("byte {}: truncated \\u escape", *pos))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("byte {}: bad \\u escape", *pos))?;
                        *pos += 4;
                        // Surrogates are not emitted by our writer; map
                        // anything unpairable to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => {
                        return Err(format!(
                            "byte {}: unknown escape '{}'",
                            *pos, *other as char
                        ))
                    }
                }
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte sequences included).
                let rest = std::str::from_utf8(&bytes[*pos..])
                    .map_err(|_| format!("byte {}: invalid utf-8", *pos))?;
                let c = rest.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("byte {}: expected ',' or ']'", *pos)),
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            _ => return Err(format!("byte {}: expected ',' or '}}'", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_shape_and_escaping() {
        let j = Obj::new()
            .str("name", "a\"b\\c\nd")
            .u64("n", 7)
            .bool("ok", true)
            .opt_u64("diam", None)
            .u64_array("xs", [1, 2, 3])
            .str_array("routes", ["exact", "greedy"])
            .finish();
        assert_eq!(
            j,
            r#"{"name":"a\"b\\c\nd","n":7,"ok":true,"diam":null,"xs":[1,2,3],"routes":["exact","greedy"]}"#
        );
    }

    #[test]
    fn nested_and_array() {
        let inner = Obj::new().u64("x", 1).finish();
        let j = Obj::new().raw("inner", &inner).finish();
        assert_eq!(j, r#"{"inner":{"x":1}}"#);
        assert_eq!(array(["1".into(), "2".into()]), "[1,2]");
    }

    #[test]
    fn parser_reads_what_the_emitter_writes() {
        let doc = Obj::new()
            .str("name", "a\"b\\c\nd")
            .u64("n", 7)
            .f64("rate", 0.25)
            .bool("ok", true)
            .opt_u64("diam", None)
            .u64_array("xs", [1, 2, 3])
            .raw("inner", &Obj::new().u64("x", 1).finish())
            .finish();
        let v = parse(&doc).expect("parses");
        assert_eq!(v.get("name").unwrap().as_str(), Some("a\"b\\c\nd"));
        assert_eq!(v.get("n").unwrap().as_f64(), Some(7.0));
        assert_eq!(v.get("rate").unwrap().as_f64(), Some(0.25));
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(v.get("diam"), Some(&Value::Null));
        assert_eq!(v.get("xs").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.path("inner.x").unwrap().as_f64(), Some(1.0));
        assert_eq!(v.path("inner.missing"), None);
    }

    #[test]
    fn parser_handles_bench_shapes_and_rejects_garbage() {
        let bench = r#"{"bench":"e11","results":[{"id":"a/1","mean_ns":5281300.7},
                        {"id":"b/2","mean_ns":-1.5e3}]}"#;
        let v = parse(bench).expect("parses");
        let results = v.get("results").unwrap().as_arr().unwrap();
        assert_eq!(results[0].get("mean_ns").unwrap().as_f64(), Some(5281300.7));
        assert_eq!(results[1].get("mean_ns").unwrap().as_f64(), Some(-1500.0));
        assert!(parse("{\"a\":1").is_err(), "unterminated object");
        assert!(parse("[1,2] extra").is_err(), "trailing content");
        assert!(parse("{'a':1}").is_err(), "single quotes are not JSON");
        assert!(parse("").is_err());
        // Whitespace-tolerant, including around separators and EOF.
        assert_eq!(
            parse(" [ 1 , 2 ] \n").unwrap(),
            Value::Arr(vec![Value::Num(1.0), Value::Num(2.0)])
        );
    }
}
