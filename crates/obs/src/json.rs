//! The workspace's one JSON serializer and parser.
//!
//! Vendored-deps-only means no serde; every machine-readable surface
//! (Chrome traces, `flor store stats --json`, `flor runs show --json`,
//! the `metrics` serve verb, `MetricSnapshot::to_json`) goes through
//! [`JsonWriter`], and tests/validators read it back with [`parse`] — one
//! serializer, so the pretty printers and the JSON forms cannot drift
//! apart structurally.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Incremental JSON writer: explicit `begin`/`end` for containers, comma
/// placement handled internally.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// One entry per open container: true once it has a first element.
    has_elem: Vec<bool>,
}

impl JsonWriter {
    /// Empty writer.
    pub fn new() -> Self {
        JsonWriter::default()
    }

    fn pre_value(&mut self) {
        if let Some(has) = self.has_elem.last_mut() {
            if *has {
                self.out.push(',');
            }
            *has = true;
        }
    }

    /// Opens an object (`{`).
    pub fn begin_obj(&mut self) {
        self.pre_value();
        self.out.push('{');
        self.has_elem.push(false);
    }

    /// Closes the innermost object.
    pub fn end_obj(&mut self) {
        self.has_elem.pop();
        self.out.push('}');
    }

    /// Opens an array (`[`).
    pub fn begin_arr(&mut self) {
        self.pre_value();
        self.out.push('[');
        self.has_elem.push(false);
    }

    /// Closes the innermost array.
    pub fn end_arr(&mut self) {
        self.has_elem.pop();
        self.out.push(']');
    }

    /// Writes an object key; follow with exactly one value call.
    pub fn key(&mut self, k: &str) {
        self.pre_value();
        write_escaped(&mut self.out, k);
        self.out.push(':');
        if let Some(has) = self.has_elem.last_mut() {
            // Suppress the comma the following value's pre_value would
            // otherwise add between ':' and the value.
            *has = false;
        }
    }

    /// String value.
    pub(crate) fn str_val(&mut self, v: &str) {
        self.pre_value();
        write_escaped(&mut self.out, v);
    }

    /// Unsigned integer value.
    pub fn u64_val(&mut self, v: u64) {
        self.pre_value();
        let _ = write!(self.out, "{v}");
    }

    /// Float value (finite; NaN/inf serialize as 0 — JSON has no spelling
    /// for them).
    pub(crate) fn f64_val(&mut self, v: f64) {
        self.pre_value();
        if v.is_finite() {
            let _ = write!(self.out, "{v}");
        } else {
            self.out.push('0');
        }
    }

    /// Bool value.
    pub fn bool_val(&mut self, v: bool) {
        self.pre_value();
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// `"k": <u64>` object field.
    pub fn field_u64(&mut self, k: &str, v: u64) {
        self.key(k);
        self.u64_val(v);
    }

    /// `"k": <f64>` object field.
    pub fn field_f64(&mut self, k: &str, v: f64) {
        self.key(k);
        self.f64_val(v);
    }

    /// `"k": "<str>"` object field.
    pub fn field_str(&mut self, k: &str, v: &str) {
        self.key(k);
        self.str_val(v);
    }

    /// The serialized document.
    pub fn finish(self) -> String {
        self.out
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as f64, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion order lost; duplicate keys keep the last).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric value truncated to u64.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().map(|f| f as u64)
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected {:?} at byte {} (found {:?})",
            c as char,
            *pos,
            b.get(*pos).map(|&x| x as char)
        ))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {pos:?}"))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte safe).
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            other => return Err(format!("expected ',' or ']' , found {other:?}")),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos)?;
        map.insert(key, value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            other => return Err(format!("expected ',' or '}}', found {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_nests_and_parses_back() {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.field_str("name", "flor \"obs\"\n");
        w.field_u64("count", 42);
        w.field_f64("ratio", 2.5);
        w.key("items");
        w.begin_arr();
        w.u64_val(1);
        w.u64_val(2);
        w.begin_obj();
        w.field_str("k", "v");
        w.end_obj();
        w.end_arr();
        w.key("empty");
        w.begin_obj();
        w.end_obj();
        w.end_obj();
        let text = w.finish();
        let v = parse(&text).expect("writer output parses");
        assert_eq!(v.get("name").and_then(Json::as_str), Some("flor \"obs\"\n"));
        assert_eq!(v.get("count").and_then(Json::as_u64), Some(42));
        assert_eq!(v.get("ratio").and_then(Json::as_f64), Some(2.5));
        let items = v.get("items").and_then(Json::as_arr).unwrap();
        assert_eq!(items.len(), 3);
        assert_eq!(items[2].get("k").and_then(Json::as_str), Some("v"));
        assert_eq!(v.get("empty"), Some(&Json::Obj(BTreeMap::new())));
    }

    #[test]
    fn parser_accepts_committed_bench_shape() {
        let text = r#"{
            "bench": "replay_sched", "quick": false,
            "schedule": {"skewed_steal_speedup": 2.08, "delta": -0.004},
            "lanes": [0, 1, 2]
        }"#;
        let v = parse(text).unwrap();
        assert_eq!(
            v.get("schedule")
                .and_then(|s| s.get("skewed_steal_speedup"))
                .and_then(Json::as_f64),
            Some(2.08)
        );
        assert_eq!(v.get("quick"), Some(&Json::Bool(false)));
        assert_eq!(
            v.get("lanes").and_then(Json::as_arr).map(<[Json]>::len),
            Some(3)
        );
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"unterminated").is_err());
    }
}
