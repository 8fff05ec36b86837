//! JSON values, serialization, and the derive-free
//! [`ToJson`]/[`FromJson`] trait pair.
//!
//! [`Json::parse`] has no grammar of its own: it parses through
//! [`ZDoc`](crate::zjson::ZDoc), the one JSON parser, and copies the
//! root out. Depth limit, accepted inputs and error wording are
//! `zjson`'s.
//!
//! This replaces the workspace's `serde`/`serde_json` usage. Types that
//! persist (session state, source graphs, wrappers, pattern models)
//! implement the two traits by hand; the representation each type
//! chooses is part of its session-file format.
//!
//! Objects preserve insertion order, so serialization is deterministic:
//! the same state always produces byte-identical session files.

use crate::zjson::ZDoc;
use std::fmt;

/// A JSON document value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (stored as `f64`, like JavaScript).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

/// Parse or conversion failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    msg: String,
}

impl JsonError {
    /// An error with this message.
    pub fn new(msg: impl Into<String>) -> Self {
        Self { msg: msg.into() }
    }

    /// "expected X, got Y" against an actual value.
    pub fn expected(what: &str, got: &Json) -> Self {
        Self::new(format!("expected {what}, got {}", got.kind()))
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.msg)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An object from ordered pairs.
    pub fn obj(pairs: Vec<(String, Json)>) -> Json {
        Json::Obj(pairs)
    }

    /// Short kind name for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Object field lookup that errors (for `FromJson` impls).
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError::new(format!("missing field {key:?}")))
    }

    /// The string slice, when a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, when numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean, when a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, when an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The pairs, when an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(v) => Some(v),
            _ => None,
        }
    }

    /// Compact serialization.
    pub fn to_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Append the compact serialization to an existing buffer — the
    /// allocation-free form of [`Json::to_string`] for callers that
    /// assemble responses in a reused scratch buffer.
    pub fn write_compact(&self, out: &mut String) {
        self.write(out, None, 0);
    }

    /// Human-readable serialization (2-space indent).
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let nl = |out: &mut String, d: usize| {
            if let Some(w) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(w * d));
            }
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(&format_number(*n)),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    nl(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                nl(out, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    nl(out, depth + 1);
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                nl(out, depth);
                out.push('}');
            }
        }
    }

    /// Parse a JSON document. Trailing non-whitespace is an error.
    /// The grammar is [`ZDoc`]'s; this is its owned copy of the root.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        Ok(ZDoc::new().parse(text)?.to_json())
    }
}

/// Non-finite values (unrepresentable in JSON) serialize as `null`
/// like serde_json's lossy float handling; everything else uses Rust's
/// shortest-round-trip formatting, which prints integral values
/// without a fraction (`3`, not `3.0`) and — unlike the old
/// cast-to-`i64` fast path — keeps the sign of `-0.0` (`-0`), so
/// serialize→parse→serialize is byte-identical for every finite
/// number. WAL replay and snapshot diffing rely on that fixpoint.
pub(crate) fn format_number(n: f64) -> String {
    if !n.is_finite() {
        return "null".to_string();
    }
    format!("{n}")
}

/// Append the canonical JSON string literal for `s` (quotes included)
/// — the escaping [`Json::to_string`] uses, exposed for protocol code
/// that serializes into reused buffers.
pub fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_string())
    }
}

impl std::ops::Index<usize> for Json {
    type Output = Json;

    /// Array indexing; out-of-range or non-array yields `Null` (like
    /// `serde_json::Value`).
    fn index(&self, i: usize) -> &Json {
        static NULL: Json = Json::Null;
        match self {
            Json::Arr(v) => v.get(i).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

impl std::ops::Index<&str> for Json {
    type Output = Json;

    /// Object field indexing; missing key or non-object yields `Null`.
    fn index(&self, key: &str) -> &Json {
        static NULL: Json = Json::Null;
        self.get(key).unwrap_or(&NULL)
    }
}

impl PartialEq<&str> for Json {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<Json> for &str {
    fn eq(&self, other: &Json) -> bool {
        other.as_str() == Some(*self)
    }
}

// --- ToJson / FromJson --------------------------------------------------

/// Hand-written serialization to a [`Json`] value (the derive-free
/// counterpart of `serde::Serialize`).
pub trait ToJson {
    /// The JSON representation of `self`.
    fn to_json(&self) -> Json;
}

/// Hand-written reconstruction from a [`Json`] value (the derive-free
/// counterpart of `serde::Deserialize`).
pub trait FromJson: Sized {
    /// Rebuild from a JSON value.
    fn from_json(j: &Json) -> Result<Self, JsonError>;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        Ok(j.clone())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError::expected("string", j))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_bool().ok_or_else(|| JsonError::expected("bool", j))
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl FromJson for f64 {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_f64().ok_or_else(|| JsonError::expected("number", j))
    }
}

macro_rules! impl_json_int {
    ($($t:ty),+ $(,)?) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }

        impl FromJson for $t {
            fn from_json(j: &Json) -> Result<Self, JsonError> {
                let n = j.as_f64().ok_or_else(|| JsonError::expected("number", j))?;
                if n.fract() != 0.0 {
                    return Err(JsonError::new(format!("expected integer, got {n}")));
                }
                // Range-check in f64 before casting. `MIN as f64` is
                // exact for every integer type, and `(MAX as f64) + 1.0`
                // lands exactly one past the type (for the 64-bit types
                // MAX itself rounds *up* to that power of two, so the
                // old cast-then-compare check accepted 2^63/2^64 as a
                // saturated MAX — the wrong value, silently).
                if !(n >= <$t>::MIN as f64 && n < (<$t>::MAX as f64) + 1.0) {
                    return Err(JsonError::new(format!(
                        "integer {n} out of range for {}", stringify!($t)
                    )));
                }
                Ok(n as $t)
            }
        }
    )+};
}

impl_json_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            None => Json::Null,
            Some(v) => v.to_json(),
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j {
            Json::Null => Ok(None),
            other => Ok(Some(T::from_json(other)?)),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        j.as_array()
            .ok_or_else(|| JsonError::expected("array", j))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(j: &Json) -> Result<Self, JsonError> {
        match j.as_array() {
            Some([a, b]) => Ok((A::from_json(a)?, B::from_json(b)?)),
            _ => Err(JsonError::expected("2-element array", j)),
        }
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

/// Serialize any [`ToJson`] value compactly.
pub fn to_string<T: ToJson + ?Sized>(v: &T) -> String {
    v.to_json().to_string()
}

/// Serialize any [`ToJson`] value with indentation.
pub fn to_string_pretty<T: ToJson + ?Sized>(v: &T) -> String {
    v.to_json().to_string_pretty()
}

/// Parse and convert in one step.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    T::from_json(&Json::parse(text)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(" -1.5e2 ").unwrap(), Json::Num(-150.0));
        assert_eq!(Json::parse("\"a\\nb\"").unwrap(), Json::str("a\nb"));
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "nulL", "1 2", "\"unterminated"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn unicode_escapes_roundtrip() {
        let v = Json::parse("\"caf\\u00e9 \\ud83d\\ude00\"").unwrap();
        assert_eq!(v, Json::str("café 😀"));
    }

    #[test]
    fn escaping_roundtrips() {
        let original = Json::str("quote \" slash \\ newline \n tab \t ctrl \u{01} ok");
        let parsed = Json::parse(&original.to_string()).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn object_order_is_preserved() {
        let j = Json::parse(r#"{"z": 1, "a": 2, "m": 3}"#).unwrap();
        let keys: Vec<&str> = j
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, vec!["z", "a", "m"]);
    }

    #[test]
    fn pretty_form_reparses() {
        let j = Json::parse(r#"{"rows": [["a", 1], ["b", 2]], "n": 2, "empty": [], "eo": {}}"#)
            .unwrap();
        assert_eq!(Json::parse(&j.to_string_pretty()).unwrap(), j);
        assert_eq!(Json::parse(&j.to_string()).unwrap(), j);
    }

    #[test]
    fn numbers_format_like_serde_json() {
        assert_eq!(Json::Num(3.0).to_string(), "3");
        assert_eq!(Json::Num(3.25).to_string(), "3.25");
        assert_eq!(Json::Num(-0.5).to_string(), "-0.5");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn negative_zero_keeps_its_sign() {
        let s = Json::Num(-0.0).to_string();
        assert_eq!(s, "-0");
        let back = Json::parse(&s).unwrap().as_f64().unwrap();
        assert!(back == 0.0 && back.is_sign_negative(), "sign lost: {back}");
        // The serialization fixpoint the WAL relies on.
        assert_eq!(Json::Num(back).to_string(), s);
    }

    #[test]
    fn sixty_four_bit_saturation_edges_are_rejected() {
        // 2^63 *is* `i64::MAX as f64`: the cast saturates to MAX, which
        // round-trips back to 2^63 — so the old cast-then-compare check
        // accepted the wrong value. Same story for u64 at 2^64.
        assert!(i64::from_json(&Json::Num(9_223_372_036_854_775_808.0)).is_err());
        assert!(u64::from_json(&Json::Num(18_446_744_073_709_551_616.0)).is_err());
        assert!(u64::from_json(&Json::Num(1e300)).is_err());
        // The exact boundaries that ARE representable still convert.
        assert_eq!(
            i64::from_json(&Json::Num(-9_223_372_036_854_775_808.0)).unwrap(),
            i64::MIN
        );
        // Largest f64 below 2^63 / 2^64 (2^63 - 1024, 2^64 - 2048).
        assert_eq!(
            i64::from_json(&Json::Num(9_223_372_036_854_774_784.0)).unwrap(),
            9_223_372_036_854_774_784
        );
        assert_eq!(
            u64::from_json(&Json::Num(18_446_744_073_709_549_568.0)).unwrap(),
            18_446_744_073_709_549_568
        );
        // -0.0 is integral zero, not out of range, for every width.
        assert_eq!(u64::from_json(&Json::Num(-0.0)).unwrap(), 0);
        assert_eq!(u8::from_json(&Json::Num(255.0)).unwrap(), 255);
        assert!(u8::from_json(&Json::Num(256.0)).is_err());
    }

    #[test]
    fn huge_exponents_are_rejected_at_parse() {
        // `f64::parse` turns these into ±inf; accepting them would
        // produce a Num that serializes as `null` and changes shape.
        for bad in ["1e999", "-1e999", "1e309", "[1e400]"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        // Underflow collapses to zero, which is finite and fine.
        assert_eq!(Json::parse("1e-999").unwrap(), Json::Num(0.0));
    }

    #[test]
    fn prop_number_serialization_is_a_fixpoint() {
        use crate::check::{check, Gen};
        use crate::{prop_ensure, prop_ensure_eq};
        check("json_number_fixpoint", 400, &[], |g: &mut Gen| {
            // Span the grammar: small ints, 2^53-adjacent ints, large
            // exactly-representable ints, fractions, extreme magnitudes.
            let n: f64 = match g.usize_in(0..6) {
                0 => g.i64_in(-1_000_000..1_000_000) as f64,
                1 => {
                    let sign = if g.bool_p(0.5) { -1.0 } else { 1.0 };
                    g.u64_in(0..(1u64 << 53)) as f64 * sign
                }
                2 => {
                    // Beyond 2^53 but exact: a 53-bit mantissa shifted.
                    let shift = g.usize_in(1..11) as u32;
                    (g.u64_in(0..(1u64 << 53)) << shift) as f64
                }
                3 => g.f64_in(-1.0e9..1.0e9),
                4 => g.f64_in(-1.0..1.0) * 1.0e-12,
                _ => g.f64_in(-1.0..1.0) * 1.0e18,
            };
            let s = Json::Num(n).to_string();
            let back = Json::parse(&s)
                .map_err(|e| e.to_string())?
                .as_f64()
                .ok_or("reparse was not a number")?;
            prop_ensure!(
                back == n && back.is_sign_negative() == n.is_sign_negative(),
                "{n} -> {s} -> {back}"
            );
            // Fixpoint: the second serialization is byte-identical.
            prop_ensure_eq!(Json::Num(back).to_string(), s);
            Ok(())
        });
    }

    #[test]
    fn prop_exact_integers_roundtrip_through_int_conversions() {
        use crate::check::{check, Gen};
        use crate::prop_ensure_eq;
        check("json_int_roundtrip", 300, &[], |g: &mut Gen| {
            // Every |v| <= 2^53 is exactly representable as f64.
            let v = g.i64_in(-(1i64 << 53)..(1i64 << 53) + 1);
            let s = v.to_json().to_string();
            let parsed = Json::parse(&s).map_err(|e| e.to_string())?;
            prop_ensure_eq!(i64::from_json(&parsed).map_err(|e| e.to_string())?, v);
            if v >= 0 {
                prop_ensure_eq!(
                    u64::from_json(&parsed).map_err(|e| e.to_string())?,
                    v as u64
                );
            }
            Ok(())
        });
    }

    #[test]
    fn indexing_is_total() {
        let j = Json::parse(r#"{"a": [10, 20]}"#).unwrap();
        assert_eq!(j["a"][1], Json::Num(20.0));
        assert_eq!(j["missing"], Json::Null);
        assert_eq!(j["a"][99], Json::Null);
        assert_eq!(j["a"]["not-an-object"], Json::Null);
    }

    #[test]
    fn primitive_conversions_roundtrip() {
        let cases: Vec<(Json, bool)> = vec![
            (42usize.to_json(), true),
            ((-7i64).to_json(), true),
            (1.5f64.to_json(), true),
            ("hello".to_json(), true),
            (Some("x".to_string()).to_json(), true),
            (Option::<String>::None.to_json(), true),
        ];
        for (j, _) in cases {
            assert_eq!(Json::parse(&j.to_string()).unwrap(), j);
        }
        assert_eq!(usize::from_json(&Json::Num(42.0)).unwrap(), 42);
        assert!(usize::from_json(&Json::Num(1.5)).is_err());
        assert!(usize::from_json(&Json::Num(-1.0)).is_err());
        assert!(u8::from_json(&Json::Num(300.0)).is_err());
        let pairs: Vec<(String, usize)> =
            from_str(r#"[["a", 1], ["b", 2]]"#).unwrap();
        assert_eq!(pairs, vec![("a".to_string(), 1), ("b".to_string(), 2)]);
    }

    #[test]
    fn deep_nesting_is_rejected_not_overflowed() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        for depth in [130, 200, 500] {
            let err = Json::parse(&nested(depth)).unwrap_err();
            assert_eq!(err.to_string(), "json error: nesting too deep at byte 129");
        }
        for depth in [100, 129] {
            assert_eq!(Json::parse(&nested(depth)).unwrap().to_string(), nested(depth));
        }
    }
}
