//! Wire schema **v2** for the query surface — the serialization layer the
//! `minex-serve` daemon and its clients speak.
//!
//! Everything here is hand-rolled on a dependency-free [`JsonValue`] model
//! (the repository vendors no serde), which also writes every line of
//! [`SessionTrace::to_jsonl`](crate::solver::SessionTrace::to_jsonl):
//! deterministic field order, compact output, byte-identical from run to
//! run.
//!
//! # Schema v2
//!
//! All objects are emitted with the exact field order documented below;
//! parsers accept any field order and ignore unknown fields (forward
//! compatibility within v2). v2 differs from v1 in one place: a report
//! run no longer carries the display `label` — its structured `tags` are
//! the run's identity.
//!
//! * **Session upload** — the `POST /v1/sessions` body:
//!   `{"graph":{"n":n,"edges":[[u,v,w],…]},"parts":P,"builder":B,
//!   "bandwidth":b,"max_rounds":r,"trace":t}`. Only `graph` is required.
//!   Each edge is a `[u, v, weight]` triple of integers; edges must be
//!   unique and loop-free, and their ids are their rank in sorted
//!   `(min(u,v), max(u,v))` order, not their upload order. `parts` is a
//!   `PartsStrategy` (default `singletons`; `explicit` is allowed here),
//!   `builder` one of `steiner`, `whole-tree`, `auto-capped` (the
//!   default), `bandwidth` and `max_rounds` override the CONGEST
//!   configuration, and `trace: true` records a session trace. Unknown
//!   fields, such as the `threads` older clients send, are ignored. The
//!   answer is `{"session":id,"created":b,"nodes":n,"edges":m,
//!   "evicted":[id,…]}`; `created` is `false` when the same graph and
//!   options already have a session.
//! * **`Query`** — the `POST /v1/sessions/{id}/query` body, tagged by
//!   `query`: `{"query":"mst"}`,
//!   `{"query":"min_cut","trees":k,"two_respecting":b}` (a missing
//!   `two_respecting` means `true`; `k` above the session's node count is
//!   a `BAD_QUERY`),
//!   `{"query":"sssp","source":s,"tier":T}`, `{"query":"components"}`,
//!   `{"query":"partwise_min","values":[…],"value_bits":b}`. The daemon
//!   also accepts `{"query":"apply","mutations":[…]}`, which mutates the
//!   session instead of asking it a [`Query`].
//! * **`Tier`** — `{"tier":"exact"}`,
//!   `{"tier":"scaled","epsilon":ε}`,
//!   `{"tier":"shortcut","epsilon":ε,"max_phases":k}`.
//!   `Display` prints the compact form `exact`, `scaled(ε)`,
//!   `shortcut(ε,k)`.
//! * **`PartsStrategy`** — `{"strategy":"singletons"}`,
//!   `{"strategy":"whole"}`,
//!   `{"strategy":"voronoi","parts":p,"seed":s}`,
//!   `{"strategy":"explicit","parts":[[v,…],…]}`.
//!   Explicit partitions validate against a concrete graph, so
//!   [`FromWire`] covers only the graph-free variants; servers use
//!   [`parts_strategy_from_wire`] with the session graph in hand.
//!   `Display` prints the compact form `singletons`, `whole`,
//!   `voronoi(p,s)`, `explicit(k parts)`.
//! * **`EdgeMutation`** — `{"op":"insert","u":u,"v":v,"weight":w}` /
//!   `{"op":"delete","u":u,"v":v}`.
//! * **`Report<T>`** — `{"value":V,"stats":S}` where `S` is `ReportStats`
//!   (`{"simulated_rounds":…,"charged_construction_rounds":…,"runs":[…]}`,
//!   each run `{"tags":{"phase":…,"subphase":…,"attempt":…},
//!   "stats":{"rounds":…,"messages":…,"max_message_bits":…,"total_bits":…},
//!   "repeats":…}`). `Display` prints the compact JSON, which
//!   [`FromWire::from_wire_str`] parses back. A `Report<Answer>` writes
//!   exactly the bytes of the typed report it holds.
//! * **Query values** —
//!   `Mst {"edges":[…],"total_weight":…,"boruvka_phases":…}`;
//!   `MinCut {"approx_value":…,"exact_value":…,"ratio":…,"trees":…}`;
//!   `Sssp {"dist":[…],"detail":…}` with `detail` tagged like `Tier`
//!   (`{"tier":"exact","parent":[…]}` /
//!   `{"tier":"scaled","scale":…,"hop_budget":…}` /
//!   `{"tier":"shortcut","scale":…,"phases":…,"converged":…,
//!   "shortcut_quality":…}`);
//!   `Components {"label":[…],"forest_edges":[…],"boruvka_phases":…}`;
//!   `PartwiseMin {"minima":[…]}`.
//! * **Sentinels** — the unreached-distance sentinel `u64::MAX` (in
//!   `Sssp.dist`, `PartwiseMin.minima` and part-wise query `values`)
//!   serializes as JSON `null` and parses back to `u64::MAX`; `parent`
//!   entries are node ids or `null`.
//! * **Errors** — every error body is `{"code":CODE,"message":…}`,
//!   written by [`error_to_wire`]. [`error_code`] maps an [`AlgoError`] to
//!   its stable code: [`CODE_EMPTY_GRAPH`], [`CODE_DISCONNECTED`],
//!   [`CODE_BAD_QUERY`], [`CODE_SIM_FAILED`]; the serving layer adds
//!   [`CODE_BAD_REQUEST`], [`CODE_NOT_FOUND`], [`CODE_OVERLOADED`],
//!   [`CODE_SHUTTING_DOWN`]. [`http_status`] fixes one HTTP status per
//!   code. A `POST /v1/sessions/{id}/batch` body `{"queries":[…]}`
//!   answers `{"results":[…]}`: one `{"ok":…}` or `{"error":…}` entry per
//!   query.
//!
//! Session traces keep their line-oriented JSONL schema (documented on
//! [`SessionTrace::to_jsonl`](crate::solver::SessionTrace::to_jsonl)); the
//! daemon serves them verbatim.
//!
//! ```
//! use minex_algo::solver::{Query, Tier};
//! use minex_algo::wire::{FromWire, JsonValue, ToWire};
//!
//! let tier = Tier::Shortcut { epsilon: 0.5, max_phases: 40 };
//! let json = tier.to_wire().to_string();
//! assert_eq!(json, r#"{"tier":"shortcut","epsilon":0.5,"max_phases":40}"#);
//! assert_eq!(Tier::from_wire(&JsonValue::parse(&json)?)?, tier);
//! assert_eq!(tier.to_string(), "shortcut(0.5,40)");
//! // Today's min-cut body: `two_respecting` defaults to true.
//! let query = Query::from_wire_str(r#"{"query":"min_cut","trees":1}"#)?;
//! assert_eq!(query, Query::MinCut { trees: 1, two_respecting: true });
//! # Ok::<(), minex_algo::wire::WireError>(())
//! ```

use std::fmt;

use minex_congest::{PhaseLabel, RunStats};
use minex_core::{Partition, PlanRepairStats};
use minex_graphs::{EdgeMutation, Graph};

use crate::solver::{
    AlgoError, Answer, Components, MinCut, Mst, PartsStrategy, PartwiseMin, PhaseRun, Query,
    RepairStats, Report, ReportStats, SessionCounters, Sssp, SsspDetail, Tier,
};

/// The schema version this module implements; servers advertise it and
/// clients pin it.
pub const WIRE_VERSION: u32 = 2;

/// Maximum nesting depth [`JsonValue::parse`] accepts — a daemon-facing
/// guard against stack exhaustion from adversarial payloads.
const MAX_DEPTH: usize = 128;

// ---------------------------------------------------------------------------
// Error type
// ---------------------------------------------------------------------------

/// A wire-layer failure: malformed JSON, a schema mismatch, or a value a
/// field cannot hold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    msg: String,
}

impl WireError {
    /// A new error with the given message.
    pub fn new(msg: impl Into<String>) -> Self {
        WireError { msg: msg.into() }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------------
// JSON value model
// ---------------------------------------------------------------------------

/// A parsed JSON document.
///
/// Numbers keep full `u64` precision (edge weights and distances exceed
/// `2^53`): non-negative integers parse to [`UInt`](JsonValue::UInt),
/// negative integers to [`Int`](JsonValue::Int), and anything with a
/// fraction or exponent to [`Float`](JsonValue::Float). Objects preserve
/// insertion order so serialization is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer, exact up to `u64::MAX`.
    UInt(u64),
    /// A negative integer.
    Int(i64),
    /// A number with a fractional part or exponent.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, as ordered key/value pairs.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses one JSON document (trailing whitespace allowed, trailing
    /// garbage rejected).
    pub fn parse(text: &str) -> Result<JsonValue, WireError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(WireError::new(format!(
                "trailing characters at byte {}",
                p.pos
            )));
        }
        Ok(v)
    }

    /// Looks up `key` in an object; `None` for missing keys and
    /// non-objects.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a `usize`, if it is a non-negative integer that fits.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|x| usize::try_from(x).ok())
    }

    /// The value as an `f64` (any numeric variant).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::UInt(x) => Some(*x as f64),
            JsonValue::Int(x) => Some(*x as f64),
            JsonValue::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The value as a `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Whether the value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }

    /// Serializes compactly (no whitespace) into `out`.
    pub fn write(&self, out: &mut String) {
        use std::fmt::Write as _;
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::UInt(x) => {
                let _ = write!(out, "{x}");
            }
            JsonValue::Int(x) => {
                let _ = write!(out, "{x}");
            }
            JsonValue::Float(x) => {
                // JSON has no NaN/Infinity; the schema maps them to null.
                if x.is_finite() {
                    // `{:?}` is the shortest representation that parses
                    // back to the same bits, and always keeps a marker
                    // (`.0` or an exponent) that re-parses as Float.
                    let _ = write!(out, "{x:?}");
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => {
                out.push('"');
                out.push_str(&json_escape(s));
                out.push('"');
            }
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Object(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&json_escape(k));
                    out.push_str("\":");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for JsonValue {
    /// The compact serialization of [`JsonValue::write`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// Minimal JSON string escaping (quotes, backslashes, control characters).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

/// Builds a [`JsonValue::Object`] from `(key, value)` pairs, preserving
/// order.
pub fn obj(fields: impl IntoIterator<Item = (&'static str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn fail(&self, msg: &str) -> WireError {
        WireError::new(format!("{msg} at byte {}", self.pos))
    }

    fn expect(&mut self, b: u8) -> Result<(), WireError> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.fail(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, WireError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.fail(&format!("expected {lit}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, WireError> {
        if depth > MAX_DEPTH {
            return Err(self.fail("nesting too deep"));
        }
        match self.bytes.get(self.pos) {
            None => Err(self.fail("unexpected end of input")),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'"') => self.string().map(JsonValue::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(JsonValue::Array(items));
                        }
                        _ => return Err(self.fail("expected ',' or ']'")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let v = self.value(depth + 1)?;
                    fields.push((key, v));
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(JsonValue::Object(fields));
                        }
                        _ => return Err(self.fail("expected ',' or '}'")),
                    }
                }
            }
            Some(_) => self.number(),
        }
    }

    fn string(&mut self) -> Result<String, WireError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.fail("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err(self.fail("lone high surrogate"));
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.fail("bad low surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                            } else {
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| self.fail("bad unicode escape"))?);
                            // hex4 advanced pos past the digits already.
                            continue;
                        }
                        _ => return Err(self.fail("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(&b) if b < 0x20 => {
                    return Err(self.fail("unescaped control character"));
                }
                Some(_) => {
                    // Consume a run of plain bytes, validating it once. The
                    // run ends at `"`, `\` or a control byte — all ASCII,
                    // so it ends on a char boundary.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(rest.len());
                    let run = std::str::from_utf8(&rest[..len])
                        .map_err(|_| self.fail("invalid UTF-8"))?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, WireError> {
        let end = self.pos + 4;
        let digits = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| self.fail("truncated \\u escape"))?;
        let s = std::str::from_utf8(digits).map_err(|_| self.fail("bad \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.fail("bad \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<JsonValue, WireError> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.fail("bad number"))?;
        if text.is_empty() || text == "-" {
            return Err(self.fail("expected a value"));
        }
        if float {
            let v: f64 = text
                .parse()
                .map_err(|_| WireError::new(format!("bad number {text:?}")))?;
            Ok(JsonValue::Float(v))
        } else if let Some(neg) = text.strip_prefix('-') {
            let mag: u64 = neg
                .parse()
                .map_err(|_| WireError::new(format!("bad number {text:?}")))?;
            let v = i64::try_from(mag)
                .map(|m| -m)
                .map_err(|_| WireError::new(format!("integer out of range: {text}")))?;
            Ok(JsonValue::Int(v))
        } else {
            let v: u64 = text
                .parse()
                .map_err(|_| WireError::new(format!("bad number {text:?}")))?;
            Ok(JsonValue::UInt(v))
        }
    }
}

// ---------------------------------------------------------------------------
// Codec traits and field rules
// ---------------------------------------------------------------------------

/// Serializes a query-surface type into the v2 wire schema.
pub trait ToWire {
    /// The [`JsonValue`] wire form.
    fn to_wire(&self) -> JsonValue;

    /// The compact JSON text of [`to_wire`](ToWire::to_wire).
    fn to_wire_string(&self) -> String {
        self.to_wire().to_string()
    }
}

/// Deserializes a query-surface type from the v2 wire schema.
pub trait FromWire: Sized {
    /// Parses the wire form; errors carry a field-level message.
    fn from_wire(v: &JsonValue) -> Result<Self, WireError>;

    /// Parses from JSON text ([`JsonValue::parse`] then
    /// [`from_wire`](FromWire::from_wire)).
    fn from_wire_str(text: &str) -> Result<Self, WireError> {
        Self::from_wire(&JsonValue::parse(text)?)
    }
}

/// The encode/decode rule of one field type. Every wire object reads and
/// writes its fields through these rules, so each type's form, its `null`
/// rule and its error message are written once.
pub(crate) trait Field: Sized {
    /// The field's wire value.
    fn encode(&self) -> JsonValue;

    /// Decodes `v`, the value found under `key` (which errors name).
    fn decode(v: &JsonValue, key: &str) -> Result<Self, WireError>;
}

fn want<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, WireError> {
    v.get(key)
        .ok_or_else(|| WireError::new(format!("missing field {key:?}")))
}

/// Decodes field `key` of the object `v` through its type's rule.
fn field<T: Field>(v: &JsonValue, key: &str) -> Result<T, WireError> {
    T::decode(want(v, key)?, key)
}

fn mistyped(key: &str, shape: &str) -> WireError {
    WireError::new(format!("field {key:?} must be {shape}"))
}

/// The tag field that names a tagged enum's variant.
fn tag(key: &'static str, variant: &str) -> (&'static str, JsonValue) {
    (key, JsonValue::Str(variant.to_string()))
}

impl Field for u64 {
    fn encode(&self) -> JsonValue {
        JsonValue::UInt(*self)
    }

    fn decode(v: &JsonValue, key: &str) -> Result<Self, WireError> {
        v.as_u64()
            .ok_or_else(|| mistyped(key, "a non-negative integer"))
    }
}

impl Field for usize {
    fn encode(&self) -> JsonValue {
        JsonValue::UInt(*self as u64)
    }

    fn decode(v: &JsonValue, key: &str) -> Result<Self, WireError> {
        v.as_usize()
            .ok_or_else(|| mistyped(key, "a non-negative integer"))
    }
}

impl Field for f64 {
    fn encode(&self) -> JsonValue {
        JsonValue::Float(*self)
    }

    fn decode(v: &JsonValue, key: &str) -> Result<Self, WireError> {
        v.as_f64().ok_or_else(|| mistyped(key, "a number"))
    }
}

impl Field for bool {
    fn encode(&self) -> JsonValue {
        JsonValue::Bool(*self)
    }

    fn decode(v: &JsonValue, key: &str) -> Result<Self, WireError> {
        v.as_bool().ok_or_else(|| mistyped(key, "a boolean"))
    }
}

impl Field for String {
    fn encode(&self) -> JsonValue {
        JsonValue::Str(self.clone())
    }

    fn decode(v: &JsonValue, key: &str) -> Result<Self, WireError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| mistyped(key, "a string"))
    }
}

/// `None` travels as `null`.
impl<T: Field> Field for Option<T> {
    fn encode(&self) -> JsonValue {
        self.as_ref().map_or(JsonValue::Null, Field::encode)
    }

    fn decode(v: &JsonValue, key: &str) -> Result<Self, WireError> {
        if v.is_null() {
            Ok(None)
        } else {
            T::decode(v, key).map(Some)
        }
    }
}

/// Nested objects travel as their own wire form.
impl<T: ToWire + FromWire> Field for T {
    fn encode(&self) -> JsonValue {
        self.to_wire()
    }

    fn decode(v: &JsonValue, _key: &str) -> Result<Self, WireError> {
        T::from_wire(v)
    }
}

fn elements<'a>(v: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], WireError> {
    v.as_array().ok_or_else(|| mistyped(key, "an array"))
}

/// Arrays travel element by element through the element type's rule.
macro_rules! array_rule {
    ($($elem:ty),+) => {$(
        impl Field for Vec<$elem> {
            fn encode(&self) -> JsonValue {
                JsonValue::Array(self.iter().map(Field::encode).collect())
            }

            fn decode(v: &JsonValue, key: &str) -> Result<Self, WireError> {
                elements(v, key)?
                    .iter()
                    .map(|x| <$elem>::decode(x, key))
                    .collect()
            }
        }
    )+};
}

array_rule!(usize, Option<usize>, Vec<usize>, PhaseRun);

/// A `u64` column's unreached sentinel `u64::MAX` travels as `null`: the
/// `None` rule, with `u64::MAX` standing for `None`.
impl Field for Vec<u64> {
    fn encode(&self) -> JsonValue {
        JsonValue::Array(
            self.iter()
                .map(|&x| (x != u64::MAX).then_some(x).encode())
                .collect(),
        )
    }

    fn decode(v: &JsonValue, key: &str) -> Result<Self, WireError> {
        elements(v, key)?
            .iter()
            .map(|x| {
                Option::<u64>::decode(x, key)
                    .map(|x| x.unwrap_or(u64::MAX))
                    .map_err(|_| WireError::new(format!("{key} must be u64 or null")))
            })
            .collect()
    }
}

/// Declares plain wire objects: each one's fields in wire order, under
/// their Rust names. The one list drives both `ToWire` and `FromWire`,
/// each field through its type's `Field` rule.
macro_rules! wire_objects {
    ($($ty:ident { $($field:ident),+ $(,)? })+) => {$(
        impl ToWire for $ty {
            fn to_wire(&self) -> JsonValue {
                obj([$((stringify!($field), self.$field.encode())),+])
            }
        }

        impl FromWire for $ty {
            fn from_wire(v: &JsonValue) -> Result<Self, WireError> {
                Ok($ty {
                    $($field: field(v, stringify!($field))?),+
                })
            }
        }
    )+};
}

wire_objects! {
    RunStats { rounds, messages, max_message_bits, total_bits }
    PhaseLabel { phase, subphase, attempt }
    PhaseRun { tags, stats, repeats }
    ReportStats { simulated_rounds, charged_construction_rounds, runs }
    SessionCounters {
        queries, memo_hits, memo_misses, plans_built, plan_repairs, parts_rebuilt, parts_reused,
        memos_dropped,
    }
    Mst { edges, total_weight, boruvka_phases }
    MinCut { approx_value, exact_value, ratio, trees }
    Sssp { dist, detail }
    Components { label, forest_edges, boruvka_phases }
    PartwiseMin { minima }
    PlanRepairStats {
        partition_changed, full_rebuild, parts_total, parts_rebuilt, parts_reused,
        tree_changed_nodes,
    }
    RepairStats {
        inserted, deleted, noop, connected, partition_changed, plan_repaired, plan, memos_dropped,
    }
}

// ---------------------------------------------------------------------------
// Tagged enums
// ---------------------------------------------------------------------------

impl ToWire for Tier {
    fn to_wire(&self) -> JsonValue {
        match *self {
            Tier::Exact => obj([tag("tier", "exact")]),
            Tier::Scaled { epsilon } => obj([tag("tier", "scaled"), ("epsilon", epsilon.encode())]),
            Tier::Shortcut {
                epsilon,
                max_phases,
            } => obj([
                tag("tier", "shortcut"),
                ("epsilon", epsilon.encode()),
                ("max_phases", max_phases.encode()),
            ]),
        }
    }
}

impl FromWire for Tier {
    fn from_wire(v: &JsonValue) -> Result<Self, WireError> {
        match field::<String>(v, "tier")?.as_str() {
            "exact" => Ok(Tier::Exact),
            "scaled" => Ok(Tier::Scaled {
                epsilon: field(v, "epsilon")?,
            }),
            "shortcut" => Ok(Tier::Shortcut {
                epsilon: field(v, "epsilon")?,
                max_phases: field(v, "max_phases")?,
            }),
            other => Err(WireError::new(format!("unknown tier {other:?}"))),
        }
    }
}

impl fmt::Display for Tier {
    /// Compact form: `exact`, `scaled(ε)`, `shortcut(ε,k)`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Tier::Exact => write!(f, "exact"),
            Tier::Scaled { epsilon } => write!(f, "scaled({epsilon:?})"),
            Tier::Shortcut {
                epsilon,
                max_phases,
            } => write!(f, "shortcut({epsilon:?},{max_phases})"),
        }
    }
}

impl ToWire for PartsStrategy {
    fn to_wire(&self) -> JsonValue {
        match self {
            PartsStrategy::Singletons => obj([tag("strategy", "singletons")]),
            PartsStrategy::Whole => obj([tag("strategy", "whole")]),
            PartsStrategy::Voronoi { parts, seed } => obj([
                tag("strategy", "voronoi"),
                ("parts", parts.encode()),
                ("seed", seed.encode()),
            ]),
            PartsStrategy::Explicit(partition) => obj([
                tag("strategy", "explicit"),
                (
                    "parts",
                    JsonValue::Array(partition.parts().iter().map(Field::encode).collect()),
                ),
            ]),
        }
    }
}

impl FromWire for PartsStrategy {
    /// Graph-free variants only; `"explicit"` needs the session graph to
    /// validate, so servers call [`parts_strategy_from_wire`] instead.
    fn from_wire(v: &JsonValue) -> Result<Self, WireError> {
        match field::<String>(v, "strategy")?.as_str() {
            "singletons" => Ok(PartsStrategy::Singletons),
            "whole" => Ok(PartsStrategy::Whole),
            "voronoi" => Ok(PartsStrategy::Voronoi {
                parts: field(v, "parts")?,
                seed: field(v, "seed")?,
            }),
            "explicit" => Err(WireError::new(
                "explicit partitions validate against a graph: use parts_strategy_from_wire",
            )),
            other => Err(WireError::new(format!("unknown strategy {other:?}"))),
        }
    }
}

/// The full [`PartsStrategy`] wire parser: like
/// [`PartsStrategy::from_wire`] but with the session graph in hand, so
/// `{"strategy":"explicit","parts":[[…],…]}` can be validated into a
/// [`Partition`] (Definition 9: parts disjoint, connected, covering).
pub fn parts_strategy_from_wire(g: &Graph, v: &JsonValue) -> Result<PartsStrategy, WireError> {
    if field::<String>(v, "strategy")? != "explicit" {
        return PartsStrategy::from_wire(v);
    }
    let partition = Partition::new(g, field(v, "parts")?)
        .map_err(|e| WireError::new(format!("invalid explicit partition: {e}")))?;
    Ok(PartsStrategy::Explicit(partition))
}

impl fmt::Display for PartsStrategy {
    /// Compact form: `singletons`, `whole`, `voronoi(p,s)`, and
    /// `explicit(k parts)` for a graph-validated [`Partition`]. The serving
    /// layer hashes it into session ids.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartsStrategy::Singletons => write!(f, "singletons"),
            PartsStrategy::Whole => write!(f, "whole"),
            PartsStrategy::Voronoi { parts, seed } => write!(f, "voronoi({parts},{seed})"),
            PartsStrategy::Explicit(p) => write!(f, "explicit({} parts)", p.len()),
        }
    }
}

impl ToWire for EdgeMutation {
    fn to_wire(&self) -> JsonValue {
        match *self {
            EdgeMutation::Insert { u, v, weight } => obj([
                tag("op", "insert"),
                ("u", u.encode()),
                ("v", v.encode()),
                ("weight", weight.encode()),
            ]),
            EdgeMutation::Delete { u, v } => {
                obj([tag("op", "delete"), ("u", u.encode()), ("v", v.encode())])
            }
        }
    }
}

impl FromWire for EdgeMutation {
    fn from_wire(v: &JsonValue) -> Result<Self, WireError> {
        match field::<String>(v, "op")?.as_str() {
            "insert" => Ok(EdgeMutation::Insert {
                u: field(v, "u")?,
                v: field(v, "v")?,
                weight: field(v, "weight")?,
            }),
            "delete" => Ok(EdgeMutation::Delete {
                u: field(v, "u")?,
                v: field(v, "v")?,
            }),
            other => Err(WireError::new(format!("unknown mutation op {other:?}"))),
        }
    }
}

impl ToWire for SsspDetail {
    fn to_wire(&self) -> JsonValue {
        match self {
            SsspDetail::Exact { parent } => {
                obj([tag("tier", "exact"), ("parent", parent.encode())])
            }
            SsspDetail::Scaled { scale, hop_budget } => obj([
                tag("tier", "scaled"),
                ("scale", scale.encode()),
                ("hop_budget", hop_budget.encode()),
            ]),
            SsspDetail::Shortcut {
                scale,
                phases,
                converged,
                shortcut_quality,
            } => obj([
                tag("tier", "shortcut"),
                ("scale", scale.encode()),
                ("phases", phases.encode()),
                ("converged", converged.encode()),
                ("shortcut_quality", shortcut_quality.encode()),
            ]),
        }
    }
}

impl FromWire for SsspDetail {
    fn from_wire(v: &JsonValue) -> Result<Self, WireError> {
        match field::<String>(v, "tier")?.as_str() {
            "exact" => Ok(SsspDetail::Exact {
                parent: field(v, "parent")?,
            }),
            "scaled" => Ok(SsspDetail::Scaled {
                scale: field(v, "scale")?,
                hop_budget: field(v, "hop_budget")?,
            }),
            "shortcut" => Ok(SsspDetail::Shortcut {
                scale: field(v, "scale")?,
                phases: field(v, "phases")?,
                converged: field(v, "converged")?,
                shortcut_quality: field(v, "shortcut_quality")?,
            }),
            other => Err(WireError::new(format!("unknown sssp detail {other:?}"))),
        }
    }
}

impl ToWire for Query {
    fn to_wire(&self) -> JsonValue {
        let kind = tag("query", self.kind());
        match self {
            Query::Mst | Query::Components => obj([kind]),
            Query::MinCut {
                trees,
                two_respecting,
            } => obj([
                kind,
                ("trees", trees.encode()),
                ("two_respecting", two_respecting.encode()),
            ]),
            Query::Sssp { source, tier } => {
                obj([kind, ("source", source.encode()), ("tier", tier.encode())])
            }
            Query::PartwiseMin { values, value_bits } => obj([
                kind,
                ("values", values.encode()),
                ("value_bits", value_bits.encode()),
            ]),
        }
    }
}

impl FromWire for Query {
    fn from_wire(v: &JsonValue) -> Result<Self, WireError> {
        /// Decodes argument `key` of a `kind` query: a missing one names
        /// the query that needs it.
        fn arg<T: Field>(v: &JsonValue, kind: &str, key: &str) -> Result<T, WireError> {
            let x = v
                .get(key)
                .ok_or_else(|| WireError::new(format!("{kind} needs {key:?}")))?;
            T::decode(x, key)
        }
        let kind: String = field(v, "query")?;
        match kind.as_str() {
            "mst" => Ok(Query::Mst),
            "min_cut" => Ok(Query::MinCut {
                trees: arg(v, &kind, "trees")?,
                two_respecting: match v.get("two_respecting") {
                    None => true,
                    Some(x) => Field::decode(x, "two_respecting")?,
                },
            }),
            "sssp" => Ok(Query::Sssp {
                source: arg(v, &kind, "source")?,
                tier: arg(v, &kind, "tier")?,
            }),
            "components" => Ok(Query::Components),
            "partwise_min" => Ok(Query::PartwiseMin {
                values: arg(v, &kind, "values")?,
                value_bits: arg(v, &kind, "value_bits")?,
            }),
            other => Err(WireError::new(format!("unknown query {other:?}"))),
        }
    }
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

impl<T: ToWire> ToWire for Report<T> {
    fn to_wire(&self) -> JsonValue {
        obj([
            ("value", self.value.to_wire()),
            ("stats", self.stats.encode()),
        ])
    }
}

impl<T: FromWire> FromWire for Report<T> {
    fn from_wire(v: &JsonValue) -> Result<Self, WireError> {
        Ok(Report {
            value: T::from_wire(want(v, "value")?)?,
            stats: field(v, "stats")?,
        })
    }
}

impl<T: ToWire> fmt::Display for Report<T> {
    /// The compact wire JSON, which [`FromWire::from_wire_str`] parses
    /// back.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.to_wire().fmt(f)
    }
}

impl ToWire for Answer {
    /// The wire form of the typed value the answer holds.
    fn to_wire(&self) -> JsonValue {
        match self {
            Answer::Mst(value) => value.to_wire(),
            Answer::MinCut(value) => value.to_wire(),
            Answer::Sssp(value) => value.to_wire(),
            Answer::Components(value) => value.to_wire(),
            Answer::PartwiseMin(value) => value.to_wire(),
        }
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Stable code for [`AlgoError::EmptyGraph`].
pub const CODE_EMPTY_GRAPH: &str = "EMPTY_GRAPH";
/// Stable code for [`AlgoError::Disconnected`].
pub const CODE_DISCONNECTED: &str = "DISCONNECTED";
/// Stable code for [`AlgoError::BadQuery`].
pub const CODE_BAD_QUERY: &str = "BAD_QUERY";
/// Stable code for [`AlgoError::Sim`].
pub const CODE_SIM_FAILED: &str = "SIM_FAILED";
/// Serving-layer code: the request body or path is malformed.
pub const CODE_BAD_REQUEST: &str = "BAD_REQUEST";
/// Serving-layer code: no such session or route.
pub const CODE_NOT_FOUND: &str = "NOT_FOUND";
/// Serving-layer code: the bounded request queue is full — retry later.
pub const CODE_OVERLOADED: &str = "OVERLOADED";
/// Serving-layer code: the daemon is draining and accepts no new work.
pub const CODE_SHUTTING_DOWN: &str = "SHUTTING_DOWN";

/// The stable wire code of an [`AlgoError`].
pub fn error_code(e: &AlgoError) -> &'static str {
    match e {
        AlgoError::EmptyGraph => CODE_EMPTY_GRAPH,
        AlgoError::Disconnected => CODE_DISCONNECTED,
        AlgoError::BadQuery(_) => CODE_BAD_QUERY,
        AlgoError::Sim(_) => CODE_SIM_FAILED,
    }
}

/// The HTTP status the wire schema fixes for each error code
/// (unknown codes map to 500).
pub fn http_status(code: &str) -> u16 {
    match code {
        CODE_BAD_QUERY | CODE_BAD_REQUEST => 400,
        CODE_NOT_FOUND => 404,
        CODE_EMPTY_GRAPH | CODE_DISCONNECTED => 422,
        CODE_OVERLOADED | CODE_SHUTTING_DOWN => 503,
        _ => 500,
    }
}

/// The `{"code":…,"message":…}` error body of the wire schema: every
/// error the daemon answers, solver or serving-layer, is one.
pub fn error_to_wire(code: &str, message: &str) -> JsonValue {
    obj([
        ("code", JsonValue::Str(code.to_string())),
        ("message", JsonValue::Str(message.to_string())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: ToWire + FromWire + PartialEq + fmt::Debug>(x: &T) {
        let text = x.to_wire_string();
        let back = T::from_wire_str(&text).expect("wire round-trip parses");
        assert_eq!(&back, x, "wire round-trip of {text}");
        // Re-serialization is byte-stable.
        assert_eq!(back.to_wire_string(), text);
    }

    #[test]
    fn json_numbers_keep_u64_precision() {
        let v = JsonValue::parse(&format!("[{},0,1.5,-3,2e2]", u64::MAX)).unwrap();
        let items = v.as_array().unwrap();
        assert_eq!(items[0].as_u64(), Some(u64::MAX));
        assert_eq!(items[1].as_u64(), Some(0));
        assert_eq!(items[2].as_f64(), Some(1.5));
        assert_eq!(items[3], JsonValue::Int(-3));
        assert_eq!(items[4].as_f64(), Some(200.0));
    }

    #[test]
    fn json_escape_handles_special_characters() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\n\t\u{1}"), "x\\n\\t\\u0001");
    }

    #[test]
    fn json_strings_escape_and_parse() {
        let s = "a\"b\\c\nd\te\u{1F600}\u{1}";
        let mut out = String::new();
        JsonValue::Str(s.to_string()).write(&mut out);
        assert_eq!(JsonValue::parse(&out).unwrap().as_str(), Some(s));
        // Surrogate-pair escapes decode.
        assert_eq!(
            JsonValue::parse(r#""\ud83d\ude00""#).unwrap().as_str(),
            Some("\u{1F600}")
        );
    }

    #[test]
    fn json_strings_parse_in_runs() {
        // Multi-byte runs between escapes come through whole.
        assert_eq!(
            JsonValue::parse("\"héllo\\tw\u{f6}rld \u{1F600}\\\"\u{e9}\"")
                .unwrap()
                .as_str(),
            Some("héllo\twörld \u{1F600}\"é")
        );
        // Errors name the byte they stop at.
        let err = |text: &str| JsonValue::parse(text).unwrap_err().to_string();
        assert!(err("\"ab\u{1}c\"").contains("unescaped control character at byte 3"));
        assert!(err("\"é\u{1f}\"").contains("unescaped control character at byte 3"));
        assert!(err("\"abc").contains("unterminated string at byte 4"));
    }

    #[test]
    fn json_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "01x",
            "\"\\u12\"",
            "nul",
            "[] []",
            "-",
            "\"\u{1}\"",
        ] {
            assert!(JsonValue::parse(bad).is_err(), "{bad:?} must not parse");
        }
        // Depth guard.
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(JsonValue::parse(&deep).is_err());
    }

    #[test]
    fn tier_roundtrips_wire_and_str() {
        for tier in [
            Tier::Exact,
            Tier::Scaled { epsilon: 0.5 },
            Tier::Shortcut {
                epsilon: 0.25,
                max_phases: 40,
            },
        ] {
            roundtrip(&tier);
        }
    }

    #[test]
    fn parts_strategy_roundtrips() {
        use minex_graphs::generators;
        for (strategy, s) in [
            (PartsStrategy::Singletons, "singletons"),
            (PartsStrategy::Whole, "whole"),
            (
                PartsStrategy::Voronoi { parts: 8, seed: 42 },
                "voronoi(8,42)",
            ),
        ] {
            assert_eq!(strategy.to_string(), s);
            // Wire round-trip through the graph-free parser.
            let wired =
                PartsStrategy::from_wire(&JsonValue::parse(&strategy.to_wire_string()).unwrap())
                    .unwrap();
            assert_eq!(wired.to_string(), s);
        }
        // Explicit partitions go through the graph-validating parser.
        let g = generators::path(4);
        let text = r#"{"strategy":"explicit","parts":[[0,1],[2,3]]}"#;
        let v = JsonValue::parse(text).unwrap();
        assert!(PartsStrategy::from_wire(&v).is_err());
        let strategy = parts_strategy_from_wire(&g, &v).unwrap();
        assert_eq!(strategy.to_wire_string(), text);
        // A disconnected part is rejected with a schema-level error.
        let bad = JsonValue::parse(r#"{"strategy":"explicit","parts":[[0,2],[1,3]]}"#).unwrap();
        assert!(parts_strategy_from_wire(&g, &bad).is_err());
    }

    #[test]
    fn edge_mutation_roundtrips_wire_and_str() {
        let muts = [
            EdgeMutation::Insert {
                u: 3,
                v: 9,
                weight: u64::MAX,
            },
            EdgeMutation::Delete { u: 0, v: 1 },
        ];
        for m in muts {
            roundtrip(&m);
        }
    }

    #[test]
    fn reports_roundtrip_with_sentinels() {
        let report = Report {
            value: Sssp {
                dist: vec![0, 7, u64::MAX],
                detail: SsspDetail::Shortcut {
                    scale: 4,
                    phases: 3,
                    converged: true,
                    shortcut_quality: 11,
                },
            },
            stats: ReportStats {
                simulated_rounds: 12,
                charged_construction_rounds: 30,
                runs: vec![PhaseRun {
                    tags: PhaseLabel {
                        phase: "sssp-shortcut".into(),
                        subphase: "flood".into(),
                        attempt: Some(1),
                    },
                    stats: RunStats {
                        rounds: 12,
                        messages: 99,
                        max_message_bits: 64,
                        total_bits: 6336,
                    },
                    repeats: 1,
                }],
            },
        };
        roundtrip(&report);
        // Display is the JSON text.
        let text = report.to_string();
        assert!(text.contains("\"dist\":[0,7,null]"));
        assert_eq!(text, report.to_wire_string());

        roundtrip(&Report {
            value: Mst {
                edges: vec![0, 5, 2],
                total_weight: 1 << 60,
                boruvka_phases: 3,
            },
            stats: ReportStats::default(),
        });
        roundtrip(&MinCut {
            approx_value: 4,
            exact_value: 4,
            ratio: 1.0,
            trees: 2,
        });
        roundtrip(&Components {
            label: vec![0, 0, 2],
            forest_edges: vec![1],
            boruvka_phases: 1,
        });
        roundtrip(&PartwiseMin {
            minima: vec![3, u64::MAX],
        });
        roundtrip(&Sssp {
            dist: vec![0],
            detail: SsspDetail::Exact {
                parent: vec![None, Some(0)],
            },
        });
        roundtrip(&RepairStats {
            inserted: 2,
            deleted: 1,
            noop: false,
            connected: true,
            partition_changed: false,
            plan_repaired: true,
            plan: PlanRepairStats {
                partition_changed: false,
                full_rebuild: false,
                parts_total: 8,
                parts_rebuilt: 2,
                parts_reused: 6,
                tree_changed_nodes: 5,
            },
            memos_dropped: 4,
        });
        roundtrip(&SessionCounters {
            queries: 5,
            memo_hits: 2,
            memo_misses: 3,
            plans_built: 1,
            plan_repairs: 0,
            parts_rebuilt: 0,
            parts_reused: 0,
            memos_dropped: 0,
        });
    }

    #[test]
    fn queries_roundtrip_and_keep_todays_bodies() {
        for query in [
            Query::Mst,
            Query::MinCut {
                trees: 3,
                two_respecting: false,
            },
            Query::Sssp {
                source: 4,
                tier: Tier::Shortcut {
                    epsilon: 0.25,
                    max_phases: 9,
                },
            },
            Query::Components,
            Query::PartwiseMin {
                values: vec![5, u64::MAX, 0],
                value_bits: 16,
            },
        ] {
            roundtrip(&query);
        }
        // The bodies clients sent before `Query` existed still decode.
        assert_eq!(
            Query::from_wire_str(r#"{"query":"min_cut","trees":1}"#).unwrap(),
            Query::MinCut {
                trees: 1,
                two_respecting: true
            }
        );
        let bad = |body: &str| Query::from_wire_str(body).unwrap_err().to_string();
        assert_eq!(
            bad(r#"{"query":"frobnicate"}"#),
            "unknown query \"frobnicate\""
        );
        assert_eq!(bad(r#"{"trees":1}"#), "missing field \"query\"");
        assert_eq!(bad(r#"{"query":"min_cut"}"#), "min_cut needs \"trees\"");
        assert_eq!(bad(r#"{"query":"sssp","source":0}"#), "sssp needs \"tier\"");
        assert_eq!(
            bad(r#"{"query":"partwise_min","values":[-1],"value_bits":8}"#),
            "values must be u64 or null"
        );
    }

    #[test]
    fn field_rules_name_the_field_they_reject() {
        let mst = |text: &str| Mst::from_wire_str(text).unwrap_err().to_string();
        assert_eq!(
            mst(r#"{"edges":[],"total_weight":1}"#),
            "missing field \"boruvka_phases\""
        );
        assert_eq!(
            mst(r#"{"edges":[],"total_weight":-1,"boruvka_phases":0}"#),
            "field \"total_weight\" must be a non-negative integer"
        );
        assert_eq!(
            mst(r#"{"edges":{},"total_weight":1,"boruvka_phases":0}"#),
            "field \"edges\" must be an array"
        );
        // The sentinel rule's message is the one `partwise_min` values pin.
        assert_eq!(
            PartwiseMin::from_wire_str(r#"{"minima":[1,null,"x"]}"#)
                .unwrap_err()
                .to_string(),
            "minima must be u64 or null"
        );
        // `None` decodes from `null` only; anything else goes to the
        // inner rule, and a nested object reports its own field.
        let label = |attempt: &str| {
            PhaseLabel::from_wire_str(&format!(
                r#"{{"phase":"p","subphase":"s","attempt":{attempt}}}"#
            ))
        };
        assert_eq!(label("null").unwrap().attempt, None);
        assert_eq!(
            label("true").unwrap_err().to_string(),
            "field \"attempt\" must be a non-negative integer"
        );
        assert_eq!(
            Query::from_wire_str(r#"{"query":"sssp","source":0,"tier":{"tier":"scaled"}}"#)
                .unwrap_err()
                .to_string(),
            "missing field \"epsilon\""
        );
    }

    #[test]
    fn parsers_accept_reordered_and_extra_fields() {
        let m = EdgeMutation::from_wire_str(
            r#"{"weight":7,"v":2,"u":1,"op":"insert","future_field":[1,2]}"#,
        )
        .unwrap();
        assert_eq!(
            m,
            EdgeMutation::Insert {
                u: 1,
                v: 2,
                weight: 7
            }
        );
        assert!(EdgeMutation::from_wire_str(r#"{"op":"insert","u":1,"v":2}"#).is_err());
    }

    #[test]
    fn error_codes_are_stable() {
        assert_eq!(error_code(&AlgoError::EmptyGraph), "EMPTY_GRAPH");
        assert_eq!(error_code(&AlgoError::Disconnected), "DISCONNECTED");
        assert_eq!(error_code(&AlgoError::BadQuery("x".into())), "BAD_QUERY");
        assert_eq!(http_status(CODE_EMPTY_GRAPH), 422);
        assert_eq!(http_status(CODE_DISCONNECTED), 422);
        assert_eq!(http_status(CODE_BAD_QUERY), 400);
        assert_eq!(http_status(CODE_BAD_REQUEST), 400);
        assert_eq!(http_status(CODE_NOT_FOUND), 404);
        assert_eq!(http_status(CODE_OVERLOADED), 503);
        assert_eq!(http_status(CODE_SHUTTING_DOWN), 503);
        assert_eq!(http_status(CODE_SIM_FAILED), 500);
        let e = AlgoError::Disconnected;
        let body = error_to_wire(error_code(&e), &e.to_string()).to_string();
        assert_eq!(
            body,
            r#"{"code":"DISCONNECTED","message":"graph must be connected"}"#
        );
    }
}
