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
//! * **Errors** — [`AlgoError`] maps to
//!   `{"code":CODE,"message":…}` via [`error_to_wire`], with the stable
//!   codes [`CODE_EMPTY_GRAPH`], [`CODE_DISCONNECTED`], [`CODE_BAD_QUERY`],
//!   [`CODE_SIM_FAILED`]; the serving layer adds [`CODE_BAD_REQUEST`],
//!   [`CODE_NOT_FOUND`], [`CODE_OVERLOADED`], [`CODE_SHUTTING_DOWN`].
//!   [`http_status`] fixes one HTTP status per code.
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
use minex_graphs::{EdgeMutation, Graph, NodeId};

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
// Codec traits
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

fn want<'a>(v: &'a JsonValue, key: &str) -> Result<&'a JsonValue, WireError> {
    v.get(key)
        .ok_or_else(|| WireError::new(format!("missing field {key:?}")))
}

fn want_u64(v: &JsonValue, key: &str) -> Result<u64, WireError> {
    want(v, key)?
        .as_u64()
        .ok_or_else(|| WireError::new(format!("field {key:?} must be a non-negative integer")))
}

fn want_usize(v: &JsonValue, key: &str) -> Result<usize, WireError> {
    want(v, key)?
        .as_usize()
        .ok_or_else(|| WireError::new(format!("field {key:?} must be a non-negative integer")))
}

fn want_f64(v: &JsonValue, key: &str) -> Result<f64, WireError> {
    want(v, key)?
        .as_f64()
        .ok_or_else(|| WireError::new(format!("field {key:?} must be a number")))
}

fn want_bool(v: &JsonValue, key: &str) -> Result<bool, WireError> {
    want(v, key)?
        .as_bool()
        .ok_or_else(|| WireError::new(format!("field {key:?} must be a boolean")))
}

fn want_str<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str, WireError> {
    want(v, key)?
        .as_str()
        .ok_or_else(|| WireError::new(format!("field {key:?} must be a string")))
}

fn want_array<'a>(v: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], WireError> {
    want(v, key)?
        .as_array()
        .ok_or_else(|| WireError::new(format!("field {key:?} must be an array")))
}

fn usize_array(v: &JsonValue, key: &str) -> Result<Vec<usize>, WireError> {
    want_array(v, key)?
        .iter()
        .map(|x| {
            x.as_usize().ok_or_else(|| {
                WireError::new(format!("field {key:?} must hold non-negative integers"))
            })
        })
        .collect()
}

/// Serializes a `u64` slice where `u64::MAX` is the "unreached" sentinel:
/// sentinels become JSON `null`.
fn sentinel_array(values: &[u64]) -> JsonValue {
    JsonValue::Array(
        values
            .iter()
            .map(|&x| {
                if x == u64::MAX {
                    JsonValue::Null
                } else {
                    JsonValue::UInt(x)
                }
            })
            .collect(),
    )
}

fn sentinel_array_from(v: &JsonValue, key: &str) -> Result<Vec<u64>, WireError> {
    want_array(v, key)?
        .iter()
        .map(|x| {
            if x.is_null() {
                Ok(u64::MAX)
            } else {
                x.as_u64().ok_or_else(|| {
                    WireError::new(format!("field {key:?} must hold integers or null"))
                })
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Tier
// ---------------------------------------------------------------------------

impl ToWire for Tier {
    fn to_wire(&self) -> JsonValue {
        match *self {
            Tier::Exact => obj([("tier", JsonValue::Str("exact".into()))]),
            Tier::Scaled { epsilon } => obj([
                ("tier", JsonValue::Str("scaled".into())),
                ("epsilon", JsonValue::Float(epsilon)),
            ]),
            Tier::Shortcut {
                epsilon,
                max_phases,
            } => obj([
                ("tier", JsonValue::Str("shortcut".into())),
                ("epsilon", JsonValue::Float(epsilon)),
                ("max_phases", JsonValue::UInt(max_phases as u64)),
            ]),
        }
    }
}

impl FromWire for Tier {
    fn from_wire(v: &JsonValue) -> Result<Self, WireError> {
        match want_str(v, "tier")? {
            "exact" => Ok(Tier::Exact),
            "scaled" => Ok(Tier::Scaled {
                epsilon: want_f64(v, "epsilon")?,
            }),
            "shortcut" => Ok(Tier::Shortcut {
                epsilon: want_f64(v, "epsilon")?,
                max_phases: want_usize(v, "max_phases")?,
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

// ---------------------------------------------------------------------------
// PartsStrategy
// ---------------------------------------------------------------------------

impl ToWire for PartsStrategy {
    fn to_wire(&self) -> JsonValue {
        match self {
            PartsStrategy::Singletons => obj([("strategy", JsonValue::Str("singletons".into()))]),
            PartsStrategy::Whole => obj([("strategy", JsonValue::Str("whole".into()))]),
            PartsStrategy::Voronoi { parts, seed } => obj([
                ("strategy", JsonValue::Str("voronoi".into())),
                ("parts", JsonValue::UInt(*parts as u64)),
                ("seed", JsonValue::UInt(*seed)),
            ]),
            PartsStrategy::Explicit(partition) => obj([
                ("strategy", JsonValue::Str("explicit".into())),
                (
                    "parts",
                    JsonValue::Array(
                        partition
                            .parts()
                            .iter()
                            .map(|part| {
                                JsonValue::Array(
                                    part.iter().map(|&v| JsonValue::UInt(v as u64)).collect(),
                                )
                            })
                            .collect(),
                    ),
                ),
            ]),
        }
    }
}

impl FromWire for PartsStrategy {
    /// Graph-free variants only; `"explicit"` needs the session graph to
    /// validate, so servers call [`parts_strategy_from_wire`] instead.
    fn from_wire(v: &JsonValue) -> Result<Self, WireError> {
        match want_str(v, "strategy")? {
            "singletons" => Ok(PartsStrategy::Singletons),
            "whole" => Ok(PartsStrategy::Whole),
            "voronoi" => Ok(PartsStrategy::Voronoi {
                parts: want_usize(v, "parts")?,
                seed: want_u64(v, "seed")?,
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
    if want_str(v, "strategy")? != "explicit" {
        return PartsStrategy::from_wire(v);
    }
    let parts: Vec<Vec<NodeId>> = want_array(v, "parts")?
        .iter()
        .map(|part| {
            part.as_array()
                .ok_or_else(|| WireError::new("field \"parts\" must be an array of arrays"))?
                .iter()
                .map(|x| {
                    x.as_usize()
                        .ok_or_else(|| WireError::new("part entries must be node ids"))
                })
                .collect()
        })
        .collect::<Result<_, WireError>>()?;
    let partition = Partition::new(g, parts)
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

// ---------------------------------------------------------------------------
// EdgeMutation
// ---------------------------------------------------------------------------

impl ToWire for EdgeMutation {
    fn to_wire(&self) -> JsonValue {
        match *self {
            EdgeMutation::Insert { u, v, weight } => obj([
                ("op", JsonValue::Str("insert".into())),
                ("u", JsonValue::UInt(u as u64)),
                ("v", JsonValue::UInt(v as u64)),
                ("weight", JsonValue::UInt(weight)),
            ]),
            EdgeMutation::Delete { u, v } => obj([
                ("op", JsonValue::Str("delete".into())),
                ("u", JsonValue::UInt(u as u64)),
                ("v", JsonValue::UInt(v as u64)),
            ]),
        }
    }
}

impl FromWire for EdgeMutation {
    fn from_wire(v: &JsonValue) -> Result<Self, WireError> {
        match want_str(v, "op")? {
            "insert" => Ok(EdgeMutation::Insert {
                u: want_usize(v, "u")?,
                v: want_usize(v, "v")?,
                weight: want_u64(v, "weight")?,
            }),
            "delete" => Ok(EdgeMutation::Delete {
                u: want_usize(v, "u")?,
                v: want_usize(v, "v")?,
            }),
            other => Err(WireError::new(format!("unknown mutation op {other:?}"))),
        }
    }
}

// ---------------------------------------------------------------------------
// Stats and reports
// ---------------------------------------------------------------------------

impl ToWire for RunStats {
    fn to_wire(&self) -> JsonValue {
        obj([
            ("rounds", JsonValue::UInt(self.rounds as u64)),
            ("messages", JsonValue::UInt(self.messages)),
            (
                "max_message_bits",
                JsonValue::UInt(self.max_message_bits as u64),
            ),
            ("total_bits", JsonValue::UInt(self.total_bits)),
        ])
    }
}

impl FromWire for RunStats {
    fn from_wire(v: &JsonValue) -> Result<Self, WireError> {
        Ok(RunStats {
            rounds: want_usize(v, "rounds")?,
            messages: want_u64(v, "messages")?,
            max_message_bits: want_usize(v, "max_message_bits")?,
            total_bits: want_u64(v, "total_bits")?,
        })
    }
}

impl ToWire for PhaseLabel {
    fn to_wire(&self) -> JsonValue {
        obj([
            ("phase", JsonValue::Str(self.phase.clone())),
            ("subphase", JsonValue::Str(self.subphase.clone())),
            (
                "attempt",
                match self.attempt {
                    Some(a) => JsonValue::UInt(a as u64),
                    None => JsonValue::Null,
                },
            ),
        ])
    }
}

impl FromWire for PhaseLabel {
    fn from_wire(v: &JsonValue) -> Result<Self, WireError> {
        let attempt = match want(v, "attempt")? {
            JsonValue::Null => None,
            x => Some(x.as_usize().ok_or_else(|| {
                WireError::new("field \"attempt\" must be a non-negative integer or null")
            })?),
        };
        Ok(PhaseLabel {
            phase: want_str(v, "phase")?.to_string(),
            subphase: want_str(v, "subphase")?.to_string(),
            attempt,
        })
    }
}

impl ToWire for PhaseRun {
    fn to_wire(&self) -> JsonValue {
        obj([
            ("tags", self.tags.to_wire()),
            ("stats", self.stats.to_wire()),
            ("repeats", JsonValue::UInt(self.repeats as u64)),
        ])
    }
}

impl FromWire for PhaseRun {
    fn from_wire(v: &JsonValue) -> Result<Self, WireError> {
        Ok(PhaseRun {
            tags: PhaseLabel::from_wire(want(v, "tags")?)?,
            stats: RunStats::from_wire(want(v, "stats")?)?,
            repeats: want_usize(v, "repeats")?,
        })
    }
}

impl ToWire for ReportStats {
    fn to_wire(&self) -> JsonValue {
        obj([
            (
                "simulated_rounds",
                JsonValue::UInt(self.simulated_rounds as u64),
            ),
            (
                "charged_construction_rounds",
                JsonValue::UInt(self.charged_construction_rounds as u64),
            ),
            (
                "runs",
                JsonValue::Array(self.runs.iter().map(ToWire::to_wire).collect()),
            ),
        ])
    }
}

impl FromWire for ReportStats {
    fn from_wire(v: &JsonValue) -> Result<Self, WireError> {
        Ok(ReportStats {
            simulated_rounds: want_usize(v, "simulated_rounds")?,
            charged_construction_rounds: want_usize(v, "charged_construction_rounds")?,
            runs: want_array(v, "runs")?
                .iter()
                .map(PhaseRun::from_wire)
                .collect::<Result<_, _>>()?,
        })
    }
}

impl<T: ToWire> ToWire for Report<T> {
    fn to_wire(&self) -> JsonValue {
        obj([
            ("value", self.value.to_wire()),
            ("stats", self.stats.to_wire()),
        ])
    }
}

impl<T: FromWire> FromWire for Report<T> {
    fn from_wire(v: &JsonValue) -> Result<Self, WireError> {
        Ok(Report {
            value: T::from_wire(want(v, "value")?)?,
            stats: ReportStats::from_wire(want(v, "stats")?)?,
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

impl ToWire for SessionCounters {
    fn to_wire(&self) -> JsonValue {
        obj([
            ("queries", JsonValue::UInt(self.queries as u64)),
            ("memo_hits", JsonValue::UInt(self.memo_hits as u64)),
            ("memo_misses", JsonValue::UInt(self.memo_misses as u64)),
            ("plans_built", JsonValue::UInt(self.plans_built as u64)),
            ("plan_repairs", JsonValue::UInt(self.plan_repairs as u64)),
            ("parts_rebuilt", JsonValue::UInt(self.parts_rebuilt as u64)),
            ("parts_reused", JsonValue::UInt(self.parts_reused as u64)),
            ("memos_dropped", JsonValue::UInt(self.memos_dropped as u64)),
        ])
    }
}

impl FromWire for SessionCounters {
    fn from_wire(v: &JsonValue) -> Result<Self, WireError> {
        Ok(SessionCounters {
            queries: want_usize(v, "queries")?,
            memo_hits: want_usize(v, "memo_hits")?,
            memo_misses: want_usize(v, "memo_misses")?,
            plans_built: want_usize(v, "plans_built")?,
            plan_repairs: want_usize(v, "plan_repairs")?,
            parts_rebuilt: want_usize(v, "parts_rebuilt")?,
            parts_reused: want_usize(v, "parts_reused")?,
            memos_dropped: want_usize(v, "memos_dropped")?,
        })
    }
}

// ---------------------------------------------------------------------------
// Query values
// ---------------------------------------------------------------------------

impl ToWire for Mst {
    fn to_wire(&self) -> JsonValue {
        obj([
            (
                "edges",
                JsonValue::Array(
                    self.edges
                        .iter()
                        .map(|&e| JsonValue::UInt(e as u64))
                        .collect(),
                ),
            ),
            ("total_weight", JsonValue::UInt(self.total_weight)),
            (
                "boruvka_phases",
                JsonValue::UInt(self.boruvka_phases as u64),
            ),
        ])
    }
}

impl FromWire for Mst {
    fn from_wire(v: &JsonValue) -> Result<Self, WireError> {
        Ok(Mst {
            edges: usize_array(v, "edges")?,
            total_weight: want_u64(v, "total_weight")?,
            boruvka_phases: want_usize(v, "boruvka_phases")?,
        })
    }
}

impl ToWire for MinCut {
    fn to_wire(&self) -> JsonValue {
        obj([
            ("approx_value", JsonValue::UInt(self.approx_value)),
            ("exact_value", JsonValue::UInt(self.exact_value)),
            ("ratio", JsonValue::Float(self.ratio)),
            ("trees", JsonValue::UInt(self.trees as u64)),
        ])
    }
}

impl FromWire for MinCut {
    fn from_wire(v: &JsonValue) -> Result<Self, WireError> {
        Ok(MinCut {
            approx_value: want_u64(v, "approx_value")?,
            exact_value: want_u64(v, "exact_value")?,
            ratio: want_f64(v, "ratio")?,
            trees: want_usize(v, "trees")?,
        })
    }
}

impl ToWire for SsspDetail {
    fn to_wire(&self) -> JsonValue {
        match self {
            SsspDetail::Exact { parent } => obj([
                ("tier", JsonValue::Str("exact".into())),
                (
                    "parent",
                    JsonValue::Array(
                        parent
                            .iter()
                            .map(|p| match p {
                                Some(v) => JsonValue::UInt(*v as u64),
                                None => JsonValue::Null,
                            })
                            .collect(),
                    ),
                ),
            ]),
            SsspDetail::Scaled { scale, hop_budget } => obj([
                ("tier", JsonValue::Str("scaled".into())),
                ("scale", JsonValue::UInt(*scale)),
                ("hop_budget", JsonValue::UInt(*hop_budget as u64)),
            ]),
            SsspDetail::Shortcut {
                scale,
                phases,
                converged,
                shortcut_quality,
            } => obj([
                ("tier", JsonValue::Str("shortcut".into())),
                ("scale", JsonValue::UInt(*scale)),
                ("phases", JsonValue::UInt(*phases as u64)),
                ("converged", JsonValue::Bool(*converged)),
                (
                    "shortcut_quality",
                    JsonValue::UInt(*shortcut_quality as u64),
                ),
            ]),
        }
    }
}

impl FromWire for SsspDetail {
    fn from_wire(v: &JsonValue) -> Result<Self, WireError> {
        match want_str(v, "tier")? {
            "exact" => Ok(SsspDetail::Exact {
                parent: want_array(v, "parent")?
                    .iter()
                    .map(|p| {
                        if p.is_null() {
                            Ok(None)
                        } else {
                            p.as_usize().map(Some).ok_or_else(|| {
                                WireError::new("parent entries must be node ids or null")
                            })
                        }
                    })
                    .collect::<Result<_, WireError>>()?,
            }),
            "scaled" => Ok(SsspDetail::Scaled {
                scale: want_u64(v, "scale")?,
                hop_budget: want_usize(v, "hop_budget")?,
            }),
            "shortcut" => Ok(SsspDetail::Shortcut {
                scale: want_u64(v, "scale")?,
                phases: want_usize(v, "phases")?,
                converged: want_bool(v, "converged")?,
                shortcut_quality: want_usize(v, "shortcut_quality")?,
            }),
            other => Err(WireError::new(format!("unknown sssp detail {other:?}"))),
        }
    }
}

impl ToWire for Sssp {
    fn to_wire(&self) -> JsonValue {
        obj([
            ("dist", sentinel_array(&self.dist)),
            ("detail", self.detail.to_wire()),
        ])
    }
}

impl FromWire for Sssp {
    fn from_wire(v: &JsonValue) -> Result<Self, WireError> {
        Ok(Sssp {
            dist: sentinel_array_from(v, "dist")?,
            detail: SsspDetail::from_wire(want(v, "detail")?)?,
        })
    }
}

impl ToWire for Components {
    fn to_wire(&self) -> JsonValue {
        obj([
            (
                "label",
                JsonValue::Array(
                    self.label
                        .iter()
                        .map(|&l| JsonValue::UInt(l as u64))
                        .collect(),
                ),
            ),
            (
                "forest_edges",
                JsonValue::Array(
                    self.forest_edges
                        .iter()
                        .map(|&e| JsonValue::UInt(e as u64))
                        .collect(),
                ),
            ),
            (
                "boruvka_phases",
                JsonValue::UInt(self.boruvka_phases as u64),
            ),
        ])
    }
}

impl FromWire for Components {
    fn from_wire(v: &JsonValue) -> Result<Self, WireError> {
        Ok(Components {
            label: usize_array(v, "label")?,
            forest_edges: usize_array(v, "forest_edges")?,
            boruvka_phases: want_usize(v, "boruvka_phases")?,
        })
    }
}

impl ToWire for PartwiseMin {
    fn to_wire(&self) -> JsonValue {
        obj([("minima", sentinel_array(&self.minima))])
    }
}

impl FromWire for PartwiseMin {
    fn from_wire(v: &JsonValue) -> Result<Self, WireError> {
        Ok(PartwiseMin {
            minima: sentinel_array_from(v, "minima")?,
        })
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
// Queries
// ---------------------------------------------------------------------------

impl ToWire for Query {
    fn to_wire(&self) -> JsonValue {
        let kind = ("query", JsonValue::Str(self.kind().into()));
        match self {
            Query::Mst | Query::Components => obj([kind]),
            Query::MinCut {
                trees,
                two_respecting,
            } => obj([
                kind,
                ("trees", JsonValue::UInt(*trees as u64)),
                ("two_respecting", JsonValue::Bool(*two_respecting)),
            ]),
            Query::Sssp { source, tier } => obj([
                kind,
                ("source", JsonValue::UInt(*source as u64)),
                ("tier", tier.to_wire()),
            ]),
            Query::PartwiseMin { values, value_bits } => obj([
                kind,
                ("values", sentinel_array(values)),
                ("value_bits", JsonValue::UInt(*value_bits as u64)),
            ]),
        }
    }
}

impl FromWire for Query {
    fn from_wire(v: &JsonValue) -> Result<Self, WireError> {
        let kind = v
            .get("query")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| WireError::new("missing field \"query\""))?;
        // A missing or mistyped argument names the query that needs it.
        let needs = |key: &str| WireError::new(format!("{kind} needs {key:?}"));
        let usize_arg = |key: &str| {
            v.get(key)
                .and_then(JsonValue::as_usize)
                .ok_or_else(|| needs(key))
        };
        match kind {
            "mst" => Ok(Query::Mst),
            "min_cut" => Ok(Query::MinCut {
                trees: usize_arg("trees")?,
                two_respecting: match v.get("two_respecting") {
                    None => true,
                    Some(_) => want_bool(v, "two_respecting")?,
                },
            }),
            "sssp" => Ok(Query::Sssp {
                source: usize_arg("source")?,
                tier: Tier::from_wire(v.get("tier").ok_or_else(|| needs("tier"))?)?,
            }),
            "components" => Ok(Query::Components),
            "partwise_min" => Ok(Query::PartwiseMin {
                values: v
                    .get("values")
                    .and_then(JsonValue::as_array)
                    .ok_or_else(|| needs("values"))?
                    .iter()
                    .map(|x| {
                        if x.is_null() {
                            Some(u64::MAX)
                        } else {
                            x.as_u64()
                        }
                    })
                    .collect::<Option<_>>()
                    .ok_or_else(|| WireError::new("values must be u64 or null"))?,
                value_bits: usize_arg("value_bits")?,
            }),
            other => Err(WireError::new(format!("unknown query {other:?}"))),
        }
    }
}

impl ToWire for PlanRepairStats {
    fn to_wire(&self) -> JsonValue {
        obj([
            ("partition_changed", JsonValue::Bool(self.partition_changed)),
            ("full_rebuild", JsonValue::Bool(self.full_rebuild)),
            ("parts_total", JsonValue::UInt(self.parts_total as u64)),
            ("parts_rebuilt", JsonValue::UInt(self.parts_rebuilt as u64)),
            ("parts_reused", JsonValue::UInt(self.parts_reused as u64)),
            (
                "tree_changed_nodes",
                JsonValue::UInt(self.tree_changed_nodes as u64),
            ),
        ])
    }
}

impl FromWire for PlanRepairStats {
    fn from_wire(v: &JsonValue) -> Result<Self, WireError> {
        Ok(PlanRepairStats {
            partition_changed: want_bool(v, "partition_changed")?,
            full_rebuild: want_bool(v, "full_rebuild")?,
            parts_total: want_usize(v, "parts_total")?,
            parts_rebuilt: want_usize(v, "parts_rebuilt")?,
            parts_reused: want_usize(v, "parts_reused")?,
            tree_changed_nodes: want_usize(v, "tree_changed_nodes")?,
        })
    }
}

impl ToWire for RepairStats {
    fn to_wire(&self) -> JsonValue {
        obj([
            ("inserted", JsonValue::UInt(self.inserted as u64)),
            ("deleted", JsonValue::UInt(self.deleted as u64)),
            ("noop", JsonValue::Bool(self.noop)),
            ("connected", JsonValue::Bool(self.connected)),
            ("partition_changed", JsonValue::Bool(self.partition_changed)),
            ("plan_repaired", JsonValue::Bool(self.plan_repaired)),
            ("plan", self.plan.to_wire()),
            ("memos_dropped", JsonValue::UInt(self.memos_dropped as u64)),
        ])
    }
}

impl FromWire for RepairStats {
    fn from_wire(v: &JsonValue) -> Result<Self, WireError> {
        Ok(RepairStats {
            inserted: want_usize(v, "inserted")?,
            deleted: want_usize(v, "deleted")?,
            noop: want_bool(v, "noop")?,
            connected: want_bool(v, "connected")?,
            partition_changed: want_bool(v, "partition_changed")?,
            plan_repaired: want_bool(v, "plan_repaired")?,
            plan: PlanRepairStats::from_wire(want(v, "plan")?)?,
            memos_dropped: want_usize(v, "memos_dropped")?,
        })
    }
}

// ---------------------------------------------------------------------------
// Error codes
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

/// The `{"code":…,"message":…}` error body of the wire schema.
pub fn error_to_wire(e: &AlgoError) -> JsonValue {
    obj([
        ("code", JsonValue::Str(error_code(e).into())),
        ("message", JsonValue::Str(e.to_string())),
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
        let body = error_to_wire(&AlgoError::Disconnected).to_string();
        assert_eq!(
            body,
            r#"{"code":"DISCONNECTED","message":"graph must be connected"}"#
        );
    }
}
