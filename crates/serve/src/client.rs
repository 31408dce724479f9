//! A small blocking client for the wire API — what `minex-loadgen`, the
//! tests, and the doctests drive the daemon with.

use std::fmt;
use std::io::{self, BufRead, BufReader, Read};
use std::net::{TcpStream, ToSocketAddrs};

use minex_algo::solver::{
    Components, MinCut, Mst, PartsStrategy, PartwiseMin, Query, RepairStats, Report, Sssp, Tier,
};
use minex_algo::wire::{obj, FromWire, JsonValue, ToWire, WireError};
use minex_graphs::{EdgeMutation, NodeId, WeightedGraph};

use crate::http::write_request;

/// A client-side failure: transport, malformed payload, or a structured
/// server error.
#[derive(Debug)]
pub enum ServeError {
    /// Transport failure.
    Io(io::Error),
    /// The response did not match the wire schema.
    Wire(WireError),
    /// The server answered with an error body.
    Server {
        /// HTTP status.
        status: u16,
        /// Stable wire code (`OVERLOADED`, `DISCONNECTED`, …).
        code: String,
        /// Human-readable detail.
        message: String,
    },
}

impl ServeError {
    /// The stable wire code of a server-side error, if this is one.
    pub fn code(&self) -> Option<&str> {
        match self {
            ServeError::Server { code, .. } => Some(code),
            _ => None,
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "transport: {e}"),
            ServeError::Wire(e) => write!(f, "wire: {e}"),
            ServeError::Server {
                status,
                code,
                message,
            } => write!(f, "server {status} {code}: {message}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<WireError> for ServeError {
    fn from(e: WireError) -> Self {
        ServeError::Wire(e)
    }
}

/// Options for [`Client::create_session`] — the client-side mirror of the
/// `POST /v1/sessions` body.
#[derive(Debug, Clone)]
pub struct CreateSession {
    /// Node count.
    pub n: usize,
    /// Edge list `(u, v, weight)`; ids are assigned by the server's CSR
    /// construction (lexicographic rank), not upload order.
    pub edges: Vec<(NodeId, NodeId, u64)>,
    /// Partition strategy (server default: singletons).
    pub parts: Option<PartsStrategy>,
    /// Builder name (server default: `auto-capped`).
    pub builder: Option<String>,
    /// Bandwidth override in bits.
    pub bandwidth: Option<usize>,
    /// Round-guard override.
    pub max_rounds: Option<usize>,
    /// Ignored: kept so that callers written against the former
    /// multi-threaded engine still compile. It is never sent, and the
    /// daemon ignores a `threads` field in an upload.
    pub threads: Option<usize>,
    /// Enable session tracing.
    pub trace: bool,
}

impl CreateSession {
    /// An upload of `wg` with all server defaults.
    pub fn from_weighted(wg: &WeightedGraph) -> Self {
        CreateSession {
            n: wg.graph().n(),
            edges: wg
                .graph()
                .edges()
                .map(|(e, u, v)| (u, v, wg.weight(e)))
                .collect(),
            parts: None,
            builder: None,
            bandwidth: None,
            max_rounds: None,
            threads: None,
            trace: false,
        }
    }

    /// The `POST /v1/sessions` request body this spec encodes to.
    pub fn to_body(&self) -> JsonValue {
        let mut fields: Vec<(String, JsonValue)> = vec![(
            "graph".to_string(),
            obj([
                ("n", JsonValue::UInt(self.n as u64)),
                (
                    "edges",
                    JsonValue::Array(
                        self.edges
                            .iter()
                            .map(|&(u, v, w)| {
                                JsonValue::Array(vec![
                                    JsonValue::UInt(u as u64),
                                    JsonValue::UInt(v as u64),
                                    JsonValue::UInt(w),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        )];
        if let Some(parts) = &self.parts {
            fields.push(("parts".to_string(), parts.to_wire()));
        }
        if let Some(builder) = &self.builder {
            fields.push(("builder".to_string(), JsonValue::Str(builder.clone())));
        }
        if let Some(b) = self.bandwidth {
            fields.push(("bandwidth".to_string(), JsonValue::UInt(b as u64)));
        }
        if let Some(r) = self.max_rounds {
            fields.push(("max_rounds".to_string(), JsonValue::UInt(r as u64)));
        }
        if self.trace {
            fields.push(("trace".to_string(), JsonValue::Bool(true)));
        }
        JsonValue::Object(fields)
    }
}

/// A blocking keep-alive connection to a `minex-serve` daemon.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to the daemon.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// One request/response round trip. Error bodies become
    /// [`ServeError::Server`].
    ///
    /// # Errors
    ///
    /// [`ServeError`] on transport, schema, or server failures.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&JsonValue>,
    ) -> Result<JsonValue, ServeError> {
        let (status, text) = self.request_raw(method, path, body)?;
        let v = JsonValue::parse(&text)?;
        if status == 200 {
            return Ok(v);
        }
        Err(ServeError::Server {
            status,
            code: v
                .get("code")
                .and_then(JsonValue::as_str)
                .unwrap_or("UNKNOWN")
                .to_string(),
            message: v
                .get("message")
                .and_then(JsonValue::as_str)
                .unwrap_or("")
                .to_string(),
        })
    }

    /// Like [`request`](Client::request) but returns the raw status and
    /// body (for non-JSON payloads like the trace JSONL).
    ///
    /// # Errors
    ///
    /// Transport errors only — any status parses.
    pub fn request_raw(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&JsonValue>,
    ) -> Result<(u16, String), ServeError> {
        let payload = body.map(JsonValue::to_string).unwrap_or_default();
        write_request(&mut self.writer, method, path, payload.as_bytes())?;
        // Status line.
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| WireError::new(format!("bad status line {line:?}")))?;
        // Headers.
        let mut content_length = 0usize;
        loop {
            let mut header = String::new();
            if self.reader.read_line(&mut header)? == 0 {
                return Err(ServeError::Io(io::ErrorKind::UnexpectedEof.into()));
            }
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .trim()
                        .parse()
                        .map_err(|_| WireError::new("bad content-length"))?;
                }
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        let text = String::from_utf8(body).map_err(|_| WireError::new("body is not UTF-8"))?;
        Ok((status, text))
    }

    /// `GET /v1/health`.
    ///
    /// # Errors
    ///
    /// [`ServeError`] as for [`request`](Client::request).
    pub fn health(&mut self) -> Result<JsonValue, ServeError> {
        self.request("GET", "/v1/health", None)
    }

    /// `POST /v1/sessions`: uploads a graph, returns the session id.
    ///
    /// # Errors
    ///
    /// [`ServeError`] as for [`request`](Client::request).
    pub fn create_session(&mut self, req: &CreateSession) -> Result<String, ServeError> {
        let v = self.request("POST", "/v1/sessions", Some(&req.to_body()))?;
        v.get("session")
            .and_then(JsonValue::as_str)
            .map(str::to_string)
            .ok_or_else(|| ServeError::Wire(WireError::new("response missing \"session\"")))
    }

    /// `DELETE /v1/sessions/{id}`.
    ///
    /// # Errors
    ///
    /// [`ServeError`]; `NOT_FOUND` when the session does not exist.
    pub fn delete_session(&mut self, session: &str) -> Result<(), ServeError> {
        self.request("DELETE", &format!("/v1/sessions/{session}"), None)?;
        Ok(())
    }

    /// `POST /v1/sessions/{id}/query` with a raw query object.
    ///
    /// # Errors
    ///
    /// [`ServeError`]; solver errors surface with their stable codes.
    pub fn query(&mut self, session: &str, query: &JsonValue) -> Result<JsonValue, ServeError> {
        self.request(
            "POST",
            &format!("/v1/sessions/{session}/query"),
            Some(query),
        )
    }

    /// `POST /v1/sessions/{id}/query` with the body of `query`, decoded as
    /// the typed report of its kind.
    fn typed_query<T: FromWire>(
        &mut self,
        session: &str,
        query: &Query,
    ) -> Result<Report<T>, ServeError> {
        Ok(Report::from_wire(&self.query(session, &query.to_wire())?)?)
    }

    /// Queries the session MST.
    ///
    /// # Errors
    ///
    /// [`ServeError`]; e.g. code `DISCONNECTED` on disconnected graphs.
    pub fn mst(&mut self, session: &str) -> Result<Report<Mst>, ServeError> {
        self.typed_query(session, &Query::Mst)
    }

    /// Queries the `(1+ε)` min-cut over a `trees`-tree packing.
    ///
    /// # Errors
    ///
    /// [`ServeError`] as for [`mst`](Client::mst).
    pub fn min_cut(&mut self, session: &str, trees: usize) -> Result<Report<MinCut>, ServeError> {
        let query = Query::MinCut {
            trees,
            two_respecting: true,
        };
        self.typed_query(session, &query)
    }

    /// Queries SSSP from `source` at `tier`.
    ///
    /// # Errors
    ///
    /// [`ServeError`] as for [`mst`](Client::mst).
    pub fn sssp(
        &mut self,
        session: &str,
        source: NodeId,
        tier: Tier,
    ) -> Result<Report<Sssp>, ServeError> {
        self.typed_query(session, &Query::Sssp { source, tier })
    }

    /// Queries connected components.
    ///
    /// # Errors
    ///
    /// [`ServeError`] as for [`mst`](Client::mst).
    pub fn components(&mut self, session: &str) -> Result<Report<Components>, ServeError> {
        self.typed_query(session, &Query::Components)
    }

    /// Queries the part-wise MIN aggregation.
    ///
    /// # Errors
    ///
    /// [`ServeError`] as for [`mst`](Client::mst).
    pub fn partwise_min(
        &mut self,
        session: &str,
        values: &[u64],
        value_bits: usize,
    ) -> Result<Report<PartwiseMin>, ServeError> {
        let query = Query::PartwiseMin {
            values: values.to_vec(),
            value_bits,
        };
        self.typed_query(session, &query)
    }

    /// Applies an edge-mutation batch to the session graph.
    ///
    /// # Errors
    ///
    /// [`ServeError`] as for [`mst`](Client::mst).
    pub fn apply(
        &mut self,
        session: &str,
        mutations: &[EdgeMutation],
    ) -> Result<RepairStats, ServeError> {
        let v = self.query(
            session,
            &obj([
                ("query", JsonValue::Str("apply".into())),
                (
                    "mutations",
                    JsonValue::Array(mutations.iter().map(ToWire::to_wire).collect()),
                ),
            ]),
        )?;
        Ok(RepairStats::from_wire(&v)?)
    }

    /// `GET /v1/sessions/{id}/trace`: the session's JSONL trace.
    ///
    /// # Errors
    ///
    /// [`ServeError`]; `NOT_FOUND` when tracing is off.
    pub fn trace_jsonl(&mut self, session: &str) -> Result<String, ServeError> {
        let (status, text) =
            self.request_raw("GET", &format!("/v1/sessions/{session}/trace"), None)?;
        if status == 200 {
            return Ok(text);
        }
        let v = JsonValue::parse(&text)?;
        Err(ServeError::Server {
            status,
            code: v
                .get("code")
                .and_then(JsonValue::as_str)
                .unwrap_or("UNKNOWN")
                .to_string(),
            message: v
                .get("message")
                .and_then(JsonValue::as_str)
                .unwrap_or("")
                .to_string(),
        })
    }
}
