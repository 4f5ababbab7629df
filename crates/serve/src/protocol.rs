//! The wire protocol: line-delimited JSON requests and responses, and
//! the bounded reader every byte from a client passes through.
//!
//! Grammar (one JSON object per line; see DESIGN.md §14):
//!
//! ```text
//! request  := submit | stats
//! submit   := {"op":"submit", "id": str, "circuit": circuit,
//!              "shots"?: int, "seed"?: int, "ranks"?: int,
//!              "transpile"?: "off"|"greedy"|"beam",
//!              "engine"?: "auto"|"dense"|"sparse"|"stabilizer",
//!              "basis"?: int, "faults"?: str}
//! circuit  := {"name": "qft"|"qft-blocked"|"ghz"|"grover"|"bv", "qubits": int}
//!           | {"qubits": int, "gates": [gate…]}
//! gate     := ["h"|"x"|"y"|"z"|"s"|"sdg"|"t"|"tdg", q]
//!           | ["phase"|"rz"|"rx"|"ry", q, theta]
//!           | ["cnot"|"cz"|"cphase"|"swap", a, b (, theta for cphase)]
//!           | ["mcphase", [q…], theta]
//! stats    := {"op":"stats"}
//! ```
//!
//! Parsing checks the wire: types, the `id` length, the shot and gate
//! caps, `qubits ≤ MAX_DENSE_QUBITS` and the fault-spec grammar. Whether
//! the job may run — engine width, ranks, basis, dense-only options — is
//! `SimConfig::admit`'s call, made at `Server::submit_with`.
//!
//! Responses echo the job `id` and carry either a result (`"ok":true`,
//! cache/batch provenance, counts, a 64-bit tree digest of the final
//! state) or a typed error (`"ok":false`, `"code"`, `"error"`).

use crate::error::ServeError;
use qse_circuit::gate::Gate;
use qse_circuit::Circuit;
use qse_comm::FaultConfig;
use qse_core::config::{EngineMode, TranspileMode, MAX_DENSE_QUBITS};
use qse_util::json::{Json, JsonError};
use std::collections::BTreeMap;
use std::io::Read;

/// Default cap on one request line, in bytes.
pub const DEFAULT_MAX_LINE: usize = 1 << 20;

/// One parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a job for execution.
    Submit(JobSpec),
    /// Report service counters.
    Stats,
}

/// Everything that defines one submitted job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Client-chosen identifier, echoed on the response line.
    pub id: String,
    /// The circuit exactly as submitted (canonicalised at admission).
    pub circuit: Circuit,
    /// Thread ranks to execute over (power of two).
    pub ranks: u64,
    /// Comm-avoiding transpilation strategy.
    pub transpile: TranspileMode,
    /// Measurement shots to draw from the final state (0 = none).
    pub shots: usize,
    /// Seed for this job's measurement draws.
    pub seed: u64,
    /// Initial basis state.
    pub basis: u64,
    /// Seeded fault-injection plan, if the client asked for one.
    pub faults: Option<FaultConfig>,
    /// Which simulation engine runs the job (`Dense` unless requested).
    /// The *requested* mode is part of the cache key, so `auto` and an
    /// explicit `dense` never share a cache entry even when auto
    /// resolves to the dense engine.
    pub engine: EngineMode,
}

fn bad(detail: impl Into<String>) -> ServeError {
    ServeError::BadRequest {
        detail: detail.into(),
    }
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, ServeError> {
    let json = Json::parse(line).map_err(|e: JsonError| bad(format!("invalid JSON: {e}")))?;
    let op = json
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing \"op\""))?;
    match op {
        "submit" => Ok(Request::Submit(parse_submit(&json)?)),
        "stats" => Ok(Request::Stats),
        other => Err(bad(format!("unknown op `{other}`"))),
    }
}

fn parse_submit(json: &Json) -> Result<JobSpec, ServeError> {
    let id = json
        .get("id")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("submit needs a string \"id\""))?
        .to_string();
    if id.is_empty() || id.len() > 128 {
        return Err(bad("\"id\" must be 1–128 characters"));
    }
    let circuit = parse_circuit(
        json.get("circuit")
            .ok_or_else(|| bad("submit needs a \"circuit\""))?,
    )?;
    let transpile = match json.get("transpile") {
        None => TranspileMode::Off,
        Some(v) => v
            .as_str()
            .and_then(TranspileMode::parse)
            .ok_or_else(|| bad("\"transpile\" must be off|greedy|beam"))?,
    };
    let uint_field = |key: &str, default: u64| -> Result<u64, ServeError> {
        match json.get(key) {
            None => Ok(default),
            Some(v) => v
                .as_u64()
                .ok_or_else(|| bad(format!("\"{key}\" must be a non-negative integer"))),
        }
    };
    let ranks = uint_field("ranks", 1)?;
    let shots = uint_field("shots", 0)? as usize;
    if shots > 1_000_000 {
        return Err(bad("\"shots\" capped at 1000000"));
    }
    let seed = uint_field("seed", 0)?;
    let basis = uint_field("basis", 0)?;
    let engine = match json.get("engine") {
        None => EngineMode::Dense,
        Some(v) => v
            .as_str()
            .and_then(EngineMode::parse)
            .ok_or_else(|| bad("\"engine\" must be auto|dense|sparse|stabilizer"))?,
    };
    let faults = match json.get("faults") {
        None => None,
        Some(v) => {
            let spec = v
                .as_str()
                .ok_or_else(|| bad("\"faults\" must be a spec string"))?;
            Some(FaultConfig::parse_spec(spec).map_err(|e| bad(format!("bad fault spec: {e}")))?)
        }
    };
    Ok(JobSpec {
        id,
        circuit,
        ranks,
        transpile,
        shots,
        seed,
        basis,
        faults,
        engine,
    })
}

fn parse_circuit(json: &Json) -> Result<Circuit, ServeError> {
    let n = json
        .get("qubits")
        .and_then(Json::as_u64)
        .ok_or_else(|| bad("circuit needs integer \"qubits\""))?;
    if n == 0 || n > u64::from(MAX_DENSE_QUBITS) {
        return Err(bad(format!("\"qubits\" must be in 1..={MAX_DENSE_QUBITS}")));
    }
    let n = n as u32;
    if let Some(name) = json.get("name").and_then(Json::as_str) {
        return qse_circuit::named::build(name, n).map_err(|e| bad(e.to_string()));
    }
    let gates = json
        .get("gates")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("circuit needs \"name\" or a \"gates\" array"))?;
    if gates.len() > 100_000 {
        return Err(bad("\"gates\" capped at 100000"));
    }
    let mut circuit = Circuit::new(n);
    for (i, g) in gates.iter().enumerate() {
        let gate = parse_gate(g, n).map_err(|e| match e {
            ServeError::BadRequest { detail } => bad(format!("gate {i}: {detail}")),
            other => other,
        })?;
        circuit.push(gate);
    }
    Ok(circuit)
}

/// Parses one `["name", operands…]` gate, validating qubit bounds and
/// distinctness so [`Circuit::push`]'s assertions can never fire on
/// client input.
fn parse_gate(json: &Json, n: u32) -> Result<Gate, ServeError> {
    let arr = json.as_arr().ok_or_else(|| bad("gate must be an array"))?;
    let name = arr
        .first()
        .and_then(Json::as_str)
        .ok_or_else(|| bad("gate needs a name string first"))?;
    let in_range = |q: u64| -> Result<u32, ServeError> {
        if q >= u64::from(n) {
            return Err(bad(format!("qubit {q} out of range for {n} qubits")));
        }
        Ok(q as u32)
    };
    let qubit = |idx: usize| {
        let q = arr.get(idx).and_then(Json::as_u64);
        in_range(q.ok_or_else(|| bad(format!("`{name}` needs a qubit at position {idx}")))?)
    };
    let angle = |idx: usize| -> Result<f64, ServeError> {
        let theta = arr
            .get(idx)
            .and_then(Json::as_f64)
            .ok_or_else(|| bad(format!("`{name}` needs an angle at position {idx}")))?;
        if !theta.is_finite() {
            return Err(bad("angles must be finite"));
        }
        Ok(theta)
    };
    let arity = |want: usize| -> Result<(), ServeError> {
        if arr.len() == want + 1 {
            Ok(())
        } else {
            Err(bad(format!(
                "`{name}` takes {want} operand(s), got {}",
                arr.len() - 1
            )))
        }
    };
    let distinct = |a: u32, b: u32| -> Result<(), ServeError> {
        if a == b {
            Err(bad(format!("`{name}` qubits must differ, both are {a}")))
        } else {
            Ok(())
        }
    };
    let one = |gate: fn(u32) -> Gate| -> Result<Gate, ServeError> {
        arity(1)?;
        Ok(gate(qubit(1)?))
    };
    let rotation = |gate: fn(u32, f64) -> Gate| -> Result<Gate, ServeError> {
        arity(2)?;
        Ok(gate(qubit(1)?, angle(2)?))
    };
    let pair = |want: usize| -> Result<(u32, u32), ServeError> {
        arity(want)?;
        let (a, b) = (qubit(1)?, qubit(2)?);
        distinct(a, b)?;
        Ok((a, b))
    };
    Ok(match name {
        "h" => one(Gate::H)?,
        "x" => one(Gate::X)?,
        "y" => one(Gate::Y)?,
        "z" => one(Gate::Z)?,
        "s" => one(Gate::S)?,
        "sdg" => one(Gate::Sdg)?,
        "t" => one(Gate::T)?,
        "tdg" => one(Gate::Tdg)?,
        "phase" => rotation(|target, theta| Gate::Phase { target, theta })?,
        "rz" => rotation(|target, theta| Gate::Rz { target, theta })?,
        "rx" => rotation(|target, theta| Gate::Rx { target, theta })?,
        "ry" => rotation(|target, theta| Gate::Ry { target, theta })?,
        "cnot" => pair(2).map(|(control, target)| Gate::CNot { control, target })?,
        "cz" => pair(2).map(|(a, b)| Gate::CZ(a, b))?,
        "swap" => pair(2).map(|(a, b)| Gate::Swap(a, b))?,
        "cphase" => {
            let (a, b) = pair(3)?;
            Gate::CPhase {
                a,
                b,
                theta: angle(3)?,
            }
        }
        "mcphase" => {
            arity(2)?;
            let qs = arr
                .get(1)
                .and_then(Json::as_arr)
                .ok_or_else(|| bad("`mcphase` needs a qubit array"))?;
            let mut qubits = Vec::with_capacity(qs.len());
            for q in qs {
                let q = q
                    .as_u64()
                    .ok_or_else(|| bad("`mcphase` qubits must be integers"))?;
                qubits.push(in_range(q)?);
            }
            let unique: std::collections::BTreeSet<_> = qubits.iter().collect();
            if qubits.is_empty() || unique.len() != qubits.len() {
                return Err(bad("`mcphase` needs ≥1 distinct qubits"));
            }
            Gate::MCPhase {
                qubits,
                theta: angle(2)?,
            }
        }
        other => return Err(bad(format!("unknown gate `{other}`"))),
    })
}

/// What the server sends back for one completed job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Echo of the submitted id.
    pub id: String,
    /// Whether the compiled plan came from the cache.
    pub cache_hit: bool,
    /// How many jobs shared this execution (1 = ran alone).
    pub batched: usize,
    /// Submit → response latency, microseconds.
    pub latency_us: u64,
    /// Fingerprint of the final state's bit patterns, for bit-for-bit
    /// comparisons without shipping the state: the tree digest of the
    /// amplitudes ([`qse_statevec::digest`]; it replaced an FNV-1a, which
    /// changed dense and sparse values once) or an FNV-1a of the tableau.
    pub state_fnv: u64,
    /// The engine that executed the job ("dense", "sparse",
    /// "stabilizer") — auto submissions see what auto resolved to.
    pub engine: &'static str,
    /// Measurement histogram (present when `shots > 0`).
    pub counts: Option<BTreeMap<u64, usize>>,
}

/// The reply fingerprint of dense amplitudes held in one place: the tree
/// digest ([`qse_statevec::digest`]) that a served reply's `state_fnv`
/// carries for every dense and sparse state.
pub use qse_statevec::digest::dense as state_fingerprint;

/// Renders a success response line (no trailing newline).
pub fn render_result(r: &JobResult) -> String {
    let cache = if r.cache_hit { "hit" } else { "miss" };
    let mut fields = vec![
        ("id", Json::Str(r.id.clone())),
        ("ok", Json::Bool(true)),
        ("cache", Json::Str(cache.to_string())),
        ("batched", Json::UInt(r.batched as u64)),
        ("latency_us", Json::UInt(r.latency_us)),
        ("state_fnv", Json::Str(format!("{:016x}", r.state_fnv))),
        ("engine", Json::Str(r.engine.to_string())),
    ];
    if let Some(counts) = &r.counts {
        let counts = counts
            .iter()
            .map(|(k, v)| (k.to_string(), Json::UInt(*v as u64)));
        fields.push(("counts", Json::object(counts)));
    }
    Json::object(fields).to_string()
}

/// Renders an error response line (no trailing newline). `id` is absent
/// when the failure predates knowing which job it was (a parse error).
pub fn render_error(id: Option<&str>, err: &ServeError) -> String {
    let mut fields = Vec::with_capacity(4);
    if let Some(id) = id {
        fields.push(("id", Json::Str(id.to_string())));
    }
    fields.push(("ok", Json::Bool(false)));
    fields.push(("code", Json::Str(err.code().to_string())));
    fields.push(("error", Json::Str(err.to_string())));
    Json::object(fields).to_string()
}

/// Why [`BoundedLineReader`] stopped producing lines.
#[derive(Debug, PartialEq, Eq)]
pub enum LineError {
    /// A line exceeded the configured byte cap — drop the connection.
    TooLong {
        /// The configured cap.
        limit: usize,
    },
    /// The read deadline passed with no data — idle client.
    Timeout,
    /// The line was not valid UTF-8.
    NotUtf8,
    /// Any other I/O failure, rendered.
    Io(String),
}

impl std::fmt::Display for LineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LineError::TooLong { limit } => write!(f, "line exceeds {limit} byte cap"),
            LineError::Timeout => write!(f, "read timed out"),
            LineError::NotUtf8 => write!(f, "line is not valid UTF-8"),
            LineError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

/// A newline-delimited reader with a hard per-line byte cap.
///
/// Every byte a client can send the service passes through this type:
/// raw `read` calls into a fixed-size chunk, an explicit cap on the
/// accumulated line, and timeouts surfaced as [`LineError::Timeout`]
/// (the socket's `set_read_timeout` supplies the deadline). This is
/// what qse-lint R7 enforces — no unbounded `read_to_end`/`read_line`
/// on network input.
pub struct BoundedLineReader<R> {
    inner: R,
    buf: Vec<u8>,
    max_line: usize,
}

impl<R: Read> BoundedLineReader<R> {
    /// Wraps `inner` with a `max_line` byte cap per line.
    pub fn new(inner: R, max_line: usize) -> Self {
        BoundedLineReader {
            inner,
            buf: Vec::new(),
            max_line,
        }
    }

    /// Returns the next line (without its `\n`), `Ok(None)` at clean
    /// EOF. A final unterminated line is returned before `None`.
    pub fn next_line(&mut self) -> Result<Option<String>, LineError> {
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let mut line: Vec<u8> = self.buf.drain(..=pos).collect();
                line.pop(); // the \n
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                let s = String::from_utf8(line).map_err(|_| LineError::NotUtf8)?;
                return Ok(Some(s));
            }
            if self.buf.len() > self.max_line {
                return Err(LineError::TooLong {
                    limit: self.max_line,
                });
            }
            let mut chunk = [0u8; 4096];
            match self.inner.read(&mut chunk) {
                Ok(0) => {
                    if self.buf.is_empty() {
                        return Ok(None);
                    }
                    let line = std::mem::take(&mut self.buf);
                    let s = String::from_utf8(line).map_err(|_| LineError::NotUtf8)?;
                    return Ok(Some(s));
                }
                Ok(k) => self.buf.extend_from_slice(&chunk[..k]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Err(LineError::Timeout)
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(LineError::Io(e.to_string())),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_named_submit_with_defaults() {
        let req = parse_request(r#"{"op":"submit","id":"j1","circuit":{"name":"qft","qubits":5}}"#)
            .unwrap();
        let Request::Submit(spec) = req else {
            panic!("expected submit")
        };
        assert_eq!(spec.id, "j1");
        assert_eq!(spec.circuit, qse_circuit::qft::qft(5));
        assert_eq!(spec.ranks, 1);
        assert_eq!(spec.shots, 0);
        assert_eq!(spec.transpile, TranspileMode::Off);
        assert!(spec.faults.is_none());
        assert_eq!(spec.engine, EngineMode::Dense);
    }

    #[test]
    fn parses_engine_modes_and_rejects_unknown_ones() {
        for (value, want) in [
            ("auto", EngineMode::Auto),
            ("dense", EngineMode::Dense),
            ("sparse", EngineMode::Sparse),
            ("stabilizer", EngineMode::Stabilizer),
        ] {
            let line = format!(
                r#"{{"op":"submit","id":"j","engine":"{value}","circuit":{{"name":"ghz","qubits":4}}}}"#
            );
            let Request::Submit(spec) = parse_request(&line).unwrap() else {
                panic!("expected submit")
            };
            assert_eq!(spec.engine, want, "{value}");
        }
        let err = parse_request(
            r#"{"op":"submit","id":"j","engine":"tensor","circuit":{"name":"ghz","qubits":4}}"#,
        )
        .expect_err("unknown engine");
        assert!(matches!(err, ServeError::BadRequest { .. }));
    }

    #[test]
    fn parses_an_explicit_gate_list_and_all_options() {
        let req = parse_request(
            r#"{"op":"submit","id":"j2","ranks":4,"transpile":"beam","shots":100,
               "seed":7,"basis":3,"faults":"seed=5",
               "circuit":{"qubits":3,"gates":[["h",0],["cnot",0,1],
               ["cphase",1,2,0.25],["mcphase",[0,1,2],0.5],["swap",0,2]]}}"#,
        )
        .unwrap();
        let Request::Submit(spec) = req else {
            panic!("expected submit")
        };
        assert_eq!(spec.circuit.len(), 5);
        assert_eq!(spec.ranks, 4);
        assert_eq!(spec.transpile, TranspileMode::Beam);
        assert_eq!(spec.shots, 100);
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.basis, 3);
        assert_eq!(spec.faults.unwrap().seed, 5);
    }

    #[test]
    fn rejects_malformed_requests_with_bad_request() {
        for line in [
            "not json",
            r#"{"id":"x"}"#,
            r#"{"op":"nope"}"#,
            r#"{"op":"submit","circuit":{"name":"qft","qubits":5}}"#,
            r#"{"op":"submit","id":"x","circuit":{"name":"warp","qubits":5}}"#,
            r#"{"op":"submit","id":"x","circuit":{"qubits":2,"gates":[["h",7]]}}"#,
            r#"{"op":"submit","id":"x","circuit":{"qubits":2,"gates":[["cnot",1,1]]}}"#,
            r#"{"op":"submit","id":"x","circuit":{"qubits":2,"gates":[["mcphase",[0,0],1.0]]}}"#,
            r#"{"op":"submit","id":"x","circuit":{"qubits":99,"gates":[]}}"#,
            r#"{"op":"submit","id":"x","faults":"bogus","circuit":{"name":"qft","qubits":5}}"#,
        ] {
            let err = parse_request(line).expect_err(line);
            assert!(
                matches!(err, ServeError::BadRequest { .. }),
                "{line} → {err:?}"
            );
        }
        assert_eq!(parse_request(r#"{"op":"stats"}"#).unwrap(), Request::Stats);
    }

    #[test]
    fn named_circuits_come_from_the_shared_table() {
        let req = r#"{"op":"submit","id":"j","circuit":{"name":"qft-blocked","qubits":6}}"#;
        let Request::Submit(spec) = parse_request(req).unwrap() else {
            panic!("expected submit")
        };
        assert_eq!(
            Ok(spec.circuit),
            qse_circuit::named::build("qft-blocked", 6)
        );
    }

    #[test]
    fn responses_round_trip_through_the_json_parser() {
        let mut counts = BTreeMap::new();
        counts.insert(0u64, 60usize);
        counts.insert(3u64, 40usize);
        let line = render_result(&JobResult {
            id: "job-9".into(),
            cache_hit: true,
            batched: 4,
            latency_us: 1234,
            state_fnv: 0xdead_beef_cafe_f00d,
            engine: "dense",
            counts: Some(counts),
        });
        let json = Json::parse(&line).unwrap();
        assert_eq!(json.get("id").and_then(Json::as_str), Some("job-9"));
        assert_eq!(json.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(json.get("cache").and_then(Json::as_str), Some("hit"));
        assert_eq!(json.get("batched").and_then(Json::as_u64), Some(4));
        assert_eq!(json.get("engine").and_then(Json::as_str), Some("dense"));
        assert_eq!(
            json.get("state_fnv").and_then(Json::as_str),
            Some("deadbeefcafef00d")
        );
        assert_eq!(
            json.get("counts")
                .and_then(|c| c.get("3"))
                .and_then(Json::as_u64),
            Some(40)
        );

        let line = render_error(Some("job-9"), &ServeError::QueueFull { capacity: 8 });
        let json = Json::parse(&line).unwrap();
        assert_eq!(json.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(json.get("code").and_then(Json::as_str), Some("queue_full"));
    }

    #[test]
    fn bounded_reader_splits_lines_and_enforces_the_cap() {
        let data: &[u8] = b"alpha\nbeta\r\ngamma";
        let mut r = BoundedLineReader::new(data, 64);
        assert_eq!(r.next_line().unwrap().as_deref(), Some("alpha"));
        assert_eq!(r.next_line().unwrap().as_deref(), Some("beta"));
        assert_eq!(r.next_line().unwrap().as_deref(), Some("gamma"));
        assert_eq!(r.next_line().unwrap(), None);

        let long = [b'x'; 100];
        let mut r = BoundedLineReader::new(&long[..], 16);
        assert_eq!(r.next_line(), Err(LineError::TooLong { limit: 16 }));
    }

    /// Seeded byte-level fuzz of [`parse_request`]: valid lines mutated by
    /// bit flips, truncations, splices of two lines, duplicated keys,
    /// inserted bytes (structural and non-ASCII) and values wrapped in
    /// arrays nested around [`MAX_PARSE_DEPTH`], read back through
    /// `from_utf8_lossy`. Every input must come back `Ok` or a typed
    /// [`ServeError`]; a panic fails with the input that caused it.
    #[test]
    fn mutated_lines_parse_or_fail_typed() {
        use qse_util::json::MAX_PARSE_DEPTH;
        use qse_util::rng::{Rng, SplitMix64};
        const SEEDS: [&str; 5] = [
            r#"{"op":"submit","id":"j1","circuit":{"name":"qft","qubits":5},"shots":100,"seed":7}"#,
            r#"{"op":"submit","id":"g","ranks":2,"transpile":"beam","engine":"dense","basis":3,"circuit":{"qubits":4,"gates":[["h",0],["cnot",0,3],["cphase",1,2,0.5],["rz",2,-1.25],["swap",0,1],["mcphase",[0,1,3],3.14]]}}"#,
            r#"{"op":"submit","id":"f","faults":"seed=42,delay=0.2,corrupt=0.1,budget=3","circuit":{"name":"ghz","qubits":6}}"#,
            r#"{"op":"submit","id":"s","engine":"auto","circuit":{"name":"bv","qubits":7},"shots":5}"#,
            r#"{"op":"stats"}"#,
        ];
        let mut rng = SplitMix64::seed_from_u64(0x5eed_0049);
        let below = |n: usize, rng: &mut SplitMix64| (rng.next_u64() % n.max(1) as u64) as usize;
        let (mut ok, mut typed) = (0usize, 0usize);
        for iter in 0..20_000 {
            let mut bytes = SEEDS[below(SEEDS.len(), &mut rng)].as_bytes().to_vec();
            for _ in 0..1 + below(3, &mut rng) {
                let at = below(bytes.len() + 1, &mut rng);
                match below(6, &mut rng) {
                    0 if at < bytes.len() => bytes[at] ^= 1 << below(8, &mut rng),
                    1 => bytes.truncate(at),
                    2 => {
                        let other = SEEDS[below(SEEDS.len(), &mut rng)].as_bytes();
                        let from = below(other.len(), &mut rng);
                        let to = from + below(other.len() - from + 1, &mut rng);
                        let end = at + below(bytes.len() - at + 1, &mut rng);
                        bytes.splice(at..end, other[from..to].iter().copied());
                    }
                    3 => {
                        // Repeat one key of the line right after its opening brace.
                        let key = [
                            "\"id\":\"dup\",",
                            "\"op\":\"stats\",",
                            "\"qubits\":9,",
                            "\"shots\":-1,",
                        ];
                        let brace = bytes.iter().position(|&b| b == b'{').map_or(0, |p| p + 1);
                        let k = key[below(key.len(), &mut rng)].as_bytes();
                        bytes.splice(brace..brace, k.iter().copied());
                    }
                    4 => {
                        const ODD: [u8; 10] =
                            [b'{', b'}', b'[', b']', b'"', b':', b',', b'\\', 0xc3, 0xff];
                        bytes.insert(at, ODD[below(ODD.len(), &mut rng)]);
                    }
                    _ => {
                        // Wrap the value at a `:` in arrays nested just below,
                        // at and past the parser's cap, unclosed now and then.
                        let depth = MAX_PARSE_DEPTH - 2 + below(6, &mut rng);
                        if let Some(colon) = bytes[at..].iter().position(|&b| b == b':') {
                            let open = at + colon + 1;
                            let close = bytes[open..]
                                .iter()
                                .position(|&b| b == b',' || b == b'}')
                                .map_or(bytes.len(), |p| open + p);
                            if below(4, &mut rng) > 0 {
                                bytes.splice(close..close, std::iter::repeat_n(b']', depth));
                            }
                            bytes.splice(open..open, std::iter::repeat_n(b'[', depth));
                        }
                    }
                }
            }
            let line = String::from_utf8_lossy(&bytes);
            match std::panic::catch_unwind(|| parse_request(&line)) {
                Ok(Ok(_)) => ok += 1,
                Ok(Err(_)) => typed += 1,
                Err(_) => panic!("iteration {iter}: parse_request panicked on {line:?}"),
            }
        }
        // The mutations must leave some lines valid and break others.
        assert!(ok > 100 && typed > 1000, "{ok} parsed, {typed} refused");
    }
}
