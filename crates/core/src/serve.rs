//! Measurement-as-a-service: the `biaslab serve` daemon, its JSONL wire
//! protocol, the one-shot client, and the `loadgen` load driver.
//!
//! The serving layer is a thin, heavily validated shell around the
//! single-flight [`Orchestrator`]: a request is parsed off the socket by
//! its connection's reader thread. Control requests and `measure`s whose
//! key is already cached are answered right there; work that simulates
//! (cache misses, sweeps) is admitted into a bounded queue (or shed with
//! an explicit backpressure response — never a hang) and executed by a
//! worker-pool thread against the shared orchestrator. Either way the
//! answer is the exact bytes the in-process path would have produced.
//! That byte-identity is the contract the differential test battery pins.
//!
//! Wire format: one JSON object per line, `PROTO_VERSION` in every line.
//! Requests carry `"ev":"req"`; responses are `"resp"` (terminal),
//! `"item"` (one sweep element), or `"stats"`. Every response line is
//! sealed with a trailing `"crc"` field — the FNV-1a hash of the body up
//! to (not including) `,"crc":` — so a client can detect torn writes
//! without trusting framing alone. String values never contain quotes,
//! brackets or braces, which keeps the `jsonl` field scanner exact.
//!
//! Failure model: the socket-boundary `serve.*` fault sites (accept
//! failure, short write, mid-response disconnect, slow client) leave a
//! client observing at worst a typed error or a torn / truncated line; it
//! reconnects with seeded jittered backoff and retries the whole exchange,
//! and the orchestrator's caches make the retry cheap and the response
//! identical. Inside the daemon a supervision layer holds the same line
//! for pooled work: every pool job runs under `catch_unwind`, a panicked
//! worker answers its client with a typed `panic` error and is respawned
//! under a capped, seeded-jitter restart budget
//! (`serve.worker.{panic,respawn}`, surfaced as the `health` field of
//! `stats`); requests may carry a `deadline_ms` enforced at every control
//! point (admission wait, single-flight wait) as a typed `deadline`
//! response; SIGTERM / `shutdown {"mode":"drain"}` finishes in-flight
//! work before stopping; and sweeps write a crc-sealed journal so a
//! daemon killed mid-sweep resumes instead of re-simulating.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::thread;
use std::time::{Duration, Instant};

use biaslab_toolchain::layout::STACK_MAX;
use biaslab_toolchain::load::Environment;
use biaslab_toolchain::OptLevel;
use biaslab_uarch::MachineConfig;
use biaslab_workloads::InputSize;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::faults::{self, site};
use crate::harness::{MeasureError, Measurement};
use crate::jsonl::{field, field_str, field_u64, fnv64, sync_parent_dir};
use crate::orchestrator::{
    counters_to_vec, order_str, parse_order, parse_size, size_str, DeadlineExceeded, Orchestrator,
};
use crate::setup::{ExperimentSetup, LinkOrder};
use crate::sync::{lock_unpoisoned, wait_unpoisoned};
use crate::telemetry;

/// Wire protocol version; every line carries it as `"v"`.
pub const PROTO_VERSION: u64 = 1;

/// Smallest non-empty environment `Environment::of_total_size` accepts.
const MIN_ENV_BYTES: u64 = 23;

/// Largest environment the loader can actually place (`STACK_MAX / 2`,
/// stack shift included). Rejected at parse time: anything larger would
/// allocate a fill string of that size per request only to fail the load,
/// and a value past `u32::MAX` would otherwise truncate into the panicking
/// `< 23` range of `Environment::of_total_size`.
const MAX_ENV_BYTES: u64 = (STACK_MAX / 2) as u64;

/// `true` when `bytes` is an environment size a request may carry:
/// `0` (keep the default) or within the loader's representable range.
fn env_in_range(bytes: u64) -> bool {
    bytes == 0 || (MIN_ENV_BYTES..=MAX_ENV_BYTES).contains(&bytes)
}

/// Top-level fields of a control request (`ping`, `stats`).
pub const REQ_CONTROL_FIELDS: &[&str] = &["v", "ev", "id", "op"];
/// Top-level fields of a `shutdown` request: control fields plus the
/// optional `mode` (`now`, the default, or `drain`).
pub const REQ_SHUTDOWN_FIELDS: &[&str] = &["v", "ev", "id", "op", "mode"];
/// Top-level fields of a `measure` request, in canonical order.
/// `deadline_ms` is optional; absent means no deadline.
pub const REQ_MEASURE_FIELDS: &[&str] = &[
    "v",
    "ev",
    "id",
    "op",
    "bench",
    "machine",
    "opt",
    "order",
    "text_offset",
    "stack_shift",
    "env",
    "size",
    "budget",
    "deadline_ms",
];
/// Top-level fields of a `sweep` request: measure fields plus `envs`.
pub const REQ_SWEEP_FIELDS: &[&str] = &[
    "v",
    "ev",
    "id",
    "op",
    "bench",
    "machine",
    "opt",
    "order",
    "text_offset",
    "stack_shift",
    "env",
    "size",
    "budget",
    "deadline_ms",
    "envs",
];
/// Top-level fields of a terminal response line.
pub const RESP_FIELDS: &[&str] = &[
    "v", "ev", "id", "status", "code", "error", "setup", "checksum", "counters", "items", "crc",
];
/// Top-level fields of one sweep-element line.
pub const ITEM_FIELDS: &[&str] = &[
    "v", "ev", "id", "seq", "status", "code", "error", "setup", "checksum", "counters", "crc",
];
/// Top-level fields of a stats response line. `health` is the daemon's
/// supervision state: `ok`, `degraded` (fewer live workers than
/// configured) or `draining`.
pub const STATS_FIELDS: &[&str] = &["v", "ev", "id", "health", "counters", "crc"];

/// Request operations the daemon understands.
pub const OPS: &[&str] = &["ping", "stats", "shutdown", "measure", "sweep"];

// ---------------------------------------------------------------------------
// Protocol: requests
// ---------------------------------------------------------------------------

/// Everything needed to rebuild an [`ExperimentSetup`] on the server side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeasureSpec {
    /// Benchmark name (validated server-side against the suite).
    pub bench: String,
    /// Machine configuration name (`core2`, `pentium4`, `o3cpu`).
    pub machine: String,
    /// Optimization level the toolchain compiles at.
    pub opt: OptLevel,
    /// Link order applied to the benchmark's objects.
    pub order: LinkOrder,
    /// Byte offset the text segment is slid by.
    pub text_offset: u32,
    /// Byte shift applied to the initial stack pointer.
    pub stack_shift: u32,
    /// Environment size in bytes; `0` means the empty environment.
    pub env: u64,
    /// Input size the benchmark runs with.
    pub size: InputSize,
    /// Instruction-budget override; `0` keeps the machine default. A tiny
    /// budget is the sanctioned way to provoke a watchdog error remotely.
    pub budget: u64,
}

impl MeasureSpec {
    /// Resolves the spec into a concrete setup, or `None` for an unknown
    /// machine name or an out-of-range `env` (parse validates both, so
    /// this is defensive only — never a truncating cast or a panic).
    #[must_use]
    pub fn setup(&self) -> Option<ExperimentSetup> {
        let mut machine = MachineConfig::all()
            .into_iter()
            .find(|m| m.name == self.machine)?;
        if self.budget > 0 {
            machine.max_instructions = self.budget;
        }
        if !env_in_range(self.env) {
            return None;
        }
        let mut setup = ExperimentSetup::default_on(machine, self.opt);
        setup.link_order = self.order;
        setup.text_offset = self.text_offset;
        setup.stack_shift = self.stack_shift;
        if self.env != 0 {
            setup.env = Environment::of_total_size(u32::try_from(self.env).ok()?);
        }
        Some(setup)
    }
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe; answered inline with a bare `ok`.
    Ping {
        /// Client-chosen correlation id echoed in the response.
        id: u64,
    },
    /// Snapshot of orchestrator + serve counters.
    Stats {
        /// Client-chosen correlation id echoed in the response.
        id: u64,
    },
    /// Acknowledge, then stop the daemon — immediately (`mode:now`, the
    /// default) or after finishing in-flight work (`mode:drain`).
    Shutdown {
        /// Client-chosen correlation id echoed in the response.
        id: u64,
        /// `true` for a graceful drain: stop accepting, finish admitted
        /// work up to the daemon's drain timeout, then stop.
        drain: bool,
    },
    /// One measurement under one concrete setup.
    Measure {
        /// Client-chosen correlation id echoed in the response.
        id: u64,
        /// The setup to measure.
        spec: MeasureSpec,
        /// Wall-clock deadline in milliseconds from admission; `0` means
        /// no deadline. An expired request gets a typed `deadline`
        /// response instead of burning a simulation.
        deadline_ms: u64,
    },
    /// A sweep of the spec's setup across an environment-size grid.
    Sweep {
        /// Client-chosen correlation id echoed in every line.
        id: u64,
        /// The base setup swept.
        spec: MeasureSpec,
        /// Environment sizes in bytes; `0` keeps the base environment.
        envs: Vec<u64>,
        /// Wall-clock deadline in milliseconds from admission; `0` means
        /// no deadline. Checked between items; completed items are kept.
        deadline_ms: u64,
    },
}

impl Request {
    /// The client-chosen correlation id carried by every request kind.
    #[must_use]
    pub fn id(&self) -> u64 {
        match self {
            Request::Ping { id }
            | Request::Stats { id }
            | Request::Shutdown { id, .. }
            | Request::Measure { id, .. }
            | Request::Sweep { id, .. } => *id,
        }
    }
}

/// Why a request line was rejected. Variants are ordered by check priority:
/// emptiness, framing, version, envelope, identity, operation, unknown
/// fields, then
/// per-field value checks in canonical field order — so a line with
/// several problems is always rejected for the same one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The line was empty or whitespace.
    Empty,
    /// The line was not a braced one-line object (truncated or garbage).
    BadFrame,
    /// `v` was missing or not [`PROTO_VERSION`].
    BadVersion(String),
    /// `ev` was missing or not `req`.
    NotARequest(String),
    /// A required field was absent.
    MissingField(&'static str),
    /// `op` named no known operation.
    UnknownOp(String),
    /// A top-level key outside the op's allow-list (first in line order).
    UnknownField(String),
    /// A field was present but unparseable or out of range.
    BadValue(&'static str, String),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Empty => write!(f, "empty request line"),
            ProtoError::BadFrame => write!(f, "request line is not a braced object"),
            ProtoError::BadVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version `{v}` (want {PROTO_VERSION})"
                )
            }
            ProtoError::NotARequest(ev) => write!(f, "expected ev=req, got `{ev}`"),
            ProtoError::MissingField(k) => write!(f, "missing field `{k}`"),
            ProtoError::UnknownOp(op) => write!(f, "unknown op `{op}`"),
            ProtoError::UnknownField(k) => write!(f, "unknown field `{k}`"),
            ProtoError::BadValue(k, v) => write!(f, "bad value for `{k}`: `{v}`"),
        }
    }
}

/// Scans the top-level keys of a one-line JSON object, in line order.
/// Depth-aware so nested objects/arrays contribute no keys; panic-free on
/// arbitrary input.
#[must_use]
pub fn top_level_keys(line: &str) -> Vec<&str> {
    let mut keys = Vec::new();
    let bytes = line.as_bytes();
    let mut depth = 0usize;
    let mut i = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'{' | b'[' => depth += 1,
            b'}' | b']' => depth = depth.saturating_sub(1),
            b'"' if depth == 1 => {
                let start = i + 1;
                let Some(rel) = line.get(start..).and_then(|rest| rest.find('"')) else {
                    break;
                };
                let end = start + rel;
                // A key is a quoted string immediately followed by a colon.
                if bytes.get(end + 1) == Some(&b':') {
                    keys.push(&line[start..end]);
                }
                i = end;
            }
            _ => {}
        }
        i += 1;
    }
    keys
}

/// Parses one request line. Never panics; the error for a given malformed
/// line is deterministic (see [`ProtoError`] ordering).
pub fn parse_request(line: &str) -> Result<Request, ProtoError> {
    let line = line.trim();
    if line.is_empty() {
        return Err(ProtoError::Empty);
    }
    if !line.starts_with('{') || !line.ends_with('}') {
        return Err(ProtoError::BadFrame);
    }
    if field_u64(line, "v") != Some(PROTO_VERSION) {
        return Err(ProtoError::BadVersion(
            field(line, "v").unwrap_or("").to_owned(),
        ));
    }
    match field_str(line, "ev") {
        Some("req") => {}
        other => return Err(ProtoError::NotARequest(other.unwrap_or("").to_owned())),
    }
    let id = field_u64(line, "id").ok_or(ProtoError::MissingField("id"))?;
    let op = field_str(line, "op").ok_or(ProtoError::MissingField("op"))?;
    let allowed: &[&str] = match op {
        "ping" | "stats" => REQ_CONTROL_FIELDS,
        "shutdown" => REQ_SHUTDOWN_FIELDS,
        "measure" => REQ_MEASURE_FIELDS,
        "sweep" => REQ_SWEEP_FIELDS,
        other => return Err(ProtoError::UnknownOp(other.to_owned())),
    };
    for key in top_level_keys(line) {
        if !allowed.contains(&key) {
            return Err(ProtoError::UnknownField(key.to_owned()));
        }
    }
    match op {
        "ping" => Ok(Request::Ping { id }),
        "stats" => Ok(Request::Stats { id }),
        "shutdown" => {
            let drain = match field_str(line, "mode") {
                None | Some("now") => false,
                Some("drain") => true,
                Some(other) => return Err(ProtoError::BadValue("mode", other.to_owned())),
            };
            Ok(Request::Shutdown { id, drain })
        }
        "measure" => {
            let spec = parse_spec(line)?;
            let deadline_ms = opt_u64(line, "deadline_ms")?;
            Ok(Request::Measure {
                id,
                spec,
                deadline_ms,
            })
        }
        _ => {
            let spec = parse_spec(line)?;
            let deadline_ms = opt_u64(line, "deadline_ms")?;
            let envs = parse_envs(line)?;
            Ok(Request::Sweep {
                id,
                spec,
                envs,
                deadline_ms,
            })
        }
    }
}

/// An optional numeric field: absent parses as `0`.
fn opt_u64(line: &str, key: &'static str) -> Result<u64, ProtoError> {
    match field(line, key) {
        None => Ok(0),
        Some(raw) => raw
            .parse()
            .map_err(|_| ProtoError::BadValue(key, raw.to_owned())),
    }
}

fn need<'a>(line: &'a str, key: &'static str) -> Result<&'a str, ProtoError> {
    field_str(line, key).ok_or(ProtoError::MissingField(key))
}

fn need_u64(line: &str, key: &'static str) -> Result<u64, ProtoError> {
    match field(line, key) {
        None => Err(ProtoError::MissingField(key)),
        Some(raw) => raw
            .parse()
            .map_err(|_| ProtoError::BadValue(key, raw.to_owned())),
    }
}

fn need_u32(line: &str, key: &'static str) -> Result<u32, ProtoError> {
    match field(line, key) {
        None => Err(ProtoError::MissingField(key)),
        Some(raw) => raw
            .parse()
            .map_err(|_| ProtoError::BadValue(key, raw.to_owned())),
    }
}

fn parse_spec(line: &str) -> Result<MeasureSpec, ProtoError> {
    let bench = need(line, "bench")?.to_owned();
    let machine = need(line, "machine")?.to_owned();
    if !MachineConfig::all().iter().any(|m| m.name == machine) {
        return Err(ProtoError::BadValue("machine", machine));
    }
    let opt_raw = need(line, "opt")?;
    let opt = OptLevel::ALL
        .into_iter()
        .find(|l| l.name() == opt_raw)
        .ok_or_else(|| ProtoError::BadValue("opt", opt_raw.to_owned()))?;
    let order_raw = need(line, "order")?;
    let order = parse_order(order_raw)
        .ok_or_else(|| ProtoError::BadValue("order", order_raw.to_owned()))?;
    let text_offset = need_u32(line, "text_offset")?;
    let stack_shift = need_u32(line, "stack_shift")?;
    let env = need_u64(line, "env")?;
    if !env_in_range(env) {
        return Err(ProtoError::BadValue("env", env.to_string()));
    }
    let size_raw = need(line, "size")?;
    let size =
        parse_size(size_raw).ok_or_else(|| ProtoError::BadValue("size", size_raw.to_owned()))?;
    let budget = need_u64(line, "budget")?;
    Ok(MeasureSpec {
        bench,
        machine,
        opt,
        order,
        text_offset,
        stack_shift,
        env,
        size,
        budget,
    })
}

fn parse_envs(line: &str) -> Result<Vec<u64>, ProtoError> {
    let raw = field(line, "envs").ok_or(ProtoError::MissingField("envs"))?;
    let inner = raw
        .strip_prefix('[')
        .and_then(|r| r.strip_suffix(']'))
        .ok_or_else(|| ProtoError::BadValue("envs", raw.to_owned()))?;
    let mut envs = Vec::new();
    if !inner.is_empty() {
        for part in inner.split(',') {
            let bytes: u64 = part
                .parse()
                .map_err(|_| ProtoError::BadValue("envs", part.to_owned()))?;
            if !env_in_range(bytes) {
                return Err(ProtoError::BadValue("envs", part.to_owned()));
            }
            envs.push(bytes);
        }
    }
    Ok(envs)
}

/// Encodes a control request (`ping`, `stats`, or an immediate
/// `shutdown`).
#[must_use]
pub fn encode_control(id: u64, op: &str) -> String {
    format!("{{\"v\":{PROTO_VERSION},\"ev\":\"req\",\"id\":{id},\"op\":\"{op}\"}}")
}

/// Encodes a `shutdown` request; `drain` selects the graceful mode that
/// finishes in-flight work before stopping.
#[must_use]
pub fn encode_shutdown(id: u64, drain: bool) -> String {
    if drain {
        format!(
            "{{\"v\":{PROTO_VERSION},\"ev\":\"req\",\"id\":{id},\"op\":\"shutdown\",\
             \"mode\":\"drain\"}}"
        )
    } else {
        encode_control(id, "shutdown")
    }
}

fn spec_fields(spec: &MeasureSpec) -> String {
    format!(
        "\"bench\":\"{}\",\"machine\":\"{}\",\"opt\":\"{}\",\"order\":\"{}\",\
         \"text_offset\":{},\"stack_shift\":{},\"env\":{},\"size\":\"{}\",\"budget\":{}",
        spec.bench,
        spec.machine,
        spec.opt.name(),
        order_str(spec.order),
        spec.text_offset,
        spec.stack_shift,
        spec.env,
        size_str(spec.size),
        spec.budget,
    )
}

/// The optional `,"deadline_ms":N` suffix; empty when there is none.
fn deadline_field(deadline_ms: u64) -> String {
    if deadline_ms == 0 {
        String::new()
    } else {
        format!(",\"deadline_ms\":{deadline_ms}")
    }
}

/// Encodes a `measure` request with no deadline.
#[must_use]
pub fn encode_measure(id: u64, spec: &MeasureSpec) -> String {
    encode_measure_deadline(id, spec, 0)
}

/// Encodes a `measure` request carrying a wall-clock deadline in
/// milliseconds (`0` omits the field: no deadline).
#[must_use]
pub fn encode_measure_deadline(id: u64, spec: &MeasureSpec, deadline_ms: u64) -> String {
    format!(
        "{{\"v\":{PROTO_VERSION},\"ev\":\"req\",\"id\":{id},\"op\":\"measure\",{}{}}}",
        spec_fields(spec),
        deadline_field(deadline_ms)
    )
}

/// Encodes a `sweep` request over the given environment sizes.
#[must_use]
pub fn encode_sweep(id: u64, spec: &MeasureSpec, envs: &[u64]) -> String {
    encode_sweep_deadline(id, spec, envs, 0)
}

/// Encodes a `sweep` request with a deadline (`0` omits the field).
#[must_use]
pub fn encode_sweep_deadline(
    id: u64,
    spec: &MeasureSpec,
    envs: &[u64],
    deadline_ms: u64,
) -> String {
    let envs: Vec<String> = envs.iter().map(u64::to_string).collect();
    format!(
        "{{\"v\":{PROTO_VERSION},\"ev\":\"req\",\"id\":{id},\"op\":\"sweep\",{}{},\"envs\":[{}]}}",
        spec_fields(spec),
        deadline_field(deadline_ms),
        envs.join(",")
    )
}

/// Round-trips a request back into its wire line.
#[must_use]
pub fn encode_request(req: &Request) -> String {
    match req {
        Request::Ping { id } => encode_control(*id, "ping"),
        Request::Stats { id } => encode_control(*id, "stats"),
        Request::Shutdown { id, drain } => encode_shutdown(*id, *drain),
        Request::Measure {
            id,
            spec,
            deadline_ms,
        } => encode_measure_deadline(*id, spec, *deadline_ms),
        Request::Sweep {
            id,
            spec,
            envs,
            deadline_ms,
        } => encode_sweep_deadline(*id, spec, envs, *deadline_ms),
    }
}

// ---------------------------------------------------------------------------
// Protocol: responses
// ---------------------------------------------------------------------------

/// Seals a body (no closing brace) with its crc and closes the object.
fn seal(mut body: String) -> String {
    let crc = fnv64(&body);
    let _ = write!(body, ",\"crc\":{crc}}}");
    body
}

/// Verifies a sealed response line: the trailing `"crc"` must hash the
/// body exactly. Returns `false` for torn, truncated, or tampered lines.
#[must_use]
pub fn verify_sealed(line: &str) -> bool {
    let Some(at) = line.rfind(",\"crc\":") else {
        return false;
    };
    let Some(crc) = line[at + 7..]
        .strip_suffix('}')
        .and_then(|s| s.parse::<u64>().ok())
    else {
        return false;
    };
    fnv64(&line[..at]) == crc
}

/// Strips protocol-hostile characters from free-text values so that string
/// fields never contain quotes, brackets or braces (the `jsonl` scanner's
/// one assumption).
fn clean(s: &str) -> String {
    s.chars()
        .filter(|c| !matches!(c, '"' | '[' | ']' | '{' | '}'))
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn resp_line(
    id: u64,
    status: &str,
    code: &str,
    error: &str,
    setup: &str,
    checksum: u64,
    counters: &str,
    items: u64,
) -> String {
    seal(format!(
        "{{\"v\":{PROTO_VERSION},\"ev\":\"resp\",\"id\":{id},\"status\":\"{status}\",\
         \"code\":\"{code}\",\"error\":\"{error}\",\"setup\":\"{setup}\",\
         \"checksum\":{checksum},\"counters\":[{counters}],\"items\":{items}"
    ))
}

/// Stable short code for each measurement failure mode.
#[must_use]
pub fn error_code(e: &MeasureError) -> &'static str {
    match e {
        MeasureError::Link(_) => "link",
        MeasureError::Load(_) => "load",
        MeasureError::Run(_) => "run",
        MeasureError::WrongResult { .. } => "wrong_result",
        MeasureError::Watchdog { .. } => "watchdog",
    }
}

fn counters_csv(m: &Measurement) -> String {
    let v: Vec<String> = counters_to_vec(&m.counters)
        .iter()
        .map(u64::to_string)
        .collect();
    v.join(",")
}

/// Encodes the terminal response for one measurement result. This is the
/// byte-identity pivot: the daemon and the differential test both call it.
#[must_use]
pub fn encode_response(id: u64, r: &Result<Measurement, MeasureError>) -> String {
    match r {
        Ok(m) => resp_line(
            id,
            "ok",
            "",
            "",
            &clean(&m.setup),
            m.checksum,
            &counters_csv(m),
            0,
        ),
        Err(e) => resp_line(
            id,
            "err",
            error_code(e),
            &clean(&e.to_string()),
            "",
            0,
            "",
            0,
        ),
    }
}

/// The field-level payload of one sweep element — what the wire line and
/// the sweep journal both carry. Holding it (rather than the original
/// `Result`) lets a journal replay re-emit byte-identical item lines
/// without reconstructing a [`MeasureError`].
#[derive(Debug, Clone, PartialEq, Eq)]
struct ItemPayload {
    status: &'static str,
    code: String,
    error: String,
    setup: String,
    checksum: u64,
    counters: String,
}

impl ItemPayload {
    fn from_result(r: &Result<Measurement, MeasureError>) -> ItemPayload {
        match r {
            Ok(m) => ItemPayload {
                status: "ok",
                code: String::new(),
                error: String::new(),
                setup: clean(&m.setup),
                checksum: m.checksum,
                counters: counters_csv(m),
            },
            Err(e) => ItemPayload {
                status: "err",
                code: error_code(e).to_owned(),
                error: clean(&e.to_string()),
                setup: String::new(),
                checksum: 0,
                counters: String::new(),
            },
        }
    }

    fn item_line(&self, id: u64, seq: u64) -> String {
        seal(format!(
            "{{\"v\":{PROTO_VERSION},\"ev\":\"item\",\"id\":{id},\"seq\":{seq},\
             \"status\":\"{}\",\"code\":\"{}\",\"error\":\"{}\",\
             \"setup\":\"{}\",\"checksum\":{},\"counters\":[{}]",
            self.status, self.code, self.error, self.setup, self.checksum, self.counters
        ))
    }
}

/// Encodes one sweep element (`seq` is the setup index).
#[must_use]
pub fn encode_sweep_item(id: u64, seq: u64, r: &Result<Measurement, MeasureError>) -> String {
    ItemPayload::from_result(r).item_line(id, seq)
}

/// Encodes the terminal line of a sweep: `items` elements preceded it.
#[must_use]
pub fn encode_sweep_done(id: u64, items: u64) -> String {
    resp_line(id, "ok", "", "", "", 0, "", items)
}

/// Encodes a bare success (ping / shutdown acknowledgement).
#[must_use]
pub fn encode_ok(id: u64) -> String {
    resp_line(id, "ok", "", "", "", 0, "", 0)
}

/// Encodes a typed protocol/server error.
#[must_use]
pub fn encode_error(id: u64, code: &str, msg: &str) -> String {
    resp_line(id, "err", code, &clean(msg), "", 0, "", 0)
}

/// Encodes the explicit backpressure response for a full admission queue.
#[must_use]
pub fn encode_shed(id: u64) -> String {
    resp_line(id, "shed", "shed", "admission queue full", "", 0, "", 0)
}

/// Encodes the typed response for a request whose deadline expired before
/// a result was available. Distinct from `err`: nothing failed — the
/// caller ran out of time, and a retry without a deadline would succeed.
#[must_use]
pub fn encode_deadline(id: u64, items: u64) -> String {
    resp_line(
        id,
        "deadline",
        "deadline",
        "deadline exceeded before completion",
        "",
        0,
        "",
        items,
    )
}

/// Encodes the refusal a draining daemon answers new work with. Distinct
/// from both `err` (nothing is wrong) and `shed` (waiting out the
/// backpressure won't help — the daemon is going away).
#[must_use]
pub fn encode_draining(id: u64) -> String {
    resp_line(
        id,
        "draining",
        "drain",
        "daemon is draining and accepts no new work",
        "",
        0,
        "",
        0,
    )
}

/// Encodes a stats response: the daemon's supervision `health`
/// (`ok | degraded | draining`) plus named counters as a nested object.
#[must_use]
pub fn encode_stats(id: u64, health: &str, counters: &[(String, u64)]) -> String {
    let pairs: Vec<String> = counters
        .iter()
        .map(|(k, v)| format!("\"{}\":{v}", clean(k)))
        .collect();
    seal(format!(
        "{{\"v\":{PROTO_VERSION},\"ev\":\"stats\",\"id\":{id},\"health\":\"{}\",\
         \"counters\":{{{}}}",
        clean(health),
        pairs.join(",")
    ))
}

/// Extracts the request/response id from a line.
#[must_use]
pub fn line_id(line: &str) -> Option<u64> {
    field_u64(line, "id")
}

/// Extracts the event kind (`req`, `resp`, `item`, `stats`).
#[must_use]
pub fn line_ev(line: &str) -> Option<&str> {
    field_str(line, "ev")
}

/// Extracts the response status (`ok`, `err`, `shed`, `deadline`,
/// `draining`).
#[must_use]
pub fn line_status(line: &str) -> Option<&str> {
    field_str(line, "status")
}

/// Extracts the daemon health (`ok`, `degraded`, `draining`) from a
/// `stats` response line.
#[must_use]
pub fn line_health(line: &str) -> Option<&str> {
    field_str(line, "health")
}

/// Reads one named counter out of a `stats` response line.
#[must_use]
pub fn stats_counter(line: &str, name: &str) -> Option<u64> {
    let obj = field(line, "counters")?;
    field_u64(obj, name)
}

/// Validates a response line end to end: version, seal, and the exact
/// field list (names **and** order) for its event kind. The schema golden
/// and the chaos battery both lean on this.
pub fn validate_response_line(line: &str) -> Result<(), String> {
    if field_u64(line, "v") != Some(PROTO_VERSION) {
        return Err(format!("bad or missing protocol version: {line}"));
    }
    if !verify_sealed(line) {
        return Err(format!("crc seal mismatch (torn line?): {line}"));
    }
    let ev = line_ev(line).ok_or_else(|| format!("no ev field: {line}"))?;
    let want: &[&str] = match ev {
        "resp" => RESP_FIELDS,
        "item" => ITEM_FIELDS,
        "stats" => STATS_FIELDS,
        other => return Err(format!("unknown response event `{other}`")),
    };
    let keys = top_level_keys(line);
    if keys != want {
        return Err(format!(
            "field schema drifted for ev={ev}: got {keys:?}, want {want:?}"
        ));
    }
    Ok(())
}

/// The protocol schema as a printable snapshot, pinned by a `BIASLAB_BLESS`
/// golden so accidental wire-format drift fails a test, not a user.
#[must_use]
pub fn schema() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "biaslab serve protocol v{PROTO_VERSION}");
    let _ = writeln!(out, "ops: {}", OPS.join(","));
    for (kind, fields) in [
        ("req.control", REQ_CONTROL_FIELDS),
        ("req.shutdown", REQ_SHUTDOWN_FIELDS),
        ("req.measure", REQ_MEASURE_FIELDS),
        ("req.sweep", REQ_SWEEP_FIELDS),
        ("resp", RESP_FIELDS),
        ("item", ITEM_FIELDS),
        ("stats", STATS_FIELDS),
    ] {
        let _ = writeln!(out, "{kind}: {}", fields.join(","));
    }
    let _ = writeln!(out, "status: ok,err,shed,deadline,draining");
    let _ = writeln!(
        out,
        "codes: link,load,run,wrong_result,watchdog,proto,bench,machine,shed,panic,deadline,drain"
    );
    let _ = writeln!(out, "health: ok,degraded,draining");
    let _ = writeln!(out, "seal: crc = fnv64(line up to ,\"crc\":)");
    out
}

// ---------------------------------------------------------------------------
// Transport
// ---------------------------------------------------------------------------

/// A serve endpoint: a Unix socket path or a TCP host:port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Addr {
    /// A filesystem unix-domain socket.
    Unix(PathBuf),
    /// A TCP `host:port` endpoint.
    Tcp(String),
}

impl Addr {
    /// Parses `unix:/path/sock` or `tcp:host:port`.
    pub fn parse(s: &str) -> Result<Addr, String> {
        if let Some(path) = s.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("empty unix socket path".to_owned());
            }
            Ok(Addr::Unix(PathBuf::from(path)))
        } else if let Some(hp) = s.strip_prefix("tcp:") {
            if !hp.contains(':') {
                return Err(format!("tcp address `{hp}` needs host:port"));
            }
            Ok(Addr::Tcp(hp.to_owned()))
        } else {
            Err(format!("address `{s}` must start with unix: or tcp:"))
        }
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Addr::Unix(p) => write!(f, "unix:{}", p.display()),
            Addr::Tcp(hp) => write!(f, "tcp:{hp}"),
        }
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    /// Binds the address; returns the listener and the *actual* address
    /// (TCP port 0 resolves to the assigned port).
    fn bind(addr: &Addr) -> io::Result<(Listener, Addr)> {
        match addr {
            Addr::Unix(path) => {
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                Ok((Listener::Unix(l), addr.clone()))
            }
            Addr::Tcp(hp) => {
                let l = TcpListener::bind(hp.as_str())?;
                let actual = Addr::Tcp(l.local_addr()?.to_string());
                Ok((Listener::Tcp(l), actual))
            }
        }
    }

    fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Unix(l) => Ok(Stream::Unix(l.accept()?.0)),
            Listener::Tcp(l) => Ok(Stream::Tcp(l.accept()?.0)),
        }
    }
}

/// A connected socket, unix or tcp.
#[derive(Debug)]
pub enum Stream {
    /// A connected unix-domain socket.
    Unix(UnixStream),
    /// A connected TCP socket.
    Tcp(TcpStream),
}

impl Stream {
    fn connect(addr: &Addr) -> io::Result<Stream> {
        match addr {
            Addr::Unix(p) => Ok(Stream::Unix(UnixStream::connect(p)?)),
            Addr::Tcp(hp) => Ok(Stream::Tcp(TcpStream::connect(hp.as_str())?)),
        }
    }

    fn try_clone(&self) -> io::Result<Stream> {
        match self {
            Stream::Unix(s) => Ok(Stream::Unix(s.try_clone()?)),
            Stream::Tcp(s) => Ok(Stream::Tcp(s.try_clone()?)),
        }
    }

    fn shutdown_both(&self) {
        let _ = match self {
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Endpoint to bind.
    pub addr: Addr,
    /// Worker-pool threads executing measurements.
    pub workers: usize,
    /// Admission-queue bound; a request arriving when the queue holds this
    /// many jobs is shed with an explicit backpressure response.
    pub queue_depth: usize,
    /// How long a graceful drain waits for in-flight work before
    /// force-stopping, in milliseconds.
    pub drain_timeout_ms: u64,
    /// How many panicked workers the supervisor will respawn over the
    /// daemon's lifetime; past the budget the pool stays degraded.
    pub restart_budget: usize,
    /// Seed for the supervisor's jittered respawn delays, so restart
    /// timing is replayable in tests.
    pub restart_seed: u64,
    /// Directory for crash-recovery sweep journals
    /// (`<dir>/<digest>.jsonl`); `None` disables journaling, which keeps
    /// in-process test servers hermetic.
    pub journal_dir: Option<PathBuf>,
}

impl ServerConfig {
    /// Default configuration: 4 workers, queue depth 64, 5 s drain
    /// timeout, restart budget 8, no sweep journal.
    #[must_use]
    pub fn new(addr: Addr) -> ServerConfig {
        ServerConfig {
            addr,
            workers: 4,
            queue_depth: 64,
            drain_timeout_ms: 5_000,
            restart_budget: 8,
            restart_seed: 0,
            journal_dir: None,
        }
    }
}

/// Serve-side counters, registered in the global telemetry registry so
/// they surface in exported traces and `biaslab trace --summary`.
struct ServeCounters {
    connections: telemetry::Counter,
    requests: telemetry::Counter,
    responses: telemetry::Counter,
    shed: telemetry::Counter,
    measures: telemetry::Counter,
    sweeps: telemetry::Counter,
    proto_errors: telemetry::Counter,
    queue_depth_max: telemetry::Counter,
    accept_faults: telemetry::Counter,
    torn_writes: telemetry::Counter,
    drops: telemetry::Counter,
    worker_panics: telemetry::Counter,
    worker_respawns: telemetry::Counter,
    deadline_expired: telemetry::Counter,
    drains: telemetry::Counter,
    drain_refused: telemetry::Counter,
    drain_forced: telemetry::Counter,
    journal_items: telemetry::Counter,
    resumed_items: telemetry::Counter,
}

impl ServeCounters {
    fn new() -> ServeCounters {
        let m = telemetry::metrics();
        ServeCounters {
            connections: m.counter("serve.connections"),
            requests: m.counter("serve.requests"),
            responses: m.counter("serve.responses"),
            shed: m.counter("serve.shed"),
            measures: m.counter("serve.measure"),
            sweeps: m.counter("serve.sweep"),
            proto_errors: m.counter("serve.proto_errors"),
            queue_depth_max: m.counter("serve.queue_depth_max"),
            accept_faults: m.counter("serve.accept_faults"),
            torn_writes: m.counter("serve.torn_writes"),
            drops: m.counter("serve.drops"),
            worker_panics: m.counter("serve.worker.panic"),
            worker_respawns: m.counter("serve.worker.respawn"),
            deadline_expired: m.counter("serve.deadline.expired"),
            drains: m.counter("serve.drain"),
            drain_refused: m.counter("serve.drain.refused"),
            drain_forced: m.counter("serve.drain.forced"),
            journal_items: m.counter("serve.sweep.journal_items"),
            resumed_items: m.counter("serve.sweep.resumed_items"),
        }
    }
}

/// The write half of one client connection, shared between the reader
/// thread (inline control responses, cache hits, sheds) and the worker
/// pool. The two socket-write fault sites live here so every response
/// path is covered.
struct ConnOut {
    stream: StdMutex<Option<Stream>>,
}

impl ConnOut {
    fn send(&self, shared: &Shared, line: &str) {
        let mut guard = lock_unpoisoned(&self.stream);
        let Some(stream) = guard.as_mut() else {
            return; // connection already torn down
        };
        if faults::fire(site::SERVE_DROP) {
            // Mid-response disconnect: the client sees EOF instead of a
            // terminal line and must reconnect + retry.
            shared.c.drops.add(1);
            stream.shutdown_both();
            *guard = None;
            return;
        }
        if faults::fire(site::SERVE_WRITE_SHORT) {
            // Short write: half a line, then the connection dies. The
            // missing newline / broken crc seal is the client's tell.
            shared.c.torn_writes.add(1);
            let bytes = line.as_bytes();
            let _ = stream.write_all(&bytes[..bytes.len() / 2]);
            let _ = stream.flush();
            stream.shutdown_both();
            *guard = None;
            return;
        }
        let ok = stream
            .write_all(format!("{line}\n").as_bytes())
            .and_then(|()| stream.flush())
            .is_ok();
        if ok {
            shared.c.responses.add(1);
        } else {
            stream.shutdown_both();
            *guard = None;
        }
    }
}

/// One admitted unit of work for the pool. The deadline is stamped at
/// admission, so time spent waiting in the queue counts against it.
struct Job {
    req: Request,
    out: Arc<ConnOut>,
    deadline: Option<Instant>,
}

/// Daemon lifecycle states (`Shared::state`).
const STATE_RUNNING: u8 = 0;
const STATE_DRAINING: u8 = 1;

struct Shared {
    orch: Arc<Orchestrator>,
    addr: Addr,
    queue: StdMutex<VecDeque<Job>>,
    ready: Condvar,
    queue_depth: usize,
    shutdown: AtomicBool,
    /// `STATE_RUNNING` or `STATE_DRAINING`; drain is one-way.
    state: AtomicU8,
    readers: StdMutex<Vec<thread::JoinHandle<()>>>,
    conns: StdMutex<Vec<Arc<ConnOut>>>,
    /// Pool-worker handles; the supervisor appends respawns, so teardown
    /// drains this under the lock rather than owning a fixed Vec.
    worker_handles: StdMutex<Vec<thread::JoinHandle<()>>>,
    /// Workers the pool was configured with; `live_workers` below it means
    /// the daemon is degraded.
    configured_workers: usize,
    live_workers: AtomicUsize,
    /// Jobs currently executing (popped but unanswered); drain waits for
    /// queue empty *and* this zero.
    inflight: AtomicUsize,
    /// Panicked workers awaiting respawn; the supervisor sleeps on the
    /// condvar.
    dead: StdMutex<usize>,
    dead_cv: Condvar,
    next_wid: AtomicU64,
    restart_budget: usize,
    restart_seed: u64,
    drain_timeout: Duration,
    journal_dir: Option<PathBuf>,
    c: ServeCounters,
}

impl Shared {
    /// The supervision state surfaced in `stats`: `draining` once a drain
    /// began, `degraded` while the pool is below configured strength,
    /// `ok` otherwise.
    fn health(&self) -> &'static str {
        if self.state.load(Ordering::SeqCst) == STATE_DRAINING {
            "draining"
        } else if self.live_workers.load(Ordering::SeqCst) < self.configured_workers {
            "degraded"
        } else {
            "ok"
        }
    }

    fn draining(&self) -> bool {
        self.state.load(Ordering::SeqCst) == STATE_DRAINING
    }
}

/// A running daemon. Threads: one acceptor, one supervisor (respawning
/// panicked workers), one reader per connection (answering control
/// requests and cache hits itself), `workers` pool threads draining the
/// bounded admission queue.
pub struct Server {
    shared: Arc<Shared>,
    acceptor: StdMutex<Option<thread::JoinHandle<()>>>,
    supervisor: StdMutex<Option<thread::JoinHandle<()>>>,
}

impl Server {
    /// Binds and starts the daemon on top of an orchestrator.
    pub fn start(cfg: &ServerConfig, orch: Arc<Orchestrator>) -> Result<Server, String> {
        let (listener, addr) =
            Listener::bind(&cfg.addr).map_err(|e| format!("cannot bind {}: {e}", cfg.addr))?;
        let workers = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            orch,
            addr,
            queue: StdMutex::new(VecDeque::new()),
            ready: Condvar::new(),
            queue_depth: cfg.queue_depth.max(1),
            shutdown: AtomicBool::new(false),
            state: AtomicU8::new(STATE_RUNNING),
            readers: StdMutex::new(Vec::new()),
            conns: StdMutex::new(Vec::new()),
            worker_handles: StdMutex::new(Vec::new()),
            configured_workers: workers,
            live_workers: AtomicUsize::new(workers),
            inflight: AtomicUsize::new(0),
            dead: StdMutex::new(0),
            dead_cv: Condvar::new(),
            next_wid: AtomicU64::new(workers as u64 + 1),
            restart_budget: cfg.restart_budget,
            restart_seed: cfg.restart_seed,
            drain_timeout: Duration::from_millis(cfg.drain_timeout_ms),
            journal_dir: cfg.journal_dir.clone(),
            c: ServeCounters::new(),
        });
        {
            let mut handles = lock_unpoisoned(&shared.worker_handles);
            for wid in 1..=workers {
                let shared = Arc::clone(&shared);
                handles.push(thread::spawn(move || worker_loop(&shared, wid as u64)));
            }
        }
        let supervisor = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || supervisor_loop(&shared))
        };
        let acceptor = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || accept_loop(&shared, &listener))
        };
        Ok(Server {
            shared,
            acceptor: StdMutex::new(Some(acceptor)),
            supervisor: StdMutex::new(Some(supervisor)),
        })
    }

    /// The actual bound address (resolves TCP port 0).
    #[must_use]
    pub fn addr(&self) -> &Addr {
        &self.shared.addr
    }

    /// Jobs currently admitted but not yet picked up.
    #[must_use]
    pub fn queue_len(&self) -> usize {
        lock_unpoisoned(&self.shared.queue).len()
    }

    /// Connections currently tracked. Closed connections are reclaimed as
    /// their readers exit, so this returns to zero on an idle daemon — a
    /// regression test pins that per-connection state cannot leak.
    #[must_use]
    pub fn live_connections(&self) -> usize {
        lock_unpoisoned(&self.shared.conns).len()
    }

    /// Pool workers currently alive (shrinks on a panic, recovers as the
    /// supervisor respawns).
    #[must_use]
    pub fn live_workers(&self) -> usize {
        self.shared.live_workers.load(Ordering::SeqCst)
    }

    /// The daemon's supervision health: `ok`, `degraded`, or `draining`.
    #[must_use]
    pub fn health(&self) -> &'static str {
        self.shared.health()
    }

    /// Asks the daemon to drain: stop accepting new work, finish what is
    /// admitted (bounded by the drain timeout), then stop. Idempotent;
    /// the foreground loop observes the state and tears down.
    pub fn request_drain(&self) {
        begin_drain(&self.shared);
    }

    /// Blocks until a `shutdown` request flips the flag (or a drain
    /// completes), then tears the daemon down. This is the
    /// `biaslab serve` foreground loop.
    pub fn run_until_shutdown(self) {
        self.run_until_shutdown_or(|| false);
    }

    /// [`Server::run_until_shutdown`] that also polls an external drain
    /// signal (the CLI wires SIGTERM here): when `drain_signal` first
    /// returns `true` the daemon drains gracefully, exactly as a
    /// `shutdown {"mode":"drain"}` request would.
    pub fn run_until_shutdown_or(self, drain_signal: impl Fn() -> bool) {
        loop {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            if drain_signal() {
                begin_drain(&self.shared);
            }
            if self.shared.draining() {
                self.await_drain();
                break;
            }
            thread::sleep(Duration::from_millis(20));
        }
        self.stop();
    }

    /// Waits for admitted work to finish (queue empty, nothing in
    /// flight), bounded by the drain timeout; a timeout force-stops and
    /// counts `serve.drain.forced`.
    fn await_drain(&self) {
        let give_up = Instant::now() + self.shared.drain_timeout;
        loop {
            let idle = lock_unpoisoned(&self.shared.queue).is_empty()
                && self.shared.inflight.load(Ordering::SeqCst) == 0;
            if idle || self.shared.shutdown.load(Ordering::SeqCst) {
                return;
            }
            if Instant::now() >= give_up {
                self.shared.c.drain_forced.add(1);
                return;
            }
            thread::sleep(Duration::from_millis(5));
        }
    }

    /// Stops accepting, drains the pool, joins every thread, and removes
    /// the unix socket file. Takes the server by value for the common
    /// case; delegates to [`Server::stop`], which is idempotent.
    pub fn shutdown(self) {
        self.stop();
    }

    /// The idempotent, panic-safe teardown behind [`Server::shutdown`]: a
    /// second call, or a call racing a drain, joins nothing twice and
    /// never hangs. Handles are taken out of their slots under a lock, so
    /// exactly one caller joins each thread.
    pub fn stop(&self) {
        begin_shutdown(&self.shared);
        // Join the supervisor before draining worker handles: once it has
        // exited, no new worker can be spawned, so the drain below is
        // complete rather than racing a respawn.
        if let Some(h) = lock_unpoisoned(&self.supervisor).take() {
            let _ = h.join();
        }
        if let Some(h) = lock_unpoisoned(&self.acceptor).take() {
            let _ = h.join();
        }
        let workers: Vec<_> = lock_unpoisoned(&self.shared.worker_handles)
            .drain(..)
            .collect();
        for h in workers {
            let _ = h.join();
        }
        let readers: Vec<_> = lock_unpoisoned(&self.shared.readers).drain(..).collect();
        for h in readers {
            let _ = h.join();
        }
        if let Addr::Unix(path) = &self.shared.addr {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Marks the daemon as draining (one-way, idempotent): the acceptor
/// refuses new connections, readers refuse new measure/sweep work with a
/// typed `draining` response, and the foreground loop waits for admitted
/// work before tearing down.
fn begin_drain(shared: &Shared) {
    if shared
        .state
        .compare_exchange(
            STATE_RUNNING,
            STATE_DRAINING,
            Ordering::SeqCst,
            Ordering::SeqCst,
        )
        .is_ok()
    {
        shared.c.drains.add(1);
    }
}

/// Flips the shutdown flag, wakes the pool and the supervisor, and pokes
/// the acceptor with a throwaway connection so its blocking `accept`
/// returns.
fn begin_shutdown(shared: &Shared) {
    if shared.shutdown.swap(true, Ordering::SeqCst) {
        return;
    }
    shared.ready.notify_all();
    shared.dead_cv.notify_all();
    if let Ok(s) = Stream::connect(&shared.addr) {
        s.shutdown_both();
    }
    // Unblock readers parked in read_line on idle connections: shutting
    // down the socket makes their next read return EOF.
    let conns: Vec<Arc<ConnOut>> = lock_unpoisoned(&shared.conns).drain(..).collect();
    for out in conns {
        if let Some(s) = lock_unpoisoned(&out.stream).as_ref() {
            s.shutdown_both();
        }
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &Listener) {
    loop {
        let conn = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(conn) = conn else {
            // A persistent accept error (EMFILE under fd exhaustion, say)
            // must not turn the acceptor into a busy-spin.
            thread::sleep(std::time::Duration::from_millis(50));
            continue;
        };
        if shared.draining() {
            // A draining daemon accepts no new connections; existing ones
            // keep their readers so in-flight responses still land.
            conn.shutdown_both();
            continue;
        }
        if faults::fire(site::SERVE_ACCEPT) {
            // Accept failure: the freshly accepted connection is dropped on
            // the floor; the client reconnects and retries.
            shared.c.accept_faults.add(1);
            conn.shutdown_both();
            continue;
        }
        shared.c.connections.add(1);
        let shared2 = Arc::clone(shared);
        let handle = thread::spawn(move || reader_loop(&shared2, conn));
        let mut readers = lock_unpoisoned(&shared.readers);
        readers.retain(|h| !h.is_finished());
        readers.push(handle);
    }
}

/// Deterministic full-jitter respawn delay: uniform over an exponential
/// envelope (capped), drawn by hashing `(seed, respawn index)` — the same
/// schedule every run, so chaos tests can pin recovery timing.
fn respawn_delay_ms(seed: u64, respawn: u64) -> u64 {
    let cap = (4u64 << respawn.min(6)).min(200);
    fnv64(&format!("respawn {seed}:{respawn}")) % cap
}

/// The supervisor: sleeps until a worker dies, then — within the restart
/// budget — waits out a seeded jittered delay and spawns a replacement.
/// Past the budget the pool stays degraded (and `health` says so) rather
/// than masking a crash loop.
fn supervisor_loop(shared: &Arc<Shared>) {
    let mut respawns = 0u64;
    loop {
        {
            let mut dead = lock_unpoisoned(&shared.dead);
            loop {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if *dead > 0 {
                    *dead -= 1;
                    break;
                }
                dead = wait_unpoisoned(&shared.dead_cv, dead);
            }
        }
        if respawns as usize >= shared.restart_budget {
            continue; // budget exhausted: stay degraded
        }
        respawns += 1;
        thread::sleep(Duration::from_millis(respawn_delay_ms(
            shared.restart_seed,
            respawns,
        )));
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let wid = shared.next_wid.fetch_add(1, Ordering::SeqCst);
        let worker = {
            let shared = Arc::clone(shared);
            thread::spawn(move || worker_loop(&shared, wid))
        };
        lock_unpoisoned(&shared.worker_handles).push(worker);
        shared.live_workers.fetch_add(1, Ordering::SeqCst);
        shared.c.worker_respawns.add(1);
        faults::recovered("serve.worker.respawn");
    }
}

fn reader_loop(shared: &Arc<Shared>, conn: Stream) {
    let Ok(writer) = conn.try_clone() else {
        conn.shutdown_both();
        return;
    };
    let out = Arc::new(ConnOut {
        stream: StdMutex::new(Some(writer)),
    });
    lock_unpoisoned(&shared.conns).push(Arc::clone(&out));
    let mut reader = BufReader::new(conn);
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if line.trim().is_empty() {
            continue;
        }
        shared.c.requests.add(1);
        if faults::fire(site::SERVE_SLOW) {
            // Slow client: a scheduling perturbation only; correctness of
            // every response must be unaffected.
            faults::delay(site::SERVE_SLOW);
        }
        let req = match parse_request(&line) {
            Ok(req) => req,
            Err(e) => {
                shared.c.proto_errors.add(1);
                let id = line_id(&line).unwrap_or(0);
                out.send(shared, &encode_error(id, "proto", &e.to_string()));
                continue;
            }
        };
        match req {
            Request::Ping { id } => out.send(shared, &encode_ok(id)),
            Request::Stats { id } => {
                let mut counters = shared.orch.metrics();
                counters.extend(telemetry::metrics().snapshot());
                counters.sort();
                counters.dedup();
                out.send(shared, &encode_stats(id, shared.health(), &counters));
            }
            Request::Shutdown { id, drain } => {
                if drain {
                    // Graceful: refuse new work, let the foreground loop
                    // finish admitted work and tear down. The connection
                    // stays open — control requests still answer. The state
                    // flips before the ack so a client that saw the ack can
                    // rely on every later request observing the drain.
                    begin_drain(shared);
                    out.send(shared, &encode_ok(id));
                } else {
                    out.send(shared, &encode_ok(id));
                    begin_shutdown(shared);
                    break;
                }
            }
            req @ (Request::Measure { .. } | Request::Sweep { .. }) => {
                let id = req.id();
                if shared.draining() {
                    // Not an error and not backpressure: the daemon is
                    // going away, and the client should go elsewhere.
                    shared.c.drain_refused.add(1);
                    out.send(shared, &encode_draining(id));
                    continue;
                }
                // A cache hit needs no simulation capacity: answer it here,
                // like a control request. Misses, unknown names and sweeps
                // go to the pool, which does its own accounting.
                if let Request::Measure { spec, .. } = &req {
                    if let Some(r) = spec
                        .setup()
                        .and_then(|setup| shared.orch.lookup(&spec.bench, &setup, spec.size))
                    {
                        shared.c.measures.add(1);
                        out.send(shared, &encode_response(id, &r));
                        continue;
                    }
                }
                let deadline_ms = match &req {
                    Request::Measure { deadline_ms, .. } | Request::Sweep { deadline_ms, .. } => {
                        *deadline_ms
                    }
                    _ => 0,
                };
                // Stamped at admission: queue wait burns deadline time.
                let deadline =
                    (deadline_ms > 0).then(|| Instant::now() + Duration::from_millis(deadline_ms));
                // Admission control: shed synchronously when the bounded
                // queue is full — an explicit response, never a hang.
                let admitted = {
                    let mut q = lock_unpoisoned(&shared.queue);
                    if q.len() >= shared.queue_depth {
                        false
                    } else {
                        q.push_back(Job {
                            req,
                            out: Arc::clone(&out),
                            deadline,
                        });
                        shared.c.queue_depth_max.record_max(q.len() as u64);
                        true
                    }
                };
                if admitted {
                    shared.ready.notify_one();
                } else {
                    shared.c.shed.add(1);
                    out.send(shared, &encode_shed(id));
                }
            }
        }
    }
    let leftover = lock_unpoisoned(&out.stream).take();
    if let Some(s) = leftover {
        s.shutdown_both();
    }
    // Reclaim this connection's registry slot; a long-lived daemon must
    // not accumulate one ConnOut per connection ever accepted. (Jobs still
    // queued keep their own Arc, so in-flight responses are unaffected.)
    lock_unpoisoned(&shared.conns).retain(|c| !Arc::ptr_eq(c, &out));
}

fn worker_loop(shared: &Arc<Shared>, wid: u64) {
    telemetry::set_worker(wid);
    loop {
        let job = {
            let mut q = lock_unpoisoned(&shared.queue);
            loop {
                if let Some(job) = q.pop_front() {
                    break Some(job);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                q = wait_unpoisoned(&shared.ready, q);
            }
        };
        let Some(job) = job else {
            return;
        };
        let id = job.req.id();
        let out = Arc::clone(&job.out);
        // Supervision boundary: a panic anywhere in request handling must
        // not take the pool down with it. The client still gets exactly
        // one terminal (typed `panic`) response, the worker announces its
        // death to the supervisor, and this thread exits.
        shared.inflight.fetch_add(1, Ordering::SeqCst);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle_job(shared, job);
        }));
        shared.inflight.fetch_sub(1, Ordering::SeqCst);
        if outcome.is_err() {
            shared.c.worker_panics.add(1);
            shared.live_workers.fetch_sub(1, Ordering::SeqCst);
            out.send(
                shared,
                &encode_error(id, "panic", "worker panicked executing the request"),
            );
            *lock_unpoisoned(&shared.dead) += 1;
            shared.dead_cv.notify_all();
            return;
        }
    }
}

/// `true` when the job's deadline (if any) has already passed.
fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

fn handle_job(shared: &Shared, job: Job) {
    let Job { req, out, deadline } = job;
    if faults::fire(site::SERVE_WORKER_PANIC) {
        // An arbitrary bug in request handling: the worker dies. The
        // catch_unwind boundary above turns this into a typed response
        // plus a supervised respawn; unrecoverable, because a real bug
        // would not politely retry.
        std::panic::panic_any(faults::InjectedPanic { recoverable: false });
    }
    match req {
        Request::Measure { id, spec, .. } => {
            shared.c.measures.add(1);
            if expired(deadline) {
                // Expired while queued: answer without simulating.
                shared.c.deadline_expired.add(1);
                out.send(shared, &encode_deadline(id, 0));
                return;
            }
            out.send(shared, &run_measure(shared, id, &spec, deadline));
        }
        Request::Sweep { id, spec, envs, .. } => {
            shared.c.sweeps.add(1);
            if expired(deadline) {
                shared.c.deadline_expired.add(1);
                out.send(shared, &encode_deadline(id, 0));
                return;
            }
            run_sweep(shared, &out, id, &spec, &envs, deadline);
        }
        // Control requests are answered inline by the reader.
        Request::Ping { .. } | Request::Stats { .. } | Request::Shutdown { .. } => {}
    }
}

fn run_measure(shared: &Shared, id: u64, spec: &MeasureSpec, deadline: Option<Instant>) -> String {
    let Some(harness) = shared.orch.harness(&spec.bench) else {
        return encode_error(id, "bench", &format!("unknown benchmark `{}`", spec.bench));
    };
    let Some(setup) = spec.setup() else {
        return encode_error(
            id,
            "machine",
            &format!("unknown machine `{}`", spec.machine),
        );
    };
    match shared
        .orch
        .measure_deadline(&harness, &setup, spec.size, deadline)
    {
        Ok(result) => encode_response(id, &result),
        Err(DeadlineExceeded) => {
            shared.c.deadline_expired.add(1);
            encode_deadline(id, 0)
        }
    }
}

/// Expands the sweep's env grid into concrete setups. Shared with the
/// differential battery so both sides sweep the exact same setups.
#[must_use]
pub fn sweep_setups(base: &ExperimentSetup, envs: &[u64]) -> Vec<ExperimentSetup> {
    envs.iter()
        .map(|&bytes| {
            match u32::try_from(bytes) {
                // parse_envs bounds daemon input; out-of-range values from
                // direct callers keep the base env rather than truncating.
                Ok(b) if env_in_range(bytes) && bytes != 0 => {
                    base.with_env(Environment::of_total_size(b))
                }
                _ => base.clone(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Sweep journal (crash recovery)
// ---------------------------------------------------------------------------

/// Version tag of one sweep-journal line. Bumping it orphans (and
/// quarantines) old journals rather than misreading them, exactly like
/// the orchestrator's `RECORD_VERSION`.
pub const JOURNAL_VERSION: u64 = 1;

/// Content-addresses a sweep for its journal file: FNV-64 over the
/// canonical spec rendering plus the env grid. Deliberately independent
/// of the request `id`, so a client retrying a killed sweep under a fresh
/// id still resumes the same journal.
#[must_use]
pub fn sweep_digest(spec: &MeasureSpec, envs: &[u64]) -> u64 {
    let envs: Vec<String> = envs.iter().map(u64::to_string).collect();
    fnv64(&format!(
        "sweep {} envs=[{}]",
        spec_fields(spec),
        envs.join(",")
    ))
}

/// One sweep-journal line: the item payload keyed by sweep digest and
/// sequence number, crc-sealed like every other line this module writes.
fn journal_line(digest: u64, seq: u64, p: &ItemPayload) -> String {
    seal(format!(
        "{{\"v\":{JOURNAL_VERSION},\"ev\":\"sweep_journal\",\"digest\":{digest},\"seq\":{seq},\
         \"status\":\"{}\",\"code\":\"{}\",\"error\":\"{}\",\"setup\":\"{}\",\
         \"checksum\":{},\"counters\":[{}]",
        p.status, p.code, p.error, p.setup, p.checksum, p.counters
    ))
}

/// Parses one journal line for the given sweep. `None` for torn lines
/// (a crash mid-append leaves a half-written tail that fails its crc),
/// foreign versions, and other sweeps' digests — the caller re-simulates
/// those items instead of trusting them.
fn parse_journal_line(line: &str, digest: u64) -> Option<(u64, ItemPayload)> {
    if !verify_sealed(line) {
        return None;
    }
    if field_u64(line, "v") != Some(JOURNAL_VERSION)
        || field_str(line, "ev") != Some("sweep_journal")
        || field_u64(line, "digest") != Some(digest)
    {
        return None;
    }
    let seq = field_u64(line, "seq")?;
    let status = match field_str(line, "status")? {
        "ok" => "ok",
        "err" => "err",
        _ => return None,
    };
    let counters = field(line, "counters")?
        .strip_prefix('[')?
        .strip_suffix(']')?;
    Some((
        seq,
        ItemPayload {
            status,
            code: field_str(line, "code")?.to_owned(),
            error: field_str(line, "error")?.to_owned(),
            setup: field_str(line, "setup")?.to_owned(),
            checksum: field_u64(line, "checksum")?,
            counters: counters.to_owned(),
        },
    ))
}

/// The write-ahead journal of one in-flight sweep: an append-only JSONL
/// file under the daemon's journal directory, named by the sweep digest.
/// Every completed item is appended and fsync'd *before* its line goes
/// out on the socket, so a daemon killed mid-sweep replays journaled
/// items on the next request instead of re-simulating them, converging
/// to byte-identical results. The file is deleted when the sweep's
/// terminal line is reached.
struct SweepJournal {
    path: PathBuf,
    file: File,
}

impl SweepJournal {
    /// Opens (or creates) the journal for `digest`, returning the journal
    /// and every intact item a previous run recorded. Recovery compacts
    /// the file through the tmp-then-rename discipline, which drops any
    /// torn tail a crash left behind — so later appends never concatenate
    /// onto half a line.
    fn open(dir: &Path, digest: u64) -> io::Result<(SweepJournal, HashMap<u64, ItemPayload>)> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{digest:016x}.jsonl"));
        let mut items: HashMap<u64, ItemPayload> = HashMap::new();
        if let Ok(existing) = std::fs::read_to_string(&path) {
            for line in existing.lines() {
                if let Some((seq, p)) = parse_journal_line(line, digest) {
                    items.insert(seq, p);
                }
            }
            if !items.is_empty() {
                let tmp = path.with_extension("jsonl.tmp");
                let compact = || -> io::Result<()> {
                    let mut f = File::create(&tmp)?;
                    let mut seqs: Vec<&u64> = items.keys().collect();
                    seqs.sort();
                    for &seq in seqs {
                        writeln!(f, "{}", journal_line(digest, seq, &items[&seq]))?;
                    }
                    f.sync_all()?;
                    std::fs::rename(&tmp, &path)?;
                    sync_parent_dir(&path);
                    Ok(())
                };
                if let Err(e) = compact() {
                    let _ = std::fs::remove_file(&tmp);
                    return Err(e);
                }
            } else {
                let _ = std::fs::remove_file(&path);
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok((SweepJournal { path, file }, items))
    }

    /// Appends one completed item, fsync'd — the write-ahead step. The
    /// crash fault site fires here: half a line reaches the file, no
    /// fsync happens, and the "daemon" dies (the worker panics
    /// unrecoverably); reload quarantines the torn line.
    fn append(&mut self, digest: u64, seq: u64, p: &ItemPayload) -> io::Result<()> {
        let line = journal_line(digest, seq, p);
        if faults::fire(site::SERVE_CRASH_JOURNAL) {
            let bytes = line.as_bytes();
            let _ = self.file.write_all(&bytes[..bytes.len() / 2]);
            let _ = self.file.flush();
            std::panic::panic_any(faults::InjectedPanic { recoverable: false });
        }
        self.file.write_all(format!("{line}\n").as_bytes())?;
        self.file.sync_all()
    }

    /// The sweep completed: its journal has served its purpose.
    fn complete(self) {
        drop(self.file);
        let _ = std::fs::remove_file(&self.path);
    }
}

#[allow(clippy::too_many_lines)]
fn run_sweep(
    shared: &Shared,
    out: &ConnOut,
    id: u64,
    spec: &MeasureSpec,
    envs: &[u64],
    deadline: Option<Instant>,
) {
    let Some(harness) = shared.orch.harness(&spec.bench) else {
        out.send(
            shared,
            &encode_error(id, "bench", &format!("unknown benchmark `{}`", spec.bench)),
        );
        return;
    };
    let Some(base) = spec.setup() else {
        out.send(
            shared,
            &encode_error(
                id,
                "machine",
                &format!("unknown machine `{}`", spec.machine),
            ),
        );
        return;
    };
    let setups = sweep_setups(&base, envs);
    let total = setups.len();

    // Crash recovery: journaled items are replayed from disk, never
    // re-simulated. Journaling is best-effort — an unwritable directory
    // degrades to the plain (journal-less) sweep rather than failing it.
    let digest = sweep_digest(spec, envs);
    let (mut journal, replayed) = match &shared.journal_dir {
        Some(dir) => match SweepJournal::open(dir, digest) {
            Ok((j, items)) => (Some(j), items),
            Err(_) => (None, HashMap::new()),
        },
        None => (None, HashMap::new()),
    };

    let missing: Vec<usize> = (0..total)
        .filter(|i| !replayed.contains_key(&(*i as u64)))
        .collect();
    let mut fresh: HashMap<usize, ItemPayload> = HashMap::new();
    if deadline.is_none() {
        // No deadline: the orchestrator's work-stealing parallel sweep.
        if !missing.is_empty() {
            let missing_setups: Vec<ExperimentSetup> =
                missing.iter().map(|&i| setups[i].clone()).collect();
            let results = shared.orch.sweep(&harness, &missing_setups, spec.size);
            for (&i, r) in missing.iter().zip(results.iter()) {
                fresh.insert(i, ItemPayload::from_result(r));
            }
        }
    } else {
        // Deadline-bounded: item at a time, re-checking the same
        // remaining-time arithmetic between items so an expiring sweep
        // keeps every item it completed.
        for &i in &missing {
            if expired(deadline) {
                break;
            }
            match shared
                .orch
                .measure_deadline(&harness, &setups[i], spec.size, deadline)
            {
                Ok(r) => {
                    fresh.insert(i, ItemPayload::from_result(&r));
                }
                Err(DeadlineExceeded) => break,
            }
        }
    }

    // Emit in sequence order; fresh items reach the fsync'd journal
    // before the socket (write-ahead), replayed ones count as resumed.
    for seq in 0..total {
        let s = seq as u64;
        let payload = if let Some(p) = replayed.get(&s) {
            shared.c.resumed_items.add(1);
            p.clone()
        } else if let Some(p) = fresh.remove(&seq) {
            if let Some(j) = journal.as_mut() {
                if j.append(digest, s, &p).is_ok() {
                    shared.c.journal_items.add(1);
                }
            }
            p
        } else {
            // The deadline expired before this item was simulated; every
            // seq below this one was emitted, so the terminal line still
            // reports how many items did make it.
            shared.c.deadline_expired.add(1);
            out.send(shared, &encode_deadline(id, s));
            return;
        };
        out.send(shared, &payload.item_line(id, s));
    }
    if let Some(j) = journal {
        j.complete();
    }
    out.send(shared, &encode_sweep_done(id, total as u64));
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// What went wrong with one exchange after all retries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// Connect / write / read failed at the socket level.
    Io(String),
    /// The response arrived torn: truncated line or broken crc seal.
    Torn,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Torn => write!(f, "torn response (truncated line or crc mismatch)"),
        }
    }
}

/// A failed exchange: the error the last attempt died with, plus the
/// attempts actually consumed — so callers account retries honestly
/// instead of guessing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestFailed {
    /// What the final attempt failed with.
    pub error: ClientError,
    /// Connection attempts consumed (the client's whole retry budget).
    pub retries: u32,
}

impl fmt::Display for RequestFailed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (after {} attempts)", self.error, self.retries)
    }
}

/// One completed request/response exchange.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// All verified response lines for the request id, terminal line last.
    pub lines: Vec<String>,
    /// Reconnect-and-resend attempts consumed before success.
    pub retries: u32,
}

impl Exchange {
    /// The terminal (`resp`/`stats`) line.
    #[must_use]
    pub fn terminal(&self) -> &str {
        self.lines.last().map(String::as_str).unwrap_or("")
    }
}

/// First-retry backoff span in milliseconds; doubles per attempt.
const BACKOFF_BASE_MS: u64 = 1;
/// Ceiling on any single backoff span, so a long retry budget cannot
/// stretch one exchange past the test suite's patience.
const BACKOFF_CAP_MS: u64 = 64;

/// Full-jitter exponential backoff before retry number `attempt`
/// (0-based): a seeded-hash draw in `[0, min(base << attempt, cap))`.
/// Pure function of `(seed, id, attempt)` — a fixed seed replays the
/// exact delay schedule, which keeps chaos-test retry counts and timing
/// deterministic, while distinct seeds (one per loadgen client) spread
/// simultaneous retries instead of thundering back in lockstep.
#[must_use]
pub fn backoff_delay_ms(seed: u64, id: u64, attempt: u32) -> u64 {
    let span = (BACKOFF_BASE_MS << attempt.min(6)).clamp(1, BACKOFF_CAP_MS);
    fnv64(&format!("backoff {seed}:{id}:{attempt}")) % span
}

/// A reconnecting client. Responses that arrive torn (EOF mid-exchange,
/// truncated line, crc mismatch) drop the connection and replay the whole
/// request on a fresh one after a seeded jittered exponential backoff;
/// the daemon's caches make the replay idempotent.
pub struct Client {
    addr: Addr,
    attempts: u32,
    backoff_seed: u64,
    conn: Option<(BufReader<Stream>, Stream)>,
}

impl Client {
    /// A client for the given endpoint with the default retry budget.
    #[must_use]
    pub fn new(addr: Addr) -> Client {
        Client {
            addr,
            attempts: 4,
            backoff_seed: 0,
            conn: None,
        }
    }

    /// Overrides the retry budget (total attempts, minimum 1).
    #[must_use]
    pub fn with_attempts(mut self, attempts: u32) -> Client {
        self.attempts = attempts.max(1);
        self
    }

    /// Seeds the retry backoff jitter (see [`backoff_delay_ms`]).
    #[must_use]
    pub fn with_backoff_seed(mut self, seed: u64) -> Client {
        self.backoff_seed = seed;
        self
    }

    fn connected(&mut self) -> io::Result<&mut (BufReader<Stream>, Stream)> {
        if self.conn.is_none() {
            let stream = Stream::connect(&self.addr)?;
            let writer = stream.try_clone()?;
            self.conn = Some((BufReader::new(stream), writer));
        }
        Ok(self.conn.as_mut().expect("connection just established"))
    }

    /// Sends one request line and collects its verified response lines.
    /// On failure the error reports the attempts actually consumed.
    pub fn request(&mut self, line: &str) -> Result<Exchange, RequestFailed> {
        let id = line_id(line).unwrap_or(0);
        let mut retries = 0u32;
        let mut last = ClientError::Io("no attempts made".to_owned());
        for attempt in 0..self.attempts {
            match self.try_once(line, id) {
                Ok(lines) => {
                    if attempt > 0 {
                        faults::recovered("serve.retry");
                    }
                    return Ok(Exchange { lines, retries });
                }
                Err(e) => {
                    self.conn = None;
                    retries += 1;
                    last = e;
                    if attempt + 1 < self.attempts {
                        thread::sleep(Duration::from_millis(backoff_delay_ms(
                            self.backoff_seed,
                            id,
                            attempt,
                        )));
                    }
                }
            }
        }
        Err(RequestFailed {
            error: last,
            retries,
        })
    }

    fn try_once(&mut self, line: &str, id: u64) -> Result<Vec<String>, ClientError> {
        let (reader, writer) = self
            .connected()
            .map_err(|e| ClientError::Io(e.to_string()))?;
        writer
            .write_all(format!("{line}\n").as_bytes())
            .and_then(|()| writer.flush())
            .map_err(|e| ClientError::Io(e.to_string()))?;
        let mut lines = Vec::new();
        loop {
            let mut buf = String::new();
            let n = reader
                .read_line(&mut buf)
                .map_err(|e| ClientError::Io(e.to_string()))?;
            if n == 0 {
                return Err(if lines.is_empty() {
                    ClientError::Io("connection closed before a response".to_owned())
                } else {
                    ClientError::Torn
                });
            }
            if !buf.ends_with('\n') {
                return Err(ClientError::Torn);
            }
            let resp = buf.trim_end_matches('\n');
            if resp.is_empty() {
                continue;
            }
            if !verify_sealed(resp) {
                return Err(ClientError::Torn);
            }
            if line_id(resp) != Some(id) {
                continue; // leftover from an interrupted earlier exchange
            }
            lines.push(resp.to_owned());
            if matches!(line_ev(resp), Some("resp" | "stats")) {
                return Ok(lines);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Loadgen
// ---------------------------------------------------------------------------

/// Load-driver configuration.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Daemon endpoint to drive.
    pub addr: Addr,
    /// Concurrent client connections.
    pub clients: usize,
    /// Requests issued per client.
    pub requests: usize,
    /// Master seed; each client derives its own via [`client_seed`].
    pub seed: u64,
}

/// Aggregated results of one loadgen run.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Concurrent client connections driven.
    pub clients: usize,
    /// Total requests issued across all clients.
    pub requests: usize,
    /// Exchanges whose terminal status was `ok`.
    pub ok: usize,
    /// Exchanges whose terminal status was a typed error.
    pub err: usize,
    /// Exchanges shed by admission control.
    pub shed: usize,
    /// Exchanges that failed even after retries (transport-level).
    pub failed: usize,
    /// Reconnect-and-replay attempts consumed across all clients.
    pub retries: u64,
    /// Wall-clock duration of the whole run.
    pub wall_ms: u64,
    /// Median exchange latency in microseconds.
    pub p50_us: u64,
    /// 99th-percentile exchange latency in microseconds.
    pub p99_us: u64,
    /// Orchestrator cache hits observed by the daemon.
    pub hits: u64,
    /// Orchestrator cache misses observed by the daemon.
    pub misses: u64,
}

impl LoadReport {
    /// Requests per second over the whole run.
    #[must_use]
    pub fn rps(&self) -> f64 {
        if self.wall_ms == 0 {
            0.0
        } else {
            self.requests as f64 * 1000.0 / self.wall_ms as f64
        }
    }

    /// Cache hit fraction (`hits / (hits + misses)`), 0 when unknown.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl fmt::Display for LoadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "serve.loadgen clients={} requests={} ok={} err={} shed={} failed={} retries={}",
            self.clients, self.requests, self.ok, self.err, self.shed, self.failed, self.retries
        )?;
        writeln!(
            f,
            "serve.loadgen wall_ms={} rps={:.1} p50_us={} p99_us={}",
            self.wall_ms,
            self.rps(),
            self.p50_us,
            self.p99_us
        )?;
        write!(
            f,
            "serve.loadgen hits={} misses={} hit_rate={:.3}",
            self.hits,
            self.misses,
            self.hit_rate()
        )
    }
}

/// Draws a randomized measurement spec from a small key space, so repeated
/// draws exercise both cache misses and hits. Shared with the differential
/// battery so daemon and direct paths see identical request populations.
#[must_use]
pub fn random_spec(rng: &mut StdRng) -> MeasureSpec {
    const BENCHES: &[&str] = &["hmmer", "milc", "mcf", "libquantum"];
    const MACHINES: &[&str] = &["core2", "pentium4", "o3cpu"];
    const ENVS: &[u64] = &[0, 64, 128, 612];
    MeasureSpec {
        bench: BENCHES[rng.gen_range(0..BENCHES.len())].to_owned(),
        machine: MACHINES[rng.gen_range(0..MACHINES.len())].to_owned(),
        opt: if rng.gen::<bool>() {
            OptLevel::O2
        } else {
            OptLevel::O3
        },
        order: if rng.gen::<bool>() {
            LinkOrder::Default
        } else {
            LinkOrder::Random(rng.gen_range(0..4u64))
        },
        text_offset: 0,
        stack_shift: 0,
        env: ENVS[rng.gen_range(0..ENVS.len())],
        size: InputSize::Test,
        budget: 0,
    }
}

/// Deterministic per-client seed derivation (splitmix-style spread).
#[must_use]
pub fn client_seed(seed: u64, client: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(client as u64)
}

#[derive(Default)]
struct Tally {
    ok: usize,
    err: usize,
    shed: usize,
    failed: usize,
    retries: u64,
    latencies_us: Vec<u64>,
}

fn loadgen_client(cfg: &LoadgenConfig, client_idx: usize) -> Tally {
    let mut rng = StdRng::seed_from_u64(client_seed(cfg.seed, client_idx));
    let mut client =
        Client::new(cfg.addr.clone()).with_backoff_seed(client_seed(cfg.seed, client_idx));
    let mut tally = Tally::default();
    for seq in 0..cfg.requests {
        let id = client_idx as u64 * 1_000_000 + seq as u64;
        let line = encode_measure(id, &random_spec(&mut rng));
        let start = Instant::now();
        match client.request(&line) {
            Ok(ex) => {
                tally.retries += u64::from(ex.retries);
                tally.latencies_us.push(start.elapsed().as_micros() as u64);
                match line_status(ex.terminal()) {
                    Some("ok") => tally.ok += 1,
                    Some("shed") => tally.shed += 1,
                    _ => tally.err += 1,
                }
            }
            Err(fail) => {
                tally.retries += u64::from(fail.retries);
                tally.failed += 1;
            }
        }
    }
    tally
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Replays `clients * requests` randomized measurement requests from
/// concurrent connections and reports throughput, latency percentiles and
/// cache effectiveness (pulled from a final `stats` request).
pub fn loadgen(cfg: &LoadgenConfig) -> Result<LoadReport, String> {
    let start = Instant::now();
    let tallies: Vec<Tally> = crossbeam::scope(|scope| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|ci| scope.spawn(move |_| loadgen_client(cfg, ci)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loadgen client panicked"))
            .collect()
    })
    .map_err(|_| "loadgen client panicked".to_owned())?;
    let wall_ms = start.elapsed().as_millis() as u64;

    let mut report = LoadReport {
        clients: cfg.clients,
        requests: cfg.clients * cfg.requests,
        wall_ms,
        ..LoadReport::default()
    };
    let mut latencies: Vec<u64> = Vec::new();
    for t in tallies {
        report.ok += t.ok;
        report.err += t.err;
        report.shed += t.shed;
        report.failed += t.failed;
        report.retries += t.retries;
        latencies.extend(t.latencies_us);
    }
    latencies.sort_unstable();
    report.p50_us = percentile(&latencies, 0.50);
    report.p99_us = percentile(&latencies, 0.99);

    let mut stats_client = Client::new(cfg.addr.clone());
    if let Ok(ex) = stats_client.request(&encode_control(999_999_999, "stats")) {
        let line = ex.terminal();
        report.hits = stats_counter(line, "orch.hits").unwrap_or(0);
        report.misses = stats_counter(line, "orch.misses").unwrap_or(0);
    }
    Ok(report)
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn temp_sock(tag: &str) -> Addr {
        let dir = std::env::temp_dir();
        Addr::Unix(dir.join(format!("biaslab-serve-{tag}-{}.sock", std::process::id())))
    }

    fn spec(bench: &str) -> MeasureSpec {
        MeasureSpec {
            bench: bench.to_owned(),
            machine: "core2".to_owned(),
            opt: OptLevel::O2,
            order: LinkOrder::Default,
            text_offset: 0,
            stack_shift: 0,
            env: 0,
            size: InputSize::Test,
            budget: 0,
        }
    }

    #[test]
    fn control_roundtrip() {
        for op in ["ping", "stats", "shutdown"] {
            let line = encode_control(42, op);
            let req = parse_request(&line).expect("control request parses");
            assert_eq!(encode_request(&req), line);
        }
    }

    #[test]
    fn measure_roundtrip() {
        let mut s = spec("hmmer");
        s.order = LinkOrder::Random(7);
        s.env = 612;
        s.budget = 1000;
        let line = encode_measure(9, &s);
        let req = parse_request(&line).expect("measure request parses");
        assert_eq!(
            req,
            Request::Measure {
                id: 9,
                spec: s,
                deadline_ms: 0
            }
        );
        assert_eq!(encode_request(&req), line);
    }

    #[test]
    fn sweep_roundtrip() {
        let line = encode_sweep(3, &spec("milc"), &[0, 64, 4096]);
        let req = parse_request(&line).expect("sweep request parses");
        match &req {
            Request::Sweep { id, envs, .. } => {
                assert_eq!(*id, 3);
                assert_eq!(envs, &[0, 64, 4096]);
            }
            other => panic!("expected sweep, got {other:?}"),
        }
        assert_eq!(encode_request(&req), line);
    }

    #[test]
    fn malformed_lines_rejected_deterministically() {
        let cases: &[(&str, ProtoError)] = &[
            ("", ProtoError::Empty),
            ("   ", ProtoError::Empty),
            ("{\"ev\":\"req\"}", ProtoError::BadVersion(String::new())),
            (
                "{\"v\":2,\"ev\":\"req\",\"id\":1,\"op\":\"ping\"}",
                ProtoError::BadVersion("2".into()),
            ),
            (
                "{\"v\":1,\"ev\":\"resp\",\"id\":1}",
                ProtoError::NotARequest("resp".into()),
            ),
            (
                "{\"v\":1,\"ev\":\"req\",\"op\":\"ping\"}",
                ProtoError::MissingField("id"),
            ),
            (
                "{\"v\":1,\"ev\":\"req\",\"id\":1}",
                ProtoError::MissingField("op"),
            ),
            (
                "{\"v\":1,\"ev\":\"req\",\"id\":1,\"op\":\"dance\"}",
                ProtoError::UnknownOp("dance".into()),
            ),
            (
                "{\"v\":1,\"ev\":\"req\",\"id\":1,\"op\":\"ping\",\"extra\":3}",
                ProtoError::UnknownField("extra".into()),
            ),
            (
                "{\"v\":1,\"ev\":\"req\",\"id\":1,\"op\":\"measure\"}",
                ProtoError::MissingField("bench"),
            ),
        ];
        for (line, want) in cases {
            assert_eq!(parse_request(line).unwrap_err(), *want, "line: {line}");
        }
        // Truncation of a valid line never panics and always rejects.
        let full = encode_measure(5, &spec("hmmer"));
        for cut in 0..full.len() {
            let truncated = &full[..cut];
            if truncated.trim().is_empty() {
                continue;
            }
            assert!(
                parse_request(truncated).is_err(),
                "truncated at {cut} parsed: {truncated}"
            );
        }
    }

    #[test]
    fn bad_values_rejected_in_field_order() {
        let base = encode_measure(1, &spec("hmmer"));
        let swap = |from: &str, to: &str| base.replace(from, to);
        assert_eq!(
            parse_request(&swap("\"machine\":\"core2\"", "\"machine\":\"vax\"")).unwrap_err(),
            ProtoError::BadValue("machine", "vax".into())
        );
        assert_eq!(
            parse_request(&swap("\"opt\":\"O2\"", "\"opt\":\"O9\"")).unwrap_err(),
            ProtoError::BadValue("opt", "O9".into())
        );
        assert_eq!(
            parse_request(&swap("\"env\":0", "\"env\":7")).unwrap_err(),
            ProtoError::BadValue("env", "7".into())
        );
        // Multiple problems: the canonical-order first one wins.
        let both = swap("\"machine\":\"core2\"", "\"machine\":\"vax\"")
            .replace("\"opt\":\"O2\"", "\"opt\":\"O9\"");
        assert_eq!(
            parse_request(&both).unwrap_err(),
            ProtoError::BadValue("machine", "vax".into())
        );
    }

    #[test]
    fn env_out_of_range_rejected_never_truncated() {
        let base = encode_measure(1, &spec("hmmer"));
        // `2^32 + 7` once truncated to 7 on the worker thread and tripped
        // `Environment::of_total_size`'s 23-byte assert — one request per
        // worker wedged the daemon; `MAX_ENV_BYTES + 1` once allocated a
        // fill string of that size only to fail the load.
        for bad in [MAX_ENV_BYTES + 1, (1u64 << 32) + 7, u64::MAX] {
            let line = base.replace("\"env\":0", &format!("\"env\":{bad}"));
            assert_eq!(
                parse_request(&line).unwrap_err(),
                ProtoError::BadValue("env", bad.to_string()),
                "env={bad}"
            );
            let mut s = spec("hmmer");
            s.env = bad;
            assert!(s.setup().is_none(), "setup accepted env={bad}");
            let sweep = encode_sweep(2, &spec("hmmer"), &[0, bad]);
            assert_eq!(
                parse_request(&sweep).unwrap_err(),
                ProtoError::BadValue("envs", bad.to_string()),
                "envs entry {bad}"
            );
        }
        // The boundary values stay accepted and resolve to a setup.
        for good in [0, MIN_ENV_BYTES, MAX_ENV_BYTES] {
            let line = base.replace("\"env\":0", &format!("\"env\":{good}"));
            match parse_request(&line).expect("in-range env parses") {
                Request::Measure { spec, .. } => {
                    assert!(spec.setup().is_some(), "env={good}");
                }
                other => panic!("expected measure, got {other:?}"),
            }
        }
        // sweep_setups holds the same line for direct callers: an
        // out-of-range entry keeps the base environment, never truncates.
        let base_setup = spec("hmmer").setup().unwrap();
        let setups = sweep_setups(&base_setup, &[(1 << 32) + 7, 64]);
        assert_eq!(
            setups[0].env.stack_bytes(),
            base_setup.env.stack_bytes(),
            "out-of-range entry must keep the base env"
        );
        assert_eq!(setups[1].env.stack_bytes(), 64);
    }

    #[test]
    fn failed_request_reports_consumed_attempts() {
        // Nothing listens on this socket: every attempt dies at connect,
        // and the error must account for all of them.
        let addr = temp_sock("nobody");
        let mut client = Client::new(addr).with_attempts(3);
        let fail = client.request(&encode_control(1, "ping")).unwrap_err();
        assert_eq!(fail.retries, 3, "all consumed attempts counted");
        assert!(matches!(fail.error, ClientError::Io(_)));
    }

    #[test]
    fn finished_connections_are_reclaimed() {
        let addr = temp_sock("reclaim");
        let server = Server::start(
            &ServerConfig::new(addr.clone()),
            Arc::new(Orchestrator::default()),
        )
        .expect("server starts");
        for i in 0..4 {
            let mut client = Client::new(addr.clone());
            let ex = client
                .request(&encode_control(i, "ping"))
                .expect("ping answered");
            assert_eq!(line_status(ex.terminal()), Some("ok"));
        }
        // Readers observe the disconnects asynchronously; poll briefly.
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while server.live_connections() > 0 && Instant::now() < deadline {
            thread::sleep(std::time::Duration::from_millis(10));
        }
        assert_eq!(
            server.live_connections(),
            0,
            "per-connection state leaked after clients disconnected"
        );
        server.shutdown();
    }

    #[test]
    fn seal_detects_tearing() {
        let line = encode_ok(7);
        assert!(verify_sealed(&line));
        for cut in 0..line.len() {
            assert!(
                !verify_sealed(&line[..cut]),
                "truncation at {cut} passed the seal"
            );
        }
        let tampered = line.replace("\"status\":\"ok\"", "\"status\":\"er\"");
        assert!(!verify_sealed(&tampered));
    }

    #[test]
    fn response_lines_validate_against_schema() {
        let m = Measurement {
            setup: "core2/O2/default".to_owned(),
            counters: Default::default(),
            checksum: 0xabc,
        };
        let lines = [
            encode_response(11, &Ok(m.clone())),
            encode_response(12, &Err(MeasureError::Watchdog { limit: 9 })),
            encode_sweep_item(13, 0, &Ok(m)),
            encode_sweep_done(13, 1),
            encode_shed(14),
            encode_error(15, "proto", "missing field `op`"),
            encode_stats(16, "ok", &[("orch.hits".to_owned(), 3)]),
            encode_deadline(17, 2),
            encode_draining(18),
        ];
        for line in &lines {
            validate_response_line(line).expect("schema-valid line");
        }
    }

    #[test]
    fn addr_parse_roundtrip() {
        for s in ["unix:/tmp/x.sock", "tcp:127.0.0.1:0"] {
            assert_eq!(Addr::parse(s).unwrap().to_string(), s);
        }
        assert!(Addr::parse("ipc:nope").is_err());
        assert!(Addr::parse("unix:").is_err());
        assert!(Addr::parse("tcp:noport").is_err());
    }

    #[test]
    fn ping_and_shutdown_over_unix_socket() {
        let addr = temp_sock("ping");
        let server = Server::start(
            &ServerConfig::new(addr.clone()),
            Arc::new(Orchestrator::default()),
        )
        .expect("server starts");
        let mut client = Client::new(addr.clone());
        let ex = client
            .request(&encode_control(1, "ping"))
            .expect("ping answered");
        assert_eq!(line_status(ex.terminal()), Some("ok"));
        validate_response_line(ex.terminal()).expect("valid ping response");
        let ex = client
            .request(&encode_control(2, "shutdown"))
            .expect("shutdown acked");
        assert_eq!(line_status(ex.terminal()), Some("ok"));
        server.shutdown();
        if let Addr::Unix(path) = &addr {
            assert!(!path.exists(), "socket file leaked: {}", path.display());
        }
    }

    #[test]
    fn measure_over_socket_matches_direct_bytes() {
        let addr = temp_sock("diff");
        let server = Server::start(
            &ServerConfig::new(addr.clone()),
            Arc::new(Orchestrator::default()),
        )
        .expect("server starts");
        let s = spec("hmmer");
        let mut client = Client::new(addr);
        let ex = client
            .request(&encode_measure(100, &s))
            .expect("measure answered");

        let direct = Orchestrator::default();
        let harness = direct.harness("hmmer").expect("known benchmark");
        let result = direct.measure(&harness, &s.setup().unwrap(), s.size);
        assert_eq!(ex.terminal(), encode_response(100, &result));
        server.shutdown();
    }

    #[test]
    fn full_admission_queue_sheds_instead_of_hanging() {
        let addr = temp_sock("shed");
        let mut cfg = ServerConfig::new(addr.clone());
        cfg.workers = 1;
        cfg.queue_depth = 1;
        let server = Server::start(&cfg, Arc::new(Orchestrator::default())).expect("server starts");

        let mut client = Client::new(addr);
        // Occupy the single worker with a wide cold sweep, then flood.
        let envs: Vec<u64> = (0..8).map(|i| 64 + i * 64).collect();
        let sweep_line = encode_sweep(500, &spec("gcc"), &envs);
        let (reader, writer) = client.connected().expect("connect");
        writer
            .write_all(format!("{sweep_line}\n").as_bytes())
            .expect("send sweep");
        let mut flood_specs = Vec::new();
        for i in 0..16u64 {
            let mut s = spec("hmmer");
            s.text_offset = (i * 8) as u32;
            flood_specs.push(encode_measure(600 + i, &s));
        }
        for line in &flood_specs {
            writer
                .write_all(format!("{line}\n").as_bytes())
                .expect("send flood");
        }
        writer.flush().expect("flush");

        // Every request must get exactly one terminal response; at least one
        // flood request must be shed (queue depth 1, single busy worker).
        let mut terminals = std::collections::HashMap::new();
        let mut shed = 0usize;
        while terminals.len() < 17 {
            let mut buf = String::new();
            let n = reader.read_line(&mut buf).expect("read response");
            assert!(n > 0, "server closed before all responses arrived");
            let line = buf.trim_end();
            if line.is_empty() || line_ev(line) != Some("resp") {
                continue;
            }
            assert!(verify_sealed(line), "torn response: {line}");
            let id = line_id(line).expect("response id");
            assert!(
                terminals.insert(id, line.to_owned()).is_none(),
                "duplicate terminal for {id}"
            );
            if line_status(line) == Some("shed") {
                shed += 1;
            }
        }
        assert!(shed >= 1, "expected at least one shed response");
        assert_eq!(server.queue_len(), 0, "admission queue leaked jobs");
        server.shutdown();
    }

    /// Polls `cond` until it holds; panics after 10 s.
    fn wait_until(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn cache_hit_is_answered_while_the_pool_is_saturated() {
        let addr = temp_sock("hit-unshed");
        let mut cfg = ServerConfig::new(addr.clone());
        cfg.workers = 1;
        cfg.queue_depth = 1;
        let server = Server::start(&cfg, Arc::new(Orchestrator::default())).expect("server starts");
        let warm = encode_measure(700, &spec("hmmer"));
        let mut client = Client::new(addr.clone());
        let first = client.request(&warm).expect("warm-up answered");
        assert_eq!(line_status(first.terminal()), Some("ok"));
        // The worker answers before it counts the job done.
        wait_until("the warm-up job to retire", || {
            server.shared.inflight.load(Ordering::SeqCst) == 0
        });

        // Occupy the only worker with a wide cold sweep (ref inputs keep
        // it busy for a good fraction of a second)...
        let mut busy = Client::new(addr);
        let (reader, writer) = busy.connected().expect("connect");
        let envs: Vec<u64> = (0..16).map(|i| 64 + i * 64).collect();
        let mut wide = spec("gcc");
        wide.size = InputSize::Ref;
        let sweep_line = encode_sweep(701, &wide, &envs);
        writer
            .write_all(format!("{sweep_line}\n").as_bytes())
            .expect("send sweep");
        wait_until("the worker to take the sweep", || {
            server.shared.inflight.load(Ordering::SeqCst) == 1
        });
        // ...and fill the admission queue behind it with a cold measure.
        let mut cold = spec("hmmer");
        cold.text_offset = 8;
        writer
            .write_all(format!("{}\n", encode_measure(702, &cold)).as_bytes())
            .expect("send cold measure");
        wait_until("the cold measure to queue", || server.queue_len() == 1);

        // A pooled request would be shed now; the cached key is answered.
        let again = client.request(&warm).expect("hit answered");
        assert_eq!(
            again.terminal(),
            first.terminal(),
            "a hit gets its first response's bytes, never a shed"
        );

        // The saturating work still completes: the sweep's terminal, then
        // the queued cold measure's.
        let mut terminals = Vec::new();
        while terminals.len() < 2 {
            let mut buf = String::new();
            let n = reader.read_line(&mut buf).expect("read response");
            assert!(n > 0, "server closed before all responses arrived");
            let line = buf.trim_end();
            assert!(verify_sealed(line), "torn response: {line}");
            if line_ev(line) == Some("resp") {
                terminals.push((line_id(line), line_status(line).map(str::to_owned)));
            }
        }
        assert_eq!(
            terminals,
            [
                (Some(701), Some("ok".to_owned())),
                (Some(702), Some("ok".to_owned()))
            ]
        );
        server.shutdown();
    }

    #[test]
    fn stop_is_idempotent_and_safe_under_races() {
        let addr = temp_sock("stop-twice");
        let server = Server::start(
            &ServerConfig::new(addr.clone()),
            Arc::new(Orchestrator::default()),
        )
        .expect("server starts");
        let mut client = Client::new(addr);
        client
            .request(&encode_control(1, "ping"))
            .expect("ping answered");
        // Second (and third) stop must not double-join, panic, or hang —
        // including one racing a drain request.
        server.request_drain();
        server.stop();
        server.stop();
        server.stop();
        assert_eq!(server.health(), "draining");
    }

    #[test]
    fn drain_refuses_new_work_but_answers_control() {
        let addr = temp_sock("drain-refuse");
        let server = Server::start(
            &ServerConfig::new(addr.clone()),
            Arc::new(Orchestrator::default()),
        )
        .expect("server starts");
        let mut client = Client::new(addr);
        // Warm the key first: a draining daemon refuses cache hits too.
        let warm = client
            .request(&encode_measure(0, &spec("hmmer")))
            .expect("warm-up answered");
        assert_eq!(line_status(warm.terminal()), Some("ok"));
        client
            .request(&encode_shutdown(1, true))
            .expect("drain acknowledged");
        assert_eq!(server.health(), "draining");
        // The existing connection still answers control requests...
        let ex = client
            .request(&encode_control(2, "stats"))
            .expect("stats answered");
        assert_eq!(line_health(ex.terminal()), Some("draining"));
        // ...but refuses new measurement work with a typed drain response.
        let ex = client
            .request(&encode_measure(3, &spec("hmmer")))
            .expect("refusal is a clean terminal, not an error");
        assert_eq!(line_status(ex.terminal()), Some("draining"));
        assert_eq!(ex.terminal(), encode_draining(3));
        server.stop();
    }

    #[test]
    fn deadline_already_expired_gets_typed_response() {
        let addr = temp_sock("deadline");
        let server = Server::start(
            &ServerConfig::new(addr.clone()),
            Arc::new(Orchestrator::default()),
        )
        .expect("server starts");
        let mut client = Client::new(addr);
        // A 1ms deadline on a cold gcc sweep cannot be met; the client must
        // get a typed deadline terminal, never a hang or a torn line.
        let line = encode_sweep_deadline(42, &spec("gcc"), &[0, 64, 128], 1);
        let ex = client.request(&line).expect("deadline answered");
        assert_eq!(line_status(ex.terminal()), Some("deadline"));
        assert_eq!(field_str(ex.terminal(), "code"), Some("deadline"));
        server.shutdown();
    }

    #[test]
    fn backoff_is_deterministic_capped_and_seed_spread() {
        for attempt in 0..10 {
            let a = backoff_delay_ms(7, 42, attempt);
            assert_eq!(a, backoff_delay_ms(7, 42, attempt), "deterministic");
            assert!(a < BACKOFF_CAP_MS, "within cap");
            let span = (BACKOFF_BASE_MS << attempt.min(6)).min(BACKOFF_CAP_MS);
            assert!(a < span.max(1), "within this attempt's span");
        }
        let spread: std::collections::HashSet<u64> =
            (0..32).map(|seed| backoff_delay_ms(seed, 1, 6)).collect();
        assert!(spread.len() > 8, "distinct seeds spread retry delays");
    }

    #[test]
    fn sweep_digest_ignores_request_id_but_not_grid() {
        let s = spec("hmmer");
        let d = sweep_digest(&s, &[0, 64]);
        assert_eq!(
            sweep_digest(&s, &[0, 64]),
            d,
            "digest is a pure function of spec+grid"
        );
        assert_ne!(sweep_digest(&s, &[0, 64, 128]), d, "grid changes digest");
        let mut other = spec("hmmer");
        other.env = 612;
        assert_ne!(sweep_digest(&other, &[0, 64]), d, "spec changes digest");
    }

    #[test]
    fn journal_replays_items_and_quarantines_torn_tail() {
        let dir = std::env::temp_dir().join(format!("biaslab-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let digest = 0xdead_beef_u64;
        let payload = ItemPayload {
            status: "ok",
            code: String::new(),
            error: String::new(),
            setup: "core2/O2/default".to_owned(),
            checksum: 7,
            counters: "1,2,3".to_owned(),
        };
        {
            let (mut j, replayed) = SweepJournal::open(&dir, digest).expect("journal opens");
            assert!(replayed.is_empty());
            j.append(digest, 0, &payload).expect("append");
            j.append(digest, 1, &payload).expect("append");
            // Simulate a crash mid-append: a torn half-line tail.
            let line = journal_line(digest, 2, &payload);
            j.file
                .write_all(&line.as_bytes()[..line.len() / 2])
                .expect("torn write");
        }
        let (j, replayed) = SweepJournal::open(&dir, digest).expect("journal reopens");
        assert_eq!(
            replayed.len(),
            2,
            "intact items replayed, torn tail dropped"
        );
        assert_eq!(replayed[&0], payload);
        assert!(
            !std::fs::read_to_string(&j.path)
                .expect("journal readable")
                .contains("\"seq\":2"),
            "compaction removed the torn tail"
        );
        j.complete();
        assert!(!dir.join(format!("{digest:016x}.jsonl")).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    proptest! {
        #[test]
        fn prop_request_roundtrip(
            id in 0u64..u64::MAX / 2,
            bench in prop::sample::select(vec!["hmmer", "milc", "mcf"]),
            machine in prop::sample::select(vec!["core2", "pentium4", "o3cpu"]),
            opt in prop::sample::select(OptLevel::ALL.to_vec()),
            order_seed in 0u64..1000,
            order_default in any::<bool>(),
            text_offset in 0u32..4096,
            stack_shift in 0u32..4096,
            env in prop::sample::select(vec![0u64, 23, 64, 612, 4096]),
            budget in prop::sample::select(vec![0u64, 9, 1 << 20]),
            envs in prop::collection::vec(prop::sample::select(vec![0u64, 64, 612]), 0..5),
            sweep in any::<bool>(),
        ) {
            // Derived, not an extra strategy: the vendored proptest caps
            // tuples at 12 parameters.
            let deadline_ms = [0u64, 1, 250, 60_000][(id % 4) as usize];
            let spec = MeasureSpec {
                bench: bench.to_owned(),
                machine: machine.to_owned(),
                opt,
                order: if order_default {
                    LinkOrder::Default
                } else {
                    LinkOrder::Random(order_seed)
                },
                text_offset,
                stack_shift,
                env,
                size: InputSize::Test,
                budget,
            };
            let req = if sweep {
                Request::Sweep { id, spec, envs, deadline_ms }
            } else {
                Request::Measure { id, spec, deadline_ms }
            };
            let line = encode_request(&req);
            prop_assert_eq!(parse_request(&line).unwrap(), req.clone());
            prop_assert_eq!(encode_request(&parse_request(&line).unwrap()), line);
        }

        #[test]
        fn prop_parse_never_panics_and_is_deterministic(line in "[ -~]{0,200}") {
            let a = parse_request(&line);
            let b = parse_request(&line);
            prop_assert_eq!(a, b);
        }

        #[test]
        fn prop_mutated_requests_never_panic(
            cut in 0usize..200,
            flip in 0usize..200,
            byte in 0u8..128,
        ) {
            let full = encode_sweep(77, &MeasureSpec {
                bench: "hmmer".to_owned(),
                machine: "core2".to_owned(),
                opt: OptLevel::O3,
                order: LinkOrder::Random(3),
                text_offset: 64,
                stack_shift: 128,
                env: 612,
                size: InputSize::Test,
                budget: 0,
            }, &[0, 64]);
            let mut bytes = full.into_bytes();
            let cut = cut.min(bytes.len());
            bytes.truncate(cut);
            if !bytes.is_empty() {
                let at = flip % bytes.len();
                bytes[at] = byte.max(b' ');
            }
            let line = String::from_utf8_lossy(&bytes).into_owned();
            let _ = parse_request(&line); // must not panic
        }

        #[test]
        fn prop_seal_rejects_any_truncation(id in 0u64..1_000_000) {
            let line = encode_shed(id);
            prop_assert!(verify_sealed(&line));
            for cut in (0..line.len()).step_by(7) {
                prop_assert!(!verify_sealed(&line[..cut]));
            }
        }
    }
}
