//! The wire protocol: newline-delimited JSON requests and responses.
//!
//! The serving front end speaks JSON-lines over a plain TCP stream (or
//! any other line-oriented byte pipe): one request per line in, one
//! response per line out, matched by the client-chosen `id`. Responses
//! may arrive out of request order — batching reorders freely. The
//! objects are deliberately flat so both ends can use the same tiny
//! field scanner (the [`crate::codec`] module) instead of a JSON
//! dependency (the workspace builds offline; see `shims/README.md`).
//!
//! A request names a workload (`network`, `repr`, `seed`) and an engine
//! label from the standard evaluation set (`DaDN`, `Stripes`, and the
//! PRA design points of the sweep). The response carries the simulated
//! totals, a content digest over the simulation-determined fields (the
//! CI golden pins it), the batch size the request was coalesced into,
//! and the per-request latency split.
//!
//! ## Protocol v2: streaming frames
//!
//! A request carrying `"v": 2` opts into *streaming*: the server may
//! interleave any number of [`Response::LayerResult`] progress frames
//! before the terminal [`Response::Done`] frame. The `done` frame's
//! `payload` field holds the complete v1 response line, JSON-escaped —
//! so the concatenation of a v2 exchange's digest-relevant payloads is
//! byte-identical to what a v1 client receives, and the CI golden pins
//! both at once. Requests without `"v"` (or with `"v": 1`) get exactly
//! the monolithic v1 response, byte-identical to every prior release.
//! Sheds are always monolithic v1 lines, even for v2 requests: a shed
//! request never started streaming, and clients retry on the bare line.

use pra_core::{EncodingKey, Fidelity, PraConfig};
use pra_workloads::cache::sha256;
use pra_workloads::{Network, Representation};

use crate::codec::{
    hex, json_num_field, json_str_field, json_u64_field, parse_seed, request_id, ParseError,
};

/// Version tag mixed into every response digest: bump when the digest's
/// canonical input or the simulation semantics behind it change, so a
/// stale golden fails loudly instead of comparing apples to oranges.
/// (Note this is *not* the wire negotiation version: v2 streaming
/// changes framing, not simulation semantics, so the digest tag stays.)
pub const PROTOCOL_VERSION: u32 = 1;

/// Why the service refused a request instead of simulating it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The bounded queue was at capacity — the caller should back off
    /// and retry (classic load shedding, not an error in the request).
    QueueFull,
    /// The service is shutting down and accepts no new work.
    ShuttingDown,
    /// The connection cap was reached; this connection was refused
    /// before any request was read.
    Overloaded,
    /// The request's deadline expired before its simulation finished;
    /// answering late would be answering garbage, so it sheds instead.
    Deadline,
    /// The worker simulating this request's batch died; the supervisor
    /// answered on its behalf. Retryable — the respawned worker serves
    /// the retry.
    WorkerLost,
    /// Every shard in the request key's replica set is down; the router
    /// answered on the cluster's behalf. Retryable — health probes
    /// bring recovered shards back, so a backed-off retry can land.
    NoShard,
}

impl ShedReason {
    /// Stable wire label.
    pub fn label(&self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::ShuttingDown => "shutting_down",
            ShedReason::Overloaded => "overloaded",
            ShedReason::Deadline => "deadline",
            ShedReason::WorkerLost => "worker_lost",
            ShedReason::NoShard => "no_shard",
        }
    }

    /// The reason for a wire label, `None` for unknown labels.
    pub fn from_label(label: &str) -> Option<ShedReason> {
        match label {
            "queue_full" => Some(ShedReason::QueueFull),
            "shutting_down" => Some(ShedReason::ShuttingDown),
            "overloaded" => Some(ShedReason::Overloaded),
            "deadline" => Some(ShedReason::Deadline),
            "worker_lost" => Some(ShedReason::WorkerLost),
            "no_shard" => Some(ShedReason::NoShard),
            _ => None,
        }
    }

    /// Whether a client should retry after backing off. Shutdown is the
    /// one reason retrying the same server cannot help with.
    pub fn retryable(&self) -> bool {
        !matches!(self, ShedReason::ShuttingDown)
    }
}

/// An out-of-band control request: not simulation work, but service
/// introspection (`stats`) and graceful shutdown (`drain`) over the
/// same wire, so operators need no side channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlRequest {
    /// Snapshot the live [`StatsSnapshot`] counters.
    Stats,
    /// Stop accepting, answer everything queued, then exit `run()`
    /// (honored only by `pra serve --once`; refused otherwise).
    Drain,
}

impl ControlRequest {
    /// Recognizes a control line: `{"ctl": "stats"}` or
    /// `{"ctl": "drain"}`. `None` for ordinary request lines.
    pub fn parse(line: &str) -> Option<ControlRequest> {
        match json_str_field(line, "ctl").as_deref() {
            Some("stats") => Some(ControlRequest::Stats),
            Some("drain") => Some(ControlRequest::Drain),
            _ => None,
        }
    }

    /// Renders the control request as one JSON line.
    pub fn to_json_line(&self) -> String {
        match self {
            ControlRequest::Stats => "{\"ctl\": \"stats\"}".to_string(),
            ControlRequest::Drain => "{\"ctl\": \"drain\"}".to_string(),
        }
    }
}

/// A point-in-time copy of the service counters, as answered to a
/// `stats` control request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Requests admitted to the queue.
    pub accepted: u64,
    /// Requests shed (admission, deadline, and supervisor sheds).
    pub shed: u64,
    /// Batches simulated.
    pub batches: u64,
    /// Requests answered `ok`.
    pub answered: u64,
    /// Batches served from the artifact pool.
    pub pool_hits: u64,
    /// Connections being served right now.
    pub live_connections: u64,
    /// Connections refused at the cap with `shed:overloaded`.
    pub connections_shed: u64,
    /// Dead workers detected and respawned by the supervisor.
    pub worker_restarts: u64,
    /// Requests answered `shed:deadline` past their deadline.
    pub deadline_expired: u64,
    /// Milliseconds of blocking artifact work (the encoded-entry
    /// decode, or workload sourcing and starting the build; entry
    /// publication) paid by batch workers since boot. The CI warm-start
    /// smoke compares this across a cold and a warm boot of the same
    /// cache directory.
    pub encode_ms: u64,
    /// Batches whose shared encoded artifacts loaded from the store's
    /// disk tier instead of being rebuilt.
    pub encoded_hits: u64,
    /// Batches that read or generated a workload (an encoded-tier
    /// miss); 0 on a warm boot.
    pub workload_loads: u64,
    /// This process's shard id within a cluster (0 when standalone).
    pub shard: u64,
    /// This process's epoch — a per-boot value (the process id by
    /// default) that changes when the shard restarts, so the router's
    /// health probes can tell "same shard, rebooted" from "same shard,
    /// still up".
    pub epoch: u64,
}

impl StatsSnapshot {
    /// Renders the snapshot as one JSON line (`"status": "stats"`).
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"status\": \"stats\", \"accepted\": {}, \"shed\": {}, \"batches\": {}, \
             \"answered\": {}, \"pool_hits\": {}, \"live_connections\": {}, \
             \"connections_shed\": {}, \"worker_restarts\": {}, \"deadline_expired\": {}, \
             \"encode_ms\": {}, \"encoded_hits\": {}, \"workload_loads\": {}, \"shard\": {}, \
             \"epoch\": {}}}",
            self.accepted,
            self.shed,
            self.batches,
            self.answered,
            self.pool_hits,
            self.live_connections,
            self.connections_shed,
            self.worker_restarts,
            self.deadline_expired,
            self.encode_ms,
            self.encoded_hits,
            self.workload_loads,
            self.shard,
            self.epoch,
        )
    }

    /// Parses the client side of [`to_json_line`].
    ///
    /// # Errors
    ///
    /// A [`ParseError`] naming the missing field and carrying the line.
    pub fn parse(line: &str) -> Result<StatsSnapshot, ParseError> {
        if json_str_field(line, "status").as_deref() != Some("stats") {
            return Err(ParseError::new("not a stats line", line));
        }
        let num = |k: &str| {
            json_num_field(line, k)
                .map(|v| v as u64)
                .ok_or_else(|| ParseError::new(format!("stats missing \"{k}\""), line))
        };
        Ok(StatsSnapshot {
            accepted: num("accepted")?,
            shed: num("shed")?,
            batches: num("batches")?,
            answered: num("answered")?,
            pool_hits: num("pool_hits")?,
            live_connections: num("live_connections")?,
            connections_shed: num("connections_shed")?,
            worker_restarts: num("worker_restarts")?,
            deadline_expired: num("deadline_expired")?,
            // Added after the v1 wire format shipped: default 0 so a
            // newer client can still read an older shard's snapshot.
            // This is a *versioned* tolerance, not a silent one — the
            // round-trip test pins the legacy-line behavior.
            encode_ms: json_num_field(line, "encode_ms").map_or(0, |v| v as u64),
            encoded_hits: json_num_field(line, "encoded_hits").map_or(0, |v| v as u64),
            workload_loads: json_num_field(line, "workload_loads").map_or(0, |v| v as u64),
            shard: json_num_field(line, "shard").map_or(0, |v| v as u64),
            epoch: json_num_field(line, "epoch").map_or(0, |v| v as u64),
        })
    }
}

/// One simulation request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: u64,
    /// Network to simulate.
    pub network: Network,
    /// Neuron representation.
    pub repr: Representation,
    /// Engine label from [`engine_labels`], e.g. `"PRA-2b"`.
    pub engine: String,
    /// Workload generation seed.
    pub seed: u64,
    /// Negotiated wire version: 1 (default) for one monolithic
    /// response, 2 to opt into streamed `layer_result` frames and a
    /// terminal `done` frame. Anything else is rejected at parse.
    pub v: u32,
}

/// The engine a request resolves to.
#[derive(Debug, Clone)]
pub enum Engine {
    /// The bit-parallel DaDianNao baseline.
    DaDn,
    /// The serialized-precision Stripes baseline.
    Stripes,
    /// A Pragmatic design point from the standard sweep set.
    Pra(PraConfig),
}

impl Engine {
    /// Resolves a wire label against the standard engine set for
    /// `repr`, at the given fidelity. `None` for unknown labels.
    pub fn from_label(label: &str, repr: Representation, fidelity: Fidelity) -> Option<Engine> {
        match label {
            "DaDN" => Some(Engine::DaDn),
            "Stripes" => Some(Engine::Stripes),
            _ => pra_bench::sweep::pra_configs(repr, fidelity)
                .into_iter()
                .find(|c| c.label() == label)
                .map(Engine::Pra),
        }
    }

    /// The mask-encoding slice this engine's artifacts depend on. The
    /// value-blind baselines have no schedule table of their own, so
    /// they coalesce with the standard oneffset encoding group.
    pub fn encoding_key(&self) -> EncodingKey {
        match self {
            Engine::Pra(cfg) => cfg.encoding_key(),
            _ => PraConfig::default().encoding_key(),
        }
    }
}

/// Every engine label the service accepts for `repr`, in the sweep's
/// row order — the request mix generator and docs both read this.
pub fn engine_labels(repr: Representation) -> Vec<String> {
    pra_bench::sweep::engine_labels(repr)
}

/// Short, wire-stable label for a representation.
pub fn repr_label(repr: Representation) -> &'static str {
    pra_bench::sweep::repr_label(repr)
}

fn parse_repr(label: &str) -> Option<Representation> {
    match label {
        "fp16" => Some(Representation::Fixed16),
        "quant8" => Some(Representation::Quant8),
        _ => None,
    }
}

fn parse_network(name: &str) -> Option<Network> {
    Network::ALL.into_iter().find(|n| n.name().eq_ignore_ascii_case(name))
}

impl Request {
    /// Parses one request line. The engine label is validated against
    /// the standard set so a typo is rejected at admission, not after
    /// the batch already formed.
    ///
    /// # Errors
    ///
    /// A [`ParseError`] naming the missing or invalid field and
    /// carrying the offending line.
    pub fn parse(line: &str) -> Result<Request, ParseError> {
        let id = request_id(line)?;
        let net_name = json_str_field(line, "network")
            .ok_or_else(|| ParseError::new("missing \"network\"", line))?;
        let network = parse_network(&net_name)
            .ok_or_else(|| ParseError::new(format!("unknown network '{net_name}'"), line))?;
        let repr_name = json_str_field(line, "repr")
            .ok_or_else(|| ParseError::new("missing \"repr\"", line))?;
        let repr = parse_repr(&repr_name).ok_or_else(|| {
            ParseError::new(format!("unknown repr '{repr_name}' (fp16 | quant8)"), line)
        })?;
        let engine = json_str_field(line, "engine")
            .ok_or_else(|| ParseError::new("missing \"engine\"", line))?;
        if Engine::from_label(&engine, repr, Fidelity::Full).is_none() {
            return Err(ParseError::new(
                format!("unknown engine '{engine}' (one of: {})", engine_labels(repr).join(", ")),
                line,
            ));
        }
        let seed = match json_str_field(line, "seed") {
            Some(s) => parse_seed(&s)
                .ok_or_else(|| ParseError::new(format!("invalid seed '{s}'"), line))?,
            None => pra_bench::SEED,
        };
        let v = if line.contains("\"v\":") {
            match json_u64_field(line, "v") {
                Some(v @ (1 | 2)) => v as u32,
                _ => {
                    return Err(ParseError::new(
                        "invalid \"v\" (supported protocol versions: 1, 2)",
                        line,
                    ))
                }
            }
        } else {
            1
        };
        Ok(Request { id, network, repr, engine, seed, v })
    }

    /// Renders the request as one JSON line (no trailing newline).
    /// A v1 request renders byte-identically to every prior release;
    /// the `"v"` field appears only when the request opts into v2.
    pub fn to_json_line(&self) -> String {
        let mut line = format!(
            "{{\"id\": {}, \"network\": {}, \"repr\": {}, \"engine\": {}, \"seed\": \"{:#x}\"",
            self.id,
            pra_bench::report::json_string(self.network.name()),
            pra_bench::report::json_string(repr_label(self.repr)),
            pra_bench::report::json_string(&self.engine),
            self.seed,
        );
        if self.v == 2 {
            line.push_str(", \"v\": 2");
        }
        line.push('}');
        line
    }
}

/// Per-request latency split, all in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencySplit {
    /// Submission to joining a forming batch (queue wait).
    pub enqueue_ms: f64,
    /// Joining the batch to the batch sealing (linger / fill wait).
    pub batch_ms: f64,
    /// Batch sealing to the response being ready (workload sourcing,
    /// shared-artifact build and simulation).
    pub sim_ms: f64,
    /// Submission to response — the client-visible service latency.
    pub total_ms: f64,
}

/// One simulation response (or, under protocol v2, one response frame).
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The request was simulated.
    Ok {
        /// Echoed request id.
        id: u64,
        /// Echoed workload/engine naming.
        network: String,
        /// Echoed representation label.
        repr: String,
        /// Echoed engine label.
        engine: String,
        /// Echoed seed.
        seed: u64,
        /// Total cycles over the convolutional stack.
        cycles: u64,
        /// Total effectual terms processed.
        terms: u64,
        /// Speedup over the DaDN baseline of the same workload.
        speedup: f64,
        /// Hex SHA-256 over the simulation-determined fields — identical
        /// across worker counts, batch sizes and batch compositions.
        digest: String,
        /// How many requests the batch this one rode in held.
        batch_size: usize,
        /// Latency accounting.
        latency: LatencySplit,
    },
    /// The request was refused at admission.
    Shed {
        /// Echoed request id.
        id: u64,
        /// Why it was refused.
        reason: ShedReason,
    },
    /// The request could not be parsed or simulated.
    Error {
        /// Echoed request id (0 when the line had no readable id).
        id: u64,
        /// What went wrong.
        message: String,
    },
    /// The request line was rejected *and* carried no trustworthy
    /// numeric id, so the raw id text is echoed back as a JSON string.
    /// This keeps two concurrent malformed lines from colliding on a
    /// fabricated numeric id (the pre-v1.1 behavior defaulted to 0,
    /// which could impersonate a real request using id 0).
    MalformedId {
        /// The raw id token exactly as it appeared on the wire
        /// (`"<missing>"` when the line had no id field at all).
        raw_id: String,
        /// What went wrong.
        message: String,
    },
    /// A v2 progress frame: the batch's lead engine finished simulating
    /// one more layer. Progress-only — it carries *cumulative* lead
    /// cycle/term totals for observability, but no digest-relevant
    /// payload (the digest covers the terminal result, which the `done`
    /// frame delivers in full).
    LayerResult {
        /// Echoed request id.
        id: u64,
        /// Zero-based index of the layer that just finished.
        layer: usize,
        /// Total layers in the workload (so clients can render
        /// progress without knowing the network).
        layers: usize,
        /// Cumulative lead-engine cycles through this layer.
        cycles: u64,
        /// Cumulative lead-engine effectual terms through this layer.
        terms: u64,
    },
    /// The v2 terminal frame. Its `payload` carries the complete v1
    /// response line (JSON-escaped), so concatenating a v2 exchange's
    /// digest-relevant payloads reproduces the v1 bytes exactly — the
    /// golden digest gates both wire versions with one pin.
    Done {
        /// Echoed request id.
        id: u64,
        /// How many `layer_result` frames preceded this one.
        frames: usize,
        /// The terminal v1 response ([`Response::Ok`] or
        /// [`Response::Error`]) the payload encodes.
        inner: Box<Response>,
    },
}

/// The canonical digest of a simulated response: everything the
/// simulator determines, nothing scheduling determines. Timing fields
/// and `batch_size` are deliberately excluded — batch composition is a
/// scheduling artifact, and the acceptance gate requires byte-identical
/// digests across worker counts and batch sizes.
pub fn response_digest(
    network: &str,
    repr: &str,
    engine: &str,
    seed: u64,
    cycles: u64,
    terms: u64,
    speedup: f64,
) -> String {
    let canon = format!(
        "pra-serve-v{PROTOCOL_VERSION}|{network}|{repr}|{engine}|{seed:#018x}|{cycles}|{terms}|{speedup:.4}"
    );
    hex(&sha256(canon.as_bytes()))
}

impl Response {
    /// The echoed request id, whatever the outcome. A
    /// [`Response::MalformedId`] has no numeric id by definition and
    /// answers 0 here; callers that must not conflate it with a real
    /// id 0 should match the variant instead.
    pub fn id(&self) -> u64 {
        match self {
            Response::Ok { id, .. }
            | Response::Shed { id, .. }
            | Response::Error { id, .. }
            | Response::LayerResult { id, .. }
            | Response::Done { id, .. } => *id,
            Response::MalformedId { .. } => 0,
        }
    }

    /// `true` for the per-request *terminal* frame: everything except
    /// [`Response::LayerResult`]. The front end uses this to keep its
    /// in-flight accounting; the router uses it to claim ledger
    /// entries only on completion.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, Response::LayerResult { .. })
    }

    /// Renders the response as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        use pra_bench::report::json_string as js;
        match self {
            Response::Ok {
                id,
                network,
                repr,
                engine,
                seed,
                cycles,
                terms,
                speedup,
                digest,
                batch_size,
                latency,
            } => format!(
                "{{\"id\": {id}, \"status\": \"ok\", \"network\": {}, \"repr\": {}, \"engine\": {}, \
                 \"seed\": \"{seed:#x}\", \"cycles\": {cycles}, \"terms\": {terms}, \
                 \"speedup\": {speedup:.4}, \"digest\": {}, \"batch_size\": {batch_size}, \
                 \"enqueue_ms\": {:.3}, \"batch_ms\": {:.3}, \"sim_ms\": {:.3}, \"total_ms\": {:.3}}}",
                js(network),
                js(repr),
                js(engine),
                js(digest),
                latency.enqueue_ms,
                latency.batch_ms,
                latency.sim_ms,
                latency.total_ms,
            ),
            Response::Shed { id, reason } => {
                format!("{{\"id\": {id}, \"status\": \"shed\", \"reason\": {}}}", js(reason.label()))
            }
            Response::Error { id, message } => {
                format!("{{\"id\": {id}, \"status\": \"error\", \"message\": {}}}", js(message))
            }
            Response::MalformedId { raw_id, message } => {
                // The id is a JSON *string* here — the one response
                // shape where it is not a number — so the client can
                // tell "your id was unusable" from "request 0 failed".
                format!(
                    "{{\"id\": {}, \"status\": \"error\", \"message\": {}}}",
                    js(raw_id),
                    js(message)
                )
            }
            Response::LayerResult { id, layer, layers, cycles, terms } => format!(
                "{{\"id\": {id}, \"status\": \"layer_result\", \"layer\": {layer}, \
                 \"layers\": {layers}, \"cycles\": {cycles}, \"terms\": {terms}}}"
            ),
            Response::Done { id, frames, inner } => format!(
                "{{\"id\": {id}, \"status\": \"done\", \"frames\": {frames}, \"payload\": {}}}",
                js(&inner.to_json_line())
            ),
        }
    }

    /// Parses one response line (the client side of [`to_json_line`]).
    ///
    /// # Errors
    ///
    /// A [`ParseError`] naming the missing or invalid field and
    /// carrying the offending line — nothing is silently defaulted.
    pub fn parse(line: &str) -> Result<Response, ParseError> {
        let status = json_str_field(line, "status")
            .ok_or_else(|| ParseError::new("missing response \"status\"", line))?;
        match status.as_str() {
            "ok" => {
                let id = request_id(line)?;
                let num = |k: &str| {
                    json_num_field(line, k).ok_or_else(|| {
                        ParseError::new(format!("ok response missing \"{k}\""), line)
                    })
                };
                let s = |k: &str| {
                    json_str_field(line, k).ok_or_else(|| {
                        ParseError::new(format!("ok response missing \"{k}\""), line)
                    })
                };
                Ok(Response::Ok {
                    id,
                    network: s("network")?,
                    repr: s("repr")?,
                    engine: s("engine")?,
                    seed: parse_seed(&s("seed")?)
                        .ok_or_else(|| ParseError::new("invalid seed in response", line))?,
                    cycles: num("cycles")? as u64,
                    terms: num("terms")? as u64,
                    speedup: num("speedup")?,
                    digest: s("digest")?,
                    batch_size: num("batch_size")? as usize,
                    latency: LatencySplit {
                        enqueue_ms: num("enqueue_ms")?,
                        batch_ms: num("batch_ms")?,
                        sim_ms: num("sim_ms")?,
                        total_ms: num("total_ms")?,
                    },
                })
            }
            "shed" => {
                let id = request_id(line)?;
                let label = json_str_field(line, "reason")
                    .ok_or_else(|| ParseError::new("shed response missing \"reason\"", line))?;
                let reason = ShedReason::from_label(&label).ok_or_else(|| {
                    ParseError::new(format!("unknown shed reason '{label}'"), line)
                })?;
                Ok(Response::Shed { id, reason })
            }
            "layer_result" => {
                let id = request_id(line)?;
                let u = |k: &str| {
                    json_u64_field(line, k).ok_or_else(|| {
                        ParseError::new(format!("layer_result missing \"{k}\""), line)
                    })
                };
                Ok(Response::LayerResult {
                    id,
                    layer: u("layer")? as usize,
                    layers: u("layers")? as usize,
                    cycles: u("cycles")?,
                    terms: u("terms")?,
                })
            }
            "done" => {
                let id = request_id(line)?;
                let frames = json_u64_field(line, "frames")
                    .ok_or_else(|| ParseError::new("done frame missing \"frames\"", line))?
                    as usize;
                let payload = json_str_field(line, "payload")
                    .ok_or_else(|| ParseError::new("done frame missing \"payload\"", line))?;
                let inner = Response::parse(&payload)?;
                if matches!(inner, Response::LayerResult { .. } | Response::Done { .. }) {
                    return Err(ParseError::new(
                        "done payload must be a terminal v1 response",
                        line,
                    ));
                }
                Ok(Response::Done { id, frames, inner: Box::new(inner) })
            }
            "error" => {
                let message = json_str_field(line, "message")
                    .ok_or_else(|| ParseError::new("error response missing \"message\"", line))?;
                // A string-typed id marks the malformed-id shape (a
                // numeric id never renders with quotes).
                match json_str_field(line, "id") {
                    Some(raw_id) => Ok(Response::MalformedId { raw_id, message }),
                    None => Ok(Response::Error { id: request_id(line)?, message }),
                }
            }
            other => {
                Err(ParseError::new(format!("unrecognized response status \"{other}\""), line))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_through_json() {
        let req = Request {
            id: 7,
            network: Network::GoogLeNet,
            repr: Representation::Quant8,
            engine: "PRA-2b-1R".to_string(),
            seed: 0xDEAD_BEEF,
            v: 1,
        };
        let line = req.to_json_line();
        assert_eq!(Request::parse(&line).unwrap(), req);
    }

    #[test]
    fn v1_request_line_has_no_version_field() {
        let req = Request {
            id: 3,
            network: Network::NiN,
            repr: Representation::Fixed16,
            engine: "DaDN".to_string(),
            seed: 0x1,
            v: 1,
        };
        let line = req.to_json_line();
        assert!(!line.contains("\"v\""), "v1 request bytes must be unchanged: {line}");
        assert_eq!(
            line,
            "{\"id\": 3, \"network\": \"NiN\", \"repr\": \"fp16\", \
             \"engine\": \"DaDN\", \"seed\": \"0x1\"}"
        );
    }

    #[test]
    fn v2_negotiation_round_trips_and_rejects_unknown_versions() {
        let req = Request {
            id: 9,
            network: Network::AlexNet,
            repr: Representation::Fixed16,
            engine: "PRA-2b".to_string(),
            seed: 0x7,
            v: 2,
        };
        let line = req.to_json_line();
        assert!(line.ends_with(", \"v\": 2}"), "{line}");
        assert_eq!(Request::parse(&line).unwrap(), req);
        // Explicit v1 parses like an absent field.
        let v1 = line.replace("\"v\": 2", "\"v\": 1");
        assert_eq!(Request::parse(&v1).unwrap().v, 1);
        for bad in ["\"v\": 3", "\"v\": 0", "\"v\": 1.5", "\"v\": \"two\""] {
            let mangled = line.replace("\"v\": 2", bad);
            let err = Request::parse(&mangled).unwrap_err();
            assert!(err.what.contains("\"v\""), "{bad} must be rejected: {err}");
            assert_eq!(err.line, mangled, "error carries the offending line");
        }
    }

    #[test]
    fn request_defaults_the_seed() {
        let req = Request::parse(
            "{\"id\": 1, \"network\": \"NiN\", \"repr\": \"fp16\", \"engine\": \"DaDN\"}",
        )
        .unwrap();
        assert_eq!(req.seed, pra_bench::SEED);
        assert_eq!(req.v, 1, "absent \"v\" negotiates the monolithic protocol");
    }

    #[test]
    fn request_rejects_bad_fields() {
        let base = "{\"id\": 1, \"network\": \"NiN\", \"repr\": \"fp16\", \"engine\": \"DaDN\"}";
        assert!(Request::parse(base).is_ok());
        let err = Request::parse(&base.replace("NiN", "LeNet")).unwrap_err();
        assert!(err.to_string().contains("network"));
        assert!(err.line.contains("LeNet"), "typed error carries the offending line");
        assert!(Request::parse(&base.replace("fp16", "fp32"))
            .unwrap_err()
            .to_string()
            .contains("repr"));
        assert!(Request::parse(&base.replace("DaDN", "TPU"))
            .unwrap_err()
            .to_string()
            .contains("engine"));
        assert!(Request::parse("{\"network\": \"NiN\"}").unwrap_err().to_string().contains("id"));
    }

    #[test]
    fn every_standard_engine_label_resolves() {
        for repr in [Representation::Fixed16, Representation::Quant8] {
            for label in engine_labels(repr) {
                assert!(
                    Engine::from_label(&label, repr, Fidelity::Full).is_some(),
                    "label {label} must resolve"
                );
            }
        }
        assert!(Engine::from_label("PRA-9b", Representation::Fixed16, Fidelity::Full).is_none());
    }

    fn ok_response() -> Response {
        Response::Ok {
            id: 42,
            network: "Alexnet".to_string(),
            repr: "fp16".to_string(),
            engine: "PRA-2b".to_string(),
            seed: 0x90AD,
            cycles: 123_456,
            terms: 789,
            speedup: 2.5901,
            digest: "abc123".to_string(),
            batch_size: 8,
            latency: LatencySplit {
                enqueue_ms: 0.5,
                batch_ms: 1.25,
                sim_ms: 30.0,
                total_ms: 31.75,
            },
        }
    }

    #[test]
    fn ok_response_round_trips() {
        let resp = ok_response();
        assert_eq!(Response::parse(&resp.to_json_line()).unwrap(), resp);
        let shed = Response::Shed { id: 9, reason: ShedReason::QueueFull };
        assert_eq!(Response::parse(&shed.to_json_line()).unwrap(), shed);
        let err = Response::Error { id: 3, message: "bad \"quote\"".to_string() };
        assert_eq!(Response::parse(&err.to_json_line()).unwrap(), err);
    }

    #[test]
    fn layer_result_frames_round_trip() {
        let frame = Response::LayerResult { id: 7, layer: 3, layers: 11, cycles: 900, terms: 80 };
        let line = frame.to_json_line();
        assert!(line.contains("\"status\": \"layer_result\""), "{line}");
        assert_eq!(Response::parse(&line).unwrap(), frame);
        assert_eq!(frame.id(), 7);
        assert!(!frame.is_terminal(), "progress frames never complete a request");
        // Every field is required — no silent defaults.
        for key in ["layer", "layers", "cycles", "terms"] {
            let mangled = line.replace(&format!("\"{key}\":"), "\"x\":");
            let err = Response::parse(&mangled).unwrap_err();
            assert!(err.what.contains(key), "missing {key} must be typed: {err}");
        }
    }

    #[test]
    fn done_frame_payload_reproduces_the_v1_bytes() {
        let inner = ok_response();
        let v1_line = inner.to_json_line();
        let done = Response::Done { id: 42, frames: 5, inner: Box::new(inner) };
        let line = done.to_json_line();
        assert!(line.contains("\"status\": \"done\""), "{line}");
        let parsed = Response::parse(&line).unwrap();
        assert_eq!(parsed, done);
        assert!(done.is_terminal());
        // The digest-relevant payload is byte-identical to v1.
        let Response::Done { inner, .. } = parsed else { unreachable!("just matched done") };
        assert_eq!(inner.to_json_line(), v1_line);
        // A done frame can carry an error terminal, but never a frame.
        let err_done = Response::Done {
            id: 8,
            frames: 0,
            inner: Box::new(Response::Error { id: 8, message: "λ boom\n".to_string() }),
        };
        assert_eq!(Response::parse(&err_done.to_json_line()).unwrap(), err_done);
        let nested = Response::Done { id: 1, frames: 1, inner: Box::new(err_done.clone()) };
        assert!(Response::parse(&nested.to_json_line()).unwrap_err().what.contains("terminal"));
    }

    #[test]
    fn response_parse_failures_are_typed_and_carry_the_line() {
        // Missing id no longer defaults to 0.
        let no_id = "{\"status\": \"shed\", \"reason\": \"queue_full\"}";
        let err = Response::parse(no_id).unwrap_err();
        assert!(err.what.contains("id"), "{err}");
        assert_eq!(err.line, no_id);
        // Unknown shed reasons no longer collapse into queue_full.
        let bad_reason = "{\"id\": 1, \"status\": \"shed\", \"reason\": \"cosmic_rays\"}";
        assert!(Response::parse(bad_reason).unwrap_err().what.contains("cosmic_rays"));
        // Error responses must carry a message.
        let no_msg = "{\"id\": 1, \"status\": \"error\"}";
        assert!(Response::parse(no_msg).unwrap_err().what.contains("message"));
        // And a status is required at all.
        assert!(Response::parse("{\"id\": 1}").unwrap_err().what.contains("status"));
    }

    #[test]
    fn digest_ignores_scheduling_but_not_results() {
        let d = |cycles, speedup| {
            response_digest("Alexnet", "fp16", "PRA-2b", 0x90AD, cycles, 7, speedup)
        };
        assert_eq!(d(100, 2.0), d(100, 2.0), "digest must be deterministic");
        assert_ne!(d(100, 2.0), d(101, 2.0), "cycles must change the digest");
        assert_ne!(d(100, 2.0), d(100, 2.5), "speedup must change the digest");
    }

    #[test]
    fn huge_or_malformed_ids_are_rejected_with_raw_text() {
        // 2⁶⁴ — one past u64::MAX. The old f64 path silently cast this
        // (and any other unparsable id) to something wrong.
        let huge = "{\"id\": 18446744073709551616, \"network\": \"NiN\", \
                    \"repr\": \"fp16\", \"engine\": \"DaDN\"}";
        let err = Request::parse(huge).unwrap_err();
        assert!(err.to_string().contains("18446744073709551616"), "raw id text preserved: {err}");
        let float = huge.replace("18446744073709551616", "1.5");
        assert!(Request::parse(&float).unwrap_err().to_string().contains("'1.5'"));
        let neg = huge.replace("18446744073709551616", "-3");
        assert!(Request::parse(&neg).unwrap_err().to_string().contains("'-3'"));
        assert!(request_id("{\"network\": \"NiN\"}").unwrap_err().to_string().contains("id"));
        // u64::MAX itself is a legal id.
        assert_eq!(request_id("{\"id\": 18446744073709551615}").unwrap(), u64::MAX);
    }

    #[test]
    fn control_requests_round_trip_and_do_not_shadow_requests() {
        for ctl in [ControlRequest::Stats, ControlRequest::Drain] {
            assert_eq!(ControlRequest::parse(&ctl.to_json_line()), Some(ctl));
        }
        let req = "{\"id\": 1, \"network\": \"NiN\", \"repr\": \"fp16\", \"engine\": \"DaDN\"}";
        assert_eq!(ControlRequest::parse(req), None);
        assert_eq!(ControlRequest::parse("{\"ctl\": \"reboot\"}"), None);
    }

    #[test]
    fn stats_snapshot_round_trips() {
        let snap = StatsSnapshot {
            accepted: 10,
            shed: 2,
            batches: 4,
            answered: 8,
            pool_hits: 3,
            live_connections: 1,
            connections_shed: 5,
            worker_restarts: 1,
            deadline_expired: 2,
            encode_ms: 120,
            encoded_hits: 6,
            workload_loads: 2,
            shard: 3,
            epoch: 4,
        };
        assert_eq!(StatsSnapshot::parse(&snap.to_json_line()).unwrap(), snap);
        let err = StatsSnapshot::parse("{\"status\": \"ok\"}").unwrap_err();
        assert_eq!(err.line, "{\"status\": \"ok\"}", "typed error carries the line");
        // A stats line missing a counter is a typed error, not a zero.
        let truncated = snap.to_json_line().replace("\"batches\": 4, ", "");
        assert!(StatsSnapshot::parse(&truncated).unwrap_err().what.contains("batches"));
        // Snapshots from before a counter shipped parse it as 0 —
        // shard/epoch (pre-cluster), the encode-phase counters
        // (pre-tiered-store) and workload loads alike.
        let legacy = StatsSnapshot {
            encode_ms: 0,
            encoded_hits: 0,
            workload_loads: 0,
            shard: 0,
            epoch: 0,
            ..snap
        };
        let line = snap
            .to_json_line()
            .replace(", \"encode_ms\": 120, \"encoded_hits\": 6, \"workload_loads\": 2", "")
            .replace(", \"shard\": 3, \"epoch\": 4", "");
        assert_eq!(StatsSnapshot::parse(&line).unwrap(), legacy);
    }

    #[test]
    fn every_shed_reason_round_trips_with_retryability() {
        for reason in [
            ShedReason::QueueFull,
            ShedReason::ShuttingDown,
            ShedReason::Overloaded,
            ShedReason::Deadline,
            ShedReason::WorkerLost,
            ShedReason::NoShard,
        ] {
            let shed = Response::Shed { id: 1, reason };
            assert_eq!(Response::parse(&shed.to_json_line()).unwrap(), shed);
            assert_eq!(ShedReason::from_label(reason.label()), Some(reason));
            assert_eq!(reason.retryable(), reason != ShedReason::ShuttingDown);
        }
    }

    #[test]
    fn malformed_id_echoes_raw_text_and_round_trips() {
        let resp =
            Response::MalformedId { raw_id: "1.5".to_string(), message: "bad id".to_string() };
        let line = resp.to_json_line();
        assert!(line.contains("\"id\": \"1.5\""), "raw id renders as a JSON string: {line}");
        assert_eq!(Response::parse(&line).unwrap(), resp);
        assert_eq!(resp.id(), 0, "no numeric id to echo");
        // A numeric-id error still parses as the plain Error variant.
        let err = Response::Error { id: 3, message: "boom".to_string() };
        assert_eq!(Response::parse(&err.to_json_line()).unwrap(), err);
        // Two concurrent malformed lines stay distinguishable.
        let other =
            Response::MalformedId { raw_id: "-7".to_string(), message: "bad id".to_string() };
        assert_ne!(resp.to_json_line(), other.to_json_line());
    }
}
