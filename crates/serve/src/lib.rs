//! # pra-serve — batched simulation serving
//!
//! The first *serving* subsystem of the reproduction (DESIGN.md §10):
//! a batched request path in front of the cycle simulators, matching
//! the throughput-engine framing of the Pragmatic paper — the
//! accelerator amortizes its encode/schedule work over batched
//! activation streams, and this crate amortizes the simulator's
//! equivalents (`SharedEncodedNetwork`, schedule tables, the
//! content-addressed workload cache) over batched requests.
//!
//! The pipeline is **queue → coalesce → shared-artifact batch →
//! respond**:
//!
//! * [`codec`] — the one JSON-lines codec (field extraction, string
//!   escaping, typed [`ParseError`]s carrying the offending line)
//!   shared by this crate, the router and the load generator;
//! * [`queue`] — bounded admission with typed shedding
//!   ([`ShedReason`]), and batch formation that coalesces requests
//!   agreeing on [`BatchKey`] (network geometry + representation +
//!   seed + mask-encoding slice) under a configurable batch-size cap
//!   and linger window;
//! * [`service`] — the worker pool: one workload build and one
//!   [`pra_core::SharedEncodedNetwork`] per batch, each distinct
//!   engine simulated exactly once, per-request latency split
//!   (enqueue / batch-wait / sim / total); protocol-v2 requests
//!   stream per-layer progress frames, and a cold key's first frame
//!   waits for layer 0's tables only (DESIGN.md §14);
//! * [`server`] — the event-driven JSON-lines TCP front end
//!   (`pra serve`): one thread multiplexing every connection over
//!   nonblocking sockets, a bounded connection cap, and `stats` /
//!   `drain` control requests over the same wire;
//! * [`supervisor`] — the degradation machinery (DESIGN.md §12): an
//!   in-flight registry giving every admitted request exactly one
//!   answer even when its worker dies, dead-worker respawn, and
//!   per-request deadline enforcement;
//! * [`bench`] — the closed-loop load generator (`pra bench-serve`)
//!   reporting p50/p95/p99 and throughput into `bench.json`, plus the
//!   response-digest fingerprint CI pins; sheds are retried with
//!   jittered exponential backoff.
//!
//! Responses are scheduling-independent: worker count, batch size and
//! batch composition never change a single response byte (only the
//! latency fields, which are excluded from the digest). Fault
//! injection (`pra-chaos`, armed via `PRA_CHAOS`) exercises exactly
//! these guarantees in the chaos soak and the CI `chaos-smoke` gate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod codec;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod service;
pub mod supervisor;

pub use bench::{run_bench, BenchConfig, ServeMetrics};
pub use codec::ParseError;
pub use protocol::{ControlRequest, Engine, Request, Response, ShedReason, StatsSnapshot};
pub use queue::{BatchKey, RequestQueue, ServeConfig};
pub use server::Server;
pub use service::SimService;
