//! The admission-controlled batch queue: bounded depth, shed on
//! overload, and compatibility-keyed batch formation with a linger
//! window.
//!
//! Admission is a single bounded FIFO guarded by one mutex: `submit`
//! either enqueues or returns a typed [`ShedReason`] immediately —
//! callers never block on a full queue, which is what keeps tail
//! latency bounded under overload (the paper's serving framing assumes
//! the accelerator is the bottleneck; the queue's job is to say "no"
//! cheaply). Workers pull *batches*: the oldest request seeds the batch
//! and fixes its [`BatchKey`]; compatible requests anywhere in the
//! queue join (the scan preserves FIFO order within a key but lets
//! other keys overtake, like any coalescing scheduler); incompatible
//! requests are never touched, so a concurrent worker can pick them up
//! while this one lingers. A batch seals when it reaches `max_batch`,
//! when the linger window expires, or when the queue closes.

use std::collections::VecDeque;
use std::sync::mpsc::Sender;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use pra_core::{EncodingKey, Fidelity};
use pra_workloads::{Network, Representation};

use crate::protocol::{Engine, Request, Response, ShedReason};

/// Service-wide configuration, shared by the in-process service and the
/// TCP front end.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads pulling batches off the queue.
    pub workers: usize,
    /// Requests a batch may coalesce (1 disables batching).
    pub max_batch: usize,
    /// Queued requests beyond which `submit` sheds.
    pub queue_depth: usize,
    /// How long a non-full batch waits for compatible company before
    /// sealing. Zero seals immediately with whatever is compatible.
    pub linger: Duration,
    /// Simulation fidelity for the cycle-level engines (full by
    /// default: responses are the paper-comparable numbers).
    pub fidelity: Fidelity,
    /// The tiered artifact store batches resolve through (DESIGN.md
    /// §9, §15): workload streams, traffic tables and schedule
    /// tables. `ArtifactStore::at_default().no_disk()` regenerates
    /// everything per process; results are byte-identical either way.
    pub store: pra_workloads::cache::ArtifactStore,
    /// Per-request deadline, measured from admission. Requests still
    /// unanswered when it expires are shed with
    /// [`ShedReason::Deadline`] instead of simulated; `None` disables
    /// deadline enforcement.
    pub deadline: Option<Duration>,
    /// Concurrent TCP connections the front end serves; excess
    /// connections get one `shed:overloaded` line and a clean close.
    pub max_connections: usize,
    /// How long a worker may sit on one batch before the supervisor
    /// treats it as wedged and spawns a supplemental worker (threads
    /// cannot be killed; the wedged batch ages out via deadlines).
    pub wedge_timeout: Duration,
    /// This process's shard id within a cluster (reported in stats
    /// snapshots so the router can confirm which shard answered a
    /// probe). 0 when standalone.
    pub shard: u64,
    /// This process's boot epoch (reported in stats snapshots; a
    /// change under an unchanged shard id tells the router the shard
    /// restarted and its artifact pool is cold). 0 when standalone.
    pub epoch: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            max_batch: 8,
            queue_depth: 128,
            linger: Duration::from_millis(2),
            fidelity: Fidelity::Full,
            store: pra_workloads::cache::ArtifactStore::at_default(),
            deadline: None,
            max_connections: 64,
            wedge_timeout: Duration::from_secs(30),
            shard: 0,
            epoch: 0,
        }
    }
}

/// The compatibility key batch formation coalesces on: requests agree
/// on the workload (network geometry + representation + seed) and on
/// the mask-encoding slice of their engine, so one
/// [`pra_core::SharedEncodedNetwork`] (and one cached workload) serves
/// the whole batch. Requests differing in any component are never
/// placed in the same batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BatchKey {
    /// Network (fixes every layer's geometry).
    pub network: Network,
    /// Neuron representation.
    pub repr: Representation,
    /// Workload generation seed.
    pub seed: u64,
    /// Mask-encoding slice of the request's engine.
    pub encoding: EncodingKey,
}

impl BatchKey {
    /// The key `req` coalesces under.
    pub fn of(req: &Request) -> BatchKey {
        let encoding = Engine::from_label(&req.engine, req.repr, Fidelity::Full)
            .map(|e| e.encoding_key())
            .unwrap_or_else(|| Engine::DaDn.encoding_key());
        BatchKey { network: req.network, repr: req.repr, seed: req.seed, encoding }
    }
}

/// A queued request: the payload, its response channel, and the
/// admission/batching timestamps the latency split is computed from.
#[derive(Debug)]
pub struct Pending {
    /// The request.
    pub req: Request,
    /// The request's compatibility key, computed once at admission —
    /// batch formation compares keys per queued request per scan, so
    /// recomputing here (engine-label resolution allocates) would sit
    /// on the hot path under the queue mutex.
    pub key: BatchKey,
    /// Where the response goes (send failures are ignored: a client
    /// that hung up simply never reads its answer).
    pub tx: Sender<Response>,
    /// When `submit` accepted the request.
    pub submitted: Instant,
    /// When the request joined a forming batch (set by `next_batch`).
    pub joined: Option<Instant>,
}

/// A sealed batch, ready to simulate.
#[derive(Debug)]
pub struct Batch {
    /// The compatibility key every member shares.
    pub key: BatchKey,
    /// The members, oldest first.
    pub requests: Vec<Pending>,
    /// When the batch sealed (simulation starts here).
    pub sealed: Instant,
}

struct Inner {
    queue: VecDeque<Pending>,
    closed: bool,
}

/// The bounded, coalescing request queue.
pub struct RequestQueue {
    inner: Mutex<Inner>,
    available: Condvar,
    depth: usize,
}

impl RequestQueue {
    /// Creates a queue shedding beyond `depth` queued requests.
    pub fn new(depth: usize) -> Self {
        Self {
            inner: Mutex::new(Inner { queue: VecDeque::new(), closed: false }),
            available: Condvar::new(),
            depth: depth.max(1),
        }
    }

    /// Locks the queue state, recovering from poisoning: a worker that
    /// panicked mid-lock leaves `Inner` structurally intact (a VecDeque
    /// and a bool have no invariant a partial critical section can
    /// break), and the serve path must keep answering rather than
    /// cascade the panic through every worker.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Currently queued (not yet batched) requests.
    pub fn len(&self) -> usize {
        self.lock().queue.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Admits a request, or sheds it with a typed reason. Never blocks.
    ///
    /// # Errors
    ///
    /// [`ShedReason::QueueFull`] at capacity, [`ShedReason::ShuttingDown`]
    /// after [`RequestQueue::close`].
    pub fn submit(&self, req: Request, tx: Sender<Response>) -> Result<(), ShedReason> {
        let mut g = self.lock();
        if g.closed {
            return Err(ShedReason::ShuttingDown);
        }
        if g.queue.len() >= self.depth {
            return Err(ShedReason::QueueFull);
        }
        let key = BatchKey::of(&req);
        g.queue.push_back(Pending { req, key, tx, submitted: Instant::now(), joined: None });
        drop(g);
        // Wake every parked worker: a lingering worker may consume a
        // single notification meant for an idle one.
        self.available.notify_all();
        Ok(())
    }

    /// Closes the queue: pending requests still drain into batches, new
    /// submissions shed, and workers return `None` once empty.
    pub fn close(&self) {
        self.lock().closed = true;
        self.available.notify_all();
    }

    /// `true` once [`RequestQueue::close`] has been called (the
    /// supervisor's exit signal).
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Abrupt close: discards every queued (not-yet-batched) request
    /// *without answering it* and closes the queue. This is the
    /// shard-kill path — the killed shard's connections were already
    /// severed, so the dropped requests' response channels point at
    /// nothing; the router observes the dead connection and re-issues
    /// the work on the fallback shard. Returns how many requests were
    /// discarded.
    pub fn abort(&self) -> usize {
        let mut g = self.lock();
        g.closed = true;
        let dropped = g.queue.len();
        g.queue.clear();
        drop(g);
        self.available.notify_all();
        dropped
    }

    /// Blocks for the next batch: seeds it with the oldest request,
    /// coalesces up to `max_batch` key-compatible requests, lingering up
    /// to `linger` for stragglers when not yet full. `None` once the
    /// queue is closed and drained.
    pub fn next_batch(&self, max_batch: usize, linger: Duration) -> Option<Batch> {
        let max_batch = max_batch.max(1);
        let mut g = self.lock();
        let mut lead = loop {
            if let Some(lead) = g.queue.pop_front() {
                break lead;
            }
            if g.closed {
                return None;
            }
            g = self.available.wait(g).unwrap_or_else(PoisonError::into_inner);
        };
        let key = lead.key;
        lead.joined = Some(Instant::now());
        let mut requests = vec![lead];
        let deadline = Instant::now() + linger;
        loop {
            // Pull every currently-queued compatible request (in FIFO
            // order); incompatible ones are left for other workers.
            let mut i = 0;
            while i < g.queue.len() && requests.len() < max_batch {
                if g.queue.get(i).is_some_and(|p| p.key == key) {
                    if let Some(mut p) = g.queue.remove(i) {
                        p.joined = Some(Instant::now());
                        requests.push(p);
                    }
                } else {
                    i += 1;
                }
            }
            if requests.len() >= max_batch || g.closed {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            let (guard, timeout) = self
                .available
                .wait_timeout(g, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            g = guard;
            if timeout.timed_out() {
                // One final scan below the loop exit would miss requests
                // racing the timeout; the scan at the top of the next
                // iteration handles them, then the deadline check breaks.
                continue;
            }
        }
        drop(g);
        Some(Batch { key, requests, sealed: Instant::now() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    fn req(id: u64, network: Network, engine: &str, seed: u64) -> Request {
        Request {
            id,
            network,
            repr: Representation::Fixed16,
            engine: engine.to_string(),
            seed,
            v: 1,
        }
    }

    #[test]
    fn queue_full_sheds_with_typed_reason() {
        let q = RequestQueue::new(2);
        let (tx, _rx) = channel();
        assert!(q.submit(req(0, Network::AlexNet, "DaDN", 1), tx.clone()).is_ok());
        assert!(q.submit(req(1, Network::AlexNet, "DaDN", 1), tx.clone()).is_ok());
        assert_eq!(
            q.submit(req(2, Network::AlexNet, "DaDN", 1), tx.clone()),
            Err(ShedReason::QueueFull)
        );
        // Draining a batch frees capacity again.
        let batch = q.next_batch(8, Duration::ZERO).unwrap();
        assert_eq!(batch.requests.len(), 2);
        assert!(q.submit(req(3, Network::AlexNet, "DaDN", 1), tx).is_ok());
    }

    #[test]
    fn closed_queue_sheds_and_drains() {
        let q = RequestQueue::new(8);
        let (tx, _rx) = channel();
        q.submit(req(0, Network::NiN, "Stripes", 1), tx.clone()).unwrap();
        q.close();
        assert_eq!(q.submit(req(1, Network::NiN, "Stripes", 1), tx), Err(ShedReason::ShuttingDown));
        assert_eq!(q.next_batch(8, Duration::from_secs(5)).unwrap().requests.len(), 1);
        assert!(q.next_batch(8, Duration::ZERO).is_none(), "closed + drained returns None");
    }

    #[test]
    fn abort_discards_queued_work_and_closes() {
        let q = RequestQueue::new(8);
        let (tx, _rx) = channel();
        q.submit(req(0, Network::NiN, "DaDN", 1), tx.clone()).unwrap();
        q.submit(req(1, Network::NiN, "DaDN", 1), tx.clone()).unwrap();
        assert_eq!(q.abort(), 2, "both queued requests are discarded");
        assert!(q.is_closed());
        assert!(q.is_empty());
        assert_eq!(q.submit(req(2, Network::NiN, "DaDN", 1), tx), Err(ShedReason::ShuttingDown));
        assert!(q.next_batch(8, Duration::ZERO).is_none(), "workers see closed + empty");
    }

    #[test]
    fn incompatible_requests_are_left_queued() {
        let q = RequestQueue::new(16);
        let (tx, _rx) = channel();
        q.submit(req(0, Network::AlexNet, "DaDN", 1), tx.clone()).unwrap();
        q.submit(req(1, Network::NiN, "DaDN", 1), tx.clone()).unwrap();
        q.submit(req(2, Network::AlexNet, "PRA-2b", 1), tx.clone()).unwrap();
        q.submit(req(3, Network::AlexNet, "DaDN", 2), tx).unwrap();
        let batch = q.next_batch(8, Duration::ZERO).unwrap();
        // Only ids 0 and 2 share (network, repr, seed, encoding).
        let ids: Vec<u64> = batch.requests.iter().map(|p| p.req.id).collect();
        assert_eq!(ids, vec![0, 2]);
        assert_eq!(q.len(), 2, "other keys stay queued for other workers");
    }

    #[test]
    fn linger_expiry_seals_a_partial_batch() {
        let q = RequestQueue::new(8);
        let (tx, _rx) = channel();
        q.submit(req(0, Network::VggM, "PRA-4b", 7), tx).unwrap();
        let linger = Duration::from_millis(40);
        let start = Instant::now();
        let batch = q.next_batch(8, linger).unwrap();
        let waited = start.elapsed();
        assert_eq!(batch.requests.len(), 1, "nothing compatible ever arrived");
        assert!(waited >= linger, "sealed after {waited:?}, before the {linger:?} linger expired");
        assert!(batch.sealed >= batch.requests[0].joined.unwrap());
    }

    #[test]
    fn full_batch_seals_without_waiting_out_the_linger() {
        let q = RequestQueue::new(8);
        let (tx, _rx) = channel();
        for id in 0..3 {
            q.submit(req(id, Network::VggS, "DaDN", 3), tx.clone()).unwrap();
        }
        let start = Instant::now();
        let batch = q.next_batch(3, Duration::from_secs(10)).unwrap();
        assert_eq!(batch.requests.len(), 3);
        assert!(start.elapsed() < Duration::from_secs(5), "full batch must not linger");
    }

    #[test]
    fn poisoned_lock_recovers_for_submit_and_next_batch() {
        use std::sync::Arc;
        let q = Arc::new(RequestQueue::new(2));
        let (tx, _rx) = channel();
        q.submit(req(0, Network::AlexNet, "DaDN", 1), tx.clone()).unwrap();

        // Poison the queue mutex the way a buggy worker would: panic
        // while holding the guard (PR 6's recovery path).
        let q2 = Arc::clone(&q);
        let poisoner = std::thread::spawn(move || {
            let _g = q2.inner.lock().unwrap();
            panic!("deliberate: poison the queue mutex");
        });
        assert!(poisoner.join().is_err(), "the poisoning thread must have panicked");
        assert!(q.inner.is_poisoned(), "the mutex must actually be poisoned");

        // Every operation keeps working through the poisoned lock, and
        // the admission invariants (depth cap, close semantics) still
        // hold — recovery must not silently skip the shed checks.
        assert_eq!(q.len(), 1);
        assert!(q.submit(req(1, Network::AlexNet, "DaDN", 1), tx.clone()).is_ok());
        assert_eq!(
            q.submit(req(2, Network::AlexNet, "DaDN", 1), tx.clone()),
            Err(ShedReason::QueueFull),
            "depth cap survives poisoning"
        );
        let batch = q.next_batch(8, Duration::ZERO).expect("batch forms through a poisoned lock");
        assert_eq!(batch.requests.iter().map(|p| p.req.id).collect::<Vec<_>>(), vec![0, 1]);
        assert!(!q.is_closed());
        q.close();
        assert!(q.is_closed());
        assert_eq!(
            q.submit(req(3, Network::AlexNet, "DaDN", 1), tx),
            Err(ShedReason::ShuttingDown),
            "close semantics survive poisoning"
        );
        assert!(q.next_batch(8, Duration::ZERO).is_none(), "closed + drained still returns None");
    }

    #[test]
    fn lingering_worker_picks_up_late_compatible_arrivals() {
        use std::sync::Arc;
        let q = Arc::new(RequestQueue::new(8));
        let (tx, _rx) = channel();
        q.submit(req(0, Network::Vgg19, "DaDN", 5), tx.clone()).unwrap();
        let q2 = Arc::clone(&q);
        let feeder = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            let (tx2, _rx2) = channel();
            q2.submit(req(1, Network::Vgg19, "DaDN", 5), tx2).unwrap();
            // Keep the late response channel alive past the join below.
            std::mem::forget(_rx2);
        });
        let batch = q.next_batch(8, Duration::from_millis(500)).unwrap();
        feeder.join().unwrap();
        assert_eq!(batch.requests.len(), 2, "the linger window must absorb the late arrival");
    }
}
