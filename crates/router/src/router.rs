//! The router proper: a JSON-lines TCP front end that consistent-hashes
//! each request's workload key onto a shard, owns the single answer per
//! id, and re-issues lost work on the key's fallback shard.
//!
//! Ownership rules (the exactly-once contract, lifted from the serve
//! supervisor's claim ledger): every admitted request line is an entry
//! in its client's ledger recording which shard it is currently
//! *assigned* to. A response from shard S claims the entry — and with
//! it the right to answer the client — only when the entry is still
//! assigned to S; whoever removes the entry owns the single answer.
//! Failover re-assigns the entry before re-sending, so a late response
//! from the old shard finds the assignment changed and is dropped as
//! stale (counted, never forwarded). The client sees exactly one
//! response per id no matter how many shards touched the request.
//!
//! Failure handling funnels through one path: any hard evidence that a
//! shard is gone (upstream connect/write/read failure, or two missed
//! heartbeats) downs it on the shared [`HealthBoard`], and the *first*
//! caller to make that transition sweeps every client's ledger,
//! re-dispatching the entries assigned to the dead shard. A request
//! whose whole replica set is down is answered `shed:no_shard`
//! (retryable — probes bring recovered shards back).
//!
//! Responses are forwarded byte-for-byte: the router never re-renders a
//! shard's response line, so response digests are identical to the
//! single-shard path by construction.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use pra_serve::codec::{raw_id_token, request_id};
use pra_serve::{BatchKey, ControlRequest, Request, Response, ShedReason};

use crate::health::{probe_jitter, probe_once, HealthBoard, ProbeConfig};
use crate::ring::{workload_key, HashRing, DEFAULT_VNODES};

/// How long an upstream connect (data path or drain propagation) may
/// take. Loopback refusals fail immediately; this only bounds the
/// black-hole case.
const UPSTREAM_CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

/// Router tuning.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Backend shard addresses, in shard-id order (shard 0 first).
    pub shards: Vec<String>,
    /// Distinct shards per key (primary + fallbacks); clamped to the
    /// shard count by the ring.
    pub replicas: usize,
    /// Virtual nodes per shard on the hash ring.
    pub vnodes: usize,
    /// Health probe timing.
    pub probe: ProbeConfig,
    /// Client connections served concurrently before new ones are
    /// refused with `shed:overloaded` (mirrors the shard-side cap).
    pub max_connections: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            shards: Vec::new(),
            replicas: 2,
            vnodes: DEFAULT_VNODES,
            probe: ProbeConfig::default(),
            max_connections: 64,
        }
    }
}

/// Router counters, reported on the `router_stats` control line.
#[derive(Debug, Default)]
pub struct RouterStats {
    /// Request lines admitted and hashed onto the ring.
    pub routed: AtomicU64,
    /// Responses claimed and forwarded to clients.
    pub answered: AtomicU64,
    /// Re-dispatches onto a fallback shard (failover events).
    pub failovers: AtomicU64,
    /// Requests answered `shed:no_shard` (whole replica set down).
    pub no_shard: AtomicU64,
    /// Upstream responses dropped because their entry was gone or
    /// re-assigned (late answers from a failed-over shard).
    pub stale_drops: AtomicU64,
    /// Shard restarts detected by epoch change on a probe.
    pub restarts_seen: AtomicU64,
    /// Client connections being served right now.
    pub live_connections: AtomicU64,
    /// Client connections refused at the cap.
    pub connections_shed: AtomicU64,
}

impl RouterStats {
    /// Renders the `{"status": "router_stats", ...}` control line.
    pub fn to_json_line(&self, board: &HealthBoard) -> String {
        let (up, degraded, down) = board.counts();
        // relaxed-ok: monotonic stat counters read for reporting;
        // nothing synchronizes through them.
        let ld = |c: &AtomicU64| c.load(Ordering::Relaxed);
        format!(
            "{{\"status\": \"router_stats\", \"shards\": {}, \"up\": {up}, \
             \"degraded\": {degraded}, \"down\": {down}, \"routed\": {}, \"answered\": {}, \
             \"failovers\": {}, \"no_shard\": {}, \"stale_drops\": {}, \"restarts_seen\": {}, \
             \"connections_shed\": {}}}",
            board.len(),
            ld(&self.routed),
            ld(&self.answered),
            ld(&self.failovers),
            ld(&self.no_shard),
            ld(&self.stale_drops),
            ld(&self.restarts_seen),
            ld(&self.connections_shed),
        )
    }
}

/// State every connection handler, upstream reader and the prober
/// share: the ring, the health board, the stats, and the client
/// registry the shard-down sweep walks.
struct Shared {
    ring: HashRing,
    board: HealthBoard,
    stats: RouterStats,
    shard_addrs: Vec<SocketAddr>,
    clients: Mutex<BTreeMap<u64, Arc<ClientCtx>>>,
}

impl Shared {
    fn lock_clients(&self) -> MutexGuard<'_, BTreeMap<u64, Arc<ClientCtx>>> {
        self.clients.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The shard-death funnel: records hard evidence on the board and,
    /// iff this call made the UP/DEGRADED → DOWN transition, sweeps
    /// every client's ledger once. `sweeper` additionally re-sweeps its
    /// own ledger when the shard was already down — its entry may have
    /// been assigned after the transition sweep ran.
    fn on_shard_dead(&self, shard: usize, why: &str, sweeper: Option<&Arc<ClientCtx>>) {
        if self.board.mark_down(shard) {
            eprintln!("pra-router: shard {shard} down: {why}");
            self.sweep_all(shard);
        } else if let Some(ctx) = sweeper {
            ctx.sweep_shard(shard);
        }
    }

    /// Re-dispatches every client's entries assigned to `shard`. The
    /// client list is snapshotted so no lock is held across dispatch.
    fn sweep_all(&self, shard: usize) {
        let clients: Vec<Arc<ClientCtx>> = self.lock_clients().values().cloned().collect();
        for ctx in clients {
            ctx.sweep_shard(shard);
        }
    }
}

/// One in-flight request: the raw line (re-sent verbatim on failover),
/// its replica set, and where it currently lives.
struct Entry {
    line: String,
    replicas: Vec<usize>,
    /// The shard whose response may claim this entry.
    assigned: Option<usize>,
    /// How many replicas have been tried (index into `replicas`).
    attempt: usize,
}

/// The shared write half of a client connection.
type SharedWriter = Arc<Mutex<BufWriter<TcpStream>>>;

fn write_line(out: &SharedWriter, line: &str) -> std::io::Result<()> {
    let mut g = out.lock().unwrap_or_else(PoisonError::into_inner);
    g.write_all(line.as_bytes())?;
    g.write_all(b"\n")?;
    g.flush()
}

/// Per-client-connection state: the claim ledger and this client's
/// upstream connections (one lazily-opened connection per shard, so
/// response ids never collide across clients).
struct ClientCtx {
    out: SharedWriter,
    ledger: Mutex<BTreeMap<u64, Entry>>,
    /// Live upstream senders by shard; the writer thread on the other
    /// end owns the socket's write half.
    senders: Mutex<BTreeMap<usize, Sender<String>>>,
    /// Stream clones for the same shards, so client EOF can shut the
    /// sockets down and unblock the upstream reader threads.
    streams: Mutex<BTreeMap<usize, TcpStream>>,
    shared: Arc<Shared>,
}

impl ClientCtx {
    fn new(out: SharedWriter, shared: Arc<Shared>) -> ClientCtx {
        ClientCtx {
            out,
            ledger: Mutex::new(BTreeMap::new()),
            senders: Mutex::new(BTreeMap::new()),
            streams: Mutex::new(BTreeMap::new()),
            shared,
        }
    }

    fn lock_ledger(&self) -> MutexGuard<'_, BTreeMap<u64, Entry>> {
        self.ledger.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_senders(&self) -> MutexGuard<'_, BTreeMap<usize, Sender<String>>> {
        self.senders.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_streams(&self) -> MutexGuard<'_, BTreeMap<usize, TcpStream>> {
        self.streams.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Admits one parsed request: ledger entry, route, first dispatch.
    fn admit(self: &Arc<Self>, req: &Request, line: &str) {
        let id = req.id;
        let replicas = self.shared.ring.route(workload_key(&BatchKey::of(req)));
        {
            let mut g = self.lock_ledger();
            if g.contains_key(&id) {
                drop(g);
                let resp = Response::Error {
                    id,
                    message: format!("duplicate in-flight id {id} on this connection"),
                };
                let _ = write_line(&self.out, &resp.to_json_line());
                return;
            }
            g.insert(id, Entry { line: line.to_string(), replicas, assigned: None, attempt: 0 });
        }
        // relaxed-ok: monotonic stat counter; nothing synchronizes
        // through it.
        self.shared.stats.routed.fetch_add(1, Ordering::Relaxed);
        self.dispatch(id, None);
    }

    /// (Re-)dispatches entry `id` to the next live replica. `expect`
    /// guards sweep-driven re-dispatch: when set, the entry must still
    /// be assigned to that shard, or another path already moved it and
    /// this call is a no-op (prevents double-advancing the attempt
    /// cursor when two sweeps race).
    fn dispatch(self: &Arc<Self>, id: u64, expect: Option<usize>) {
        let picked = {
            let mut g = self.lock_ledger();
            let Some(entry) = g.get_mut(&id) else { return };
            if let Some(exp) = expect {
                if entry.assigned != Some(exp) {
                    return;
                }
            }
            let mut choice = None;
            while entry.attempt < entry.replicas.len() {
                let candidate = entry.replicas.get(entry.attempt).copied();
                entry.attempt += 1;
                if let Some(shard) = candidate {
                    if !self.shared.board.is_down(shard) {
                        choice = Some(shard);
                        break;
                    }
                }
            }
            match choice {
                Some(shard) => {
                    entry.assigned = Some(shard);
                    Some((shard, entry.line.clone()))
                }
                None => {
                    g.remove(&id);
                    None
                }
            }
        };
        match picked {
            Some((shard, line)) => {
                if let Err(why) = self.send_upstream(shard, &line) {
                    // Hard evidence; the resulting sweep re-dispatches
                    // this entry (still assigned to `shard`). Recursion
                    // is bounded: the attempt cursor only advances.
                    self.drop_upstream(shard);
                    self.shared.on_shard_dead(shard, &why, Some(self));
                }
            }
            None => {
                // relaxed-ok: monotonic stat counter.
                self.shared.stats.no_shard.fetch_add(1, Ordering::Relaxed);
                let resp = Response::Shed { id, reason: ShedReason::NoShard };
                let _ = write_line(&self.out, &resp.to_json_line());
            }
        }
    }

    /// Re-dispatches this client's entries assigned to a dead `shard`.
    fn sweep_shard(self: &Arc<Self>, shard: usize) {
        let ids: Vec<u64> = self
            .lock_ledger()
            .iter()
            .filter(|(_, e)| e.assigned == Some(shard))
            .map(|(id, _)| *id)
            .collect();
        for id in ids {
            // relaxed-ok: monotonic stat counter.
            self.shared.stats.failovers.fetch_add(1, Ordering::Relaxed);
            self.dispatch(id, Some(shard));
        }
    }

    /// Queues `line` on the shard's upstream connection, opening it on
    /// first use.
    fn send_upstream(self: &Arc<Self>, shard: usize, line: &str) -> Result<(), String> {
        let tx = self.ensure_upstream(shard)?;
        tx.send(line.to_string()).map_err(|_| format!("upstream writer to shard {shard} gone"))
    }

    fn ensure_upstream(self: &Arc<Self>, shard: usize) -> Result<Sender<String>, String> {
        if let Some(tx) = self.lock_senders().get(&shard) {
            return Ok(tx.clone());
        }
        let addr = self
            .shared
            .shard_addrs
            .get(shard)
            .copied()
            .ok_or_else(|| format!("shard {shard} is not configured"))?;
        // Connect outside the lock: a slow or dead shard must not stall
        // dispatch to the others.
        let stream = TcpStream::connect_timeout(&addr, UPSTREAM_CONNECT_TIMEOUT)
            .map_err(|e| format!("connect shard {shard} at {addr}: {e}"))?;
        no_delay(&stream);
        let write_half = stream.try_clone().map_err(|e| format!("clone shard {shard}: {e}"))?;
        let (tx, rx) = channel::<String>();
        {
            let mut senders = self.lock_senders();
            if let Some(existing) = senders.get(&shard) {
                // Lost a connect race; use the winner, drop our socket.
                return Ok(existing.clone());
            }
            senders.insert(shard, tx.clone());
        }
        if let Ok(clone) = stream.try_clone() {
            self.lock_streams().insert(shard, clone);
        }
        let ctx = Arc::clone(self);
        std::thread::spawn(move || {
            let mut out = BufWriter::new(write_half);
            for line in rx {
                let sent = out
                    .write_all(line.as_bytes())
                    .and_then(|()| out.write_all(b"\n"))
                    .and_then(|()| out.flush());
                if let Err(e) = sent {
                    ctx.drop_upstream(shard);
                    ctx.shared.on_shard_dead(shard, &format!("write: {e}"), Some(&ctx));
                    return;
                }
            }
        });
        let ctx = Arc::clone(self);
        std::thread::spawn(move || {
            for line in BufReader::new(stream).lines() {
                match line {
                    Ok(line) if !line.trim().is_empty() => ctx.handle_upstream_line(shard, &line),
                    Ok(_) => {}
                    Err(_) => break,
                }
            }
            // EOF or read error: if the client is simply gone the
            // ledger is empty and the sweep is a no-op; otherwise this
            // is the shard dying mid-stream with responses still owed.
            ctx.drop_upstream(shard);
            if !ctx.lock_ledger().is_empty() {
                ctx.shared.on_shard_dead(shard, "connection closed", Some(&ctx));
            }
        });
        Ok(tx)
    }

    /// Forgets the upstream connection to `shard` so the next dispatch
    /// (e.g. after a probe brings the shard back UP) reconnects.
    fn drop_upstream(&self, shard: usize) {
        self.lock_senders().remove(&shard);
        if let Some(stream) = self.lock_streams().remove(&shard) {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
    }

    /// Client hung up: shut every upstream socket so the reader and
    /// writer threads holding this context exit promptly.
    fn close_upstreams(&self) {
        self.lock_senders().clear();
        let streams = std::mem::take(&mut *self.lock_streams());
        for stream in streams.into_values() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
    }

    /// One response line arrived from `shard`.
    fn handle_upstream_line(self: &Arc<Self>, shard: usize, line: &str) {
        let id = match Response::parse(line) {
            // `shed:shutting_down` means the shard is draining and will
            // never serve this request — that is the router's signal to
            // fail over, not the client's to give up.
            Ok(Response::Shed { id, reason: ShedReason::ShuttingDown }) => {
                let owned = self.lock_ledger().get(&id).is_some_and(|e| e.assigned == Some(shard));
                if owned {
                    // relaxed-ok: monotonic stat counter.
                    self.shared.stats.failovers.fetch_add(1, Ordering::Relaxed);
                    self.dispatch(id, Some(shard));
                } else {
                    // relaxed-ok: monotonic stat counter.
                    self.shared.stats.stale_drops.fetch_add(1, Ordering::Relaxed);
                }
                return;
            }
            Ok(Response::MalformedId { .. }) | Err(_) => {
                // No trustworthy id to correlate on: nothing to claim.
                // relaxed-ok: monotonic stat counter.
                self.shared.stats.stale_drops.fetch_add(1, Ordering::Relaxed);
                return;
            }
            // v2 progress frames forward verbatim *without* claiming:
            // the ledger entry stays live until the terminal `done`
            // frame (which takes the claim path below), so failover
            // still covers a stream the shard dies in the middle of.
            Ok(Response::LayerResult { id, .. }) => {
                let owned = self.lock_ledger().get(&id).is_some_and(|e| e.assigned == Some(shard));
                if owned {
                    let _ = write_line(&self.out, line);
                } else {
                    // relaxed-ok: monotonic stat counter.
                    self.shared.stats.stale_drops.fetch_add(1, Ordering::Relaxed);
                }
                return;
            }
            Ok(resp) => resp.id(),
        };
        // The claim: remove the entry iff it is still assigned to the
        // responding shard. Whoever removes it owns the single answer.
        let claimed = {
            let mut g = self.lock_ledger();
            if g.get(&id).is_some_and(|e| e.assigned == Some(shard)) {
                g.remove(&id);
                true
            } else {
                false
            }
        };
        if claimed {
            // relaxed-ok: monotonic stat counter.
            self.shared.stats.answered.fetch_add(1, Ordering::Relaxed);
            // Forwarded verbatim: the router never re-renders response
            // bytes, so digests match the single-shard path exactly.
            let _ = write_line(&self.out, line);
        } else {
            // relaxed-ok: monotonic stat counter.
            self.shared.stats.stale_drops.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Accept-loop control, mirroring the shard server's.
struct RouterCtl {
    draining: AtomicBool,
    once: bool,
    addr: SocketAddr,
}

/// A bound, not-yet-serving router.
pub struct Router {
    listener: TcpListener,
    shared: Arc<Shared>,
    cfg: RouterConfig,
}

impl Router {
    /// Binds the client-facing listener and resolves every shard
    /// address. Health starts optimistic (all shards UP); the prober
    /// corrects it within a couple of rounds.
    ///
    /// # Errors
    ///
    /// Rejects an empty shard list and propagates bind/resolve
    /// failures.
    pub fn bind(listen: &str, cfg: RouterConfig) -> std::io::Result<Router> {
        if cfg.shards.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a router needs at least one --shard address",
            ));
        }
        let mut shard_addrs = Vec::with_capacity(cfg.shards.len());
        for spec in &cfg.shards {
            let addr = spec.to_socket_addrs()?.next().ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("shard address '{spec}' resolves to nothing"),
                )
            })?;
            shard_addrs.push(addr);
        }
        let listener = TcpListener::bind(listen)?;
        let shared = Arc::new(Shared {
            ring: HashRing::new(shard_addrs.len(), cfg.replicas, cfg.vnodes),
            board: HealthBoard::new(shard_addrs.len()),
            stats: RouterStats::default(),
            shard_addrs,
            clients: Mutex::new(BTreeMap::new()),
        });
        Ok(Router { listener, shared, cfg })
    }

    /// The bound client-facing address (useful with port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves forever; `{"ctl": "drain"}` is refused.
    ///
    /// # Errors
    ///
    /// Propagates a fatal accept failure.
    pub fn run(self) -> std::io::Result<()> {
        self.serve(false)
    }

    /// Serves until a `{"ctl": "drain"}` arrives; the drain is
    /// propagated to every shard (best effort) before the router stops
    /// accepting — one control request winds the whole cluster down.
    ///
    /// # Errors
    ///
    /// Propagates a fatal accept failure.
    pub fn run_once(self) -> std::io::Result<()> {
        self.serve(true)
    }

    fn serve(self, once: bool) -> std::io::Result<()> {
        let ctl = Arc::new(RouterCtl {
            draining: AtomicBool::new(false),
            once,
            addr: self.local_addr()?,
        });
        let prober = spawn_prober(Arc::clone(&self.shared), Arc::clone(&ctl), self.cfg.probe);
        let max_connections = self.cfg.max_connections.max(1) as u64;
        let mut handles: Vec<JoinHandle<()>> = Vec::new();
        let mut conn_serial: u64 = 0;
        for stream in self.listener.incoming() {
            if ctl.draining.load(Ordering::SeqCst) {
                break;
            }
            let stream = stream?;
            no_delay(&stream);
            let mut live_handles = Vec::with_capacity(handles.len());
            for h in handles {
                if h.is_finished() {
                    let _ = h.join();
                } else {
                    live_handles.push(h);
                }
            }
            handles = live_handles;

            // relaxed-ok: admission gauge; only this accept thread
            // enforces the cap, handlers only decrement.
            let live = self.shared.stats.live_connections.load(Ordering::Relaxed);
            if live >= max_connections {
                // relaxed-ok: monotonic stat counter.
                self.shared.stats.connections_shed.fetch_add(1, Ordering::Relaxed);
                let mut stream = stream;
                let line = Response::Shed { id: 0, reason: ShedReason::Overloaded }.to_json_line();
                let _ = stream.write_all(line.as_bytes());
                let _ = stream.write_all(b"\n");
                continue;
            }
            // relaxed-ok: admission gauge (see the load above).
            self.shared.stats.live_connections.fetch_add(1, Ordering::Relaxed);
            conn_serial += 1;
            let serial = conn_serial;
            let shared = Arc::clone(&self.shared);
            let ctl = Arc::clone(&ctl);
            handles.push(std::thread::spawn(move || {
                let peer = stream
                    .peer_addr()
                    .map(|a| a.to_string())
                    .unwrap_or_else(|_| "<unknown>".to_string());
                if let Err(e) = handle_client(stream, serial, &shared, &ctl) {
                    eprintln!("pra-router: connection {peer}: {e}");
                }
                // relaxed-ok: admission gauge (see the load above).
                shared.stats.live_connections.fetch_sub(1, Ordering::Relaxed);
            }));
        }
        for h in handles {
            let _ = h.join();
        }
        ctl.draining.store(true, Ordering::SeqCst);
        let _ = prober.join();
        Ok(())
    }
}

/// Turns off Nagle's algorithm on a data-path socket (the accepted
/// client side and each shard upstream): the router relays v2 frames a
/// line at a time, and a small write held back until the peer's delayed
/// ACK (~40 ms) would pace every frame after the first. Best effort —
/// a socket that refuses still works, only slower.
fn no_delay(stream: &TcpStream) {
    let _ = stream.set_nodelay(true);
}

/// The prober thread: one probe round per interval (plus seeded
/// jitter), walking every shard. A fresh DOWN transition sweeps the
/// ledgers exactly like a data-path failure would.
fn spawn_prober(shared: Arc<Shared>, ctl: Arc<RouterCtl>, probe: ProbeConfig) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let mut round: u64 = 0;
        while !ctl.draining.load(Ordering::SeqCst) {
            std::thread::sleep(probe.interval + probe_jitter(probe.seed, round, probe.interval));
            round += 1;
            for (shard, addr) in shared.shard_addrs.iter().enumerate() {
                if ctl.draining.load(Ordering::SeqCst) {
                    return;
                }
                match probe_once(addr, probe.deadline) {
                    Ok(snap) => {
                        if shared.board.mark_probe_ok(shard, snap.epoch) {
                            // relaxed-ok: monotonic stat counter.
                            shared.stats.restarts_seen.fetch_add(1, Ordering::Relaxed);
                            eprintln!("pra-router: shard {shard} restarted (epoch {})", snap.epoch);
                        }
                    }
                    Err(why) => {
                        if shared.board.mark_probe_failed(shard) {
                            eprintln!("pra-router: shard {shard} down (probes): {why}");
                            shared.sweep_all(shard);
                        }
                    }
                }
            }
        }
    })
}

/// Propagates a drain to every shard, best effort: a shard that is
/// already dead is skipped with a log line (it has nothing to drain).
fn propagate_drain(shared: &Shared) {
    for (shard, addr) in shared.shard_addrs.iter().enumerate() {
        if let Err(why) = drain_one(addr) {
            eprintln!("pra-router: drain of shard {shard} failed: {why}");
        }
    }
}

fn drain_one(addr: &SocketAddr) -> Result<(), String> {
    let stream = TcpStream::connect_timeout(addr, UPSTREAM_CONNECT_TIMEOUT)
        .map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(UPSTREAM_CONNECT_TIMEOUT))
        .map_err(|e| format!("deadline: {e}"))?;
    let mut out = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    out.write_all((ControlRequest::Drain.to_json_line() + "\n").as_bytes())
        .and_then(|()| out.flush())
        .map_err(|e| format!("send: {e}"))?;
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).map_err(|e| format!("read: {e}"))?;
    Ok(())
}

/// Serves one client connection.
fn handle_client(
    stream: TcpStream,
    serial: u64,
    shared: &Arc<Shared>,
    ctl: &Arc<RouterCtl>,
) -> std::io::Result<()> {
    let out: SharedWriter = Arc::new(Mutex::new(BufWriter::new(stream.try_clone()?)));
    let ctx = Arc::new(ClientCtx::new(Arc::clone(&out), Arc::clone(shared)));
    shared.lock_clients().insert(serial, Arc::clone(&ctx));

    let result = client_read_loop(stream, &ctx, shared, ctl);

    shared.lock_clients().remove(&serial);
    // Entries left in the ledger belong to a client that hung up; the
    // upstream shutdown below also stops their responses from arriving.
    ctx.lock_ledger().clear();
    ctx.close_upstreams();
    result
}

fn client_read_loop(
    stream: TcpStream,
    ctx: &Arc<ClientCtx>,
    shared: &Arc<Shared>,
    ctl: &Arc<RouterCtl>,
) -> std::io::Result<()> {
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        if let Some(ctl_req) = ControlRequest::parse(&line) {
            let reply = match ctl_req {
                ControlRequest::Stats => shared.stats.to_json_line(&shared.board),
                ControlRequest::Drain if ctl.once => {
                    // One drain winds the whole cluster down: shards
                    // first (they answer their queues and exit), then
                    // this router's accept loop.
                    propagate_drain(shared);
                    let reply = shared.stats.to_json_line(&shared.board);
                    ctl.draining.store(true, Ordering::SeqCst);
                    // Wake the blocking accept so it observes the flag.
                    let _ = TcpStream::connect(ctl.addr);
                    reply
                }
                ControlRequest::Drain => Response::Error {
                    id: 0,
                    message: "drain refused: router is not running in --once mode".to_string(),
                }
                .to_json_line(),
            };
            write_line(&ctx.out, &reply)?;
            continue;
        }
        match Request::parse(&line) {
            Ok(req) => ctx.admit(&req, &line),
            // Mirror the shard server's rejection shapes so a client
            // cannot tell a router from a bare shard on the error path.
            Err(e) => {
                let resp = match request_id(&line) {
                    Ok(id) => Response::Error { id, message: e.to_string() },
                    Err(_) => Response::MalformedId {
                        raw_id: raw_id_token(&line).unwrap_or_else(|| "<missing>".to_string()),
                        message: e.to_string(),
                    },
                };
                write_line(&ctx.out, &resp.to_json_line())?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_path_sockets_are_nodelay() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream =
            TcpStream::connect_timeout(&listener.local_addr().unwrap(), UPSTREAM_CONNECT_TIMEOUT)
                .unwrap();
        let (accepted, _) = listener.accept().unwrap();
        for stream in [&upstream, &accepted] {
            assert!(!stream.nodelay().unwrap(), "sockets start with Nagle's algorithm on");
            no_delay(stream);
            assert!(stream.nodelay().unwrap(), "relayed frames must not wait for a delayed ACK");
        }
    }

    #[test]
    fn bind_rejects_an_empty_shard_list() {
        let err = match Router::bind("127.0.0.1:0", RouterConfig::default()) {
            Ok(_) => panic!("an empty shard list must be rejected"),
            Err(e) => e,
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn bind_resolves_shards_and_reports_its_address() {
        let cfg = RouterConfig {
            shards: vec!["127.0.0.1:19331".to_string(), "127.0.0.1:19332".to_string()],
            ..RouterConfig::default()
        };
        let router = Router::bind("127.0.0.1:0", cfg).expect("bind");
        assert_ne!(router.local_addr().expect("addr").port(), 0);
        assert_eq!(router.shared.ring.shards(), 2);
        assert_eq!(router.shared.board.len(), 2);
    }

    #[test]
    fn stats_line_carries_health_counts() {
        let stats = RouterStats::default();
        stats.routed.store(5, Ordering::Relaxed);
        stats.no_shard.store(2, Ordering::Relaxed);
        let board = HealthBoard::new(3);
        board.mark_down(2);
        let line = stats.to_json_line(&board);
        assert!(line.contains("\"status\": \"router_stats\""), "{line}");
        assert!(line.contains("\"shards\": 3"), "{line}");
        assert!(line.contains("\"up\": 2"), "{line}");
        assert!(line.contains("\"down\": 1"), "{line}");
        assert!(line.contains("\"routed\": 5"), "{line}");
        assert!(line.contains("\"no_shard\": 2"), "{line}");
    }
}
