//! The TCP front end: JSON-lines over plain nonblocking `std::net`
//! sockets, driven by a single event loop.
//!
//! No async runtime and no network dependency — consistent with the
//! workspace's offline-shims constraint. Instead of the original
//! two-threads-per-connection design, one thread owns the listener and
//! every connection, and each loop tick pumps three directions per
//! connection:
//!
//! 1. **responses** — each connection holds the receiving half of its
//!    response channel; worker threads send [`Response`]s (including
//!    v2 `layer_result` frames) as batches progress, and the loop
//!    drains them into the connection's output queue without blocking;
//! 2. **writes** — queued lines move through a per-connection write
//!    buffer; a congested client gets `WouldBlock` and simply resumes
//!    next tick, so one slow reader cannot stall the other
//!    connections (the chaos `sock-stall` site is the deliberate
//!    exception: it stalls the whole loop, modeling a scheduler-level
//!    hiccup rather than one socket's congestion);
//! 3. **reads** — raw bytes accumulate in a per-connection buffer and
//!    every complete line is parsed and dispatched: requests are
//!    submitted to the [`SimService`] (backpressure is the admission
//!    queue's job — a full queue answers `shed` immediately), control
//!    requests are answered inline, malformed lines get typed error
//!    responses.
//!
//! The accept pump is bounded: past [`ServeConfig::max_connections`]
//! live connections, a new connection gets one `shed:overloaded` line
//! and a clean close. A connection closes once it reaches EOF with no
//! responses still owed and nothing left to flush — exactly the
//! one-answer-per-request discipline the registry enforces, carried
//! through to the socket.
//!
//! Control requests ride the same wire: `{"ctl": "stats"}` answers a
//! [`StatsSnapshot`] line on any server; `{"ctl": "drain"}` stops the
//! accept pump and drains the service, but only on a server started
//! with [`Server::run_once`] (`pra serve --once`) — an always-on server
//! refuses it with an error line, so a stray client cannot take the
//! service down.
//!
//! [`StatsSnapshot`]: crate::protocol::StatsSnapshot

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

use crate::codec::{raw_id_token, request_id};
use crate::protocol::{ControlRequest, Request, Response, ShedReason};
use crate::queue::ServeConfig;
use crate::service::SimService;

/// Idle back-off between event-loop ticks that made no progress: long
/// enough to keep an idle server invisible in profiles, short enough
/// that first-frame latency stays far below a layer's simulation time.
const IDLE_SLEEP: Duration = Duration::from_micros(500);

/// Read chunk size for the per-connection receive buffer.
const READ_CHUNK: usize = 4096;

/// A bound, not-yet-serving TCP front end.
pub struct Server {
    listener: TcpListener,
    svc: Arc<SimService>,
}

/// Per-connection state owned by the event loop.
struct Conn {
    stream: TcpStream,
    peer: String,
    /// Raw received bytes not yet forming a complete line.
    rbuf: Vec<u8>,
    /// The receiving half worker threads answer into.
    rx: Receiver<Response>,
    /// The sending half cloned into every submission.
    tx: Sender<Response>,
    /// Rendered lines awaiting the write pump.
    outq: VecDeque<String>,
    /// The partially written current line (socket gave `WouldBlock`).
    wbuf: Vec<u8>,
    /// Requests admitted but not yet terminally answered. v2
    /// `layer_result` frames do not decrement this — only terminals do.
    in_flight: usize,
    /// The client half-closed; drain what is owed, then close.
    eof: bool,
    /// Fatal per-connection error; reported and reaped next tick.
    dead: Option<String>,
}

impl Conn {
    /// Whether every owed byte has been delivered and the client is
    /// done sending: the graceful-close condition.
    fn drained(&self) -> bool {
        self.eof && self.in_flight == 0 && self.outq.is_empty() && self.wbuf.is_empty()
    }
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:9100`; port 0 picks a free port)
    /// and starts the worker pool, but does not accept yet.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: &str, cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let svc = Arc::new(SimService::start(cfg));
        Ok(Server { listener, svc })
    }

    /// The bound address (useful with port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The underlying service (stats, config).
    pub fn service(&self) -> &Arc<SimService> {
        &self.svc
    }

    /// Serves connections forever (until the process exits or the
    /// listener errors fatally). `{"ctl": "drain"}` is refused.
    ///
    /// # Errors
    ///
    /// Propagates a fatal accept failure; per-connection I/O errors
    /// only end that connection.
    pub fn run(self) -> std::io::Result<()> {
        self.serve(false)
    }

    /// Like [`Server::run`], but honors `{"ctl": "drain"}`: on drain
    /// the accept pump stops, open connections finish, the service
    /// drains its queue, and this returns — the `pra serve --once`
    /// mode CI scripts use for a start-load-stop cycle.
    ///
    /// # Errors
    ///
    /// Propagates a fatal accept failure; per-connection I/O errors
    /// only end that connection.
    pub fn run_once(self) -> std::io::Result<()> {
        self.serve(true)
    }

    /// The event loop: accept, then pump responses → writes → reads on
    /// every connection, reap finished ones, sleep briefly when a tick
    /// was entirely idle.
    fn serve(self, once: bool) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let max_connections = self.svc.config().max_connections.max(1) as u64;
        let mut conns: Vec<Conn> = Vec::new();
        let mut draining = false;
        loop {
            let mut progressed = false;
            if !draining {
                progressed |= self.accept_pump(max_connections, &mut conns)?;
            }

            let mut kill = false;
            for c in &mut conns {
                progressed |= pump_responses(c);
                progressed |= pump_writes(c);
                if c.dead.is_none() && !c.eof {
                    let (p, k) = pump_reads(c, &self.svc, once, &mut draining);
                    progressed |= p;
                    kill |= k;
                }
                // A request or control line may have queued output:
                // flush it this tick instead of waiting for the next.
                progressed |= pump_writes(c);
            }
            if kill {
                // Abrupt shard death (the chaos `shard-kill` site):
                // stop accepting and sever every live connection
                // mid-stream — clients see an EOF/reset with responses
                // still owed, which is exactly the signal the router's
                // failover turns into a re-issue on the fallback
                // shard. The service queue was already aborted.
                draining = true;
                for c in &mut conns {
                    if c.dead.is_none() {
                        c.dead = Some("severed: injected shard kill".to_string());
                    }
                }
            }

            conns.retain_mut(|c| {
                let done = match &c.dead {
                    Some(msg) => {
                        eprintln!("pra-serve: connection {}: {msg}", c.peer);
                        true
                    }
                    None => c.drained(),
                };
                if done {
                    let _ = c.stream.shutdown(std::net::Shutdown::Both);
                    // relaxed-ok: admission gauge; only this loop
                    // thread mutates it.
                    self.svc.stats().live_connections.fetch_sub(1, Ordering::Relaxed);
                }
                !done
            });

            if draining && conns.is_empty() {
                break;
            }
            if !progressed {
                std::thread::sleep(IDLE_SLEEP);
            }
        }
        // Draining and every connection closed: drain the queue so
        // every admitted request was answered before this returns.
        self.svc.begin_shutdown();
        match Arc::try_unwrap(self.svc) {
            Ok(svc) => svc.shutdown(),
            // A caller still holds the service (stats inspection); the
            // queue is closed, so workers drain and join on its drop.
            Err(_svc) => {}
        }
        Ok(())
    }

    /// Accepts every connection the backlog holds. Past the
    /// live-connection cap a connection gets one `shed:overloaded`
    /// line and a drop (the fresh socket is still blocking, so the
    /// single small write goes out before the close).
    fn accept_pump(&self, max_connections: u64, conns: &mut Vec<Conn>) -> std::io::Result<bool> {
        let mut progressed = false;
        loop {
            match self.listener.accept() {
                Ok((mut stream, peer)) => {
                    progressed = true;
                    // relaxed-ok: admission gauge; only this loop
                    // thread mutates it.
                    let live = self.svc.stats().live_connections.load(Ordering::Relaxed);
                    if live >= max_connections {
                        // relaxed-ok: monotonic stat counter; nothing
                        // synchronizes through it.
                        self.svc.stats().connections_shed.fetch_add(1, Ordering::Relaxed);
                        let line =
                            Response::Shed { id: 0, reason: ShedReason::Overloaded }.to_json_line();
                        let _ = stream.write_all(line.as_bytes());
                        let _ = stream.write_all(b"\n");
                        continue; // dropping the stream closes it
                    }
                    if prepare_socket(&stream).is_err() {
                        // A socket the loop cannot set up is not
                        // servable; drop it.
                        continue;
                    }
                    // relaxed-ok: admission gauge (see the load above).
                    self.svc.stats().live_connections.fetch_add(1, Ordering::Relaxed);
                    let (tx, rx) = channel();
                    conns.push(Conn {
                        stream,
                        peer: peer.to_string(),
                        rbuf: Vec::new(),
                        rx,
                        tx,
                        outq: VecDeque::new(),
                        wbuf: Vec::new(),
                        in_flight: 0,
                        eof: false,
                        dead: None,
                    });
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(progressed)
    }
}

/// Readies an accepted socket for the event loop: nonblocking, so the
/// loop never parks on one connection, and `TCP_NODELAY`, so each v2
/// frame leaves at once — with Nagle's algorithm on, a small write
/// waits while an earlier one is unacknowledged, and the client's
/// delayed ACK (~40 ms) then paces every frame after the first.
fn prepare_socket(stream: &TcpStream) -> std::io::Result<()> {
    stream.set_nonblocking(true)?;
    stream.set_nodelay(true)
}

/// Drains the connection's response channel into its output queue.
/// Terminal responses settle the in-flight count; v2 `layer_result`
/// frames pass straight through — streaming is why this pump exists.
fn pump_responses(c: &mut Conn) -> bool {
    let mut progressed = false;
    // Disconnected is unreachable (the conn holds a sender); either
    // way an Err means nothing more to drain this tick.
    while let Ok(resp) = c.rx.try_recv() {
        progressed = true;
        if resp.is_terminal() {
            c.in_flight = c.in_flight.saturating_sub(1);
        }
        c.outq.push_back(resp.to_json_line());
    }
    progressed
}

/// Moves queued lines through the write buffer onto the socket,
/// stopping cleanly on `WouldBlock`. The chaos `sock-stall` /
/// `sock-write-err` sites model a congested or failing client link and
/// fire once per line, as the line enters the write buffer.
fn pump_writes(c: &mut Conn) -> bool {
    let mut progressed = false;
    while c.dead.is_none() && !(c.wbuf.is_empty() && c.outq.is_empty()) {
        if c.wbuf.is_empty() {
            let Some(line) = c.outq.pop_front() else {
                break;
            };
            pra_chaos::stall(pra_chaos::Site::SockStall);
            if pra_chaos::fires(pra_chaos::Site::SockWriteErr) {
                c.dead =
                    Some("chaos: injected socket write error (site sock-write-err)".to_string());
                break;
            }
            c.wbuf.extend_from_slice(line.as_bytes());
            c.wbuf.push(b'\n');
        }
        match c.stream.write(&c.wbuf) {
            Ok(0) => {
                c.dead = Some("socket accepted no bytes".to_string());
                break;
            }
            Ok(n) => {
                progressed = true;
                c.wbuf.drain(..n);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => {
                c.dead = Some(e.to_string());
                break;
            }
        }
    }
    progressed
}

/// Reads whatever the socket holds, then dispatches every complete
/// line. Returns `(made_progress, shard_kill_fired)`; the caller
/// severs the other connections on a shard kill.
fn pump_reads(
    c: &mut Conn,
    svc: &Arc<SimService>,
    once: bool,
    draining: &mut bool,
) -> (bool, bool) {
    let mut progressed = false;
    let mut buf = [0u8; READ_CHUNK];
    loop {
        match c.stream.read(&mut buf) {
            Ok(0) => {
                progressed = true;
                c.eof = true;
                break;
            }
            Ok(n) => {
                progressed = true;
                if let Some(chunk) = buf.get(..n) {
                    c.rbuf.extend_from_slice(chunk);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => {
                c.dead = Some(e.to_string());
                return (true, false);
            }
        }
    }
    while let Some(pos) = c.rbuf.iter().position(|&b| b == b'\n') {
        progressed = true;
        let mut raw: Vec<u8> = c.rbuf.drain(..=pos).collect();
        raw.pop(); // the '\n' terminator itself
        let line = String::from_utf8_lossy(&raw);
        let line = line.strip_suffix('\r').unwrap_or(&line);
        if pra_chaos::fires(pra_chaos::Site::SockReadErr) {
            c.dead = Some("chaos: injected socket read error (site sock-read-err)".to_string());
            return (true, false);
        }
        if pra_chaos::fires(pra_chaos::Site::ShardKill) {
            // Discard queued work unanswered: the clients' connections
            // are about to be severed, so answers would go nowhere.
            svc.abort();
            c.dead = Some("chaos: injected shard kill (site shard-kill)".to_string());
            return (true, true);
        }
        if line.trim().is_empty() {
            continue;
        }
        if let Some(ctl_req) = ControlRequest::parse(line) {
            let reply = match ctl_req {
                ControlRequest::Stats => svc.stats().snapshot().to_json_line(),
                ControlRequest::Drain if once => {
                    *draining = true;
                    svc.stats().snapshot().to_json_line()
                }
                ControlRequest::Drain => Response::Error {
                    id: 0,
                    message: "drain refused: server is not running in --once mode".to_string(),
                }
                .to_json_line(),
            };
            c.outq.push_back(reply);
            continue;
        }
        let resp = match Request::parse(line) {
            Ok(req) => {
                let id = req.id;
                match svc.submit(req, c.tx.clone()) {
                    Ok(()) => {
                        c.in_flight += 1;
                        continue;
                    }
                    Err(reason) => Response::Shed { id, reason },
                }
            }
            // A rejected line answers on its own id when one parses;
            // otherwise the raw id text is echoed back as a string
            // (`Response::MalformedId`) so two concurrent malformed
            // lines can never collide on a fabricated id 0.
            Err(e) => match request_id(line) {
                Ok(id) => Response::Error { id, message: e.to_string() },
                Err(_) => Response::MalformedId {
                    raw_id: raw_id_token(line).unwrap_or_else(|| "<missing>".to_string()),
                    message: e.to_string(),
                },
            },
        };
        c.outq.push_back(resp.to_json_line());
    }
    (progressed, false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepted_sockets_are_nonblocking_and_nodelay() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        assert!(!accepted.nodelay().unwrap(), "sockets start with Nagle's algorithm on");
        prepare_socket(&accepted).unwrap();
        assert!(accepted.nodelay().unwrap(), "frames must not wait for a delayed ACK");
        let mut buf = [0u8; 1];
        let err = (&accepted).read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::WouldBlock, "the event loop must never block on a read");
    }
}
