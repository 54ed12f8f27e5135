//! The readiness-reactor connection front (DESIGN.md §16).
//!
//! One event-loop thread owns every connection: a nonblocking listener
//! and all client sockets are registered with an [`emod_reactor::Poller`]
//! (epoll on Linux), incoming bytes are decoded into request lines by
//! [`emod_reactor::LineBuffer`], and complete requests are dispatched
//! over an mpsc channel to `EMOD_REACTOR_WORKERS` handler threads that
//! run the exact same request pipeline as the threads front
//! (`handle_request_full` — admission gate, fault probes, deadline,
//! quality scoring, access log all included). Completed responses flow
//! back through a shared completion queue, a [`emod_reactor::Waker`]
//! interrupts the poll, and the event loop writes each connection's
//! responses out **in request order** (a per-connection sequence number
//! reorders whatever the workers finished first).
//!
//! Because no thread ever parks on a connection, thousands of mostly-idle
//! clients cost one registration each instead of one blocked worker each
//! — the threads front serves at most `--workers` connections at a time,
//! this front serves all of them with the same worker count. Responses
//! are byte-identical between fronts (asserted by CI's `reactor-smoke`
//! A/B run); only scheduling, fairness, and throughput differ.
//!
//! Single-point `predict` requests additionally pass through the
//! [`crate::coalesce`] window when `EMOD_COALESCE_WINDOW_US` is set:
//! requests that resolve to the same `(base, version)` within the window
//! are evaluated as one `emod-par`-sharded batch, then each request
//! finishes its own pipeline with the precomputed value. Each connection
//! also carries a replica selector (an FNV hash of its connection id)
//! that spreads artifact-cache reads across `EMOD_MODEL_REPLICAS` shards
//! ([`crate::registry::ReplicaHint`]).

use crate::coalesce::Coalescer;
use crate::json::Json;
use crate::registry::ReplicaHint;
use crate::server::{
    coalesce_classify, coalesce_predict_values, handle_request_full, Server, ServerState,
    MAX_LINE_BYTES,
};
use crate::wire;
use emod_reactor::{Interest, LineBuffer, Poller, Token, Waker, WriteBuffer};
use emod_telemetry as telemetry;
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Environment variable sizing the reactor's handler-thread pool;
/// defaults to the server's `--workers` count.
pub const WORKERS_ENV: &str = "EMOD_REACTOR_WORKERS";

/// Poller token of the accept socket.
const LISTENER_TOKEN: Token = 0;
/// Poller token of the completion waker.
const WAKER_TOKEN: Token = 1;
/// First token handed to an accepted connection.
const FIRST_CONN_TOKEN: Token = 2;

/// Upper bound on requests one connection may have in flight before the
/// event loop stops reading from it (resumes at half). The threads front
/// gets this backpressure for free from its synchronous read loop; the
/// reactor needs it so a pipelining client cannot queue unbounded work.
const MAX_PIPELINE: u64 = 128;

/// Baseline poll timeout when no coalescing deadline is nearer.
const POLL_MS: u64 = 20;

/// How long the shutdown drain waits for in-flight requests and queued
/// response bytes before abandoning them.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// A single-predict request parked in a coalescing window.
struct Pending {
    token: Token,
    seq: u64,
    conn_id: String,
    replica: u64,
    line: String,
    raw: Vec<f64>,
    arrived: Instant,
}

/// Work dispatched to a handler thread.
enum Job {
    /// One request, the non-coalesced path.
    Single {
        token: Token,
        seq: u64,
        conn_id: String,
        replica: u64,
        line: String,
        arrived: Instant,
    },
    /// A flushed coalescing group: batch-evaluate, then run each request's
    /// pipeline with its precomputed value.
    Batch {
        base: String,
        version: u64,
        items: Vec<Pending>,
    },
}

/// A finished response headed back to the event loop.
struct Done {
    token: Token,
    seq: u64,
    /// The response line, newline included.
    bytes: Vec<u8>,
    close: bool,
}

/// Per-connection state owned by the event loop.
struct Conn {
    stream: TcpStream,
    /// The poller token this connection is registered under.
    token: Token,
    conn_id: String,
    replica: u64,
    lines: LineBuffer,
    out: WriteBuffer,
    /// Completed responses waiting for their turn ( responses are written
    /// strictly in request order even when workers finish out of order).
    ready: BTreeMap<u64, (Vec<u8>, bool)>,
    next_seq: u64,
    next_write: u64,
    inflight: u64,
    requests: u64,
    /// Peer stopped sending (EOF) — tear down once responses drain.
    eof: bool,
    /// Close after the write buffer drains (shutdown/too-large/EOF).
    closing: bool,
    /// Reading paused by the MAX_PIPELINE backpressure bound.
    paused: bool,
    /// Current registration includes writable interest.
    wants_write: bool,
}

impl Conn {
    fn new(stream: TcpStream, token: Token, conn_id: String) -> Conn {
        let replica = fnv1a(conn_id.as_bytes());
        Conn {
            stream,
            token,
            conn_id,
            replica,
            lines: LineBuffer::new(MAX_LINE_BYTES as usize),
            out: WriteBuffer::new(),
            ready: BTreeMap::new(),
            next_seq: 0,
            next_write: 0,
            inflight: 0,
            requests: 0,
            eof: false,
            closing: false,
            paused: false,
            wants_write: false,
        }
    }

    fn interest(&self) -> Interest {
        Interest {
            readable: !self.paused && !self.eof,
            writable: self.wants_write,
        }
    }
}

/// 64-bit FNV-1a — the connection-id hash that picks a cache replica.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn workers_from_env(default: usize) -> usize {
    std::env::var(WORKERS_ENV)
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
        .max(1)
}

/// Runs one job on a handler thread, returning the completions to post.
fn run_job(state: &ServerState, job: Job) -> Vec<Done> {
    match job {
        Job::Single {
            token,
            seq,
            conn_id,
            replica,
            line,
            arrived,
        } => {
            let queue_wait_ms = arrived.elapsed().as_secs_f64() * 1e3;
            telemetry::observe("serve.queue_wait_ms", queue_wait_ms);
            let _replica = ReplicaHint::select(replica);
            let (resp, close) =
                handle_request_full(state, &conn_id, &line, queue_wait_ms, arrived, None);
            vec![Done {
                token,
                seq,
                bytes: response_bytes(&resp),
                close,
            }]
        }
        Job::Batch {
            base,
            version,
            items,
        } => {
            let raws: Vec<Vec<f64>> = items.iter().map(|p| p.raw.clone()).collect();
            // One sharded evaluation for the whole group; a load failure
            // degrades to per-request dispatch (the pipeline reports it).
            let values = coalesce_predict_values(state, &base, version, &raws);
            items
                .into_iter()
                .enumerate()
                .map(|(i, p)| {
                    let queue_wait_ms = p.arrived.elapsed().as_secs_f64() * 1e3;
                    telemetry::observe("serve.queue_wait_ms", queue_wait_ms);
                    let precomputed = values.as_ref().map(|v| (version, v[i]));
                    let _replica = ReplicaHint::select(p.replica);
                    let (resp, close) = handle_request_full(
                        state,
                        &p.conn_id,
                        &p.line,
                        queue_wait_ms,
                        p.arrived,
                        precomputed,
                    );
                    Done {
                        token: p.token,
                        seq: p.seq,
                        bytes: response_bytes(&resp),
                        close,
                    }
                })
                .collect()
        }
    }
}

fn response_bytes(resp: &Json) -> Vec<u8> {
    let mut bytes = resp.to_string().into_bytes();
    bytes.push(b'\n');
    bytes
}

fn worker_loop(
    rx: &Arc<Mutex<mpsc::Receiver<Job>>>,
    state: &ServerState,
    done: &Arc<Mutex<Vec<Done>>>,
    waker: &Waker,
) {
    loop {
        let next = {
            let guard = telemetry::lock_or_recover(rx);
            guard.recv_timeout(Duration::from_millis(100))
        };
        match next {
            Ok(job) => {
                let finished = run_job(state, job);
                telemetry::lock_or_recover(done).extend(finished);
                waker.wake();
            }
            // Unlike the threads front, a drain keeps consuming: queued
            // jobs still get their refusal responses. Workers exit when
            // the event loop drops the sender.
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Sends a flushed coalescing group to the workers.
fn send_flush(tx: &mpsc::Sender<Job>, flush: crate::coalesce::Flush<Pending>) {
    let _ = tx.send(Job::Batch {
        base: flush.base,
        version: flush.version,
        items: flush.items,
    });
}

/// Classifies and dispatches one complete request line.
fn dispatch_line(
    state: &ServerState,
    coalescer: &mut Option<Coalescer<Pending>>,
    tx: &mpsc::Sender<Job>,
    conn: &mut Conn,
    line: String,
    now: Instant,
) {
    let seq = conn.next_seq;
    conn.next_seq += 1;
    conn.inflight += 1;
    conn.requests += 1;
    if let Some(c) = coalescer {
        let _replica = ReplicaHint::select(conn.replica);
        if let Ok(parsed) = Json::parse(&line) {
            if let Some(target) = coalesce_classify(state, &parsed) {
                let item = Pending {
                    token: conn.token,
                    seq,
                    conn_id: conn.conn_id.clone(),
                    replica: conn.replica,
                    line,
                    raw: target.raw,
                    arrived: now,
                };
                if let Some(full) = c.offer(target.base, target.version, item, now) {
                    send_flush(tx, full);
                }
                return;
            }
        }
    }
    let _ = tx.send(Job::Single {
        token: conn.token,
        seq,
        conn_id: conn.conn_id.clone(),
        replica: conn.replica,
        line,
        arrived: now,
    });
}

/// Reads whatever the socket holds (bounded per wakeup), extracts
/// complete lines, and dispatches them. Returns `false` when the
/// connection died mid-read.
fn read_and_dispatch(
    state: &ServerState,
    poller: &mut impl Poller,
    coalescer: &mut Option<Coalescer<Pending>>,
    tx: &mpsc::Sender<Job>,
    conn: &mut Conn,
) -> bool {
    // Bound bytes consumed per wakeup: level-triggered polling re-reports
    // a still-readable socket, so fairness across connections costs
    // nothing but another loop iteration.
    let mut budget: usize = 256 * 1024;
    while budget > 0 && !conn.eof {
        match conn.lines.fill_from(&mut conn.stream) {
            Ok(0) => conn.eof = true,
            Ok(n) => budget = budget.saturating_sub(n),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    extract_lines(state, poller, coalescer, tx, conn)
}

/// Pulls complete lines out of the connection's read buffer, honoring the
/// pipeline bound. Also called on unpause (buffered lines, no new bytes).
fn extract_lines(
    state: &ServerState,
    poller: &mut impl Poller,
    coalescer: &mut Option<Coalescer<Pending>>,
    tx: &mpsc::Sender<Job>,
    conn: &mut Conn,
) -> bool {
    loop {
        if conn.closing {
            return true;
        }
        if conn.inflight >= MAX_PIPELINE {
            if !conn.paused {
                conn.paused = true;
                let _ = poller.reregister(conn.stream.as_raw_fd(), conn.token, conn.interest());
            }
            return true;
        }
        match conn.lines.next_line() {
            Ok(Some(line)) => {
                let request = String::from_utf8_lossy(&line).trim().to_string();
                if request.is_empty() {
                    continue;
                }
                dispatch_line(state, coalescer, tx, conn, request, Instant::now());
            }
            Ok(None) => return true,
            Err(emod_reactor::LineError::TooLong { buffered }) => {
                // Same reply and telemetry as the threads front, then the
                // connection closes once the response is written.
                telemetry::counter_add("serve.requests.too_large", 1);
                telemetry::event(
                    "serve",
                    "request_too_large",
                    &[
                        ("conn", conn.conn_id.as_str().into()),
                        ("bytes", buffered.into()),
                    ],
                );
                let resp = crate::server::too_large_response();
                let seq = conn.next_seq;
                conn.next_seq += 1;
                conn.ready.insert(seq, (response_bytes(&resp), true));
                conn.eof = true;
                return true;
            }
        }
    }
}

/// Moves in-order completed responses into the write buffer and flushes
/// as much as the socket accepts. Returns `false` once the connection is
/// finished (closed cleanly or dead) and should be dropped.
fn pump_writes(poller: &mut impl Poller, conn: &mut Conn) -> bool {
    while let Some((bytes, close)) = conn.ready.remove(&conn.next_write) {
        conn.next_write += 1;
        conn.out.push(&bytes);
        if close {
            // The threads front stops reading after a closing response;
            // any later pipelined requests go unanswered there too.
            conn.closing = true;
            conn.eof = true;
            break;
        }
    }
    match conn.out.flush_to(&mut conn.stream) {
        Ok(true) => {
            if conn.wants_write {
                conn.wants_write = false;
                let _ = poller.reregister(conn.stream.as_raw_fd(), conn.token, conn.interest());
            }
            if conn.closing {
                return false;
            }
            // EOF teardown waits for every dispatched request to answer.
            !(conn.eof && conn.inflight == 0 && conn.ready.is_empty() && conn.out.is_empty())
        }
        Ok(false) => {
            if !conn.wants_write {
                conn.wants_write = true;
                let _ = poller.reregister(conn.stream.as_raw_fd(), conn.token, conn.interest());
            }
            true
        }
        Err(_) => false,
    }
}

/// Tears a connection down: deregister, drop, close-event.
fn close_conn(poller: &mut impl Poller, conns: &mut HashMap<Token, Conn>, token: Token) {
    if let Some(conn) = conns.remove(&token) {
        let _ = poller.deregister(conn.stream.as_raw_fd());
        telemetry::event(
            "serve",
            "conn_close",
            &[
                ("conn", conn.conn_id.as_str().into()),
                ("requests", conn.requests.into()),
            ],
        );
        telemetry::gauge_set("serve.reactor.connections", conns.len() as f64);
    }
}

/// Runs the reactor front until shutdown. Called by [`Server::run`] when
/// `EMOD_SERVE_FRONT=reactor` (or [`Server::with_front`]) selected it.
///
/// # Errors
///
/// Propagates poller construction/registration failures (including
/// `Unsupported` on non-Linux targets — use the threads front there) and
/// fatal accept-loop errors, matching the threads front's contract.
pub(crate) fn run(server: Server, state: Arc<ServerState>) -> io::Result<()> {
    let mut poller = emod_reactor::default_poller()?;
    server.listener.set_nonblocking(true)?;
    let waker = Waker::new()?;
    poller.register(server.listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
    poller.register(waker.fd(), WAKER_TOKEN, Interest::READ)?;

    let workers = workers_from_env(server.workers);
    telemetry::gauge_set("serve.reactor.workers", workers as f64);
    let (tx, rx) = mpsc::channel::<Job>();
    let rx = Arc::new(Mutex::new(rx));
    let done: Arc<Mutex<Vec<Done>>> = Arc::new(Mutex::new(Vec::new()));
    let mut handles = Vec::with_capacity(workers + 1);
    for i in 0..workers {
        let rx = Arc::clone(&rx);
        let state = Arc::clone(&state);
        let done = Arc::clone(&done);
        let waker = waker.clone();
        handles.push(
            thread::Builder::new()
                .name(format!("emod-reactor-worker-{}", i))
                .spawn(move || worker_loop(&rx, &state, &done, &waker))?,
        );
    }
    if let Some(h) = crate::server::spawn_refresh_worker(&state)? {
        handles.push(h);
    }

    let mut coalescer: Option<Coalescer<Pending>> = server.coalesce.map(Coalescer::new);
    let mut conns: HashMap<Token, Conn> = HashMap::new();
    let mut next_token: Token = FIRST_CONN_TOKEN;
    let mut events = Vec::new();

    loop {
        // Sleep until readiness, a completion wake, or the nearest
        // coalescing-window deadline — whichever comes first.
        let mut timeout = Duration::from_millis(POLL_MS);
        if let Some(c) = &coalescer {
            if let Some(deadline) = c.next_deadline() {
                timeout = timeout.min(deadline.saturating_duration_since(Instant::now()));
            }
        }
        poller.poll(&mut events, Some(timeout))?;

        let drained = std::mem::take(&mut events);
        for ev in &drained {
            match ev.token {
                LISTENER_TOKEN => loop {
                    match server.listener.accept() {
                        Ok((stream, peer)) => {
                            if stream.set_nonblocking(true).is_err()
                                || wire::configure(&stream).is_err()
                            {
                                continue;
                            }
                            telemetry::counter_add("serve.connections", 1);
                            let token = next_token;
                            next_token += 1;
                            let conn_id = telemetry::TraceContext::fresh().trace_hex();
                            telemetry::event(
                                "serve",
                                "conn_open",
                                &[
                                    ("conn", conn_id.as_str().into()),
                                    ("peer", peer.to_string().as_str().into()),
                                    ("queue_wait_ms", 0.0.into()),
                                ],
                            );
                            let conn = Conn::new(stream, token, conn_id);
                            if poller
                                .register(conn.stream.as_raw_fd(), token, conn.interest())
                                .is_ok()
                            {
                                conns.insert(token, conn);
                                telemetry::gauge_set(
                                    "serve.reactor.connections",
                                    conns.len() as f64,
                                );
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(e) => return Err(e),
                    }
                },
                WAKER_TOKEN => waker.drain(),
                token => {
                    let alive = match conns.get_mut(&token) {
                        Some(conn) => {
                            let mut alive = true;
                            if ev.readable || ev.hangup {
                                alive = read_and_dispatch(
                                    &state,
                                    &mut poller,
                                    &mut coalescer,
                                    &tx,
                                    conn,
                                );
                            }
                            if alive {
                                alive = pump_writes(&mut poller, conn);
                            }
                            alive
                        }
                        None => continue,
                    };
                    if !alive {
                        close_conn(&mut poller, &mut conns, token);
                    }
                }
            }
        }
        events = drained;

        // Flush coalescing windows whose deadline passed.
        if let Some(c) = &mut coalescer {
            let now = Instant::now();
            for flush in c.due(now) {
                send_flush(&tx, flush);
            }
            telemetry::gauge_set("serve.coalesce.pending", c.pending() as f64);
        }

        // Route finished responses back to their connections, in order.
        let finished = std::mem::take(&mut *telemetry::lock_or_recover(&done));
        let mut touched: Vec<Token> = Vec::with_capacity(finished.len());
        for d in finished {
            if let Some(conn) = conns.get_mut(&d.token) {
                conn.inflight -= 1;
                conn.ready.insert(d.seq, (d.bytes, d.close));
                if !touched.contains(&d.token) {
                    touched.push(d.token);
                }
            }
        }
        for token in touched {
            let alive = match conns.get_mut(&token) {
                Some(conn) => {
                    let mut alive = pump_writes(&mut poller, conn);
                    if alive && conn.paused && conn.inflight < MAX_PIPELINE / 2 {
                        conn.paused = false;
                        let _ =
                            poller.reregister(conn.stream.as_raw_fd(), conn.token, conn.interest());
                        alive = extract_lines(&state, &mut poller, &mut coalescer, &tx, conn);
                        if alive {
                            alive = pump_writes(&mut poller, conn);
                        }
                    }
                    alive
                }
                None => continue,
            };
            if !alive {
                close_conn(&mut poller, &mut conns, token);
            }
        }
        telemetry::gauge_set(
            "serve.queue_depth",
            conns.values().map(|c| c.inflight).sum::<u64>() as f64,
        );

        // Checked after the drains so a `shutdown` command's own response
        // ("bye") reaches the wire before the loop exits.
        if state.shutting_down() {
            server
                .shutdown
                .store(true, std::sync::atomic::Ordering::SeqCst);
            break;
        }
    }

    // Graceful drain: stop accepting, flush every open coalescing window,
    // then give in-flight requests a bounded grace to answer and flush.
    let _ = poller.deregister(server.listener.as_raw_fd());
    if let Some(c) = &mut coalescer {
        for flush in c.drain_all() {
            send_flush(&tx, flush);
        }
    }
    drop(tx);
    let deadline = Instant::now() + DRAIN_GRACE;
    while Instant::now() < deadline {
        let finished = std::mem::take(&mut *telemetry::lock_or_recover(&done));
        for d in finished {
            if let Some(conn) = conns.get_mut(&d.token) {
                conn.inflight -= 1;
                conn.ready.insert(d.seq, (d.bytes, d.close));
            }
        }
        let tokens: Vec<Token> = conns.keys().copied().collect();
        for token in tokens {
            let alive = conns
                .get_mut(&token)
                .map(|conn| pump_writes(&mut poller, conn))
                .unwrap_or(false);
            if !alive {
                close_conn(&mut poller, &mut conns, token);
            }
        }
        let quiescent = conns
            .values()
            .all(|c| c.inflight == 0 && c.ready.is_empty() && c.out.is_empty());
        if quiescent {
            break;
        }
        thread::sleep(Duration::from_millis(2));
    }
    for token in conns.keys().copied().collect::<Vec<_>>() {
        close_conn(&mut poller, &mut conns, token);
    }
    for h in handles {
        let _ = h.join();
    }
    Ok(())
}
