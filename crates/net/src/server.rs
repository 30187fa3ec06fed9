//! The TCP serving frontend: one accept loop, one thread per connection,
//! every connection feeding the registry's bounded-queue engines through
//! pre-allocated request slots.
//!
//! Connection state machine (one thread each):
//!
//! ```text
//! ReadHeader ──bad magic/version──▶ Error frame ──▶ Closed   (stream desynced)
//!     │ ok
//!     ▼
//! ReadPayload ──EOF/reset──▶ Closed
//!     │ ok
//!     ▼
//! Route ──unknown route / size mismatch──▶ Error frame ──▶ ReadHeader
//!     │ ok                                  (stream still framed)
//!     ▼
//! Submit ──draining──▶ Shutdown frame ─▶ ReadHeader
//!     │   ──queue full─▶ Busy frame ───▶ ReadHeader
//!     ▼ admitted
//! Wait ──▶ Ok / DeadlineExceeded / Shutdown / Busy / Error frame ─▶ ReadHeader
//! ```
//!
//! Drain sequence (`shutdown_within`, also triggered by SIGTERM through
//! [`install_sigterm_flag`], as in the server process of `tests/net_serve.rs`'s
//! `sigterm_drains_a_server_process`): mark draining (new `Infer` frames
//! answer `Shutdown`, `Health` answers `Draining`) → stop + join the accept loop
//! → drain every engine (in-flight and queued requests resolve exactly
//! once) → wait for connection threads to flush their last responses →
//! half-close every socket's read side (connection loops see EOF and
//! exit) → join them. In-flight frames are never dropped: the engine
//! resolves their slots and the connection thread writes the response
//! before it can observe the half-close.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use neocpu::{EngineHealth, NeoError, Request, Result};

use crate::codec::{
    encode_response, parse_request_header, FrameError, FrameKind, RequestHeader, ResponseFrame,
    REQ_HEADER_LEN, RESP_HEADER_LEN,
};
use crate::registry::ModelRegistry;

/// How long the accept loop sleeps between polls of its stop flag.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// Grace period after the engines drain for connection threads to flush
/// their final responses before sockets are half-closed.
const FLUSH_GRACE: Duration = Duration::from_secs(2);

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn io_err(ctx: &str, e: std::io::Error) -> NeoError {
    NeoError::Serve(format!("{ctx}: {e}"))
}

struct Conn {
    stream: TcpStream,
    handle: Option<JoinHandle<()>>,
}

struct ServerShared {
    registry: Arc<ModelRegistry>,
    /// Accept loop exits when set.
    stop_accept: AtomicBool,
    /// New `Infer` frames answer `Shutdown` once set.
    draining: AtomicBool,
    /// Everything joined; [`NetServer::health`] reports `Stopped`.
    stopped: AtomicBool,
    /// Requests admitted to an engine whose response is not yet written.
    in_flight: AtomicUsize,
    conns: Mutex<Vec<Conn>>,
}

impl ServerShared {
    fn health(&self) -> EngineHealth {
        if self.stopped.load(Ordering::Acquire) {
            EngineHealth::Stopped
        } else if self.draining.load(Ordering::Acquire) {
            EngineHealth::Draining
        } else {
            self.registry.health()
        }
    }
}

/// The TCP frontend over a [`ModelRegistry`].
pub struct NetServer {
    shared: Arc<ServerShared>,
    accept: Mutex<Option<JoinHandle<()>>>,
    addr: SocketAddr,
}

impl NetServer {
    /// Binds `addr` (port 0 picks a free port — see [`NetServer::local_addr`])
    /// and starts accepting connections.
    ///
    /// # Errors
    ///
    /// Fails if the bind fails.
    pub fn bind(registry: Arc<ModelRegistry>, addr: impl ToSocketAddrs) -> Result<Self> {
        let listener = TcpListener::bind(addr).map_err(|e| io_err("bind", e))?;
        let local = listener.local_addr().map_err(|e| io_err("local_addr", e))?;
        listener.set_nonblocking(true).map_err(|e| io_err("set_nonblocking", e))?;
        let shared = Arc::new(ServerShared {
            registry,
            stop_accept: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            conns: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("net-accept".into())
            .spawn(move || accept_loop(&accept_shared, &listener))
            .map_err(|e| NeoError::Serve(format!("spawning accept loop: {e}")))?;
        Ok(Self { shared, accept: Mutex::new(Some(accept)), addr: local })
    }

    /// The address actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's lifecycle state as reported to `Health` frames:
    /// `Draining` from the moment a drain starts, `Stopped` once every
    /// thread is joined, otherwise the registry's aggregate health.
    pub fn health(&self) -> EngineHealth {
        self.shared.health()
    }

    /// Enters the draining state without touching the engines: the accept
    /// loop stops and is joined, and every subsequent `Infer` frame is
    /// answered with a `Shutdown` frame while `Health` reports `Draining`.
    /// The deterministic first phase of [`NetServer::shutdown_within`],
    /// public so tests can observe the drain window. Idempotent.
    pub fn begin_drain(&self) {
        self.shared.draining.store(true, Ordering::Release);
        self.shared.stop_accept.store(true, Ordering::Release);
        if let Some(handle) = lock(&self.accept).take() {
            let _ = handle.join();
        }
    }

    /// Gracefully drains the server: completes in-flight frames, answers
    /// everything still queued, then closes the sockets and joins every
    /// thread. `budget` bounds the *engine* drain (requests that cannot
    /// finish in time fail with a typed `Shutdown`); the final socket
    /// flush gets a small fixed grace on top. Idempotent.
    pub fn shutdown_within(&self, budget: Duration) {
        self.begin_drain();
        self.shared.registry.shutdown_within(budget);
        // Every slot is resolved now; give connection threads a moment to
        // write their final response before the half-close.
        let flush_deadline = Instant::now() + FLUSH_GRACE;
        while self.shared.in_flight.load(Ordering::Acquire) > 0
            && Instant::now() < flush_deadline
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut conns = std::mem::take(&mut *lock(&self.shared.conns));
        for conn in &conns {
            // Half-close the read side: blocked header reads see EOF, any
            // response still being written flushes normally.
            let _ = conn.stream.shutdown(Shutdown::Read);
        }
        for conn in &mut conns {
            if let Some(handle) = conn.handle.take() {
                let _ = handle.join();
            }
        }
        self.shared.stopped.store(true, Ordering::Release);
    }

    /// [`NetServer::shutdown_within`] with a 30 s engine budget.
    pub fn shutdown(&self) {
        self.shutdown_within(Duration::from_secs(30));
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        if !self.shared.stopped.load(Ordering::Acquire) {
            self.shutdown_within(Duration::from_secs(10));
        }
    }
}

fn accept_loop(shared: &Arc<ServerShared>, listener: &TcpListener) {
    while !shared.stop_accept.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(false).is_err() || stream.set_nodelay(true).is_err() {
                    continue;
                }
                let Ok(track) = stream.try_clone() else { continue };
                let conn_shared = Arc::clone(shared);
                let spawned = std::thread::Builder::new()
                    .name("net-conn".into())
                    .spawn(move || handle_conn(&conn_shared, stream));
                match spawned {
                    Ok(handle) => {
                        let mut conns = lock(&shared.conns);
                        // Reap finished connections so a long-lived server
                        // does not accumulate dead handles.
                        conns.retain_mut(|c| match &c.handle {
                            Some(h) if h.is_finished() => {
                                if let Some(h) = c.handle.take() {
                                    let _ = h.join();
                                }
                                false
                            }
                            _ => true,
                        });
                        conns.push(Conn { stream: track, handle: Some(handle) });
                    }
                    Err(_) => {
                        let _ = track.shutdown(Shutdown::Both);
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

/// Per-connection state, pre-allocated once so the warm per-request path
/// (decode → submit → wait → encode) never touches the heap.
struct ConnState {
    /// One reusable slot per registry route, index-parallel to
    /// [`ModelRegistry::entries`].
    slots: Vec<Arc<Request>>,
    payload: Vec<u8>,
    scores: Vec<u8>,
    write: Vec<u8>,
}

impl ConnState {
    fn new(registry: &ModelRegistry) -> Self {
        let slots = registry.entries().iter().map(|e| e.engine.make_request()).collect();
        Self {
            slots,
            payload: vec![0u8; registry.max_input_bytes()],
            scores: Vec::with_capacity(registry.max_output_bytes()),
            write: Vec::with_capacity(RESP_HEADER_LEN + registry.max_output_bytes()),
        }
    }
}

fn send(stream: &mut TcpStream, state: &mut ConnState, frame: &ResponseFrame<'_>) -> bool {
    encode_response(frame, &mut state.write);
    stream.write_all(&state.write).is_ok()
}

fn handle_conn(shared: &Arc<ServerShared>, mut stream: TcpStream) {
    let mut state = ConnState::new(&shared.registry);
    let mut header = [0u8; REQ_HEADER_LEN];
    loop {
        if stream.read_exact(&mut header).is_err() {
            return; // EOF, reset, or drain half-close.
        }
        let h = match parse_request_header(&header) {
            Ok(h) => h,
            Err(e) => {
                // After a bad header the stream is desynchronized — there
                // is no way to find the next frame boundary. Report and
                // close.
                let msg = frame_error_msg(&e);
                let _ = send(
                    &mut stream,
                    &mut state,
                    &ResponseFrame::Error { request_id: 0, message: &msg },
                );
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
        };
        let payload_len = h.payload_len as usize;
        let readable = payload_len.min(state.payload.len());
        if stream.read_exact(&mut state.payload[..readable]).is_err() {
            return;
        }
        if payload_len > state.payload.len() {
            // Longer than any route's input: drain it off the socket in
            // chunks so the stream stays framed, then reject.
            let mut remaining = payload_len - state.payload.len();
            let mut sink = [0u8; 4096];
            while remaining > 0 {
                let take = remaining.min(sink.len());
                if stream.read_exact(&mut sink[..take]).is_err() {
                    return;
                }
                remaining -= take;
            }
            if !send(
                &mut stream,
                &mut state,
                &ResponseFrame::Error {
                    request_id: h.request_id,
                    message: "payload larger than any served model's input",
                },
            ) {
                return;
            }
            continue;
        }
        if !serve_frame(shared, &mut stream, &mut state, &h) {
            return;
        }
    }
}

/// Handles one well-framed request; returns `false` when the connection
/// should close.
fn serve_frame(
    shared: &Arc<ServerShared>,
    stream: &mut TcpStream,
    state: &mut ConnState,
    h: &RequestHeader,
) -> bool {
    let rid = h.request_id;
    if h.kind == FrameKind::Health {
        return send(
            stream,
            state,
            &ResponseFrame::Health { request_id: rid, health: shared.health() },
        );
    }
    let Some(idx) = shared.registry.route_index(h.model, h.dtype) else {
        let msg = format!("no route for {} {}", h.model.name(), h.dtype);
        return send(stream, state, &ResponseFrame::Error { request_id: rid, message: &msg });
    };
    let entry = &shared.registry.entries()[idx];
    let payload = &state.payload[..h.payload_len as usize];
    if payload.len() != entry.input_bytes {
        let msg = format!(
            "{} {} expects {} payload bytes, got {}",
            h.model.name(),
            h.dtype,
            entry.input_bytes,
            payload.len()
        );
        return send(stream, state, &ResponseFrame::Error { request_id: rid, message: &msg });
    }
    if shared.draining.load(Ordering::Acquire) {
        return send(stream, state, &ResponseFrame::Shutdown { request_id: rid });
    }
    let slot = &state.slots[idx];
    let budget = (h.deadline_us > 0).then(|| Duration::from_micros(u64::from(h.deadline_us)));
    if let Err(e) = slot.fill_le_bytes(payload, budget) {
        let msg = e.to_string();
        return send(stream, state, &ResponseFrame::Error { request_id: rid, message: &msg });
    }
    if let Err(e) = entry.engine.try_submit(slot) {
        return send_failure(stream, state, rid, &e);
    }
    shared.in_flight.fetch_add(1, Ordering::AcqRel);
    let outcome = slot.wait();
    let sent = match outcome {
        Ok(()) => {
            let encoded = slot.with_outputs(|outs| {
                let row = outs[0].data();
                let mut argmax = 0u32;
                let mut best = f32::NEG_INFINITY;
                state.scores.clear();
                for (i, &v) in row.iter().enumerate() {
                    if v > best {
                        best = v;
                        argmax = i as u32;
                    }
                    state.scores.extend_from_slice(&v.to_le_bytes());
                }
                argmax
            });
            match encoded {
                Ok(argmax) => {
                    // The Ok frame borrows `state.scores`, so it cannot go
                    // through `send` (which borrows all of `state`).
                    encode_ok(rid, argmax, &state.scores, &mut state.write);
                    stream.write_all(&state.write).is_ok()
                }
                Err(e) => send_failure(stream, state, rid, &e),
            }
        }
        Err(e) => send_failure(stream, state, rid, &e),
    };
    shared.in_flight.fetch_sub(1, Ordering::AcqRel);
    sent
}

fn encode_ok(request_id: u64, argmax: u32, scores: &[u8], out: &mut Vec<u8>) {
    encode_response(&ResponseFrame::Ok { request_id, argmax, scores }, out);
}

/// Writes the wire response for an engine-side failure. Allocation-free
/// for the typed lifecycle outcomes (`Busy`, `DeadlineExceeded`,
/// `Shutdown`); only the generic `Error` arm formats a message.
fn send_failure(stream: &mut TcpStream, state: &mut ConnState, rid: u64, e: &NeoError) -> bool {
    match e {
        NeoError::Busy { queue_depth } => send(
            stream,
            state,
            &ResponseFrame::Busy {
                request_id: rid,
                queue_depth: (*queue_depth).min(u32::MAX as usize) as u32,
            },
        ),
        NeoError::DeadlineExceeded => {
            send(stream, state, &ResponseFrame::DeadlineExceeded { request_id: rid })
        }
        NeoError::Shutdown => send(stream, state, &ResponseFrame::Shutdown { request_id: rid }),
        other => {
            let msg = other.to_string();
            send(stream, state, &ResponseFrame::Error { request_id: rid, message: &msg })
        }
    }
}

fn frame_error_msg(e: &FrameError) -> String {
    format!("bad frame: {e}")
}

/// SIGTERM-to-flag plumbing for a serving process: installs a minimal
/// handler through the C library's `signal` (already linked — no new
/// dependency) that sets an atomic the serve loop polls to trigger
/// [`NetServer::shutdown_within`]. `tests/net_serve.rs`'s
/// `sigterm_drains_a_server_process` drives it across two processes.
pub fn install_sigterm_flag() -> &'static AtomicBool {
    static FLAG: AtomicBool = AtomicBool::new(false);
    extern "C" fn on_sigterm(_sig: i32) {
        FLAG.store(true, Ordering::Release);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGTERM: i32 = 15;
    // SAFETY: `signal` is async-signal-safe to install, and the handler
    // only stores to an atomic — both allowed in signal context.
    unsafe {
        signal(SIGTERM, on_sigterm);
    }
    &FLAG
}
