//! Wire-level integration suite for the TCP serving frontend (ISSUE 8
//! satellite): real sockets, real engines, typed lifecycle outcomes.
//!
//! - N concurrent clients across every registry route get the argmax and
//!   score row that a direct `Module::run` of the same image produces;
//! - a saturated bounded queue answers `Busy` on the wire and the server
//!   stays servable afterwards;
//! - a microscopic per-request deadline answers `DeadlineExceeded` without
//!   ever executing the model;
//! - a drain that starts while requests are in flight resolves every
//!   outstanding request exactly once (each client's responses echo its
//!   request ids, in order, with at most the final racing send unanswered);
//! - the drain window itself is observable: existing connections get
//!   `Shutdown` frames for new work and `Draining` from `Health` probes;
//! - (unix) SIGTERM drains a server running in another process: this test
//!   binary re-run as the server, driven over TCP, must answer every request
//!   in flight at the signal exactly once and exit 0 with health `Stopped`.
//!
//! Every tiny module is compiled once per process (in `modules()`) and
//! shared across registries, so the suite pays four compiles in-process
//! and four more in the SIGTERM drill's server process.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use neocpu::{EngineHealth, Module, ServeOptions};
use neocpu_models::ModelKind;
use neocpu_net::{
    encode_request, FrameKind, ModelRegistry, ModelSpec, NetServer, RequestFrame, ResponseFrame,
    WireDtype, RESP_HEADER_LEN,
};
use neocpu_tensor::{Layout, Tensor};

/// Fails the test if `f` does not finish within `secs` — a hang across a
/// drain is the failure mode this suite exists to rule out.
fn with_timeout<F: FnOnce() + Send + 'static>(secs: u64, name: &str, f: F) {
    let (tx, rx) = std::sync::mpsc::channel();
    let t = std::thread::spawn(move || {
        f();
        tx.send(()).ok();
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(()) | Err(RecvTimeoutError::Disconnected) => t.join().unwrap(),
        Err(RecvTimeoutError::Timeout) => {
            panic!("{name} did not finish within {secs}s: likely deadlock")
        }
    }
}

/// The four tiny routes the suite serves, compiled once per process:
/// the f32 trio plus the int8 MobileNet deployment.
fn modules() -> &'static [(ModelSpec, Arc<Module>)] {
    static MODULES: OnceLock<Vec<(ModelSpec, Arc<Module>)>> = OnceLock::new();
    MODULES.get_or_init(|| {
        [
            ModelSpec::serving(ModelKind::ResNet50, WireDtype::F32, false, 2),
            ModelSpec::serving(ModelKind::InceptionV3, WireDtype::F32, false, 2),
            ModelSpec::serving(ModelKind::MobileNet, WireDtype::F32, false, 2),
            ModelSpec::serving(ModelKind::MobileNet, WireDtype::Int8, false, 2),
        ]
        .into_iter()
        .map(|spec| {
            let (module, _) = spec.compile().unwrap_or_else(|e| {
                panic!("compiling {} {}: {e}", spec.kind.name(), spec.dtype)
            });
            (spec, module)
        })
        .collect()
    })
}

/// A registry over the shared modules — all four routes.
fn registry(opts: &ServeOptions) -> Arc<ModelRegistry> {
    Arc::new(ModelRegistry::from_modules(modules().to_vec(), opts).expect("registry starts"))
}

/// A registry serving only the (cheap) f32 MobileNet route.
fn mobilenet_registry(opts: &ServeOptions) -> Arc<ModelRegistry> {
    let pair = modules()
        .iter()
        .find(|(s, _)| s.kind == ModelKind::MobileNet && s.dtype == WireDtype::F32)
        .cloned()
        .expect("MobileNet f32 is in the shared set");
    Arc::new(ModelRegistry::from_modules(vec![pair], opts).expect("registry starts"))
}

/// Deterministic per-route image: xorshift-seeded f32s in [0, 1).
fn image_for(spec: &ModelSpec, elems: usize) -> Vec<f32> {
    let mut state =
        0xD1B5_4A32 ^ ((spec.kind as u64) << 8) ^ spec.dtype.code() as u64 ^ 0x9E37_79B9;
    (0..elems)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 40) as f32 / (1u64 << 24) as f32
        })
        .collect()
}

/// An owned copy of a decoded response frame, so client threads can hold
/// results past the read buffer.
#[derive(Debug, Clone, PartialEq)]
enum Resp {
    Ok { request_id: u64, argmax: u32, scores: Vec<f32> },
    Busy { request_id: u64, queue_depth: u32 },
    DeadlineExceeded { request_id: u64 },
    Shutdown { request_id: u64 },
    Error { request_id: u64, message: String },
    Health { request_id: u64, health: EngineHealth },
}

impl Resp {
    fn request_id(&self) -> u64 {
        match self {
            Resp::Ok { request_id, .. }
            | Resp::Busy { request_id, .. }
            | Resp::DeadlineExceeded { request_id }
            | Resp::Shutdown { request_id }
            | Resp::Error { request_id, .. }
            | Resp::Health { request_id, .. } => *request_id,
        }
    }
}

/// Reads one response frame off the stream; `None` on EOF/reset.
fn read_response(stream: &mut TcpStream) -> Option<Resp> {
    let mut buf = vec![0u8; RESP_HEADER_LEN];
    stream.read_exact(&mut buf).ok()?;
    let payload_len =
        u32::from_le_bytes([buf[14], buf[15], buf[16], buf[17]]) as usize;
    buf.resize(RESP_HEADER_LEN + payload_len, 0);
    stream.read_exact(&mut buf[RESP_HEADER_LEN..]).ok()?;
    let (frame, used) = neocpu_net::decode_response(&buf).expect("server sent a valid frame");
    assert_eq!(used, buf.len());
    Some(match frame {
        ResponseFrame::Ok { request_id, argmax, scores } => Resp::Ok {
            request_id,
            argmax,
            scores: scores
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                .collect(),
        },
        ResponseFrame::Busy { request_id, queue_depth } => {
            Resp::Busy { request_id, queue_depth }
        }
        ResponseFrame::DeadlineExceeded { request_id } => {
            Resp::DeadlineExceeded { request_id }
        }
        ResponseFrame::Shutdown { request_id } => Resp::Shutdown { request_id },
        ResponseFrame::Error { request_id, message } => {
            Resp::Error { request_id, message: message.to_string() }
        }
        ResponseFrame::Health { request_id, health } => Resp::Health { request_id, health },
    })
}

/// Sends one frame; `None` when the write fails (socket closed by drain).
fn send_request(stream: &mut TcpStream, frame: &RequestFrame<'_>) -> Option<()> {
    let mut buf = Vec::new();
    encode_request(frame, &mut buf);
    stream.write_all(&buf).ok()
}

fn infer_frame<'a>(
    spec: &ModelSpec,
    request_id: u64,
    deadline_us: u32,
    payload: &'a [u8],
) -> RequestFrame<'a> {
    RequestFrame {
        request_id,
        kind: FrameKind::Infer,
        model: spec.kind,
        dtype: spec.dtype,
        deadline_us,
        payload,
    }
}

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect to test server");
    stream.set_nodelay(true).expect("nodelay");
    stream
}

/// One route's wire oracle: the payload of its `image_for` image and the
/// argmax and score row that a direct run of its module gives for it.
struct Oracle {
    spec: ModelSpec,
    payload: Vec<u8>,
    argmax: u32,
    row: Vec<f32>,
}

impl Oracle {
    /// Runs the route's module directly on a full batch of copies of the
    /// route's image and keeps one row.
    fn new(spec: ModelSpec, module: &Module) -> Self {
        let dims = module.input_shapes()[0].dims().to_vec();
        let (batch, elems) = (dims[0], dims[1..].iter().product());
        let image = image_for(&spec, elems);
        let mut data = Vec::with_capacity(batch * elems);
        for _ in 0..batch {
            data.extend_from_slice(&image);
        }
        let input = Tensor::from_vec(data, dims, Layout::Nchw).expect("reference input");
        let outputs = module.run(std::slice::from_ref(&input)).expect("reference run");
        let row_len = outputs[0].data().len() / batch;
        let row = outputs[0].data()[..row_len].to_vec();
        let argmax = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i as u32)
            .expect("non-empty score row");
        let payload = image.iter().flat_map(|v| v.to_le_bytes()).collect();
        Self { spec, payload, argmax, row }
    }

    /// One oracle per route of `modules()`, in registry order.
    fn all() -> Vec<Self> {
        modules().iter().map(|(spec, module)| Self::new(*spec, module)).collect()
    }

    fn frame(&self, request_id: u64) -> RequestFrame<'_> {
        infer_frame(&self.spec, request_id, 0, &self.payload)
    }

    /// Panics unless `resp` answers request `rid` with `Ok`, this route's
    /// argmax and its score row.
    fn assert_ok(&self, rid: u64, resp: &Resp) {
        let (name, dtype) = (self.spec.kind.name(), self.spec.dtype);
        let Resp::Ok { request_id, argmax, scores } = resp else {
            panic!("{name} {dtype}: expected Ok, got {resp:?}")
        };
        assert_eq!(*request_id, rid, "id echo");
        assert_eq!(*argmax, self.argmax, "{name} {dtype} argmax");
        assert_eq!(scores.len(), self.row.len());
        for (got, want) in scores.iter().zip(&self.row) {
            assert!((got - want).abs() <= 1e-5, "{name} {dtype} score drifted: {got} vs {want}");
        }
    }
}

#[test]
fn eight_concurrent_clients_match_direct_module_runs() {
    with_timeout(300, "eight_concurrent_clients_match_direct_module_runs", || {
        let registry = registry(&ServeOptions {
            workers: 2,
            batch_timeout: Duration::from_millis(1),
            ..Default::default()
        });
        let oracles = Oracle::all();
        let server = NetServer::bind(Arc::clone(&registry), "127.0.0.1:0").expect("bind");

        const CLIENTS: usize = 8;
        const REQUESTS: u64 = 4;
        std::thread::scope(|scope| {
            for client in 0..CLIENTS {
                let oracle = &oracles[client % oracles.len()];
                let addr = server.local_addr();
                scope.spawn(move || {
                    let mut stream = connect(addr);
                    for r in 0..REQUESTS {
                        let rid = ((client as u64) << 32) | r;
                        send_request(&mut stream, &oracle.frame(rid)).expect("request write");
                        oracle.assert_ok(rid, &read_response(&mut stream).expect("response read"));
                    }
                });
            }
        });

        server.shutdown_within(Duration::from_secs(10));
        assert_eq!(server.health(), EngineHealth::Stopped);
        // Every route saw traffic (8 clients round-robin 4 routes).
        for (spec, report) in registry.reports() {
            assert!(
                report.completed > 0,
                "{} {} served nothing",
                spec.kind.name(),
                spec.dtype
            );
        }
    });
}

#[test]
fn saturated_queue_answers_busy_on_the_wire() {
    with_timeout(120, "saturated_queue_answers_busy_on_the_wire", || {
        // One worker, batch 1, a single queue slot: eight connections
        // hammering serially must trip the shed policy.
        let registry = mobilenet_registry(&ServeOptions {
            workers: 1,
            max_batch: 1,
            queue_cap: 1,
            batch_timeout: Duration::from_millis(1),
            ..Default::default()
        });
        let spec = registry.entries()[0].spec;
        let image = image_for(&spec, registry.entries()[0].input_bytes / 4);
        let payload: Vec<u8> = image.iter().flat_map(|v| v.to_le_bytes()).collect();
        let server = NetServer::bind(Arc::clone(&registry), "127.0.0.1:0").expect("bind");

        const CLIENTS: usize = 8;
        const REQUESTS: u64 = 30;
        let (ok, busy) = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    let (server, spec, payload) = (&server, &spec, &payload);
                    scope.spawn(move || {
                        let mut stream = connect(server.local_addr());
                        let (mut ok, mut busy) = (0u64, 0u64);
                        for r in 0..REQUESTS {
                            let rid = ((client as u64) << 32) | r;
                            send_request(&mut stream, &infer_frame(spec, rid, 0, payload))
                                .expect("request write");
                            match read_response(&mut stream).expect("response read") {
                                Resp::Ok { request_id, .. } => {
                                    assert_eq!(request_id, rid);
                                    ok += 1;
                                }
                                Resp::Busy { request_id, .. } => {
                                    assert_eq!(request_id, rid);
                                    busy += 1;
                                }
                                other => panic!("expected Ok or Busy, got {other:?}"),
                            }
                        }
                        (ok, busy)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).fold(
                (0, 0),
                |(a, b), (ok, busy)| (a + ok, b + busy),
            )
        });
        assert_eq!(ok + busy, (CLIENTS as u64) * REQUESTS, "every request resolved");
        assert!(busy > 0, "a single-slot queue under 8 clients must shed");
        assert!(ok > 0, "shedding must not starve the queue entirely");
        // Every Busy frame is one refused `try_submit`, and the engine
        // counts exactly those as `shed`.
        let (_, report) = &registry.reports()[0];
        assert_eq!(report.shed, busy, "the route's shed count must match the Busy frames");

        // The server stays servable after the storm.
        let mut stream = connect(server.local_addr());
        send_request(&mut stream, &infer_frame(&spec, 999, 0, &payload)).expect("write");
        loop {
            match read_response(&mut stream).expect("read") {
                Resp::Ok { request_id, .. } => {
                    assert_eq!(request_id, 999);
                    break;
                }
                // The engine may still be flushing the storm's last batch.
                Resp::Busy { .. } => {
                    std::thread::sleep(Duration::from_millis(5));
                    send_request(&mut stream, &infer_frame(&spec, 999, 0, &payload))
                        .expect("write");
                }
                other => panic!("expected Ok after the storm, got {other:?}"),
            }
        }

        server.shutdown_within(Duration::from_secs(10));
        assert_eq!(server.health(), EngineHealth::Stopped);
    });
}

#[test]
fn microscopic_deadline_is_exceeded_without_execution() {
    with_timeout(120, "microscopic_deadline_is_exceeded_without_execution", || {
        let registry = mobilenet_registry(&ServeOptions {
            workers: 1,
            // A long batching window guarantees the 1 µs budget expires
            // while the request is still queued.
            batch_timeout: Duration::from_millis(50),
            ..Default::default()
        });
        let entry = &registry.entries()[0];
        let image = image_for(&entry.spec, entry.input_bytes / 4);
        let payload: Vec<u8> = image.iter().flat_map(|v| v.to_le_bytes()).collect();
        let server = NetServer::bind(Arc::clone(&registry), "127.0.0.1:0").expect("bind");

        let mut stream = connect(server.local_addr());
        send_request(&mut stream, &infer_frame(&entry.spec, 41, 1, &payload)).expect("write");
        match read_response(&mut stream).expect("read") {
            Resp::DeadlineExceeded { request_id } => assert_eq!(request_id, 41),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        let reports = registry.reports();
        assert_eq!(reports[0].1.completed, 0, "an expired request must never execute");

        // The same connection immediately serves an undeadlined request.
        send_request(&mut stream, &infer_frame(&entry.spec, 42, 0, &payload)).expect("write");
        match read_response(&mut stream).expect("read") {
            Resp::Ok { request_id, .. } => assert_eq!(request_id, 42),
            other => panic!("expected Ok, got {other:?}"),
        }

        server.shutdown_within(Duration::from_secs(10));
        assert_eq!(server.health(), EngineHealth::Stopped);
    });
}

#[test]
fn drain_mid_flight_resolves_every_request_exactly_once() {
    with_timeout(180, "drain_mid_flight_resolves_every_request_exactly_once", || {
        let registry = mobilenet_registry(&ServeOptions {
            workers: 1,
            batch_timeout: Duration::from_millis(1),
            ..Default::default()
        });
        let spec = registry.entries()[0].spec;
        let image = image_for(&spec, registry.entries()[0].input_bytes / 4);
        let payload: Vec<u8> = image.iter().flat_map(|v| v.to_le_bytes()).collect();
        let server = NetServer::bind(Arc::clone(&registry), "127.0.0.1:0").expect("bind");

        const CLIENTS: usize = 10;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    let (server, spec, payload) = (&server, &spec, &payload);
                    scope.spawn(move || {
                        let mut stream = connect(server.local_addr());
                        let mut sent: u64 = 0;
                        let mut answered: u64 = 0;
                        loop {
                            let rid = ((client as u64) << 32) | sent;
                            if send_request(&mut stream, &infer_frame(spec, rid, 0, payload))
                                .is_none()
                            {
                                break; // drain closed the socket
                            }
                            sent += 1;
                            match read_response(&mut stream) {
                                // Exactly-once: ids echo in send order, one
                                // response per request, any lifecycle
                                // outcome is legal during a drain.
                                Some(resp) => {
                                    assert_eq!(resp.request_id(), rid, "id echo in order");
                                    assert!(
                                        matches!(
                                            resp,
                                            Resp::Ok { .. }
                                                | Resp::Busy { .. }
                                                | Resp::Shutdown { .. }
                                        ),
                                        "unexpected outcome during drain: {resp:?}"
                                    );
                                    answered += 1;
                                    if matches!(resp, Resp::Shutdown { .. }) {
                                        break;
                                    }
                                }
                                None => break, // EOF after the half-close
                            }
                        }
                        (sent, answered)
                    })
                })
                .collect();

            // Let the flood establish in-flight work, then drain under it.
            std::thread::sleep(Duration::from_millis(75));
            server.shutdown_within(Duration::from_secs(10));
            assert_eq!(server.health(), EngineHealth::Stopped);

            let mut total_answered = 0u64;
            for h in handles {
                let (sent, answered) = h.join().unwrap();
                // At most the final send can race the socket close and go
                // unanswered; everything else resolved exactly once.
                assert!(
                    answered == sent || answered + 1 == sent,
                    "client lost responses: sent {sent}, answered {answered}"
                );
                total_answered += answered;
            }
            assert!(total_answered > 0, "the flood produced no responses at all");
        });

        // The engine's own ledger agrees: work flowed before the drain.
        let reports = registry.reports();
        assert!(reports[0].1.completed > 0, "drain test must have completed work");
    });
}

#[test]
fn drain_window_is_observable_on_existing_connections() {
    with_timeout(120, "drain_window_is_observable_on_existing_connections", || {
        let registry = mobilenet_registry(&ServeOptions {
            workers: 1,
            batch_timeout: Duration::from_millis(1),
            ..Default::default()
        });
        let spec = registry.entries()[0].spec;
        let image = image_for(&spec, registry.entries()[0].input_bytes / 4);
        let payload: Vec<u8> = image.iter().flat_map(|v| v.to_le_bytes()).collect();
        let server = NetServer::bind(Arc::clone(&registry), "127.0.0.1:0").expect("bind");

        // A healthy request on a connection that outlives the drain start.
        let mut stream = connect(server.local_addr());
        send_request(&mut stream, &infer_frame(&spec, 1, 0, &payload)).expect("write");
        assert!(
            matches!(read_response(&mut stream), Some(Resp::Ok { request_id: 1, .. })),
            "pre-drain request must succeed"
        );
        let health_frame = RequestFrame {
            request_id: 2,
            kind: FrameKind::Health,
            model: spec.kind,
            dtype: spec.dtype,
            deadline_us: 0,
            payload: &[],
        };
        send_request(&mut stream, &health_frame).expect("write");
        assert_eq!(
            read_response(&mut stream),
            Some(Resp::Health { request_id: 2, health: EngineHealth::Ready })
        );

        // Enter the drain window without stopping the engines yet: new work
        // on the existing connection gets a typed `Shutdown`, and `Health`
        // reports `Draining`.
        server.begin_drain();
        send_request(&mut stream, &infer_frame(&spec, 3, 0, &payload)).expect("write");
        assert_eq!(read_response(&mut stream), Some(Resp::Shutdown { request_id: 3 }));
        let probe = RequestFrame { request_id: 4, ..health_frame };
        send_request(&mut stream, &probe).expect("write");
        assert_eq!(
            read_response(&mut stream),
            Some(Resp::Health { request_id: 4, health: EngineHealth::Draining })
        );

        server.shutdown_within(Duration::from_secs(10));
        assert_eq!(server.health(), EngineHealth::Stopped);
        // The connection is closed out: the next read sees EOF.
        assert_eq!(read_response(&mut stream), None);
    });
}

/// ISSUE-9 satellite: `ModelRegistry::shutdown_within` must drain every
/// route **concurrently** against one shared budget. The old sequential
/// drain only reached route k after routes 0..k finished, so a deep
/// backlog on the first route delayed (and could zero out) every later
/// route's drain. Observables: (a) the *last* route leaves `Ready`
/// almost immediately after the drain starts, not after route 0's
/// multi-second backlog clears; (b) all queued work still completes;
/// (c) every route is `Stopped` when one `shutdown_within` call returns.
#[test]
fn registry_drain_is_concurrent_across_routes() {
    with_timeout(120, "concurrent registry drain", move || {
        let opts = ServeOptions { workers: 1, queue_cap: 512, ..Default::default() };
        let registry = registry(&opts);
        let entries = registry.entries();
        let first = &entries[0];
        let last = entries.last().expect("registry has routes");

        let image = |module: &Module, seed: u64| {
            let mut dims = module.input_shapes()[0].dims().to_vec();
            dims[0] = 1;
            Tensor::random(dims, Layout::Nchw, seed, 1.0).expect("valid image")
        };

        // Calibrate route 0's per-request cost so the backlog reliably
        // outlasts the concurrency assertion's threshold below.
        let img0 = image(&first.module, 3);
        let warm = first.engine.make_request();
        warm.fill(&img0).expect("fill");
        for _ in 0..2 {
            first.engine.submit(&warm).expect("warm submit");
            warm.wait().expect("warm wait");
        }
        let t0 = std::time::Instant::now();
        for _ in 0..3 {
            first.engine.submit(&warm).expect("timed submit");
            warm.wait().expect("timed wait");
        }
        let per_req = t0.elapsed() / 3;
        // ≥ 3 s of queued work on route 0, even if the batcher halves it
        // (batch 2); bounded so the test stays quick on slow machines.
        let backlog0 = ((6.0 / per_req.as_secs_f64().max(1e-4)) as usize).clamp(8, 400);

        let queue_on = |entry: &neocpu_net::RegistryEntry, n: usize, seed: u64| {
            let img = image(&entry.module, seed);
            (0..n)
                .map(|_| {
                    let req = entry.engine.make_request();
                    req.fill(&img).expect("fill backlog slot");
                    entry.engine.submit(&req).expect("queue backlog");
                    req
                })
                .collect::<Vec<_>>()
        };
        let backlog_first = queue_on(first, backlog0, 5);
        let backlog_last = queue_on(last, 8, 7);

        // Watch the last route: with a concurrent drain it leaves `Ready`
        // as soon as shutdown_within begins, while route 0's backlog is
        // still seconds deep.
        let (tx, rx) = std::sync::mpsc::channel();
        let last_engine_health = {
            let registry = Arc::clone(&registry);
            std::thread::spawn(move || {
                let started = std::time::Instant::now();
                let last = registry.entries().last().unwrap();
                while last.engine.health() == EngineHealth::Ready {
                    std::thread::sleep(Duration::from_millis(2));
                }
                tx.send(started.elapsed()).ok();
            })
        };

        let drain_started = std::time::Instant::now();
        registry.shutdown_within(Duration::from_secs(60));
        let wall = drain_started.elapsed();
        last_engine_health.join().expect("health watcher");
        let left_ready_after = rx.recv().expect("watcher observed the drain");

        // (a) Concurrency: the last route entered its drain while route
        // 0's backlog (≥ seconds) was still being served. The generous
        // 1.5 s threshold is still far below the sequential drain's
        // earliest possible hand-off to the last route.
        let route0_floor = per_req.mul_f64(backlog0 as f64 / 4.0);
        if route0_floor > Duration::from_secs(3) {
            assert!(
                left_ready_after < Duration::from_millis(1500),
                "last route only began draining after {left_ready_after:?}; \
                 drain is not concurrent (route-0 backlog floor {route0_floor:?})"
            );
        }
        // (b) Admitted work is never abandoned when the budget allows it.
        for req in backlog_first.iter().chain(&backlog_last) {
            req.wait().expect("queued request resolves Ok within the budget");
        }
        // (c) One call, one budget, every route Stopped.
        assert!(wall < Duration::from_secs(60), "drain overran the budget: {wall:?}");
        assert_eq!(registry.health(), EngineHealth::Stopped);
        for e in registry.entries() {
            assert_eq!(e.engine.health(), EngineHealth::Stopped, "{}", e.spec.kind.name());
        }
    });
}

/// Set in the environment of the server process that
/// `sigterm_drains_a_server_process` starts from this test binary: with it,
/// the test plays the server instead of the driver.
#[cfg(unix)]
const DRILL_SERVER_ENV: &str = "NET_SERVE_DRILL_SERVER";

/// The drill's server role: all four routes behind a `NetServer` on an
/// ephemeral port, the address on stdout, then serve until SIGTERM (polled
/// through `install_sigterm_flag`) and drain. Its assertions decide the
/// process's exit code.
#[cfg(unix)]
fn serve_until_sigterm() {
    let sigterm = neocpu_net::install_sigterm_flag();
    let server =
        NetServer::bind(registry(&ServeOptions::default()), "127.0.0.1:0").expect("bind");
    println!("listening on {}", server.local_addr());
    std::io::stdout().flush().expect("flush stdout");
    let waiting = std::time::Instant::now();
    while !sigterm.load(std::sync::atomic::Ordering::Acquire) {
        // Bounds an orphaned server's life if the driver dies.
        assert!(waiting.elapsed() < Duration::from_secs(120), "no SIGTERM within 120 s");
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown_within(Duration::from_secs(10));
    let health = server.health();
    println!("drained: health {health:?}");
    assert_eq!(health, EngineHealth::Stopped, "SIGTERM drain left the server {health:?}");
}

/// The cross-process SIGTERM drill. The driver starts this binary again as
/// the server (`DRILL_SERVER_ENV`) and, over TCP:
/// 1. sends 4 clients × 8 requests round-robin across the four routes;
///    every reply must be `Ok` with its route's reference row;
/// 2. asks `Health` on the wire: `Ready`;
/// 3. has each client write one more request (one per route), then sends
///    SIGTERM; each gets exactly one answer, `Ok` (with the reference row)
///    or `Shutdown`, and then EOF;
/// 4. the server process must exit within 30 s, with status 0 and health
///    `Stopped`.
///
/// Every wait has a deadline, so a server that ignores the signal or
/// drains badly fails with a message instead of hanging.
#[cfg(unix)]
#[test]
fn sigterm_drains_a_server_process() {
    use std::io::{BufRead, BufReader};
    use std::process::{Child, Command, Stdio};
    use std::time::Instant;

    if std::env::var_os(DRILL_SERVER_ENV).is_some() {
        return serve_until_sigterm();
    }

    /// Kills the server if the driver fails before it exits.
    struct ServerProcess(Child);
    impl Drop for ServerProcess {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }

    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGTERM: i32 = 15;
    const BUDGET: Duration = Duration::from_secs(30);

    let exe = std::env::current_exe().expect("test binary path");
    let mut server = ServerProcess(
        Command::new(exe)
            .args(["sigterm_drains_a_server_process", "--exact", "--nocapture"])
            .env(DRILL_SERVER_ENV, "1")
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn the server process"),
    );
    // The server's stdout, line by line, so every wait below has a deadline.
    let (tx, lines) = std::sync::mpsc::channel();
    let stdout = server.0.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines().map_while(|l| l.ok()) {
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    let oracles = Oracle::all();
    let addr: SocketAddr = loop {
        let line = lines
            .recv_timeout(Duration::from_secs(120))
            .expect("the server process never reported its address");
        if let Some(addr) = line.strip_prefix("listening on ") {
            break addr.parse().expect("server address");
        }
    };
    let dial = || {
        let stream = connect(addr);
        stream.set_read_timeout(Some(BUDGET)).expect("read timeout");
        stream
    };

    // 1. 4 clients × 8 requests, round-robin across the routes.
    const CLIENTS: u64 = 4;
    const REQUESTS: u64 = 8;
    let route = |client: u64, r: u64| &oracles[((client + r) % oracles.len() as u64) as usize];
    let mut clients: Vec<TcpStream> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let (route, dial) = (&route, &dial);
                scope.spawn(move || {
                    let mut stream = dial();
                    for r in 0..REQUESTS {
                        let rid = (client << 32) | r;
                        let oracle = route(client, r);
                        send_request(&mut stream, &oracle.frame(rid)).expect("request write");
                        oracle.assert_ok(rid, &read_response(&mut stream).expect("response read"));
                    }
                    stream
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });

    // 2. Health on the wire before the signal.
    let mut probe = dial();
    let health = RequestFrame {
        kind: FrameKind::Health,
        payload: &[],
        ..oracles[0].frame(7)
    };
    send_request(&mut probe, &health).expect("health write");
    assert_eq!(
        read_response(&mut probe),
        Some(Resp::Health { request_id: 7, health: EngineHealth::Ready })
    );

    // 3. One more request per client, in flight on its accepted connection
    //    (one per route), then SIGTERM.
    for (client, stream) in (0..).zip(&mut clients) {
        let rid = (client << 32) | REQUESTS;
        send_request(stream, &route(client, REQUESTS).frame(rid)).expect("request write");
    }
    let pid = i32::try_from(server.0.id()).expect("pid fits in i32");
    // SAFETY: `kill` only sends a signal to the server process.
    assert_eq!(unsafe { kill(pid, SIGTERM) }, 0, "kill(SIGTERM) failed");
    for (client, stream) in (0..).zip(&mut clients) {
        let rid = (client << 32) | REQUESTS;
        match read_response(stream) {
            Some(Resp::Shutdown { request_id }) => assert_eq!(request_id, rid, "id echo"),
            Some(resp) => route(client, REQUESTS).assert_ok(rid, &resp),
            None => panic!("request {rid:#x} in flight at SIGTERM got no answer"),
        }
    }

    // 4. The server exits 0, drained to `Stopped`.
    let deadline = Instant::now() + BUDGET;
    let status = loop {
        if let Some(status) = server.0.try_wait().expect("poll the server process") {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "server process still running {BUDGET:?} after SIGTERM: the signal started no drain"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    let rest: Vec<String> = lines.iter().collect();
    reader.join().expect("stdout reader thread");
    assert!(status.success(), "server process exited with {status}; its stdout tail: {rest:?}");
    assert!(
        rest.iter().any(|l| l == "drained: health Stopped"),
        "server process did not report health Stopped: {rest:?}"
    );
    // Exactly once: nothing follows each in-flight request's answer.
    for (client, stream) in clients.iter_mut().enumerate() {
        assert_eq!(read_response(stream), None, "a second answer to client {client}");
    }
}
