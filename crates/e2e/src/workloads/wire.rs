//! Workload 5: an in-process `NetServer` over four tiny routes, driven over
//! loopback TCP by an open loop — a seeded Poisson schedule at three fixed
//! rates. Each request is timed from the instant it was due, so a stall
//! charges its wait to every request queued behind it.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use neocpu::{Request, ServeOptions};
use neocpu_models::{ModelKind, ModelScale};
use neocpu_net::{
    decode_request, decode_response, encode_request, encode_response, FrameError, FrameKind,
    ModelRegistry, ModelSpec, NetServer, RequestFrame, ResponseFrame, WireDtype, RESP_HEADER_LEN,
};
use neocpu_threadpool::ThreadPool;

use super::model_latency::{p50_ms, report_exec, ExecProfile};
use super::serve_batch::{batch_input, engine_metrics};
use super::{
    client_metrics, end_to_end, judged, max_abs_diff, ms, oracle_check, repeat_setup,
    seeded_inputs, Cfg, Window, Workload,
};
use crate::metrics::{Outcome, Values};
use crate::rng::{poisson_schedule, Rng};
use crate::stats::{best_rate, percentile, quietest_p50, sorted};
use crate::trace::{SpanId, Trace, Tracer};
use crate::{host, probes, Res};

/// Total offered load of the three phases, requests per second over all
/// connections: about 25 %, 50 % and 85 % of the 2-connection closed-loop
/// capacity measured on the commit that added the benchmark (`e2e
/// calibrate`; procedure in the README). Frozen: a later change is judged at
/// the same offered load.
pub const RATES_RPS: [f64; 3] = [115.0, 230.0, 390.0];
/// A reply later than this after its due instant misses: 4 × the `low`-rate
/// p90 at calibration, rounded up.
pub const LIMIT_MS: f64 = 38.0;

const ROUTES: [(ModelKind, WireDtype); 4] = [
    (ModelKind::MobileNet, WireDtype::F32),
    (ModelKind::MobileNet, WireDtype::Int8),
    (ModelKind::ResNet50, WireDtype::F32),
    (ModelKind::ResNet50, WireDtype::Int8),
];
const BATCH: usize = 4;
const INPUTS_PER_ROUTE: usize = 8;
const SETUP_REPS: usize = 3;

/// One route's seeded inputs as wire payloads, and the score rows its own
/// module gives for them.
struct Route {
    kind: ModelKind,
    dtype: WireDtype,
    inputs: Vec<neocpu_tensor::Tensor>,
    payloads: Vec<Vec<u8>>,
    expected: Vec<Vec<f32>>,
}

fn le_bytes(values: &[f32]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn le_floats(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .collect()
}

fn argmax(row: &[f32]) -> u32 {
    let mut best = (0u32, f32::NEG_INFINITY);
    for (i, &v) in row.iter().enumerate() {
        if v > best.1 {
            best = (i as u32, v);
        }
    }
    best.0
}

/// The server, its registry, and one client connection per generator thread.
struct Service {
    registry: Arc<ModelRegistry>,
    server: NetServer,
    clients: Vec<Client>,
    compile_ms: f64,
    connect_ms: f64,
}

impl Service {
    fn start() -> Res<Self> {
        let specs: Vec<ModelSpec> = ROUTES
            .iter()
            .map(|&(kind, dtype)| ModelSpec::serving(kind, dtype, false, BATCH))
            .collect();
        let t = Instant::now();
        let registry = Arc::new(ModelRegistry::compile(&specs, &ServeOptions::default())?);
        let compile_ms = ms(t);
        let server = NetServer::bind(registry.clone(), "127.0.0.1:0")?;
        let t = Instant::now();
        let clients = (0..host::threads())
            .map(|_| Client::connect(&server, registry.max_input_bytes()))
            .collect::<Res<Vec<_>>>()?;
        let connect_ms = ms(t) / clients.len() as f64;
        Ok(Self {
            registry,
            server,
            clients,
            compile_ms,
            connect_ms,
        })
    }

    /// Seeded inputs for every route, with the rows the route's own module
    /// computes for them (the image in every row of a full batch).
    fn routes(&self, seed: u64) -> Res<Vec<Route>> {
        let mut rng = Rng::new(seed);
        ROUTES
            .iter()
            .map(|&(kind, dtype)| {
                let entry = self
                    .registry
                    .route(kind, dtype)
                    .ok_or("route missing from registry")?;
                let inputs =
                    seeded_inputs(rng.next_u64(), ModelScale::tiny(kind), INPUTS_PER_ROUTE)?;
                let mut ctx = entry.module.make_context();
                let expected = inputs
                    .iter()
                    .map(|x| {
                        entry.module.run_with(&mut ctx, &[batch_input(x, BATCH)?])?;
                        let all = ctx.output(0).ok_or("module has no output")?.data();
                        Ok(all[..all.len() / BATCH].to_vec())
                    })
                    .collect::<Res<Vec<_>>>()?;
                let payloads = inputs.iter().map(|x| le_bytes(x.data())).collect();
                Ok(Route {
                    kind,
                    dtype,
                    inputs,
                    payloads,
                    expected,
                })
            })
            .collect()
    }
}

/// How one request ended, as the client saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Reply {
    /// `Ok`, and the scores and argmax are the expected ones.
    Good,
    /// `Ok` with the wrong scores or argmax.
    Wrong,
    Busy,
    Deadline,
    /// `Shutdown`, `Error`, an undecodable frame or a broken socket.
    Error,
}

struct Client {
    stream: TcpStream,
    out: Vec<u8>,
    reply: Vec<u8>,
}

impl Client {
    fn connect(server: &NetServer, max_payload: usize) -> Res<Self> {
        let stream = TcpStream::connect(server.local_addr())?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            out: Vec::with_capacity(max_payload + 64),
            reply: Vec::with_capacity(4096),
        })
    }

    /// Encodes, sends, reads and decodes one request, then judges the reply
    /// against `route.expected[input]`.
    fn exchange(
        &mut self,
        route: &Route,
        input: usize,
        request_id: u64,
        mut span: Option<(&mut Tracer, SpanId)>,
    ) -> Reply {
        let sub = |name, tracer: &mut Option<(&mut Tracer, SpanId)>| {
            tracer
                .as_mut()
                .map(|(t, op)| t.begin(name, Some(*op), request_id))
        };
        let end = |id: Option<SpanId>, tracer: &mut Option<(&mut Tracer, SpanId)>| {
            if let (Some((t, _)), Some(id)) = (tracer.as_mut(), id) {
                t.end(id);
            }
        };
        let s = sub("net.encode", &mut span);
        let frame = RequestFrame {
            request_id,
            kind: FrameKind::Infer,
            model: route.kind,
            dtype: route.dtype,
            deadline_us: 0,
            payload: &route.payloads[input],
        };
        encode_request(&frame, &mut self.out);
        end(s, &mut span);

        let s = sub("net.roundtrip", &mut span);
        let received = self.roundtrip();
        end(s, &mut span);
        if received.is_err() {
            return Reply::Error;
        }

        let s = sub("net.decode", &mut span);
        let reply = match decode_response(&self.reply) {
            Ok((
                ResponseFrame::Ok {
                    request_id: id,
                    argmax: top,
                    scores,
                },
                _,
            )) if id == request_id => {
                let row = le_floats(scores);
                let want = &route.expected[input];
                if max_abs_diff(want, &row) <= 1e-5 && top == argmax(&row) {
                    Reply::Good
                } else {
                    Reply::Wrong
                }
            }
            Ok((ResponseFrame::Busy { .. }, _)) => Reply::Busy,
            Ok((ResponseFrame::DeadlineExceeded { .. }, _)) => Reply::Deadline,
            _ => Reply::Error,
        };
        end(s, &mut span);
        reply
    }

    /// Writes `self.out` and reads exactly one response frame into
    /// `self.reply`, asking the decoder how long the frame is.
    fn roundtrip(&mut self) -> Res<()> {
        self.stream.write_all(&self.out)?;
        self.reply.resize(RESP_HEADER_LEN, 0);
        self.stream.read_exact(&mut self.reply)?;
        if let Err(FrameError::Truncated { have, need }) = decode_response(&self.reply) {
            self.reply.resize(need, 0);
            self.stream.read_exact(&mut self.reply[have..])?;
        }
        Ok(())
    }
}

/// One request of a paced phase, in ns from the phase start.
#[derive(Debug, Clone, Copy)]
struct Sample {
    due_ns: u64,
    sent_ns: u64,
    done_ns: u64,
    reply: Reply,
}

impl Sample {
    /// Time from when the request was due to its decoded reply.
    fn latency_ms(&self) -> f64 {
        self.done_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }

    /// How late the generator sent it.
    fn late_ms(&self) -> f64 {
        self.sent_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }
}

/// Sends request `j` at `start + due[j]` — or at once if that instant has
/// passed — and records due, send and completion times. Never skips a
/// request and never re-bases the schedule: a slow reply delays the
/// requests behind it and their latency, counted from the due instant,
/// shows it.
fn pace(start: Instant, due: &[u64], mut exchange: impl FnMut(usize) -> Reply) -> Vec<Sample> {
    let now_ns = || start.elapsed().as_nanos() as u64;
    due.iter()
        .enumerate()
        .map(|(j, &due_ns)| {
            if let Some(wait) = Duration::from_nanos(due_ns).checked_sub(start.elapsed()) {
                std::thread::sleep(wait);
            }
            let sent_ns = now_ns();
            let reply = exchange(j);
            Sample {
                due_ns,
                sent_ns,
                done_ns: now_ns(),
                reply,
            }
        })
        .collect()
}

/// Request `j` of connection `c` goes to route `(j + c) mod 4` with input
/// `(j / 4) mod 8`: every connection cycles through every route.
fn target(j: usize, conn: usize) -> (usize, usize) {
    (
        (j + conn) % ROUTES.len(),
        (j / ROUTES.len()) % INPUTS_PER_ROUTE,
    )
}

/// What drives the requests of a phase: the wire, or the engines directly.
type Exchange<'a> = Box<dyn FnMut(usize, Option<(&mut Tracer, SpanId)>) -> Reply + Send + 'a>;

/// Runs one phase: connection `c` follows `schedules[c]` on its own thread.
fn run_phase(
    exchanges: Vec<Exchange<'_>>,
    schedules: &[Vec<u64>],
    tracers: Option<&mut [Tracer]>,
) -> Vec<Sample> {
    let start = Instant::now() + Duration::from_millis(2);
    let mut tracer_slots: Vec<Option<&mut Tracer>> = match tracers {
        Some(ts) => ts.iter_mut().map(Some).collect(),
        None => exchanges.iter().map(|_| None).collect(),
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = exchanges
            .into_iter()
            .zip(schedules)
            .zip(tracer_slots.drain(..))
            .map(|((mut exchange, due), mut tracer)| {
                scope.spawn(move || {
                    // `start` lies slightly ahead so both threads are up
                    // before the first request is due.
                    while Instant::now() < start {
                        std::thread::yield_now();
                    }
                    pace(start, due, |j| match tracer.as_deref_mut() {
                        Some(t) => {
                            let op = t.begin("client.op", None, j as u64);
                            let reply = exchange(j, Some((t, op)));
                            t.end(op);
                            reply
                        }
                        None => exchange(j, None),
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread panicked"))
            .collect()
    })
}

fn wire_exchanges<'a>(clients: &'a mut [Client], routes: &'a [Route]) -> Vec<Exchange<'a>> {
    clients
        .iter_mut()
        .enumerate()
        .map(|(c, client)| -> Exchange<'a> {
            Box::new(move |j, span| {
                let (route, input) = target(j, c);
                client.exchange(&routes[route], input, j as u64, span)
            })
        })
        .collect()
}

/// The same requests handed straight to each route's engine — `make_request`
/// once, then `fill_le_bytes → submit → wait` — with no socket or codec.
fn engine_exchanges<'a>(
    registry: &'a ModelRegistry,
    routes: &'a [Route],
    conns: usize,
) -> Vec<Exchange<'a>> {
    (0..conns)
        .map(|c| -> Exchange<'a> {
            let slots: Vec<Arc<Request>> = registry
                .entries()
                .iter()
                .map(|e| e.engine.make_request())
                .collect();
            Box::new(move |j, mut span| {
                let (route, input) = target(j, c);
                let s = span
                    .as_mut()
                    .map(|(t, op)| t.begin("serve.submit_wait", Some(*op), j as u64));
                let slot = &slots[route];
                let done = slot
                    .fill_le_bytes(&routes[route].payloads[input], None)
                    .and_then(|()| registry.entries()[route].engine.submit(slot))
                    .and_then(|()| slot.wait())
                    .and_then(|()| slot.with_outputs(|o| o[0].data().to_vec()));
                if let (Some((t, _)), Some(s)) = (span.as_mut(), s) {
                    t.end(s);
                }
                match done {
                    Ok(row) if max_abs_diff(&routes[route].expected[input], &row) <= 1e-5 => {
                        Reply::Good
                    }
                    Ok(_) => Reply::Wrong,
                    Err(_) => Reply::Error,
                }
            })
        })
        .collect()
}

/// Independent Poisson streams, one per connection, that together offer
/// `rate_rps` for `seconds`.
fn schedules(rng: &mut Rng, rate_rps: f64, seconds: f64, conns: usize) -> Vec<Vec<u64>> {
    (0..conns)
        .map(|_| poisson_schedule(rng, rate_rps / conns as f64, seconds))
        .collect()
}

/// What one phase measured; samples in due order.
struct Phase {
    samples: Vec<Sample>,
    elapsed_s: f64,
}

impl Phase {
    fn new(mut samples: Vec<Sample>) -> Self {
        samples.sort_by_key(|s| s.due_ns);
        let end_ns = samples.iter().map(|s| s.done_ns).max().unwrap_or(0);
        Self {
            samples,
            elapsed_s: end_ns as f64 / 1e9,
        }
    }

    /// Latency from the due instant, in due order.
    fn latencies(&self) -> Vec<f64> {
        self.samples.iter().map(Sample::latency_ms).collect()
    }

    fn p(&self, q: f64) -> f64 {
        percentile(&sorted(&self.latencies()), q)
    }

    fn count(&self, reply: Reply) -> u64 {
        self.samples.iter().filter(|s| s.reply == reply).count() as u64
    }

    /// Correct replies within `LIMIT_MS` of their due instant, per second.
    fn goodput_rps(&self) -> f64 {
        let good = self
            .samples
            .iter()
            .filter(|s| s.reply == Reply::Good && s.latency_ms() <= LIMIT_MS)
            .count();
        good as f64 / self.elapsed_s
    }

    /// Whether the rate was sustained: p90 within the limit, and the
    /// generator no further behind in the last quarter of the schedule than
    /// the limit (a backlog that grows shows there first).
    fn sustained(&self) -> bool {
        let tail: Vec<f64> = self.samples[self.samples.len() * 3 / 4..]
            .iter()
            .map(Sample::late_ms)
            .collect();
        self.p(0.9) <= LIMIT_MS && percentile(&sorted(&tail), 0.5) <= LIMIT_MS
    }

    /// Ascending completion times, in seconds, of the correct replies.
    fn good_done_s(&self) -> Vec<f64> {
        let mut done: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.reply == Reply::Good)
            .map(|s| s.done_ns as f64 / 1e9)
            .collect();
        done.sort_by(f64::total_cmp);
        done
    }

    /// Requests that did not come back correct.
    fn failed(&self) -> u64 {
        self.samples.len() as u64 - self.count(Reply::Good)
    }

    fn window(&self) -> Window {
        Window {
            latency_ms: self.latencies(),
            done_s: Vec::new(),
            attempted: self.samples.len() as u64,
            failed: self.failed(),
            elapsed_s: self.elapsed_s,
            cpu_ms: 0.0,
        }
    }
}

/// Checks every route's expected rows against the O0 oracle; returns the
/// largest error and the number of (route, input) pairs that were wrong.
fn oracle(routes: &[Route]) -> Res<(f32, usize)> {
    let mut worst = (0f32, 0usize);
    for r in routes {
        let v = oracle_check(
            r.kind,
            ModelScale::tiny(r.kind),
            r.dtype == WireDtype::Int8,
            &r.inputs,
            &r.expected,
        )?;
        worst = (worst.0.max(v.max_abs_err), worst.1 + v.wrong);
    }
    Ok(worst)
}

/// The three open-loop phases, `seconds` each, over the wire.
fn rate_phases(
    service: &mut Service,
    routes: &[Route],
    seed: u64,
    seconds: f64,
    mut tracers: Option<&mut [Tracer]>,
) -> Vec<Phase> {
    let mut rng = Rng::new(seed ^ 0x5eed_a221);
    let conns = service.clients.len();
    RATES_RPS
        .iter()
        .map(|&rate| {
            let due = schedules(&mut rng, rate, seconds, conns);
            Phase::new(run_phase(
                wire_exchanges(&mut service.clients, routes),
                &due,
                tracers.as_deref_mut(),
            ))
        })
        .collect()
}

/// The closed-loop phase: every connection sends its next request the
/// moment the previous reply is decoded, for `seconds`. What it completes
/// per second is the wire's capacity at this many connections.
fn closed_phase(clients: &mut [Client], routes: &[Route], seconds: f64) -> Phase {
    let start = Instant::now();
    let stop_ns = (seconds * 1e9) as u64;
    let now_ns = move || start.elapsed().as_nanos() as u64;
    let samples = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    for j in 0.. {
                        let sent_ns = now_ns();
                        if sent_ns >= stop_ns {
                            break;
                        }
                        let (route, input) = target(j, c);
                        let reply = client.exchange(&routes[route], input, j as u64, None);
                        samples.push(Sample {
                            due_ns: sent_ns,
                            sent_ns,
                            done_ns: now_ns(),
                            reply,
                        });
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    Phase::new(samples)
}

fn verdict(phases: &[&Phase], wrong_pairs: usize, values: Values) -> Outcome {
    let attempted = phases.iter().map(|p| p.samples.len() as u64).sum();
    let failed = phases.iter().map(|p| p.failed()).sum();
    for (i, p) in phases.iter().enumerate().filter(|(_, p)| p.failed() > 0) {
        eprintln!(
            "phase {i}: {} wrong, {} busy, {} deadline, {} error of {} requests",
            p.count(Reply::Wrong),
            p.count(Reply::Busy),
            p.count(Reply::Deadline),
            p.count(Reply::Error),
            p.samples.len()
        );
    }
    judged(
        attempted,
        failed,
        wrong_pairs,
        ROUTES.len() * INPUTS_PER_ROUTE,
        values,
    )
}

/// The untraced run: a quarter of the window at each of the three rates,
/// then a quarter closed loop. `latency_p50_ms` is taken at rate `low` and
/// `images_per_s` from the closed loop: queueing multiplies every change in
/// service time by 1/(1 − utilisation), the host's own swings included, so
/// over ten runs the p50 at `mid` ranged ±12 % where the p50 at `low`
/// ranged ±4 %.
pub fn run(cfg: &Cfg) -> Res<Outcome> {
    let ((mut service, routes), setup_s) = repeat_setup(SETUP_REPS, || {
        let mut service = Service::start()?;
        let routes = service.routes(cfg.seed)?;
        for route in &routes {
            if service.clients[0].exchange(route, 0, 0, None) != Reply::Good {
                return Err(format!(
                    "first request on {} {} failed",
                    route.kind.name(),
                    route.dtype
                )
                .into());
            }
        }
        Ok((service, routes))
    })?;
    let phases = rate_phases(&mut service, &routes, cfg.seed, cfg.seconds / 4.0, None);
    let closed = closed_phase(&mut service.clients, &routes, cfg.seconds / 4.0);

    let mut values = Values::default();
    end_to_end(
        &mut values,
        quietest_p50(&phases[0].latencies()),
        best_rate(&closed.good_done_s()),
        &setup_s,
    );
    service.server.shutdown();
    drop(service);

    let (_, wrong_pairs) = oracle(&routes)?;
    let mut all: Vec<&Phase> = phases.iter().collect();
    all.push(&closed);
    Ok(verdict(&all, wrong_pairs, values))
}

/// Mean time, µs, of encoding and of decoding this workload's own request
/// and response frames; and the bytes one request moves both ways.
fn codec_metrics(values: &mut Values, routes: &[Route]) {
    const REPS: usize = 200;
    let (mut encode_s, mut decode_s, mut bytes) = (0.0, 0.0, 0usize);
    let (mut req, mut resp) = (Vec::new(), Vec::new());
    for r in routes {
        let frame = RequestFrame {
            request_id: 1,
            kind: FrameKind::Infer,
            model: r.kind,
            dtype: r.dtype,
            deadline_us: 0,
            payload: &r.payloads[0],
        };
        let scores = le_bytes(&r.expected[0]);
        let ok = ResponseFrame::Ok {
            request_id: 1,
            argmax: argmax(&r.expected[0]),
            scores: &scores,
        };
        let t = Instant::now();
        for _ in 0..REPS {
            encode_request(std::hint::black_box(&frame), &mut req);
            encode_response(std::hint::black_box(&ok), &mut resp);
        }
        encode_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        for _ in 0..REPS {
            let _ = std::hint::black_box(decode_request(std::hint::black_box(&req)));
            let _ = std::hint::black_box(decode_response(std::hint::black_box(&resp)));
        }
        decode_s += t.elapsed().as_secs_f64();
        bytes += req.len() + resp.len();
    }
    let calls = (REPS * routes.len()) as f64;
    values.set("net.encode_us", encode_s * 1e6 / calls);
    values.set("net.decode_us", decode_s * 1e6 / calls);
    values.set("net.bytes_per_req", bytes as f64 / routes.len() as f64);
}

/// The traced run: the same phases at half length with spans, then rate
/// `low` once more with the wire taken away.
pub fn trace(workload: Workload, cfg: &Cfg) -> Res<Outcome> {
    let mut values = Values::default();
    let mut service = Service::start()?;
    let routes = service.routes(cfg.seed)?;
    values.set("compile.total_ms", service.compile_ms);
    values.set("net.connect_ms", service.connect_ms);
    values.set(
        "quantize.convs_int8",
        service
            .registry
            .entries()
            .iter()
            .map(|e| e.quantized_convs)
            .sum::<usize>() as f64,
    );
    let conns = service.clients.len();
    let phase_s = cfg.seconds / 8.0;

    // The untraced base for the tracing overhead: rate `low`.
    let due = schedules(&mut Rng::new(cfg.seed), RATES_RPS[0], phase_s, conns);
    let base = Phase::new(run_phase(
        wire_exchanges(&mut service.clients, &routes),
        &due,
        None,
    ));

    let epoch = Instant::now();
    let mut tracers: Vec<Tracer> = (0..conns).map(|_| Tracer::new(epoch, 1 << 17)).collect();
    let cpu0 = host::cpu_ms();
    let phases = rate_phases(
        &mut service,
        &routes,
        cfg.seed,
        phase_s,
        Some(&mut tracers[..]),
    );
    let cpu_ms = host::cpu_ms() - cpu0;
    let closed = closed_phase(&mut service.clients, &routes, phase_s);
    values.set(
        "trace.overhead_pct",
        100.0 * (phases[0].p(0.5) / base.p(0.5) - 1.0),
    );
    engine_metrics(
        &mut values,
        &service
            .registry
            .reports()
            .into_iter()
            .map(|(_, r)| r)
            .collect::<Vec<_>>(),
    );

    const P50: [&str; 3] = [
        "client.lat_p50_ms.low",
        "client.lat_p50_ms.mid",
        "client.lat_p50_ms.high",
    ];
    const P90: [&str; 3] = [
        "client.lat_p90_ms.low",
        "client.lat_p90_ms.mid",
        "client.lat_p90_ms.high",
    ];
    for (i, phase) in phases.iter().enumerate() {
        values.set(P50[i], phase.p(0.5));
        values.set(P90[i], phase.p(0.9));
    }
    // Whole-window client numbers are those of rate `low`, the gated rate;
    // counts and CPU time cover all three rates.
    let mut all = phases[0].window();
    all.attempted = phases.iter().map(|p| p.samples.len() as u64).sum();
    all.failed = phases.iter().map(|p| p.failed()).sum();
    all.cpu_ms = cpu_ms;
    client_metrics(&mut values, &all);
    values.set("client.images_per_s", closed.window().rate());
    values.set("client.goodput_rps", phases[2].goodput_rps());
    let late: Vec<f64> = phases
        .iter()
        .flat_map(|p| p.samples.iter().map(Sample::late_ms))
        .collect();
    values.set("client.gen_late_p90_ms", percentile(&sorted(&late), 0.9));
    let sustained = phases
        .iter()
        .zip(RATES_RPS)
        .filter(|(p, _)| p.sustained())
        .map(|(_, r)| r);
    values.set("client.max_rate_ok_rps", sustained.fold(0.0, f64::max));
    values.set(
        "client.busy",
        phases.iter().map(|p| p.count(Reply::Busy)).sum::<u64>() as f64,
    );
    values.set(
        "client.deadline",
        phases.iter().map(|p| p.count(Reply::Deadline)).sum::<u64>() as f64,
    );
    values.set(
        "client.errors",
        phases
            .iter()
            .map(|p| p.count(Reply::Error) + p.count(Reply::Wrong))
            .sum::<u64>() as f64,
    );

    // Rate `low` again, same schedule, handed straight to the engines: what
    // is left is the engine; what went is the wire.
    let due = schedules(
        &mut Rng::new(cfg.seed ^ 0x5eed_a221),
        RATES_RPS[0],
        phase_s,
        conns,
    );
    let direct = Phase::new(run_phase(
        engine_exchanges(&service.registry, &routes, conns),
        &due,
        Some(&mut tracers[..]),
    ));
    let mut batch_ms = 0.0;
    let mut exec = [0f64; 7];
    for (entry, route) in service.registry.entries().iter().zip(&routes) {
        let full = batch_input(&route.inputs[0], BATCH)?;
        batch_ms += p50_ms(&entry.module, &full, Duration::from_millis(100))? / ROUTES.len() as f64;
        let mut profile = ExecProfile::default();
        for _ in 0..5 {
            profile.run(&entry.module, &full, None)?;
        }
        for (sum, m) in exec.iter_mut().zip(profile.medians()) {
            *sum += m / ROUTES.len() as f64;
        }
    }
    let covered = report_exec(&mut values, exec);
    values.set("exec.profile_cover", covered / batch_ms);
    values.set("exec.batch_run_ms", batch_ms);
    values.set("serve.engine_latency_p50_ms", direct.p(0.5));
    values.set("serve.overhead_ms", direct.p(0.5) - batch_ms);
    values.set("net.wire_overhead_ms", phases[0].p(0.5) - direct.p(0.5));
    codec_metrics(&mut values, &routes);

    service.server.shutdown();
    drop(service);
    probes::fixed_shapes(&mut values, &ThreadPool::new(host::threads()), cfg.smoke)?;
    let trace = Trace::merge(tracers);
    values.set("trace.dropped_spans", trace.dropped as f64);
    trace.write(
        &cfg.results_dir
            .join(format!("{}.trace.json", workload.name())),
    )?;

    let (max_err, wrong_pairs) = oracle(&routes)?;
    values.set("exec.output_max_abs_err", f64::from(max_err));
    let mut all_phases: Vec<&Phase> = phases.iter().collect();
    all_phases.extend([&base, &closed, &direct]);
    Ok(verdict(&all_phases, wrong_pairs, values))
}

/// `e2e calibrate`: the closed-loop capacity and the `low`-rate p90 the
/// frozen constants above were derived from.
pub fn calibrate(cfg: &Cfg) -> Res<String> {
    let mut service = Service::start()?;
    let routes = service.routes(cfg.seed)?;
    let conns = service.clients.len();
    let capacity = closed_phase(&mut service.clients, &routes, cfg.seconds)
        .window()
        .rate();
    let low = 0.25 * capacity;
    let due = schedules(&mut Rng::new(cfg.seed), low, cfg.seconds, conns);
    let phase = Phase::new(run_phase(
        wire_exchanges(&mut service.clients, &routes),
        &due,
        None,
    ));
    service.server.shutdown();
    Ok(format!(
        "closed-loop capacity {capacity:.0} rps over {conns} connections\n\
         rates at 25/50/85 %: {low:.0} / {:.0} / {:.0} rps\n\
         p90 at {low:.0} rps: {:.3} ms -> limit_ms = {:.0}",
        0.5 * capacity,
        0.85 * capacity,
        phase.p(0.9),
        (4.0 * phase.p(0.9)).ceil()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_counts_from_the_due_instant_not_the_send() {
        // A server that stalls 40 ms on the first request only. The three
        // requests behind it were due during the stall: their own service
        // is instant, but their latency must carry the wait.
        let due = [0u64, 1_000_000, 2_000_000, 3_000_000];
        let samples = pace(Instant::now(), &due, |j| {
            if j == 0 {
                std::thread::sleep(Duration::from_millis(40));
            }
            Reply::Good
        });
        assert_eq!(samples.len(), 4);
        assert!(samples[0].latency_ms() >= 40.0);
        for s in &samples[1..] {
            assert!(s.late_ms() >= 35.0, "generator lateness {}", s.late_ms());
            assert!(
                s.latency_ms() >= 35.0,
                "latency from due {}",
                s.latency_ms()
            );
            let service_ms = (s.done_ns - s.sent_ns) as f64 / 1e6;
            assert!(
                service_ms < 30.0,
                "the stall is not these requests' own service time"
            );
        }
        // Nothing is skipped and nothing is sent early.
        let far = [0u64, 30_000_000];
        let samples = pace(Instant::now(), &far, |_| Reply::Good);
        assert!(samples[1].sent_ns >= 30_000_000);
        assert!(samples[1].late_ms() < 25.0);
    }

    #[test]
    fn every_connection_visits_every_route() {
        for conn in 0..2 {
            let mut seen = [false; 4];
            for j in 0..4 {
                seen[target(j, conn).0] = true;
            }
            assert_eq!(seen, [true; 4]);
        }
        assert_eq!(target(4, 0), (0, 1));
        assert_eq!(target(4 * INPUTS_PER_ROUTE, 0), (0, 0));
    }
}
