//! Wire-level serving driver (EXPERIMENTS.md E11), speaking the
//! `neocpu-net` binary protocol end to end across two processes.
//!
//! Two modes:
//!
//! - `--serve [--port N]`: compile the default registry (ResNet-50,
//!   Inception-v3, MobileNet; `--int8` adds the quantized-zoo routes),
//!   listen on `127.0.0.1:N`, and drain gracefully on SIGTERM — the CI
//!   `net-serve-smoke` job asserts the exit code proves a clean drain.
//! - `--addr HOST:PORT`: drive `--clients` concurrent client threads,
//!   `--requests` frames each, round-robin across every route, printing
//!   the E11 latency/outcome table.
//!
//! Shared flags: `--int8`, `--full`, `--batch N`, `--workers N` (per
//! route), `--requests N`, `--clients N`, `--deadline-us N`.
//! Client flags `--int8`/`--full` must match the server's so both sides
//! derive the same route list and payload sizes.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use neocpu::{EngineHealth, ServeOptions};
use neocpu_net::{
    decode_response, default_specs, encode_request, FrameKind, ModelRegistry, ModelSpec,
    NetServer, RequestFrame, ResponseFrame, RESP_HEADER_LEN,
};

#[derive(Debug, Clone)]
struct Cfg {
    serve: bool,
    port: u16,
    addr: Option<String>,
    int8: bool,
    full: bool,
    batch: usize,
    workers: usize,
    clients: usize,
    requests: usize,
    deadline_us: u32,
}

impl Default for Cfg {
    fn default() -> Self {
        Self {
            serve: false,
            port: 7740,
            addr: None,
            int8: false,
            full: false,
            batch: 4,
            workers: 2,
            clients: 4,
            requests: 16,
            deadline_us: 0,
        }
    }
}

fn parse_args() -> Cfg {
    let mut cfg = Cfg::default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--serve" => cfg.serve = true,
            "--int8" => cfg.int8 = true,
            "--full" => cfg.full = true,
            "--port" if i + 1 < args.len() => {
                cfg.port = args[i + 1].parse().unwrap_or(cfg.port);
                i += 1;
            }
            "--addr" if i + 1 < args.len() => {
                cfg.addr = Some(args[i + 1].clone());
                i += 1;
            }
            "--batch" if i + 1 < args.len() => {
                cfg.batch = args[i + 1].parse().unwrap_or(cfg.batch);
                i += 1;
            }
            "--workers" if i + 1 < args.len() => {
                cfg.workers = args[i + 1].parse().unwrap_or(cfg.workers);
                i += 1;
            }
            "--clients" if i + 1 < args.len() => {
                cfg.clients = args[i + 1].parse().unwrap_or(cfg.clients);
                i += 1;
            }
            "--requests" if i + 1 < args.len() => {
                cfg.requests = args[i + 1].parse().unwrap_or(cfg.requests);
                i += 1;
            }
            "--deadline-us" if i + 1 < args.len() => {
                cfg.deadline_us = args[i + 1].parse().unwrap_or(cfg.deadline_us);
                i += 1;
            }
            other => eprintln!("netbench: ignoring unknown flag {other}"),
        }
        i += 1;
    }
    cfg
}

fn serve_options(cfg: &Cfg) -> ServeOptions {
    ServeOptions { workers: cfg.workers.max(1), ..Default::default() }
}

fn compile_registry(cfg: &Cfg) -> Arc<ModelRegistry> {
    let specs = default_specs(cfg.int8, cfg.full, cfg.batch);
    let t0 = Instant::now();
    let registry = ModelRegistry::compile(&specs, &serve_options(cfg))
        .unwrap_or_else(|e| panic!("netbench: registry compile failed: {e}"));
    for e in registry.entries() {
        eprintln!(
            "netbench: route {} {} ready (input {} B, output {} B{})",
            e.spec.kind.name(),
            e.spec.dtype,
            e.input_bytes,
            e.output_bytes,
            if e.quantized_convs > 0 {
                format!(", {} int8 convs", e.quantized_convs)
            } else {
                String::new()
            },
        );
    }
    eprintln!("netbench: {} routes compiled in {:.1}s", registry.entries().len(),
        t0.elapsed().as_secs_f64());
    Arc::new(registry)
}

/// Per-client tally of wire outcomes.
#[derive(Debug, Default, Clone)]
struct Tally {
    ok: u64,
    busy: u64,
    deadline: u64,
    shutdown: u64,
    error: u64,
    /// Deepest queue reported by a `Busy` response.
    busy_depth_max: u32,
    latencies_ms: Vec<f64>,
    /// First protocol-level inconsistency observed (id mismatch, bad
    /// argmax, decode failure), if any.
    fault: Option<String>,
}

impl Tally {
    fn total(&self) -> u64 {
        self.ok + self.busy + self.deadline + self.shutdown + self.error
    }

    fn merge(&mut self, other: Tally) {
        self.ok += other.ok;
        self.busy += other.busy;
        self.deadline += other.deadline;
        self.shutdown += other.shutdown;
        self.error += other.error;
        self.busy_depth_max = self.busy_depth_max.max(other.busy_depth_max);
        self.latencies_ms.extend(other.latencies_ms);
        if self.fault.is_none() {
            self.fault = other.fault;
        }
    }
}

fn connect_retry(addr: &str, budget: Duration) -> std::io::Result<TcpStream> {
    let deadline = Instant::now() + budget;
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => {
                s.set_nodelay(true)?;
                return Ok(s);
            }
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(200));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Reads one complete response frame into `buf` and decodes it; `buf` is
/// reused across calls.
fn read_response(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Result<OwnedResponse, String> {
    buf.resize(RESP_HEADER_LEN, 0);
    stream.read_exact(&mut buf[..RESP_HEADER_LEN]).map_err(|e| format!("read header: {e}"))?;
    let payload_len =
        u32::from_le_bytes([buf[14], buf[15], buf[16], buf[17]]) as usize;
    buf.resize(RESP_HEADER_LEN + payload_len, 0);
    stream
        .read_exact(&mut buf[RESP_HEADER_LEN..])
        .map_err(|e| format!("read payload: {e}"))?;
    let (frame, _) = decode_response(buf).map_err(|e| format!("decode: {e}"))?;
    Ok(OwnedResponse::from(&frame))
}

/// An owned copy of a response (the borrowed frame dies with the buffer).
#[derive(Debug, Clone)]
enum OwnedResponse {
    Ok { request_id: u64, argmax: u32, scores: Vec<f32> },
    Busy { request_id: u64, queue_depth: u32 },
    DeadlineExceeded { request_id: u64 },
    Shutdown { request_id: u64 },
    Error { request_id: u64, message: String },
    Health { request_id: u64, health: EngineHealth },
}

impl From<&ResponseFrame<'_>> for OwnedResponse {
    fn from(f: &ResponseFrame<'_>) -> Self {
        match *f {
            ResponseFrame::Ok { request_id, argmax, scores } => Self::Ok {
                request_id,
                argmax,
                scores: scores
                    .chunks_exact(4)
                    .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
                    .collect(),
            },
            ResponseFrame::Busy { request_id, queue_depth } => {
                Self::Busy { request_id, queue_depth }
            }
            ResponseFrame::DeadlineExceeded { request_id } => {
                Self::DeadlineExceeded { request_id }
            }
            ResponseFrame::Shutdown { request_id } => Self::Shutdown { request_id },
            ResponseFrame::Error { request_id, ref message } => {
                Self::Error { request_id, message: message.to_string() }
            }
            ResponseFrame::Health { request_id, health } => Self::Health { request_id, health },
        }
    }
}

/// Deterministic pseudo-random image payload for `spec`, as LE f32 bytes.
fn make_payload(spec: &ModelSpec, seed: u64) -> Vec<u8> {
    let elems = 3 * spec.scale.input * spec.scale.input;
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    let mut bytes = Vec::with_capacity(elems * 4);
    for _ in 0..elems {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let v = (state >> 40) as f32 / (1u64 << 24) as f32; // [0, 1)
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    bytes
}

/// One client thread's request loop: `requests` frames round-robin across
/// `specs`, one connection, pre-built payloads.
fn run_client(addr: &str, specs: &[ModelSpec], cfg: &Cfg, client_id: u64) -> Tally {
    let mut tally = Tally::default();
    let mut stream = match connect_retry(addr, Duration::from_secs(120)) {
        Ok(s) => s,
        Err(e) => {
            tally.fault = Some(format!("connect {addr}: {e}"));
            return tally;
        }
    };
    let payloads: Vec<Vec<u8>> =
        specs.iter().map(|s| make_payload(s, client_id + 1)).collect();
    let mut frame_buf = Vec::new();
    let mut resp_buf = Vec::new();
    for r in 0..cfg.requests {
        let which = (client_id as usize + r) % specs.len();
        let spec = &specs[which];
        let request_id = client_id << 32 | r as u64;
        encode_request(
            &RequestFrame {
                request_id,
                kind: FrameKind::Infer,
                model: spec.kind,
                dtype: spec.dtype,
                deadline_us: cfg.deadline_us,
                payload: &payloads[which],
            },
            &mut frame_buf,
        );
        let t0 = Instant::now();
        if let Err(e) = stream.write_all(&frame_buf) {
            tally.fault.get_or_insert(format!("write: {e}"));
            return tally;
        }
        match read_response(&mut stream, &mut resp_buf) {
            Ok(resp) => {
                tally.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                let got_id = match &resp {
                    OwnedResponse::Ok { request_id, argmax, scores } => {
                        tally.ok += 1;
                        // Self-consistency: the argmax must index the
                        // maximum of the score row it came with.
                        let best = scores
                            .iter()
                            .enumerate()
                            .max_by(|a, b| a.1.total_cmp(b.1))
                            .map(|(i, _)| i as u32);
                        if best != Some(*argmax) {
                            tally.fault.get_or_insert(format!(
                                "argmax {argmax} disagrees with score row (want {best:?})"
                            ));
                        }
                        *request_id
                    }
                    OwnedResponse::Busy { request_id, queue_depth } => {
                        tally.busy += 1;
                        tally.busy_depth_max = tally.busy_depth_max.max(*queue_depth);
                        *request_id
                    }
                    OwnedResponse::DeadlineExceeded { request_id } => {
                        tally.deadline += 1;
                        *request_id
                    }
                    OwnedResponse::Shutdown { request_id } => {
                        tally.shutdown += 1;
                        *request_id
                    }
                    OwnedResponse::Error { request_id, message } => {
                        tally.error += 1;
                        tally.fault.get_or_insert(format!("server error: {message}"));
                        *request_id
                    }
                    OwnedResponse::Health { request_id, .. } => {
                        tally.fault.get_or_insert("unexpected health response".to_string());
                        *request_id
                    }
                };
                if got_id != request_id {
                    tally
                        .fault
                        .get_or_insert(format!("response id {got_id} for request {request_id}"));
                }
            }
            Err(e) => {
                tally.fault.get_or_insert(e);
                return tally;
            }
        }
    }
    tally
}

/// Queries the server's health over the wire.
fn query_health(addr: &str, spec: &ModelSpec) -> Result<EngineHealth, String> {
    let mut stream =
        connect_retry(addr, Duration::from_secs(10)).map_err(|e| format!("connect: {e}"))?;
    let mut frame_buf = Vec::new();
    encode_request(
        &RequestFrame {
            request_id: u64::MAX,
            kind: FrameKind::Health,
            model: spec.kind,
            dtype: spec.dtype,
            deadline_us: 0,
            payload: &[],
        },
        &mut frame_buf,
    );
    stream.write_all(&frame_buf).map_err(|e| format!("write: {e}"))?;
    let mut resp_buf = Vec::new();
    match read_response(&mut stream, &mut resp_buf)? {
        OwnedResponse::Health { health, .. } => Ok(health),
        other => Err(format!("expected health response, got {other:?}")),
    }
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Drives `cfg.clients` threads against `addr`, prints the E11 table and
/// returns the merged tally.
fn drive(addr: &str, specs: &[ModelSpec], cfg: &Cfg) -> Tally {
    let t0 = Instant::now();
    let mut merged = Tally::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|c| s.spawn(move || run_client(addr, specs, cfg, c as u64)))
            .collect();
        for h in handles {
            merged.merge(h.join().expect("client thread"));
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    let mut sorted = merged.latencies_ms.clone();
    sorted.sort_by(f64::total_cmp);
    println!(
        "E11 — wire serving: {} clients x {} requests over {} routes{}",
        cfg.clients,
        cfg.requests,
        specs.len(),
        if cfg.int8 { " (incl. int8)" } else { "" },
    );
    println!(
        "{:>8} {:>8} {:>10} {:>10} {:>8} {:>10} {:>10} {:>10}",
        "ok", "busy", "deadline", "shutdown", "error", "p50 (ms)", "p95 (ms)", "req/s"
    );
    println!(
        "{:>8} {:>8} {:>10} {:>10} {:>8} {:>10.2} {:>10.2} {:>10.1}",
        merged.ok,
        merged.busy,
        merged.deadline,
        merged.shutdown,
        merged.error,
        percentile(&sorted, 0.50),
        percentile(&sorted, 0.95),
        merged.total() as f64 / wall.max(1e-9),
    );
    if merged.busy > 0 {
        println!("deepest Busy queue depth on the wire: {}", merged.busy_depth_max);
    }
    if let Some(fault) = &merged.fault {
        println!("first protocol fault: {fault}");
    }
    merged
}

/// `--serve`: run the registry behind a TCP listener until SIGTERM, then
/// drain gracefully. Exit code 0 means the drain completed cleanly.
fn serve_mode(cfg: &Cfg) -> i32 {
    let sigterm = neocpu_net::install_sigterm_flag();
    let registry = compile_registry(cfg);
    let server = match NetServer::bind(Arc::clone(&registry), ("127.0.0.1", cfg.port)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("netbench: bind failed: {e}");
            return 1;
        }
    };
    println!("netbench: listening on {}", server.local_addr());
    let _ = std::io::stdout().flush();
    while !sigterm.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("netbench: SIGTERM — draining");
    server.shutdown_within(Duration::from_secs(10));
    for (spec, report) in registry.reports() {
        eprintln!(
            "netbench: {} {} served {} requests ({} failed)",
            spec.kind.name(),
            spec.dtype,
            report.completed,
            report.failed,
        );
    }
    if server.health() == EngineHealth::Stopped {
        eprintln!("netbench: drained clean");
        0
    } else {
        eprintln!("netbench: drain left server in {:?}", server.health());
        1
    }
}

/// `--addr`: pure client mode against an already-running server.
fn client_mode(cfg: &Cfg, addr: &str) -> i32 {
    let specs = default_specs(cfg.int8, cfg.full, cfg.batch);
    let merged = drive(addr, &specs, cfg);
    match query_health(addr, &specs[0]) {
        Ok(h) => println!("server health: {h}"),
        Err(e) => println!("health probe failed: {e}"),
    }
    // Client mode fails only on protocol faults or zero completions —
    // Busy/Deadline are legitimate backpressure outcomes.
    i32::from(merged.fault.is_some() || merged.ok == 0)
}

fn main() {
    let cfg = parse_args();
    let code = if cfg.serve {
        serve_mode(&cfg)
    } else if let Some(addr) = cfg.addr.clone() {
        client_mode(&cfg, &addr)
    } else {
        eprintln!("netbench: pick a mode: --serve or --addr HOST:PORT");
        2
    };
    std::process::exit(code);
}
