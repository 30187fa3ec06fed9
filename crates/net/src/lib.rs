//! `neocpu-net` — the networked serving frontend.
//!
//! Turns the in-process batched serve engine (`neocpu::serve`) into a
//! service: a length-prefixed binary wire protocol ([`codec`]), a
//! multi-model registry compiling and routing several `(model, dtype)`
//! deployments from one process ([`registry`]), and a
//! connection-per-client TCP server feeding the engines' bounded queues
//! ([`server`]). Engine backpressure and lifecycle surface as protocol
//! responses — a full queue answers `Busy{queue_depth}` on the wire, a
//! draining server answers `Shutdown` — and SIGTERM triggers a graceful
//! drain that completes in-flight frames before closing sockets.
//!
//! The warm per-request server path (decode → submit → wait → encode)
//! performs no heap allocations after a connection's first request, the
//! same contract the engine itself holds (`tests/alloc_count.rs`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod codec;
pub mod registry;
pub mod server;

pub use codec::{
    decode_request, decode_response, encode_request, encode_response, model_from_wire,
    model_to_wire, parse_request_header, FrameError, FrameKind, RequestFrame, RequestHeader,
    ResponseFrame, WireDtype, MAGIC, MAX_PAYLOAD, REQ_HEADER_LEN, RESP_HEADER_LEN, VERSION,
};
pub use registry::{ModelRegistry, ModelSpec, RegistryEntry};
pub use server::{install_sigterm_flag, NetServer};
