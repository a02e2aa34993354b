//! # lmmir-serve
//!
//! An always-on batched inference server for the LMM-IR reproduction: the
//! paper's whole pitch is trading golden-solver hours for inference
//! seconds, and this crate is the deployment story — load a trained
//! checkpoint once, answer IR-drop queries in milliseconds.
//!
//! Std-only by construction (the build environment has no registry access,
//! so the HTTP layer is hand-rolled over [`std::net::TcpListener`]) and
//! `unsafe`-free like the rest of the workspace.
//!
//! ## Architecture
//!
//! ```text
//!  clients ──> acceptor thread ──> event-loop threads (fixed pool:
//!               (least-loaded)     non-blocking sockets, resumable HTTP
//!                                  parse, per-state deadlines,
//!                                  result-cache lookup)
//!                                        │ mpsc jobs (result-cache misses;
//!                                        │ connection parks)
//!                                        v
//!                               inference thread (owns the models)
//!                               │ drain ≤ max_batch / ≤ max_wait_ms
//!                               │ dedupe by content hash
//!                               │ feature cache (LRU) / prepare on pool
//!                               │ forward per unique input, encode once
//!                               │ result cache insert (encoded frames)
//!                               └─> completion events wake parked
//!                                   connections on their event loop
//! ```
//!
//! Connections are **persistent** (HTTP/1.1 keep-alive with pipelining)
//! and are *not* threads: a small fixed pool of event loops (the internal
//! `event` module) drives every connection's state machine (`ReadingHead →
//! ReadingBody → AwaitingInference → Writing`) over non-blocking sockets,
//! so hundreds of idle keep-alive peers hold sockets, not stacks. Each
//! state carries its own deadline (subsuming the old idle timeout — a
//! peer trickling a body is cut off just like a silent one), and the
//! per-connection request cap closes with `Connection: close`. The
//! **result cache** is layered over the feature cache and stores
//! **encoded response frames**: a repeated query for an unchanged design
//! is answered on the event-loop thread — no inference-thread wakeup, no
//! re-encode; `POST /reload` atomically invalidates both caches.
//!
//! Model internals are `Rc`-based (the autograd tape is deliberately not
//! thread-safe), so every model lives on the single inference thread; the
//! parallelism inside a forward pass comes from `lmmir-par`, and request
//! concurrency comes from batching: jobs drained together that share a
//! design content hash are served by **one** forward pass.
//!
//! ## Scaling out
//!
//! One process has one inference thread; [`Server::start_router`] (the
//! [`shard`] module) lifts that ceiling: N worker processes, each a full
//! replica of this server, behind a thin router that reuses the exact
//! same front end and dispatches each predict by **consistent hash** on
//! `(model, content hash)` — so each worker's caches stay hot for its key
//! range, and evicting a dead worker re-hashes only its range onto the
//! survivors.
//!
//! ## Endpoints
//!
//! | endpoint | method | body |
//! |---|---|---|
//! | `/predict` | POST | binary predict request ([`proto`]) → IR map + hotspot mask |
//! | `/healthz` | GET | — → readiness: `ready` + per-model `quantized_layers`, or `503` while loading/reloading |
//! | `/metrics` | GET | — → Prometheus-style text ([`metrics`]) |
//! | `/reload` | POST | — → reloads every checkpoint from disk |
//! | `/shutdown` | POST | — → graceful shutdown (drain, then exit) |
//!
//! ## Quick start
//!
//! ```no_run
//! use lmmir_serve::{RegistrySpec, ServeConfig, Server};
//!
//! # fn main() -> Result<(), lmmir_serve::ServeError> {
//! let spec = RegistrySpec::single("demo", "demo.lmmt");
//! let server = Server::start(ServeConfig::default(), spec)?;
//! println!("serving on http://{}", server.addr());
//! server.wait(); // blocks until POST /shutdown, then drains
//! # Ok(())
//! # }
//! ```

pub mod batch;
pub mod cache;
pub mod client;
pub mod http;
pub mod metrics;
pub mod proto;
pub mod registry;
pub mod shard;

mod event;
mod server;

pub use batch::{interleave_groups, prepare_request};
pub use cache::{result_cache, LruCache, ResultCache};
pub use client::Client;
pub use metrics::{model_label, Health, LoadState, Metrics, MetricsExtra, ModelSeries};
pub use proto::{PredictRequest, PredictResponse};
pub use registry::{instantiate, ModelRegistry, ModelSpec, RegistrySpec};
pub use server::{ServeConfig, Server};
pub use shard::{RouterSpec, WorkerCmd};

use std::fmt;

/// Error type of the serving layer.
#[derive(Debug)]
pub enum ServeError {
    /// Socket / filesystem failure.
    Io(std::io::Error),
    /// Invalid configuration (flags or environment).
    Config(String),
    /// Checkpoint loading / model registry failure.
    Registry(String),
    /// Malformed wire payload (HTTP or predict protocol).
    Proto(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Config(m) => write!(f, "configuration error: {m}"),
            ServeError::Registry(m) => write!(f, "registry error: {m}"),
            ServeError::Proto(m) => write!(f, "protocol error: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}
