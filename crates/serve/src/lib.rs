//! `emod-serve`: persistent model artifacts and a concurrent
//! prediction/tuning server.
//!
//! Two layers, both zero-dependency (std only):
//!
//! * **Artifacts** — [`artifact::ModelArtifact`] is a versioned, checksummed
//!   on-disk serialization of a trained surrogate (model + parameter space +
//!   measured designs + provenance) that predicts bit-identically after a
//!   round trip. [`registry::ModelRegistry`] is a directory of artifacts
//!   keyed by id, rooted at `EMOD_REGISTRY` (default `./registry`).
//! * **Serving** — [`server::Server`] is a `std::net`/`std::thread` TCP
//!   server speaking newline-delimited JSON ([`json::Json`]) with commands
//!   `list_models`, `predict`, `predict_batch`, `tune`, `stats`,
//!   `rollout`/`promote`/`rollback`/`refresh` and `shutdown`.
//! * **Closed loop** — [`rollout`] is the canaried rollout state machine
//!   over refresh-produced artifact versions, and [`refresh`] measures
//!   enqueued design points, retrains, and publishes candidates the state
//!   machine then canaries, promotes, or rolls back.
//!
//! The server offers two connection fronts selected by `EMOD_SERVE_FRONT`
//! (DESIGN.md §16): the default blocking thread-per-connection pool, and
//! a readiness reactor ([`reactor_front`], built on `emod-reactor`) that
//! multiplexes thousands of connections onto `EMOD_REACTOR_WORKERS`
//! handler threads with [`coalesce`]d predict batching and
//! `EMOD_MODEL_REPLICAS` sharded artifact-cache replicas. Responses are
//! byte-identical between fronts. Both fronts and the [`client`] share
//! the `wire` helpers: `TCP_NODELAY` on every stream and one write per
//! message.

#![warn(missing_docs)]

pub mod artifact;
pub mod client;
pub mod coalesce;
pub mod codecs;
pub mod json;
pub mod reactor_front;
pub mod refresh;
pub mod registry;
pub mod rollout;
pub mod server;
pub mod slo;
mod wire;

pub use artifact::{ArtifactError, ArtifactMeta, ModelArtifact, FORMAT_VERSION};
pub use client::{Client, RetryPolicy};
pub use coalesce::CoalesceCfg;
pub use json::Json;
pub use registry::{GcReport, ModelRegistry, ReplicaHint, REGISTRY_ENV, REPLICAS_ENV};
pub use rollout::{RolloutConfig, RolloutPhase, RolloutState};
pub use server::{Front, Server, FRONT_ENV};
pub use slo::{SloConfig, SloSnapshot, SloTracker};
