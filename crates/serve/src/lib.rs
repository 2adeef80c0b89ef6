//! `mbb-serve` — the batched, sharded query service front-end over
//! [`MbbEngine`](mbb_core::engine::MbbEngine) sessions.
//!
//! `mbb-core` answers one query at a time against one graph. A service
//! answering heavy traffic wants three more layers, and this crate is
//! exactly those three:
//!
//! * a [`ShardedFleet`] — N persistent engine sessions, one per graph
//!   shard, with deterministic request routing by graph id (exact) or
//!   request id (FNV-1a hash);
//! * a [`StreamServer`] — a worker pool over one global EDF admission
//!   queue ([`stream`]), with bounded depth and backpressure,
//!   load-shedding of blown-budget requests, per-tenant fairness, and
//!   graceful drain/reload via control lines. It serves a finite
//!   `Vec<`[`QueryRequest`]`>` ([`StreamServer::run_batch`]: one
//!   [`StreamEvent`] per request, in request order, plus [`ServeStats`])
//!   or a long-lived JSONL request stream ([`StreamServer::serve`]);
//! * a [`jsonl`] wire layer — requests in, responses out, one JSON
//!   object per line — shared by the `mbb serve-batch` and `mbb serve`
//!   CLI subcommands and any embedding service.
//!
//! Behind the `socket` cargo feature, the `socket` module exposes the
//! same loop over a multiplexed TCP / Unix-domain listener: N concurrent
//! JSONL connections fan into the one shared admission queue, and
//! responses are routed back to the originating connection by a [`mux`]
//! registry.
//!
//! The semantics (fairness, deadlines that include queue wait, the
//! amortisation argument, the wire schema) are documented in
//! `docs/SERVING.md`.
//!
//! # Quickstart
//!
//! ```
//! use std::time::Duration;
//! use mbb_serve::{
//!     QueryKind, QueryOutcome, QueryRequest, ShardedFleet, StreamConfig, StreamEvent,
//!     StreamServer,
//! };
//!
//! // Two graph shards, one engine session each.
//! let mut fleet = ShardedFleet::new();
//! fleet
//!     .add_shard("users", mbb_bigraph::generators::uniform_edges(20, 20, 90, 1))?
//!     .add_shard("items", mbb_bigraph::generators::uniform_edges(20, 20, 90, 2))?;
//!
//! // A persistent server: build once, run many batches.
//! let server = StreamServer::new(fleet, StreamConfig { workers: 2, ..StreamConfig::default() });
//! let (events, stats) = server.run_batch(vec![
//!     QueryRequest::new(0, QueryKind::Solve).on_graph("users"),
//!     QueryRequest::new(1, QueryKind::Topk { k: 3 }).on_graph("users"),
//!     QueryRequest::new(2, QueryKind::Frontier)
//!         .on_graph("items")
//!         .with_deadline(Duration::from_secs(5)),
//!     QueryRequest::new(3, QueryKind::Solve).on_graph("users"),
//! ]);
//!
//! assert_eq!(events.len(), 4);
//! let StreamEvent::Response(solve) = &events[0] else { panic!("request 0 was executed") };
//! assert!(solve.termination.is_complete());
//! if let QueryOutcome::Solve(biclique) = &solve.outcome {
//!     assert!(biclique.is_valid(server.fleet().engine(0).graph()));
//! }
//! // Requests 0 and 1 shared the "users" session's cached indices.
//! assert!(stats.index_reuse_hits >= 1);
//! # Ok::<(), mbb_serve::ServeError>(())
//! ```

#![warn(missing_docs)]

pub mod fleet;
pub mod jsonl;
pub mod mux;
pub mod request;
#[cfg(feature = "socket")]
pub mod socket;
pub mod stream;

pub use fleet::{ServeError, Shard, ShardedFleet};
pub use request::{QueryKind, QueryOutcome, QueryRequest, QueryResponse};
pub use stream::{ServeStats, ShardServeStats, StreamConfig, StreamEvent, StreamServer};
