//! # tnm-graph — temporal network substrate
//!
//! Data model and indexes for temporal networks as defined in Section 2 of
//! *Temporal Network Motifs: Models, Limitations, Evaluation* (Liu,
//! Guarrasi, Sarıyüce; ICDE 2022 / arXiv:2005.11817):
//!
//! * a temporal network `G(V, E)` is a time-ordered list of **events**
//!   `(u, v, t, Δt)` over directed node pairs;
//! * an **edge** `(u, v)` is the static projection of an event;
//! * event durations exist in the model but are ignored by most motif
//!   definitions (they matter only for dynamic graphlets).
//!
//! The crate provides the event store ([`TemporalGraph`]) with per-node and
//! per-edge time indexes, grown in place by [`TemporalGraph::append`],
//! the windowed candidate index ([`WindowIndex`],
//! built once per graph by [`TemporalGraph::window_index`]), time-slice
//! shard planning with bounded halos ([`shard`]), the framed binary
//! [`wire`] encoding that carries shard files and worker messages across
//! process boundaries, Table 2 statistics ([`stats::GraphStats`]),
//! transformations used by the paper's protocol (resolution degrading,
//! slicing), and SNAP-style I/O. The static projection of the event log
//! is the graph's own CSR edge index ([`TemporalGraph::has_edge`],
//! [`TemporalGraph::static_edges`]), built the first time a query reads
//! it; no cache sits beside it or the window index.
//!
//! ## Data layout
//!
//! The event log exists in two layouts that always describe the same
//! rows:
//!
//! * **AoS** — `&[Event]`, the canonical store. [`Event`] is
//!   `#[repr(C)]` (`src: u32`, `dst: u32`, `time: i64`, `duration:
//!   u32`; 24 bytes with trailing padding, pinned by test) so the
//!   struct, the packed 20-byte [`wire`] record
//!   ([`wire::EVENT_RECORD_BYTES`]), and the column builder cannot
//!   drift apart silently.
//! * **SoA** — [`EventColumns`], a dense `times` column built lazily
//!   once per graph ([`TemporalGraph::columns`]). Row `i` mirrors
//!   `graph.event(i)`, so the node/edge/window index slices resolve
//!   against either view without translation.
//!
//! Window binary searches ([`TemporalGraph::times`]), [`shard`]'s
//! left-pad/halo planning and the walker's candidate-time checks probe
//! the SoA column: a timestamp scan touches 8-byte rows instead of
//! 24-byte structs, and dense `i64` arrays are what the compiler can
//! vectorize. The stream DPs read the AoS log through the node and
//! window indexes instead, because [`TemporalGraph::append`] drops the columns
//! with everything else built on first use, and a served graph runs
//! those DPs after every append. Code that needs a whole event
//! (emission, wire encoding) keeps using the AoS view.
//!
//! ```
//! use tnm_graph::{TemporalGraphBuilder, stats::GraphStats};
//!
//! let g = TemporalGraphBuilder::new()
//!     .event(0, 1, 10)
//!     .event(1, 2, 15)
//!     .event(2, 0, 18)
//!     .build()
//!     .unwrap();
//! let s = GraphStats::compute(&g);
//! assert_eq!(s.events, 3);
//! assert_eq!(s.nodes, 3);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

#[doc(hidden)]
pub mod bench_lookups;
pub mod builder;
pub mod columns;
pub mod error;
pub mod event;
pub mod graph;
pub mod ids;
pub mod io;
pub mod shard;
pub mod stats;
pub mod transform;
pub mod window_index;
pub mod wire;

#[doc(hidden)]
pub use bench_lookups::{global_index_cache, global_projection_cache};
pub use builder::TemporalGraphBuilder;
pub use columns::EventColumns;
pub use error::{GraphError, Result};
pub use event::Event;
pub use graph::TemporalGraph;
pub use ids::{Edge, EventIdx, NodeId, Time};
pub use shard::{plan_shards, ShardGoal, ShardPlan, ShardSpec};
pub use window_index::WindowIndex;
pub use wire::WireError;
