//! Internet topology substrate for edge cache network experiments.
//!
//! The evaluation in *Efficient Formation of Edge Cache Groups for Dynamic
//! Content Delivery* (ICDCS 2006) runs on GT-ITM transit-stub topologies.
//! This crate re-implements that model and everything downstream crates
//! need from it:
//!
//! * [`Graph`] — undirected graphs with millisecond link latencies.
//! * [`waxman`] — Waxman random graphs (GT-ITM's intra-domain model).
//! * [`TransitStubConfig`] — the hierarchical transit-stub generator.
//! * [`shortest_path`] — Dijkstra and parallel all-pairs RTT computation.
//! * [`RttMatrix`] — symmetric round-trip-time matrices.
//! * [`RttSource`] / [`SyntheticRtt`] — the pairwise-RTT oracle trait and
//!   an O(n)-state implicit geometric implementation for large-N scaling
//!   runs where a dense matrix would not fit in memory.
//! * [`EdgeNetwork`] — an origin server plus `N` placed edge caches, the
//!   problem instance every group formation scheme consumes.
//! * [`fixtures`] — the worked example from Figure 1 of the paper.
//!
//! # Examples
//!
//! Build a 100-cache edge network on a fresh transit-stub topology:
//!
//! ```
//! use ecg_topology::{EdgeNetwork, OriginPlacement, TransitStubConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(42);
//! let topology = TransitStubConfig::for_caches(100).generate(&mut rng);
//! let network = EdgeNetwork::place(&topology, 100, OriginPlacement::TransitNode, &mut rng)?;
//! assert_eq!(network.cache_count(), 100);
//! # Ok::<(), ecg_topology::PlacementError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must attach context to failures (`expect`/`Result`), not
// panic opaquely; tests may still unwrap.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod fixtures;
pub mod graph;
pub mod network;
pub mod rtt;
pub mod rtt_io;
pub mod shortest_path;
pub mod synthetic;
pub mod transit_stub;
pub mod waxman;

pub use graph::{AddEdgeError, Edge, Graph, Neighbor, NodeId};
pub use network::{CacheId, EdgeNetwork, OriginPlacement, PlacementError};
pub use rtt::{RttMatrix, RttSource};
pub use rtt_io::{read_rtt_matrix, write_rtt_matrix, RttIoError};
pub use shortest_path::all_pairs_rtt;
pub use synthetic::{SyntheticRtt, SyntheticRttConfig};
pub use transit_stub::{LatencyBand, NodeKind, StubDomain, TransitStubConfig, TransitStubTopology};
pub use waxman::WaxmanConfig;
