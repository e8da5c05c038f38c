//! In-group document placement and replication policies.
//!
//! The paper's cooperative groups run *single-holder* demand caching: a
//! miss is resolved from the nearest group member holding a fresh copy
//! (or the origin), and copies simply follow requests. That leaves two
//! modern levers on the table, both named in PAPERS.md:
//!
//! * **Adaptive replication** (Leconte et al., *Adaptive Replication in
//!   Distributed Content Delivery Networks*): the number of in-group
//!   replicas of a document should track its request rate — hot
//!   documents deserve copies on many members, cold documents deserve
//!   exactly one so the group's aggregate capacity holds more distinct
//!   documents.
//! * **Proximity-aware power-of-d-choices placement** (Pourmiri et al.,
//!   *Proximity-Aware Balanced Allocations in Cache Networks*): when a
//!   new copy enters the group, sample `d` candidate members biased
//!   toward the requester's network vicinity and place the copy on the
//!   least-loaded of them, balancing occupancy across members.
//!
//! This module defines the [`PlacementPolicy`] trait the simulator
//! consults on every group-internal hit and miss, plus the three
//! implementations ([`SingleHolder`], [`AdaptiveReplication`],
//! [`ProximityDChoices`]) and the [`PlacementKind`] configuration enum
//! that [`SimConfig`](crate::SimConfig) carries.
//!
//! Everything is deterministic: [`AdaptiveReplication`] draws no
//! randomness at all (its request-rate estimator is a pure function of
//! event timestamps), and [`ProximityDChoices`] seeds one derived RNG
//! stream per decision from `(policy seed, decision counter)` via
//! [`ecg_par::derive_seed`], so replays are bit-identical regardless of
//! thread count or environment.
//!
//! # Examples
//!
//! ```
//! use ecg_sim::place::{Candidate, PeerHitAction, PlacementKind, PlacementPolicy};
//! use ecg_topology::CacheId;
//! use ecg_workload::DocId;
//!
//! let mut policy = PlacementKind::adaptive().build(100);
//! let candidates = vec![
//!     Candidate { cache: CacheId(0), rtt_ms: 0.0, used_bytes: 10, holds: false },
//!     Candidate { cache: CacheId(1), rtt_ms: 5.0, used_bytes: 900, holds: true },
//! ];
//! // A cold document is served remotely, not replicated.
//! let action = policy.on_peer_hit(DocId(3), 0.0, &candidates, CacheId(1));
//! assert_eq!(action, PeerHitAction::ServeRemote);
//! ```

pub mod adaptive;
pub mod dchoices;
pub mod policy;

pub use adaptive::{AdaptiveConfig, AdaptiveReplication};
pub use dchoices::{DChoicesConfig, ProximityDChoices};
pub use policy::{Candidate, PeerHitAction, PlacementKind, PlacementPolicy, SingleHolder};
