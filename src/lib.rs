//! # edge-cache-groups
//!
//! A reproduction of *Efficient Formation of Edge Cache Groups for
//! Dynamic Content Delivery* (Ramaswamy, Liu & Zhang, ICDCS 2006) as a
//! Rust workspace, re-exported here as one crate.
//!
//! The paper asks: given an origin server and `N` edge caches, how do
//! you partition the caches into `K` cooperative groups so cooperation
//! is both *effective* (high group hit rates) and *efficient* (low group
//! interaction cost)? It answers with two schemes:
//!
//! * **SL** — cluster caches by mutual network proximity, estimated via
//!   greedily chosen Internet landmarks and RTT feature vectors.
//! * **SDSL** — additionally shrink groups near the origin server and
//!   grow them with server distance.
//!
//! ## Module map
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`topology`] | `ecg-topology` | transit-stub topologies, RTT matrices, [`topology::EdgeNetwork`] |
//! | [`coords`] | `ecg-coords` | probing, feature vectors, GNP, Vivaldi |
//! | [`clustering`] | `ecg-clustering` | K-means, initializers, quality metrics |
//! | [`workload`] | `ecg-workload` | Zipf catalogs, request/update streams, traces |
//! | [`cache`] | `ecg-cache` | utility/LRU/LFU/GDSF document caches |
//! | [`sim`] | `ecg-sim` | the discrete-event network simulator: one entry point over materialized or streamed traces, one grouping or a timeline; in-group replica placement ([`sim::place`]) |
//! | [`core`] | `ecg-core` | the SL and SDSL schemes themselves |
//! | [`faults`] | `ecg-faults` | fault plans, churn generation, degradation reporting |
//! | [`lifecycle`] | `ecg-lifecycle` | continuous re-formation: supervisor, policies, epoch timelines |
//! | [`par`] | `ecg-par` | deterministic fixed-chunk parallel kernels on scoped threads |
//! | [`cli`] | — | the one command-line flag parser of the workspace's binaries |
//!
//! ## Quickstart
//!
//! ```
//! use edge_cache_groups::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//!
//! // 1. An edge network: origin + 80 caches on a transit-stub topology.
//! let topo = TransitStubConfig::for_caches(80).generate(&mut rng);
//! let network = EdgeNetwork::place(&topo, 80, OriginPlacement::TransitNode, &mut rng)?;
//!
//! // 2. Form 8 cooperative groups with the SDSL scheme.
//! let config = SchemeConfig::sdsl(8, 1.0);
//! let outcome = form(
//!     &FormPlan::new(network.rtt_matrix(), &config),
//!     &mut FormContext::new(),
//!     &mut rng,
//! )?;
//!
//! // 3. Evaluate them in simulation on a sporting-event workload.
//! let workload = SportingEventConfig::default()
//!     .caches(80)
//!     .duration_ms(60_000.0)
//!     .generate(&mut rng);
//! let groups = GroupMap::new(80, outcome.groups().to_vec())?;
//! let trace = workload.merged_trace();
//! let plan = SimPlan::new(network.rtt_matrix(), &workload.catalog, &trace);
//! let report = simulate(&plan, &groups, &mut RunContext::pooled())?;
//! println!("average client latency: {:.2} ms", report.average_latency_ms());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod cli;

pub use ecg_cache as cache;
pub use ecg_clustering as clustering;
pub use ecg_coords as coords;
pub use ecg_core as core;
pub use ecg_faults as faults;
pub use ecg_lifecycle as lifecycle;
pub use ecg_obs as obs;
pub use ecg_par as par;
pub use ecg_sim as sim;
pub use ecg_topology as topology;
pub use ecg_workload as workload;

/// One-import convenience: the types a typical user touches.
pub mod prelude {
    pub use ecg_cache::{DocumentCache, PolicyKind};
    pub use ecg_clustering::{KmeansVariant, MiniBatchConfig};
    pub use ecg_coords::{ProbeConfig, Prober};
    pub use ecg_core::{
        form, FormContext, FormPlan, FormStats, GroupInit, GroupMaintainer, GroupingOutcome,
        LandmarkSelector, Representation, SchemeConfig,
    };
    pub use ecg_faults::{ChurnConfig, ChurnDriver, FaultPlan};
    pub use ecg_lifecycle::{
        FormationSupervisor, FormationTimeline, ReformDecision, ReformPolicy, SupervisorConfig,
    };
    pub use ecg_obs::Obs;
    pub use ecg_sim::{
        simulate, simulate_epochs, AdaptiveConfig, DChoicesConfig, GroupMap, LatencyModel,
        PlacementKind, ReplayEpoch, RunContext, RunStats, SimConfig, SimPlan, SimReport,
        StreamedWorkload,
    };
    pub use ecg_topology::{
        CacheId, EdgeNetwork, OriginPlacement, RttMatrix, RttSource, SyntheticRtt,
        SyntheticRttConfig, TransitStubConfig,
    };
    pub use ecg_workload::{CatalogConfig, DocId, RequestConfig, SportingEventConfig, ZipfSampler};
}
