//! Edge cache group formation: the SL and SDSL schemes.
//!
//! This crate implements the contribution of *Efficient Formation of
//! Edge Cache Groups for Dynamic Content Delivery* (Ramaswamy, Liu &
//! Zhang, ICDCS 2006): partitioning the `N` edge caches of a content
//! delivery network into `K` cooperative groups.
//!
//! Two utility factors drive the designs:
//!
//! * **network proximity of the caches** — groups should be tight so
//!   cooperative lookups are cheap (§2's *group interaction cost*);
//! * **network distance to the origin server** — far-away caches need
//!   high group hit rates (big groups), nearby caches need cheap
//!   cooperation (small groups), because a miss costs them little (§4).
//!
//! The **SL scheme** ([`SchemeConfig::sl`]) optimizes the first factor:
//! greedy max–min landmark selection, RTT feature vectors, K-means. The
//! **SDSL scheme** ([`SchemeConfig::sdsl`]) adds the second: initial
//! K-means centers are drawn with probability inversely proportional to
//! `Dist(Ec_j, Os)^θ`, producing compact groups near the origin and
//! progressively larger ones farther away.
//!
//! # Examples
//!
//! ```
//! use ecg_core::{form, FormContext, FormPlan, SchemeConfig};
//! use ecg_topology::{EdgeNetwork, OriginPlacement, TransitStubConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let topo = TransitStubConfig::for_caches(60).generate(&mut rng);
//! let network = EdgeNetwork::place(&topo, 60, OriginPlacement::TransitNode, &mut rng)?;
//!
//! let config = SchemeConfig::sdsl(6, 1.0);
//! let plan = FormPlan::new(network.rtt_matrix(), &config);
//! let outcome = form(&plan, &mut FormContext::new(), &mut rng)?;
//! let gic = outcome.average_interaction_cost(|a, b| network.cache_to_cache(a, b));
//! println!("{} groups, avg interaction cost {gic:.1} ms", outcome.groups().len());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must attach context to failures (`expect`/`Result`), not
// panic opaquely; tests may still unwrap.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod health;
pub mod landmarks;
pub mod maintenance;
pub mod scheme;
mod shim;

pub use health::{FormationHealth, ResilienceConfig};
pub use landmarks::{
    select_landmarks, LandmarkError, LandmarkSelection, LandmarkSelector,
    ResilientLandmarkSelection,
};
pub use maintenance::{GroupMaintainer, MaintenanceError, PartialReformOutcome, RetireOutcome};
pub use scheme::{
    form, FormContext, FormPlan, FormStats, GroupInit, GroupingOutcome, Representation,
    SchemeConfig, SchemeError,
};
#[doc(hidden)]
pub use shim::*;
