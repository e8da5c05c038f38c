//! Fault injection and churn for the edge-cache-group simulator.
//!
//! The paper forms cache groups once, over a healthy network. This crate
//! asks what happens afterwards: caches crash and recover, nodes are
//! retired for good, the origin browns out, probe traffic gets lossy. It
//! layers three pieces over the rest of the workspace:
//!
//! * [`FaultPlan`] — a builder DSL for fault scripts. Compiles to the
//!   simulator's [`ecg_sim::FaultSchedule`] (which
//!   [`ecg_sim::SimPlan::faults`] takes) and can degrade
//!   maintenance-time probing via [`FaultPlan::probe_config`].
//! * [`ChurnConfig`] / [`ChurnDriver`] — seeded random churn generation
//!   and its replay through [`ecg_core::maintenance`]: crashed caches
//!   are retired from their groups, recovered ones re-admitted, and the
//!   interaction-cost drift of the surviving grouping is tracked as a
//!   time series ([`DriftSample`]). Each event goes through
//!   [`Membership::apply`], the membership step the lifecycle supervisor
//!   takes too. [`serving_map`] is the partition a maintained grouping
//!   serves, for the simulator.
//! * [`report_to_json`] — the deterministic (byte-stable) JSON form of
//!   an [`ecg_sim::SimReport`], written through [`ecg_obs::json`]; the
//!   churn and lifecycle ablations embed it in their result files.
//! * [`FormationFaults`] — cache-level faults (crashes, link blackholes,
//!   correlated stub-domain outages) injected into *group formation
//!   itself*, compiled to [`ecg_coords::ProbeFaults`] for the resilient
//!   SL/SDSL pipeline.
//!
//! # Examples
//!
//! Injecting a scripted crash into a simulation:
//!
//! ```
//! use ecg_faults::FaultPlan;
//! use ecg_sim::{simulate, GroupMap, RunContext, SimPlan};
//! use ecg_topology::{fixtures::paper_figure1, CacheId};
//! use ecg_workload::{merge_streams, CatalogConfig, RequestConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let rtt = paper_figure1();
//! let mut rng = StdRng::seed_from_u64(7);
//! let catalog = CatalogConfig::default().documents(100).generate(&mut rng);
//! let requests = RequestConfig::default().generate(&catalog, 6, 20_000.0, &mut rng);
//! let trace = merge_streams(&requests, &[]);
//!
//! let schedule = FaultPlan::new().crash(CacheId(0), 5_000.0, 10_000.0).schedule();
//! let plan = SimPlan::new(&rtt, &catalog, &trace).faults(&schedule);
//! let report = simulate(&plan, &GroupMap::one_group(6), &mut RunContext::serial())?;
//! assert!(report.metrics.degradation.saw_faults());
//! # Ok::<(), ecg_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod churn;
pub mod formation;
pub mod json;
pub mod plan;

pub use churn::{serving_map, ChurnConfig, ChurnDriver, DriftSample, Membership, MembershipChange};
pub use formation::FormationFaults;
pub use json::report_to_json;
pub use plan::{FaultPlan, PlanParseError};
