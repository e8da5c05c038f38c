//! Continuous formation-as-a-service for edge cache groups.
//!
//! The paper's scheme forms groups once. This crate keeps them formed:
//! a deterministic [`FormationSupervisor`] advances a virtual clock
//! over a fault schedule, applies each window's crashes, recoveries,
//! and retirements through [`ecg_core::GroupMaintainer`], and asks a
//! typed [`ReformPolicy`] what the degradation warrants —
//! [`ReformDecision::Hold`], a cheap [`ReformDecision::Repair`]
//! re-seating pass, a [`ReformDecision::PartialReform`] of only the
//! degraded groups, or a [`ReformDecision::FullReform`] from scratch.
//! The policy layers hysteresis, cooldown, and a rolling re-formation
//! budget over real signals: interaction-cost drift, landmark loss,
//! membership pressure, and the [`ecg_core::FormationHealth`] of the
//! last formation run.
//!
//! The result is a [`FormationTimeline`]: every serving [`Epoch`] and
//! every per-window [`DecisionRecord`], byte-identically serializable
//! via [`FormationTimeline::to_json`]. The previous grouping serves
//! until its replacement exists — there is never a formation gap —
//! and [`FormationTimeline::epoch_spans`] feeds straight into
//! [`ecg_sim::simulate_epochs`].
//!
//! # Examples
//!
//! A quiet network needs exactly one formation:
//!
//! ```
//! use ecg_core::SchemeConfig;
//! use ecg_lifecycle::{FormationSupervisor, SupervisorConfig};
//! use ecg_sim::FaultSchedule;
//! use ecg_topology::{fixtures::paper_figure1, EdgeNetwork};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let network = EdgeNetwork::from_rtt_matrix(paper_figure1());
//! let supervisor =
//!     FormationSupervisor::new(SupervisorConfig::new(SchemeConfig::sl(3).landmarks(3)));
//! let mut rng = StdRng::seed_from_u64(7);
//! let timeline =
//!     supervisor.run(&network, &FaultSchedule::new(), 60_000.0, &mut rng, None)?;
//! assert_eq!(timeline.epochs().len(), 1);
//! assert_eq!(timeline.reformations(), 0);
//! # Ok::<(), ecg_lifecycle::LifecycleError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod policy;
mod shim;
pub mod supervisor;
pub mod timeline;

pub use policy::{PolicyState, PolicyVerdict, ReformDecision, ReformPolicy, WindowSignals};
pub use supervisor::{FormationSupervisor, LifecycleError, SupervisorConfig};
pub use timeline::{DecisionRecord, Epoch, FormationTimeline};
