//! **Scheduled for deletion**: the pre-`SimPlan` replay signatures the
//! end-to-end benchmark still imports, and nothing else.
//!
//! Sharded, streamed and epoch-spanning replay are not a separate
//! engine any more: [`ecg_sim::simulate`] and
//! [`ecg_sim::simulate_epochs`] take a [`ecg_sim::SimPlan`] (what is
//! simulated — a materialized trace or a [`StreamedWorkload`], with or
//! without faults) and a [`ecg_sim::RunContext`] (how — observed or
//! not, on the caller's thread or on the `ecg-par` pool), and the code
//! that used to live here (`stream.rs`, `epoch.rs`, the pool fan-out)
//! moved into `ecg-sim`. Use those.
//!
//! What is left is the private `shim` module: the three `replay_*_observed`
//! functions `benchmark/src/adapter.rs` calls, each a single call into
//! the entry point, with the config and report structs their signatures
//! need, plus re-exports of the two types that moved. `benchmark/` could
//! not change in the PR that unified the entry points; the benchmark PR
//! on the ROADMAP ports the adapter and deletes this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod shim;

pub use ecg_sim::{ReplayEpoch, StreamedWorkload};
#[doc(hidden)]
pub use shim::{
    replay_epochs_observed, replay_sharded_observed, replay_streamed_observed, EpochReplayReport,
    ReplayConfig, ReplayReport, ReplayTimings,
};
