//! Discrete-event simulator for cooperative edge cache networks.
//!
//! Models the system the paper evaluates: an origin server publishing
//! dynamic documents, `N` edge caches partitioned into cooperative
//! groups, ICP-style cooperative miss handling within each group, and an
//! update stream that invalidates cached copies. The simulator replays a
//! workload trace ([`ecg_workload`]) over an edge network
//! ([`ecg_topology::EdgeNetwork`]) and reports the paper's metrics:
//! average cache latency, group hit rates, and traffic breakdowns.
//!
//! * [`SimTime`] — microsecond-resolution simulation clock.
//! * [`event`] — the event type and the time-ordered merge of a group's
//!   requests and the update log — planned by trace position or
//!   streamed — with the fault schedule, which the event loop walks.
//! * [`LatencyModel`] — RTT + bandwidth transfer-cost model.
//! * [`GroupMap`] — validated cache-to-group partition.
//! * [`fault`] — fault schedules: cache crashes, recoveries and
//!   retirements, injected through [`SimPlan::faults`].
//! * [`place`] — in-group replica placement: the single-holder
//!   baseline, adaptive replication and power-of-d-choices, picked by
//!   [`SimConfig::placement`].
//! * [`simulate`] — **the** entry point: a [`SimPlan`] (what is
//!   simulated), a [`GroupMap`] and a [`RunContext`] (how). Its
//!   timeline form [`simulate_epochs`] takes a sequence of
//!   [`ReplayEpoch`]s in place of the one grouping ([`epoch`] has its
//!   boundary semantics).
//! * [`StreamedWorkload`] — a trace source that is never materialized:
//!   each group regenerates its members' requests from a master seed.
//!
//! ## Execution order
//!
//! Groups are independent between re-formations, and a run uses it: it
//! is **group-major**. The inputs are validated and planned once, in
//! trace order; then the event loop runs one group at a time — that
//! group's requests, every origin update, its members' faults — over
//! the group's own RTT sub-matrix and caches, and the per-group results
//! are folded in group order. An event's working set is its group's,
//! not the network's. The groups run one after another on the caller's
//! thread, at most one group's caches live at a time
//! ([`RunContext::serial`]), or as work items on [`ecg_par`]'s scoped
//! threads ([`RunContext::pooled`]), each folded in as soon as the
//! groups before it have been. At once a run holds the groups running
//! (one per thread), the results that finished ahead of their turn, and
//! the fold's one `N`-row recorder. The choice changes wall-clock time
//! and peak memory, never a byte of the report or of the observability
//! document. Every group, planned or streamed, goes through the same
//! walk of its requests and the update log.
//!
//! What the event loop decides is checked against an independent
//! reference simulator, the spec in this crate's integration tests
//! (`tests/spec`): one loop over the whole trace in time order, full
//! member-order scans of each group's alive peers, and state of its own
//! — no holder index, store or plan. Every way of running [`simulate`]
//! must match it, report bit for bit and request-path counters exactly.
//!
//! # Examples
//!
//! ```
//! use ecg_sim::{simulate, GroupMap, RunContext, SimConfig, SimPlan};
//! use ecg_topology::{fixtures::paper_figure1, EdgeNetwork};
//! use ecg_workload::{merge_streams, generate_updates, CatalogConfig, RequestConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let network = EdgeNetwork::from_rtt_matrix(paper_figure1());
//! let mut rng = StdRng::seed_from_u64(7);
//! let catalog = CatalogConfig::default().documents(200).generate(&mut rng);
//! let requests = RequestConfig::default().generate(&catalog, 6, 30_000.0, &mut rng);
//! let updates = generate_updates(&catalog, 30_000.0, &mut rng);
//! let trace = merge_streams(&requests, &updates);
//!
//! let groups = GroupMap::one_group(6);
//! let plan = SimPlan::new(network.rtt_matrix(), &catalog, &trace)
//!     .config(SimConfig::default().warmup_ms(5_000.0));
//! let report = simulate(&plan, &groups, &mut RunContext::serial())?;
//! println!("avg latency: {:.2} ms", report.average_latency_ms());
//! # Ok::<(), ecg_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must attach context to failures (`expect`/`Result`), not
// panic opaquely; tests may still unwrap.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod driver;
pub mod epoch;
pub mod event;
pub mod fault;
pub mod groups;
mod holders;
pub mod latency;
pub mod metrics;
pub mod origin;
pub mod place;
mod shim;
mod sim;
mod stream;
pub mod time;

pub use driver::{simulate, RunContext, RunStats, SimPlan};
/// [`ecg_obs::Histogram`] under the simulator's historical name: every
/// request latency goes into geometrically spaced bins (256 over
/// 0.05 ms – 60 s by default), so a run reports percentiles with O(1)
/// memory whatever its request count.
///
/// # Examples
///
/// ```
/// use ecg_sim::LatencyHistogram;
///
/// let mut h = LatencyHistogram::default();
/// for v in [1.0, 2.0, 3.0, 4.0, 100.0] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// let p50 = h.percentile(0.5).unwrap();
/// assert!(p50 >= 2.0 && p50 <= 4.0);
/// ```
pub use ecg_obs::Histogram as LatencyHistogram;
pub use epoch::{simulate_epochs, EpochReplayError, ReplayEpoch};
pub use fault::{FaultCarryState, FaultError, FaultEvent, FaultKind, FaultSchedule};
pub use groups::{GroupMap, GroupMapError};
pub use latency::LatencyModel;
pub use metrics::{
    CacheAggregate, DegradationMetrics, MetricsRecorder, ServedBy, TimelineBucket, WindowAggregate,
};
pub use origin::OriginServer;
pub use place::{AdaptiveConfig, DChoicesConfig, PlacementKind};
#[doc(hidden)]
pub use shim::simulate_observed;
#[doc(hidden)]
pub use sim::Lookup;
pub use sim::{FreshnessProtocol, SimConfig, SimError, SimReport};
pub use stream::StreamedWorkload;
pub use time::SimTime;
