//! Network position estimation for edge cache group formation.
//!
//! Both schemes in the paper quantify "the relative positions of caches
//! and server in the Internet" by probing a set of landmarks. This crate
//! provides every position representation the paper touches:
//!
//! * [`Prober`] / [`ProbeConfig`] — the RTT measurement model (noisy
//!   probes, averaged).
//! * [`FeatureVector`] — the paper's own representation: raw measured
//!   RTTs to each landmark, compared with L2 distance (§3.2).
//! * [`gnp`] — Global Network Positioning, the Euclidean-space embedding
//!   the paper compares against in Figure 7, built on a Nelder–Mead
//!   minimizer ([`simplex`]).
//! * [`vivaldi`] — decentralized Vivaldi coordinates (cited in related
//!   work; included as an extension).
//!
//! # Examples
//!
//! Build feature vectors for the paper's Figure 1 network:
//!
//! ```
//! use ecg_coords::{build_feature_vectors, ProbeConfig, Prober};
//! use ecg_topology::fixtures::paper_figure1;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let matrix = paper_figure1();
//! let prober = Prober::new(&matrix, ProbeConfig::noiseless());
//! let mut rng = StdRng::seed_from_u64(0);
//! // Landmarks {Os, Ec0, Ec4}; feature vectors for all six caches.
//! let caches: Vec<usize> = (1..7).collect();
//! let fvs = build_feature_vectors(&prober, &caches, &[0, 1, 5], &mut rng);
//! assert_eq!(fvs[1].as_slice(), &[8.0, 4.0, 14.4]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must attach context to failures (`expect`/`Result`), not
// panic opaquely; tests may still unwrap.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod feature;
pub mod gnp;
pub mod matrix;
pub mod probe;
pub mod resilience;
mod shim;
pub mod simplex;
pub mod tiles;
pub mod vivaldi;

pub use feature::{build_feature_matrix, build_feature_vectors, build_features, FeatureVector};
pub use gnp::{embed_network, GnpConfig, GnpCoordinates, GnpModel};
pub use matrix::FeatureMatrix;
pub use probe::{Draws, ProbeConfig, Prober};
pub use resilience::{FeatureMask, Measurement, ProbeFaults, RetryPolicy};
#[doc(hidden)]
pub use shim::*;
pub use tiles::{CenterTiles, LANE_WIDTH};
pub use vivaldi::{mean_relative_error, run_vivaldi, VivaldiConfig, VivaldiNode};
