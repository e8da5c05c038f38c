//! Clustering algorithms for edge cache group formation.
//!
//! The paper partitions edge caches with K-means over landmark feature
//! vectors; the SL and SDSL schemes differ only in the K-means
//! *initialization*. This crate keeps that split explicit:
//!
//! * [`kmeans()`] — the assign/update loop with the paper's termination
//!   condition and empty-cluster repair.
//! * [`Initializer`] — uniform seeding (SL), weighted seeding (SDSL via
//!   [`server_distance_weights`]), k-means++ (ablation), or explicit
//!   seeds.
//! * [`quality`] — average group interaction cost (the paper's accuracy
//!   metric).
//! * [`hierarchical`] — agglomerative clustering over raw dissimilarity
//!   matrices, used as an ablation baseline.
//!
//! Points are handed in as an [`FeatureMatrix`] (re-exported from
//! `ecg-coords`): one contiguous row-major buffer, so the distance
//! kernels in the Lloyd loop stream over flat memory. [`kmeans()`] also
//! prunes re-assignment scans with Hamerly-style distance bounds while
//! producing output identical to the retained naive implementation
//! [`kmeans_reference()`]; from [`TREE_AUTO_MIN_K`] centers up the
//! surviving scans route through the KD-tree over centers in [`tree`],
//! still bit identical.
//!
//! # Examples
//!
//! ```
//! use ecg_clustering::{kmeans, FeatureMatrix, Initializer, KmeansConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let points = FeatureMatrix::from_rows(&[vec![0.0], vec![1.0], vec![100.0], vec![101.0]]);
//! let mut rng = StdRng::seed_from_u64(7);
//! let result = kmeans(
//!     &points,
//!     KmeansConfig::new(2),
//!     &Initializer::RandomRepresentative,
//!     &mut rng,
//!     None,
//! )?;
//! assert_eq!(result.cluster_sizes(), vec![2, 2]);
//! # Ok::<(), ecg_clustering::KmeansError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Library code must attach context to failures (`expect`/`Result`), not
// panic opaquely; tests may still unwrap.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod balanced;
pub mod blocked;
pub mod hierarchical;
pub mod init;
pub mod kmeans;
pub mod masked;
pub mod medoids;
pub mod minibatch;
pub mod quality;
pub mod tree;

pub use balanced::{kmeans_capped, CapError};
pub use blocked::BlockedCenters;
pub use ecg_coords::FeatureMatrix;
pub use init::{server_distance_weights, Initializer};
pub use kmeans::{kmeans, kmeans_reference, Clustering, KmeansConfig, KmeansError};
pub use masked::{kmeans_masked, masked_sq_l2};
pub use medoids::{pam, Medoids};
pub use minibatch::{kmeans_minibatch, kmeans_variant, KmeansVariant, MiniBatchConfig};
pub use quality::{average_group_interaction_cost, group_interaction_cost};
#[doc(hidden)]
pub use tree::AssignMode;
pub use tree::{take_tree_build_ms, CenterTree, NeighbourTiles, NEIGHBOURS, TREE_AUTO_MIN_K};
