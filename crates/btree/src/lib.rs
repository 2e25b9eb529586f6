//! B*-tree, ASF-B*-tree and hierarchical HB*-tree analog placement.
//!
//! This crate implements Section III of the DATE 2009 survey, *Hierarchical
//! placement with layout constraints*:
//!
//! * [`BStarTree`] — the B*-tree topological floorplan representation of Chang
//!   et al. (reference \[5\] of the survey) with contour-based packing and the
//!   standard perturbation operations (rotate, swap, move);
//! * [`asf`] — *automatically symmetric-feasible* B*-trees: a symmetry group
//!   is packed as a **symmetry island** (one half encoded as a B*-tree, the
//!   other produced by mirroring about the axis, self-symmetric modules
//!   centred on the axis), following the symmetry-island formulation of
//!   reference \[16\];
//! * [`common_centroid`] — interdigitated unit-device pattern generation for
//!   common-centroid groups (Fig. 3(a) of the survey);
//! * [`hbtree`] — the hierarchical HB*-tree: every sub-circuit of the layout
//!   design hierarchy owns its own B*-tree (or ASF island / common-centroid
//!   pattern, depending on the sub-circuit's constraint); sub-circuits are
//!   packed bottom-up and abstracted as blocks in their parent's tree;
//! * [`counting`] — the size of the B*-tree solution space
//!   (`n! · Catalan(n)`, e.g. 57,657,600 placements for 8 modules as quoted in
//!   Section IV of the paper);
//! * [`anneal`] — simulated-annealing placers: a flat B*-tree placer and the
//!   hierarchical HB*-tree placer (experiment E10 compares them).
//!
//! # Example
//!
//! ```
//! use apls_circuit::benchmarks::miller_opamp_fig6;
//! use apls_btree::{HbTreePlacer, HbTreePlacerConfig};
//!
//! let circuit = miller_opamp_fig6();
//! let placer = HbTreePlacer::new(&circuit);
//! let result = placer.run(&HbTreePlacerConfig::fast(1));
//! assert_eq!(result.metrics.overlap_area, 0);
//! assert_eq!(result.symmetry_error, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anneal;
pub mod asf;
pub mod common_centroid;
pub mod counting;
pub mod hbtree;
mod pack;
pub mod subset;
mod tree;

pub use anneal::{BTreePlacer, BTreePlacerConfig, HbTreePlacer, HbTreePlacerConfig, HbTreeResult};
pub use hbtree::{HbPackScratch, HbTree, HbUndoLog};
pub use pack::{pack_btree, pack_btree_into, PackScratch, PackedBTree};
pub use subset::{anneal_subset, SubsetAnnealConfig, SubsetAnnealResult};
pub use tree::{BStarTree, TreeUndoLog};
