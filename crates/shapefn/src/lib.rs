//! Regular and enhanced shape functions with hierarchically bounded
//! enumeration (deterministic analog placement).
//!
//! This crate implements Section IV of the DATE 2009 survey:
//!
//! * [`ShapeFunction`] — the classic shape function of Otten (reference \[23\]):
//!   a dominance-pruned staircase of `(width, height)` bounding boxes, with
//!   horizontal and vertical additions;
//! * [`EnhancedShapeFunction`] — the *enhanced* shape function of reference
//!   \[25\]: every shape additionally carries the B*-tree of its placement, so
//!   additions can merge the trees and repack, letting the two operands
//!   interleave (Fig. 7's `w_imp` improvement) instead of just abutting
//!   bounding boxes;
//! * [`DeterministicPlacer`] — hierarchically bounded enumeration: all
//!   placements of every *basic module set* (leaf group of the layout design
//!   hierarchy) are enumerated, stored as (enhanced) shape functions, and
//!   combined bottom-up along the hierarchy tree; the minimum-area root shape
//!   is the final placement;
//! * [`hier`] — the hierarchical **cross-engine** pipeline generalising that
//!   flow: small basic sets are enumerated exhaustively, larger hierarchy
//!   nodes are refined by pinned-seed B*-tree annealing over the node's
//!   modules, and every result is abstracted as an enhanced shape function
//!   and composed bottom-up with rayon-parallel candidate packing.
//!   [`DeterministicPlacer`] is its pure-enumeration configuration; the
//!   hybrid configuration is the portfolio's fourth engine (`hier`).
//!
//! The deterministic placer is the engine behind Table I and Fig. 8 of the
//! paper (experiments E1 and E6).
//!
//! # Example
//!
//! ```
//! use apls_circuit::benchmarks::miller_opamp_fig6;
//! use apls_shapefn::{DeterministicPlacer, ShapeModel};
//!
//! let circuit = miller_opamp_fig6();
//! let placer = DeterministicPlacer::new(&circuit);
//! let enhanced = placer.run(ShapeModel::Enhanced);
//! let regular = placer.run(ShapeModel::Regular);
//! // the enhanced model can only be as good or better
//! assert!(enhanced.area_usage <= regular.area_usage + 1e-9);
//! assert_eq!(enhanced.placement.as_ref().unwrap().metrics(&circuit.netlist).overlap_area, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod enhanced;
mod enumerate;
pub mod hier;
mod shape;

pub use enhanced::{EnhancedShape, EnhancedShapeFunction};
pub use enumerate::{DeterministicPlacer, DeterministicResult, PlacerOptions, ShapeModel};
pub use hier::{HierOptions, HierPlacer, HierResult};
pub use shape::{Shape, ShapeFunction};
