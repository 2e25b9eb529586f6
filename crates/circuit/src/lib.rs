//! Circuit substrate for analog layout synthesis.
//!
//! This crate models everything the placement engines need to know about the
//! circuit being laid out:
//!
//! * [`Module`] / [`ModuleId`] — the rectangular devices or device groups to be
//!   placed, possibly with several discrete shape variants;
//! * [`Net`] / [`Netlist`] — connectivity for wirelength estimation;
//! * [`Placement`] — a full assignment of positions and orientations together
//!   with quality metrics (area usage, HPWL, overlap, symmetry error);
//! * [`constraint`] — the analog layout constraints of the DATE 2009 survey:
//!   symmetry groups, common-centroid groups, proximity groups, and their
//!   hierarchical variants;
//! * [`hierarchy`] — layout design hierarchy trees whose leaves are modules and
//!   whose internal nodes are sub-circuits / basic module sets;
//! * [`benchmarks`] — seeded synthetic benchmark circuits whose module counts
//!   match Table I of the paper (`miller_v2`, `comparator_v2`,
//!   `folded_cascode`, `buffer`, `biasynth`, `lnamixbias`).
//!
//! # Example
//!
//! ```
//! use apls_circuit::{Netlist, Module};
//! use apls_geometry::Dims;
//!
//! let mut netlist = Netlist::new("two_transistors");
//! let m1 = netlist.add_module(Module::new("M1", Dims::new(40, 20)));
//! let m2 = netlist.add_module(Module::new("M2", Dims::new(40, 20)));
//! netlist.add_net("drain", [m1, m2]);
//! assert_eq!(netlist.module_count(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adjacency;
pub mod benchmarks;
pub mod constraint;
mod delta;
pub mod hierarchy;
mod module;
mod net;
mod netlist;
mod placement;

pub use adjacency::NetAdjacency;
pub use constraint::{
    CommonCentroidGroup, ConstraintKind, ConstraintSet, ProximityGroup, SymmetryGroup, SymmetryRole,
};
pub use delta::DeltaCost;
pub use hierarchy::{HierarchyNode, HierarchyNodeId, HierarchyTree};
pub use module::{Module, ModuleId, ShapeVariant};
pub use net::{Net, NetId};
pub use netlist::Netlist;
pub use placement::{PlacedModule, Placement, PlacementMetrics};
