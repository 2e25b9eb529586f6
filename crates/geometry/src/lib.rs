//! Geometry substrate for analog layout synthesis.
//!
//! This crate provides the primitive geometric vocabulary shared by every
//! placement engine in the workspace:
//!
//! * [`Point`], [`Rect`] and [`Dims`] — integer (database-unit) coordinates,
//!   sizes and axis-aligned rectangles;
//! * [`Orientation`] — the eight layout orientations (rotations and mirrors);
//! * [`Contour`] — the horizontal skyline used by B*-tree packing;
//! * [`BoundingBox`] — incremental bounding-box accumulation;
//! * [`hpwl`] — half-perimeter wirelength of pin sets;
//! * [`overlap_area`] and [`total_overlap_area`] — overlap utilities for
//!   placement legality checking.
//!
//! All coordinates are `i64` database units (dbu). Using integers keeps every
//! packing algorithm exact and hashable, which matters for the enumeration and
//! shape-function code in the rest of the workspace.
//!
//! # Example
//!
//! ```
//! use apls_geometry::{Rect, Dims, Point};
//!
//! let a = Rect::from_dims(Point::new(0, 0), Dims::new(10, 20));
//! let b = Rect::from_dims(Point::new(10, 0), Dims::new(5, 5));
//! assert!(!a.overlaps(&b));
//! assert_eq!(a.union(&b).width(), 15);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bbox;
mod contour;
mod dims;
mod orientation;
mod point;
mod rect;
mod wirelength;

pub use bbox::BoundingBox;
pub use contour::{Contour, ContourSegment};
pub use dims::Dims;
pub use orientation::Orientation;
pub use point::Point;
pub use rect::{overlap_area, total_overlap_area, Rect};
pub use wirelength::{hpwl, hpwl_filtered, hpwl_of_points};

/// Database-unit coordinate type used throughout the workspace.
///
/// 1 dbu is interpreted as 1 nanometre by the higher-level crates, but nothing
/// in this crate depends on that interpretation.
pub type Coord = i64;
