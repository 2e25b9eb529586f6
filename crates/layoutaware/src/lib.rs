//! Layout-aware analog sizing (Section V of the DATE 2009 survey).
//!
//! The layout-aware sizing technique of reference \[4\] closes the loop between
//! electrical sizing and physical layout: every candidate sizing evaluated by
//! the optimiser is turned into a layout through a *template*, parasitics are
//! extracted from that layout, and the performance is judged **including**
//! those parasitics and the geometric objectives (area, aspect ratio). This
//! avoids the classical sizing → layout → extraction → re-sizing iterations.
//!
//! The paper's implementation uses SPICE simulation and Cadence PCELL
//! templates; this crate substitutes both with self-contained Rust models
//! (documented in DESIGN.md §2) that preserve the loop structure and the
//! trade-offs:
//!
//! * [`model`] — square-law MOS device models and an analytical performance
//!   model of a fully-differential folded-cascode amplifier (dc gain, GBW,
//!   phase margin, power);
//! * [`template`] — a procedural layout template that turns a sizing into
//!   module rectangles, wire lengths and a chip outline;
//! * [`extract`] — parasitic extraction from the template geometry (junction
//!   and wire capacitances) feeding back into the performance model;
//! * [`sizing`] — the simulated-annealing sizing optimiser with two modes:
//!   electrical-only (the classical flow) and layout-aware (the paper's flow),
//!   reproducing the Fig. 10 comparison and the "extraction is a small
//!   fraction of total sizing time" observation.
//!
//! # Example
//!
//! ```
//! use apls_layoutaware::sizing::{SizingOptimizer, SizingConfig, SizingMode};
//! use apls_layoutaware::model::Specs;
//!
//! let specs = Specs::default();
//! let optimizer = SizingOptimizer::new(specs);
//! let result = optimizer.run(&SizingConfig { mode: SizingMode::LayoutAware, iterations: 300, seed: 1 });
//! assert!(result.post_layout.gain_db > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod extract;
pub mod model;
pub mod sizing;
pub mod template;
