//! Sequence-pair analog placement with symmetry constraints.
//!
//! This crate implements Section II of the DATE 2009 survey, *Device level
//! topological placement with symmetry constraints*:
//!
//! * [`SequencePair`] — the (α, β) topological encoding of Murata et al.;
//! * [`pack`] — two packing algorithms turning an encoding into a placement:
//!   the O(n²) constraint-graph longest-path packer and the FAST-SP-style
//!   O(n log n) weighted-LCS packer;
//! * [`symmetry`] — the *symmetric-feasible* predicate (property (1) of the
//!   paper), canonical S-F sequence-pair construction, and the S-F-preserving
//!   move set;
//! * [`place`] — construction of an exactly mirror-symmetric placement from a
//!   symmetric-feasible sequence-pair;
//! * [`counting`] — the search-space reduction lemma
//!   `(n!)² / Π_k (2p_k + s_k)!` together with brute-force enumeration for
//!   cross-checking;
//! * [`anneal`] — the simulated-annealing placer that explores only
//!   symmetric-feasible encodings.
//!
//! # Example
//!
//! Reproduce the Fig. 1 example of the paper: the sequence-pair
//! `(EBAFCDG, EBCDFAG)` is symmetric-feasible for the symmetry group
//! `γ = {(C, D), (B, G), A, F}` and packs into a legal, exactly symmetric
//! placement:
//!
//! ```
//! use apls_circuit::benchmarks::fig1_circuit;
//! use apls_seqpair::{SequencePair, symmetry, place::SymmetricPlacer};
//!
//! let (circuit, ids) = fig1_circuit();
//! let by_name = |n: usize| ids[n];
//! // E B A F C D G    /    E B C D F A G   (indices into `ids`: A=0..G=6)
//! let alpha = vec![by_name(4), by_name(1), by_name(0), by_name(5), by_name(2), by_name(3), by_name(6)];
//! let beta  = vec![by_name(4), by_name(1), by_name(2), by_name(3), by_name(5), by_name(0), by_name(6)];
//! let sp = SequencePair::from_sequences(alpha, beta).unwrap();
//! let group = &circuit.constraints.symmetry_groups()[0];
//! assert!(symmetry::is_symmetric_feasible(&sp, group));
//!
//! let placer = SymmetricPlacer::new(&circuit.netlist, &circuit.constraints);
//! let placement = placer.place(&sp);
//! assert_eq!(placement.metrics(&circuit.netlist).overlap_area, 0);
//! assert_eq!(placement.symmetry_error(&circuit.constraints), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anneal;
pub mod counting;
mod hot;
pub mod pack;
pub mod place;
mod seq;
pub mod symmetry;
pub mod tempering;

pub use anneal::{SeqPairPlacer, SeqPairPlacerConfig, SymmetryMode};
pub use pack::{PackAlgorithm, PackedFloorplan};
pub use seq::{SequencePair, SpUndoLog};
pub use tempering::{TemperingPlacerConfig, TemperingResult, TemperingSeqPairPlacer};
