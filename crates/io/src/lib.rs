//! The `.apls` circuit interchange format.
//!
//! Everything the placement engines consume — a [`BenchmarkCircuit`]'s
//! netlist, shape variants, weighted nets, layout design hierarchy and
//! symmetry / common-centroid / proximity groups — round-trips through a
//! line-oriented textual format:
//!
//! ```text
//! apls 1
//! circuit "miller_opamp"
//! module "P1" 60 30 norotate
//! module "C" 90 90 rotate
//! net "diff_out" 2 1 3 7 8
//! sym "dp_sym" pairs 0 1 2 3 selfs
//! cc "load_cc" a 2 b 3
//! prox "bias_prox" gap 10 members 4 5 6
//! node 0 leaf 0
//! node 9 group "DP" sym 0 1
//! root 14
//! ```
//!
//! * [`parse_circuit`] — a hand-rolled recursive-descent parser producing
//!   positioned error messages (`line:col: expected …`, see [`ParseError`]);
//! * [`serialize_circuit`] — the canonical serializer. Canonical form is a
//!   *fixed point*: `serialize(parse(s)) == s` for every canonical document
//!   `s`, and `parse(serialize(c))` reproduces `c` exactly (module ids, net
//!   order, hierarchy node ids, constraint groups — everything the engines
//!   and the seed streams key off);
//! * [`canonical_hash`] / [`circuit_fingerprint`] — stable FNV-1a content
//!   hashes of the canonical form, used by `apls-service` as the circuit
//!   component of its result-cache key (a hit also needs byte-equal
//!   canonical text).
//!
//! The grammar is documented in DESIGN.md §10; the seven bundled benchmark
//! circuits are checked in under `examples/circuits/*.apls`.
//!
//! # Example
//!
//! ```
//! use apls_circuit::benchmarks;
//! use apls_io::{parse_circuit, serialize_circuit};
//!
//! let circuit = benchmarks::miller_opamp_fig6();
//! let text = serialize_circuit(&circuit);
//! let parsed = parse_circuit(&text).expect("canonical form parses");
//! assert_eq!(parsed.netlist, circuit.netlist);
//! assert_eq!(serialize_circuit(&parsed), text); // fixed point
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod lexer;
mod parse;
mod ser;

pub use lexer::ParseError;
pub use parse::parse_circuit;
pub use ser::serialize_circuit;

use apls_circuit::benchmarks::BenchmarkCircuit;

/// The format version emitted and accepted by this crate.
pub const FORMAT_VERSION: u32 = 1;

/// Stable 64-bit FNV-1a hash of a byte string.
///
/// `apls-service` keys its result cache and journal records by this hash of
/// the canonical circuit text; the function is pinned here (rather than
/// `std::hash`) so the hash is stable across Rust releases and platforms.
#[must_use]
pub fn canonical_hash(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Content fingerprint of a circuit: the [`canonical_hash`] of its canonical
/// `.apls` serialization. Circuits that are indistinguishable to the
/// placement engines always share a fingerprint; as with any 64-bit
/// non-cryptographic hash, distinct circuits can collide, so treat it as a
/// summary for logs and change detection, not as proof of identity
/// (`apls-service` keys its cache by (hash, config, seed) and, for exactly
/// this reason, serves a hit only when the cached entry's canonical text is
/// byte-equal to the request's).
#[must_use]
pub fn circuit_fingerprint(circuit: &BenchmarkCircuit) -> u64 {
    canonical_hash(&serialize_circuit(circuit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use apls_circuit::benchmarks;

    #[test]
    fn fingerprint_is_stable_per_circuit() {
        let a = circuit_fingerprint(&benchmarks::miller_opamp_fig6());
        let b = circuit_fingerprint(&benchmarks::miller_opamp_fig6());
        assert_eq!(a, b);
        let c = circuit_fingerprint(&benchmarks::miller_v2());
        assert_ne!(a, c);
    }

    #[test]
    fn fnv_vector() {
        // standard FNV-1a test vectors
        assert_eq!(canonical_hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(canonical_hash("a"), 0xaf63_dc4c_8601_ec8c);
    }
}
