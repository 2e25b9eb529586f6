//! Circuits resolved to their canonical form once, not once per request.
//!
//! Every `place` request needs its circuit three ways: the circuit itself
//! for the engines, its canonical `.apls` text for the cache's byte check
//! and its [`canonical_hash`] for the cache key. Building those costs far
//! more than a cache hit should (a bundled circuit is rebuilt and
//! reserialised, an inline one reparsed), so both sources are memoised:
//!
//! * **bundled names** resolve through a process-wide table, filled lazily
//!   per name, so `by_name`, `serialize_circuit` and `canonical_hash` run
//!   once per name and process;
//! * **inline text** is looked up by its raw bytes in an LRU intern table of
//!   canonical texts ([`Interner`]). A byte-equal match *is* that circuit's
//!   canonical form, because canonical text is a fixed point of
//!   `serialize(parse(·))` (pinned by `apls-io`'s fixture and round-trip
//!   tests). Any other text is parsed, serialised and hashed, and the result
//!   interned under its canonical text.

use crate::cache::LruCache;
use crate::protocol::CircuitSource;
use crate::sync::lock_or_recover;
use apls_circuit::benchmarks::{self, BenchmarkCircuit};
use apls_io::{canonical_hash, serialize_circuit};
use apls_telemetry::Counter;
use std::sync::{Arc, Mutex, OnceLock};

/// A circuit together with its canonical `.apls` text and that text's hash.
#[derive(Debug, Clone)]
pub(crate) struct Canonical {
    /// Canonical `.apls` text ([`serialize_circuit`]).
    pub(crate) text: Arc<str>,
    /// [`canonical_hash`] of `text`.
    pub(crate) hash: u64,
    /// The circuit the engines solve.
    pub(crate) circuit: Arc<BenchmarkCircuit>,
}

impl Canonical {
    fn of(circuit: BenchmarkCircuit) -> Canonical {
        let text: Arc<str> = serialize_circuit(&circuit).into();
        Canonical { hash: canonical_hash(&text), text, circuit: Arc::new(circuit) }
    }
}

/// The bundled circuit called `name`, built on first use and shared for the
/// rest of the process.
fn bundled(name: &str) -> Option<Canonical> {
    static TABLE: OnceLock<Vec<(&'static str, OnceLock<Canonical>)>> = OnceLock::new();
    let table = TABLE
        .get_or_init(|| benchmarks::names().into_iter().map(|n| (n, OnceLock::new())).collect());
    let (known, slot) = table.iter().find(|(known, _)| *known == name)?;
    let canonical = slot.get_or_init(|| {
        Canonical::of(benchmarks::by_name(known).expect("every listed name resolves"))
    });
    Some(canonical.clone())
}

/// Resolves circuit sources, interning inline circuits by canonical text.
pub(crate) struct Interner {
    inline: Mutex<LruCache<Arc<str>, Canonical>>,
    /// The service's `poison_recoveries_total`.
    recoveries: Counter,
}

impl Interner {
    /// An intern table holding at most `capacity` inline circuits (`0`
    /// parses every inline request).
    pub(crate) fn new(capacity: usize, recoveries: Counter) -> Interner {
        Interner { inline: Mutex::new(LruCache::new(capacity)), recoveries }
    }

    /// The canonical form of a request's circuit, or the client-facing
    /// reason it has none (unknown name, `.apls` diagnostic).
    pub(crate) fn resolve(&self, source: &CircuitSource) -> Result<Canonical, String> {
        match source {
            CircuitSource::Bundled(name) => bundled(name).ok_or_else(|| {
                format!("unknown circuit '{name}' (available: {})", benchmarks::names().join(", "))
            }),
            CircuitSource::Inline(text) => {
                let inline = || lock_or_recover(&self.inline, &self.recoveries);
                if let Some(canonical) = inline().get(text.as_str()) {
                    return Ok(canonical.clone());
                }
                // parse outside the lock: a large circuit takes milliseconds
                let circuit = apls_io::parse_circuit(text)
                    .map_err(|e| format!("invalid inline circuit: {e}"))?;
                let canonical = Canonical::of(circuit);
                inline().insert(Arc::clone(&canonical.text), canonical.clone());
                Ok(canonical)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn interner(capacity: usize) -> Interner {
        Interner::new(
            capacity,
            apls_telemetry::MetricsRegistry::new().counter("poison_recoveries_total"),
        )
    }

    #[test]
    fn bundled_circuits_resolve_once_per_process() {
        let interner = interner(4);
        let source = CircuitSource::Bundled("miller_v2".to_string());
        let first = interner.resolve(&source).expect("bundled");
        let second = interner.resolve(&source).expect("bundled");
        assert!(Arc::ptr_eq(&first.text, &second.text));
        assert!(Arc::ptr_eq(&first.circuit, &second.circuit));
        assert_eq!(&*first.text, serialize_circuit(&benchmarks::miller_v2()));
        assert_eq!(first.hash, apls_io::circuit_fingerprint(&benchmarks::miller_v2()));
    }

    #[test]
    fn unknown_names_list_the_bundled_ones() {
        let err =
            interner(4).resolve(&CircuitSource::Bundled("nope".to_string())).expect_err("unknown");
        assert!(err.starts_with("unknown circuit 'nope' (available: miller_opamp_fig6"), "{err}");
    }

    #[test]
    fn canonical_inline_text_is_interned_by_its_bytes() {
        let interner = interner(4);
        let text = serialize_circuit(&benchmarks::comparator_v2());
        let first = interner.resolve(&CircuitSource::Inline(text.clone())).expect("parses");
        let second = interner.resolve(&CircuitSource::Inline(text.clone())).expect("interned");
        assert!(Arc::ptr_eq(&first.text, &second.text), "second lookup must not reparse");
        assert_eq!(&*first.text, text);
        let bundled = interner
            .resolve(&CircuitSource::Bundled("comparator_v2".to_string()))
            .expect("bundled");
        assert_eq!((&*first.text, first.hash), (&*bundled.text, bundled.hash));
    }

    #[test]
    fn non_canonical_inline_text_resolves_to_the_canonical_form() {
        let interner = interner(4);
        let canonical = serialize_circuit(&benchmarks::comparator_v2());
        let noisy = format!("# hand-edited copy\n\n{}", canonical.replace(" rotate", "  rotate"));
        assert_ne!(noisy, canonical);
        let resolved = interner.resolve(&CircuitSource::Inline(noisy)).expect("parses");
        assert_eq!(&*resolved.text, canonical);
        // interned under its canonical text, so the canonical copy hits it
        let copy = interner.resolve(&CircuitSource::Inline(canonical)).expect("interned");
        assert!(Arc::ptr_eq(&resolved.text, &copy.text));
    }

    #[test]
    fn a_zero_capacity_table_still_resolves_and_bad_text_reports_its_position() {
        let interner = interner(0);
        let text = serialize_circuit(&benchmarks::miller_v2());
        let a = interner.resolve(&CircuitSource::Inline(text.clone())).expect("parses");
        let b = interner.resolve(&CircuitSource::Inline(text)).expect("parses again");
        assert_eq!(a.text, b.text);
        let err =
            interner.resolve(&CircuitSource::Inline("apls 1\nbogus".to_string())).expect_err("bad");
        assert!(err.starts_with("invalid inline circuit: 2:"), "{err}");
    }
}
