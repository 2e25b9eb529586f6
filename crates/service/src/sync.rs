//! Poison-recovering lock acquisition.
//!
//! `std::sync::Mutex` poisons itself when a holder panics, and every later
//! `lock().expect(..)` then panics too — one crashed worker cascades into
//! whole-service death. All the state the daemon guards this way (the LRU
//! cache, the enqueue slot, the queue receiver, the journal file) stays
//! structurally valid across a panic: each critical section either completes
//! its mutation or leaves a value that is merely stale, never torn. So the
//! right recovery is to take the poisoned guard and keep going, counting the
//! event in the service's `poison_recoveries_total` series so `stats` and
//! `/metrics` can report that a panic happened.

use apls_telemetry::Counter;
use std::sync::{Mutex, MutexGuard};

/// Locks `mutex`, recovering a poisoned guard instead of propagating the
/// panic of whoever poisoned it, and counting each recovery in
/// `recoveries`.
pub fn lock_or_recover<'a, T>(mutex: &'a Mutex<T>, recoveries: &Counter) -> MutexGuard<'a, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => {
            recoveries.inc();
            poisoned.into_inner()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apls_telemetry::MetricsRegistry;
    use std::sync::Arc;

    #[test]
    fn recovers_a_poisoned_lock_and_counts_it() {
        let recoveries = MetricsRegistry::new().counter("poison_recoveries_total");
        let mutex = Arc::new(Mutex::new(7u64));
        let poisoner = Arc::clone(&mutex);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        assert!(mutex.lock().is_err(), "lock is poisoned");
        assert_eq!(*lock_or_recover(&mutex, &recoveries), 7, "value survives the poisoning");
        assert_eq!(recoveries.get(), 1);
        // the guard works normally after recovery
        *lock_or_recover(&mutex, &recoveries) = 8;
        assert_eq!(*lock_or_recover(&mutex, &recoveries), 8);
    }
}
