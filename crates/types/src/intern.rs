//! String interning for `Value::Str` payloads.
//!
//! Stream workloads repeat string payloads heavily — host names, event
//! kinds, status codes — and every `Value::str` call used to allocate a
//! fresh `Arc<str>` even for a payload seen a million times before. The
//! interner keeps one shared `Arc<str>` per distinct payload in a
//! process-global table: repeated constructions return a clone of the
//! existing `Arc` (a refcount bump, no allocation).
//!
//! The table is bounded by [`MAX_INTERNED`] entries so an adversarial
//! stream of unique strings cannot grow it without limit; once full, new
//! distinct payloads fall back to plain uninterned allocation, which is
//! exactly the old behaviour. Interning is semantically invisible —
//! `Value` equality and ordering compare string *contents* — so the only
//! observable effect is fewer allocations and pointer-equal `Arc`s.
//!
//! This crate deliberately depends only on `std`, so
//! the table is a `std::sync::Mutex<HashSet<...>>`. The lock is held for
//! a hash lookup or insert only; `Value::str` is an ingest/construction
//! path, not a per-step operator path.

use std::collections::HashSet;
use std::sync::{Arc, Mutex, OnceLock};

/// Upper bound on distinct interned strings; beyond it, new payloads are
/// allocated uninterned (old behaviour) instead of growing the table.
pub const MAX_INTERNED: usize = 1 << 16;

fn table() -> &'static Mutex<HashSet<Arc<str>>> {
    static TABLE: OnceLock<Mutex<HashSet<Arc<str>>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(HashSet::new()))
}

/// Returns the shared `Arc<str>` for `s`, inserting it on first sight.
/// Falls back to a fresh allocation when the table is full or poisoned.
pub fn intern(s: &str) -> Arc<str> {
    let Ok(mut t) = table().lock() else {
        return Arc::from(s);
    };
    if let Some(existing) = t.get(s) {
        return Arc::clone(existing);
    }
    let arc: Arc<str> = Arc::from(s);
    if t.len() < MAX_INTERNED {
        t.insert(Arc::clone(&arc));
    }
    arc
}

/// Number of distinct strings currently interned (diagnostic).
pub fn interned_count() -> usize {
    table().lock().map(|t| t.len()).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_payloads_share_one_allocation() {
        let a = intern("millstream-intern-test-payload");
        let b = intern("millstream-intern-test-payload");
        assert!(Arc::ptr_eq(&a, &b));
        // A distinct payload gets a distinct allocation.
        let c = intern("millstream-intern-other-payload");
        assert!(!Arc::ptr_eq(&a, &c));
        assert!(interned_count() >= 2);
    }

    #[test]
    fn contents_are_preserved() {
        assert_eq!(&*intern("αβγ"), "αβγ");
        assert_eq!(&*intern(""), "");
    }
}
