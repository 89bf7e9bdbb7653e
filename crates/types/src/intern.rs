//! String interning for `Value::Str` payloads.
//!
//! Stream workloads repeat string payloads heavily — host names, event
//! kinds, status codes — and every `Value::str` call used to allocate
//! fresh string storage even for a payload seen a million times before.
//! The interner keeps one shared handle per distinct payload in a
//! process-global table: repeated constructions return a clone of the
//! existing handle (a refcount bump, no allocation).
//!
//! The handle is `Arc<Box<str>>`, the payload type of `Value::Str`: one
//! pointer wide, because the string's length lives in the shared `Arc`
//! allocation (beside the refcounts) rather than in the handle. That is
//! what keeps `Value` at 16 bytes; a read pays one more pointer hop.
//! The table keys on a private newtype that borrows as `str`, so a
//! lookup takes the caller's `&str` without building a handle first.
//!
//! The table is bounded by [`MAX_INTERNED`] entries so an adversarial
//! stream of unique strings cannot grow it without limit; once full, new
//! distinct payloads fall back to plain uninterned allocation, which is
//! exactly the old behaviour. Interning is semantically invisible —
//! `Value` equality and ordering compare string *contents* — so the only
//! observable effect is fewer allocations and pointer-equal handles.
//!
//! This crate deliberately depends only on `std`, so
//! the table is a `std::sync::Mutex<HashSet<...>>`. The lock is held for
//! a hash lookup or insert only; `Value::str` is an ingest/construction
//! path, not a per-step operator path.

use std::borrow::Borrow;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

/// Upper bound on distinct interned strings; beyond it, new payloads are
/// allocated uninterned (old behaviour) instead of growing the table.
pub const MAX_INTERNED: usize = 1 << 16;

/// A table entry: equal, hashed and borrowed as its string contents, so
/// `HashSet::get` accepts a plain `&str`.
struct Key(Arc<Box<str>>);

impl Borrow<str> for Key {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        **self.0 == **other.0
    }
}

impl Eq for Key {}

impl Hash for Key {
    // Must hash exactly as `str` does, for `Borrow<str>` lookups.
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self.0).hash(state);
    }
}

fn table() -> &'static Mutex<HashSet<Key>> {
    static TABLE: OnceLock<Mutex<HashSet<Key>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(HashSet::new()))
}

/// Returns the shared handle for `s`, inserting it on first sight.
/// Falls back to a fresh allocation when the table is full or poisoned.
pub fn intern(s: &str) -> Arc<Box<str>> {
    let fresh = || Arc::new(Box::<str>::from(s));
    let Ok(mut t) = table().lock() else {
        return fresh();
    };
    if let Some(existing) = t.get(s) {
        return Arc::clone(&existing.0);
    }
    let arc = fresh();
    if t.len() < MAX_INTERNED {
        t.insert(Key(Arc::clone(&arc)));
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
        assert_eq!(&**intern("αβγ"), "αβγ");
        assert_eq!(&**intern(""), "");
    }
}
