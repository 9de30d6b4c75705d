//! String dictionary encoding.
//!
//! String columns store a `u32` code per row plus one [`Dictionary`] mapping
//! codes to distinct strings. Group-by keys then compare as integers, which
//! is what makes the hash aggregation cheap.

use crate::fx::FxHashMap;

/// An append-only mapping between distinct strings and dense `u32` codes.
///
/// The index is keyed with the engine's fixed-seed hasher, not a
/// per-process random one: a clone copies the index in bucket order, so
/// with a random seed the order of the clone's allocations — and the heap
/// layout every later allocation meets — would change from run to run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Dictionary {
    values: Vec<String>,
    index: FxHashMap<String, u32>,
}

impl Dictionary {
    /// An empty dictionary.
    pub fn new() -> Self {
        Dictionary::default()
    }

    /// Interns `s`, returning its code (allocating one if unseen).
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&code) = self.index.get(s) {
            return code;
        }
        let code = u32::try_from(self.values.len()).expect("dictionary overflow");
        self.values.push(s.to_string());
        self.index.insert(s.to_string(), code);
        code
    }

    /// The code of `s`, if already interned.
    pub fn lookup(&self, s: &str) -> Option<u32> {
        self.index.get(s).copied()
    }

    /// The string for `code`.
    ///
    /// # Panics
    /// Panics if the code was not produced by this dictionary.
    pub fn decode(&self, code: u32) -> &str {
        &self.values[code as usize]
    }

    /// Number of distinct strings.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when no string has been interned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Approximate heap footprint in bytes (strings + index).
    pub fn heap_bytes(&self) -> u64 {
        self.values.iter().map(|s| s.len() as u64 + 24).sum::<u64>() * 2 // stored once in `values`, once in `index`
    }

    /// Iterates `(code, string)` pairs in code order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.values
            .iter()
            .enumerate()
            .map(|(i, s)| (i as u32, s.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_order_is_the_same_in_every_build() {
        let build = || {
            let mut d = Dictionary::new();
            for s in ["France", "Italy", "Spain", "Auvergne", "Lazio", "Aragon"] {
                d.intern(s);
            }
            d
        };
        let order = |d: &Dictionary| d.index.keys().cloned().collect::<Vec<_>>();
        let first = order(&build());
        assert_eq!(order(&build()), first);
        assert_eq!(order(&build().clone()), first);
    }

    #[test]
    fn intern_is_idempotent() {
        let mut d = Dictionary::new();
        let a = d.intern("France");
        let b = d.intern("Italy");
        assert_ne!(a, b);
        assert_eq!(d.intern("France"), a);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn decode_roundtrip() {
        let mut d = Dictionary::new();
        let code = d.intern("Auvergne");
        assert_eq!(d.decode(code), "Auvergne");
        assert_eq!(d.lookup("Auvergne"), Some(code));
        assert_eq!(d.lookup("Campania"), None);
    }

    #[test]
    fn codes_are_dense_and_ordered() {
        let mut d = Dictionary::new();
        for (i, s) in ["a", "b", "c"].iter().enumerate() {
            assert_eq!(d.intern(s), i as u32);
        }
        let pairs: Vec<(u32, &str)> = d.iter().collect();
        assert_eq!(pairs, vec![(0, "a"), (1, "b"), (2, "c")]);
    }

    #[test]
    fn empty_dictionary() {
        let d = Dictionary::new();
        assert!(d.is_empty());
        assert_eq!(d.len(), 0);
        assert_eq!(d.heap_bytes(), 0);
    }
}
