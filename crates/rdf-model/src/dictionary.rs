//! The term dictionary: a two-way mapping between RDF terms and dense
//! integer ids.
//!
//! This mirrors the paper's Postgres `dictionary` table (§6): "For each
//! resource from G, the dictionary table stores its unique integer value.
//! Operating on integers instead of strings provides for savings both in
//! processing time and memory." Here the dictionary is an in-memory interner;
//! ids are dense (`0..len`), assigned in first-seen order, so algorithms can
//! allocate `Vec`-based side tables indexed by id.
//!
//! Terms can be interned from a borrowed [`TermRef`] view
//! ([`Dictionary::encode_ref`]): a term already in the dictionary costs one
//! hash probe and no allocation, so a loader owns a copy of each distinct
//! term once, however often it occurs.

use crate::hash::FxHashMap;
use crate::ids::TermId;
use crate::term::{SharedTerm, Term, TermRef};
use std::borrow::Borrow;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Anything that can present itself as a [`TermRef`]: the common key type
/// through which the reverse map, keyed by owned `Arc<Term>`, is probed
/// with a borrowed view. Hash and equality are defined once, on the view.
trait TermKey {
    fn key(&self) -> TermRef<'_>;
}

impl TermKey for Term {
    fn key(&self) -> TermRef<'_> {
        self.view()
    }
}

impl TermKey for TermRef<'_> {
    fn key(&self) -> TermRef<'_> {
        *self
    }
}

impl<'a> Borrow<dyn TermKey + 'a> for SharedTerm {
    fn borrow(&self) -> &(dyn TermKey + 'a) {
        &**self
    }
}

/// Agrees with `Hash for Term`, which also hashes the view.
impl Hash for dyn TermKey + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key().hash(state)
    }
}

impl PartialEq for dyn TermKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for dyn TermKey + '_ {}

/// Interns RDF terms, assigning each distinct term a dense [`TermId`].
#[derive(Default, Clone, Debug)]
pub struct Dictionary {
    forward: Vec<SharedTerm>,
    reverse: FxHashMap<SharedTerm, TermId>,
}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty dictionary with capacity for `n` terms.
    pub fn with_capacity(n: usize) -> Self {
        Dictionary {
            forward: Vec::with_capacity(n),
            reverse: FxHashMap::with_capacity_and_hasher(n, Default::default()),
        }
    }

    /// Interns `term`, returning its id (allocating a fresh id for unseen
    /// terms). The term's string data is stored once and shared.
    pub fn encode(&mut self, term: Term) -> TermId {
        match self.reverse.get(&term) {
            Some(&id) => id,
            None => self.push(Arc::new(term)),
        }
    }

    /// Interns a borrowed view of a term, returning its id. The term's
    /// strings are copied only when it is not interned yet; a known term
    /// costs one hash probe and no allocation.
    pub fn encode_ref(&mut self, term: TermRef<'_>) -> TermId {
        match self.reverse.get(&term as &dyn TermKey) {
            Some(&id) => id,
            None => self.push(Arc::new(term.to_term())),
        }
    }

    /// Interns an already-shared term, returning its id. Unlike
    /// [`Dictionary::encode`] this never clones the term's string data —
    /// the `Arc` itself is stored — which is how summary emission
    /// transfers constants between dictionaries without string round-trips.
    pub fn encode_shared(&mut self, term: SharedTerm) -> TermId {
        match self.reverse.get(&term) {
            Some(&id) => id,
            None => self.push(term),
        }
    }

    /// Appends a term known to be absent, assigning it the next id.
    fn push(&mut self, term: SharedTerm) -> TermId {
        let id = TermId::from_index(self.forward.len());
        self.forward.push(Arc::clone(&term));
        self.reverse.insert(term, id);
        id
    }

    /// Looks up a term's id without interning it.
    ///
    /// Lookup uses the term's structural identity. Note that a minted
    /// summary term ([`Term::Minted`]) is **not** equal to a plain
    /// [`Term::Iri`] carrying its rendered URI — minted identity is the
    /// interned set key, not the string (see [`crate::minted`]) — so
    /// probing a summary graph's dictionary with `Term::iri("urn:rdfsummary:…")`
    /// finds nothing. To address summary nodes by rendered name, compare
    /// rendered strings (`Term::as_iri`) or go through a serialization
    /// round-trip, which re-materializes plain IRIs.
    pub fn lookup(&self, term: &Term) -> Option<TermId> {
        self.reverse.get(term).copied()
    }

    /// The shared handle of an interned term, for zero-copy transfer into
    /// another dictionary (see [`Dictionary::encode_shared`]) or into a
    /// [`crate::minted::MintedTerm`] key.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this dictionary.
    #[inline]
    pub fn shared(&self, id: TermId) -> &SharedTerm {
        &self.forward[id.index()]
    }

    /// Decodes an id back into its term.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this dictionary.
    pub fn decode(&self, id: TermId) -> &Term {
        &self.forward[id.index()]
    }

    /// Decodes an id if it is valid for this dictionary.
    pub fn try_decode(&self, id: TermId) -> Option<&Term> {
        self.forward.get(id.index()).map(|a| a.as_ref())
    }

    /// Number of distinct interned terms.
    pub fn len(&self) -> usize {
        self.forward.len()
    }

    /// True when no term has been interned.
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }

    /// Iterates `(id, term)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &Term)> {
        self.forward
            .iter()
            .enumerate()
            .map(|(i, t)| (TermId::from_index(i), t.as_ref()))
    }

    /// Interns an IRI given as a string (hot path for loaders).
    pub fn encode_iri(&mut self, iri: impl Into<String>) -> TermId {
        self.encode(Term::Iri(iri.into()))
    }

    /// Generates a fresh IRI of the form `{prefix}{n}` guaranteed not to
    /// collide with any interned term, interning and returning it.
    ///
    /// This backs the paper's representation functions `N(TC, SC)` and
    /// `C(X)`, which must return *new* URIs for summary nodes.
    pub fn fresh_iri(&mut self, prefix: &str) -> TermId {
        let mut n = self.forward.len();
        loop {
            let candidate = Term::Iri(format!("{prefix}{n}"));
            if self.lookup(&candidate).is_none() {
                return self.encode(candidate);
            }
            n += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_is_idempotent() {
        let mut d = Dictionary::new();
        let a = d.encode(Term::iri("http://x/a"));
        let b = d.encode(Term::iri("http://x/a"));
        assert_eq!(a, b);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn ids_are_dense_and_first_seen_ordered() {
        let mut d = Dictionary::new();
        let a = d.encode(Term::iri("a"));
        let b = d.encode(Term::literal("b"));
        let c = d.encode(Term::blank("c"));
        assert_eq!((a.index(), b.index(), c.index()), (0, 1, 2));
    }

    #[test]
    fn decode_roundtrip() {
        let mut d = Dictionary::new();
        let terms = [
            Term::iri("http://x/a"),
            Term::literal("lit"),
            Term::lang_literal("bonjour", "fr"),
            Term::typed_literal("3", "http://www.w3.org/2001/XMLSchema#int"),
            Term::blank("b0"),
        ];
        let ids: Vec<_> = terms.iter().cloned().map(|t| d.encode(t)).collect();
        for (t, id) in terms.iter().zip(&ids) {
            assert_eq!(d.decode(*id), t);
            assert_eq!(d.lookup(t), Some(*id));
        }
    }

    #[test]
    fn distinct_literal_kinds_get_distinct_ids() {
        let mut d = Dictionary::new();
        let simple = d.encode(Term::literal("a"));
        let lang = d.encode(Term::lang_literal("a", "en"));
        let typed = d.encode(Term::typed_literal("a", "dt"));
        assert_ne!(simple, lang);
        assert_ne!(simple, typed);
        assert_ne!(lang, typed);
    }

    #[test]
    fn views_intern_to_the_owned_terms_ids() {
        let mut d = Dictionary::new();
        let terms = [
            Term::iri("http://x/a"),
            Term::blank("http://x/a"),
            Term::literal("http://x/a"),
            Term::lang_literal("a", "en"),
            Term::typed_literal("a", "en"),
        ];
        let ids: Vec<_> = terms.iter().map(|t| d.encode_ref(t.view())).collect();
        assert_eq!(d.len(), terms.len());
        for (t, id) in terms.iter().zip(&ids) {
            assert_eq!(d.encode(t.clone()), *id);
            assert_eq!(d.encode_ref(t.view()), *id);
            assert_eq!(d.decode(*id), t);
        }
        assert_eq!(d.len(), terms.len());
    }

    #[test]
    fn lookup_missing_is_none() {
        let d = Dictionary::new();
        assert_eq!(d.lookup(&Term::iri("nope")), None);
        assert_eq!(d.try_decode(TermId(0)), None);
    }

    #[test]
    fn fresh_iri_avoids_collisions() {
        let mut d = Dictionary::new();
        // Pre-intern something that could collide with the generator.
        d.encode(Term::iri("sum:n1"));
        let f1 = d.fresh_iri("sum:n");
        let f2 = d.fresh_iri("sum:n");
        assert_ne!(f1, f2);
        assert_ne!(d.decode(f1), &Term::iri("sum:n1"));
        assert!(d.decode(f1).as_iri().unwrap().starts_with("sum:n"));
    }

    #[test]
    fn iter_visits_in_id_order() {
        let mut d = Dictionary::new();
        d.encode(Term::iri("a"));
        d.encode(Term::iri("b"));
        let collected: Vec<_> = d.iter().map(|(id, _)| id.index()).collect();
        assert_eq!(collected, vec![0, 1]);
    }
}
