//! Dense strict partial orders with eager transitive closure — the one
//! order type behind happens-before.
//!
//! [`HbRelation`](crate::hb::HbRelation) knows all its edges up front, all
//! pointing forward, and closes them with [`Rel::from_forward_edges`]. The
//! `wo-axiom` engine commits edges one at a time — a reads-from choice
//! here, a coherence orientation there — and each commitment must
//! immediately expose every ordering consequence (so saturation can derive
//! from-reads edges) and reject cycles (the acyclicity check of the SC
//! axiom). [`Rel::add_edge`] therefore unions reachability sets in
//! O(n²/64) words and detects a cycle the moment the offending edge is
//! proposed.
//!
//! A search commits an edge, explores, and takes the edge back before
//! trying the alternative. [`Rel::add_edge_logged`] records every word
//! the closure changes as `(index, old value)` on the relation's trail;
//! [`Rel::mark`] names a point on it and [`Rel::rollback`] restores every
//! word changed since, newest first. Undoing costs what the edges
//! changed, not a copy of the relation, so one relation serves a whole
//! search. A rejected edge, or one already derived, changes nothing and
//! logs nothing.
//!
//! One closure routine serves every insertion: a single edge, or
//! [`Rel::add_edges_logged`]'s set of tails into one head (the engine's
//! from-reads: all readers of one write before a later write, one call
//! per write pair). It is written once over the row width and compiled
//! twice: at one word, where a relation over at most 64 elements keeps
//! each row in one `u64` and the word loops vanish, and at the run-time
//! width. [`Rel::refill_forward_edges`] rebuilds a relation in place, so
//! a relation rebuilt per input reuses its buffers.

/// The error returned when an edge would close a cycle: the proposed
/// `a → b` contradicts an already-derived `b → a` (or `a == b`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cycle;

/// A strict partial order over `0..n`, stored closed under transitivity.
///
/// Both successor and predecessor bitsets are kept so that edge insertion
/// can union `pred(a) ∪ {a}` against `succ(b) ∪ {b}` directly.
///
/// # Examples
///
/// ```
/// use memory_model::rel::Rel;
///
/// let mut r = Rel::new(3);
/// r.add_edge(0, 1).unwrap();
/// r.add_edge(1, 2).unwrap();
/// assert!(r.ordered(0, 2), "closure is maintained eagerly");
/// assert!(r.add_edge(2, 0).is_err(), "cycles are rejected");
/// assert_eq!(r.topo(), vec![0, 1, 2]);
/// ```
#[derive(Debug)]
pub struct Rel {
    n: usize,
    words: usize,
    /// Row `i < n`: bitset of nodes strictly after `i`. Row `n + i`:
    /// bitset of nodes strictly before `i`. Each row is `words` long.
    bits: Vec<u64>,
    /// `(word index, old value)` per word a logged edge changed, oldest
    /// first.
    trail: Vec<(usize, u64)>,
}

/// Two relations are equal when they order the same pairs; the trail is
/// bookkeeping and takes no part.
impl PartialEq for Rel {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.bits == other.bits
    }
}

impl Eq for Rel {}

/// `clone_from` reuses the destination's buffers, so a scratch relation
/// reset from a base allocates nothing.
impl Clone for Rel {
    fn clone(&self) -> Self {
        Rel { n: self.n, words: self.words, bits: self.bits.clone(), trail: self.trail.clone() }
    }

    fn clone_from(&mut self, source: &Self) {
        self.n = source.n;
        self.words = source.words;
        self.bits.clone_from(&source.bits);
        self.trail.clone_from(&source.trail);
    }
}

/// The empty order over zero elements, to refill or `clone_from` into.
impl Default for Rel {
    fn default() -> Self {
        Rel::new(0)
    }
}

impl Rel {
    /// The empty order over `0..n`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        let words = n.div_ceil(64).max(1);
        Rel { n, words, bits: vec![0; 2 * n * words], trail: Vec::new() }
    }

    /// The closure of `edges` over `0..n`, each pointing forward (`a < b`)
    /// and listed in nondecreasing order of target. A backward pass closes
    /// the successor rows, a forward pass the predecessor rows:
    /// O(edges·n/64).
    ///
    /// # Panics
    ///
    /// Panics if an edge does not point forward or leaves `0..n`.
    #[must_use]
    pub fn from_forward_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut r = Rel::new(0);
        r.refill_forward_edges(n, edges);
        r
    }

    /// [`from_forward_edges`](Self::from_forward_edges) in place: the
    /// relation becomes the closure of `edges` over `0..n` with an empty
    /// trail, reusing its buffers, so a relation rebuilt per input
    /// allocates only when it grows.
    ///
    /// # Panics
    ///
    /// Panics if an edge does not point forward or leaves `0..n`.
    pub fn refill_forward_edges(&mut self, n: usize, edges: &[(usize, usize)]) {
        debug_assert!(edges.windows(2).all(|e| e[0].1 <= e[1].1), "edges sorted by target");
        let w = n.div_ceil(64).max(1);
        self.n = n;
        self.words = w;
        self.bits.clear();
        self.bits.resize(2 * n * w, 0);
        self.trail.clear();
        let (succ, pred) = self.bits.split_at_mut(n * w);
        // Every edge out of `b` has a later target, so `succ(b)` is final
        // when `a → b` is reached backward; symmetrically `pred(a)` forward.
        for &(a, b) in edges.iter().rev() {
            assert!(a < b, "edge {a} -> {b} does not point forward");
            let (head, tail) = succ.split_at_mut(b * w);
            let row = &mut head[a * w..(a + 1) * w];
            row[b / 64] |= 1 << (b % 64);
            for (dst, src) in row.iter_mut().zip(&tail[..w]) {
                *dst |= src;
            }
        }
        for &(a, b) in edges {
            let (head, tail) = pred.split_at_mut(b * w);
            let row = &mut tail[..w];
            row[a / 64] |= 1 << (a % 64);
            for (dst, src) in row.iter_mut().zip(&head[a * w..(a + 1) * w]) {
                *dst |= src;
            }
        }
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the order is over zero elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Words per row: the length of the bitset
    /// [`add_edges_logged`](Self::add_edges_logged) takes.
    #[must_use]
    pub fn row_words(&self) -> usize {
        self.words
    }

    #[inline]
    fn bit(row: &[u64], j: usize) -> bool {
        row[j / 64] & (1 << (j % 64)) != 0
    }

    /// Row `r` of `bits`: successors of `r` for `r < n`, predecessors
    /// of `r - n` above.
    #[inline]
    fn row(&self, r: usize) -> &[u64] {
        &self.bits[r * self.words..(r + 1) * self.words]
    }

    /// Whether `a` is strictly before `b`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[inline]
    #[must_use]
    pub fn ordered(&self, a: usize, b: usize) -> bool {
        assert!(a < self.n, "element {a} out of range");
        Self::bit(self.row(a), b)
    }

    /// Whether `a` and `b` are ordered in either direction.
    #[inline]
    #[must_use]
    pub fn comparable(&self, a: usize, b: usize) -> bool {
        self.ordered(a, b) || self.ordered(b, a)
    }

    /// Adds `a → b` and closes transitively.
    ///
    /// Returns `Ok(true)` when the edge added new ordering, `Ok(false)`
    /// when `a → b` was already derived.
    ///
    /// # Errors
    ///
    /// Returns [`Cycle`] (leaving the relation unchanged) when `a == b` or
    /// `b → a` already holds.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn add_edge(&mut self, a: usize, b: usize) -> Result<bool, Cycle> {
        self.insert::<false>(std::iter::once(a), b)
    }

    /// [`add_edge`](Self::add_edge), logging every word it changes on the
    /// trail so that [`rollback`](Self::rollback) can take it back.
    ///
    /// # Errors
    ///
    /// Returns [`Cycle`], changing and logging nothing, when `a == b` or
    /// `b → a` already holds.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn add_edge_logged(&mut self, a: usize, b: usize) -> Result<bool, Cycle> {
        self.insert::<true>(std::iter::once(a), b)
    }

    /// Adds `a → b` for every `a` in the bitset `tails` at once, logging
    /// every word it changes: the same relation and trail-restorable state
    /// as adding the edges one at a time, with one pass over the rows.
    ///
    /// Returns `Ok(true)` when some edge added new ordering, `Ok(false)`
    /// when every tail already precedes `b` (an empty `tails` included).
    ///
    /// # Errors
    ///
    /// Returns [`Cycle`], changing and logging nothing, when some tail is
    /// `b` or after it. (Adding one tail's edge cannot put `b` before
    /// another tail, which would need `b` at or before the first, so no
    /// tail is cleared by an earlier one.)
    ///
    /// # Panics
    ///
    /// Panics if `tails` is not [`row_words`](Self::row_words) long, or
    /// if `b` or a tail is out of range.
    pub fn add_edges_logged(&mut self, tails: &[u64], b: usize) -> Result<bool, Cycle> {
        assert_eq!(tails.len(), self.words, "tails must be one row wide");
        self.insert::<true>(ones(tails), b)
    }

    /// The current end of the trail, to [`rollback`](Self::rollback) to.
    #[must_use]
    pub fn mark(&self) -> usize {
        self.trail.len()
    }

    /// Restores every word changed by logged edges since `mark`, newest
    /// first, leaving the relation as it was when `mark` was taken.
    ///
    /// # Panics
    ///
    /// Panics if `mark` is past the end of the trail.
    pub fn rollback(&mut self, mark: usize) {
        for (i, old) in self.trail.drain(mark..).rev() {
            self.bits[i] = old;
        }
    }

    /// Runs the one closure routine at the row width: a width known to be
    /// one word compiles to plain word operations, with no per-word loop.
    #[inline]
    fn insert<const LOG: bool>(
        &mut self,
        tails: impl Iterator<Item = usize> + Clone,
        b: usize,
    ) -> Result<bool, Cycle> {
        if self.words == 1 {
            self.close::<LOG, 1>(tails, b)
        } else {
            self.close::<LOG, 0>(tails, b)
        }
    }

    /// The one closure routine: every element at or before some tail now
    /// precedes every element at or after `b`. `W` is the row width when
    /// it is fixed at compile time, or 0 for the run-time width.
    fn close<const LOG: bool, const W: usize>(
        &mut self,
        tails: impl Iterator<Item = usize> + Clone,
        b: usize,
    ) -> Result<bool, Cycle> {
        let (n, w) = (self.n, if W == 0 { self.words } else { W });
        assert!(b < n, "element {b} out of range");
        let (succ_b, pred_b) = (b * w, (n + b) * w);
        let mut fresh = false;
        for a in tails.clone() {
            assert!(a < n, "element {a} out of range");
            if a == b || Self::bit(&self.bits[succ_b..succ_b + w], a) {
                return Err(Cycle);
            }
            fresh |= !Self::bit(&self.bits[pred_b..pred_b + w], a);
        }
        if !fresh {
            return Ok(false);
        }
        // No tail is at or after `b`, so no row is written before it is
        // read for the last time. Pass one, a word at a time: the tails and
        // their predecessors join `pred(b)`, and each element that joins
        // gains `succ(b) ∪ {b}` (row `b` is never written here). Pass two:
        // each element after `b` gains the grown `pred(b) ∪ {b}`.
        for k in 0..w {
            let old = self.bits[pred_b + k];
            let joined = tails
                .clone()
                .fold(0, |acc, a| acc | self.bits[(n + a) * w + k] | single::<W>(a, k))
                & !old;
            if joined != 0 {
                self.set::<LOG>(pred_b + k, old | joined);
                self.union_rows::<LOG, W>(k, joined, 0, succ_b, b);
            }
        }
        for k in 0..w {
            let after = self.bits[succ_b + k];
            self.union_rows::<LOG, W>(k, after, n, pred_b, b);
        }
        Ok(true)
    }

    /// For each set bit `i` of `set`, word `k` of some element set, ORs the
    /// row starting at word `from`, plus `extra`, into row `base + 64k + i`.
    #[inline(always)]
    fn union_rows<const LOG: bool, const W: usize>(
        &mut self,
        k: usize,
        mut set: u64,
        base: usize,
        from: usize,
        extra: usize,
    ) {
        let w = if W == 0 { self.words } else { W };
        while set != 0 {
            let dst = (base + k * 64 + set.trailing_zeros() as usize) * w;
            set &= set - 1;
            for j in 0..w {
                let new = self.bits[dst + j] | self.bits[from + j] | single::<W>(extra, j);
                self.set::<LOG>(dst + j, new);
            }
        }
    }

    /// Writes word `i`, logging its old value when `LOG` and it changes.
    #[inline(always)]
    fn set<const LOG: bool>(&mut self, i: usize, new: u64) {
        let old = self.bits[i];
        if new != old {
            if LOG {
                self.trail.push((i, old));
            }
            self.bits[i] = new;
        }
    }

    /// Elements strictly before `i`, ascending.
    #[must_use]
    pub fn predecessors(&self, i: usize) -> Vec<usize> {
        ones(self.row(self.n + i)).collect()
    }

    /// Elements strictly after `i`, ascending.
    #[must_use]
    pub fn successors(&self, i: usize) -> Vec<usize> {
        assert!(i < self.n, "element {i} out of range");
        ones(self.row(i)).collect()
    }

    /// Number of ordered pairs.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.bits[..self.n * self.words].iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The deterministic minimum-index-first topological linearization:
    /// among the elements whose predecessors have all been placed, the
    /// smallest index goes next. Always succeeds — the relation is acyclic
    /// by construction.
    ///
    /// # Panics
    ///
    /// Panics if the closure invariant is broken (impossible through the
    /// public API).
    #[must_use]
    pub fn topo(&self) -> Vec<usize> {
        let mut placed = vec![false; self.n];
        let mut out = Vec::with_capacity(self.n);
        for _ in 0..self.n {
            let next = (0..self.n)
                .find(|&i| !placed[i] && ones(self.row(self.n + i)).all(|p| placed[p]))
                .expect("acyclic relation always has a minimal element");
            placed[next] = true;
            out.push(next);
        }
        out
    }
}

/// Element `x` as word `k` of a row `W` words wide (0: any width). One
/// word holds every element, so `W == 1` needs no word test.
#[inline(always)]
fn single<const W: usize>(x: usize, k: usize) -> u64 {
    if W == 1 || x / 64 == k {
        1 << (x % 64)
    } else {
        0
    }
}

/// Ascending indices of the set bits of a bitset.
#[derive(Clone)]
struct Ones<'r> {
    rest: &'r [u64],
    word: u64,
    base: usize,
}

fn ones(row: &[u64]) -> Ones<'_> {
    match row.split_first() {
        Some((&word, rest)) => Ones { rest, word, base: 0 },
        None => Ones { rest: &[], word: 0, base: 0 },
    }
}

impl Iterator for Ones<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            let (&word, rest) = self.rest.split_first()?;
            (self.word, self.rest, self.base) = (word, rest, self.base + 64);
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_len() {
        let r = Rel::new(0);
        assert!(r.is_empty());
        assert_eq!(r.topo(), Vec::<usize>::new());
        let r = Rel::new(3);
        assert_eq!(r.len(), 3);
        assert_eq!(r.edge_count(), 0);
    }

    #[test]
    fn closure_is_eager() {
        let mut r = Rel::new(4);
        assert_eq!(r.add_edge(0, 1), Ok(true));
        assert_eq!(r.add_edge(2, 3), Ok(true));
        assert!(!r.ordered(0, 3));
        // Bridging 1 → 2 must connect both sides transitively at once.
        assert_eq!(r.add_edge(1, 2), Ok(true));
        assert!(r.ordered(0, 3));
        assert!(r.ordered(0, 2));
        assert!(r.ordered(1, 3));
        assert_eq!(r.add_edge(0, 3), Ok(false), "already derived");
    }

    #[test]
    fn cycles_are_rejected_and_state_unchanged() {
        let mut r = Rel::new(3);
        r.add_edge(0, 1).unwrap();
        r.add_edge(1, 2).unwrap();
        let before = r.clone();
        assert_eq!(r.add_edge(2, 0), Err(Cycle));
        assert_eq!(r.add_edge(1, 1), Err(Cycle), "irreflexive");
        assert_eq!(r, before);
    }

    #[test]
    fn predecessors_and_successors() {
        let mut r = Rel::new(4);
        r.add_edge(0, 2).unwrap();
        r.add_edge(1, 2).unwrap();
        r.add_edge(2, 3).unwrap();
        assert_eq!(r.predecessors(3), vec![0, 1, 2]);
        assert_eq!(r.successors(0), vec![2, 3]);
        assert_eq!(r.predecessors(0), Vec::<usize>::new());
    }

    #[test]
    fn topo_is_deterministic_min_index_first() {
        let mut r = Rel::new(4);
        r.add_edge(3, 1).unwrap();
        // 0, 2 unconstrained; 3 before 1.
        assert_eq!(r.topo(), vec![0, 2, 3, 1]);
    }

    #[test]
    fn topo_respects_all_edges() {
        let mut r = Rel::new(6);
        let edges = [(5, 0), (0, 3), (3, 1), (5, 4)];
        for (a, b) in edges {
            r.add_edge(a, b).unwrap();
        }
        let order = r.topo();
        let pos = |x: usize| order.iter().position(|&y| y == x).unwrap();
        for (a, b) in edges {
            assert!(pos(a) < pos(b));
        }
    }

    #[test]
    #[should_panic(expected = "does not point forward")]
    fn forward_edges_reject_backward_edges() {
        let _ = Rel::from_forward_edges(2, &[(1, 0)]);
    }

    #[test]
    fn rollback_restores_the_relation_at_each_nested_mark() {
        // 130 elements: rows span three words, and the edges below cross
        // both word boundaries in both directions.
        let n = 130;
        let mut r = Rel::new(n);
        r.add_edge_logged(0, 70).unwrap();
        r.add_edge_logged(129, 1).unwrap();
        let outer = r.mark();
        let at_outer = r.clone();
        assert_eq!(r.add_edge_logged(70, 128), Ok(true));
        assert_eq!(r.add_edge_logged(1, 63), Ok(true));
        let inner = r.mark();
        let at_inner = r.clone();
        assert_eq!(r.add_edge_logged(63, 64), Ok(true));
        assert_eq!(r.add_edge_logged(64, 0), Ok(true));
        assert!(r.ordered(129, 128), "129 → 1 → 63 → 64 → 0 → 70 → 128");
        assert_eq!(r.add_edge_logged(128, 129), Err(Cycle));
        r.rollback(inner);
        assert_eq!(r, at_inner);
        assert_eq!(r.mark(), inner);
        assert_eq!(r.add_edge_logged(128, 129), Ok(true), "legal again once 64 → 0 is undone");
        r.rollback(outer);
        assert_eq!(r, at_outer);
        assert_eq!(r.mark(), outer);
        r.rollback(0);
        assert_eq!(r, Rel::new(n));
    }

    #[test]
    fn rejected_and_derived_edges_log_nothing() {
        let mut r = Rel::new(130);
        r.add_edge_logged(2, 100).unwrap();
        r.add_edge_logged(100, 129).unwrap();
        let m = r.mark();
        let before = r.clone();
        assert_eq!(r.add_edge_logged(129, 2), Err(Cycle));
        assert_eq!(r.add_edge_logged(7, 7), Err(Cycle));
        assert_eq!(r.mark(), m, "a cycle logs nothing");
        assert_eq!(r.add_edge_logged(2, 129), Ok(false));
        assert_eq!(r.mark(), m, "a derived edge logs nothing");
        assert_eq!(r, before);
    }

    #[test]
    fn unlogged_edges_leave_the_trail_alone() {
        let mut r = Rel::new(4);
        r.add_edge(0, 1).unwrap();
        assert_eq!(r.mark(), 0);
        r.add_edge_logged(1, 2).unwrap();
        let mut scratch = Rel::new(0);
        scratch.clone_from(&r);
        assert_eq!(scratch, r);
        r.rollback(0);
        assert!(r.ordered(0, 1) && !r.ordered(1, 2));
    }

    #[test]
    fn wide_relations_cross_word_boundaries() {
        let n = 130;
        let mut r = Rel::new(n);
        for i in 0..n - 1 {
            r.add_edge(i, i + 1).unwrap();
        }
        assert!(r.ordered(0, n - 1));
        assert_eq!(r.add_edge(n - 1, 0), Err(Cycle));
        assert_eq!(r.topo(), (0..n).collect::<Vec<_>>());
        assert_eq!(r.edge_count(), n * (n - 1) / 2);
    }
}
