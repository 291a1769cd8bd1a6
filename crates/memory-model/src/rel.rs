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
        debug_assert!(edges.windows(2).all(|e| e[0].1 <= e[1].1), "edges sorted by target");
        let mut r = Rel::new(n);
        let w = r.words;
        let (succ, pred) = r.bits.split_at_mut(n * w);
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
        r
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
    pub fn add_edge(&mut self, a: usize, b: usize) -> Result<bool, Cycle> {
        self.close::<false>(a, b)
    }

    /// [`add_edge`](Self::add_edge), logging every word it changes on the
    /// trail so that [`rollback`](Self::rollback) can take it back.
    ///
    /// # Errors
    ///
    /// Returns [`Cycle`], changing and logging nothing, when `a == b` or
    /// `b → a` already holds.
    pub fn add_edge_logged(&mut self, a: usize, b: usize) -> Result<bool, Cycle> {
        self.close::<true>(a, b)
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

    /// The one closure routine: every element at or before `a` now
    /// precedes every element at or after `b`.
    fn close<const LOG: bool>(&mut self, a: usize, b: usize) -> Result<bool, Cycle> {
        if a == b || self.ordered(b, a) {
            return Err(Cycle);
        }
        if self.ordered(a, b) {
            return Ok(false);
        }
        // The source rows are read in place. The edge closes no cycle, so
        // `b` is not in `pred(a) ∪ {a}` and `a` is not in `succ(b) ∪ {b}`:
        // neither pass writes a row it reads.
        let n = self.n;
        self.union_rows::<LOG>((n + a, a), (b, b), 0);
        self.union_rows::<LOG>((b, b), (n + a, a), n);
        Ok(true)
    }

    /// For every `i` in `row(set.0) ∪ {set.1}`, ORs `row(from.0) ∪
    /// {from.1}` into `row(base + i)`, logging each changed word when
    /// `LOG`.
    fn union_rows<const LOG: bool>(
        &mut self,
        set: (usize, usize),
        from: (usize, usize),
        base: usize,
    ) {
        let w = self.words;
        let single = |x: usize, k: usize| if x / 64 == k { 1u64 << (x % 64) } else { 0 };
        for sw in 0..w {
            let mut pending = self.bits[set.0 * w + sw] | single(set.1, sw);
            while pending != 0 {
                let i = sw * 64 + pending.trailing_zeros() as usize;
                pending &= pending - 1;
                let dst = (base + i) * w;
                for k in 0..w {
                    let old = self.bits[dst + k];
                    let new = old | self.bits[from.0 * w + k] | single(from.1, k);
                    if new != old {
                        if LOG {
                            self.trail.push((dst + k, old));
                        }
                        self.bits[dst + k] = new;
                    }
                }
            }
        }
    }

    /// Elements strictly before `i`, ascending.
    #[must_use]
    pub fn predecessors(&self, i: usize) -> Vec<usize> {
        iter_bits(self.row(self.n + i)).collect()
    }

    /// Elements strictly after `i`, ascending.
    #[must_use]
    pub fn successors(&self, i: usize) -> Vec<usize> {
        assert!(i < self.n, "element {i} out of range");
        iter_bits(self.row(i)).collect()
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
                .find(|&i| {
                    !placed[i]
                        && iter_bits(self.row(self.n + i)).all(|p| placed[p])
                })
                .expect("acyclic relation always has a minimal element");
            placed[next] = true;
            out.push(next);
        }
        out
    }
}

/// Ascending indices of set bits.
fn iter_bits(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    row.iter().enumerate().flat_map(|(w, &bits)| {
        let mut bits = bits;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(w * 64 + b)
            }
        })
    })
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
