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
//! Candidate executions are small (bounded by the explorer's per-execution
//! op budget, 64 by default), so a row is one or two `u64` words and a
//! whole relation clones in a few cache lines — cheap enough to clone at
//! every branch point of the search instead of threading an undo log.

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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rel {
    n: usize,
    words: usize,
    /// `succ[i*words..]`: bitset of nodes strictly after `i`.
    succ: Vec<u64>,
    /// `pred[i*words..]`: bitset of nodes strictly before `i`.
    pred: Vec<u64>,
}

impl Rel {
    /// The empty order over `0..n`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        let words = n.div_ceil(64).max(1);
        Rel { n, words, succ: vec![0; n * words], pred: vec![0; n * words] }
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
        // Every edge out of `b` has a later target, so `succ(b)` is final
        // when `a → b` is reached backward; symmetrically `pred(a)` forward.
        for &(a, b) in edges.iter().rev() {
            assert!(a < b, "edge {a} -> {b} does not point forward");
            let (head, tail) = r.succ.split_at_mut(b * w);
            let row = &mut head[a * w..(a + 1) * w];
            row[b / 64] |= 1 << (b % 64);
            for (dst, src) in row.iter_mut().zip(&tail[..w]) {
                *dst |= src;
            }
        }
        for &(a, b) in edges {
            let (head, tail) = r.pred.split_at_mut(b * w);
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

    #[inline]
    fn row<'a>(&self, m: &'a [u64], i: usize) -> &'a [u64] {
        &m[i * self.words..(i + 1) * self.words]
    }

    /// Whether `a` is strictly before `b`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[inline]
    #[must_use]
    pub fn ordered(&self, a: usize, b: usize) -> bool {
        Self::bit(self.row(&self.succ, a), b)
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
        if a == b || self.ordered(b, a) {
            return Err(Cycle);
        }
        if self.ordered(a, b) {
            return Ok(false);
        }
        // from = pred(a) ∪ {a}, to = succ(b) ∪ {b}: every element at or
        // before `a` now precedes every element at or after `b`.
        let mut from = self.row(&self.pred, a).to_vec();
        from[a / 64] |= 1 << (a % 64);
        let mut to = self.row(&self.succ, b).to_vec();
        to[b / 64] |= 1 << (b % 64);
        for i in iter_bits(&from) {
            let row = &mut self.succ[i * self.words..(i + 1) * self.words];
            for (dst, src) in row.iter_mut().zip(&to) {
                *dst |= src;
            }
        }
        for j in iter_bits(&to) {
            let row = &mut self.pred[j * self.words..(j + 1) * self.words];
            for (dst, src) in row.iter_mut().zip(&from) {
                *dst |= src;
            }
        }
        Ok(true)
    }

    /// Elements strictly before `i`, ascending.
    #[must_use]
    pub fn predecessors(&self, i: usize) -> Vec<usize> {
        iter_bits(self.row(&self.pred, i)).collect()
    }

    /// Elements strictly after `i`, ascending.
    #[must_use]
    pub fn successors(&self, i: usize) -> Vec<usize> {
        iter_bits(self.row(&self.succ, i)).collect()
    }

    /// Number of ordered pairs.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.succ.iter().map(|w| w.count_ones() as usize).sum()
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
                        && iter_bits(self.row(&self.pred, i)).all(|p| placed[p])
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
