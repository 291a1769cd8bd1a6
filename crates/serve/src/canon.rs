//! Canonicalization of litmus programs under thread, location, and value
//! renaming.
//!
//! The production lever of wo-serve is that client fleets (fuzz campaigns,
//! CI suites) submit near-duplicate programs: the same skeleton with
//! threads listed in a different order, locations shifted to a different
//! region, or constants drawn from a different range. All of those are the
//! *same verification problem* — the DRF0 verdict, the race structure, and
//! the size of the SC outcome set are invariant under:
//!
//! * **thread permutation** — threads have no identity beyond their index;
//! * **location bijection** — locations are opaque names (the sync/data
//!   distinction lives on the instruction, not the location);
//! * **value bijection fixing 0 and 1** — *when the program does no
//!   arithmetic*. Memory starts at 0 (so 0 is special) and `TestAndSet`
//!   stores 1 (so 1 is special); every other constant is opaque as long
//!   as no `Add`/`FetchAdd` combines values. Programs with arithmetic
//!   keep their values verbatim.
//!
//! [`canonicalize`] picks a canonical representative of the equivalence
//! class: for every thread permutation (all of them up to
//! [`MAX_PERM_THREADS`] threads, identity beyond), relabel locations and
//! values by first occurrence in the instruction stream, then the init
//! cells, and render the program; the lexicographically smallest
//! rendering wins, ties to the lexicographically first permutation. Two
//! programs are renamings of each other iff their canonical texts are
//! equal — the cache keys on the text itself (not a hash), so a hash
//! collision can never serve a wrong verdict.
//!
//! It finds that rendering without rendering every permutation: a
//! depth-first search places one thread per position in lexicographic
//! order and renders each placed thread once per prefix, through the one
//! text writer [`litmus::text`]. A prefix's text starts every text below
//! it, so an init-free program's subtree is cut at the first line that
//! makes its prefix byte-greater than the best text so far; a program
//! with init cells compares at the leaves, since its `init:` line comes
//! first but depends on the whole relabelling. A thread equal to an
//! unused lower-index thread is never placed: swapping the two gives the
//! same text in an earlier order, which wins the tie.
//!
//! The form also carries the *inverse* maps, so answers computed on the
//! canonical program (race sets name canonical threads and locations) can
//! be translated back into the submitter's coordinates
//! ([`crate::translate_races`]).

use litmus::{Instr, Operand, Program, Thread};
use memory_model::{Loc, Value};

/// Above this many threads the canonical search visits only the
/// submitted thread order; location and value canonicalization still
/// apply. Raising it would move the cache key of every program wider
/// than five threads. At 5 the slowest class measured, five near-twin
/// threads with init cells, takes 0.10–0.17 ms per call on 2 vCPUs
/// (five identical threads 4 µs); the fuzz generator tops out at 3
/// threads.
pub const MAX_PERM_THREADS: usize = 5;

/// The canonical representative of a program's renaming class.
#[derive(Debug, Clone)]
pub struct CanonicalForm {
    /// The canonical program itself (threads permuted, locations and
    /// values relabelled).
    pub program: Program,
    /// The canonical rendering — the cache key. Equal texts ⇔ same
    /// renaming class (for the classes the canonicalizer recognises).
    pub text: String,
    /// `thread_unmap[c]` is the submitted-program thread that canonical
    /// thread `c` corresponds to.
    pub thread_unmap: Vec<usize>,
    /// `loc_unmap[l]` is the submitted-program location that canonical
    /// location `Loc(l)` corresponds to.
    pub loc_unmap: Vec<u32>,
}

/// FNV-1a over `bytes` — stable, dependency-free, good enough for journal
/// integrity (correctness never rests on it; the cache keys on full text).
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Whether value relabelling is sound for `p`: no instruction combines
/// values arithmetically.
fn values_opaque(p: &Program) -> bool {
    !p.threads()
        .iter()
        .flat_map(|t| t.instrs().iter())
        .any(|i| matches!(i, Instr::Add { .. } | Instr::FetchAdd { .. }))
}

/// A location and value relabelling: first-occurrence for the canonical
/// search, or a bijection filled up front by [`random_renaming`].
///
/// Maps are association vectors, not hash maps: a litmus program touches
/// a handful of locations and constants, and a linear probe of a short
/// vector beats hashing. They only grow, so the canonical search undoes
/// a placed thread's relabelling by truncating them to a [`Mark`].
struct Relabeller {
    /// `(submitted, relabelled)` location pairs. The canonical search adds
    /// them in first-occurrence order, so the canonical id is the
    /// insertion index and `loc_unmap` is just the submitted column.
    loc_map: Vec<(u32, u32)>,
    val_map: Vec<(Value, Value)>,
    next_val: Value,
    relabel_values: bool,
}

/// How far a [`Relabeller`]'s maps had grown.
#[derive(Clone, Copy)]
struct Mark {
    locs: usize,
    vals: usize,
    next_val: Value,
}

impl Relabeller {
    fn new(relabel_values: bool) -> Self {
        Relabeller {
            loc_map: Vec::new(),
            val_map: vec![(0, 0), (1, 1)],
            next_val: 2,
            relabel_values,
        }
    }

    fn mark(&self) -> Mark {
        Mark { locs: self.loc_map.len(), vals: self.val_map.len(), next_val: self.next_val }
    }

    /// Forgets every pair added since `mark` was taken.
    fn truncate(&mut self, mark: Mark) {
        self.loc_map.truncate(mark.locs);
        self.val_map.truncate(mark.vals);
        self.next_val = mark.next_val;
    }

    fn lookup_loc(&self, loc: Loc) -> Option<Loc> {
        self.loc_map.iter().find_map(|&(from, to)| (from == loc.0).then_some(Loc(to)))
    }

    fn loc_unmap(&self) -> Vec<u32> {
        self.loc_map.iter().map(|&(from, _)| from).collect()
    }

    fn loc(&mut self, loc: Loc) -> Loc {
        if let Some(mapped) = self.lookup_loc(loc) {
            return mapped;
        }
        let id = self.loc_map.len() as u32;
        self.loc_map.push((loc.0, id));
        Loc(id)
    }

    fn val(&mut self, v: Value) -> Value {
        if !self.relabel_values {
            return v;
        }
        if let Some(&(_, mapped)) = self.val_map.iter().find(|&&(from, _)| from == v) {
            return mapped;
        }
        let mapped = self.next_val;
        self.next_val += 1;
        self.val_map.push((v, mapped));
        mapped
    }

    fn op(&mut self, o: Operand) -> Operand {
        match o {
            Operand::Const(v) => Operand::Const(self.val(v)),
            Operand::Reg(r) => Operand::Reg(r),
        }
    }

    fn instr(&mut self, i: Instr) -> Instr {
        match i {
            Instr::Read { loc, dst } => Instr::Read { loc: self.loc(loc), dst },
            Instr::Write { loc, src } => {
                Instr::Write { loc: self.loc(loc), src: self.op(src) }
            }
            Instr::SyncRead { loc, dst } => Instr::SyncRead { loc: self.loc(loc), dst },
            Instr::SyncWrite { loc, src } => {
                Instr::SyncWrite { loc: self.loc(loc), src: self.op(src) }
            }
            Instr::TestAndSet { loc, dst } => {
                Instr::TestAndSet { loc: self.loc(loc), dst }
            }
            // `relabel_values` is false whenever FetchAdd/Add exist, so
            // their operands pass through `op` unchanged.
            Instr::FetchAdd { loc, dst, add } => {
                Instr::FetchAdd { loc: self.loc(loc), dst, add: self.op(add) }
            }
            Instr::Move { dst, src } => Instr::Move { dst, src: self.op(src) },
            Instr::Add { dst, a, b } => {
                Instr::Add { dst, a: self.op(a), b: self.op(b) }
            }
            Instr::BranchEq { a, b, target } => {
                Instr::BranchEq { a: self.op(a), b: self.op(b), target }
            }
            Instr::BranchNe { a, b, target } => {
                Instr::BranchNe { a: self.op(a), b: self.op(b), target }
            }
            Instr::Jump { target } => Instr::Jump { target },
            Instr::Fence => Instr::Fence,
        }
    }

    fn thread(&mut self, t: &Thread) -> Thread {
        t.instrs().iter().fold(Thread::new(), |out, &i| out.push(self.instr(i)))
    }

    /// The canonical init line, once the instruction stream is relabelled.
    /// Cells on accessed locations join the value scan in
    /// canonical-location order (itself invariant under renaming). Cells
    /// on locations the program never touches have no renaming-invariant
    /// attribute except their raw value, so they keep it and take
    /// canonical ids after all accessed ones, ordered by (raw value, raw
    /// loc) — same-valued untouched cells are interchangeable, so the raw
    /// loc tiebreak never changes the rendered text.
    fn init_cells(&mut self, cells: &[(Loc, Value)]) -> Vec<(Loc, Value)> {
        let mut seen: Vec<(Loc, Value)> = Vec::new();
        let mut unseen: Vec<(Loc, Value)> = Vec::new();
        for &(loc, v) in cells {
            match self.lookup_loc(loc) {
                Some(id) => seen.push((id, v)),
                None => unseen.push((loc, v)),
            }
        }
        seen.sort_by_key(|&(loc, _)| loc.0);
        let mut init: Vec<(Loc, Value)> =
            seen.into_iter().map(|(loc, v)| (loc, self.val(v))).collect();
        unseen.sort_by_key(|&(loc, v)| (v, loc.0));
        for (loc, v) in unseen {
            init.push((self.loc(loc), v));
        }
        init
    }
}

/// Relabels `p` under the given thread order, returning the rebuilt
/// program plus the canonical→original location map.
fn relabel(p: &Program, perm: &[usize], relabel_values: bool) -> (Program, Vec<u32>) {
    let mut r = Relabeller::new(relabel_values);
    let threads: Vec<Thread> = perm.iter().map(|&orig| r.thread(&p.threads()[orig])).collect();
    let init = r.init_cells(p.init());
    let program = Program::new(threads)
        .expect("relabelling preserves branch targets and registers")
        .with_init(init);
    (program, r.loc_unmap())
}

/// Whether `text`, equal to `best` before byte `from`, can still start a
/// text no greater than `best`. `below` is the index of the first byte
/// where `text` is known to fall below `best` (`usize::MAX` while it
/// matches so far); bytes from `from` on are compared only while it
/// matches, and a byte found below `best` is recorded.
fn stays_least(text: &str, best: &str, from: usize, below: &mut usize) -> bool {
    if *below < from {
        return true;
    }
    let (text, best) = (text.as_bytes(), best.as_bytes());
    let end = text.len().min(best.len());
    match text[from..end].iter().zip(&best[from..end]).position(|(a, b)| a != b) {
        Some(k) if text[from + k] < best[from + k] => {
            *below = from + k;
            true
        }
        Some(_) => false,
        // Equal so far: greater only once it runs past the end of `best`.
        None => text.len() <= best.len(),
    }
}

/// Computes the canonical form of `p`. Pure: structurally equal programs
/// (and all their recognised renamings) yield byte-identical `text`.
#[must_use]
pub fn canonicalize(p: &Program) -> CanonicalForm {
    let relabel_values = values_opaque(p);
    let threads = p.threads();
    let n = threads.len();
    let permute = n <= MAX_PERM_THREADS;
    let classes = if permute { p.thread_identity_classes() } else { Vec::new() };
    let init_free = p.init().is_empty();
    let mut r = Relabeller::new(relabel_values);
    // The placed threads: (submitted thread, relabeller mark and text
    // length before it was placed).
    let mut placed: Vec<(usize, Mark, usize)> = Vec::with_capacity(n);
    let mut used = vec![false; n];
    // The headers and instruction lines of the placed prefix.
    let mut text = String::new();
    // Where `text` fell below `best` (see `stays_least`). Such a prefix
    // is never cut, so it reaches a leaf that becomes the best and resets
    // this before any thread is taken back.
    let mut below = usize::MAX;
    let mut best = String::new();
    let mut best_order: Option<Vec<usize>> = None;
    let mut leaf = String::new();
    // The least submitted thread to try at the current position.
    let mut next = 0;
    loop {
        let depth = placed.len();
        if depth == n {
            // A complete order: keep it only if its text is strictly
            // smaller, so ties go to the first order found.
            let smaller = if init_free {
                best_order.is_none() || below != usize::MAX || text.len() < best.len()
            } else {
                let mark = r.mark();
                let cells = r.init_cells(p.init());
                r.truncate(mark);
                leaf.clear();
                litmus::text::init_line(&mut leaf, &cells);
                leaf.push_str(&text);
                best_order.is_none() || leaf < best
            };
            if smaller {
                if init_free {
                    best.clone_from(&text);
                } else {
                    std::mem::swap(&mut best, &mut leaf);
                }
                best_order = Some(placed.iter().map(|&(t, ..)| t).collect());
                below = usize::MAX;
            }
        } else {
            let candidate = if permute {
                (next..n).find(|&j| {
                    !used[j] && !(0..j).any(|i| !used[i] && classes[i] == classes[j])
                })
            } else {
                Some(depth).filter(|&j| j >= next)
            };
            if let Some(j) = candidate {
                let len = text.len();
                placed.push((j, r.mark(), len));
                used[j] = true;
                let compare = init_free && best_order.is_some();
                litmus::text::thread_header(&mut text, depth);
                let mut keep = !compare || stays_least(&text, &best, len, &mut below);
                for (i, &instr) in threads[j].instrs().iter().enumerate() {
                    if !keep {
                        break;
                    }
                    let from = text.len();
                    litmus::text::instr_line(&mut text, i, &r.instr(instr));
                    keep = !compare || stays_least(&text, &best, from, &mut below);
                }
                if keep {
                    next = if permute { 0 } else { depth + 1 };
                    continue;
                }
            }
        }
        // Take back the last placed thread and try the next one after it.
        let Some((j, mark, len)) = placed.pop() else { break };
        r.truncate(mark);
        text.truncate(len);
        used[j] = false;
        next = j + 1;
    }
    let best_order = best_order.expect("the search reaches at least one complete order");
    let (program, loc_unmap) = relabel(p, &best_order, relabel_values);
    debug_assert_eq!(best, program.to_string(), "searched text diverged from Display");
    CanonicalForm { program, text: best, thread_unmap: best_order, loc_unmap }
}

/// Draws candidates until one is not yet a target of `map`.
fn draw_fresh<T: Copy + PartialEq>(map: &[(T, T)], mut draw: impl FnMut() -> T) -> T {
    loop {
        let candidate = draw();
        if !map.iter().any(|&(_, to)| to == candidate) {
            return candidate;
        }
    }
}

/// Applies a pseudo-random renaming drawn from `seed` to `p`: a thread
/// permutation, a location bijection into a scattered range, and (when
/// sound) a value bijection fixing {0, 1}. The result is semantically
/// equivalent to `p` and canonicalizes to the same form — the generator
/// of "near-duplicate traffic" used by the property tests and
/// `serve_bench`.
#[must_use]
pub fn random_renaming(p: &Program, seed: u64) -> Program {
    let mut rng = simx::rng::SplitMix64::new(seed ^ 0xC0DE_CAFE_0000_0001);
    let n = p.num_threads();

    // Thread permutation by Fisher–Yates.
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }

    // A first-occurrence pass in submitted order names the accessed
    // locations and the constants to redraw. Init cells on accessed
    // locations join the value scan; init-only cells keep their raw
    // values, as in the canonical form.
    let mut seen = Relabeller::new(values_opaque(p));
    for t in p.threads() {
        for &i in t.instrs() {
            seen.instr(i);
        }
    }
    for &(loc, v) in p.init() {
        if seen.lookup_loc(loc).is_some() {
            seen.val(v);
        }
    }

    // The bijection: distinct pseudo-random ids for every location, in
    // submitted-id order, then distinct values ≥ 2 for the constants, in
    // first-occurrence order.
    let mut r = Relabeller::new(seen.relabel_values);
    for loc in p.locations() {
        let to = draw_fresh(&r.loc_map, || (rng.next_u64() % 1_000_000) as u32);
        r.loc_map.push((loc.0, to));
    }
    for &(v, _) in &seen.val_map[2..] {
        let to = draw_fresh(&r.val_map, || 2 + rng.next_u64() % 1_000_000);
        r.val_map.push((v, to));
    }

    let threads: Vec<Thread> = perm.iter().map(|&orig| r.thread(&p.threads()[orig])).collect();
    let init: Vec<(Loc, Value)> = p
        .init()
        .iter()
        .map(|&(loc, v)| {
            let v = if seen.lookup_loc(loc).is_some() { r.val(v) } else { v };
            (r.loc(loc), v)
        })
        .collect();
    Program::new(threads)
        .expect("renaming preserves branch targets and registers")
        .with_init(init)
}

#[cfg(test)]
mod tests {
    use super::*;
    use litmus::parse::parse_program;

    fn mp() -> Program {
        parse_program(
            "init: m0=0 m100=0\n\
             P0:\n  W(m0) := 5\n  Set(m100) := 1\n\
             P1:\n  r0 := Test(m100)\n  if r0 != 1 goto 0\n  r1 := R(m0)\n",
        )
        .unwrap()
    }

    #[test]
    fn canonical_text_is_stable_and_reparses() {
        let c = canonicalize(&mp());
        let reparsed = parse_program(&c.text).unwrap();
        assert_eq!(reparsed, c.program, "canonical text round-trips");
        assert_eq!(canonicalize(&mp()).text, c.text, "pure function");
    }

    #[test]
    fn thread_permutation_canonicalizes_identically() {
        let p = mp();
        let swapped = Program::new(vec![p.threads()[1].clone(), p.threads()[0].clone()])
            .unwrap()
            .with_init(p.init().to_vec());
        assert_eq!(canonicalize(&p).text, canonicalize(&swapped).text);
    }

    #[test]
    fn random_renamings_canonicalize_identically() {
        let p = mp();
        let base = canonicalize(&p).text;
        for seed in 0..50 {
            let renamed = random_renaming(&p, seed);
            assert_eq!(
                canonicalize(&renamed).text,
                base,
                "seed {seed} renamed:\n{renamed}"
            );
        }
    }

    #[test]
    fn arithmetic_disables_value_relabelling() {
        let p = parse_program("P0:\n  r0 := FetchAdd(m7, 3)\n  W(m9) := 9\n").unwrap();
        let c = canonicalize(&p);
        // The 9 survives verbatim; the locations are still relabelled.
        assert!(c.text.contains(":= 9"), "{}", c.text);
        assert!(c.text.contains("m0") && c.text.contains("m1"), "{}", c.text);
    }

    #[test]
    fn unmaps_translate_back_to_submitted_coordinates() {
        let p = mp();
        let c = canonicalize(&p);
        let mut threads: Vec<usize> = c.thread_unmap.clone();
        threads.sort_unstable();
        assert_eq!(threads, vec![0, 1]);
        // Every original loc the program names appears in the unmap.
        assert!(c.loc_unmap.contains(&0) && c.loc_unmap.contains(&100));
    }

    #[test]
    fn distinct_programs_do_not_collide() {
        let racy = parse_program("P0:\n  W(m0) := 1\nP1:\n  r0 := R(m0)\n").unwrap();
        let sync = parse_program("P0:\n  Set(m0) := 1\nP1:\n  r0 := Test(m0)\n").unwrap();
        assert_ne!(canonicalize(&racy).text, canonicalize(&sync).text);
    }
}
