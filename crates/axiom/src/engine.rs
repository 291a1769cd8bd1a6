//! The relational search: tuples → rf/co enumeration → verdicts.
//!
//! For each tuple of per-thread paths (one candidate control-flow +
//! value assignment per thread) the engine commits relations over the
//! combined event list:
//!
//! 1. **Synchronization skeleton.** Reads-from is enumerated for every
//!    read on a *sync-involved* location (a location some sync operation
//!    in the tuple touches), coherence is completed over those locations,
//!    and every choice is closed transitively with from-reads saturation
//!    (`fr = rf⁻¹ ; co`): a cycle in `po ∪ rf ∪ co ∪ fr` kills the branch
//!    — that acyclicity check *is* the SC axiom, and single-event
//!    modeling of read-modify-writes makes their atomicity fall out of it
//!    (a write slotted co-between an RMW's source and the RMW closes an
//!    `fr ; co` cycle).
//! 2. **Lemma 1 fast path.** With the skeleton fixed, happens-before is
//!    derived from program order plus the committed synchronization-order
//!    orientations. If every conflicting pair is hb-ordered the candidate
//!    is race-free, so each remaining data read's value is *forced* to be
//!    the hb-latest write before it (or the initial value): no data
//!    enumeration, no orientation sweep — one admissible check emits the
//!    candidate's unique SC result directly.
//! 3. **Race hunt.** Otherwise data-location rf/co is enumerated with the
//!    same machinery, each admissible completion emits its SC result, and
//!    the still-unordered synchronization pairs are swept over both
//!    orientations: any completion leaving a conflicting pair hb-unordered
//!    witnesses a data race (realizable — every completion linearizes).
//!
//! Both directions of the verdict are exact relative to the operational
//! explorer whenever both are definitive; the `wo-fuzz` differential gate
//! enforces this over the corpus and 500 generated programs.
//!
//! Each tuple is searched in one mutable [`Rel`] and one reads-from
//! vector. A branch commits its edges with [`Rel::add_edge_logged`],
//! recurses, and rolls the relation back to the mark it took, so every
//! search function leaves `rel` and `rf` as it found them when it
//! returns `Ok`. (An `Err` abandons the whole search, so nothing is
//! restored on that path.) Undoing in place of copying moves no work
//! unit: every `Budget::spend` happens at the same point of the same
//! enumeration order, which `tests/work_digest.rs` pins.
//!
//! Each step is kept cheap without moving the search. The join keeps
//! per-path tallies over dense `(location, value)` ids, added on descent
//! and subtracted on backtrack, so its feasibility check visits only the
//! prefix's RMW-read and plain-read ids. One `TupleCtx` is refilled in
//! place for every tuple, with the writers in one flat vector grouped by
//! location. Saturation commits all readers of a write before a later
//! write in one [`Rel::add_edges_logged`]. Three orders move work and are
//! kept: locations ascending (the first co branch), writers ascending,
//! and `conflicts`/`so_pairs` in lexicographic order (the reported race
//! and the orientation sweep).

use std::collections::HashSet;
use std::ops::Range;

use litmus::Program;
use memory_model::rel::Rel;
use memory_model::{ExecutionResult, Loc, Memory, OpId, Operation, Value};

use crate::paths::{stable_paths, PathSet};
use crate::{AxiomConfig, Budget, Stop, Witness};

/// Cap on undecided synchronization-pair orientations swept per candidate
/// (2^16 completions worst case, and the work budget bounds it anyway).
const MAX_ORIENTATION_PAIRS: usize = 16;

/// Where a read's value comes from in a candidate execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RfSource {
    /// The initial memory value (every same-location write is after it).
    Init,
    /// The write event at this index.
    Write(usize),
}

/// Which enumeration round is running: the synchronization skeleton or
/// the data-location completion of the race hunt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Round {
    Sync,
    Data,
}

pub(crate) struct Search<'c> {
    cfg: &'c AxiomConfig,
    pub budget: Budget,
    stop_on_race: bool,
    initial: Memory,
    pub results: HashSet<ExecutionResult>,
    pub witnesses: Vec<Witness>,
    pub candidates: u64,
    pub tuples: u64,
    pub racy: bool,
    pub race: Option<(OpId, OpId, Loc)>,
    pub truncated: bool,
    pub orientation_capped: bool,
    /// Scratch happens-before, refilled by `forced_hb`.
    hb: Rel,
    /// Scratch of `saturate`: each write's readers as a bitset one row
    /// wide, and one such set with an element taken out.
    readers: Vec<u64>,
    tails: Vec<u64>,
}

/// One `(id, writes, RMW reads)` row of a path's tally: how often the
/// path writes the id's `(location, value)` and how many of its RMWs read
/// it.
#[derive(Debug, Clone, Copy)]
struct Count {
    id: usize,
    writes: u32,
    rmw_reads: u32,
}

/// The join's pruning tables, built once per sweep over dense ids: one
/// per `(location, value)` some path reads or writes.
struct Tallies {
    /// Number of ids.
    ids: usize,
    /// Per id: 1 when the value is the location's initial value.
    init: Vec<u32>,
    /// Row `t` (`ids` wide): per id, the most writes threads `>= t` could
    /// still contribute — each thread counted at the max over its own
    /// paths, since an execution picks one path apiece.
    suffix: Vec<u32>,
    /// `min_rest[t]`: fewest ops threads `>= t` can still contribute.
    min_rest: Vec<usize>,
    /// Per thread, the index of its first path among `paths`.
    first_path: Vec<usize>,
    /// Per path, threads in order: its rows of `counts` and its distinct
    /// plain-read ids in `reads`.
    paths: Vec<(Range<usize>, Range<usize>)>,
    counts: Vec<Count>,
    reads: Vec<usize>,
}

impl Tallies {
    fn new(ps: &PathSet, initial: &Memory) -> Self {
        let mut keys: Vec<(Loc, Value)> = ps
            .per_thread
            .iter()
            .flatten()
            .flatten()
            .flat_map(|op| op.read_value.into_iter().chain(op.write_value).map(|v| (op.loc, v)))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        let ids = keys.len();
        let id = |loc: Loc, v: Value| keys.binary_search(&(loc, v)).expect("every value has an id");
        let init = keys.iter().map(|&(loc, v)| u32::from(v == initial.read(loc))).collect();
        let mut first_path = Vec::with_capacity(ps.per_thread.len());
        let mut paths = Vec::new();
        let (mut counts, mut reads) = (Vec::new(), Vec::new());
        // Per id: the path that last opened a row for it, and that row;
        // the path that last listed it as a plain read.
        let (mut opened, mut read_by) = (vec![(usize::MAX, 0); ids], vec![usize::MAX; ids]);
        for thread in &ps.per_thread {
            first_path.push(paths.len());
            for path in thread {
                let p = paths.len();
                let (c0, r0) = (counts.len(), reads.len());
                for op in path {
                    match (op.read_value, op.write_value) {
                        (read, Some(w)) => {
                            row(&mut counts, &mut opened, p, id(op.loc, w)).writes += 1;
                            if let Some(v) = read {
                                row(&mut counts, &mut opened, p, id(op.loc, v)).rmw_reads += 1;
                            }
                        }
                        (Some(v), None) => {
                            let i = id(op.loc, v);
                            if read_by[i] != p {
                                read_by[i] = p;
                                reads.push(i);
                            }
                        }
                        (None, None) => {}
                    }
                }
                paths.push((c0..counts.len(), r0..reads.len()));
            }
        }
        let n = ps.per_thread.len();
        let mut suffix = vec![0; (n + 1) * ids];
        let mut min_rest = vec![0; n + 1];
        for t in (0..n).rev() {
            let (row_t, rest) = suffix.split_at_mut((t + 1) * ids);
            let row_t = &mut row_t[t * ids..];
            for path in &paths[first_path[t]..first_path[t] + ps.per_thread[t].len()] {
                for c in &counts[path.0.clone()] {
                    let slot = &mut row_t[c.id];
                    *slot = (*slot).max(c.writes);
                }
            }
            for (slot, later) in row_t.iter_mut().zip(&rest[..ids]) {
                *slot += later;
            }
            let shortest = ps.per_thread[t].iter().map(Vec::len).min().unwrap_or(0);
            min_rest[t] = min_rest[t + 1] + shortest;
        }
        Tallies { ids, init, suffix, min_rest, first_path, paths, counts, reads }
    }

    /// Row `t` of the suffix maxima.
    fn rest(&self, t: usize) -> &[u32] {
        &self.suffix[t * self.ids..(t + 1) * self.ids]
    }
}

/// Path `p`'s row of `counts` for id `i`, opened on the path's first use
/// of the id.
fn row<'a>(
    counts: &'a mut Vec<Count>,
    opened: &mut [(usize, usize)],
    p: usize,
    i: usize,
) -> &'a mut Count {
    if opened[i].0 != p {
        opened[i] = (p, counts.len());
        counts.push(Count { id: i, writes: 0, rmw_reads: 0 });
    }
    &mut counts[opened[i].1]
}

/// The committed prefix's tallies: counts added on descent and
/// subtracted on backtrack, plus the ids the feasibility check visits.
struct Prefix {
    written: Vec<u32>,
    rmw_reads: Vec<u32>,
    /// Ids some committed RMW reads, once per committing path.
    rmw_ids: Vec<usize>,
    /// Ids some committed plain read reads, once per committing path.
    read_ids: Vec<usize>,
}

impl Prefix {
    fn new(ids: usize) -> Self {
        Prefix {
            written: vec![0; ids],
            rmw_reads: vec![0; ids],
            rmw_ids: Vec::new(),
            read_ids: Vec::new(),
        }
    }

    /// Commits path `p`, returning the id-list lengths to
    /// [`pop`](Self::pop) back to.
    fn push(&mut self, tl: &Tallies, p: usize) -> (usize, usize) {
        let saved = (self.rmw_ids.len(), self.read_ids.len());
        let (counts, reads) = &tl.paths[p];
        for c in &tl.counts[counts.clone()] {
            self.written[c.id] += c.writes;
            self.rmw_reads[c.id] += c.rmw_reads;
            if c.rmw_reads > 0 {
                self.rmw_ids.push(c.id);
            }
        }
        self.read_ids.extend_from_slice(&tl.reads[reads.clone()]);
        saved
    }

    fn pop(&mut self, tl: &Tallies, p: usize, saved: (usize, usize)) {
        for c in &tl.counts[tl.paths[p].0.clone()] {
            self.written[c.id] -= c.writes;
            self.rmw_reads[c.id] -= c.rmw_reads;
        }
        self.rmw_ids.truncate(saved.0);
        self.read_ids.truncate(saved.1);
    }

    /// Whether every read in the committed prefix can still be supplied,
    /// given the writes threads `>= t` (the unchosen ones) could
    /// contribute.
    ///
    /// A plain or sync read of `v` needs *some* source: the initial
    /// memory, a write of `v` in the prefix, or a write of `v` some
    /// unchosen path could contribute. An RMW read is stricter — RMW
    /// atomicity means a same-location write (or the initial value) feeds
    /// **at most one** RMW read, because a second RMW reading the same
    /// source would have the first's write slotted co-between its source
    /// and itself, an `fr ; co` cycle. So per (location, value) the RMW
    /// reads are counted against the writes by pigeonhole, which is what
    /// prunes, e.g., two barrier arrivals both claiming ticket 0. The
    /// check is one-shot, not transitive; at the leaf (`t` past the last
    /// thread, no writes to come) it is exactly the whole-tuple
    /// admissibility prefilter.
    fn feasible(&self, tl: &Tallies, t: usize) -> bool {
        let rest = tl.rest(t);
        self.rmw_ids.iter().all(|&i| self.rmw_reads[i] <= self.written[i] + rest[i] + tl.init[i])
            && self.read_ids.iter().all(|&i| tl.init[i] == 1 || self.written[i] + rest[i] > 0)
    }
}

/// Per-tuple derived structure: event classification and the relation
/// skeleton shared by every branch of the search. One context serves a
/// whole sweep: the join builds each tuple's events in `events` and
/// [`refill`](Self::refill) derives the rest in place.
#[derive(Default)]
struct TupleCtx {
    events: Vec<Operation>,
    /// The tuple's locations, ascending.
    locs: Vec<Loc>,
    /// Per location: whether some synchronization operation touches it.
    sync_loc: Vec<bool>,
    /// Per event: the index of its location in `locs`.
    loc_of: Vec<usize>,
    /// Writers grouped by location, in location order, each group
    /// ascending: group `g` is `writers[writer_start[g]..writer_start[g + 1]]`.
    writers: Vec<usize>,
    writer_start: Vec<usize>,
    /// Every event grouped the same way, for the conflict scan.
    accesses: Vec<usize>,
    access_start: Vec<usize>,
    /// Reads (including RMW read components) on sync-involved locations.
    sync_reads: Vec<usize>,
    /// Reads on pure-data locations.
    data_reads: Vec<usize>,
    /// Cross-processor conflicting pairs that are *not* sync/sync — the
    /// pairs DRF0 calls races when hb leaves them unordered — in
    /// lexicographic order.
    conflicts: Vec<(usize, usize)>,
    /// Cross-processor same-location sync pairs — the carriers of `so` —
    /// in lexicographic order.
    so_pairs: Vec<(usize, usize)>,
    /// Program order as a closed relation: the search relation starts
    /// from it, and so does every happens-before `forced_hb` derives.
    po: Rel,
    po_edges: Vec<(usize, usize)>,
    /// Scratch cursor per location group.
    cursor: Vec<usize>,
}

impl TupleCtx {
    /// Derives everything from `events`, reusing every buffer.
    fn refill(&mut self) {
        let TupleCtx { events, locs, sync_loc, loc_of, cursor, .. } = self;
        let n = events.len();
        locs.clear();
        locs.extend(events.iter().map(|e| e.loc));
        locs.sort_unstable();
        locs.dedup();
        loc_of.clear();
        loc_of.extend(events.iter().map(|e| locs.binary_search(&e.loc).expect("listed")));
        sync_loc.clear();
        sync_loc.resize(locs.len(), false);
        for (e, &g) in events.iter().zip(loc_of.iter()) {
            sync_loc[g] |= e.kind.is_sync();
        }
        let writes = |i: usize| events[i].write_value.is_some();
        group(loc_of, locs.len(), writes, cursor, &mut self.writer_start, &mut self.writers);
        group(loc_of, locs.len(), |_| true, cursor, &mut self.access_start, &mut self.accesses);
        self.sync_reads.clear();
        self.data_reads.clear();
        for (i, e) in events.iter().enumerate() {
            if e.read_value.is_some() {
                if sync_loc[loc_of[i]] {
                    self.sync_reads.push(i);
                } else {
                    self.data_reads.push(i);
                }
            }
        }
        // Both kinds of pair share a location, so each event meets only
        // the later events of its own group: ascending `i`, then `j`.
        self.conflicts.clear();
        self.so_pairs.clear();
        cursor.clear();
        cursor.extend_from_slice(&self.access_start[..locs.len()]);
        for (i, a) in events.iter().enumerate() {
            let g = loc_of[i];
            cursor[g] += 1;
            for &j in &self.accesses[cursor[g]..self.access_start[g + 1]] {
                let b = &events[j];
                if a.proc == b.proc {
                    continue;
                }
                if a.so_related(b) {
                    self.so_pairs.push((i, j));
                } else if a.conflicts_with(b) {
                    self.conflicts.push((i, j));
                }
            }
        }
        // Threads are contiguous runs, so po's covering edges join
        // neighbours and arrive sorted by target.
        self.po_edges.clear();
        self.po_edges
            .extend((1..n).filter(|&i| events[i].proc == events[i - 1].proc).map(|i| (i - 1, i)));
        self.po.refill_forward_edges(n, &self.po_edges);
    }

    fn round_reads(&self, round: Round) -> &[usize] {
        match round {
            Round::Sync => &self.sync_reads,
            Round::Data => &self.data_reads,
        }
    }

    /// The writers of location group `g`, ascending.
    fn writers_at(&self, g: usize) -> &[usize] {
        &self.writers[self.writer_start[g]..self.writer_start[g + 1]]
    }

    /// The writers of every location, in location order.
    fn loc_writers(&self) -> impl Iterator<Item = &[usize]> {
        (0..self.locs.len()).map(|g| self.writers_at(g))
    }

    /// The writers of each of the `round`'s locations, in location order.
    fn round_writes(&self, round: Round) -> impl Iterator<Item = &[usize]> {
        (0..self.locs.len())
            .filter(move |&g| self.sync_loc[g] == (round == Round::Sync))
            .map(|g| self.writers_at(g))
    }

    /// The first write pair of the `round` that `rel` leaves unordered.
    fn first_unordered(&self, round: Round, rel: &Rel) -> Option<(usize, usize)> {
        for writes in self.round_writes(round) {
            for (x, &w1) in writes.iter().enumerate() {
                for &w2 in &writes[x + 1..] {
                    if !rel.comparable(w1, w2) {
                        return Some((w1, w2));
                    }
                }
            }
        }
        None
    }
}

/// Counting sort of the events `keep` selects by location group (of
/// `groups`), each group ascending: group `g` lands in
/// `out[start[g]..start[g + 1]]`.
fn group(
    loc_of: &[usize],
    groups: usize,
    keep: impl Fn(usize) -> bool,
    cursor: &mut Vec<usize>,
    start: &mut Vec<usize>,
    out: &mut Vec<usize>,
) {
    start.clear();
    start.resize(groups + 1, 0);
    for (i, &g) in loc_of.iter().enumerate() {
        if keep(i) {
            start[g + 1] += 1;
        }
    }
    for g in 0..groups {
        start[g + 1] += start[g];
    }
    cursor.clear();
    cursor.extend_from_slice(&start[..groups]);
    out.clear();
    out.resize(start[groups], 0);
    for (i, &g) in loc_of.iter().enumerate() {
        if keep(i) {
            out[cursor[g]] = i;
            cursor[g] += 1;
        }
    }
}

/// The buffers one tuple is searched in, reused by every tuple: its
/// context, the search relation and the reads-from choice.
#[derive(Default)]
struct Tuple {
    ctx: TupleCtx,
    rel: Rel,
    rf: Vec<Option<RfSource>>,
}

impl<'c> Search<'c> {
    pub(crate) fn new(program: &Program, cfg: &'c AxiomConfig, stop_on_race: bool) -> Self {
        Search {
            cfg,
            budget: Budget::new(cfg.max_work, cfg.deadline),
            stop_on_race,
            initial: program.initial_memory(),
            results: HashSet::new(),
            witnesses: Vec::new(),
            candidates: 0,
            tuples: 0,
            racy: false,
            race: None,
            truncated: false,
            orientation_capped: false,
            hb: Rel::new(0),
            readers: Vec::new(),
            tails: Vec::new(),
        }
    }

    /// Enumerates per-thread path tuples through a pruned recursive join
    /// and processes each survivor through the relational pipeline.
    ///
    /// The join commits one thread's path at a time and abandons a prefix
    /// the moment some read value in it can no longer be supplied by the
    /// initial memory, a write already committed, or *any* path of a
    /// thread still to be chosen. A flat cross-product would visit every
    /// combination of the uncommitted threads behind each such dead
    /// prefix; multi-location sync programs make that the dominant cost
    /// (hundreds of thousands of tuples enumerated to find a few dozen
    /// admissible candidates).
    pub(crate) fn sweep(&mut self, program: &Program) -> Result<(), Stop> {
        let ps = stable_paths(program, self.cfg, &mut self.budget)?;
        self.truncated |= ps.truncated;
        if ps.per_thread.iter().any(Vec::is_empty) {
            // Some thread has no complete path within budget; `truncated`
            // is already set by the walker that gave up.
            return Ok(());
        }
        let tallies = Tallies::new(&ps, &self.initial);
        let mut prefix = Prefix::new(tallies.ids);
        self.join(&ps, &tallies, &mut prefix, 0, &mut Tuple::default())
    }

    fn join(
        &mut self,
        ps: &PathSet,
        tl: &Tallies,
        prefix: &mut Prefix,
        t: usize,
        tuple: &mut Tuple,
    ) -> Result<(), Stop> {
        if t == ps.per_thread.len() {
            return self.process_tuple(tuple);
        }
        for (p, path) in ps.per_thread[t].iter().enumerate() {
            self.budget.spend(1)?;
            let events = &mut tuple.ctx.events;
            let base = events.len();
            events.extend_from_slice(path);
            if events.len() + tl.min_rest[t + 1] > self.cfg.max_ops_per_execution {
                // Every completion of this prefix outgrows the op budget —
                // the same boundary the operational explorer truncates at.
                self.truncated = true;
            } else {
                let p = tl.first_path[t] + p;
                let saved = prefix.push(tl, p);
                if prefix.feasible(tl, t + 1) {
                    self.join(ps, tl, prefix, t + 1, tuple)?;
                }
                prefix.pop(tl, p, saved);
            }
            tuple.ctx.events.truncate(base);
        }
        Ok(())
    }

    fn init_value(&self, loc: Loc) -> Value {
        self.initial.read(loc)
    }

    /// Runs one admissible tuple through the relational pipeline. The
    /// join's leaf-level feasibility check (with an empty suffix) already
    /// established whole-tuple value availability and the RMW pigeonhole.
    fn process_tuple(&mut self, tuple: &mut Tuple) -> Result<(), Stop> {
        let Tuple { ctx, rel, rf } = tuple;
        self.tuples += 1;
        self.budget.spend(ctx.events.len() as u64 + 1)?;
        ctx.refill();
        rel.clone_from(&ctx.po);
        rf.clear();
        rf.resize(ctx.events.len(), None);
        self.rf_search(ctx, Round::Sync, 0, rel, rf)
    }

    /// Enumerates reads-from for the `round`'s reads, then hands the
    /// branch to coherence completion.
    fn rf_search(
        &mut self,
        t: &TupleCtx,
        round: Round,
        i: usize,
        rel: &mut Rel,
        rf: &mut [Option<RfSource>],
    ) -> Result<(), Stop> {
        let reads = t.round_reads(round);
        if i == reads.len() {
            return self.co_search(t, round, rel, rf);
        }
        self.budget.spend(1)?;
        let r = reads[i];
        let ev = t.events[r];
        let v = ev.read_value.expect("round lists hold reads");
        let writes = t.writers_at(t.loc_of[r]);
        let mark = rel.mark();
        for &w in writes {
            if w == r || t.events[w].write_value != Some(v) {
                continue;
            }
            if rel.add_edge_logged(w, r).is_ok() {
                rf[r] = Some(RfSource::Write(w));
                self.rf_search(t, round, i + 1, rel, rf)?;
                rel.rollback(mark);
            }
        }
        if v == self.init_value(ev.loc) {
            // Reading the initial value forces every same-location write
            // after the read (`fr` against the hypothetical init write).
            if writes.iter().all(|&w| w == r || rel.add_edge_logged(r, w).is_ok()) {
                rf[r] = Some(RfSource::Init);
                self.rf_search(t, round, i + 1, rel, rf)?;
            }
            rel.rollback(mark);
        }
        // A round's reads have no source until the round chooses one.
        rf[r] = None;
        Ok(())
    }

    /// Saturates from-reads: whenever coherence orders `w1` before `w2`,
    /// every reader of `w1` must complete before `w2`. Returns `false`
    /// when the branch closes a cycle (candidate inadmissible), with the
    /// edges added so far left for the caller to roll back.
    ///
    /// Each ordered write pair commits all of `w1`'s readers in one
    /// [`Rel::add_edges_logged`]: the same edges, `changed` flags and
    /// rounds (so the same `spend`s) as committing them one at a time,
    /// since one reader's edge cannot put `w2` before another reader.
    fn saturate(
        &mut self,
        t: &TupleCtx,
        rel: &mut Rel,
        rf: &[Option<RfSource>],
    ) -> Result<bool, Stop> {
        // Each write's readers: `rf` is fixed for the call.
        let w = rel.row_words();
        let Search { budget, readers, tails, .. } = self;
        readers.clear();
        readers.resize(rf.len() * w, 0);
        tails.clear();
        tails.resize(w, 0);
        for (r, src) in rf.iter().enumerate() {
            if let Some(RfSource::Write(src)) = *src {
                readers[src * w + r / 64] |= 1 << (r % 64);
            }
        }
        loop {
            budget.spend(1)?;
            let mut changed = false;
            for writes in t.loc_writers() {
                for &w1 in writes {
                    let of_w1 = &readers[w1 * w..(w1 + 1) * w];
                    if of_w1.iter().all(|&x| x == 0) {
                        continue;
                    }
                    for &w2 in writes {
                        if w1 == w2 || !rel.ordered(w1, w2) {
                            continue;
                        }
                        // `w2` among the readers is an RMW reading from
                        // w1: its own write needs no fr edge to itself.
                        let (word, bit) = (w2 / 64, 1 << (w2 % 64));
                        let set = if of_w1[word] & bit == 0 {
                            of_w1
                        } else {
                            tails.copy_from_slice(of_w1);
                            tails[word] &= !bit;
                            &tails[..]
                        };
                        match rel.add_edges_logged(set, w2) {
                            Err(_) => return Ok(false),
                            Ok(added) => changed |= added,
                        }
                    }
                }
            }
            if !changed {
                return Ok(true);
            }
        }
    }

    /// Completes coherence over the `round`'s locations: saturate, then
    /// branch on the first still-unordered write pair.
    fn co_search(
        &mut self,
        t: &TupleCtx,
        round: Round,
        rel: &mut Rel,
        rf: &mut [Option<RfSource>],
    ) -> Result<(), Stop> {
        let entry = rel.mark();
        if self.saturate(t, rel, rf)? {
            if let Some((w1, w2)) = t.first_unordered(round, rel) {
                self.budget.spend(1)?;
                for (a, b) in [(w1, w2), (w2, w1)] {
                    let mark = rel.mark();
                    if rel.add_edge_logged(a, b).is_ok() {
                        self.co_search(t, round, rel, rf)?;
                    }
                    rel.rollback(mark);
                }
            } else {
                match round {
                    Round::Sync => self.stage_b(t, rel, rf)?,
                    Round::Data => {
                        self.emit(t, rel, rf);
                        self.race_sweep(t, rel)?;
                    }
                }
            }
        }
        rel.rollback(entry);
        Ok(())
    }

    /// Happens-before from program order plus the synchronization-order
    /// orientations already committed in `rel`, filtered by [`SyncMode`],
    /// written into the scratch `self.hb`.
    fn forced_hb(&mut self, t: &TupleCtx, rel: &Rel) {
        self.hb.clone_from(&t.po);
        for &(a, b) in &t.so_pairs {
            let (src, dst) = if rel.ordered(a, b) {
                (a, b)
            } else if rel.ordered(b, a) {
                (b, a)
            } else {
                continue;
            };
            if self.cfg.sync_mode.releases(t.events[src].kind) {
                // Every hb edge is already in `rel`, so no cycle can arise.
                let _ = self.hb.add_edge(src, dst);
            }
        }
    }

    /// The Lemma 1 fast path, entered with the synchronization skeleton
    /// complete: if happens-before already orders every conflicting pair,
    /// the candidate is race-free and its data reads are value-forced —
    /// emit the unique SC result without enumerating data relations.
    fn stage_b(
        &mut self,
        t: &TupleCtx,
        rel: &mut Rel,
        rf: &mut [Option<RfSource>],
    ) -> Result<(), Stop> {
        self.budget.spend(1)?;
        self.forced_hb(t, rel);
        let hb0 = &self.hb;
        let race_free = t.conflicts.iter().all(|&(a, b)| {
            // Injectable defect for the fuzz campaign's self-test: claim
            // write/write conflicts are always ordered.
            (self.cfg.inject_hb_bug
                && t.events[a].kind.is_write()
                && t.events[b].kind.is_write())
                || hb0.comparable(a, b)
        });
        if !race_free {
            return self.rf_search(t, Round::Data, 0, rel, rf);
        }
        let admissible = t.data_reads.iter().all(|&r| {
            let ev = t.events[r];
            // hb-latest same-location write before the read; race-freedom
            // makes the candidates totally ordered, so the greedy max is
            // the unique latest.
            let mut latest: Option<usize> = None;
            for &w in t.writers_at(t.loc_of[r]) {
                if hb0.ordered(w, r) && latest.is_none_or(|cur| hb0.ordered(cur, w)) {
                    latest = Some(w);
                }
            }
            let forced = latest
                .map(|w| t.events[w].write_value.expect("writers write"))
                .unwrap_or_else(|| self.init_value(ev.loc));
            if ev.read_value != Some(forced) {
                return false; // inadmissible: no execution reads this value
            }
            rf[r] = Some(latest.map_or(RfSource::Init, RfSource::Write));
            true
        });
        if admissible {
            self.emit(t, rel, rf);
        }
        // Data reads have no source until this point.
        for &r in &t.data_reads {
            rf[r] = None;
        }
        Ok(())
    }

    /// Records an admissible candidate's result (and witness, when
    /// collecting): read values straight from the event annotations,
    /// final memory from each location's coherence-maximal write.
    fn emit(&mut self, t: &TupleCtx, rel: &Rel, rf: &[Option<RfSource>]) {
        self.candidates += 1;
        let mut mem = self.initial.clone();
        for (&loc, writes) in t.locs.iter().zip(t.loc_writers()) {
            let Some((&first, rest)) = writes.split_first() else {
                continue;
            };
            let mut last = first;
            for &w in rest {
                if rel.ordered(last, w) {
                    last = w;
                }
            }
            mem.write(loc, t.events[last].write_value.expect("writers write"));
        }
        let reads = t
            .events
            .iter()
            .filter_map(|e| e.read_value.map(|v| (e.id, v)))
            .collect();
        let result = ExecutionResult { reads, final_memory: mem.snapshot() };
        let fresh = self.results.insert(result);
        if fresh && self.witnesses.len() < self.cfg.collect_witnesses {
            self.witnesses.push(Witness {
                events: t.events.clone(),
                rf: rf
                    .iter()
                    .enumerate()
                    .filter_map(|(i, src)| {
                        src.map(|s| {
                            (i, match s {
                                RfSource::Init => None,
                                RfSource::Write(w) => Some(w),
                            })
                        })
                    })
                    .collect(),
                linearization: rel.topo(),
            });
        }
    }

    /// Decides whether this fully-committed candidate witnesses a race:
    /// sweeps every consistent orientation of the still-undecided
    /// synchronization pairs, and reports a race the moment any completion
    /// leaves a conflicting pair hb-unordered.
    fn race_sweep(&mut self, t: &TupleCtx, rel: &mut Rel) -> Result<(), Stop> {
        if self.racy && !self.stop_on_race {
            return Ok(()); // verdict already settled; results still accrue
        }
        self.forced_hb(t, rel);
        if t.conflicts.iter().all(|&(a, b)| self.hb.comparable(a, b)) {
            return Ok(()); // more so edges can only add order: race-free
        }
        let undecided: Vec<(usize, usize)> = t
            .so_pairs
            .iter()
            .copied()
            .filter(|&(a, b)| {
                // A pair where neither side releases carries no edge in
                // either orientation (a read/read pair under
                // ReleaseWrites): skip it.
                !rel.comparable(a, b)
                    && (self.cfg.sync_mode.releases(t.events[a].kind)
                        || self.cfg.sync_mode.releases(t.events[b].kind))
            })
            .collect();
        if undecided.len() > MAX_ORIENTATION_PAIRS {
            self.orientation_capped = true;
            return Ok(());
        }
        self.orient(t, rel, &undecided, 0)
    }

    fn orient(
        &mut self,
        t: &TupleCtx,
        rel: &mut Rel,
        undecided: &[(usize, usize)],
        i: usize,
    ) -> Result<(), Stop> {
        if self.racy && !self.stop_on_race {
            return Ok(());
        }
        self.budget.spend(1)?;
        if i == undecided.len() {
            self.forced_hb(t, rel);
            for &(a, b) in &t.conflicts {
                if !self.hb.comparable(a, b) {
                    self.racy = true;
                    self.race.get_or_insert((
                        t.events[a].id,
                        t.events[b].id,
                        t.events[a].loc,
                    ));
                    if self.stop_on_race {
                        return Err(Stop::RaceFound);
                    }
                    return Ok(());
                }
            }
            return Ok(());
        }
        let (a, b) = undecided[i];
        if rel.comparable(a, b) {
            return self.orient(t, rel, undecided, i + 1);
        }
        for (src, dst) in [(a, b), (b, a)] {
            let mark = rel.mark();
            if rel.add_edge_logged(src, dst).is_ok() {
                self.orient(t, rel, undecided, i + 1)?;
            }
            rel.rollback(mark);
        }
        Ok(())
    }
}
