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

use std::collections::{BTreeMap, BTreeSet, HashSet};

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

/// No reader: the end of a `saturate` reader list.
const NO_READER: usize = usize::MAX;

/// One `(location, value)` row of the table `feasible_prefix` counts in.
#[derive(Debug, Clone, Copy)]
struct Tally {
    loc: Loc,
    value: Value,
    written: u32,
    rmw_reads: u32,
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
    /// Scratch count table of `feasible_prefix`.
    tally: Vec<Tally>,
    /// Scratch reader lists of `saturate`: the first reader of each
    /// write, and the next reader of the same write after each read.
    first_reader: Vec<usize>,
    next_reader: Vec<usize>,
}

/// Per-tuple derived structure: event classification and the relation
/// skeleton shared by every branch of the search.
struct TupleCtx {
    events: Vec<Operation>,
    /// Writers per location, ascending event index.
    writes_by_loc: BTreeMap<Loc, Vec<usize>>,
    /// Locations touched by at least one synchronization operation.
    sync_locs: BTreeSet<Loc>,
    /// Reads (including RMW read components) on sync-involved locations.
    sync_reads: Vec<usize>,
    /// Reads on pure-data locations.
    data_reads: Vec<usize>,
    /// Cross-processor conflicting pairs that are *not* sync/sync — the
    /// pairs DRF0 calls races when hb leaves them unordered.
    conflicts: Vec<(usize, usize)>,
    /// Cross-processor same-location sync pairs — the carriers of `so`.
    so_pairs: Vec<(usize, usize)>,
    /// Program order as a closed relation: the search relation starts
    /// from it, and so does every happens-before `forced_hb` derives.
    po: Rel,
}

impl TupleCtx {
    fn new(events: Vec<Operation>) -> Self {
        let n = events.len();
        let mut writes_by_loc: BTreeMap<Loc, Vec<usize>> = BTreeMap::new();
        let mut sync_locs = BTreeSet::new();
        for (i, e) in events.iter().enumerate() {
            if e.write_value.is_some() {
                writes_by_loc.entry(e.loc).or_default().push(i);
            }
            if e.kind.is_sync() {
                sync_locs.insert(e.loc);
            }
        }
        let mut sync_reads = Vec::new();
        let mut data_reads = Vec::new();
        for (i, e) in events.iter().enumerate() {
            if e.read_value.is_some() {
                if sync_locs.contains(&e.loc) {
                    sync_reads.push(i);
                } else {
                    data_reads.push(i);
                }
            }
        }
        let mut conflicts = Vec::new();
        let mut so_pairs = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                let (a, b) = (&events[i], &events[j]);
                if a.proc == b.proc {
                    continue;
                }
                if a.so_related(b) {
                    so_pairs.push((i, j));
                } else if a.conflicts_with(b) {
                    conflicts.push((i, j));
                }
            }
        }
        // Threads are contiguous runs, so po's covering edges join
        // neighbours and arrive sorted by target.
        let po_edges: Vec<(usize, usize)> =
            (1..n).filter(|&i| events[i].proc == events[i - 1].proc).map(|i| (i - 1, i)).collect();
        let po = Rel::from_forward_edges(n, &po_edges);
        TupleCtx {
            events,
            writes_by_loc,
            sync_locs,
            sync_reads,
            data_reads,
            conflicts,
            so_pairs,
            po,
        }
    }

    fn round_reads(&self, round: Round) -> &[usize] {
        match round {
            Round::Sync => &self.sync_reads,
            Round::Data => &self.data_reads,
        }
    }

    /// The writers of each of the `round`'s locations, in location order.
    fn round_writes(&self, round: Round) -> impl Iterator<Item = &[usize]> {
        self.writes_by_loc
            .iter()
            .filter(move |(loc, _)| self.sync_locs.contains(loc) == (round == Round::Sync))
            .map(|(_, writes)| writes.as_slice())
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
            tally: Vec::new(),
            first_reader: Vec::new(),
            next_reader: Vec::new(),
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
        let n = ps.per_thread.len();
        // `suffix[t]`: per (location, value), the most writes threads
        // `>= t` could still contribute — each thread counted at the max
        // over its own paths, since an execution picks one path apiece.
        let mut suffix: Vec<BTreeMap<Loc, BTreeMap<Value, u32>>> = vec![BTreeMap::new(); n + 1];
        for t in (0..n).rev() {
            let mut thread_max: BTreeMap<Loc, BTreeMap<Value, u32>> = BTreeMap::new();
            for path in &ps.per_thread[t] {
                let mut counts: BTreeMap<Loc, BTreeMap<Value, u32>> = BTreeMap::new();
                for op in path {
                    if let Some(v) = op.write_value {
                        *counts.entry(op.loc).or_default().entry(v).or_default() += 1;
                    }
                }
                for (loc, per_value) in counts {
                    let slot = thread_max.entry(loc).or_default();
                    for (v, c) in per_value {
                        let e = slot.entry(v).or_default();
                        *e = (*e).max(c);
                    }
                }
            }
            let mut acc = suffix[t + 1].clone();
            for (loc, per_value) in thread_max {
                let slot = acc.entry(loc).or_default();
                for (v, c) in per_value {
                    *slot.entry(v).or_default() += c;
                }
            }
            suffix[t] = acc;
        }
        // `min_rest[t]`: fewest ops threads `>= t` can still contribute.
        let mut min_rest = vec![0usize; n + 1];
        for t in (0..n).rev() {
            let shortest = ps.per_thread[t].iter().map(Vec::len).min().unwrap_or(0);
            min_rest[t] = min_rest[t + 1] + shortest;
        }
        self.join(&ps, &suffix, &min_rest, 0, &mut Vec::new())
    }

    fn join(
        &mut self,
        ps: &PathSet,
        suffix: &[BTreeMap<Loc, BTreeMap<Value, u32>>],
        min_rest: &[usize],
        t: usize,
        events: &mut Vec<Operation>,
    ) -> Result<(), Stop> {
        if t == ps.per_thread.len() {
            return self.process_tuple(events.clone());
        }
        for path in &ps.per_thread[t] {
            self.budget.spend(1)?;
            let base = events.len();
            events.extend(path.iter().copied());
            if events.len() + min_rest[t + 1] > self.cfg.max_ops_per_execution {
                // Every completion of this prefix outgrows the op budget —
                // the same boundary the operational explorer truncates at.
                self.truncated = true;
            } else if self.feasible_prefix(events, &suffix[t + 1]) {
                self.join(ps, suffix, min_rest, t + 1, events)?;
            }
            events.truncate(base);
        }
        Ok(())
    }

    /// Whether every read in the committed prefix can still be supplied.
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
    /// check is one-shot, not transitive; with an empty `rest` (at the
    /// leaf) it is exactly the whole-tuple admissibility prefilter.
    fn feasible_prefix(
        &mut self,
        events: &[Operation],
        rest: &BTreeMap<Loc, BTreeMap<Value, u32>>,
    ) -> bool {
        // A prefix touches few (location, value) pairs, so a flat table
        // scanned linearly beats building maps at every join step.
        fn slot(tally: &mut Vec<Tally>, loc: Loc, value: Value) -> &mut Tally {
            let i = match tally.iter().position(|x| x.loc == loc && x.value == value) {
                Some(i) => i,
                None => {
                    tally.push(Tally { loc, value, written: 0, rmw_reads: 0 });
                    tally.len() - 1
                }
            };
            &mut tally[i]
        }
        let Search { tally, initial, .. } = self;
        tally.clear();
        for e in events {
            if let Some(w) = e.write_value {
                slot(tally, e.loc, w).written += 1;
                if let Some(v) = e.read_value {
                    slot(tally, e.loc, v).rmw_reads += 1;
                }
            }
        }
        let rest = |loc: Loc, v: Value| -> u32 {
            rest.get(&loc).and_then(|m| m.get(&v)).copied().unwrap_or(0)
        };
        for x in tally.iter() {
            let init = u32::from(x.value == initial.read(x.loc));
            if x.rmw_reads > x.written + rest(x.loc, x.value) + init {
                return false;
            }
        }
        events.iter().all(|e| match e.read_value {
            Some(v) if e.write_value.is_none() => {
                let written = tally
                    .iter()
                    .find(|x| x.loc == e.loc && x.value == v)
                    .map_or(0, |x| x.written);
                v == initial.read(e.loc) || written + rest(e.loc, v) > 0
            }
            _ => true,
        })
    }

    fn init_value(&self, loc: Loc) -> Value {
        self.initial.read(loc)
    }

    /// Runs one admissible tuple through the relational pipeline. The
    /// join's leaf-level `feasible_prefix` (with an empty suffix) already
    /// established whole-tuple value availability and the RMW pigeonhole.
    fn process_tuple(&mut self, events: Vec<Operation>) -> Result<(), Stop> {
        self.tuples += 1;
        self.budget.spend(events.len() as u64 + 1)?;
        let t = TupleCtx::new(events);
        let mut rel = t.po.clone();
        let mut rf = vec![None; t.events.len()];
        self.rf_search(&t, Round::Sync, 0, &mut rel, &mut rf)
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
        let writes = t.writes_by_loc.get(&ev.loc).map_or(&[][..], Vec::as_slice);
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
    fn saturate(&mut self, t: &TupleCtx, rel: &mut Rel, rf: &[Option<RfSource>]) -> Result<bool, Stop> {
        // Each write's readers, ascending: `rf` is fixed for the call.
        let (first, next) = (&mut self.first_reader, &mut self.next_reader);
        first.clear();
        first.resize(rf.len(), NO_READER);
        next.clear();
        next.resize(rf.len(), NO_READER);
        for (r, src) in rf.iter().enumerate().rev() {
            if let Some(RfSource::Write(w)) = *src {
                next[r] = first[w];
                first[w] = r;
            }
        }
        loop {
            self.budget.spend(1)?;
            let mut changed = false;
            for writes in t.writes_by_loc.values() {
                for &w1 in writes {
                    if self.first_reader[w1] == NO_READER {
                        continue;
                    }
                    for &w2 in writes {
                        if w1 == w2 || !rel.ordered(w1, w2) {
                            continue;
                        }
                        let mut r = self.first_reader[w1];
                        while r != NO_READER {
                            // `r == w2` is an RMW reading from w1: its own
                            // write needs no fr edge to itself.
                            if r != w2 {
                                match rel.add_edge_logged(r, w2) {
                                    Err(_) => return Ok(false),
                                    Ok(added) => changed |= added,
                                }
                            }
                            r = self.next_reader[r];
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
            if let Some(writes) = t.writes_by_loc.get(&ev.loc) {
                for &w in writes {
                    if hb0.ordered(w, r) && latest.is_none_or(|cur| hb0.ordered(cur, w)) {
                        latest = Some(w);
                    }
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
        for (loc, writes) in &t.writes_by_loc {
            let mut last = writes[0];
            for &w in &writes[1..] {
                if rel.ordered(last, w) {
                    last = w;
                }
            }
            mem.write(*loc, t.events[last].write_value.expect("writers write"));
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
