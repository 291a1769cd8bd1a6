//! Per-thread symbolic path enumeration.
//!
//! The relational engine never interleaves threads. Instead it asks, for
//! each thread in isolation: *which sequences of memory operations could
//! this thread perform, as a function of the values its reads return?*
//! Each read branches over a **value oracle** — the set of values any
//! write (or the initial memory) could supply for that location — and all
//! non-memory instructions run through `litmus`'s one local step
//! ([`Instr::step_local`]) and synchronization primitives through
//! `memory_model`'s one rule ([`memory_model::SyncOp::apply`]), under the
//! idealized interpreter's cumulative local-step budget and per-execution
//! op cap.
//!
//! The oracle starts at the initial memory values and grows by fixpoint:
//! enumerate paths, collect every value those paths write, re-enumerate.
//! A value written by the *i*-th memory operation of a real execution has
//! derivation depth at most *i*, and executions are capped at
//! `max_ops_per_execution` operations, so the fixpoint (bounded by that
//! many rounds) covers every realizable value. Extra oracle values that no
//! real execution produces only create candidate tuples the relational
//! phase prunes as inadmissible — the over-approximation is sound.
//!
//! The oracle is additionally **depth-capped per location**: each value
//! carries the length of the shortest same-location write chain that can
//! produce it, and values whose chain is longer than the location's write
//! capacity (the most writes any one execution could issue to it) are
//! never admitted. Without the cap, RMW increment chains let two threads
//! ping-pong the oracle up to the op budget — `fetch_add(+1)` loops make
//! value *n* "available" after *n* rounds even when no execution has *n*
//! writes — and path counts explode combinatorially in values no tuple
//! survives. See `derive` for the soundness argument.

use std::collections::BTreeMap;
#[cfg(test)]
use std::collections::BTreeSet;

use litmus::{Instr, Program, NUM_REGS};
use memory_model::{Loc, OpId, Operation, ProcId, Value};

use crate::{AxiomConfig, Budget, Stop};

/// The value oracle: for each location, the values a read of it may see,
/// each mapped to the shortest known same-location write-chain depth that
/// produces it (0 for the initial value).
pub type ValueOracle = BTreeMap<Loc, BTreeMap<Value, u32>>;

/// All candidate per-thread paths of a program.
#[derive(Debug, Clone)]
pub struct PathSet {
    /// `per_thread[t]` holds thread `t`'s complete paths, each a sequence
    /// of [`Operation`]s with ids from [`OpId::for_thread_op`].
    pub per_thread: Vec<Vec<Vec<Operation>>>,
    /// Whether some path was cut short by the per-execution op cap or the
    /// local-step limit: the enumeration then under-approximates the
    /// executions of the program and no `Drf0` certificate may be issued.
    pub truncated: bool,
}

/// Enumerates every thread's paths under the value-oracle fixpoint.
///
/// # Errors
///
/// Propagates [`Stop`] when the work budget or deadline gives out.
pub fn stable_paths(
    program: &Program,
    cfg: &AxiomConfig,
    budget: &mut Budget,
) -> Result<PathSet, Stop> {
    let mut oracle: ValueOracle = ValueOracle::new();
    let initial = program.initial_memory();
    for loc in program.locations() {
        oracle.entry(loc).or_default().insert(initial.read(loc), 0);
    }
    // One round per possible derivation depth, plus the final re-enumeration.
    for _ in 0..=cfg.max_ops_per_execution {
        let ps = enumerate_all(program, &oracle, cfg, budget)?;
        let caps = write_caps(&ps, cfg);
        let mut grew = false;
        for paths in &ps.per_thread {
            for path in paths {
                grew |= derive(path, &mut oracle, &caps);
            }
        }
        if !grew {
            return Ok(ps);
        }
    }
    // The loop ran max_ops+1 rounds without converging: the oracle now
    // covers every derivation depth a bounded execution can reach, so one
    // final enumeration under it is complete for realizable paths.
    enumerate_all(program, &oracle, cfg, budget)
}

/// Per-location write capacity of the current path set: an execution
/// takes one path per thread, so it writes a location at most the sum of
/// the per-thread maxima — and never more often than the op cap allows.
fn write_caps(ps: &PathSet, cfg: &AxiomConfig) -> BTreeMap<Loc, u32> {
    let mut caps: BTreeMap<Loc, u32> = BTreeMap::new();
    for paths in &ps.per_thread {
        let mut thread_max: BTreeMap<Loc, u32> = BTreeMap::new();
        for path in paths {
            let mut counts: BTreeMap<Loc, u32> = BTreeMap::new();
            for op in path {
                if op.write_value.is_some() {
                    *counts.entry(op.loc).or_default() += 1;
                }
            }
            for (loc, c) in counts {
                let slot = thread_max.entry(loc).or_default();
                *slot = (*slot).max(c);
            }
        }
        for (loc, c) in thread_max {
            *caps.entry(loc).or_default() += c;
        }
    }
    for c in caps.values_mut() {
        *c = (*c).min(cfg.max_ops_per_execution as u32);
    }
    caps
}

/// Folds one path's written values into the oracle, pruning by chain
/// depth. A write's depth is one more than the deepest same-location
/// value any read at-or-before it in the path consumed: for the path to
/// run at all, every one of those reads must be satisfied, and the chain
/// of writes supporting the deepest of them all executed — as distinct
/// events — before this write did. A value whose shortest chain exceeds
/// the location's write capacity therefore occurs in no execution and is
/// not admitted. Reads at *other* locations don't consume this
/// location's capacity; cross-location laundering is instead bounded by
/// the global fixpoint round count (one round per derivation depth, at
/// most `max_ops_per_execution` of them).
fn derive(path: &[Operation], oracle: &mut ValueOracle, caps: &BTreeMap<Loc, u32>) -> bool {
    let mut grew = false;
    for (i, op) in path.iter().enumerate() {
        let Some(v) = op.write_value else { continue };
        let consumed = path[..=i]
            .iter()
            .filter(|r| r.loc == op.loc)
            .filter_map(|r| r.read_value)
            .map(|rv| {
                oracle.get(&op.loc).and_then(|m| m.get(&rv)).copied().unwrap_or(0)
            })
            .max()
            .unwrap_or(0);
        let depth = consumed + 1;
        if depth > caps.get(&op.loc).copied().unwrap_or(0) {
            continue;
        }
        let slot = oracle.entry(op.loc).or_default();
        match slot.get(&v) {
            Some(&old) if old <= depth => {}
            _ => {
                slot.insert(v, depth);
                grew = true;
            }
        }
    }
    grew
}

fn enumerate_all(
    program: &Program,
    oracle: &ValueOracle,
    cfg: &AxiomConfig,
    budget: &mut Budget,
) -> Result<PathSet, Stop> {
    let mut per_thread = Vec::with_capacity(program.num_threads());
    let mut truncated = false;
    for t in 0..program.num_threads() {
        let mut walker = Walker {
            instrs: program.threads()[t].instrs(),
            proc: ProcId(t as u16),
            oracle,
            cfg,
            budget,
            paths: Vec::new(),
            truncated: false,
        };
        walker.walk(0, [0; NUM_REGS], 0, &mut Vec::new())?;
        truncated |= walker.truncated;
        per_thread.push(walker.paths);
    }
    Ok(PathSet { per_thread, truncated })
}

struct Walker<'a> {
    instrs: &'a [Instr],
    proc: ProcId,
    oracle: &'a ValueOracle,
    cfg: &'a AxiomConfig,
    budget: &'a mut Budget,
    paths: Vec<Vec<Operation>>,
    truncated: bool,
}

impl Walker<'_> {
    /// Runs from `pc`: local instructions execute in place against
    /// `regs` under the cumulative `local_steps` budget; each memory
    /// operation appends to `ops`, branching over the oracle at every
    /// read component.
    fn walk(
        &mut self,
        mut pc: usize,
        mut regs: [Value; NUM_REGS],
        mut local_steps: u64,
        ops: &mut Vec<Operation>,
    ) -> Result<(), Stop> {
        // Writes are appended in place as the frame advances `pc`, so the
        // frame must restore `ops` to its entry length on the way out or
        // sibling read branches in the caller would inherit them.
        let base = ops.len();
        loop {
            let Some(&instr) = self.instrs.get(pc) else {
                self.budget.spend(1)?;
                self.paths.push(ops.clone());
                ops.truncate(base);
                return Ok(());
            };
            if instr.is_memory_op() {
                if ops.len() >= self.cfg.max_ops_per_execution {
                    // This path alone would blow the per-execution cap; any
                    // execution through here is one the operational
                    // explorer truncates too.
                    self.truncated = true;
                    ops.truncate(base);
                    return Ok(());
                }
                self.budget.spend(1)?;
                let (proc, id) = (self.proc, OpId::for_thread_op(self.proc, ops.len() as u32));
                let (loc, sync, dst) = match instr {
                    Instr::Write { loc, src } => {
                        ops.push(Operation::data_write(id, proc, loc, src.eval(&regs)));
                        pc += 1;
                        continue;
                    }
                    Instr::Read { loc, dst } => (loc, None, Some(dst)),
                    _ => {
                        let (loc, sync, dst) =
                            instr.sync_op(&regs).expect("memory ops are data or sync");
                        (loc, Some(sync), dst)
                    }
                };
                let at = |v| match sync {
                    Some(sync) => sync.perform(id, proc, loc, v),
                    None => Operation::data_read(id, proc, loc, v),
                };
                let Some(dst) = dst else {
                    // A write-only `Set` reads nothing: one path, whatever
                    // the cell held.
                    ops.push(at(0));
                    pc += 1;
                    continue;
                };
                for &v in self.oracle[&loc].keys() {
                    ops.push(at(v));
                    let mut r = regs;
                    r[dst.index()] = v;
                    self.walk(pc + 1, r, local_steps, ops)?;
                    ops.pop();
                }
                ops.truncate(base);
                return Ok(());
            }
            if local_steps >= self.cfg.local_step_limit {
                self.truncated = true;
                ops.truncate(base);
                return Ok(());
            }
            local_steps += 1;
            self.budget.spend(1)?;
            pc = instr.step_local(pc, &mut regs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use litmus::{Reg, Thread};

    fn cfg() -> AxiomConfig {
        AxiomConfig::default()
    }

    fn budget() -> Budget {
        Budget::new(u64::MAX, None)
    }

    #[test]
    fn straight_line_writer_has_one_path() {
        let p = Program::new(vec![
            Thread::new().write(Loc(0), 1).write(Loc(1), 2),
            Thread::new().read(Loc(9), Reg(0)),
        ])
        .unwrap();
        let ps = stable_paths(&p, &cfg(), &mut budget()).unwrap();
        assert!(!ps.truncated);
        assert_eq!(ps.per_thread[0].len(), 1);
        let path = &ps.per_thread[0][0];
        assert_eq!(path.len(), 2);
        assert_eq!(path[0].write_value, Some(1));
        assert_eq!(path[1].id, OpId::for_thread_op(ProcId(0), 1));
        // Loc 9 is never written: the read branches only over the initial 0.
        assert_eq!(ps.per_thread[1].len(), 1);
        assert_eq!(ps.per_thread[1][0][0].read_value, Some(0));
    }

    #[test]
    fn reads_branch_over_fixpoint_values() {
        // Thread 1 reads what thread 0 may or may not have written.
        let p = Program::new(vec![
            Thread::new().write(Loc(0), 7),
            Thread::new().read(Loc(0), Reg(0)).write(Loc(1), Reg(0)),
        ])
        .unwrap();
        let ps = stable_paths(&p, &cfg(), &mut budget()).unwrap();
        let reads: BTreeSet<Value> = ps.per_thread[1]
            .iter()
            .map(|path| path[0].read_value.unwrap())
            .collect();
        assert_eq!(reads, BTreeSet::from([0, 7]));
        // The copied value propagates into the write of each path.
        for path in &ps.per_thread[1] {
            assert_eq!(path[1].write_value, path[0].read_value);
        }
    }

    #[test]
    fn derived_values_reach_the_oracle_transitively() {
        // t0 writes 5 to m0; t1 copies m0 into m1; t2 reads m1. The value 5
        // reaches m1's oracle only on the second fixpoint round.
        let p = Program::new(vec![
            Thread::new().write(Loc(0), 5),
            Thread::new().read(Loc(0), Reg(0)).write(Loc(1), Reg(0)),
            Thread::new().read(Loc(1), Reg(0)),
        ])
        .unwrap();
        let ps = stable_paths(&p, &cfg(), &mut budget()).unwrap();
        let reads: BTreeSet<Value> = ps.per_thread[2]
            .iter()
            .map(|path| path[0].read_value.unwrap())
            .collect();
        assert_eq!(reads, BTreeSet::from([0, 5]));
    }

    #[test]
    fn bounded_spin_paths_follow_branch_semantics() {
        // spin: up to 2 sync-reads of the flag, exiting early on nonzero
        // by branching past the last instruction (pc == len halts).
        let mut t = Thread::new();
        for _ in 0..2 {
            t = t.sync_read(Loc(0), Reg(0));
            t = t.branch_ne(Reg(0), 0u64, 4);
        }
        let p = Program::new(vec![Thread::new().sync_write(Loc(0), 1), t]).unwrap();
        let ps = stable_paths(&p, &cfg(), &mut budget()).unwrap();
        assert!(!ps.truncated);
        // Spin paths: [1], [0,1], [0,0] — value branching at each read.
        let seqs: BTreeSet<Vec<Value>> = ps.per_thread[1]
            .iter()
            .map(|path| path.iter().map(|op| op.read_value.unwrap()).collect())
            .collect();
        assert_eq!(
            seqs,
            BTreeSet::from([vec![1], vec![0, 1], vec![0, 0]])
        );
    }

    #[test]
    fn unbounded_local_loop_truncates() {
        let p = Program::new(vec![
            Thread::new().jump(0),
            Thread::new().write(Loc(0), 1),
        ])
        .unwrap();
        let ps = stable_paths(&p, &cfg(), &mut budget()).unwrap();
        assert!(ps.truncated);
        assert!(ps.per_thread[0].is_empty());
    }

    #[test]
    fn op_cap_truncates_long_paths() {
        let mut t = Thread::new();
        for i in 0..10 {
            t = t.write(Loc(i), 1);
        }
        let p = Program::new(vec![t]).unwrap();
        let tight = AxiomConfig { max_ops_per_execution: 4, ..cfg() };
        let ps = stable_paths(&p, &tight, &mut budget()).unwrap();
        assert!(ps.truncated);
        assert!(ps.per_thread[0].is_empty());
    }

    #[test]
    fn work_budget_stops_enumeration() {
        let p = Program::new(vec![Thread::new().write(Loc(0), 1)]).unwrap();
        let mut b = Budget::new(0, None);
        assert!(matches!(stable_paths(&p, &cfg(), &mut b), Err(Stop::Work)));
    }

    #[test]
    fn fetch_add_wraps_and_branches() {
        let p = Program::new(vec![
            Thread::new().fetch_add(Loc(0), Reg(0), 1u64),
            Thread::new().fetch_add(Loc(0), Reg(0), 1u64),
        ])
        .unwrap();
        let ps = stable_paths(&p, &cfg(), &mut budget()).unwrap();
        // Two single-RMW threads give the location a write capacity of 2,
        // so the depth-capped oracle is exactly {0, 1, 2}: value 3 would
        // need a three-write chain no execution has. (The value 2 is an
        // over-approximation — only the *other* thread can observe it —
        // and the relational phase prunes tuples built from it.)
        let olds: BTreeSet<Value> = ps.per_thread[0]
            .iter()
            .map(|path| path[0].read_value.unwrap())
            .collect();
        assert_eq!(olds, BTreeSet::from([0, 1, 2]));
        for path in &ps.per_thread[0] {
            let op = &path[0];
            assert_eq!(op.write_value, Some(op.read_value.unwrap() + 1));
        }
    }
}
