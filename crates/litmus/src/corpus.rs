//! The litmus corpus: the paper's programs and classic consistency tests.
//!
//! Location conventions used throughout: data locations start at
//! [`LOC_X`]`= m0`, synchronization locations at [`LOC_S`]`= m100` — data
//! and synchronization variables never alias, matching the paper's setting.

use memory_model::Loc;

use crate::{Program, Reg, Thread};

/// The canonical data location `x`.
pub const LOC_X: Loc = Loc(0);
/// The second data location `y`.
pub const LOC_Y: Loc = Loc(1);
/// The third data location `z`.
pub const LOC_Z: Loc = Loc(2);
/// The first synchronization location `s`.
pub const LOC_S: Loc = Loc(100);
/// The second synchronization location `t`.
pub const LOC_T: Loc = Loc(101);

/// Figure 1 of the paper: the Dekker-style sequential-consistency litmus.
///
/// ```text
/// Initially X = Y = 0
/// P1: X = 1; if (Y == 0) kill P2;     P2: Y = 1; if (X == 0) kill P1;
/// ```
///
/// Modeled as each processor writing its flag and reading the other's into
/// `r0`; the "both killed" violation is the outcome where both reads
/// return 0. Under sequential consistency that outcome is impossible.
#[must_use]
pub fn fig1_dekker() -> Program {
    Program::new(vec![
        Thread::new().write(LOC_X, 1).read(LOC_Y, Reg(0)),
        Thread::new().write(LOC_Y, 1).read(LOC_X, Reg(0)),
    ])
    .expect("static corpus program is valid")
}

/// [`fig1_dekker`] with an RP3-style fence between each processor's write
/// and read (Section 2.1: RP3's option to wait for outstanding
/// acknowledgements "only on a fence instruction"). The fence restores
/// sequential consistency on the relaxed machines for this program — at
/// the price of a full drain on every crossing — but does **not** make
/// the program data-race-free: fences order only their own processor and
/// create no happens-before edges.
#[must_use]
pub fn fig1_dekker_fenced() -> Program {
    Program::new(vec![
        Thread::new().write(LOC_X, 1).fence().read(LOC_Y, Reg(0)),
        Thread::new().write(LOC_Y, 1).fence().read(LOC_X, Reg(0)),
    ])
    .expect("static corpus program is valid")
}

/// Unsynchronized message passing: `P0` writes data then a *data* flag;
/// `P1` reads the flag then the data. Racy (the flag is an ordinary
/// access), hence **not** DRF0.
#[must_use]
pub fn message_passing_data() -> Program {
    Program::new(vec![
        Thread::new().write(LOC_X, 42).write(LOC_Y, 1),
        Thread::new().read(LOC_Y, Reg(0)).read(LOC_X, Reg(1)),
    ])
    .expect("static corpus program is valid")
}

/// Synchronized message passing: the flag is a synchronization location
/// and the consumer spins on it (bounded to `spins` attempts so idealized
/// exploration terminates). DRF0.
#[must_use]
pub fn message_passing_sync(spins: u64) -> Program {
    // P1:
    //   0: mov r2, 0
    //   1: S.r(s) -> r0
    //   2: if r0 == 1 goto 6
    //   3: r2 += 1
    //   4: if r2 != spins goto 1
    //   5: jump 7            (gave up: skip the data read)
    //   6: R(x) -> r1
    //   7: halt
    let consumer = Thread::new()
        .mov(Reg(2), 0)
        .sync_read(LOC_S, Reg(0))
        .branch_eq(Reg(0), 1u64, 6)
        .add(Reg(2), Reg(2), 1u64)
        .branch_ne(Reg(2), spins, 1)
        .jump(7)
        .read(LOC_X, Reg(1));
    Program::new(vec![
        Thread::new().write(LOC_X, 42).sync_write(LOC_S, 1),
        consumer,
    ])
    .expect("static corpus program is valid")
}

/// Figure 3 of the paper: `P0` writes `x`, does other work, `Unset`s `s`;
/// `P1` spins `TestAndSet(s)` until it succeeds (reads 0), then reads `x`.
///
/// `s` starts *set* (1); `Unset` writes 0; a successful `TestAndSet`
/// returns 0 and re-sets the location to 1. `work` inserts that many
/// unrelated data writes between `W(x)` and `Unset(s)` ("does other
/// work"). The spin is unbounded: use this with the hardware simulators.
#[must_use]
pub fn fig3_handoff(work: u32) -> Program {
    let mut p0 = Thread::new().write(LOC_X, 1);
    for i in 0..work {
        p0 = p0.write(Loc(10 + i), 1);
    }
    p0 = p0.sync_write(LOC_S, 0); // Unset(s)
    for i in 0..work {
        p0 = p0.write(Loc(50 + i), 1); // "more work" after the Unset
    }
    // P1: 0: TAS(s) -> r0 ; 1: if r0 != 0 goto 0 ; 2: R(x) -> r1
    let p1 = Thread::new()
        .test_and_set(LOC_S, Reg(0))
        .branch_ne(Reg(0), 0u64, 0)
        .read(LOC_X, Reg(1));
    Program::new(vec![p0, p1])
        .expect("static corpus program is valid")
        .with_init(vec![(LOC_S, 1)])
}

/// [`fig3_handoff`] with the consumer's spin bounded to `spins` attempts
/// (skipping the data read on failure), so idealized exploration
/// terminates. Still DRF0.
#[must_use]
pub fn fig3_handoff_bounded(work: u32, spins: u64) -> Program {
    let mut p0 = Thread::new().write(LOC_X, 1);
    for i in 0..work {
        p0 = p0.write(Loc(10 + i), 1);
    }
    p0 = p0.sync_write(LOC_S, 0);
    // P1:
    //   0: mov r2, 0
    //   1: TAS(s) -> r0
    //   2: if r0 == 0 goto 6
    //   3: r2 += 1
    //   4: if r2 != spins goto 1
    //   5: jump 7
    //   6: R(x) -> r1
    let p1 = Thread::new()
        .mov(Reg(2), 0)
        .test_and_set(LOC_S, Reg(0))
        .branch_eq(Reg(0), 0u64, 6)
        .add(Reg(2), Reg(2), 1u64)
        .branch_ne(Reg(2), spins, 1)
        .jump(7)
        .read(LOC_X, Reg(1));
    Program::new(vec![p0, p1])
        .expect("static corpus program is valid")
        .with_init(vec![(LOC_S, 1)])
}

/// A `TestAndSet` spinlock protecting `increments` increments of a shared
/// counter per thread, for `threads` threads. Unbounded spins: simulator
/// use. DRF0 (counter accesses only under the lock).
#[must_use]
pub fn spinlock(threads: usize, increments: u64) -> Program {
    let lock = LOC_S;
    let counter = LOC_X;
    let ts: Vec<Thread> = (0..threads)
        .map(|_| {
            let mut t = Thread::new().mov(Reg(3), 0);
            // 1: TAS(lock) -> r0
            // 2: if r0 != 0 goto 1
            // 3: R(counter) -> r1
            // 4: r1 += 1
            // 5: W(counter) = r1
            // 6: Unset(lock)
            // 7: r3 += 1
            // 8: if r3 != increments goto 1
            t = t
                .test_and_set(lock, Reg(0))
                .branch_ne(Reg(0), 0u64, 1)
                .read(counter, Reg(1))
                .add(Reg(1), Reg(1), 1u64)
                .write(counter, Reg(1))
                .sync_write(lock, 0)
                .add(Reg(3), Reg(3), 1u64)
                .branch_ne(Reg(3), increments, 1);
            t
        })
        .collect();
    Program::new(ts).expect("static corpus program is valid")
}

/// The test-and-`TestAndSet` spinlock of Section 6: spin with a read-only
/// `Test` and only attempt the `TestAndSet` when the lock looks free.
/// Repeated testing of a synchronization variable is exactly the pattern
/// the paper notes the plain Definition-2 implementation serializes badly.
#[must_use]
pub fn tts_spinlock(threads: usize, increments: u64) -> Program {
    let lock = LOC_S;
    let counter = LOC_X;
    let ts: Vec<Thread> = (0..threads)
        .map(|_| {
            // 0: mov r3, 0
            // 1: S.r(lock) -> r0        (Test)
            // 2: if r0 != 0 goto 1      (spin while held)
            // 3: TAS(lock) -> r0
            // 4: if r0 != 0 goto 1      (lost the race: back to testing)
            // 5: R(counter) -> r1
            // 6: r1 += 1
            // 7: W(counter) = r1
            // 8: Unset(lock)
            // 9: r3 += 1
            // 10: if r3 != increments goto 1
            Thread::new()
                .mov(Reg(3), 0)
                .sync_read(lock, Reg(0))
                .branch_ne(Reg(0), 0u64, 1)
                .test_and_set(lock, Reg(0))
                .branch_ne(Reg(0), 0u64, 1)
                .read(counter, Reg(1))
                .add(Reg(1), Reg(1), 1u64)
                .write(counter, Reg(1))
                .sync_write(lock, 0)
                .add(Reg(3), Reg(3), 1u64)
                .branch_ne(Reg(3), increments, 1)
        })
        .collect();
    Program::new(ts).expect("static corpus program is valid")
}

/// A centralized barrier: each thread fetch-adds the barrier count (a
/// synchronization location), spins until the count reaches `threads`,
/// then reads every thread's slot. Each thread writes its slot *before*
/// the barrier; all post-barrier reads are therefore hb-ordered after all
/// slot writes — DRF0. Spins are unbounded: simulator use.
#[must_use]
pub fn barrier(threads: usize) -> Program {
    barrier_bounded(threads, u64::MAX)
}

/// [`barrier`] with spins bounded to `spins` attempts; a thread that
/// exhausts its spins skips the slot reads entirely (reading without
/// having seen the full count would race). Use for idealized exploration.
#[must_use]
pub fn barrier_bounded(threads: usize, spins: u64) -> Program {
    let count = LOC_S;
    let ts: Vec<Thread> = (0..threads)
        .map(|i| {
            // 0: W(slot_i) = i+1
            // 1: FetchAdd(count, +1) -> r0
            // 2: mov r2, 0                  (spin attempts)
            // 3: S.r(count) -> r1           (spin on the barrier count)
            // 4: if r1 == threads goto 8
            // 5: r2 += 1
            // 6: if r2 != spins goto 3
            // 7: jump END                   (gave up: skip the reads)
            // 8..: read all slots
            let end = 8 + threads;
            let mut t = Thread::new()
                .write(Loc(10 + i as u32), (i as u64) + 1)
                .fetch_add(count, Reg(0), 1u64)
                .mov(Reg(2), 0)
                .sync_read(count, Reg(1))
                .branch_eq(Reg(1), threads as u64, 8)
                .add(Reg(2), Reg(2), 1u64)
                .branch_ne(Reg(2), spins, 3)
                .jump(end);
            for j in 0..threads {
                t = t.read(Loc(10 + j as u32), Reg(2));
            }
            t
        })
        .collect();
    Program::new(ts).expect("static corpus program is valid")
}

/// IRIW (independent reads of independent writes) with data accesses:
/// racy, and the classic probe of write atomicity.
#[must_use]
pub fn iriw_data() -> Program {
    Program::new(vec![
        Thread::new().write(LOC_X, 1),
        Thread::new().write(LOC_Y, 1),
        Thread::new().read(LOC_X, Reg(0)).read(LOC_Y, Reg(1)),
        Thread::new().read(LOC_Y, Reg(0)).read(LOC_X, Reg(1)),
    ])
    .expect("static corpus program is valid")
}

/// IRIW with every access a synchronization operation: DRF0 (sync ops on
/// the same location never race, and reads don't conflict).
#[must_use]
pub fn iriw_sync() -> Program {
    Program::new(vec![
        Thread::new().sync_write(LOC_S, 1),
        Thread::new().sync_write(LOC_T, 1),
        Thread::new().sync_read(LOC_S, Reg(0)).sync_read(LOC_T, Reg(1)),
        Thread::new().sync_read(LOC_T, Reg(0)).sync_read(LOC_S, Reg(1)),
    ])
    .expect("static corpus program is valid")
}

/// Load buffering (LB): each processor reads one location then writes the
/// other. Sequential consistency forbids both reads returning 1. Racy
/// under DRF0. (The simulators in this workspace never reorder a write
/// above an older read — loads block their processor — so the forbidden
/// outcome is unreachable on every machine model here; the litmus is
/// included to document that strength.)
#[must_use]
pub fn load_buffering() -> Program {
    Program::new(vec![
        Thread::new().read(LOC_Y, Reg(0)).write(LOC_X, 1),
        Thread::new().read(LOC_X, Reg(0)).write(LOC_Y, 1),
    ])
    .expect("static corpus program is valid")
}

/// Coherence read-read (CoRR): one processor writes `x` twice; another
/// reads it twice. Cache coherence (condition 2 of Section 5.1) forbids
/// the second read returning an *older* write than the first.
#[must_use]
pub fn coherence_rr() -> Program {
    Program::new(vec![
        Thread::new().write(LOC_X, 1).write(LOC_X, 2),
        Thread::new().read(LOC_X, Reg(0)).read(LOC_X, Reg(1)),
    ])
    .expect("static corpus program is valid")
}

/// 2+2W: both processors write both locations in opposite orders.
/// Sequential consistency forbids the final state `x == 1 && y == 1`
/// (each processor's *first* write surviving).
#[must_use]
pub fn two_plus_two_w() -> Program {
    Program::new(vec![
        Thread::new().write(LOC_X, 1).write(LOC_Y, 2),
        Thread::new().write(LOC_Y, 1).write(LOC_X, 2),
    ])
    .expect("static corpus program is valid")
}

/// The S shape: `P0: W(x)=2; W(y)=1` and `P1: R(y); W(x)=1`. Sequential
/// consistency forbids `r0 == 1` with final `x == 2` (P1's write of `x`
/// would have to be ordered before P0's, but its read of `y` after P0's
/// write of `y`).
#[must_use]
pub fn s_shape() -> Program {
    Program::new(vec![
        Thread::new().write(LOC_X, 2).write(LOC_Y, 1),
        Thread::new().read(LOC_Y, Reg(0)).write(LOC_X, 1),
    ])
    .expect("static corpus program is valid")
}

/// Message passing with RP3-style fences on both sides: the producer
/// drains `W(x)` before publishing the flag; the consumer drains the flag
/// read before reading `x`. Restores the hand-off on the relaxed machines
/// without synchronization operations — and is still racy under DRF0
/// (fences create no happens-before).
#[must_use]
pub fn message_passing_fenced() -> Program {
    Program::new(vec![
        Thread::new().write(LOC_X, 42).fence().write(LOC_Y, 1),
        Thread::new()
            .read(LOC_Y, Reg(0))
            .fence()
            .read(LOC_X, Reg(1)),
    ])
    .expect("static corpus program is valid")
}

/// Peterson's two-thread mutual-exclusion algorithm with ordinary *data*
/// accesses for the flags and turn variable — correct under sequential
/// consistency, racy under DRF0, and **broken** by write buffers: both
/// threads can enter the critical section at once. Each thread records a
/// violation in its own slot (`Loc(20 + i)`) if it observes the other
/// thread inside the critical section.
///
/// Layout: `flag0 = m10`, `flag1 = m11`, `turn = m12`, `in_cs = m13`,
/// violation slots `m20`/`m21`.
#[must_use]
pub fn peterson_data() -> Program {
    peterson(false)
}

/// Peterson with every flag/turn/in-cs access a synchronization
/// operation: mutual exclusion survives every weakly ordered machine.
#[must_use]
pub fn peterson_sync() -> Program {
    peterson(true)
}

fn peterson(sync: bool) -> Program {
    let flags = [Loc(10), Loc(11)];
    let turn = Loc(12);
    let in_cs = [Loc(13), Loc(14)];
    let ts: Vec<Thread> = (0..2usize)
        .map(|i| {
            let me = i;
            let other = 1 - i;
            let mut t = Thread::new();
            // Entry protocol:
            //   flag[me] = 1; turn = other;
            //   while (flag[other] == 1 && turn == other) spin;
            // Critical section with overlap detection:
            //   in_cs[me] = 1; dwell (private reads, long enough for the
            //   other side's in_cs write to propagate even through a write
            //   buffer); if in_cs[other] == 1 record a violation;
            //   in_cs[me] = 0; flag[me] = 0.
            let rw = |t: Thread, loc, v: u64| {
                if sync { t.sync_write(loc, v) } else { t.write(loc, v) }
            };
            let rr = |t: Thread, loc, r| {
                if sync { t.sync_read(loc, r) } else { t.read(loc, r) }
            };
            t = rw(t, flags[me], 1); // 0
            t = rw(t, turn, other as u64); // 1
            let spin = t.here(); // 2
            t = rr(t, flags[other], Reg(0)); // 2
            t = t.branch_ne(Reg(0), 1u64, spin + 4); // 3
            t = rr(t, turn, Reg(1)); // 4
            t = t.branch_eq(Reg(1), other as u64, spin); // 5
            t = rw(t, in_cs[me], 1); // 6
            for d in 0..6u32 {
                t = t.read(Loc(30 + me as u32 * 8 + d), Reg(3)); // dwell
            }
            t = rr(t, in_cs[other], Reg(2));
            let after = t.here() + 2;
            t = t.branch_ne(Reg(2), 1u64, after);
            t = t.write(Loc(20 + me as u32), 1); // violation!
            t = rw(t, in_cs[me], 0);
            t = rw(t, flags[me], 0);
            t
        })
        .collect();
    Program::new(ts).expect("static corpus program is valid")
}

/// Unsynchronized counter increments: the textbook data race.
#[must_use]
pub fn racy_counter(threads: usize) -> Program {
    let ts: Vec<Thread> = (0..threads)
        .map(|_| {
            Thread::new()
                .read(LOC_X, Reg(0))
                .add(Reg(0), Reg(0), 1u64)
                .write(LOC_X, Reg(0))
        })
        .collect();
    Program::new(ts).expect("static corpus program is valid")
}

/// An asynchronous-algorithm kernel (Section 3's discussion of DeLeone &
/// Mangasarian): worker threads repeatedly read a shared iterate and write
/// back a relaxation step **without synchronization** — correct for the
/// algorithm, but deliberately racy, i.e. outside DRF0.
#[must_use]
pub fn async_relaxation(threads: usize, rounds: u64) -> Program {
    let ts: Vec<Thread> = (0..threads)
        .map(|i| {
            // 0: mov r3, 0
            // 1: R(x) -> r0
            // 2: r0 += (i+1)
            // 3: W(x) = r0
            // 4: r3 += 1
            // 5: if r3 != rounds goto 1
            Thread::new()
                .mov(Reg(3), 0)
                .read(LOC_X, Reg(0))
                .add(Reg(0), Reg(0), (i as u64) + 1)
                .write(LOC_X, Reg(0))
                .add(Reg(3), Reg(3), 1u64)
                .branch_ne(Reg(3), rounds, 1)
        })
        .collect();
    Program::new(ts).expect("static corpus program is valid")
}

/// Every DRF0 program in the corpus, paired with a name — the verification
/// suite the `weakord` crate runs against each hardware model.
#[must_use]
pub fn drf0_suite() -> Vec<(&'static str, Program)> {
    vec![
        ("message_passing_sync", message_passing_sync(2)),
        ("fig3_handoff_bounded", fig3_handoff_bounded(1, 2)),
        ("spinlock_2x1", spinlock_bounded(2, 1, 3)),
        ("barrier_2", barrier_bounded(2, 2)),
        ("iriw_sync", iriw_sync()),
        ("sync_only_tas", sync_only_tas()),
    ]
}

/// Every racy (non-DRF0) program in the corpus, paired with a name.
#[must_use]
pub fn racy_suite() -> Vec<(&'static str, Program)> {
    vec![
        ("fig1_dekker", fig1_dekker()),
        ("message_passing_data", message_passing_data()),
        ("iriw_data", iriw_data()),
        ("racy_counter_2", racy_counter(2)),
        ("async_relaxation_2x1", async_relaxation(2, 1)),
        ("load_buffering", load_buffering()),
        ("coherence_rr", coherence_rr()),
        ("two_plus_two_w", two_plus_two_w()),
        ("s_shape", s_shape()),
    ]
}

/// Two competing `TestAndSet`s — the smallest sync-only program.
#[must_use]
pub fn sync_only_tas() -> Program {
    Program::new(vec![
        Thread::new().test_and_set(LOC_S, Reg(0)),
        Thread::new().test_and_set(LOC_S, Reg(0)),
    ])
    .expect("static corpus program is valid")
}

/// [`spinlock`] with spins bounded to `spins` attempts per acquisition
/// (skipping the critical section on failure), so idealized exploration
/// terminates. Still DRF0.
#[must_use]
pub fn spinlock_bounded(threads: usize, increments: u64, spins: u64) -> Program {
    let lock = LOC_S;
    let counter = LOC_X;
    let ts: Vec<Thread> = (0..threads)
        .map(|_| {
            // 0: mov r3, 0          (increments done)
            // 1: mov r2, 0          (spin attempts)
            // 2: TAS(lock) -> r0
            // 3: if r0 == 0 goto 7  (acquired)
            // 4: r2 += 1
            // 5: if r2 != spins goto 2
            // 6: jump 13            (give up entirely)
            // 7: R(counter) -> r1
            // 8: r1 += 1
            // 9: W(counter) = r1
            // 10: Unset(lock)
            // 11: r3 += 1
            // 12: if r3 != increments goto 1
            Thread::new()
                .mov(Reg(3), 0)
                .mov(Reg(2), 0)
                .test_and_set(lock, Reg(0))
                .branch_eq(Reg(0), 0u64, 7)
                .add(Reg(2), Reg(2), 1u64)
                .branch_ne(Reg(2), spins, 2)
                .jump(13)
                .read(counter, Reg(1))
                .add(Reg(1), Reg(1), 1u64)
                .write(counter, Reg(1))
                .sync_write(lock, 0)
                .add(Reg(3), Reg(3), 1u64)
                .branch_ne(Reg(3), increments, 1)
        })
        .collect();
    Program::new(ts).expect("static corpus program is valid")
}

// The scaling families below number their locations densely from m0
// (each location is either data or sync, never both).

/// One writer publishes data behind a sync flag; `readers` threads each
/// sync-read the flag and touch the data only when they saw it set. Every
/// subset of readers can win the race to the flag, so the explorer walks
/// an interleaving space exponential in `readers`, while each relational
/// candidate fixes one flag observation per reader and the Lemma 1 fast
/// path emits its unique result directly. DRF0 and loop-free,
/// `readers + 1` threads wide, 2 thread-identity classes.
#[must_use]
pub fn mp_fan(readers: usize) -> Program {
    let mut threads = vec![Thread::new().write(Loc(0), 42).sync_write(Loc(1), 1)];
    for _ in 0..readers {
        threads.push(
            Thread::new()
                .sync_read(Loc(1), Reg(0))
                .branch_eq(Reg(0), 0u64, 3)
                .read(Loc(0), Reg(1)),
        );
    }
    Program::new(threads).expect("mp_fan is well-formed")
}

/// `k` writers each sync-publish a distinct location; `k` readers each
/// sync-read two of them (IRIW widened from 2+2 to k+k). DRF0 and
/// loop-free, `2k` threads wide, `2k` thread-identity classes.
#[must_use]
pub fn iriw_fan(k: usize) -> Program {
    let mut threads = Vec::with_capacity(2 * k);
    for j in 0..k {
        threads.push(Thread::new().sync_write(Loc(j as u32), 1));
    }
    for i in 0..k {
        threads.push(
            Thread::new()
                .sync_read(Loc(i as u32), Reg(0))
                .sync_read(Loc(((i + 1) % k) as u32), Reg(1)),
        );
    }
    Program::new(threads).expect("iriw_fan is well-formed")
}

/// A flag-gated pipeline: stage `i` waits (one shot) on stage `i-1`'s
/// flag, forwards the datum, and raises its own flag. DRF0 and loop-free,
/// `stages` threads wide.
#[must_use]
pub fn pipeline(stages: usize) -> Program {
    let data = |i: usize| Loc(2 * i as u32);
    let flag = |i: usize| Loc(2 * i as u32 + 1);
    let mut threads = vec![Thread::new().write(data(0), 7).sync_write(flag(0), 1)];
    for i in 1..stages {
        threads.push(
            Thread::new()
                .sync_read(flag(i - 1), Reg(0))
                .branch_eq(Reg(0), 0u64, 5)
                .read(data(i - 1), Reg(1))
                .write(data(i), Reg(1))
                .sync_write(flag(i), 1),
        );
    }
    Program::new(threads).expect("pipeline is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, program_is_drf0, ExploreConfig};

    fn cfg() -> ExploreConfig {
        ExploreConfig { max_ops_per_execution: 48, ..ExploreConfig::default() }
    }

    #[test]
    fn fig1_is_racy_but_never_shows_00_on_idealized_hardware() {
        let p = fig1_dekker();
        let report = explore(&p, &cfg());
        assert!(report.complete);
        assert!(!report.race_free(), "Figure 1's program has data races");
        for r in &report.results {
            let reads: Vec<u64> = r.reads.values().copied().collect();
            assert_ne!(reads, vec![0, 0], "SC forbids both processors reading 0");
        }
    }

    #[test]
    fn drf0_suite_programs_are_drf0() {
        for (name, p) in drf0_suite() {
            assert!(program_is_drf0(&p, &cfg()), "{name} should be DRF0");
        }
    }

    #[test]
    fn racy_suite_programs_are_racy() {
        for (name, p) in racy_suite() {
            let report = explore(&p, &cfg());
            assert!(!report.race_free(), "{name} should have a race");
        }
    }

    #[test]
    fn fig3_bounded_handoff_reads_1_when_lock_acquired() {
        let p = fig3_handoff_bounded(0, 3);
        let report = explore(&p, &cfg());
        assert!(report.complete);
        // In every execution where P1's TAS succeeded (read 0), R(x) == 1.
        for r in &report.results {
            let tas_read_zero = r.reads.values().any(|&v| v == 0);
            if tas_read_zero {
                // The data read exists and returned 1 — find reads of x=1.
                assert!(
                    r.reads.values().any(|&v| v == 1),
                    "successful hand-off must observe x == 1: {r:?}"
                );
            }
        }
    }

    #[test]
    fn spinlock_bounded_counts_correctly() {
        let p = spinlock_bounded(2, 1, 4);
        let report = explore(&p, &cfg());
        assert!(report.complete);
        assert!(report.race_free());
        // In executions where both threads acquired, the counter is 2.
        let max_counter = report
            .results
            .iter()
            .filter_map(|r| {
                r.final_memory
                    .iter()
                    .find(|(l, _)| *l == LOC_X)
                    .map(|&(_, v)| v)
            })
            .max();
        assert_eq!(max_counter, Some(2), "no lost updates under the lock");
    }

    #[test]
    fn barrier_orders_slot_reads() {
        let p = barrier_bounded(2, 2);
        let report = explore(&p, &cfg());
        assert!(report.complete, "barrier exploration exhausted budget");
        assert!(report.race_free());
    }

    #[test]
    fn suites_are_nonempty_and_distinctly_named() {
        let drf = drf0_suite();
        let racy = racy_suite();
        assert!(drf.len() >= 5);
        assert!(racy.len() >= 4);
        let mut names: Vec<&str> =
            drf.iter().chain(&racy).map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), drf.len() + racy.len());
    }

    #[test]
    fn classic_shapes_never_show_forbidden_outcomes_on_ideal_hardware() {
        // LB: (r0, r1) == (1, 1) forbidden.
        let report = explore(&load_buffering(), &cfg());
        assert!(report.complete);
        assert!(!report.outcomes.iter().any(|o| o.regs[0][0] == 1 && o.regs[1][0] == 1));
        // CoRR: r0 == 2 && r1 == 1 forbidden.
        let report = explore(&coherence_rr(), &cfg());
        assert!(!report.outcomes.iter().any(|o| o.regs[1][0] == 2 && o.regs[1][1] == 1));
        // 2+2W: final x == 1 && y == 1 forbidden.
        let report = explore(&two_plus_two_w(), &cfg());
        assert!(!report.outcomes.iter().any(|o| {
            o.final_memory.contains(&(LOC_X, 1)) && o.final_memory.contains(&(LOC_Y, 1))
        }));
        // S: r0 == 1 with final x == 2 forbidden.
        let report = explore(&s_shape(), &cfg());
        assert!(!report
            .outcomes
            .iter()
            .any(|o| o.regs[1][0] == 1 && o.final_memory.contains(&(LOC_X, 2))));
    }

    #[test]
    fn peterson_preserves_mutual_exclusion_on_the_idealized_architecture() {
        // Peterson is correct under SC: no completed idealized execution
        // sets a violation slot — for the data AND the sync variant.
        // Peterson is excluded from the shared racy_suite: its spin loops
        // make exhaustive exploration expensive, so it gets this targeted
        // bounded check instead.
        for p in [peterson_data(), peterson_sync()] {
            let report = explore(&p, &ExploreConfig {
                max_ops_per_execution: 40,
                max_executions: 25_000,
                max_total_steps: 500_000,
                ..cfg()
            });
            assert!(report.execution_count > 0);
            for o in &report.outcomes {
                assert!(
                    !o.final_memory.iter().any(|&(l, v)| (l == Loc(20) || l == Loc(21)) && v == 1),
                    "mutual exclusion violated under SC: {o:?}"
                );
            }
        }
    }

    #[test]
    fn fenced_variants_are_still_racy() {
        for p in [fig1_dekker_fenced(), message_passing_fenced()] {
            let report = explore(&p, &cfg());
            assert!(report.complete);
            assert!(!report.race_free(), "fences do not remove races");
        }
    }

    #[test]
    fn tts_spinlock_builds() {
        let p = tts_spinlock(3, 2);
        assert_eq!(p.num_threads(), 3);
        assert!(p.static_memory_ops() > 0);
    }

    #[test]
    fn unbounded_variants_build() {
        assert_eq!(fig3_handoff(2).num_threads(), 2);
        assert_eq!(spinlock(4, 8).num_threads(), 4);
        assert_eq!(async_relaxation(3, 5).num_threads(), 3);
    }
}
