//! Wide, loop-free race-free shapes shared by the integration tests: the
//! programs the router sends to the relational engine first.

use litmus::{Program, Reg, Thread};
use memory_model::Loc;

/// One writer publishes data behind a sync flag; `readers` threads each
/// read it only after seeing the flag set. Loop-free, `readers + 1`
/// threads wide, 2 thread-identity classes.
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

/// `k` writers each sync-publish a location; `k` readers each sync-read
/// two of them (IRIW widened to k+k). Loop-free, `2k` threads wide, `2k`
/// thread-identity classes.
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
