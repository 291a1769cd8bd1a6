//! Interconnect timing models.
//!
//! [`Interconnect::route`] layers an optional seeded
//! [`FaultPlan`] over the timing model: messages may pick up extra
//! latency, control messages (recalls/downgrades) may be duplicated, and
//! messages may be dropped — detectably (the sender is NACKed and retries
//! with exponential backoff, all folded into the final delivery time) or
//! silently (the watchdog-fodder [`Route::Blackholed`]). Perturbed or
//! not, per-(src, dst) FIFO is preserved: extra latency and retry delays
//! are applied *before* the FIFO clamp.

use std::collections::HashMap;

use simx::fault::{FaultConfig, FaultDecision, FaultPlan, FaultStats};
use simx::rng::Xoshiro256;
use simx::SimTime;

use crate::config::InterconnectConfig;

/// A node on the interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Node {
    /// Processor (cache) `p`.
    Proc(u16),
    /// Memory module / directory shard `m`.
    Module(u32),
}

/// What a message is, for timing and fault-injection purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MsgClass {
    /// Ordinary request/response traffic.
    Normal,
    /// An invalidation acknowledgement — the network config may delay
    /// these extra to stretch the commit → globally-performed gap, and
    /// [`FaultConfig::ack_blackhole`] silently discards them.
    InvAck,
    /// An idempotent control message (recall/downgrade): the only class a
    /// fault plan may duplicate. Safe because the receiving cache ignores
    /// recalls and downgrades of lines it no longer owns, and per-pair
    /// FIFO lands the duplicate before any later grant.
    Control,
}

/// What the interconnect decided to do with one message under fault
/// injection (see [`Interconnect::route`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// The message arrives — possibly late, possibly after NACKed
    /// retries, possibly twice.
    Deliver {
        /// Arrival time of the (first) copy.
        at: SimTime,
        /// Arrival time of a duplicate copy, if the plan duplicated the
        /// message. Always later than `at` on the same (src, dst) pair.
        duplicate_at: Option<SimTime>,
        /// Detected drops survived before this delivery succeeded.
        retries: u32,
    },
    /// The message silently vanished; no one will ever know — except the
    /// watchdogs.
    Blackholed,
    /// Every retry was dropped; the sender's retry budget is exhausted.
    Exhausted {
        /// Send attempts made (1 original + retries).
        attempts: u32,
    },
}

/// Computes delivery times for messages, maintaining bus occupancy and
/// per-pair FIFO ordering.
#[derive(Debug, Clone)]
pub struct Interconnect {
    config: InterconnectConfig,
    rng: Xoshiro256,
    bus_free_at: SimTime,
    last_delivery: HashMap<(Node, Node), SimTime>,
    chaos: Option<FaultPlan>,
    /// Total messages carried, for stats.
    pub messages: u64,
}

impl Interconnect {
    /// Creates an interconnect with the given timing model and seed.
    #[must_use]
    pub fn new(config: InterconnectConfig, seed: u64) -> Self {
        Interconnect {
            config,
            rng: Xoshiro256::seed_from(seed),
            bus_free_at: SimTime::ZERO,
            last_delivery: HashMap::new(),
            chaos: None,
            messages: 0,
        }
    }

    /// Creates a fault-injected interconnect. The fault plan draws from
    /// its own stream (`fault_seed`), independent of the latency stream,
    /// so enabling chaos perturbs message fates without reshuffling the
    /// underlying latency draws.
    #[cfg(test)]
    #[must_use]
    pub fn with_chaos(
        config: InterconnectConfig,
        seed: u64,
        fault: FaultConfig,
        fault_seed: u64,
    ) -> Self {
        Interconnect { chaos: Some(FaultPlan::new(fault_seed, fault)), ..Self::new(config, seed) }
    }

    /// The fault plan's counters, if this interconnect injects faults.
    #[must_use]
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.chaos.as_ref().map(FaultPlan::stats)
    }

    /// Reseeds the interconnect for a fresh run, keeping the FIFO map's
    /// allocation. After a reset the interconnect behaves exactly like a
    /// newly constructed one: the latency RNG restarts from `seed`, the
    /// fault plan (if any) is rebuilt from `chaos`, and all occupancy and
    /// ordering state is cleared.
    pub fn reset(
        &mut self,
        config: InterconnectConfig,
        seed: u64,
        chaos: Option<(FaultConfig, u64)>,
    ) {
        self.config = config;
        self.rng = Xoshiro256::seed_from(seed);
        self.bus_free_at = SimTime::ZERO;
        self.last_delivery.clear();
        self.chaos = chaos.map(|(fault, fault_seed)| FaultPlan::new(fault_seed, fault));
        self.messages = 0;
    }

    /// The delivery time of a message sent now from `src` to `dst`,
    /// ignoring fault injection (used directly by fault-free callers and
    /// as the base schedule under [`Interconnect::route`]).
    ///
    /// Bus: messages serialize through the single shared bus in FIFO
    /// order. Network: an independent uniform latency per message, kept
    /// FIFO per (src, dst) pair.
    pub fn delivery_time(
        &mut self,
        now: SimTime,
        src: Node,
        dst: Node,
        class: MsgClass,
    ) -> SimTime {
        self.schedule(now, src, dst, class, 0)
    }

    /// Routes one message under the fault plan (a plain delivery when
    /// chaos is off). Extra latency and retry penalties are added before
    /// the per-pair FIFO clamp, and a duplicate is scheduled through the
    /// same clamp, so perturbed traffic still obeys the ordering the
    /// protocol assumes.
    pub fn route(&mut self, now: SimTime, src: Node, dst: Node, class: MsgClass) -> Route {
        let Some(mut plan) = self.chaos.take() else {
            return Route::Deliver {
                at: self.delivery_time(now, src, dst, class),
                duplicate_at: None,
                retries: 0,
            };
        };
        let nack_rtt = self.nack_rtt();
        let mut penalty = 0u64;
        let mut attempt = 0u32;
        let route = loop {
            match plan.decide(class == MsgClass::Control, class == MsgClass::InvAck) {
                FaultDecision::Blackhole => break Route::Blackholed,
                FaultDecision::Drop => {
                    if attempt >= plan.config().max_retries {
                        plan.note_exhausted();
                        break Route::Exhausted { attempts: attempt + 1 };
                    }
                    // The sender learns of the loss one NACK round-trip
                    // later, backs off, and resends.
                    penalty += nack_rtt + plan.backoff(attempt);
                    plan.note_retry();
                    attempt += 1;
                }
                FaultDecision::Deliver { extra_delay, duplicate } => {
                    let at = self.schedule(now, src, dst, class, penalty + extra_delay);
                    let duplicate_at = duplicate
                        .then(|| self.schedule(now, src, dst, class, penalty + extra_delay));
                    break Route::Deliver { at, duplicate_at, retries: attempt };
                }
            }
        };
        self.chaos = Some(plan);
        route
    }

    /// One NACK round trip, used to price detected drops: the time for
    /// the loss notice to reach the sender and the resend to start.
    fn nack_rtt(&self) -> u64 {
        match self.config {
            InterconnectConfig::Bus { latency } => 2 * latency,
            InterconnectConfig::Network { min_latency, .. } => 2 * min_latency,
        }
    }

    fn schedule(
        &mut self,
        now: SimTime,
        src: Node,
        dst: Node,
        class: MsgClass,
        chaos_extra: u64,
    ) -> SimTime {
        self.messages += 1;
        match self.config {
            InterconnectConfig::Bus { latency } => {
                let start = now.max(self.bus_free_at);
                let arrival = start + latency + chaos_extra;
                self.bus_free_at = arrival;
                arrival
            }
            InterconnectConfig::Network { min_latency, max_latency, ack_extra_delay } => {
                let base = if min_latency == max_latency {
                    min_latency
                } else {
                    self.rng.range_u64(min_latency, max_latency + 1)
                };
                let extra = match class {
                    MsgClass::InvAck => ack_extra_delay,
                    MsgClass::Normal | MsgClass::Control => 0,
                };
                let mut arrival = now + base + extra + chaos_extra;
                let key = (src, dst);
                if let Some(&last) = self.last_delivery.get(&key) {
                    arrival = arrival.max(last + 1);
                }
                self.last_delivery.insert(key, arrival);
                arrival
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bus_serializes_messages() {
        let mut ic = Interconnect::new(InterconnectConfig::Bus { latency: 10 }, 0);
        let t1 = ic.delivery_time(SimTime(0), Node::Proc(0), Node::Module(0), MsgClass::Normal);
        let t2 = ic.delivery_time(SimTime(0), Node::Proc(1), Node::Module(1), MsgClass::Normal);
        assert_eq!(t1, SimTime(10));
        assert_eq!(t2, SimTime(20), "second message waits for the bus");
        assert_eq!(ic.messages, 2);
    }

    #[test]
    fn bus_idles_between_bursts() {
        let mut ic = Interconnect::new(InterconnectConfig::Bus { latency: 5 }, 0);
        ic.delivery_time(SimTime(0), Node::Proc(0), Node::Module(0), MsgClass::Normal);
        let t = ic.delivery_time(SimTime(100), Node::Proc(0), Node::Module(0), MsgClass::Normal);
        assert_eq!(t, SimTime(105));
    }

    #[test]
    fn network_latency_stays_in_range() {
        let cfg = InterconnectConfig::Network {
            min_latency: 5,
            max_latency: 9,
            ack_extra_delay: 0,
        };
        let mut ic = Interconnect::new(cfg, 7);
        for i in 0..100u32 {
            // Distinct destinations so per-pair FIFO does not inflate.
            let t = ic.delivery_time(SimTime(0), Node::Proc(0), Node::Module(i), MsgClass::Normal);
            assert!((5..=9).contains(&t.cycles()), "latency {t} out of range");
        }
    }

    #[test]
    fn network_keeps_per_pair_fifo() {
        let cfg = InterconnectConfig::Network {
            min_latency: 1,
            max_latency: 50,
            ack_extra_delay: 0,
        };
        let mut ic = Interconnect::new(cfg, 3);
        let mut last = SimTime::ZERO;
        for _ in 0..100 {
            let t = ic.delivery_time(SimTime(0), Node::Proc(0), Node::Module(0), MsgClass::Normal);
            assert!(t > last, "same-pair messages must stay FIFO");
            last = t;
        }
    }

    #[test]
    fn network_can_reorder_across_modules() {
        // A later message to a near module may beat an earlier one to a far
        // module — the Figure 1 network reordering.
        let cfg = InterconnectConfig::Network {
            min_latency: 1,
            max_latency: 100,
            ack_extra_delay: 0,
        };
        let mut ic = Interconnect::new(cfg, 11);
        let mut reordered = false;
        for i in 0..50u32 {
            let a = ic.delivery_time(SimTime(0), Node::Proc(0), Node::Module(2 * i), MsgClass::Normal);
            let b = ic.delivery_time(SimTime(0), Node::Proc(0), Node::Module(2 * i + 1), MsgClass::Normal);
            if b < a {
                reordered = true;
            }
        }
        assert!(reordered, "cross-module reordering should occur");
    }

    #[test]
    fn ack_extra_delay_applies_to_acks_only() {
        let cfg = InterconnectConfig::Network {
            min_latency: 10,
            max_latency: 10,
            ack_extra_delay: 90,
        };
        let mut ic = Interconnect::new(cfg, 0);
        let normal =
            ic.delivery_time(SimTime(0), Node::Proc(0), Node::Module(0), MsgClass::Normal);
        let ack = ic.delivery_time(SimTime(0), Node::Proc(1), Node::Module(0), MsgClass::InvAck);
        assert_eq!(normal, SimTime(10));
        assert_eq!(ack, SimTime(100));
    }

    #[test]
    fn route_without_chaos_is_plain_delivery() {
        let mut ic = Interconnect::new(InterconnectConfig::Bus { latency: 10 }, 0);
        let r = ic.route(SimTime(0), Node::Proc(0), Node::Module(0), MsgClass::Normal);
        assert_eq!(r, Route::Deliver { at: SimTime(10), duplicate_at: None, retries: 0 });
        assert!(ic.fault_stats().is_none());
    }

    #[test]
    fn blackholes_swallow_messages() {
        use simx::fault::{Chance, FaultConfig};
        let fault = FaultConfig { blackhole_chance: Chance::always(), ..FaultConfig::off() };
        let mut ic = Interconnect::with_chaos(InterconnectConfig::bus(), 0, fault, 1);
        let r = ic.route(SimTime(0), Node::Proc(0), Node::Module(0), MsgClass::Normal);
        assert_eq!(r, Route::Blackholed);
        assert_eq!(ic.fault_stats().unwrap().blackholed, 1);
        assert_eq!(ic.messages, 0, "a blackholed message never occupies the wire");
    }

    #[test]
    fn detected_drops_retry_with_backoff_then_exhaust() {
        use simx::fault::{Chance, FaultConfig};
        let fault = FaultConfig {
            drop_chance: Chance::always(),
            max_retries: 3,
            backoff_base: 4,
            ..FaultConfig::off()
        };
        let mut ic = Interconnect::with_chaos(InterconnectConfig::Bus { latency: 5 }, 0, fault, 1);
        let r = ic.route(SimTime(0), Node::Proc(0), Node::Module(0), MsgClass::Normal);
        assert_eq!(r, Route::Exhausted { attempts: 4 });
        let stats = ic.fault_stats().unwrap();
        assert_eq!(stats.retries, 3);
        assert_eq!(stats.exhausted, 1);
    }

    #[test]
    fn retry_penalty_lands_in_the_delivery_time() {
        use simx::fault::{Chance, FaultConfig};
        // Half the messages drop; survivors must arrive strictly later
        // than the unperturbed latency whenever they retried.
        let fault = FaultConfig {
            drop_chance: Chance::of(1, 2),
            max_retries: 32,
            backoff_base: 4,
            ..FaultConfig::off()
        };
        let mut ic = Interconnect::with_chaos(InterconnectConfig::Bus { latency: 5 }, 0, fault, 3);
        let mut saw_retry = false;
        for i in 0..50u32 {
            if let Route::Deliver { at, retries, .. } =
                ic.route(SimTime(0), Node::Proc(0), Node::Module(i), MsgClass::Normal)
            {
                if retries > 0 {
                    saw_retry = true;
                    // First retry costs at least one NACK RTT (10) + backoff (4).
                    assert!(at.cycles() >= 5 + 14, "retried delivery too early: {at}");
                }
            }
        }
        assert!(saw_retry, "a 1/2 drop chance over 50 sends should retry at least once");
    }

    #[test]
    fn duplicates_follow_their_original_in_pair_order() {
        use simx::fault::{Chance, FaultConfig};
        let fault = FaultConfig { dup_chance: Chance::always(), ..FaultConfig::off() };
        let cfg = InterconnectConfig::Network {
            min_latency: 1,
            max_latency: 40,
            ack_extra_delay: 0,
        };
        let mut ic = Interconnect::with_chaos(cfg, 9, fault, 2);
        let mut last = SimTime::ZERO;
        for _ in 0..20 {
            match ic.route(SimTime(0), Node::Module(0), Node::Proc(0), MsgClass::Control) {
                Route::Deliver { at, duplicate_at: Some(dup), .. } => {
                    assert!(at > last, "originals stay FIFO");
                    assert!(dup > at, "duplicate arrives after its original");
                    last = dup;
                }
                other => panic!("expected duplicated delivery, got {other:?}"),
            }
        }
        // Normal-class traffic is never duplicated.
        let r = ic.route(SimTime(0), Node::Module(0), Node::Proc(1), MsgClass::Normal);
        assert!(matches!(r, Route::Deliver { duplicate_at: None, .. }), "got {r:?}");
    }

    #[test]
    fn same_seeds_same_routes() {
        use simx::fault::FaultConfig;
        let cfg = InterconnectConfig::network();
        let mut a = Interconnect::with_chaos(cfg, 5, FaultConfig::drop_heavy(), 7);
        let mut b = Interconnect::with_chaos(cfg, 5, FaultConfig::drop_heavy(), 7);
        for i in 0..100u32 {
            assert_eq!(
                a.route(SimTime(u64::from(i)), Node::Proc(0), Node::Module(i), MsgClass::Normal),
                b.route(SimTime(u64::from(i)), Node::Proc(0), Node::Module(i), MsgClass::Normal)
            );
        }
        assert_eq!(a.fault_stats(), b.fault_stats());
    }

    #[test]
    fn reset_replays_the_same_schedule_as_a_fresh_interconnect() {
        use simx::fault::FaultConfig;
        let cfg = InterconnectConfig::network();
        let mut reused = Interconnect::with_chaos(cfg, 5, FaultConfig::drop_heavy(), 7);
        for i in 0..50u32 {
            let _ = reused.route(SimTime(u64::from(i)), Node::Proc(0), Node::Module(i), MsgClass::Normal);
        }
        reused.reset(cfg, 5, Some((FaultConfig::drop_heavy(), 7)));
        let mut fresh = Interconnect::with_chaos(cfg, 5, FaultConfig::drop_heavy(), 7);
        for i in 0..50u32 {
            assert_eq!(
                reused.route(SimTime(u64::from(i)), Node::Proc(0), Node::Module(i), MsgClass::Normal),
                fresh.route(SimTime(u64::from(i)), Node::Proc(0), Node::Module(i), MsgClass::Normal)
            );
        }
        assert_eq!(reused.fault_stats(), fresh.fault_stats());
        assert_eq!(reused.messages, fresh.messages);
    }

    #[test]
    fn same_seed_same_schedule() {
        let cfg = InterconnectConfig::Network {
            min_latency: 1,
            max_latency: 100,
            ack_extra_delay: 0,
        };
        let mut a = Interconnect::new(cfg, 5);
        let mut b = Interconnect::new(cfg, 5);
        for i in 0..20u32 {
            assert_eq!(
                a.delivery_time(SimTime(i as u64), Node::Proc(0), Node::Module(i), MsgClass::Normal),
                b.delivery_time(SimTime(i as u64), Node::Proc(0), Node::Module(i), MsgClass::Normal)
            );
        }
    }
}
