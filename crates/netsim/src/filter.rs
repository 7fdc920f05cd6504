//! Structured, forkable filter rules — the simulator's one packet-filter
//! mechanism.
//!
//! Every deployed defense is a [`FilterRule`] in a node's [`FilterStack`]:
//! state the simulator owns, applies on every packet arrival (local and
//! transit), clones on fork, and digests per layer (`netsim.filters`).
//!
//! Four rule kinds:
//!
//! * [`FilterRule::RateLimit`] — per-source token buckets (the classic
//!   volumetric mitigation; [`DEFAULT_RATE_LIMIT_BPS`] and
//!   [`DEFAULT_RATE_LIMIT_BURST_BYTES`] are the deployed defaults).
//! * [`FilterRule::EgressBlock`] — ISP-style egress filtering: a router
//!   drops traffic toward a victim address (optionally one port).
//! * [`FilterRule::Blocklist`] — drops packets whose *source* is on the
//!   simulator-global blocklist, which honeypot nodes feed at runtime.
//! * [`FilterRule::Custom`] — a rule netsim cannot name (e.g.
//!   `analysis::ModelFilter`, an ML detector in the loop) behind the
//!   [`CustomFilter`] trait, which makes it clone itself and fold its
//!   state into the digest like the built-in kinds.

use crate::digest::StateHasher;
use crate::packet::Packet;
use crate::time::SimTime;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::net::IpAddr;

/// Decision of a filter rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterVerdict {
    /// Let the packet through.
    Allow,
    /// Drop the packet (counted as [`crate::DropReason::Filtered`]).
    Drop,
}

/// Default sustained per-source allowance of a deployed
/// [`FilterRule::RateLimit`]: 64 kbps.
pub const DEFAULT_RATE_LIMIT_BPS: u64 = 64_000;

/// Default per-source burst allowance of a deployed
/// [`FilterRule::RateLimit`]: 16 KiB.
pub const DEFAULT_RATE_LIMIT_BURST_BYTES: u64 = 16 * 1024;

/// A filter rule defined outside netsim. Implementors carry their own
/// state; [`CustomFilter::clone_box`] deep-clones it into a forked world
/// and [`CustomFilter::state_digest`] pins it into the `netsim.filters`
/// checkpoint layer, so a world running one forks and checkpoints like
/// any other.
pub trait CustomFilter: fmt::Debug {
    /// Decides one packet arriving at the node at `now`.
    fn verdict(&mut self, packet: &Packet, now: SimTime) -> FilterVerdict;

    /// Deep-clones the rule, state included.
    fn clone_box(&self) -> Box<dyn CustomFilter>;

    /// Folds every piece of state that can change a future verdict into
    /// the digest.
    fn state_digest(&self, h: &mut StateHasher);
}

impl Clone for Box<dyn CustomFilter> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Token-bucket state for one source address inside a
/// [`FilterRule::RateLimit`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TokenBucket {
    /// Bytes currently available.
    pub tokens: f64,
    /// Instant of the last refill.
    pub last: SimTime,
}

/// One structured filter rule. `Clone` gives fork support and the digest
/// below pins it into the `netsim.filters` checkpoint layer.
#[derive(Debug, Clone)]
pub enum FilterRule {
    /// Per-source token-bucket rate limiting. A packet spends
    /// `wire_bytes()` tokens from its source's bucket; buckets refill at
    /// `rate_bps / 8` bytes per second up to `burst_bytes`.
    RateLimit {
        /// Sustained rate in bits per second. Zero admits nothing beyond
        /// the initial burst.
        rate_bps: u64,
        /// Bucket capacity in bytes (also the initial fill).
        burst_bytes: u64,
        /// Live per-source buckets (keyed and digested in address order).
        buckets: BTreeMap<IpAddr, TokenBucket>,
    },
    /// Drop every packet destined to `dst` (optionally only one `port`).
    /// Deployed on router nodes this is ISP egress filtering: attack
    /// traffic dies at the provider edge instead of the victim's link.
    EgressBlock {
        /// Victim address the filter protects.
        dst: IpAddr,
        /// Restrict the block to one destination port (`None` = all).
        port: Option<u16>,
    },
    /// Drop packets whose *source* address is on the simulator-global
    /// blocklist (see [`crate::Simulator::blocklist_insert`]); honeypots
    /// feed that list as scanners touch them.
    Blocklist,
    /// A rule defined outside netsim (digest tag 4, then its own state).
    Custom(Box<dyn CustomFilter>),
}

impl FilterRule {
    /// A [`FilterRule::RateLimit`] with every bucket still to be filled.
    pub fn rate_limit(rate_bps: u64, burst_bytes: u64) -> FilterRule {
        FilterRule::RateLimit { rate_bps, burst_bytes, buckets: BTreeMap::new() }
    }

    fn verdict(
        &mut self,
        packet: &Packet,
        now: SimTime,
        blocklist: &BTreeSet<IpAddr>,
    ) -> FilterVerdict {
        match self {
            FilterRule::RateLimit { rate_bps, burst_bytes, buckets } => {
                let burst = *burst_bytes as f64;
                let bucket = buckets
                    .entry(packet.src.ip())
                    .or_insert(TokenBucket { tokens: burst, last: now });
                let elapsed = now.saturating_since(bucket.last).as_secs_f64();
                let rate_bytes = *rate_bps as f64 / 8.0;
                bucket.tokens = (bucket.tokens + elapsed * rate_bytes).min(burst);
                bucket.last = now;
                let cost = f64::from(packet.wire_bytes());
                if bucket.tokens >= cost {
                    bucket.tokens -= cost;
                    FilterVerdict::Allow
                } else {
                    FilterVerdict::Drop
                }
            }
            FilterRule::EgressBlock { dst, port } => {
                let hit = packet.dst.ip() == *dst
                    && port.map_or(true, |p| packet.dst.port() == p);
                if hit {
                    FilterVerdict::Drop
                } else {
                    FilterVerdict::Allow
                }
            }
            FilterRule::Blocklist => {
                if blocklist.contains(&packet.src.ip()) {
                    FilterVerdict::Drop
                } else {
                    FilterVerdict::Allow
                }
            }
            FilterRule::Custom(rule) => rule.verdict(packet, now),
        }
    }

    fn state_digest(&self, h: &mut StateHasher) {
        match self {
            FilterRule::RateLimit { rate_bps, burst_bytes, buckets } => {
                h.write_bytes(&[1]);
                h.write_u64(*rate_bps);
                h.write_u64(*burst_bytes);
                h.write_usize(buckets.len());
                for (src, bucket) in buckets {
                    h.write_ip(*src);
                    h.write_f64(bucket.tokens);
                    h.write_u64(bucket.last.as_nanos());
                }
            }
            FilterRule::EgressBlock { dst, port } => {
                h.write_bytes(&[2]);
                h.write_ip(*dst);
                match port {
                    None => h.write_bool(false),
                    Some(p) => {
                        h.write_bool(true);
                        h.write_u64(u64::from(*p));
                    }
                }
            }
            FilterRule::Blocklist => h.write_bytes(&[3]),
            FilterRule::Custom(rule) => {
                h.write_bytes(&[4]);
                rule.state_digest(h);
            }
        }
    }
}

/// The ordered rule stack deployed on one node. Rules are consulted in
/// push order; the first [`FilterVerdict::Drop`] wins.
#[derive(Debug, Clone, Default)]
pub struct FilterStack {
    rules: Vec<FilterRule>,
}

impl FilterStack {
    /// Appends a rule to the stack.
    pub fn push(&mut self, rule: FilterRule) {
        self.rules.push(rule);
    }

    /// Number of rules deployed.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the stack holds no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Runs the packet through every rule in push order.
    pub fn verdict(
        &mut self,
        packet: &Packet,
        now: SimTime,
        blocklist: &BTreeSet<IpAddr>,
    ) -> FilterVerdict {
        for rule in &mut self.rules {
            if rule.verdict(packet, now, blocklist) == FilterVerdict::Drop {
                return FilterVerdict::Drop;
            }
        }
        FilterVerdict::Allow
    }

    /// Folds the stack into a checkpoint digest.
    pub fn state_digest(&self, h: &mut StateHasher) {
        h.write_usize(self.rules.len());
        for rule in &self.rules {
            rule.state_digest(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Payload, TransportProto};
    use std::net::SocketAddr;

    fn pkt(src: &str, dst: &str, payload_bytes: u32) -> Packet {
        Packet::new(
            src.parse::<SocketAddr>().unwrap(),
            dst.parse::<SocketAddr>().unwrap(),
            TransportProto::Udp,
            Payload::empty(),
            28,
            payload_bytes,
        )
    }

    fn no_blocklist() -> BTreeSet<IpAddr> {
        BTreeSet::new()
    }

    fn digest(stack: &FilterStack) -> u64 {
        let mut h = StateHasher::new();
        stack.state_digest(&mut h);
        h.finish()
    }

    #[test]
    fn rate_limit_allows_burst_then_drops() {
        let mut stack = FilterStack::default();
        stack.push(FilterRule::rate_limit(8_000, 1_000)); // 1000 bytes/s
        let bl = no_blocklist();
        let t0 = SimTime::ZERO;
        // 1000-byte burst admits two 500-byte packets, then drops.
        let p = pkt("10.0.0.1:5000", "10.0.9.9:80", 472); // 472 + 28 header = 500 wire
        assert_eq!(stack.verdict(&p, t0, &bl), FilterVerdict::Allow);
        assert_eq!(stack.verdict(&p, t0, &bl), FilterVerdict::Allow);
        assert_eq!(stack.verdict(&p, t0, &bl), FilterVerdict::Drop);
        // After a second, 1000 bytes refilled: two more packets fit.
        let t1 = SimTime::from_secs(1);
        assert_eq!(stack.verdict(&p, t1, &bl), FilterVerdict::Allow);
        assert_eq!(stack.verdict(&p, t1, &bl), FilterVerdict::Allow);
        assert_eq!(stack.verdict(&p, t1, &bl), FilterVerdict::Drop);
    }

    #[test]
    fn rate_limit_buckets_are_per_source() {
        // Zero rate: the bucket never refills, so only the burst passes.
        let mut stack = FilterStack::default();
        stack.push(FilterRule::rate_limit(0, 1_000));
        let bl = no_blocklist();
        let t0 = SimTime::ZERO;
        let a600 = pkt("10.0.0.1:5000", "10.0.9.9:80", 572); // 600 wire
        let a400 = pkt("10.0.0.1:5000", "10.0.9.9:80", 372); // 400 wire
        let a29 = pkt("10.0.0.1:5000", "10.0.9.9:80", 1); // 29 wire
        let b = pkt("10.0.0.2:5000", "10.0.9.9:80", 972); // 1000 wire
        assert_eq!(stack.verdict(&a600, t0, &bl), FilterVerdict::Allow, "600 spent, 400 left");
        assert_eq!(stack.verdict(&a600, t0, &bl), FilterVerdict::Drop, "600 > 400 left");
        // The drop spent nothing: the exact remainder still fits.
        assert_eq!(stack.verdict(&a400, t0, &bl), FilterVerdict::Allow, "exact remainder fits");
        assert_eq!(stack.verdict(&a29, t0, &bl), FilterVerdict::Drop, "budget now empty");
        // An hour later nothing has refilled.
        assert_eq!(stack.verdict(&a29, SimTime::from_secs(3600), &bl), FilterVerdict::Drop);
        // A different source still has its full burst.
        assert_eq!(stack.verdict(&b, t0, &bl), FilterVerdict::Allow);
    }

    #[test]
    fn egress_block_matches_dst_and_port() {
        let mut stack = FilterStack::default();
        stack.push(FilterRule::EgressBlock { dst: "10.0.9.9".parse().unwrap(), port: Some(80) });
        let bl = no_blocklist();
        let hit = pkt("10.0.0.1:5000", "10.0.9.9:80", 100);
        let other_port = pkt("10.0.0.1:5000", "10.0.9.9:53", 100);
        let other_dst = pkt("10.0.0.1:5000", "10.0.9.8:80", 100);
        assert_eq!(stack.verdict(&hit, SimTime::ZERO, &bl), FilterVerdict::Drop);
        assert_eq!(stack.verdict(&other_port, SimTime::ZERO, &bl), FilterVerdict::Allow);
        assert_eq!(stack.verdict(&other_dst, SimTime::ZERO, &bl), FilterVerdict::Allow);
    }

    #[test]
    fn blocklist_rule_consults_shared_set() {
        let mut stack = FilterStack::default();
        stack.push(FilterRule::Blocklist);
        let mut bl = no_blocklist();
        let p = pkt("10.0.0.1:5000", "10.0.9.9:80", 100);
        assert_eq!(stack.verdict(&p, SimTime::ZERO, &bl), FilterVerdict::Allow);
        bl.insert("10.0.0.1".parse().unwrap());
        assert_eq!(stack.verdict(&p, SimTime::ZERO, &bl), FilterVerdict::Drop);
    }

    #[test]
    fn digest_tracks_bucket_state() {
        let mut stack = FilterStack::default();
        stack.push(FilterRule::rate_limit(8_000, 1_000));
        let before = digest(&stack);
        let bl = no_blocklist();
        let p = pkt("10.0.0.1:5000", "10.0.9.9:80", 100);
        stack.verdict(&p, SimTime::ZERO, &bl);
        let after = digest(&stack);
        assert_ne!(before, after, "spending tokens must change the digest");

        // Identical schedules give identical verdicts and digests: 3 kB/s
        // per source against ~4.9 kB/s offered, so both outcomes occur.
        let run = || {
            let mut stack = FilterStack::default();
            stack.push(FilterRule::rate_limit(24_000, 2_000));
            let verdicts: Vec<FilterVerdict> = (0..200u64)
                .map(|i| {
                    let src = format!("10.0.0.{}:5000", i % 3 + 1);
                    let p = pkt(&src, "10.0.9.9:80", 512);
                    stack.verdict(&p, SimTime::from_millis(i * 37), &bl)
                })
                .collect();
            (verdicts, digest(&stack))
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "same schedule, same verdicts and digest");
        assert!(a.0.contains(&FilterVerdict::Drop) && a.0.contains(&FilterVerdict::Allow));
    }

    /// Drops every other packet; its one bit of state is its digest.
    #[derive(Debug, Clone, Default)]
    struct DropAlternate {
        flip: bool,
    }

    impl CustomFilter for DropAlternate {
        fn verdict(&mut self, _packet: &Packet, _now: SimTime) -> FilterVerdict {
            self.flip = !self.flip;
            if self.flip {
                FilterVerdict::Drop
            } else {
                FilterVerdict::Allow
            }
        }
        fn clone_box(&self) -> Box<dyn CustomFilter> {
            Box::new(self.clone())
        }
        fn state_digest(&self, h: &mut StateHasher) {
            h.write_bool(self.flip);
        }
    }

    #[test]
    fn custom_rules_clone_and_digest_their_state() {
        let mut stack = FilterStack::default();
        stack.push(FilterRule::Custom(Box::new(DropAlternate::default())));
        let bl = no_blocklist();
        let p = pkt("10.0.0.1:5000", "10.0.9.9:80", 100);
        let fresh = digest(&stack);
        assert_eq!(stack.verdict(&p, SimTime::ZERO, &bl), FilterVerdict::Drop);
        assert_ne!(digest(&stack), fresh, "custom state folds into the digest");
        // A clone carries the state and then evolves on its own.
        let mut fork = stack.clone();
        assert_eq!(digest(&fork), digest(&stack));
        assert_eq!(fork.verdict(&p, SimTime::ZERO, &bl), FilterVerdict::Allow);
        assert_ne!(digest(&fork), digest(&stack), "the clone does not share state");
        assert_eq!(stack.verdict(&p, SimTime::ZERO, &bl), FilterVerdict::Allow);
    }
}
