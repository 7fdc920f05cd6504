//! Deployable DDoS mitigations — the paper's primary use case: "researchers
//! can also utilize DDoSim to implement and evaluate defense strategies
//! against these attacks in the simulated environment, measuring their
//! effectiveness in mitigating or preventing exploits" (§I).
//!
//! Defenses deploy as rules in a node's `netsim` filter stack
//! ([`netsim::Simulator::push_node_filter`]). The volumetric ones are
//! built into netsim (per-source token buckets, egress blocks, the
//! honeypot blocklist); this module adds the one netsim cannot name:
//!
//! * [`ModelFilter`] — drops traffic from sources a trained
//!   [`LogisticRegression`] detector flags, re-scoring each source every
//!   window (an ML-in-the-loop defense). It is a
//!   [`netsim::CustomFilter`], so a world running it forks and
//!   checkpoints like any other.

use crate::classify::LogisticRegression;
use crate::features::{FeatureExtractor, FlowFeatures};
use netsim::{
    CustomFilter, FilterVerdict, NodeId, Packet, SimTime, StateHasher, TraceKind, TraceRecord,
};
use std::collections::BTreeSet;
use std::net::IpAddr;
use std::time::Duration;

/// An ML-in-the-loop filter rule: accumulates per-source flow features
/// over a window, scores each source with the trained detector at the
/// window boundary, and drops packets from flagged sources in the next
/// window. Deploy it as `netsim::FilterRule::Custom(Box::new(filter))`.
#[derive(Debug, Clone)]
pub struct ModelFilter {
    model: LogisticRegression,
    window: Duration,
    threshold: f64,
    extractor: FeatureExtractor,
    current_window: u64,
    blocked: BTreeSet<IpAddr>,
}

impl ModelFilter {
    /// A filter scoring every `window` with `model`, blocking sources whose
    /// attack probability is at least `threshold`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(model: LogisticRegression, window: Duration, threshold: f64) -> Self {
        ModelFilter {
            model,
            window,
            threshold,
            extractor: FeatureExtractor::new(window),
            current_window: 0,
            blocked: BTreeSet::new(),
        }
    }
}

impl CustomFilter for ModelFilter {
    fn verdict(&mut self, packet: &Packet, now: SimTime) -> FilterVerdict {
        let w = (now.as_secs_f64() / self.window.as_secs_f64()) as u64;
        if w > self.current_window {
            // Window rolled over: score what we saw and reset.
            let features =
                std::mem::replace(&mut self.extractor, FeatureExtractor::new(self.window))
                    .finish();
            self.blocked.clear();
            for f in features {
                if self.model.predict_probability(&f.vector()) >= self.threshold {
                    self.blocked.insert(f.src);
                }
            }
            self.current_window = w;
        }
        // Record this packet for the next scoring round (as a
        // delivered-at-this-node observation).
        self.extractor.push(&TraceRecord {
            time: now,
            kind: TraceKind::Delivered,
            node: NodeId::from_index(0),
            packet_id: packet.id,
            src: packet.src,
            dst: packet.dst,
            proto: packet.proto,
            wire_bytes: packet.wire_bytes(),
        });
        if self.blocked.contains(&packet.src.ip()) {
            FilterVerdict::Drop
        } else {
            FilterVerdict::Allow
        }
    }

    fn clone_box(&self) -> Box<dyn CustomFilter> {
        Box::new(self.clone())
    }

    /// The trained model never changes once deployed; the digest covers
    /// what does: the threshold, the open window, its observations and the
    /// blocked set.
    fn state_digest(&self, h: &mut StateHasher) {
        h.write_f64(self.threshold);
        h.write_u64(self.current_window);
        self.extractor.state_digest(h);
        h.write_usize(self.blocked.len());
        for src in &self.blocked {
            h.write_ip(*src);
        }
    }
}

/// Convenience: what fraction of observed flow windows a filter would
/// block, given labeled features (offline evaluation of a
/// [`ModelFilter`]'s policy).
pub fn blocked_fraction(model: &LogisticRegression, threshold: f64, flows: &[FlowFeatures]) -> f64 {
    if flows.is_empty() {
        return 0.0;
    }
    let blocked = flows
        .iter()
        .filter(|f| model.predict_probability(&f.vector()) >= threshold)
        .count();
    blocked as f64 / flows.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{synthetic_dataset, TrainConfig};
    use netsim::{Payload, TransportProto};
    use rand::SeedableRng;
    use std::net::SocketAddr;

    fn pkt(src_last: u8, bytes: u32) -> Packet {
        Packet::new(
            SocketAddr::new(IpAddr::V4(std::net::Ipv4Addr::new(10, 0, 0, src_last)), 1),
            SocketAddr::new(IpAddr::V4(std::net::Ipv4Addr::new(10, 0, 0, 9)), 80),
            TransportProto::Udp,
            Payload::empty(),
            28,
            bytes.saturating_sub(28),
        )
    }

    fn trained_filter() -> ModelFilter {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
        let model =
            LogisticRegression::train(&synthetic_dataset(200, &mut rng), TrainConfig::default());
        ModelFilter::new(model, Duration::from_secs(1), 0.5)
    }

    fn digest(f: &dyn CustomFilter) -> u64 {
        let mut h = StateHasher::new();
        f.state_digest(&mut h);
        h.finish()
    }

    #[test]
    fn model_filter_blocks_flagged_sources_after_a_window() {
        let mut f = trained_filter();
        // Window 0: a flood from source 1 (100 × 540B constant-size).
        for i in 0..100 {
            let t = SimTime::from_millis(i * 10);
            let _ = f.verdict(&pkt(1, 540), t);
        }
        // Window 1: the source should now be blocked.
        let verdict = f.verdict(&pkt(1, 540), SimTime::from_millis(1500));
        assert_eq!(verdict, FilterVerdict::Drop, "flood source blocked after scoring");
    }

    #[test]
    fn a_clone_continues_exactly_where_the_original_is() {
        // Mid-window state (observations, blocked set) is cloned, not
        // reset: the clone and the original agree on every later verdict
        // and digest, the property a forked world relies on.
        let mut a = trained_filter();
        for i in 0..150 {
            let _ = a.verdict(&pkt((i % 2) as u8 + 1, 540), SimTime::from_millis(i * 10));
        }
        let mut b = a.clone_box();
        assert_eq!(digest(&a), digest(b.as_ref()));
        for i in 150..400 {
            let p = pkt((i % 3) as u8 + 1, 540);
            let t = SimTime::from_millis(i * 10);
            assert_eq!(a.verdict(&p, t), b.verdict(&p, t), "packet {i}");
        }
        assert_eq!(digest(&a), digest(b.as_ref()));
    }

    #[test]
    fn digest_tracks_observations_and_scoring() {
        let mut f = trained_filter();
        let fresh = digest(&f);
        let _ = f.verdict(&pkt(1, 540), SimTime::ZERO);
        let observed = digest(&f);
        assert_ne!(fresh, observed, "an observation must change the digest");
        let _ = f.verdict(&pkt(1, 540), SimTime::from_millis(1500));
        assert_ne!(observed, digest(&f), "a window roll-over must change the digest");
    }
}
