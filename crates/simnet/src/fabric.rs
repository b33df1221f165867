//! Latency and hop models ("fabrics").
//!
//! The engine asks a [`Fabric`] for the [`LinkCost`] — latency *and* hop
//! count in one call — of every message it transports. Three implementations
//! are provided:
//!
//! * [`GridFabric`] — the paper's environment generalized to any
//!   [`Network`]: brokers exchange point-to-point messages along the
//!   shortest path in the physical graph (10 ms per wired hop by default),
//!   clients attach over 20 ms wireless links (one hop);
//! * [`UniformFabric`] — every message takes a fixed latency and one hop;
//!   used in unit tests where topology is irrelevant;
//! * [`JitteredFabric`] — wraps any fabric with a seeded per-message jitter,
//!   an optional per-direction asymmetry and timed link-degradation windows,
//!   for runs beyond the paper's constant-latency assumption.
//!
//! `link(from, to, at, seq)` is the engine's hot path: one virtual call per
//! message (the old `latency` + `hops` pair cost two — `micro_engine`
//! benches the difference). `at` and `seq` let stateless fabrics sample
//! per-message variation deterministically; constant fabrics ignore them,
//! which is what keeps zero-jitter runs byte-identical to the pre-refactor
//! engine.

use std::sync::Arc;

use crate::ids::NodeId;
use crate::time::{SimDuration, SimTime};
use crate::topology::Network;

/// The cost of carrying one message over one (from, to) pair: the unified
/// answer of the fabric fast path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkCost {
    /// Transport latency of this message.
    pub latency: SimDuration,
    /// Number of network hops traversed (for traffic accounting).
    pub hops: u32,
}

impl LinkCost {
    /// The free self-link (same node, zero latency, zero hops).
    pub const FREE: LinkCost = LinkCost {
        latency: SimDuration::ZERO,
        hops: 0,
    };
}

/// Computes per-message link costs.
pub trait Fabric: Send + Sync {
    /// Cost of one message from `from` to `to`, sent at `at` with the
    /// engine's send sequence number `seq`. Deterministic fabrics ignore
    /// `at`/`seq`; variable fabrics key their per-message sampling off them
    /// so runs stay replayable.
    fn link(&self, from: NodeId, to: NodeId, at: SimTime, seq: u64) -> LinkCost;

    /// Latency from `from` to `to` (convenience accessor over [`link`];
    /// for variable fabrics this is the cost of a hypothetical message at
    /// time zero).
    ///
    /// [`link`]: Fabric::link
    fn latency(&self, from: NodeId, to: NodeId) -> SimDuration {
        self.link(from, to, SimTime::ZERO, 0).latency
    }

    /// Hop count from `from` to `to` (convenience accessor over [`link`]).
    ///
    /// [`link`]: Fabric::link
    fn hops(&self, from: NodeId, to: NodeId) -> u32 {
        self.link(from, to, SimTime::ZERO, 0).hops
    }
}

/// Fixed-latency fabric for unit tests: every message takes `latency` and
/// one hop.
#[derive(Debug, Clone)]
pub struct UniformFabric {
    /// Latency applied to every message.
    pub latency: SimDuration,
}

impl UniformFabric {
    /// Create a uniform fabric with the given per-message latency.
    pub fn new(latency: SimDuration) -> Self {
        UniformFabric { latency }
    }
}

impl Fabric for UniformFabric {
    fn link(&self, _from: NodeId, _to: NodeId, _at: SimTime, _seq: u64) -> LinkCost {
        LinkCost {
            latency: self.latency,
            hops: 1,
        }
    }
}

/// The paper's network model, over any [`Network`] shape.
///
/// Node ids `0..broker_count` are brokers placed on the topology; every id
/// at or above `broker_count` is a (possibly mobile) client reached over a
/// wireless link. Broker-to-broker messages travel the shortest path in the
/// wired graph: latency = graph distance × `wired_latency`, hops = graph
/// distance. Client links cost `wireless_latency` and one hop.
#[derive(Clone)]
pub struct GridFabric {
    network: Arc<Network>,
    broker_count: usize,
    wired_latency: SimDuration,
    wireless_latency: SimDuration,
}

impl GridFabric {
    /// Build a fabric with the paper's default latencies
    /// (10 ms wired, 20 ms wireless).
    pub fn paper_defaults(network: Arc<Network>) -> Self {
        Self::new(
            network,
            SimDuration::from_millis(10),
            SimDuration::from_millis(20),
        )
    }

    /// Build a fabric with explicit latencies.
    pub fn new(network: Arc<Network>, wired: SimDuration, wireless: SimDuration) -> Self {
        let broker_count = network.broker_count();
        GridFabric {
            network,
            broker_count,
            wired_latency: wired,
            wireless_latency: wireless,
        }
    }

    fn is_broker(&self, id: NodeId) -> bool {
        id.index() < self.broker_count
    }

    /// The wired per-hop latency.
    pub fn wired_latency(&self) -> SimDuration {
        self.wired_latency
    }

    /// The wireless link latency.
    pub fn wireless_latency(&self) -> SimDuration {
        self.wireless_latency
    }

    /// The underlying broker network.
    pub fn network(&self) -> &Network {
        &self.network
    }
}

impl Fabric for GridFabric {
    fn link(&self, from: NodeId, to: NodeId, _at: SimTime, _seq: u64) -> LinkCost {
        if from == to {
            return LinkCost::FREE;
        }
        if self.is_broker(from) && self.is_broker(to) {
            let d = self.network.grid_distance(from.index(), to.index());
            LinkCost {
                latency: self.wired_latency.times(d as u64),
                hops: d,
            }
        } else {
            // client <-> broker (or, degenerately, client <-> client which the
            // pub/sub layer never does): one wireless link.
            LinkCost {
                latency: self.wireless_latency,
                hops: 1,
            }
        }
    }
}

impl std::fmt::Debug for GridFabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GridFabric")
            .field("brokers", &self.broker_count)
            .field("wired_latency", &self.wired_latency)
            .field("wireless_latency", &self.wireless_latency)
            .finish()
    }
}

/// One timed degradation: while `start <= now < end`, every link's latency
/// is multiplied by `factor` (congestion, weather, partial outage).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradedWindow {
    /// Window start (inclusive).
    pub start: SimTime,
    /// Window end (exclusive).
    pub end: SimTime,
    /// Latency multiplier applied during the window (≥ 1 slows links down).
    pub factor: f64,
}

/// Description of how link latencies vary around their base cost; the
/// parameter block of [`JitteredFabric`].
#[derive(Debug, Clone, PartialEq)]
pub struct LinkModel {
    /// Seed of the per-message and per-direction sampling; every run is a
    /// pure function of it.
    pub seed: u64,
    /// Maximum per-message extra latency, sampled uniformly from
    /// `[0, jitter]` per `(from, to, seq)` — zero disables jitter.
    pub jitter: SimDuration,
    /// Per-direction asymmetry: each ordered pair gets a stable latency
    /// scale drawn uniformly from `[1, 1 + asymmetry]`, so `a→b` and `b→a`
    /// differ — zero keeps links symmetric.
    pub asymmetry: f64,
    /// Timed degradation windows, applied multiplicatively.
    pub degraded: Vec<DegradedWindow>,
}

impl LinkModel {
    /// The constant model: no jitter, no asymmetry, no degradation.
    pub fn constant(seed: u64) -> Self {
        LinkModel {
            seed,
            jitter: SimDuration::ZERO,
            asymmetry: 0.0,
            degraded: Vec::new(),
        }
    }

    /// True when the model never changes a base cost (wrapping a fabric
    /// with a constant model is a no-op).
    pub fn is_constant(&self) -> bool {
        self.jitter == SimDuration::ZERO && self.asymmetry <= 0.0 && self.degraded.is_empty()
    }

    /// A hard upper bound on what this model can turn `base` into — what a
    /// safety interval derived from the constant-latency maximum (the
    /// sub-unsub wait) must be stretched to under this model. Degradation
    /// windows compose **multiplicatively** when they overlap (that is how
    /// [`JitteredFabric::link`] applies them), so the bound folds their
    /// factors as a product, not a max — conservative for disjoint
    /// windows, exact for fully overlapping ones.
    pub fn worst_case(&self, base: SimDuration) -> SimDuration {
        let factor = (1.0 + self.asymmetry.max(0.0))
            * self
                .degraded
                .iter()
                .map(|w| w.factor.max(1.0))
                .product::<f64>();
        // [`JitteredFabric::link`] rounds to whole microseconds after the
        // asymmetry multiply and after every window multiply; one ceil over
        // the composite product can fall below that pipeline by up to half a
        // microsecond per stage, so budget a microsecond of slack each.
        let rounding_slack = SimDuration::from_micros(1 + self.degraded.len() as u64);
        SimDuration::from_micros((base.as_micros() as f64 * factor).ceil() as u64)
            + self.jitter
            + rounding_slack
    }

    /// [`worst_case`](Self::worst_case) for a **path of `hops` links**: a
    /// message forwarded hop-by-hop (overlay event routing) samples an
    /// independent jitter on *every* link, so the bound must budget one
    /// jitter allowance per hop — adding it once under-sizes any safety
    /// interval derived from it.
    pub fn worst_case_path(&self, base: SimDuration, hops: u64) -> SimDuration {
        let extra_hops = hops.saturating_sub(1);
        // One jitter allowance and one set of rounding slack per extra hop
        // (each link rounds its own stages).
        self.worst_case(base)
            + self.jitter.times(extra_hops)
            + SimDuration::from_micros(extra_hops * (1 + self.degraded.len() as u64))
    }

    /// Mix the model seed with a per-message key into one well-mixed word —
    /// the seed of every per-message / per-direction sample. One splitmix
    /// finalization ([`mix64`](crate::random)) instead of a full `DetRng`
    /// construction: this runs once or twice per delivered message on the
    /// engine's hot path.
    fn sample_key(&self, from: NodeId, to: NodeId, salt: u64) -> u64 {
        crate::random::mix64(
            self.seed
                ^ crate::ids::pack_pair(from, to).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ salt.wrapping_mul(0xA24B_AED4_963E_E407),
        )
    }
}

/// Map a mixed word to a uniform double in `[0, 1)` (same 53-bit mapping as
/// [`DetRng::next_f64`](crate::random::DetRng::next_f64)).
fn unit_f64(word: u64) -> f64 {
    (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Map a mixed word to a uniform integer in `[0, bound)` (widening
/// multiply-shift, like [`DetRng::next_below`](crate::random::DetRng::next_below)).
fn below(word: u64, bound: u64) -> u64 {
    ((word as u128 * bound as u128) >> 64) as u64
}

/// Wraps any fabric with the variable-latency [`LinkModel`]: seeded
/// per-message jitter, optional per-direction asymmetry and timed
/// degradation windows. Hop counts are untouched — jitter models transport
/// delay, not routing. Purely stateless: every sample is a function of
/// `(model seed, from, to, seq, at)`, so runs replay exactly and the
/// engine's per-link channel clocks (see `engine`) keep delivery FIFO per
/// link even when a later message samples a smaller latency.
#[derive(Debug, Clone)]
pub struct JitteredFabric<F> {
    inner: F,
    model: LinkModel,
}

impl<F: Fabric> JitteredFabric<F> {
    /// Wrap `inner` with `model`.
    pub fn new(inner: F, model: LinkModel) -> Self {
        JitteredFabric { inner, model }
    }

    /// The wrapped fabric.
    pub fn inner(&self) -> &F {
        &self.inner
    }

    /// The link model in effect.
    pub fn model(&self) -> &LinkModel {
        &self.model
    }
}

impl<F: Fabric> Fabric for JitteredFabric<F> {
    fn link(&self, from: NodeId, to: NodeId, at: SimTime, seq: u64) -> LinkCost {
        let base = self.inner.link(from, to, at, seq);
        if from == to || self.model.is_constant() {
            return base;
        }
        let mut latency_us = base.latency.as_micros();
        if self.model.asymmetry > 0.0 {
            // Stable per ordered pair: both directions draw their own scale
            // (seq-independent salt, so the factor never varies per message).
            let f = 1.0 + unit_f64(self.model.sample_key(from, to, 0x4153)) * self.model.asymmetry;
            latency_us = (latency_us as f64 * f).round() as u64;
        }
        for w in &self.model.degraded {
            if at >= w.start && at < w.end {
                latency_us = (latency_us as f64 * w.factor.max(0.0)).round() as u64;
            }
        }
        let jitter_us = self.model.jitter.as_micros();
        if jitter_us > 0 {
            latency_us += below(self.model.sample_key(from, to, seq), jitter_us + 1);
        }
        LinkCost {
            latency: SimDuration::from_micros(latency_us.max(1)),
            hops: base.hops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric(k: usize) -> GridFabric {
        GridFabric::paper_defaults(Arc::new(Network::grid(k, 42)))
    }

    #[test]
    fn uniform_fabric_is_constant() {
        let f = UniformFabric::new(SimDuration::from_millis(5));
        assert_eq!(f.latency(NodeId(0), NodeId(9)), SimDuration::from_millis(5));
        assert_eq!(f.hops(NodeId(0), NodeId(9)), 1);
        assert_eq!(
            f.link(NodeId(0), NodeId(9), SimTime::ZERO, 7),
            LinkCost {
                latency: SimDuration::from_millis(5),
                hops: 1
            }
        );
    }

    #[test]
    fn broker_to_broker_uses_grid_distance() {
        let f = fabric(5);
        // Brokers 0 and 24 are opposite corners of a 5×5 grid: distance 8.
        assert_eq!(f.hops(NodeId(0), NodeId(24)), 8);
        assert_eq!(
            f.latency(NodeId(0), NodeId(24)),
            SimDuration::from_millis(80)
        );
        // Adjacent brokers: one hop, 10 ms.
        assert_eq!(f.hops(NodeId(0), NodeId(1)), 1);
        assert_eq!(
            f.latency(NodeId(0), NodeId(1)),
            SimDuration::from_millis(10)
        );
    }

    #[test]
    fn client_links_are_wireless() {
        let f = fabric(5);
        // Node 25 is the first client id for a 5×5 grid.
        assert_eq!(
            f.latency(NodeId(3), NodeId(25)),
            SimDuration::from_millis(20)
        );
        assert_eq!(
            f.latency(NodeId(25), NodeId(3)),
            SimDuration::from_millis(20)
        );
        assert_eq!(f.hops(NodeId(25), NodeId(3)), 1);
    }

    #[test]
    fn self_messages_are_free() {
        let f = fabric(3);
        assert_eq!(f.latency(NodeId(4), NodeId(4)), SimDuration::ZERO);
        assert_eq!(f.hops(NodeId(4), NodeId(4)), 0);
    }

    #[test]
    fn latency_is_symmetric() {
        let f = fabric(6);
        for a in 0..10u32 {
            for b in 0..10u32 {
                assert_eq!(
                    f.latency(NodeId(a), NodeId(b)),
                    f.latency(NodeId(b), NodeId(a))
                );
                assert_eq!(f.hops(NodeId(a), NodeId(b)), f.hops(NodeId(b), NodeId(a)));
            }
        }
    }

    #[test]
    fn fabric_works_over_non_grid_topologies() {
        use crate::topology::TopologyKind;
        let net = Arc::new(TopologyKind::ScaleFree { edges_per_node: 2 }.build(4, 9));
        let f = GridFabric::paper_defaults(net.clone());
        for a in 0..16u32 {
            for b in 0..16u32 {
                let cost = f.link(NodeId(a), NodeId(b), SimTime::ZERO, 0);
                assert_eq!(
                    cost.hops,
                    net.grid_distance(a as usize, b as usize),
                    "hops follow shortest paths on any topology"
                );
                assert_eq!(
                    cost.latency,
                    SimDuration::from_millis(10 * cost.hops as u64)
                );
            }
        }
    }

    #[test]
    fn constant_link_model_is_a_no_op_wrapper() {
        let inner = fabric(4);
        let wrapped = JitteredFabric::new(inner.clone(), LinkModel::constant(1));
        for a in 0..18u32 {
            for b in 0..18u32 {
                for seq in [0u64, 5, 99] {
                    assert_eq!(
                        wrapped.link(NodeId(a), NodeId(b), SimTime::from_millis(seq), seq),
                        inner.link(NodeId(a), NodeId(b), SimTime::from_millis(seq), seq)
                    );
                }
            }
        }
        assert!(LinkModel::constant(1).is_constant());
    }

    #[test]
    fn jitter_is_bounded_seeded_and_per_message() {
        let model = LinkModel {
            seed: 77,
            jitter: SimDuration::from_millis(5),
            asymmetry: 0.0,
            degraded: Vec::new(),
        };
        let f = JitteredFabric::new(fabric(4), model.clone());
        let base = fabric(4).latency(NodeId(0), NodeId(1));
        let mut seen_distinct = std::collections::BTreeSet::new();
        for seq in 0..64u64 {
            let cost = f.link(NodeId(0), NodeId(1), SimTime::ZERO, seq);
            assert!(cost.latency >= base, "jitter only adds");
            assert!(cost.latency <= base + SimDuration::from_millis(5));
            assert_eq!(cost.hops, 1, "jitter never changes hop accounting");
            seen_distinct.insert(cost.latency);
            // Replay: same (from, to, seq) -> same sample.
            assert_eq!(cost, f.link(NodeId(0), NodeId(1), SimTime::ZERO, seq));
        }
        assert!(seen_distinct.len() > 8, "jitter must actually vary");
        // A different model seed yields a different stream.
        let other = JitteredFabric::new(fabric(4), LinkModel { seed: 78, ..model });
        assert!(
            (0..64u64).any(|s| other.link(NodeId(0), NodeId(1), SimTime::ZERO, s)
                != f.link(NodeId(0), NodeId(1), SimTime::ZERO, s))
        );
    }

    #[test]
    fn asymmetry_splits_directions_stably() {
        let model = LinkModel {
            seed: 3,
            jitter: SimDuration::ZERO,
            asymmetry: 0.5,
            degraded: Vec::new(),
        };
        let f = JitteredFabric::new(fabric(5), model);
        let ab = f.link(NodeId(0), NodeId(24), SimTime::ZERO, 0);
        let ba = f.link(NodeId(24), NodeId(0), SimTime::ZERO, 0);
        assert_ne!(ab.latency, ba.latency, "directions draw distinct scales");
        let base = fabric(5).latency(NodeId(0), NodeId(24));
        for c in [ab, ba] {
            assert!(c.latency >= base);
            assert!(c.latency.as_micros() as f64 <= base.as_micros() as f64 * 1.5 + 1.0);
        }
        // Stable across seq: asymmetry is per direction, not per message.
        assert_eq!(ab, f.link(NodeId(0), NodeId(24), SimTime::ZERO, 99));
    }

    #[test]
    fn degradation_windows_slow_links_down_while_open() {
        let model = LinkModel {
            seed: 9,
            jitter: SimDuration::ZERO,
            asymmetry: 0.0,
            degraded: vec![DegradedWindow {
                start: SimTime::from_millis(100),
                end: SimTime::from_millis(200),
                factor: 3.0,
            }],
        };
        let f = JitteredFabric::new(fabric(4), model);
        let base = fabric(4).latency(NodeId(0), NodeId(1));
        let before = f.link(NodeId(0), NodeId(1), SimTime::from_millis(99), 0);
        let during = f.link(NodeId(0), NodeId(1), SimTime::from_millis(100), 1);
        let after = f.link(NodeId(0), NodeId(1), SimTime::from_millis(200), 2);
        assert_eq!(before.latency, base);
        assert_eq!(after.latency, base);
        assert_eq!(during.latency, base.times(3));
    }

    #[test]
    fn worst_case_bounds_overlapping_degradation_windows() {
        // Two windows covering the same instant compose multiplicatively in
        // link(); the bound must account for the product, not the max.
        let model = LinkModel {
            seed: 1,
            jitter: SimDuration::ZERO,
            asymmetry: 0.0,
            degraded: vec![
                DegradedWindow {
                    start: SimTime::ZERO,
                    end: SimTime::from_secs(10),
                    factor: 2.0,
                },
                DegradedWindow {
                    start: SimTime::ZERO,
                    end: SimTime::from_secs(10),
                    factor: 3.0,
                },
            ],
        };
        let f = JitteredFabric::new(fabric(4), model.clone());
        let base = fabric(4).latency(NodeId(0), NodeId(1));
        let during = f.link(NodeId(0), NodeId(1), SimTime::from_secs(5), 0);
        assert_eq!(during.latency, base.times(6), "windows stack");
        assert!(
            during.latency <= model.worst_case(base),
            "bound {} must cover the stacked sample {}",
            model.worst_case(base),
            during.latency
        );
    }

    #[test]
    fn worst_case_path_budgets_one_jitter_per_hop() {
        let model = LinkModel {
            seed: 2,
            jitter: SimDuration::from_millis(10),
            asymmetry: 0.0,
            degraded: Vec::new(),
        };
        let base = SimDuration::from_millis(100);
        // A 5-hop path can accumulate five independent jitter samples; the
        // single-link bound only budgets one. The extra microseconds are the
        // per-hop rounding slack.
        assert_eq!(
            model.worst_case_path(base, 5),
            model.worst_case(base) + SimDuration::from_millis(40) + SimDuration::from_micros(4)
        );
        assert_eq!(model.worst_case_path(base, 1), model.worst_case(base));
        assert_eq!(model.worst_case_path(base, 0), model.worst_case(base));
    }

    #[test]
    fn worst_case_bounds_every_sample() {
        let model = LinkModel {
            seed: 5,
            jitter: SimDuration::from_millis(7),
            asymmetry: 0.25,
            degraded: vec![DegradedWindow {
                start: SimTime::ZERO,
                end: SimTime::from_secs(1),
                factor: 2.0,
            }],
        };
        let f = JitteredFabric::new(fabric(5), model.clone());
        let base = fabric(5).latency(NodeId(0), NodeId(24));
        let bound = model.worst_case(base);
        for seq in 0..200u64 {
            let at = SimTime::from_millis(seq * 10);
            let cost = f.link(NodeId(0), NodeId(24), at, seq);
            assert!(
                cost.latency <= bound,
                "sample {} exceeds worst case {}",
                cost.latency,
                bound
            );
        }
    }
}
