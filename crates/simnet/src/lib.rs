//! # mhh-simnet — deterministic discrete-event network simulator
//!
//! This crate is the lowest substrate of the MHH reproduction. It provides
//! everything the paper's evaluation environment needs that is *not*
//! publish/subscribe specific:
//!
//! * a logical clock and strongly typed simulation time ([`SimTime`],
//!   [`SimDuration`]),
//! * a discrete-event engine ([`Engine`]) delivering messages between
//!   [`Node`]s with per-link FIFO ordering — the correctness assumption the
//!   MHH protocol relies on (paper, Section 3) — enforced by per-link
//!   channel clocks, so it holds even under variable link latency,
//! * topology construction ([`topology`]): the pluggable [`TopologyKind`]
//!   family — the k×k base-station grid of Section 5.1 plus torus,
//!   random-geometric, scale-free and imported edge lists — each with a
//!   minimum spanning tree overlay, shortest-path distances and per-broker
//!   routing tables built once per run,
//! * a link-cost model ([`Fabric`], one [`LinkCost`] per message) with the
//!   paper's constants (10 ms wired, 20 ms wireless) and a
//!   [`JitteredFabric`] wrapper (seeded per-message jitter, per-direction
//!   asymmetry, timed degradation windows — [`LinkModel`]),
//! * deterministic fault injection ([`faults`]): a seeded [`FaultSchedule`]
//!   of broker crash/restart windows, envelope-dropping link partitions and
//!   region outages that the engine consults on the delivery path,
//!   recording every dropped envelope so delivery audits still reconcile,
//! * traffic accounting by class ([`stats::TrafficStats`]) so that the
//!   "message overhead measured in hops" metric of Section 5.1 can be
//!   collected without instrumenting protocol code, and
//! * small deterministic random-number utilities ([`random`]) so that every
//!   experiment run is exactly reproducible from a seed.
//!
//! Every run is single-threaded and deterministic: same seed, same delivery
//! order, same stats, byte for byte. Parallelism is applied one level up,
//! across *independent* runs, by the scoped-thread sweep executor in
//! `mhh-mobility::sweep`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clocks;
pub mod engine;
pub mod fabric;
pub mod faults;
pub mod ids;
pub mod queue;
pub mod random;
pub mod reference;
pub mod stats;
pub mod time;
pub mod topology;

pub use clocks::LinkClocks;
pub use engine::{
    Context, Engine, EngineArena, EngineConfig, EnginePerf, Envelope, Node, PhaseBreakdown,
    RunOutcome,
};
pub use fabric::{
    DegradedWindow, Fabric, GridFabric, JitteredFabric, LinkCost, LinkModel, UniformFabric,
};
pub use faults::{
    DropCause, DropRecord, FaultKind, FaultSchedule, FaultScheduleError, LinkFate, LossModel,
    OutageScope, OutageWindow,
};
pub use ids::NodeId;
pub use queue::EventQueue;
pub use reference::ReferenceEngine;
pub use stats::{Message, TrafficClass, TrafficStats};
pub use time::{SimDuration, SimTime};
pub use topology::{parse_edge_list, Graph, Network, TopologyKind, Tree};
