//! An EpiHiper-style agent-based, discrete-time epidemic simulator
//! (paper §III "Simulation-based models" and Appendix D).
//!
//! The simulator computes probabilistic disease transmission between
//! nodes of a contact network and disease progression within infected
//! individuals:
//!
//! * [`disease`] — disease models as probabilistic timed transition
//!   systems (PTTS): states, age-stratified progression edges with dwell
//!   time distributions, and transmission edges. JSON-serializable, as
//!   EpiHiper's inputs are.
//! * [`covid`] — the builtin COVID-19 model of the paper's Fig. 12 /
//!   Tables III–IV.
//! * [`partition`] — the paper's static edge-count-threshold network
//!   partitioning (all in-edges of a node stay together; fill each
//!   partition until it exceeds `E/P + ε`).
//! * [`state`] — the mutable system state (Table V): health states,
//!   per-node infectivity/susceptibility scaling, node flags, edge
//!   activity, user variables.
//! * [`interventions`] — trigger + action-ensemble interventions, with
//!   the paper's builtins: VHI, SC, SH, RO, TA, PS, D1CT, D2CT.
//! * [`engine`] — the parallel tick loop: partitions execute on rayon
//!   threads (standing in for MPI ranks) with a barrier per tick;
//!   per-(node, tick) counter-based RNG makes results *independent of
//!   thread count*. The default scan is frontier-based: per-tick cost
//!   follows the epidemic, not the network.
//! * [`frontier`] — the active-set bitset and the tick-bucket progression
//!   queue behind the frontier scan.
//! * [`checkpoint`] — tick-level checkpoint/restart: versioned,
//!   per-section-checksummed snapshots with a two-slot A/B chain, so a
//!   preempted run resumes byte-identically from its last snapshot.
//! * [`output`] — transition logs, dendograms (transmission forests),
//!   and per-tick aggregate counters, plus the memory-accounting model
//!   behind Fig. 10.

pub mod checkpoint;
pub mod covid;
pub mod disease;
pub mod engine;
pub mod frontier;
pub mod interventions;
pub mod output;
pub mod partition;
pub mod scaling;
pub mod state;

pub use checkpoint::{
    SimSnapshot, SnapshotChain, SnapshotError, SnapshotEvent, SnapshotMeta, SNAPSHOT_VERSION,
};
pub use covid::covid19_model;
pub use disease::{DiseaseModel, DwellTime, Progression, StateId, Transmission};
pub use engine::{EngineStats, RunCarry, SimConfig, SimContext, SimResult, SimScratch, Simulation};
pub use frontier::{ActiveSet, TickBuckets};
pub use interventions::{Intervention, InterventionSet};
pub use output::{DendogramStats, SimOutput, TransitionRecord};
pub use partition::{partition_network, Partitioning};
pub use scaling::{projected_run_secs, MpiCostModel};
pub use state::SimState;
