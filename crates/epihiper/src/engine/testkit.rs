//! Engine test support: the two-pass full-range scan kept as an
//! independent oracle, a one-off constructor, and the oracle proptests.
//!
//! The oracle is the engine's original tick scan. It shares no per-node
//! code with [`Simulation::progress_node`] / [`Simulation::transmit_node`],
//! so the frontier scan agreeing with it is evidence rather than a
//! tautology. [`Simulation::with_oracle_scan`] routes every partition
//! scan of one simulation through it; none of this module exists in a
//! non-test build.

use super::{CounterRng, Event, SimConfig, SimContext, Simulation, Workspace};
use crate::checkpoint::{SimSnapshot, SnapshotError};
use crate::disease::DiseaseModel;
use crate::interventions::InterventionSet;
use epiflow_synthpop::ContactNetwork;
use rand::Rng;
use std::sync::Arc;

/// A context for `net` with uniform demographics (age group 2, one
/// county), partitioned as `config` requests.
pub(crate) fn fresh_context(net: &ContactNetwork, config: &SimConfig) -> Arc<SimContext> {
    let n = net.n_nodes;
    Arc::new(SimContext::build(net, vec![2; n], vec![0; n], config.n_partitions, config.epsilon))
}

/// A simulation on its own freshly built context (see [`fresh_context`]).
pub(crate) fn fresh_sim(
    net: &ContactNetwork,
    model: DiseaseModel,
    interventions: InterventionSet,
    config: SimConfig,
) -> Simulation {
    Simulation::new_with_context(fresh_context(net, &config), model, interventions, config)
}

/// Resume `snapshot` on a freshly built context (see [`fresh_context`]).
pub(crate) fn fresh_resume(
    net: &ContactNetwork,
    model: DiseaseModel,
    interventions: InterventionSet,
    config: SimConfig,
    snapshot: &SimSnapshot,
) -> Result<Simulation, SnapshotError> {
    Simulation::resume_with_context(
        fresh_context(net, &config),
        model,
        interventions,
        config,
        snapshot,
    )
}

impl Simulation {
    /// Route every partition scan of this simulation to the oracle.
    pub(crate) fn with_oracle_scan(mut self) -> Self {
        self.oracle_scan = true;
        self
    }

    /// The pre-frontier scan: walk every node of the partition,
    /// re-deriving due progressions from `exit_tick` and λ from a full
    /// in-edge pass (plus a second pass for the Gillespie pick).
    pub(super) fn scan_partition_oracle(&self, ws: &mut Workspace, t: u32) {
        let ns = self.model.n_states();
        let tau = self.model.transmissibility;
        let range = ws.range.clone();

        for v in range {
            let vi = v as usize;
            // Scheduled progression fires this tick.
            if self.state.exit_tick[vi] == t {
                let to = self.state.next_state[vi];
                let mut rng = CounterRng::new(self.config.seed, v, t);
                let (exit, next) =
                    Self::schedule(&self.model, to, self.ctx.age_group[vi] as usize, t, &mut rng);
                ws.events.push(Event {
                    node: v,
                    new_state: to,
                    cause: None,
                    exit_tick: exit,
                    next_state: next,
                });
                continue;
            }
            // Transmission scan for susceptible nodes.
            let hv = self.state.health[vi];
            let sigma = self.model.states[hv as usize].susceptibility
                * self.state.susceptibility_scale[vi] as f64;
            if sigma <= 0.0 {
                continue;
            }
            let lut_row = &self.trans_lut[hv as usize * ns..(hv as usize + 1) * ns];
            let mut lambda = 0.0f64;
            ws.edges_scanned += self.ctx.net.in_edges(v).len() as u64;
            for e in self.ctx.net.in_edges(v) {
                let u = e.neighbor as usize;
                let hu = self.state.health[u];
                let Some((_, omega)) = lut_row[hu as usize] else { continue };
                if !self.state.edge_active(e.edge_id, v, e.neighbor, e.ctx_self, e.ctx_nbr, t) {
                    continue;
                }
                let iota = self.model.states[hu as usize].infectivity
                    * self.state.infectivity_scale[u] as f64;
                // Eq. (1): ρ = T · w_e · σ(Ps)·ι(Pi) · ω, scaled by τ.
                lambda += e.tw * sigma * iota * omega * tau;
            }
            if lambda <= 0.0 {
                continue;
            }
            let mut rng = CounterRng::new(self.config.seed, v, t);
            let p_infect = 1.0 - (-lambda).exp();
            if !rng.random_bool(p_infect) {
                continue;
            }
            // Gillespie: the causing contact is chosen ∝ its propensity.
            let mut pick = rng.random_range(0.0..lambda);
            let mut cause = None;
            let mut to_state = self.model.initial_infected_state;
            for e in self.ctx.net.in_edges(v) {
                let u = e.neighbor as usize;
                let hu = self.state.health[u];
                let Some((to, omega)) = lut_row[hu as usize] else { continue };
                if !self.state.edge_active(e.edge_id, v, e.neighbor, e.ctx_self, e.ctx_nbr, t) {
                    continue;
                }
                let iota = self.model.states[hu as usize].infectivity
                    * self.state.infectivity_scale[u] as f64;
                let rho = e.tw * sigma * iota * omega * tau;
                pick -= rho;
                if pick <= 0.0 {
                    cause = Some(e.neighbor);
                    to_state = to;
                    break;
                }
            }
            if cause.is_none() {
                // Floating-point remainder: attribute to the last active
                // infectious contact (rescan not worth the cost).
                for e in self.ctx.net.in_edges(v).iter().rev() {
                    let hu = self.state.health[e.neighbor as usize];
                    if lut_row[hu as usize].is_some()
                        && self
                            .state
                            .edge_active(e.edge_id, v, e.neighbor, e.ctx_self, e.ctx_nbr, t)
                    {
                        cause = Some(e.neighbor);
                        to_state = lut_row[hu as usize].expect("checked").0;
                        break;
                    }
                }
            }
            let (exit, next) =
                Self::schedule(&self.model, to_state, self.ctx.age_group[vi] as usize, t, &mut rng);
            ws.events.push(Event {
                node: v,
                new_state: to_state,
                cause,
                exit_tick: exit,
                next_state: next,
            });
        }
    }
}

mod proptests {
    use super::*;
    use crate::disease::sir_model;
    use crate::engine::SimResult;
    use epiflow_synthpop::network::ContactEdge;
    use epiflow_synthpop::ActivityType;
    use proptest::prelude::*;

    fn arb_edges(max_nodes: u32) -> impl Strategy<Value = (u32, Vec<(u32, u32)>)> {
        (2..max_nodes).prop_flat_map(move |n| {
            let edges = prop::collection::vec((0..n, 0..n), 0..200);
            (Just(n), edges)
        })
    }

    fn make_network(n: u32, pairs: &[(u32, u32)]) -> ContactNetwork {
        let mut seen = std::collections::HashSet::new();
        let edges = pairs
            .iter()
            .filter(|(u, v)| u != v)
            .map(|&(u, v)| (u.min(v), u.max(v)))
            .filter(|p| seen.insert(*p))
            .map(|(u, v)| ContactEdge {
                u,
                v,
                start: 0,
                duration: 60,
                ctx_u: ActivityType::Work,
                ctx_v: ActivityType::Work,
                weight: 1.0,
            })
            .collect();
        ContactNetwork { n_nodes: n as usize, edges }
    }

    /// Run a 30-tick SIR simulation on `net` at saturation threshold
    /// `theta`, or through the oracle when `theta` is `None`.
    fn run_epi(
        net: &ContactNetwork,
        beta: f64,
        seed: u64,
        parts: usize,
        theta: Option<f64>,
    ) -> SimResult {
        let default = SimConfig::default();
        let config = SimConfig {
            ticks: 30,
            seed,
            n_partitions: parts,
            initial_infections: 3,
            saturation_threshold: theta.unwrap_or(default.saturation_threshold),
            ..default
        };
        let sim = fresh_sim(net, sir_model(beta, 5.0), InterventionSet::default(), config);
        match theta {
            Some(_) => sim,
            None => sim.with_oracle_scan(),
        }
        .run()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The frontier scan, at the default saturation threshold and
        /// as a θ = 0 full sweep, is byte-identical to the two-pass
        /// oracle on arbitrary sparse/disconnected networks, across
        /// seeds and partition counts, and never examines more λ-pass
        /// edges.
        #[test]
        fn frontier_scan_equals_reference_sparse(
            (n, pairs) in arb_edges(300),
            seed in any::<u64>(),
            beta in 0.0f64..3.0,
        ) {
            let net = make_network(n, &pairs);
            for parts in [1usize, 4, 13] {
                let oracle = run_epi(&net, beta, seed, parts, None);
                let sweep = run_epi(&net, beta, seed, parts, Some(0.0));
                prop_assert_eq!(&sweep.output, &oracle.output, "θ = 0 at {} partitions", parts);
                prop_assert_eq!(&sweep.stats, &oracle.stats);
                let fr = run_epi(&net, beta, seed, parts, Some(0.75));
                prop_assert_eq!(&fr.output, &oracle.output, "θ = 0.75 at {} partitions", parts);
                prop_assert!(
                    fr.stats.total_edges_scanned() <= oracle.stats.total_edges_scanned()
                );
            }
        }

        /// Same equivalence on small dense networks, where the frontier
        /// covers most of the graph (the worst case for the merge scan,
        /// and where the default threshold switches to the sweep).
        #[test]
        fn frontier_scan_equals_reference_dense(
            (n, pairs) in arb_edges(16),
            seed in any::<u64>(),
            beta in 0.5f64..3.0,
        ) {
            let net = make_network(n, &pairs);
            for parts in [1usize, 4, 13] {
                let oracle = run_epi(&net, beta, seed, parts, None);
                for theta in [0.75, 0.0] {
                    let fr = run_epi(&net, beta, seed, parts, Some(theta));
                    prop_assert_eq!(&fr.output, &oracle.output, "θ = {} at {} partitions", theta, parts);
                }
            }
        }
    }
}
