//! Forecast-target extraction.
//!
//! "From the individual-level output data, we can aggregate simulation
//! results to the county level for different health states … daily
//! counts of symptomatic cases, hospitalizations, ventilations, and
//! deaths are used in our predictions."

use epiflow_epihiper::covid::states;
use epiflow_epihiper::{SimOutput, StateId};

/// The paper's three counts for one health state over time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ThreeCounts {
    /// Transitions into the state per day.
    pub new: Vec<u32>,
    /// Running total of `new`.
    pub cumulative: Vec<u64>,
    /// Occupancy at end of each day.
    pub current: Vec<u32>,
}

impl ThreeCounts {
    /// Extract for one state from a simulation output.
    pub fn from_output(output: &SimOutput, state: StateId) -> Self {
        ThreeCounts {
            new: output.daily_new(state),
            cumulative: output.cumulative(state),
            current: output.occupancy(state),
        }
    }
}

/// The standard forecasting targets of the COVID-19 model.
#[derive(Clone, Debug, Default)]
pub struct ForecastTargets {
    /// Symptomatic cases (the "confirmed case" analog pre-ascertainment).
    pub cases: ThreeCounts,
    /// Hospitalizations (recovery + death paths combined).
    pub hospitalizations: ThreeCounts,
    /// Ventilations (recovery + death paths combined).
    pub ventilations: ThreeCounts,
    /// Deaths.
    pub deaths: ThreeCounts,
}

fn combine(a: ThreeCounts, b: ThreeCounts) -> ThreeCounts {
    let n = a.new.len().max(b.new.len());
    let get32 = |v: &Vec<u32>, i: usize| v.get(i).copied().unwrap_or(0);
    let get64 = |v: &Vec<u64>, i: usize| v.get(i).copied().unwrap_or(0);
    ThreeCounts {
        new: (0..n).map(|i| get32(&a.new, i) + get32(&b.new, i)).collect(),
        cumulative: (0..n).map(|i| get64(&a.cumulative, i) + get64(&b.cumulative, i)).collect(),
        current: (0..n).map(|i| get32(&a.current, i) + get32(&b.current, i)).collect(),
    }
}

impl ForecastTargets {
    /// Extract all targets from a COVID-19-model simulation output.
    pub fn from_covid_output(output: &SimOutput) -> Self {
        ForecastTargets {
            cases: ThreeCounts::from_output(output, states::SYMPTOMATIC),
            hospitalizations: combine(
                ThreeCounts::from_output(output, states::HOSPITALIZED),
                ThreeCounts::from_output(output, states::HOSPITALIZED_D),
            ),
            ventilations: combine(
                ThreeCounts::from_output(output, states::VENTILATED),
                ThreeCounts::from_output(output, states::VENTILATED_D),
            ),
            deaths: ThreeCounts::from_output(output, states::DEATH),
        }
    }

    /// County-level daily new symptomatic cases.
    pub fn county_cases(output: &SimOutput, county: usize) -> Vec<u32> {
        output.county_daily_new(county, states::SYMPTOMATIC)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use epiflow_epihiper::covid::covid19_model;
    use epiflow_epihiper::{InterventionSet, SimConfig, SimContext, Simulation};
    use epiflow_synthpop::network::ContactEdge;
    use epiflow_synthpop::{ActivityType, ContactNetwork};

    fn covid_run() -> SimOutput {
        let n = 150u32;
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                if (u + v) % 4 == 0 {
                    edges.push(ContactEdge {
                        u,
                        v,
                        start: 480,
                        duration: 480,
                        ctx_u: ActivityType::Work,
                        ctx_v: ActivityType::Work,
                        weight: 1.0,
                    });
                }
            }
        }
        let net = ContactNetwork { n_nodes: n as usize, edges };
        let cfg = SimConfig { ticks: 120, seed: 4, initial_infections: 6, ..Default::default() };
        let ctx = SimContext::build(
            &net,
            // Mix of age groups so severity paths are exercised.
            (0..n).map(|i| (i % 5) as u8).collect(),
            (0..n).map(|i| (i % 3) as u16).collect(),
            cfg.n_partitions,
            cfg.epsilon,
        );
        let mut sim =
            Simulation::new_with_context(ctx.into(), covid19_model(), InterventionSet::new(), cfg);
        sim.model.transmissibility = 0.6;
        sim.run().output
    }

    #[test]
    fn three_counts_consistency() {
        let out = covid_run();
        let t = ThreeCounts::from_output(&out, states::SYMPTOMATIC);
        // cumulative = prefix sum of new.
        let mut acc = 0u64;
        for (i, &n) in t.new.iter().enumerate() {
            acc += n as u64;
            assert_eq!(t.cumulative[i], acc);
        }
        assert_eq!(t.new.len(), t.current.len());
    }

    #[test]
    fn epidemic_produces_all_targets() {
        let out = covid_run();
        let targets = ForecastTargets::from_covid_output(&out);
        let total_cases = *targets.cases.cumulative.last().unwrap();
        assert!(total_cases > 20, "cases {total_cases}");
        let total_hosp = *targets.hospitalizations.cumulative.last().unwrap();
        assert!(total_hosp >= 1, "hospitalizations {total_hosp}");
        assert!(total_hosp < total_cases, "hospitalizations ≤ cases");
    }

    #[test]
    fn deaths_do_not_exceed_hospitalizations_plus_direct() {
        let out = covid_run();
        let t = ForecastTargets::from_covid_output(&out);
        let deaths = *t.deaths.cumulative.last().unwrap();
        let cases = *t.cases.cumulative.last().unwrap();
        assert!(deaths <= cases);
    }

    #[test]
    fn county_cases_partition_state_cases() {
        let out = covid_run();
        let state_new = out.daily_new(states::SYMPTOMATIC);
        let mut summed = vec![0u32; state_new.len()];
        for county in 0..3 {
            for (i, c) in ForecastTargets::county_cases(&out, county).iter().enumerate() {
                summed[i] += c;
            }
        }
        assert_eq!(summed, state_new);
    }

    #[test]
    fn combine_zero_extends() {
        let a = ThreeCounts { new: vec![1, 2], cumulative: vec![1, 3], current: vec![1, 1] };
        let b = ThreeCounts { new: vec![5], cumulative: vec![5], current: vec![5] };
        let c = combine(a, b);
        assert_eq!(c.new, vec![6, 2]);
        assert_eq!(c.cumulative, vec![6, 3]);
    }
}
