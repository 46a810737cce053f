//! Quickstart: build a synthetic state, run the agent-based COVID-19
//! simulator on it, and look at the epidemic.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use epiflow::epihiper::covid::{covid19_model, states};
use epiflow::epihiper::interventions::base_case;
use epiflow::epihiper::{SimConfig, SimContext, Simulation};
use epiflow::surveillance::{RegionRegistry, Scale};
use epiflow::synthpop::{build_region, BuildConfig};
use std::sync::Arc;

fn main() {
    // 1. The 51-region registry and a scaled-down synthetic Delaware.
    let registry = RegionRegistry::new();
    let de = registry.by_abbrev("DE").expect("Delaware exists").id;
    let data = build_region(
        &registry,
        de,
        &BuildConfig { scale: Scale::one_per(2000.0), seed: 42, ..Default::default() },
    );
    let stats = data.network.stats();
    println!(
        "Synthetic Delaware: {} persons in {} households, contact network with {} edges \
         (mean degree {:.1})",
        data.population.len(),
        data.population.households.len(),
        stats.edges,
        stats.mean_degree
    );

    // 2. The COVID-19 disease model (Fig. 12 / Tables III–IV) plus the
    //    paper's base intervention stack: voluntary home isolation,
    //    school closure at day 30, stay-at-home days 45–130 at 60%
    //    compliance.
    let mut model = covid19_model();
    model.transmissibility = 0.35;
    let interventions = base_case(states::SYMPTOMATIC, 30, 45, 130, 0.6, 0.6);

    // 3. Run 150 days on 4 partitions (results are identical for any
    //    partition count — the engine's RNG is counter-based). The
    //    immutable half — CSR network, partitioning, per-node
    //    demographics — is a shared context; an ensemble builds it once
    //    and runs every replicate against it.
    let age: Vec<u8> =
        data.population.persons.iter().map(|p| p.age_group().index() as u8).collect();
    let county: Vec<u16> = data.population.persons.iter().map(|p| p.county).collect();
    let config = SimConfig {
        ticks: 150,
        seed: 7,
        n_partitions: 4,
        initial_infections: 10,
        ..Default::default()
    };
    let ctx = SimContext::build(&data.network, age, county, config.n_partitions, config.epsilon);
    let mut sim = Simulation::new_with_context(Arc::new(ctx), model, interventions, config);
    let result = sim.run();
    println!(
        "Simulated 150 days in {:.3} s on {} partitions",
        result.elapsed.as_secs_f64(),
        sim.context().partitioning.len()
    );

    // 4. Inspect the outcome.
    let cum = result.output.cumulative(states::SYMPTOMATIC);
    let deaths = result.output.cumulative(states::DEATH);
    println!(
        "Outcome: {} cumulative symptomatic cases, {} deaths, {} total infections",
        cum.last().unwrap(),
        deaths.last().unwrap(),
        result.output.total_infections()
    );
    let d = result.output.dendogram_stats(&sim.model);
    println!(
        "Transmission forest: {} roots, {} transmissions, max depth {}, mean offspring {:.2}",
        d.roots, d.transmissions, d.max_depth, d.mean_offspring
    );

    // 5. A tiny epicurve.
    let daily = result.output.daily_new(states::SYMPTOMATIC);
    let peak = daily.iter().enumerate().max_by_key(|x| *x.1).unwrap();
    println!("Epidemic peak: {} new symptomatic cases on day {}", peak.1, peak.0);
}
