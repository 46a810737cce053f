//! Shared helpers for the benchmark harness and the `repro_*` binaries
//! (one per table/figure of the paper; see DESIGN.md §5 and
//! EXPERIMENTS.md).

use epiflow_epihiper::covid::covid19_model;
use epiflow_epihiper::{InterventionSet, SimConfig, SimContext, SimResult, Simulation};
use epiflow_surveillance::{RegionRegistry, Scale};
use epiflow_synthpop::builder::RegionData;
use epiflow_synthpop::{build_region, BuildConfig};

/// Build one region at `1/per` scale with a fixed seed.
pub fn region(registry: &RegionRegistry, abbrev: &str, per: f64) -> RegionData {
    let id = registry.by_abbrev(abbrev).unwrap_or_else(|| panic!("unknown region {abbrev}")).id;
    build_region(
        registry,
        id,
        &BuildConfig { scale: Scale::one_per(per), seed: 0x5EED, ..Default::default() },
    )
}

/// Run a COVID-19 simulation on a region with the given interventions
/// and tick/partition settings. Transmissibility is raised to 0.35 so
/// scaled-down networks still produce brisk epidemics (sparser networks
/// need a higher per-contact rate for the same R).
pub fn run_covid(
    data: &RegionData,
    interventions: InterventionSet,
    ticks: u32,
    n_partitions: usize,
    seed: u64,
) -> SimResult {
    run_covid_mode(data, interventions, ticks, n_partitions, seed, false)
}

/// [`run_covid`] with an explicit scan-mode switch: `full_sweep = true`
/// sets `saturation_threshold = 0`, so every tick scans every node (the
/// frontier scan's A/B baseline).
pub fn run_covid_mode(
    data: &RegionData,
    interventions: InterventionSet,
    ticks: u32,
    n_partitions: usize,
    seed: u64,
    full_sweep: bool,
) -> SimResult {
    let n = data.population.len();
    let age: Vec<u8> =
        data.population.persons.iter().map(|p| p.age_group().index() as u8).collect();
    let county: Vec<u16> = data.population.persons.iter().map(|p| p.county).collect();
    let config = SimConfig {
        ticks,
        seed,
        n_partitions,
        epsilon: 16,
        initial_infections: (n / 400).max(5),
        record_transitions: false,
        saturation_threshold: if full_sweep {
            0.0
        } else {
            SimConfig::default().saturation_threshold
        },
    };
    let ctx = SimContext::build(&data.network, age, county, n_partitions, config.epsilon);
    let mut sim = Simulation::new_with_context(ctx.into(), covid19_model(), interventions, config);
    sim.model.transmissibility = 0.35;
    sim.run()
}

/// The host's core count as the rayon shim sees it: the number of
/// workers a top-level parallel call fans out to. Every `BENCH_*.json`
/// records it, since timings from hosts with different counts do not
/// compare.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Format a byte count human-readably.
pub fn fmt_bytes(b: u64) -> String {
    let f = b as f64;
    if f >= 1e12 {
        format!("{:.1} TB", f / 1e12)
    } else if f >= 1e9 {
        format!("{:.1} GB", f / 1e9)
    } else if f >= 1e6 {
        format!("{:.1} MB", f / 1e6)
    } else if f >= 1e3 {
        format!("{:.1} KB", f / 1e3)
    } else {
        format!("{b} B")
    }
}

/// Simple fixed-width right-aligned table printer.
pub fn print_row(cols: &[&str], widths: &[usize]) {
    let mut line = String::new();
    for (c, w) in cols.iter().zip(widths) {
        line.push_str(&format!("{c:>w$}  ", w = w));
    }
    println!("{}", line.trim_end());
}

/// An ASCII sparkline for quick curve shapes in terminal output.
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let max = values.iter().cloned().fold(f64::MIN, f64::max);
    let min = values.iter().cloned().fold(f64::MAX, f64::min);
    let span = (max - min).max(1e-12);
    values.iter().map(|v| BARS[(((v - min) / span) * 7.0).round() as usize]).collect()
}

/// Re-export `Scale` for binaries.
pub use epiflow_surveillance::Scale as BenchScale;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_bytes_scales() {
        assert_eq!(fmt_bytes(500), "500 B");
        assert_eq!(fmt_bytes(2_500_000), "2.5 MB");
        assert_eq!(fmt_bytes(3_000_000_000_000), "3.0 TB");
    }

    #[test]
    fn region_helper_builds() {
        let reg = RegionRegistry::new();
        let de = region(&reg, "DE", 20_000.0);
        assert!(de.population.len() > 10);
    }

    #[test]
    fn sparkline_monotone() {
        let s = sparkline(&[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(s.chars().count(), 4);
        assert!(s.starts_with('▁'));
        assert!(s.ends_with('█'));
    }
}
