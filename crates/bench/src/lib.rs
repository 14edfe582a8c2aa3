//! # tdm-bench — figure and table reproduction harnesses
//!
//! One binary per table/figure of the paper's evaluation (see `DESIGN.md` for
//! the full experiment index). Each binary prints a markdown table with the
//! same rows/series as the paper, so `EXPERIMENTS.md` can be regenerated by
//! running:
//!
//! ```text
//! cargo run --release -p tdm-bench --bin fig12_schedulers
//! ```
//!
//! This library holds the pieces the binaries share: the benchmark suite
//! iteration, the standard experiment configuration, the energy-model
//! parameters, and small formatting helpers. (fig12/fig13 select the best
//! scheduler per application for OptSW / OptTDM themselves, from the
//! sweep's results.)

#![forbid(unsafe_code)]

pub mod baseline;
pub mod cli;
pub mod sweep;

use tdm_core::config::DmuConfig;
use tdm_energy::chip::ChipPowerModel;
use tdm_runtime::exec::{simulate, Backend, ExecConfig, RunReport};
use tdm_runtime::scheduler::SchedulerKind;
use tdm_runtime::task::Workload;
use tdm_sim::clock::Frequency;
pub use tdm_sim::stats::geometric_mean;
pub use tdm_workloads::Benchmark;

/// The standard experiment configuration: the 32-core chip of Table I with
/// default cost model and seed.
pub fn standard_config() -> ExecConfig {
    ExecConfig::default()
}

/// The chip clock frequency used for energy conversions.
pub fn frequency() -> Frequency {
    Frequency::ghz(2.0)
}

/// The chip power model used for EDP figures.
pub fn power_model() -> ChipPowerModel {
    ChipPowerModel::default()
}

/// The DMU geometry to price a run's energy with: the backend's own
/// configuration when it has one, the default geometry otherwise (software
/// backends charge no DMU energy, but the model still needs a geometry).
pub fn dmu_of(backend: &Backend) -> DmuConfig {
    match backend {
        Backend::Tdm(c) | Backend::TaskSuperscalar(c) => c.clone(),
        _ => DmuConfig::default(),
    }
}

/// Host parallelism for sweep harnesses, with a floor for when the
/// parallelism probe fails or reports fewer cores (CI runners).
pub fn default_threads(floor: usize) -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(floor)
}

/// Runs one simulation with the standard configuration.
pub fn run(workload: &Workload, backend: &Backend, scheduler: SchedulerKind) -> RunReport {
    simulate(workload, backend, scheduler, &standard_config())
}

/// Formats a ratio as a percentage string (e.g. `0.123` → `"12.3%"`).
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats a speedup/normalized value with three decimals.
pub fn ratio(x: f64) -> String {
    format!("{x:.3}")
}

/// Prints a markdown table: a header row followed by data rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    println!("| {} |", header.join(" | "));
    println!(
        "|{}|",
        header.iter().map(|_| "---").collect::<Vec<_>>().join("|")
    );
    for row in rows {
        println!("| {} |", row.join(" | "));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.123), "12.3%");
        assert_eq!(ratio(1.04567), "1.046");
    }

    #[test]
    fn standard_config_is_32_cores() {
        assert_eq!(standard_config().chip.num_cores, 32);
        assert!((frequency().as_ghz() - 2.0).abs() < 1e-12);
    }
}
