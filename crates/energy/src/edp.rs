//! Energy, Energy-Delay Product and DMU power accounting.
//!
//! Figures 12 and 13 of the paper report EDP normalized to the software
//! runtime with a FIFO scheduler, including the power added by the hardware
//! structures of TDM, Carbon and Task Superscalar. [`evaluate`] combines the
//! chip power model with the DMU access counts of a run to produce the same
//! metrics.

use tdm_core::area::DmuStorageReport;
use tdm_core::config::DmuConfig;
use tdm_runtime::exec::RunReport;
use tdm_sim::clock::Frequency;

use crate::chip::ChipPowerModel;
use crate::sram::{access_energy_pj, leakage_mw, SramKind};

/// Energy metrics of one simulated execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyReport {
    /// Execution time in seconds.
    pub time_s: f64,
    /// Chip (cores + uncore) energy in joules.
    pub chip_energy_j: f64,
    /// Energy added by the hardware task/dependence structures in joules
    /// (zero for the pure software runtime).
    pub accelerator_energy_j: f64,
    /// Energy-delay product in joule-seconds.
    pub edp: f64,
}

impl EnergyReport {
    /// Total energy (chip + accelerator).
    pub fn total_energy_j(&self) -> f64 {
        self.chip_energy_j + self.accelerator_energy_j
    }

    /// Fraction of total energy contributed by the accelerator structures.
    pub fn accelerator_fraction(&self) -> f64 {
        let total = self.total_energy_j();
        if total == 0.0 {
            0.0
        } else {
            self.accelerator_energy_j / total
        }
    }

    /// This run's EDP normalized to `baseline` (values below 1.0 are
    /// improvements).
    pub fn normalized_edp(&self, baseline: &EnergyReport) -> f64 {
        self.edp / baseline.edp
    }
}

/// Energy consumed by the DMU for a run: one average-sized SRAM access per
/// recorded structure access plus leakage over the whole execution.
fn dmu_energy_joules(report: &RunReport, dmu: &DmuConfig, frequency: Frequency) -> f64 {
    let Some(hw) = &report.hardware else {
        return 0.0;
    };
    let storage = DmuStorageReport::for_config(dmu);
    let total_kb = storage.total_kilobytes();
    let avg_structure_kb = total_kb / storage.structures.len() as f64;
    let dynamic_pj = hw.stats.total_accesses as f64
        * access_energy_pj(avg_structure_kb, SramKind::SetAssociative);
    let time_s = frequency.secs_from_cycles(report.stats.makespan);
    let leakage_j = leakage_mw(total_kb) * 1e-3 * time_s;
    dynamic_pj * 1e-12 + leakage_j
}

/// Evaluates the energy metrics of a run. `dmu` describes the hardware
/// tracker geometry for backends that have one (TDM, Task Superscalar) and is
/// ignored for software-only runs.
pub fn evaluate(
    report: &RunReport,
    chip_model: &ChipPowerModel,
    dmu: &DmuConfig,
    frequency: Frequency,
) -> EnergyReport {
    let time_s = frequency.secs_from_cycles(report.stats.makespan);
    let chip_energy_j = chip_model.energy_joules(&report.stats, frequency);
    let accelerator_energy_j = dmu_energy_joules(report, dmu, frequency);
    let total = chip_energy_j + accelerator_energy_j;
    EnergyReport {
        time_s,
        chip_energy_j,
        accelerator_energy_j,
        edp: total * time_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdm_runtime::exec::{simulate, Backend, ExecConfig};
    use tdm_runtime::scheduler::SchedulerKind;
    use tdm_runtime::task::{DependenceSpec, TaskSpec, Workload};
    use tdm_sim::clock::Cycle;

    fn workload() -> Workload {
        let tasks = (0..200u64)
            .map(|i| {
                TaskSpec::new(
                    "t",
                    Cycle::new(120_000),
                    vec![
                        DependenceSpec::input(0x1000_0000 + (i % 16) * 0x10000, 0x10000),
                        DependenceSpec::inout(0x2000_0000 + (i % 32) * 0x10000, 0x10000),
                    ],
                )
            })
            .collect();
        Workload::new("energy-test", tasks)
    }

    #[test]
    fn dmu_power_is_negligible() {
        let w = workload();
        let config = ExecConfig::default();
        let run = simulate(&w, &Backend::tdm_default(), SchedulerKind::Fifo, &config);
        let report = evaluate(
            &run,
            &ChipPowerModel::default(),
            &DmuConfig::default(),
            Frequency::ghz(2.0),
        );
        assert!(report.accelerator_energy_j > 0.0);
        assert!(
            report.accelerator_fraction() < 1e-3,
            "DMU should contribute far less than 0.1% of energy, got {:.6}",
            report.accelerator_fraction()
        );
    }

    #[test]
    fn software_run_has_no_accelerator_energy() {
        let w = workload();
        let config = ExecConfig::default();
        let run = simulate(&w, &Backend::Software, SchedulerKind::Fifo, &config);
        let report = evaluate(
            &run,
            &ChipPowerModel::default(),
            &DmuConfig::default(),
            Frequency::ghz(2.0),
        );
        assert_eq!(report.accelerator_energy_j, 0.0);
        assert!(report.chip_energy_j > 0.0);
        assert!(report.edp > 0.0);
    }

    #[test]
    fn faster_run_with_same_power_has_lower_edp() {
        let w = workload();
        let config = ExecConfig::default();
        let sw = simulate(&w, &Backend::Software, SchedulerKind::Fifo, &config);
        let tdm = simulate(&w, &Backend::tdm_default(), SchedulerKind::Fifo, &config);
        let model = ChipPowerModel::default();
        let freq = Frequency::ghz(2.0);
        let sw_e = evaluate(&sw, &model, &DmuConfig::default(), freq);
        let tdm_e = evaluate(&tdm, &model, &DmuConfig::default(), freq);
        if tdm.makespan() < sw.makespan() {
            assert!(tdm_e.normalized_edp(&sw_e) < 1.0);
        }
    }

    #[test]
    fn edp_is_energy_times_time() {
        let r = EnergyReport {
            time_s: 2.0,
            chip_energy_j: 10.0,
            accelerator_energy_j: 0.5,
            edp: 21.0,
        };
        assert!((r.total_energy_j() - 10.5).abs() < 1e-12);
        assert!((r.accelerator_fraction() - 0.5 / 10.5).abs() < 1e-12);
    }
}
