//! McPAT-style chip power model.
//!
//! The paper evaluates power with McPAT at 22 nm and 0.6 V with clock gating.
//! At the granularity this reproduction works at, the relevant effects are:
//! a busy core burns more power than an idle (clock-gated) core, the shared
//! uncore (L2, NoC, memory controllers) burns power for the whole execution,
//! and the DMU adds a negligible amount (< 0.01 % of chip power). Those are
//! exactly the knobs of [`ChipPowerModel`].

use tdm_sim::clock::Frequency;
use tdm_sim::stats::{Phase, SimStats};

/// Per-component power figures for the simulated 32-core chip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipPowerModel {
    /// Power of a core actively executing instructions (task bodies or
    /// runtime-system code), in watts.
    pub core_active_w: f64,
    /// Power of an idle, clock-gated core, in watts.
    pub core_idle_w: f64,
    /// Power of the shared uncore (L2, NoC, memory controllers), in watts.
    pub uncore_w: f64,
}

impl Default for ChipPowerModel {
    /// Values representative of a low-voltage 22 nm out-of-order core
    /// (≈1.2 W active, ≈0.45 W clock-gated) plus a 4 MB L2 and NoC.
    fn default() -> Self {
        ChipPowerModel {
            core_active_w: 1.2,
            core_idle_w: 0.45,
            uncore_w: 4.0,
        }
    }
}

impl ChipPowerModel {
    /// Energy in joules consumed by the cores and uncore for the execution
    /// described by `stats`, at clock frequency `frequency`.
    ///
    /// DEPS, SCHED and EXEC cycles count as active; IDLE cycles as gated.
    pub fn energy_joules(&self, stats: &SimStats, frequency: Frequency) -> f64 {
        let mut core_energy = 0.0;
        for core in &stats.cores {
            let active = core.get(Phase::Deps) + core.get(Phase::Sched) + core.get(Phase::Exec);
            let idle = core.get(Phase::Idle);
            core_energy += frequency.secs_from_cycles(active) * self.core_active_w
                + frequency.secs_from_cycles(idle) * self.core_idle_w;
        }
        let uncore_energy = frequency.secs_from_cycles(stats.makespan) * self.uncore_w;
        core_energy + uncore_energy
    }

    /// Average chip power in watts over the execution described by `stats`.
    pub fn average_power_w(&self, stats: &SimStats, frequency: Frequency) -> f64 {
        let time = frequency.secs_from_cycles(stats.makespan);
        if time == 0.0 {
            0.0
        } else {
            self.energy_joules(stats, frequency) / time
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdm_sim::clock::Cycle;

    fn stats_with(active: u64, idle: u64, cores: usize) -> SimStats {
        let mut stats = SimStats::new(cores, 0);
        for core in &mut stats.cores {
            core.add(Phase::Exec, Cycle::new(active));
            core.add(Phase::Idle, Cycle::new(idle));
        }
        stats.makespan = Cycle::new(active + idle);
        stats
    }

    #[test]
    fn busy_chip_burns_more_than_idle_chip() {
        let model = ChipPowerModel::default();
        let freq = Frequency::ghz(2.0);
        let busy = stats_with(2_000_000_000, 0, 4);
        let idle = stats_with(0, 2_000_000_000, 4);
        assert!(model.energy_joules(&busy, freq) > model.energy_joules(&idle, freq));
    }

    #[test]
    fn energy_scales_with_time() {
        let model = ChipPowerModel::default();
        let freq = Frequency::ghz(2.0);
        let short = stats_with(1_000_000, 0, 2);
        let long = stats_with(2_000_000, 0, 2);
        let ratio = model.energy_joules(&long, freq) / model.energy_joules(&short, freq);
        assert!((ratio - 2.0).abs() < 1e-6);
    }

    #[test]
    fn average_power_is_bounded_by_all_active() {
        let model = ChipPowerModel::default();
        let freq = Frequency::ghz(2.0);
        let stats = stats_with(1_000_000, 1_000_000, 32);
        let p = model.average_power_w(&stats, freq);
        let max = 32.0 * model.core_active_w + model.uncore_w;
        let min = 32.0 * model.core_idle_w + model.uncore_w;
        assert!(p > min && p < max, "power {p} outside [{min}, {max}]");
    }

    #[test]
    fn one_second_fully_active_chip_energy() {
        // 32 cores fully active for 1 s at 2 GHz: 32*1.2 + 4 = 42.4 J.
        let model = ChipPowerModel::default();
        let freq = Frequency::ghz(2.0);
        let stats = stats_with(2_000_000_000, 0, 32);
        let e = model.energy_joules(&stats, freq);
        assert!((e - 42.4).abs() < 0.1, "got {e}");
    }

    #[test]
    fn empty_run_has_zero_power() {
        let model = ChipPowerModel::default();
        let stats = SimStats::new(2, 0);
        assert_eq!(model.average_power_w(&stats, Frequency::ghz(2.0)), 0.0);
    }
}
