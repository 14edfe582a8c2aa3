//! Benchmark catalogue and Table II calibration data.
//!
//! The paper evaluates five PARSECSs benchmarks (Blackscholes, Dedup, Ferret,
//! Fluidanimate, Streamcluster) and four HPC kernels (Cholesky, Histogram,
//! LU, QR). Table II lists, for each, the number of tasks and the average
//! task duration at the optimal granularity for the software runtime and for
//! TDM. This module provides the [`Benchmark`] enum used by every harness to
//! iterate over the suite, plus the calibration targets the generators are
//! validated against.

use tdm_runtime::task::Workload;

use crate::stream::TaskStream;

/// The nine benchmarks of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// PARSECSs Blackscholes: option pricing, fork-join chains.
    Blackscholes,
    /// Dense Cholesky factorization of a 2048×2048 matrix, tiled.
    Cholesky,
    /// PARSECSs Dedup: compression pipeline with serialized I/O.
    Dedup,
    /// PARSECSs Ferret: similarity-search pipeline.
    Ferret,
    /// PARSECSs Fluidanimate: 3D stencil over volume partitions.
    Fluidanimate,
    /// Cumulative histogram of a 4096×4096 image.
    Histogram,
    /// Sparse LU decomposition of a 2048×2048 matrix, tiled.
    Lu,
    /// Dense QR factorization of a 1024×1024 matrix, tiled.
    Qr,
    /// PARSECSs Streamcluster: online clustering, fork-join phases.
    Streamcluster,
}

impl Benchmark {
    /// All benchmarks in the order the paper's figures list them.
    pub const ALL: [Benchmark; 9] = [
        Benchmark::Blackscholes,
        Benchmark::Cholesky,
        Benchmark::Dedup,
        Benchmark::Ferret,
        Benchmark::Fluidanimate,
        Benchmark::Histogram,
        Benchmark::Lu,
        Benchmark::Qr,
        Benchmark::Streamcluster,
    ];

    /// Full lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Blackscholes => "blackscholes",
            Benchmark::Cholesky => "cholesky",
            Benchmark::Dedup => "dedup",
            Benchmark::Ferret => "ferret",
            Benchmark::Fluidanimate => "fluidanimate",
            Benchmark::Histogram => "histogram",
            Benchmark::Lu => "LU",
            Benchmark::Qr => "QR",
            Benchmark::Streamcluster => "streamcluster",
        }
    }

    /// Three-letter abbreviation used on the figures' X axes.
    pub fn abbrev(self) -> &'static str {
        match self {
            Benchmark::Blackscholes => "bla",
            Benchmark::Cholesky => "cho",
            Benchmark::Dedup => "ded",
            Benchmark::Ferret => "fer",
            Benchmark::Fluidanimate => "flu",
            Benchmark::Histogram => "hist",
            Benchmark::Lu => "LU",
            Benchmark::Qr => "QR",
            Benchmark::Streamcluster => "str",
        }
    }

    /// Table II calibration targets: `(tasks, avg duration in µs)` at the
    /// optimal granularity for the software runtime.
    pub fn table2_software(self) -> (usize, f64) {
        match self {
            Benchmark::Blackscholes => (3_300, 1_770.0),
            Benchmark::Cholesky => (5_984, 183.0),
            Benchmark::Dedup => (244, 27_748.0),
            Benchmark::Ferret => (1_536, 7_667.0),
            Benchmark::Fluidanimate => (2_560, 1_804.0),
            Benchmark::Histogram => (512, 3_824.0),
            Benchmark::Lu => (1_512, 424.0),
            Benchmark::Qr => (1_496, 997.0),
            Benchmark::Streamcluster => (42_115, 376.0),
        }
    }

    /// Table II calibration targets at the optimal granularity for TDM
    /// (differs from the software optimum only for Blackscholes and QR, where
    /// the reduced runtime overhead makes finer tasks worthwhile).
    pub fn table2_tdm(self) -> (usize, f64) {
        match self {
            Benchmark::Blackscholes => (6_500, 823.0),
            Benchmark::Qr => (11_440, 96.0),
            other => other.table2_software(),
        }
    }

    /// Generates the workload at the software-optimal granularity.
    pub fn software_workload(self) -> Workload {
        self.software_stream().into_workload()
    }

    /// Generates the workload at the TDM-optimal granularity.
    pub fn tdm_workload(self) -> Workload {
        self.tdm_stream().into_workload()
    }

    /// The lazy task stream at the software-optimal granularity —
    /// task-for-task identical to [`Benchmark::software_workload`].
    pub fn software_stream(self) -> TaskStream {
        match self {
            Benchmark::Blackscholes => {
                crate::blackscholes::stream(crate::blackscholes::Params::software())
            }
            Benchmark::Cholesky => crate::cholesky::stream(crate::cholesky::Params::default()),
            Benchmark::Dedup => crate::dedup::stream(),
            Benchmark::Ferret => crate::ferret::stream(),
            Benchmark::Fluidanimate => {
                crate::fluidanimate::stream(crate::fluidanimate::Params::default())
            }
            Benchmark::Histogram => crate::histogram::stream(crate::histogram::Params::default()),
            Benchmark::Lu => crate::lu::stream(crate::lu::Params::default()),
            Benchmark::Qr => crate::qr::stream(crate::qr::Params::default()),
            Benchmark::Streamcluster => {
                crate::streamcluster::stream(crate::streamcluster::Params::default())
            }
        }
    }

    /// The lazy task stream at the TDM-optimal granularity — task-for-task
    /// identical to [`Benchmark::tdm_workload`].
    pub fn tdm_stream(self) -> TaskStream {
        match self {
            Benchmark::Blackscholes => {
                crate::blackscholes::stream(crate::blackscholes::Params::tdm())
            }
            Benchmark::Qr => crate::qr::stream(crate::qr::Params {
                blocks: crate::qr::TDM_BLOCKS,
            }),
            other => other.software_stream(),
        }
    }

    /// A scaled-up lazy stream with **at least** `target_tasks` tasks,
    /// growing the benchmark's natural scaling axis (bigger matrix, longer
    /// input stream, more timesteps…) while keeping per-task granularity at
    /// the Table II optimum. Feed it to
    /// [`simulate_stream`](tdm_runtime::exec::simulate_stream) with a finite
    /// [`window`](tdm_runtime::exec::ExecConfig::window) to run
    /// million-task regions in memory bounded by the window.
    pub fn scaled_stream(self, target_tasks: usize) -> TaskStream {
        match self {
            Benchmark::Blackscholes => crate::blackscholes::stream_scaled(target_tasks),
            Benchmark::Cholesky => crate::cholesky::stream_scaled(target_tasks),
            Benchmark::Dedup => crate::dedup::stream_scaled(target_tasks),
            Benchmark::Ferret => crate::ferret::stream_scaled(target_tasks),
            Benchmark::Fluidanimate => crate::fluidanimate::stream_scaled(target_tasks),
            Benchmark::Histogram => crate::histogram::stream_scaled(target_tasks),
            Benchmark::Lu => crate::lu::stream_scaled(target_tasks),
            Benchmark::Qr => crate::qr::stream_scaled(target_tasks),
            Benchmark::Streamcluster => crate::streamcluster::stream_scaled(target_tasks),
        }
    }
}

impl std::fmt::Display for Benchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Converts a duration in microseconds to cycles at the paper's 2 GHz clock.
pub fn micros(us: f64) -> tdm_sim::clock::Cycle {
    tdm_sim::clock::Frequency::ghz(2.0).cycles_from_micros(us)
}

/// Checks that a generated workload matches a `(tasks, avg µs)` calibration
/// target within the given relative tolerances. Returns a description of the
/// first mismatch.
pub fn check_calibration(
    workload: &Workload,
    target: (usize, f64),
    task_tolerance: f64,
    duration_tolerance: f64,
) -> Result<(), String> {
    let (target_tasks, target_us) = target;
    let tasks = workload.len();
    let task_err = (tasks as f64 - target_tasks as f64).abs() / target_tasks as f64;
    if task_err > task_tolerance {
        return Err(format!(
            "{}: {} tasks generated, Table II lists {} (error {:.1}%)",
            workload.name,
            tasks,
            target_tasks,
            task_err * 100.0
        ));
    }
    let avg_us = workload.average_duration().as_f64() / 2000.0;
    let dur_err = (avg_us - target_us).abs() / target_us;
    if dur_err > duration_tolerance {
        return Err(format!(
            "{}: average duration {:.0} µs, Table II lists {:.0} µs (error {:.1}%)",
            workload.name,
            avg_us,
            target_us,
            dur_err * 100.0
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nine_benchmarks_with_unique_names() {
        assert_eq!(Benchmark::ALL.len(), 9);
        let mut names: Vec<_> = Benchmark::ALL.iter().map(|b| b.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 9);
        let mut abbrevs: Vec<_> = Benchmark::ALL.iter().map(|b| b.abbrev()).collect();
        abbrevs.sort_unstable();
        abbrevs.dedup();
        assert_eq!(abbrevs.len(), 9);
    }

    #[test]
    fn table2_matches_paper_values() {
        assert_eq!(Benchmark::Cholesky.table2_software(), (5_984, 183.0));
        assert_eq!(Benchmark::Streamcluster.table2_software(), (42_115, 376.0));
        assert_eq!(Benchmark::Qr.table2_tdm(), (11_440, 96.0));
        assert_eq!(Benchmark::Blackscholes.table2_tdm(), (6_500, 823.0));
        // Benchmarks other than bla and QR use the same granularity for both.
        assert_eq!(
            Benchmark::Dedup.table2_tdm(),
            Benchmark::Dedup.table2_software()
        );
    }

    #[test]
    fn average_durations_table2() {
        // Weighted averages reported in Table II: software 4976 µs, TDM 4771 µs.
        let avg_sw: f64 = Benchmark::ALL
            .iter()
            .map(|b| b.table2_software().1)
            .sum::<f64>()
            / 9.0;
        assert!((avg_sw - 4976.0).abs() / 4976.0 < 0.02, "got {avg_sw}");
        let avg_tdm: f64 = Benchmark::ALL.iter().map(|b| b.table2_tdm().1).sum::<f64>() / 9.0;
        assert!((avg_tdm - 4771.0).abs() / 4771.0 < 0.02, "got {avg_tdm}");
    }

    #[test]
    fn micros_helper_uses_2ghz() {
        assert_eq!(micros(1.0).raw(), 2000);
    }

    #[test]
    fn check_calibration_detects_mismatches() {
        let w = Workload::new(
            "fake",
            vec![tdm_runtime::task::TaskSpec::new("t", micros(100.0), vec![])],
        );
        assert!(check_calibration(&w, (1, 100.0), 0.05, 0.05).is_ok());
        assert!(check_calibration(&w, (10, 100.0), 0.05, 0.05).is_err());
        assert!(check_calibration(&w, (1, 500.0), 0.05, 0.05).is_err());
    }
}
