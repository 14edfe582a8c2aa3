//! CACTI-style SRAM area and energy estimates.
//!
//! The paper models the DMU structures with CACTI 6.0 at 22 nm to obtain the
//! per-structure areas of Table III (0.17 mm² total) and reports that the DMU
//! contributes less than 0.01 % of chip power. We reproduce that with a
//! simple linear model fitted to Table III: small SRAMs have a fixed layout
//! overhead (larger for set-associative arrays, which need comparators and
//! way multiplexers) plus an area term proportional to capacity.

/// The kind of SRAM macro, which determines the fixed layout overhead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SramKind {
    /// Direct-mapped array (Task Table, Dependence Table, list arrays).
    DirectMapped,
    /// Set-associative array with tag comparison (TAT, DAT).
    SetAssociative,
    /// FIFO queue (Ready Queue).
    Fifo,
}

/// Fixed area overhead per macro, in mm² at 22 nm.
fn base_area_mm2(kind: SramKind) -> f64 {
    match kind {
        SramKind::DirectMapped => 0.010,
        SramKind::SetAssociative => 0.018,
        SramKind::Fifo => 0.010,
    }
}

/// Area per kilobyte of capacity, in mm²/KB at 22 nm.
const AREA_PER_KB_MM2: f64 = 0.00068;

/// Estimated area of an SRAM macro of `kilobytes` capacity.
pub fn area_mm2(kilobytes: f64, kind: SramKind) -> f64 {
    assert!(kilobytes >= 0.0, "capacity cannot be negative");
    base_area_mm2(kind) + kilobytes * AREA_PER_KB_MM2
}

/// Estimated dynamic energy of one access to an SRAM macro of `kilobytes`
/// capacity, in picojoules (22 nm, 0.6 V).
pub fn access_energy_pj(kilobytes: f64, kind: SramKind) -> f64 {
    assert!(kilobytes >= 0.0, "capacity cannot be negative");
    let base = match kind {
        SramKind::DirectMapped => 0.8,
        SramKind::SetAssociative => 1.6, // tag comparison across ways
        SramKind::Fifo => 0.6,
    };
    base + 0.05 * kilobytes
}

/// Estimated leakage power of an SRAM macro of `kilobytes` capacity, in
/// milliwatts (22 nm, 0.6 V, with clock gating).
pub fn leakage_mw(kilobytes: f64) -> f64 {
    assert!(kilobytes >= 0.0, "capacity cannot be negative");
    0.01 + 0.012 * kilobytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdm_core::area::DmuStorageReport;
    use tdm_core::config::DmuConfig;

    /// Recomputes the per-structure areas of Table III and checks both the
    /// individual values and the 0.17 mm² total.
    #[test]
    fn table_iii_areas_are_reproduced() {
        let report = DmuStorageReport::for_config(&DmuConfig::default());
        let kind_of = |name: &str| match name {
            "TAT" | "DAT" => SramKind::SetAssociative,
            "ReadyQ" => SramKind::Fifo,
            _ => SramKind::DirectMapped,
        };
        let expected = [
            ("Task Table", 0.026),
            ("Dep Table", 0.013),
            ("TAT", 0.031),
            ("DAT", 0.031),
            ("SLA", 0.019),
            ("DLA", 0.019),
            ("RLA", 0.019),
            ("ReadyQ", 0.012),
        ];
        let mut total = 0.0;
        for (name, paper_mm2) in expected {
            let kb = report.kilobytes_of(name).unwrap();
            let got = area_mm2(kb, kind_of(name));
            total += got;
            assert!(
                (got - paper_mm2).abs() / paper_mm2 < 0.25,
                "{name}: expected ≈{paper_mm2} mm², computed {got:.4} mm²"
            );
        }
        assert!(
            (total - 0.17).abs() / 0.17 < 0.15,
            "total DMU area expected ≈0.17 mm², computed {total:.3} mm²"
        );
    }

    #[test]
    fn area_grows_with_capacity_and_associativity() {
        assert!(area_mm2(32.0, SramKind::DirectMapped) > area_mm2(16.0, SramKind::DirectMapped));
        assert!(area_mm2(16.0, SramKind::SetAssociative) > area_mm2(16.0, SramKind::DirectMapped));
    }

    #[test]
    fn access_energy_and_leakage_are_positive_and_monotonic() {
        assert!(access_energy_pj(0.0, SramKind::Fifo) > 0.0);
        assert!(
            access_energy_pj(64.0, SramKind::DirectMapped)
                > access_energy_pj(8.0, SramKind::DirectMapped)
        );
        assert!(leakage_mw(64.0) > leakage_mw(8.0));
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_capacity_panics() {
        let _ = area_mm2(-1.0, SramKind::Fifo);
    }
}
