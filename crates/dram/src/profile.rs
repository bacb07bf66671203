//! Per-module vulnerability profiles, calibrated against Table 1 of the
//! paper ("Reported minimal access rate to trigger bitflips").
//!
//! The simulator's disturbance model is *calibrated*, not ab-initio: each
//! profile carries the hammer count that its weakest cells need inside one
//! 64 ms refresh window, derived from the minimal flipping access rate the
//! literature reports for that module class. The Table 1 harness then
//! *measures* the minimal rate through the full simulator (refresh windows,
//! row-buffer policy, address mapping), which validates the machinery and
//! reproduces the table's shape.

use ssdhammer_simkit::SimDuration;

/// DRAM technology generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DramGeneration {
    /// DDR3 SDRAM.
    Ddr3,
    /// Low-power DDR3.
    Lpddr3,
    /// DDR4 SDRAM.
    Ddr4,
    /// Low-power DDR4.
    Lpddr4,
}

impl core::fmt::Display for DramGeneration {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            DramGeneration::Ddr3 => "DDR3",
            DramGeneration::Lpddr3 => "LPDDR3",
            DramGeneration::Ddr4 => "DDR4",
            DramGeneration::Lpddr4 => "LPDDR4",
        };
        f.write_str(s)
    }
}

/// Row-buffer management policy of the memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RowPolicy {
    /// Keep the row open until a different row is accessed; consecutive
    /// accesses to the open row do not re-activate it.
    #[default]
    OpenPage,
    /// Precharge after every access; every access is an activation. Enables
    /// one-location hammering (Gruss et al. 2018).
    ClosedPage,
}

/// Vulnerability and timing profile of one DRAM module.
///
/// # Examples
///
/// ```
/// use ssdhammer_dram::ModuleProfile;
///
/// let m = ModuleProfile::lpddr4_new_2020();
/// // 150 K accesses/s over a 64 ms window:
/// assert_eq!(m.hc_first, 150 * 64);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleProfile {
    /// Human-readable module label as it appears in Table 1.
    pub name: String,
    /// Technology generation.
    pub generation: DramGeneration,
    /// Publication year of the rate measurement.
    pub year: u16,
    /// Calibration target: minimal access rate that triggers bitflips, in
    /// thousands of accesses per second (Table 1's `rate` column).
    pub min_flip_rate_kaps: u32,
    /// Hammer count needed within one refresh window to flip the module's
    /// weakest cells: `min_flip_rate × refresh_interval`.
    pub hc_first: u64,
    /// Relative spread of per-cell thresholds above `hc_first` (exponential
    /// tail scale; 0 makes every weak cell flip exactly at `hc_first`).
    pub threshold_spread: f64,
    /// Probability that a given row contains any weak cells at all —
    /// manufacturing variation; "rowhammerability … must be tested online"
    /// (§4.2).
    pub row_vulnerable_prob: f64,
    /// Expected number of weak cells in a vulnerable row.
    pub weak_cells_per_row: f64,
    /// Disturbance weight of aggressors two rows away relative to adjacent
    /// aggressors (half-double style coupling; 0 disables).
    pub distance2_factor: f64,
    /// Refresh window (64 ms unless a mitigation shortens it).
    pub refresh_interval: SimDuration,
    /// Row-buffer policy.
    pub row_policy: RowPolicy,
}

impl ModuleProfile {
    /// Builds a profile whose weakest cells flip at `min_rate_kaps` thousand
    /// accesses per second, the calibration described in the module docs.
    ///
    /// # Panics
    ///
    /// Panics if `min_rate_kaps` is zero.
    #[must_use]
    pub fn from_min_rate(
        name: &str,
        generation: DramGeneration,
        year: u16,
        min_rate_kaps: u32,
    ) -> Self {
        assert!(min_rate_kaps > 0, "minimal rate must be positive");
        let refresh = SimDuration::from_millis(64);
        ModuleProfile {
            name: name.to_owned(),
            generation,
            year,
            min_flip_rate_kaps: min_rate_kaps,
            // rate [1/s] × window [s] = K-rate × 1000 × 0.064 = K-rate × 64.
            hc_first: u64::from(min_rate_kaps) * 64,
            threshold_spread: 0.5,
            row_vulnerable_prob: 0.30,
            weak_cells_per_row: 2.0,
            distance2_factor: 0.0,
            refresh_interval: refresh,
            row_policy: RowPolicy::OpenPage,
        }
    }

    /// Scales the refresh interval by `1/factor` (a faster-refresh
    /// mitigation; §5 notes it is "prohibitively power-hungry").
    #[must_use]
    pub fn with_refresh_multiplier(mut self, factor: u32) -> Self {
        assert!(factor > 0, "refresh multiplier must be positive");
        self.refresh_interval = self.refresh_interval / u64::from(factor);
        self
    }

    /// An invulnerable control profile (no cell flips at any rate).
    #[must_use]
    pub fn invulnerable() -> Self {
        let mut p = Self::from_min_rate("control (no weak cells)", DramGeneration::Ddr4, 2021, 1);
        p.row_vulnerable_prob = 0.0;
        p.min_flip_rate_kaps = u32::MAX;
        p.hc_first = u64::MAX;
        p
    }

    // ---- Table 1 presets -------------------------------------------------

    /// 2014, Kim et al. \[26\], DDR3, 2 200 K accesses/s.
    #[must_use]
    pub fn ddr3_2014_a() -> Self {
        Self::from_min_rate("DDR3 (2014, module A)", DramGeneration::Ddr3, 2014, 2200)
    }

    /// 2014, Kim et al. \[26\], DDR3, 2 500 K accesses/s.
    #[must_use]
    pub fn ddr3_2014_b() -> Self {
        Self::from_min_rate("DDR3 (2014, module B)", DramGeneration::Ddr3, 2014, 2500)
    }

    /// 2014, Kim et al. \[26\], DDR3, 4 400 K accesses/s.
    #[must_use]
    pub fn ddr3_2014_c() -> Self {
        Self::from_min_rate("DDR3 (2014, module C)", DramGeneration::Ddr3, 2014, 4400)
    }

    /// 2016, Gruss et al. / van der Veen et al. [20, 49], DDR3, 672 K/s.
    #[must_use]
    pub fn ddr3_2016() -> Self {
        Self::from_min_rate("DDR3 (2016)", DramGeneration::Ddr3, 2016, 672)
    }

    /// 2016 [20, 49], LPDDR3, 4 000 K/s.
    #[must_use]
    pub fn lpddr3_2016() -> Self {
        Self::from_min_rate("LPDDR3 (2016)", DramGeneration::Lpddr3, 2016, 4000)
    }

    /// 2018, Nethammer/Throwhammer [31, 48], DDR3, 9 400 K/s.
    #[must_use]
    pub fn ddr3_2018() -> Self {
        Self::from_min_rate("DDR3 (2018)", DramGeneration::Ddr3, 2018, 9400)
    }

    /// 2018 [31, 48], DDR4, 6 140 K/s.
    #[must_use]
    pub fn ddr4_2018() -> Self {
        Self::from_min_rate("DDR4 (2018)", DramGeneration::Ddr4, 2018, 6140)
    }

    /// 2020, TRRespass / Kim et al. [17, 25], DDR4, 800 K/s.
    #[must_use]
    pub fn ddr4_2020() -> Self {
        Self::from_min_rate("DDR4 (2020)", DramGeneration::Ddr4, 2020, 800)
    }

    /// 2020 [17, 25], DDR3 (old), 4 800 K/s.
    #[must_use]
    pub fn ddr3_old_2020() -> Self {
        Self::from_min_rate("DDR3 (old)", DramGeneration::Ddr3, 2020, 4800)
    }

    /// 2020 [17, 25], DDR3 (new), 750 K/s.
    #[must_use]
    pub fn ddr3_new_2020() -> Self {
        Self::from_min_rate("DDR3 (new)", DramGeneration::Ddr3, 2020, 750)
    }

    /// 2020 [17, 25], DDR4 (old), 547 K/s.
    #[must_use]
    pub fn ddr4_old_2020() -> Self {
        Self::from_min_rate("DDR4 (old)", DramGeneration::Ddr4, 2020, 547)
    }

    /// 2020 [17, 25], DDR4 (new), 313 K/s.
    #[must_use]
    pub fn ddr4_new_2020() -> Self {
        Self::from_min_rate("DDR4 (new)", DramGeneration::Ddr4, 2020, 313)
    }

    /// 2020 [17, 25], LPDDR4 (old), 1 400 K/s.
    #[must_use]
    pub fn lpddr4_old_2020() -> Self {
        Self::from_min_rate("LPDDR4 (old)", DramGeneration::Lpddr4, 2020, 1400)
    }

    /// 2020 [17, 25], LPDDR4 (new), 150 K/s — the paper's low-water mark for
    /// "a bitflip has been observed at rates as low as 700 K per second"
    /// territory and below.
    #[must_use]
    pub fn lpddr4_new_2020() -> Self {
        Self::from_min_rate("LPDDR4 (new)", DramGeneration::Lpddr4, 2020, 150)
    }

    /// Every Table 1 row, in the paper's order, with the year+citation tag
    /// used in the `refs` column.
    #[must_use]
    pub fn table1() -> Vec<(u16, &'static str, ModuleProfile)> {
        vec![
            (2014, "[26]", Self::ddr3_2014_a()),
            (2014, "[26]", Self::ddr3_2014_b()),
            (2014, "[26]", Self::ddr3_2014_c()),
            (2016, "[20, 49]", Self::ddr3_2016()),
            (2016, "[20, 49]", Self::lpddr3_2016()),
            (2018, "[31, 48]", Self::ddr3_2018()),
            (2018, "[31, 48]", Self::ddr4_2018()),
            (2020, "[17, 25]", Self::ddr4_2020()),
            (2020, "[17, 25]", Self::ddr3_old_2020()),
            (2020, "[17, 25]", Self::ddr3_new_2020()),
            (2020, "[17, 25]", Self::ddr4_old_2020()),
            (2020, "[17, 25]", Self::ddr4_new_2020()),
            (2020, "[17, 25]", Self::lpddr4_old_2020()),
            (2020, "[17, 25]", Self::lpddr4_new_2020()),
        ]
    }

    /// The paper's testbed module: DDR3 DIMMs that flip "from direct accesses
    /// at a rate of 3M per second" (§4.1).
    #[must_use]
    pub fn testbed_ddr3() -> Self {
        Self::from_min_rate(
            "testbed DDR3 (Samsung, §4.1)",
            DramGeneration::Ddr3,
            2021,
            3000,
        )
    }

    /// The mitigation demos' DDR4 module (§5 matrix, defense matrix,
    /// `mitigations` example): it flips at 100 K accesses/s, below every
    /// Table 1 row, and every row holds 8 weak cells, so an attack's
    /// outcome is decided by the defense, not by profile sampling.
    #[must_use]
    pub fn demo_ddr4() -> Self {
        ModuleProfile {
            row_vulnerable_prob: 1.0,
            weak_cells_per_row: 8.0,
            ..Self::from_min_rate("demo DDR4", DramGeneration::Ddr4, 2020, 100)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hc_first_is_rate_times_window() {
        let p = ModuleProfile::ddr3_2014_a();
        assert_eq!(p.hc_first, 2200 * 64);
        assert_eq!(p.refresh_interval, SimDuration::from_millis(64));
    }

    #[test]
    fn table1_has_all_fourteen_rows() {
        let t = ModuleProfile::table1();
        assert_eq!(t.len(), 14);
        let rates: Vec<u32> = t.iter().map(|(_, _, p)| p.min_flip_rate_kaps).collect();
        assert_eq!(
            rates,
            vec![2200, 2500, 4400, 672, 4000, 9400, 6140, 800, 4800, 750, 547, 313, 1400, 150]
        );
    }

    #[test]
    fn newer_modules_are_more_vulnerable() {
        // §2.3: "the smaller technology node in newer DRAM modules makes them
        // even more vulnerable" — old vs new pairs within the 2020 study.
        assert!(ModuleProfile::ddr3_new_2020().hc_first < ModuleProfile::ddr3_old_2020().hc_first);
        assert!(ModuleProfile::ddr4_new_2020().hc_first < ModuleProfile::ddr4_old_2020().hc_first);
        assert!(
            ModuleProfile::lpddr4_new_2020().hc_first < ModuleProfile::lpddr4_old_2020().hc_first
        );
    }

    #[test]
    fn refresh_multiplier_shortens_window() {
        let p = ModuleProfile::ddr3_2016().with_refresh_multiplier(2);
        assert_eq!(p.refresh_interval, SimDuration::from_millis(32));
    }

    #[test]
    fn invulnerable_has_no_weak_rows() {
        let p = ModuleProfile::invulnerable();
        assert_eq!(p.row_vulnerable_prob, 0.0);
        assert_eq!(p.hc_first, u64::MAX);
    }

    #[test]
    fn generation_display() {
        assert_eq!(DramGeneration::Lpddr4.to_string(), "LPDDR4");
    }
}
