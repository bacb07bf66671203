//! Experiment E7 — **§2.3**: feasibility. "State-of-the-art rowhammering
//! attacks on modern DRAM modules require as few as ~50K row accesses per a
//! 64ms refresh interval, i.e., ~780K accesses per second. Consequently,
//! NVMe interfaces easily allow sufficiently high 4KiB-based I/O rates
//! necessary for a successful rowhammering attack."
//!
//! We measure the DRAM activation rate each controller generation can drive
//! through the FTL and count how many Table 1 module classes fall below it.

use ssdhammer_dram::{HammerOptions, ModuleProfile};
use ssdhammer_nvme::{InterfaceGen, Ssd, SsdConfig};
use ssdhammer_simkit::json::{Json, ToJson};
use ssdhammer_simkit::Lba;

/// One feasibility sweep point.
#[derive(Debug, Clone)]
pub struct Sec23Row {
    /// Controller generation.
    pub interface: String,
    /// Peak command rate of the controller, IOPS.
    pub max_iops: f64,
    /// Measured DRAM activation rate at amplification 1, accesses/s.
    pub act_rate: f64,
    /// Table 1 module classes attackable at this rate (of 14).
    pub attackable_modules: usize,
    /// Whether the §2.3 reference threshold (~780 K acc/s) is exceeded.
    pub exceeds_reference: bool,
}

impl ToJson for Sec23Row {
    fn to_json(&self) -> Json {
        Json::obj([
            ("interface", Json::str(&*self.interface)),
            ("max_iops", Json::from(self.max_iops)),
            ("act_rate", Json::from(self.act_rate)),
            ("attackable_modules", Json::from(self.attackable_modules)),
            ("exceeds_reference", Json::from(self.exceeds_reference)),
        ])
    }
}

/// The §2.3 reference rate: ~50 K accesses per 64 ms window.
pub const REFERENCE_RATE: f64 = 780_000.0;

fn measure_act_rate(interface: InterfaceGen, seed: u64) -> (f64, f64) {
    let mut config = SsdConfig::test_small(seed);
    config.dram_profile = ModuleProfile::invulnerable();
    config.controller.interface = interface;
    let mut ssd = Ssd::build(config);
    // The paper's attacker drives the device from multiple deep queue pairs;
    // one saturated pair per I/O core lifts `max_iops` to the controller's
    // full multi-queue ceiling, which is the rate this feasibility sweep
    // (and Table 1's minimum-rate check) measures against.
    for _ in 0..Ssd::IO_CORES {
        let _ = ssd.create_queue_pair(usize::try_from(Ssd::QD_SATURATION).expect("depth"));
    }
    let report = ssd
        .hammer_device_reads(
            &[Lba(0), Lba(512)],
            500_000,
            100_000_000.0,
            HammerOptions::default(),
        )
        .expect("hammer");
    (ssd.max_iops(), report.achieved_rate)
}

/// Runs the feasibility sweep across controller generations.
fn run(seed: u64) -> Vec<Sec23Row> {
    let rates: Vec<f64> = ModuleProfile::table1()
        .into_iter()
        .map(|(_, _, p)| f64::from(p.min_flip_rate_kaps) * 1000.0)
        .collect();
    [
        InterfaceGen::Pcie3,
        InterfaceGen::Pcie4,
        InterfaceGen::Pcie5,
    ]
    .into_iter()
    .map(|interface| {
        let (max_iops, act_rate) = measure_act_rate(interface, seed);
        Sec23Row {
            interface: interface.to_string(),
            max_iops,
            act_rate,
            attackable_modules: rates.iter().filter(|&&r| r <= act_rate).count(),
            exceeds_reference: act_rate >= REFERENCE_RATE,
        }
    })
    .collect()
}

/// Renders the sweep.
fn render(rows: &[Sec23Row]) -> String {
    let mut out = String::from(
        "§2.3: feasibility — achievable FTL DRAM activation rate vs required rates\n\
         interface   max IOPS(M)  act-rate(M/s)  attackable Table-1 modules (of 14)  >780K/s?\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<11} {:>11.2} {:>14.2} {:>35} {:>9}\n",
            r.interface,
            r.max_iops / 1e6,
            r.act_rate / 1e6,
            r.attackable_modules,
            if r.exceeds_reference { "yes" } else { "no" },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modern_interfaces_cross_the_feasibility_threshold() {
        let rows = run(1);
        assert_eq!(rows.len(), 3);
        let by_name = |n: &str| rows.iter().find(|r| r.interface.contains(n)).unwrap();
        // §3.1: ~1.5M IOPS on PCIe 4.0, >2M on PCIe 5.0; both exceed 780K/s.
        assert!(by_name("4.0").exceeds_reference);
        assert!(by_name("5.0").exceeds_reference);
        assert!(by_name("5.0").act_rate > 2_000_000.0);
        // Newer interfaces attack at least as many module classes.
        assert!(by_name("5.0").attackable_modules >= by_name("4.0").attackable_modules);
        assert!(by_name("4.0").attackable_modules >= by_name("3.0").attackable_modules);
        // Even PCIe 3.0 reaches the most vulnerable modern modules (150K/s).
        assert!(by_name("3.0").attackable_modules >= 1);
    }
}

// ---- scenario entry ---------------------------------------------------------

use crate::scenario::{Output, Scenario, ScenarioCfg};

/// [`Scenario`] wrapper: `repro feasibility`.
#[derive(Debug, Clone, Copy)]
pub struct Sec23Scenario;

impl Scenario for Sec23Scenario {
    fn name(&self) -> &'static str {
        "feasibility"
    }

    fn run(&self, _cfg: ScenarioCfg, seed: u64, _threads: usize) -> Output {
        let rows = run(seed);
        Output::new(rows.to_json(), render(&rows))
    }
}
