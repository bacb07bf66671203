//! Experiment E1 — **Table 1**: "Reported minimal access rate to trigger
//! bitflips."
//!
//! For every module profile in the table, a fresh simulated module is built
//! and the minimal double-sided access rate that produces a flip is
//! *measured* through the full simulator (refresh windows, row-buffer
//! policy, address mapping) by binary search. The measured column should
//! match the paper's reported rate in ordering and rough magnitude.
//!
//! Rows run as the shards of one supervised campaign, so the table is
//! bit-identical for any `--threads` value; a row whose shard panics fails
//! the run.

use ssdhammer_dram::{
    hammer::measure_min_flip_rate, DramGeometry, DramModule, MappingKind, ModuleProfile,
};
use ssdhammer_simkit::json::{Json, ToJson};
use ssdhammer_simkit::supervisor::Supervisor;
use ssdhammer_simkit::SimClock;

use crate::scenario::{Output, Scenario, ScenarioCfg};

/// One reproduced row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Publication year.
    pub year: u16,
    /// Citation tag as printed in the paper.
    pub refs: String,
    /// Module label.
    pub module: String,
    /// The paper's reported minimal rate, K accesses/s.
    pub paper_kaps: u32,
    /// Our measured minimal rate, K accesses/s (`None` if no flip below the
    /// search ceiling).
    pub measured_kaps: Option<f64>,
}

impl ToJson for Table1Row {
    fn to_json(&self) -> Json {
        Json::obj([
            ("year", Json::from(self.year)),
            ("refs", Json::str(&*self.refs)),
            ("module", Json::str(&*self.module)),
            ("paper_kaps", Json::from(self.paper_kaps)),
            ("measured_kaps", self.measured_kaps.to_json()),
        ])
    }
}

/// The Table 1 campaign: one supervised shard per module row. Each row
/// builds its own module and clock from `seed`, rows merge in table order,
/// and a row whose shard panics fails the run.
fn campaign(seed: u64, threads: usize) -> Vec<Table1Row> {
    let profiles = ModuleProfile::table1();
    let sup = Supervisor::new(seed)
        .with_tag("table1")
        .with_threads(threads);
    sup.run(profiles.len(), |ctx| {
        let (year, refs, profile) = &profiles[ctx.trial.index];
        let paper_kaps = profile.min_flip_rate_kaps;
        let factory = move || {
            DramModule::builder(DramGeometry::tiny_test())
                .profile(profile.clone())
                .mapping(MappingKind::Linear)
                .seed(seed)
                .without_timing()
                .build(SimClock::new())
        };
        let measured = measure_min_flip_rate(&factory, 50_000.0, 20_000_000.0, 1, 0.02);
        Table1Row {
            year: *year,
            refs: (*refs).to_owned(),
            module: profile.name.clone(),
            paper_kaps,
            measured_kaps: measured.map(|m| m.min_rate / 1000.0),
        }
    })
    .into_complete()
}

/// Formats the reproduced table like the paper's.
fn render(rows: &[Table1Row]) -> String {
    let mut out = String::from(
        "Table 1: minimal access rate to trigger bitflips (paper vs measured)\n\
         year  refs       module                        paper(K/s)  measured(K/s)  ratio\n",
    );
    for r in rows {
        let (measured, ratio) = match r.measured_kaps {
            Some(m) => (
                format!("{m:.0}"),
                format!("{:.2}", m / f64::from(r.paper_kaps)),
            ),
            None => ("no flip".into(), "-".into()),
        };
        out.push_str(&format!(
            "{:<5} {:<10} {:<29} {:>10} {:>14} {:>6}\n",
            r.year, r.refs, r.module, r.paper_kaps, measured, ratio
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(seed: u64) -> Vec<Table1Row> {
        campaign(seed, 1)
    }

    #[test]
    fn all_rows_measure_and_track_calibration() {
        let rows = run(3);
        assert_eq!(rows.len(), 14);
        for r in &rows {
            let m = r
                .measured_kaps
                .unwrap_or_else(|| panic!("{} did not flip", r.module));
            let ratio = m / f64::from(r.paper_kaps);
            assert!(
                (0.85..1.7).contains(&ratio),
                "{}: measured {m:.0} K/s vs paper {} K/s",
                r.module,
                r.paper_kaps
            );
        }
    }

    #[test]
    fn ordering_is_preserved() {
        // The most vulnerable module (LPDDR4 new, 150 K/s) must measure
        // lower than the least vulnerable (DDR3 2018, 9400 K/s).
        let rows = run(3);
        let get = |name: &str| {
            rows.iter()
                .find(|r| r.module.contains(name))
                .and_then(|r| r.measured_kaps)
                .unwrap()
        };
        assert!(get("LPDDR4 (new)") < get("DDR4 (old)"));
        assert!(get("DDR4 (old)") < get("DDR3 (2018)"));
    }

    #[test]
    fn render_contains_all_modules() {
        let rows = run(3);
        let text = render(&rows);
        for r in &rows {
            assert!(text.contains(&r.module));
        }
    }
}

// ---- scenario entry ---------------------------------------------------------

/// [`Scenario`] wrapper: `repro table1`.
#[derive(Debug, Clone, Copy)]
pub struct Table1Scenario;

impl Scenario for Table1Scenario {
    fn name(&self) -> &'static str {
        "table1"
    }

    fn run(&self, _cfg: ScenarioCfg, seed: u64, threads: usize) -> Output {
        let rows = campaign(seed, threads);
        Output::new(rows.to_json(), render(&rows))
    }
}
