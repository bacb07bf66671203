//! The attack campaign grid (`repro attacks`): every hammer pattern from
//! the registry crossed with every victim structure, each cell one
//! [`AttackPipeline`] run on a fresh swizzled-mapping device.
//!
//! The grid is the modular-pipeline payoff: §3.1's demonstrated two-sided /
//! L2P attack is one cell; TRRespass-style many-sided, one-location, and
//! RowPress dwell patterns against the bad-block table, the journal write
//! cache, and the wear counters are the rest. Cells where a combination is
//! structurally impossible (many-sided needs six same-bank sites; the
//! single-row metadata mirrors cannot provide them) report the typed error
//! instead of a result — that, too, is a finding.
//!
//! Cells run as the shards of one supervised campaign, so the output
//! document is bit-identical for any `--threads` value; a cell whose shard
//! panics fails the run.

use ssdhammer_core::{pattern_names, victim_names, AttackError, AttackPipeline};
use ssdhammer_dram::{DramGeneration, MappingKind, ModuleProfile};
use ssdhammer_nvme::{Ssd, SsdConfig};
use ssdhammer_simkit::json::{Json, ToJson};
use ssdhammer_simkit::supervisor::Supervisor;
use ssdhammer_simkit::SimDuration;

use crate::scenario::{Output, Scenario, ScenarioCfg};

/// One (pattern, victim) cell of the campaign grid.
#[derive(Debug, Clone)]
pub struct GridCell {
    /// Hammer pattern registry name.
    pub pattern: &'static str,
    /// Victim structure registry name.
    pub victim: &'static str,
    /// Placement the cell used (`same_bank` for many-sided, else
    /// `cross_bank`).
    pub placement: &'static str,
    /// Sites the pattern spanned.
    pub sites_used: usize,
    /// Physical bitflips induced.
    pub flips: u64,
    /// Achieved DRAM activation rate, accesses/s.
    pub achieved_rate: f64,
    /// Victim units whose observation changed.
    pub changes: u64,
    /// Changes the host would not notice (usable by the exploit chain).
    pub silent: u64,
    /// Changes surfacing as device errors.
    pub loud: u64,
    /// Typed pipeline error, when the combination cannot run.
    pub error: Option<String>,
}

impl ToJson for GridCell {
    fn to_json(&self) -> Json {
        Json::obj([
            ("pattern", Json::from(self.pattern)),
            ("victim", Json::from(self.victim)),
            ("placement", Json::from(self.placement)),
            ("sites_used", Json::from(self.sites_used)),
            ("flips", Json::from(self.flips)),
            ("achieved_rate", Json::from(self.achieved_rate)),
            ("changes", Json::from(self.changes)),
            ("silent", Json::from(self.silent)),
            ("loud", Json::from(self.loud)),
            (
                "error",
                match &self.error {
                    Some(e) => Json::str(e.as_str()),
                    None => Json::Null,
                },
            ),
        ])
    }
}

/// Deterministically vulnerable DDR4 under the XOR-swizzled controller
/// mapping — the mapping that interleaves the metadata mirrors' rows with
/// L2P rows, making every victim in the registry reachable.
fn grid_config(seed: u64) -> SsdConfig {
    let mut p = ModuleProfile::from_min_rate("grid DDR4", DramGeneration::Ddr4, 2020, 313);
    p.row_vulnerable_prob = 1.0;
    p.weak_cells_per_row = 8.0;
    SsdConfig {
        dram_profile: p,
        dram_mapping: MappingKind::default_xor(),
        ..SsdConfig::test_small(seed)
    }
}

/// Placement a pattern wants: many-sided needs its aggressor pairs in one
/// bank; everything else takes the weakest sites wherever they are.
fn placement_for(pattern: &str) -> &'static str {
    if pattern == "many_sided" {
        "same_bank"
    } else {
        "cross_bank"
    }
}

/// Runs one grid cell on a fresh device.
fn run_cell(seed: u64, pattern: &'static str, victim: &'static str) -> GridCell {
    let placement = placement_for(pattern);
    let pipeline = AttackPipeline::from_names(pattern, victim, placement)
        .expect("registry names are valid")
        .with_rate(2_000_000.0)
        .with_duration(SimDuration::from_millis(400));
    let mut config = grid_config(seed);
    pipeline.configure(&mut config);
    let mut ssd = Ssd::build(config);
    let mut cell = GridCell {
        pattern,
        victim,
        placement,
        sites_used: 0,
        flips: 0,
        achieved_rate: 0.0,
        changes: 0,
        silent: 0,
        loud: 0,
        error: None,
    };
    match pipeline.run(&mut ssd) {
        Ok(outcome) => {
            cell.sites_used = outcome.sites_used;
            cell.flips = outcome.report.flips.len() as u64;
            cell.achieved_rate = outcome.report.achieved_rate;
            cell.changes = outcome.changes.len() as u64;
            cell.silent = outcome.silent_count() as u64;
            cell.loud = outcome.loud_count() as u64;
        }
        Err(e) => cell.error = Some(e.to_string()),
    }
    cell
}

/// The (pattern, victim) cells `cfg` selects, in grid order: every
/// registry pattern crossed with every victim, restricted to one
/// pattern's or one victim's cells by `cfg.pattern` and `cfg.victim`.
/// The one check of the grid filters: [`AttacksScenario`] runs these
/// cells, and `repro` calls it to reject a filter before anything runs.
///
/// # Errors
///
/// [`AttackError::UnknownPattern`] or [`AttackError::UnknownVictim`] when
/// a filter names nothing in its registry.
pub fn grid_cells(cfg: &ScenarioCfg) -> Result<Vec<(&'static str, &'static str)>, AttackError> {
    let patterns: Vec<&'static str> = match cfg.pattern.as_deref() {
        Some(p) => vec![*pattern_names()
            .iter()
            .find(|n| **n == p)
            .ok_or_else(|| AttackError::UnknownPattern(p.to_owned()))?],
        None => pattern_names().to_vec(),
    };
    let victims: Vec<&'static str> = match cfg.victim.as_deref() {
        Some(v) => vec![*victim_names()
            .iter()
            .find(|n| **n == v)
            .ok_or_else(|| AttackError::UnknownVictim(v.to_owned()))?],
        None => victim_names().to_vec(),
    };
    Ok(patterns
        .iter()
        .flat_map(|p| victims.iter().map(move |v| (*p, *v)))
        .collect())
}

/// The grid campaign under `cfg`: one supervised shard per cell of
/// [`grid_cells`], each on a device seeded from its position, in cell
/// order.
fn campaign(seed: u64, threads: usize, cfg: &ScenarioCfg) -> Result<Vec<GridCell>, AttackError> {
    let cells = grid_cells(cfg)?;
    Ok(Supervisor::new(seed)
        .with_tag("attack-grid")
        .with_threads(threads)
        .run(cells.len(), |ctx| {
            let (p, v) = cells[ctx.trial.index];
            run_cell(ctx.trial.seed, p, v)
        })
        .into_complete())
}

/// Renders the grid as a table.
fn render(cells: &[GridCell]) -> String {
    let mut out = String::from(
        "attack campaign grid: hammer pattern x victim structure\n\
         pattern       victim     placement   sites  flips  rate(M/s)  changes  silent  loud\n",
    );
    for c in cells {
        match &c.error {
            Some(e) => out.push_str(&format!(
                "{:<13} {:<10} {:<11} {e}\n",
                c.pattern, c.victim, c.placement
            )),
            None => out.push_str(&format!(
                "{:<13} {:<10} {:<11} {:>5} {:>6} {:>10.2} {:>8} {:>7} {:>5}\n",
                c.pattern,
                c.victim,
                c.placement,
                c.sites_used,
                c.flips,
                c.achieved_rate / 1e6,
                c.changes,
                c.silent,
                c.loud,
            )),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The grid at `threads` under `filter` (pattern, victim).
    fn grid(
        threads: usize,
        (pattern, victim): (Option<&str>, Option<&str>),
    ) -> Result<Vec<GridCell>, AttackError> {
        let cfg = ScenarioCfg {
            pattern: pattern.map(str::to_owned),
            victim: victim.map(str::to_owned),
            ..ScenarioCfg::default()
        };
        campaign(11, threads, &cfg)
    }

    #[test]
    fn grid_covers_every_cell_and_flips_the_flagship() {
        let cells = grid(1, (None, None)).expect("grid");
        assert_eq!(cells.len(), pattern_names().len() * victim_names().len());
        assert!(cells.len() >= 16, "grid must span at least 4x4");
        let get = |p: &str, v: &str| {
            cells
                .iter()
                .find(|c| c.pattern == p && c.victim == v)
                .unwrap()
        };
        // The paper's demonstrated cell: double-sided against L2P entries.
        let flagship = get("two_sided", "l2p");
        assert!(flagship.error.is_none());
        assert!(flagship.flips > 0, "{flagship:?}");
        assert!(flagship.silent > 0, "{flagship:?}");
        // Metadata victims are reachable under the swizzled mapping.
        assert!(get("two_sided", "bad_block").error.is_none());
        // Many-sided cannot find six same-bank sites around a single-row
        // metadata mirror; the cell reports the typed error.
        assert!(get("many_sided", "bad_block").error.is_some());
    }

    #[test]
    fn filters_select_and_reject() {
        let one = grid(1, (Some("two_sided"), Some("l2p"))).expect("cell");
        assert_eq!(one.len(), 1);
        assert!(matches!(
            grid(1, (Some("nope"), None)),
            Err(AttackError::UnknownPattern(_))
        ));
        assert!(matches!(
            grid(1, (None, Some("nope"))),
            Err(AttackError::UnknownVictim(_))
        ));
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let json = |threads| {
            grid(threads, (None, None))
                .expect("grid")
                .to_json()
                .to_string()
        };
        assert_eq!(json(1), json(4));
    }
}

// ---- scenario entry ---------------------------------------------------------

/// [`Scenario`] wrapper: `repro attacks [--pattern P] [--victim V]`. The
/// document is the cell array.
///
/// # Panics
///
/// When [`grid_cells`] rejects `cfg` (`repro` rejects such a command line
/// before it runs anything).
#[derive(Debug, Clone, Copy)]
pub struct AttacksScenario;

impl Scenario for AttacksScenario {
    fn name(&self) -> &'static str {
        "attacks"
    }

    fn run(&self, cfg: ScenarioCfg, seed: u64, threads: usize) -> Output {
        let cells = campaign(seed, threads, &cfg).unwrap_or_else(|e| panic!("{e}"));
        Output::new(cells.to_json(), render(&cells))
    }
}
