//! Experiment E9 — **§3.2**: privilege escalation via polyglot blocks
//! ("replacing a victim LBA in a sensitive file with a polyglot block can
//! result in a privilege escalation"). The attacker fills its partition
//! with polyglot blocks and hammers the victim's L2P entries until a
//! setuid binary's block is redirected to one of them; the report lists
//! each cycle's flips and the binaries still running legitimate code.

use ssdhammer_cloud::{run_escalation, EscalationConfig};
use ssdhammer_simkit::json::ToJson;

use crate::scenario::{Output, Scenario, ScenarioCfg};

/// [`Scenario`] wrapper: `repro escalation`, the fast demo. The document
/// is the per-cycle array.
#[derive(Debug, Clone, Copy)]
pub struct EscalationScenario;

impl Scenario for EscalationScenario {
    fn name(&self) -> &'static str {
        "escalation"
    }

    fn run(&self, _cfg: ScenarioCfg, seed: u64, _threads: usize) -> Output {
        let outcome = run_escalation(&EscalationConfig::fast_demo(seed)).expect("escalation run");
        let mut text = format!(
            "§3.2 privilege escalation: escalated={} tag={:?} simulated_time={}\n",
            outcome.escalated, outcome.observed_tag, outcome.total_time
        );
        for c in &outcome.cycles {
            text.push_str(&format!(
                "  cycle {:>2}: flips={:<4} legitimate={:<4} crashed={:<3} hijacked={}\n",
                c.cycle, c.flips, c.legitimate, c.crashed, c.escalated
            ));
        }
        Output::new(outcome.cycles.to_json(), text)
    }
}
