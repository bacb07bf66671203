//! `repro` — regenerates every table and figure of *Rowhammering Storage
//! Devices* (HotStorage '21) as text, and optionally dumps the structured
//! results as JSON.
//!
//! Subcommands are declared once in the [`COMMANDS`] registry — a name, a
//! help line, and a runner — and everything else (dispatch, `repro help`,
//! the usage string, the `all` loop) is generated from that table. Most
//! experiments dispatch through their module's [`Scenario`] impl; the few
//! with extra side effects (fig1's telemetry snapshot file, the escalation
//! demo, the `bench` harness) use custom runners.
//!
//! Run `repro help` for the generated command and flag reference.

use std::path::PathBuf;

use ssdhammer_bench::scenario::{Scenario, ScenarioCfg};
use ssdhammer_bench::{
    ablations, attacks, benchmark, defenses, faults, fig1, fig2, fig3, fuzz, sec23, sec43, sec5,
    table1, torture,
};
use ssdhammer_simkit::json::ToJson;

/// Parsed command-line flags, handed to every runner.
struct Ctx {
    seed: u64,
    threads: usize,
    json: bool,
    quick: bool,
    pattern: Option<String>,
    victim: Option<String>,
    /// Everything a scenario reads: `--full`, the campaign flags, and the
    /// fuzz modes.
    cfg: ScenarioCfg,
}

/// How a subcommand executes.
enum Runner {
    /// Dispatch through the module's uniform [`Scenario`] entry point.
    Scenario(&'static dyn Scenario),
    /// A bespoke runner for commands with side effects beyond stdout.
    Custom(fn(&Ctx)),
}

/// One row of the subcommand registry.
struct Cmd {
    /// Subcommand name.
    name: &'static str,
    /// One-line help text.
    help: &'static str,
    /// Execution strategy.
    runner: Runner,
    /// Whether `repro all` includes this command.
    in_all: bool,
}

/// The declarative subcommand registry: `help`, the usage line, and
/// dispatch are all generated from this table.
static COMMANDS: &[Cmd] = &[
    Cmd {
        name: "table1",
        help: "Table 1  — minimal access rate to trigger bitflips",
        runner: Runner::Scenario(&table1::Table1Scenario),
        in_all: true,
    },
    Cmd {
        name: "fig1",
        help: "Figure 1 — two-sided FTL rowhammer redirects an LBA",
        runner: Runner::Custom(run_fig1),
        in_all: true,
    },
    Cmd {
        name: "fig2",
        help: "Figure 2 — direct vs helper-VM setups",
        runner: Runner::Scenario(&fig2::Fig2Scenario),
        in_all: true,
    },
    Cmd {
        name: "fig3",
        help: "Figure 3 — end-to-end ext4 indirect-block exploit",
        runner: Runner::Scenario(&fig3::Fig3Scenario),
        in_all: true,
    },
    Cmd {
        name: "prob",
        help: "§4.3     — probability of success",
        runner: Runner::Scenario(&sec43::Sec43Scenario),
        in_all: true,
    },
    Cmd {
        name: "mitigations",
        help: "§5       — mitigation matrix",
        runner: Runner::Scenario(&sec5::Sec5Scenario),
        in_all: true,
    },
    Cmd {
        name: "feasibility",
        help: "§2.3     — NVMe-rate feasibility",
        runner: Runner::Scenario(&sec23::Sec23Scenario),
        in_all: true,
    },
    Cmd {
        name: "ablations",
        help: "design-choice ablations (DESIGN.md §5)",
        runner: Runner::Scenario(&ablations::AblationsScenario),
        in_all: true,
    },
    Cmd {
        name: "escalation",
        help: "§3.2     — privilege escalation via polyglot blocks",
        runner: Runner::Custom(run_escalation),
        in_all: true,
    },
    Cmd {
        name: "faults",
        help: "fault-injection plane vs the FTL recovery stack",
        runner: Runner::Scenario(&faults::FaultsScenario),
        in_all: true,
    },
    Cmd {
        name: "defenses",
        help: "defense-in-depth matrix — attack success per defense layer",
        runner: Runner::Scenario(&defenses::DefensesScenario),
        in_all: true,
    },
    Cmd {
        name: "attacks",
        help: "pattern x victim campaign grid (--pattern/--victim filter)",
        runner: Runner::Custom(run_attacks),
        in_all: true,
    },
    Cmd {
        name: "torture",
        help: "power-cut torture — crash-point enumeration x recovery oracle",
        runner: Runner::Scenario(&torture::TortureScenario),
        in_all: false,
    },
    Cmd {
        name: "fuzz",
        help: "model-based fuzz — random op soak vs the shadow oracle",
        runner: Runner::Scenario(&fuzz::FuzzScenario),
        in_all: false,
    },
    Cmd {
        name: "bench",
        help: "perf baseline — times the hot paths, writes BENCH_9.json",
        runner: Runner::Custom(run_bench),
        in_all: false,
    },
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiment = None;
    let mut ctx = Ctx {
        seed: 7,
        threads: 1,
        json: false,
        quick: false,
        pattern: None,
        victim: None,
        cfg: ScenarioCfg::default(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => {
                ctx.seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seed needs a number"));
            }
            "--pattern" => {
                ctx.pattern = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| die("--pattern needs a name")),
                );
            }
            "--victim" => {
                ctx.victim = Some(
                    it.next()
                        .cloned()
                        .unwrap_or_else(|| die("--victim needs a name")),
                );
            }
            "--threads" => {
                ctx.threads = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|&t| t >= 1)
                    .unwrap_or_else(|| die("--threads needs a positive number"));
            }
            "--checkpoint" => {
                ctx.cfg.checkpoint = Some(
                    it.next()
                        .map(PathBuf::from)
                        .unwrap_or_else(|| die("--checkpoint needs a path")),
                );
            }
            "--resume" => ctx.cfg.resume = true,
            "--abort-after" => {
                ctx.cfg.abort_after = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| die("--abort-after needs a number")),
                );
            }
            "--soak" => {
                ctx.cfg.soak = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&n| n >= 1)
                        .unwrap_or_else(|| die("--soak needs a positive number")),
                );
            }
            "--replay" => {
                ctx.cfg.replay = Some(
                    it.next()
                        .map(PathBuf::from)
                        .unwrap_or_else(|| die("--replay needs a directory")),
                );
            }
            "--json" => ctx.json = true,
            "--full" => ctx.cfg.full = true,
            "--quick" => ctx.quick = true,
            "--help" | "-h" => {
                print_help();
                return;
            }
            name if experiment.is_none() && !name.starts_with('-') => {
                experiment = Some(name.to_owned());
            }
            other => die(&format!("unknown argument '{other}'")),
        }
    }
    match experiment.as_deref().unwrap_or("all") {
        "help" => print_help(),
        "all" => {
            if ctx.cfg.checkpoint.is_some() {
                // One checkpoint file holds one campaign.
                die("--checkpoint needs a single experiment, not all");
            }
            for cmd in COMMANDS.iter().filter(|c| c.in_all) {
                run_cmd(cmd, &ctx);
                println!();
            }
        }
        name => match COMMANDS.iter().find(|c| c.name == name) {
            Some(cmd) => run_cmd(cmd, &ctx),
            None => die(&format!("unknown experiment '{name}'")),
        },
    }
}

fn run_cmd(cmd: &Cmd, ctx: &Ctx) {
    match cmd.runner {
        Runner::Scenario(s) => {
            if ctx.json {
                println!(
                    "{}",
                    s.run(ctx.cfg.clone(), ctx.seed, ctx.threads)
                        .to_string_pretty()
                );
            } else {
                print!("{}", s.render(ctx.cfg.clone(), ctx.seed, ctx.threads));
            }
        }
        Runner::Custom(f) => f(ctx),
    }
}

/// fig1 with its side effect: the device telemetry snapshot is written
/// next to the figure output.
fn run_fig1(ctx: &Ctx) {
    let (r, snapshot) = fig1::run_with_telemetry(ctx.seed);
    if ctx.json {
        println!("{}", r.to_json().to_string_pretty());
    } else {
        print!("{}", fig1::render(&r));
    }
    let path = "fig1-telemetry.json";
    match std::fs::write(path, snapshot.to_json().to_string_pretty()) {
        Ok(()) => eprintln!("telemetry snapshot written to {path}"),
        Err(e) => eprintln!("repro: could not write {path}: {e}"),
    }
}

/// The pattern × victim campaign grid, with the registry-name filters.
fn run_attacks(ctx: &Ctx) {
    if ctx.cfg.checkpoint.is_some() && (ctx.pattern.is_some() || ctx.victim.is_some()) {
        // The checkpoint does not record the filter.
        die("--checkpoint covers the whole grid; drop --pattern/--victim");
    }
    let report = attacks::campaign(
        ctx.seed,
        ctx.threads,
        ctx.pattern.as_deref(),
        ctx.victim.as_deref(),
        &ctx.cfg,
    )
    .unwrap_or_else(|e| {
        use ssdhammer_core::{pattern_names, victim_names};
        eprintln!("repro: {e}");
        eprintln!("patterns: {}", pattern_names().join(", "));
        eprintln!("victims:  {}", victim_names().join(", "));
        std::process::exit(2);
    });
    if ctx.json {
        println!("{}", attacks::document(&report).to_string_pretty());
    } else {
        print!("{}", attacks::render_report(&report));
    }
}

/// The §3.2 privilege-escalation demo.
fn run_escalation(ctx: &Ctx) {
    use ssdhammer_cloud::{run_escalation, EscalationConfig};
    let outcome = run_escalation(&EscalationConfig::fast_demo(ctx.seed)).expect("escalation run");
    if ctx.json {
        println!("{}", outcome.cycles.to_json().to_string_pretty());
    } else {
        println!(
            "§3.2 privilege escalation: escalated={} tag={:?} simulated_time={}",
            outcome.escalated, outcome.observed_tag, outcome.total_time
        );
        for c in &outcome.cycles {
            println!(
                "  cycle {:>2}: flips={:<4} legitimate={:<4} crashed={:<3} hijacked={}",
                c.cycle, c.flips, c.legitimate, c.crashed, c.escalated
            );
        }
    }
}

/// The perf baseline: times the hot paths, writes `BENCH_9.json`, and
/// self-checks that the document parses.
fn run_bench(ctx: &Ctx) {
    let report = benchmark::run(ctx.seed, ctx.threads, ctx.quick);
    let text = report.doc.to_string_pretty();
    ssdhammer_simkit::json::Json::parse(&text).expect("BENCH document must parse");
    let path = "BENCH_9.json";
    match std::fs::write(path, &text) {
        Ok(()) => eprintln!("bench report written to {path}"),
        Err(e) => eprintln!("repro: could not write {path}: {e}"),
    }
    println!("{text}");
}

fn print_help() {
    println!("repro <experiment> [--seed N] [--threads N] [--json] [--full] [--quick]");
    println!();
    println!("experiments:");
    for c in COMMANDS {
        println!("  {:<13} {}", c.name, c.help);
    }
    println!("  all           every experiment above except bench");
    println!();
    println!("flags:");
    println!("  --seed N      manufacturing-variation seed (default 7)");
    println!("  --threads N   worker threads for campaign experiments; output is");
    println!("                bit-identical for any N (default 1)");
    println!("  --json        print structured JSON instead of tables");
    println!("  --full        fig3: run the paper-prototype-scale configuration");
    println!("                (1 GiB SSD, 5% spray cap, 5-minute hammer bursts);");
    println!("                torture: larger workload with a sampled crash schedule");
    println!("  --quick       bench only: fast-demo scenarios for CI smoke runs");
    println!("  --pattern P   attacks only: run a single hammer pattern's cells");
    println!("  --victim V    attacks only: run a single victim structure's cells");
    println!("  --soak N      fuzz only: run N episodes (default 24, or 64 with --full)");
    println!("  --replay DIR  fuzz only: replay persisted corpus cases instead of soaking");
    println!();
    println!("campaign flags (table1, prob, ablations, faults, defenses, attacks,");
    println!("torture, fuzz; a resumed run prints what an uninterrupted one does):");
    println!("  --checkpoint F  persist completed shards to F after each one (one");
    println!("                experiment; attacks: the unfiltered grid only)");
    println!("  --resume      restore completed shards from --checkpoint first");
    println!("  --abort-after N  stop launching shards after N (kill simulation);");
    println!("                the partial report is marked degraded");
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
    eprintln!(
        "usage: repro [{}|all] [--seed N] [--threads N] [--json] [--full] [--quick]",
        names.join("|")
    );
    std::process::exit(2);
}
