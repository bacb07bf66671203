//! `repro` — regenerates every table and figure of *Rowhammering Storage
//! Devices* (HotStorage '21) as text, and optionally dumps the structured
//! results as JSON.
//!
//! Subcommands are declared once in the [`COMMANDS`] registry — an
//! experiment's [`Scenario`], a help line, whether `all` runs it, the
//! optional flags it reads, and the check that rejects arguments it cannot
//! run — and everything else (dispatch, `repro help`, the usage string,
//! the `all` loop, the rejection of a flag no selected command reads) is
//! generated from that table. Every subcommand runs its scenario
//! once and prints the document (`--json`) or the text report from that
//! one [`Output`]; an output that carries a telemetry snapshot is also
//! written to `<name>-telemetry.json` in the working directory.
//!
//! Run `repro help` for the generated command and flag reference.

use std::num::NonZeroUsize;
use std::str::FromStr;

use ssdhammer_bench::scenario::{Output, Scenario, ScenarioCfg};
use ssdhammer_bench::{
    ablations, attacks, defenses, faults, fig1, fig2, fig3, fuzz, sec23, sec32, sec43, sec5,
    table1, torture,
};
use ssdhammer_core::{pattern_names, victim_names};

/// Parsed command-line flags, handed to every scenario.
struct Ctx {
    seed: u64,
    threads: usize,
    json: bool,
    /// Everything a scenario reads: `--full`, the attack-grid filters and
    /// the fuzz modes.
    cfg: ScenarioCfg,
}

/// One row of the subcommand registry; the subcommand is the scenario's
/// name.
struct Cmd {
    /// The experiment.
    scenario: &'static dyn Scenario,
    /// One-line help text.
    help: &'static str,
    /// Whether `repro all` includes this command.
    in_all: bool,
    /// The flags beyond `--seed`, `--threads` and `--json` the scenario
    /// reads, with their values' placeholders, as `repro help` shows them.
    /// Any other given flag exits 2.
    flags: &'static str,
    /// Exits 2 on a command line the scenario cannot run, before any
    /// experiment runs.
    check: Option<fn(&ScenarioCfg)>,
}

/// The declarative subcommand registry: `help`, the usage line, and
/// dispatch are all generated from this table.
static COMMANDS: &[Cmd] = &[
    Cmd {
        scenario: &table1::Table1Scenario,
        help: "Table 1  — minimal access rate to trigger bitflips",
        in_all: true,
        flags: "",
        check: None,
    },
    Cmd {
        scenario: &fig1::Fig1Scenario,
        help: "Figure 1 — two-sided FTL rowhammer redirects an LBA",
        in_all: true,
        flags: "",
        check: None,
    },
    Cmd {
        scenario: &fig2::Fig2Scenario,
        help: "Figure 2 — direct vs helper-VM setups",
        in_all: true,
        flags: "",
        check: None,
    },
    Cmd {
        scenario: &fig3::Fig3Scenario,
        help: "Figure 3 — end-to-end ext4 indirect-block exploit",
        in_all: true,
        flags: "--full",
        check: None,
    },
    Cmd {
        scenario: &sec43::Sec43Scenario,
        help: "§4.3     — probability of success",
        in_all: true,
        flags: "",
        check: None,
    },
    Cmd {
        scenario: &sec5::Sec5Scenario,
        help: "§5       — mitigation matrix",
        in_all: true,
        flags: "",
        check: None,
    },
    Cmd {
        scenario: &sec23::Sec23Scenario,
        help: "§2.3     — NVMe-rate feasibility",
        in_all: true,
        flags: "",
        check: None,
    },
    Cmd {
        scenario: &ablations::AblationsScenario,
        help: "design-choice ablations (DESIGN.md §5)",
        in_all: true,
        flags: "",
        check: None,
    },
    Cmd {
        scenario: &sec32::EscalationScenario,
        help: "§3.2     — privilege escalation via polyglot blocks",
        in_all: true,
        flags: "",
        check: None,
    },
    Cmd {
        scenario: &faults::FaultsScenario,
        help: "fault-injection plane vs the FTL recovery stack",
        in_all: true,
        flags: "",
        check: None,
    },
    Cmd {
        scenario: &defenses::DefensesScenario,
        help: "defense-in-depth matrix — attack success per defense layer",
        in_all: true,
        flags: "",
        check: None,
    },
    Cmd {
        scenario: &attacks::AttacksScenario,
        help: "pattern x victim campaign grid (--pattern/--victim filter)",
        in_all: true,
        flags: "--pattern P --victim V",
        check: Some(check_grid_filter),
    },
    Cmd {
        scenario: &torture::TortureScenario,
        help: "power-cut torture — crash-point enumeration x recovery oracle",
        in_all: false,
        flags: "--full",
        check: None,
    },
    Cmd {
        scenario: &fuzz::FuzzScenario,
        help: "model-based fuzz — random op soak vs the shadow oracle",
        in_all: false,
        flags: "--full --soak N --replay DIR",
        check: Some(check_replay),
    },
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiment = None;
    let mut ctx = Ctx {
        seed: 7,
        threads: 1,
        json: false,
        cfg: ScenarioCfg::default(),
    };
    // The given flags that only some commands read, in command-line order.
    let mut given: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a.starts_with("--") && !matches!(a.as_str(), "--seed" | "--threads" | "--json") {
            given.push(a);
        }
        match a.as_str() {
            "--seed" => ctx.seed = value(&mut it, "--seed needs a number"),
            "--pattern" => ctx.cfg.pattern = Some(value(&mut it, "--pattern needs a name")),
            "--victim" => ctx.cfg.victim = Some(value(&mut it, "--victim needs a name")),
            "--threads" => {
                ctx.threads =
                    value::<NonZeroUsize>(&mut it, "--threads needs a positive number").get();
            }
            "--soak" => {
                ctx.cfg.soak =
                    Some(value::<NonZeroUsize>(&mut it, "--soak needs a positive number").get());
            }
            "--replay" => ctx.cfg.replay = Some(value(&mut it, "--replay needs a directory")),
            "--json" => ctx.json = true,
            "--full" => ctx.cfg.full = true,
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
    let name = experiment.as_deref().unwrap_or("all");
    let cmds: Vec<&Cmd> = match name {
        "help" => return print_help(),
        "all" => COMMANDS.iter().filter(|c| c.in_all).collect(),
        _ => match COMMANDS.iter().find(|c| c.scenario.name() == name) {
            Some(cmd) => vec![cmd],
            None => die(&format!("unknown experiment '{name}'")),
        },
    };
    let reads = |c: &Cmd, flag: &str| c.flags.split(' ').any(|f| f == flag);
    if let Some(flag) = given.iter().find(|f| !cmds.iter().any(|c| reads(c, f))) {
        die(&if name == "all" {
            format!("no experiment all runs reads {flag}")
        } else {
            format!("{name} does not read {flag}")
        });
    }
    for check in cmds.iter().filter_map(|c| c.check) {
        check(&ctx.cfg);
    }
    for cmd in cmds {
        run_cmd(cmd, &ctx);
        if name == "all" {
            println!();
        }
    }
}

/// Runs `cmd`'s scenario once and prints its document or its report;
/// writes the telemetry snapshot when the output carries one.
fn run_cmd(cmd: &Cmd, ctx: &Ctx) {
    let Output {
        json,
        text,
        telemetry,
    } = cmd.scenario.run(ctx.cfg.clone(), ctx.seed, ctx.threads);
    if ctx.json {
        println!("{}", json.to_string_pretty());
    } else {
        print!("{text}");
    }
    if let Some(snapshot) = telemetry {
        let path = format!("{}-telemetry.json", cmd.scenario.name());
        match std::fs::write(&path, snapshot.to_json().to_string_pretty()) {
            Ok(()) => eprintln!("telemetry snapshot written to {path}"),
            Err(e) => eprintln!("repro: could not write {path}: {e}"),
        }
    }
}

/// Rejects attack-grid filters [`attacks::grid_cells`] cannot run; an
/// unknown name also prints both registries.
fn check_grid_filter(cfg: &ScenarioCfg) {
    if let Err(e) = attacks::grid_cells(cfg) {
        eprintln!("repro: {e}");
        eprintln!("patterns: {}", pattern_names().join(", "));
        eprintln!("victims:  {}", victim_names().join(", "));
        std::process::exit(2);
    }
}

/// Rejects the soak's flags with `--replay`, which replays the corpus
/// cases and runs no soak.
fn check_replay(cfg: &ScenarioCfg) {
    if cfg.replay.is_none() {
        return;
    }
    let soak_flags = [("--soak", cfg.soak.is_some()), ("--full", cfg.full)];
    if let Some((flag, _)) = soak_flags.iter().find(|(_, given)| *given) {
        die(&format!("fuzz --replay does not read {flag}"));
    }
}

fn print_help() {
    println!("repro <experiment> [--seed N] [--threads N] [--json] [flags]");
    println!();
    println!("experiments, each with the flags it reads (any other exits 2):");
    for c in COMMANDS {
        println!("  {:<13} {}", c.scenario.name(), c.help);
        if !c.flags.is_empty() {
            println!("  {:<13} {}", "", c.flags);
        }
    }
    let skipped: Vec<&str> = COMMANDS
        .iter()
        .filter(|c| !c.in_all)
        .map(|c| c.scenario.name())
        .collect();
    println!(
        "  all           every experiment above except {}",
        skipped.join(" and ")
    );
    println!();
    println!("flags:");
    println!("  --seed N      manufacturing-variation seed (default 7)");
    println!("  --threads N   worker threads for campaign experiments; output is");
    println!("                bit-identical for any N (default 1)");
    println!("  --json        print structured JSON instead of tables");
    println!("  --full        run the paper-prototype-scale configuration (fig3:");
    println!("                1 GiB SSD, 5% spray cap, 5-minute hammer bursts;");
    println!("                torture: larger workload with a sampled crash");
    println!("                schedule; fuzz: 64 episodes)");
    println!("  --pattern P   run a single hammer pattern's cells");
    println!("  --victim V    run a single victim structure's cells");
    println!("  --soak N      run N episodes (default 24, or 64 with --full)");
    println!("  --replay DIR  replay persisted corpus cases instead of soaking (reads");
    println!("                neither --soak nor --full)");
}

/// The value after a flag, parsed; a missing or malformed value exits 2
/// with `msg`.
fn value<T: FromStr>(it: &mut std::slice::Iter<'_, String>, msg: &str) -> T {
    it.next()
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| die(msg))
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    let names: Vec<&str> = COMMANDS.iter().map(|c| c.scenario.name()).collect();
    eprintln!(
        "usage: repro [{}|all] [--seed N] [--threads N] [--json] [flags]",
        names.join("|")
    );
    std::process::exit(2);
}
