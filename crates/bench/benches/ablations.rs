//! Design-choice ablations (see DESIGN.md §5): prints the ablation report,
//! then benchmarks the whole ablations campaign.

use ssdhammer_bench::{ablations, harness};

fn main() {
    println!("\n{}", ablations::render(&ablations::run(5)));

    harness::bench("ablations", "campaign", 10, || ablations::run(5));
}
