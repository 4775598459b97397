//! Regenerates **Table III**: LGWL / DPWL / RT of BiG_CHKS, LSE, WA, and
//! the Moreau model ("Ours") on the ISPD2019 suite, with Avg. Ratio rows.
//!
//! ```text
//! cargo run -p mep-bench --release --bin table3_ispd2019 [--fast]
//! ```
//!
//! Writes `results/table3_ispd2019.csv`.

use mep_netlist::synth;

fn main() -> Result<(), String> {
    mep_bench::run_paper_table(
        &synth::ispd2019_suite(),
        "Table III — ISPD2019 HPWL and runtime comparison",
        "table3_ispd2019",
    )
}
