//! Figure 12: length distribution of hit rules.

use ldbt_bench::{hr, learn_everything};
use ldbt_core::experiment::{hit_length_distribution, speedups};
use ldbt_core::Config;

fn main() {
    let cfg = Config::from_env();
    let all = learn_everything(&cfg);
    let rows = speedups(&all, &ldbt_compiler::Options::o2(), &cfg);
    let dist = hit_length_distribution(&rows);
    println!("Figure 12. Length distribution of hit translation rules (ref)");
    hr(70);
    println!(
        "{:<12} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "bench", "len1", "len2", "len3", "len4", "len5", "len6+"
    );
    hr(70);
    for (name, d) in &dist {
        println!(
            "{:<12} {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}%",
            name,
            d[0] * 100.0,
            d[1] * 100.0,
            d[2] * 100.0,
            d[3] * 100.0,
            d[4] * 100.0,
            d[5] * 100.0
        );
    }
    hr(70);
    println!("(paper: hits with >2 guest instructions are common; most lengths < 6)");
}
