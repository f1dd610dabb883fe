//! Figure 11: static and dynamic rule coverage.

use ldbt_bench::{hr, learn_everything};
use ldbt_core::experiment::{coverage, speedups};
use ldbt_core::Config;

fn main() {
    let cfg = Config::from_env();
    let all = learn_everything(&cfg);
    let rows = speedups(&all, &ldbt_compiler::Options::o2(), &cfg);
    let cov = coverage(&rows);
    println!("Figure 11. Static (Sp) and dynamic (Dp) coverage of the rules (ref)");
    hr(44);
    println!("{:<12} {:>8} {:>8}", "bench", "Sp", "Dp");
    hr(44);
    let (mut ss, mut ds) = (0.0, 0.0);
    for (name, s, d) in &cov {
        println!("{:<12} {:>7.1}% {:>7.1}%", name, s * 100.0, d * 100.0);
        ss += s;
        ds += d;
    }
    hr(44);
    let n = cov.len() as f64;
    println!(
        "{:<12} {:>7.1}% {:>7.1}%   (paper: >60% both on average)",
        "average",
        ss / n * 100.0,
        ds / n * 100.0
    );
}
