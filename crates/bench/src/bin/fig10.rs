//! Figure 10: dynamic host instructions removed by the rules.

use ldbt_bench::{hr, learn_everything};
use ldbt_core::experiment::{dynamic_reduction, speedups};
use ldbt_core::Config;

fn main() {
    let cfg = Config::from_env();
    let all = learn_everything(&cfg);
    let rows = speedups(&all, &ldbt_compiler::Options::o2(), &cfg);
    let red = dynamic_reduction(&rows);
    println!("Figure 10. Dynamic host instructions reduced vs the TCG baseline (ref)");
    hr(40);
    let mut sum = 0.0;
    for (name, r) in &red {
        println!("{:<12} {:>6.1}%", name, r * 100.0);
        sum += r;
    }
    hr(40);
    println!("{:<12} {:>6.1}%   (paper: 34% average)", "average", sum / red.len() as f64 * 100.0);
}
