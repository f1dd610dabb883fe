//! Figure 8: speedups over QEMU-style TCG, LLVM-style guest binaries.

use ldbt_bench::{hr, learn_everything};
use ldbt_core::experiment::{geomean, speedups};
use ldbt_core::Config;

fn main() {
    let cfg = Config::from_env();
    let all = learn_everything(&cfg);
    let rows = speedups(&all, &ldbt_compiler::Options::o2(), &cfg);
    println!("Figure 8. Speedup over the TCG baseline (guest built LLVM-style, -O2)");
    hr(72);
    println!(
        "{:<12} {:>11} {:>9} | {:>10} {:>8}",
        "bench", "rules/test", "jit/test", "rules/ref", "jit/ref"
    );
    hr(72);
    for r in &rows {
        println!(
            "{:<12} {:>10.2}x {:>8.2}x | {:>9.2}x {:>7.2}x",
            r.name, r.rules_test, r.jit_test, r.rules_ref, r.jit_ref
        );
    }
    hr(72);
    println!(
        "{:<12} {:>10.2}x {:>8.2}x | {:>9.2}x {:>7.2}x   (paper: 1.07x 0.39x | 1.25x 1.02x)",
        "geomean",
        geomean(rows.iter().map(|r| r.rules_test)),
        geomean(rows.iter().map(|r| r.jit_test)),
        geomean(rows.iter().map(|r| r.rules_ref)),
        geomean(rows.iter().map(|r| r.jit_ref)),
    );
}
