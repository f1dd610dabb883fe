//! Figure 9: speedups with GCC-style guest binaries (rules still learned
//! from LLVM-style compilations — the compiler-insensitivity experiment).

use ldbt_bench::{hr, learn_everything};
use ldbt_core::experiment::{geomean, speedups};
use ldbt_core::Config;

fn main() {
    let cfg = Config::from_env();
    let all = learn_everything(&cfg);
    let rows = speedups(&all, &ldbt_compiler::Options::gcc(), &cfg);
    println!("Figure 9. Speedup over the TCG baseline (guest built GCC-style, -O2;");
    println!("          rules learned from LLVM-style binaries)");
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
        "{:<12} {:>10.2}x {:>8.2}x | {:>9.2}x {:>7.2}x   (paper ref: rules 1.21x)",
        "geomean",
        geomean(rows.iter().map(|r| r.rules_test)),
        geomean(rows.iter().map(|r| r.jit_test)),
        geomean(rows.iter().map(|r| r.rules_ref)),
        geomean(rows.iter().map(|r| r.jit_ref)),
    );
}
