//! Figure 6: rules learned per optimization level.

use ldbt_bench::hr;
use ldbt_core::experiment::figure6;
use ldbt_core::Config;

fn main() {
    let rows = figure6(&Config::from_env()).expect("suite compiles");
    println!("Figure 6. Sensitivity of learning on optimization levels (#rules)");
    hr(60);
    println!("{:<12} {:>6} {:>6} {:>6} {:>6}", "bench", "-O0", "-O1", "-O2", "-O3");
    hr(60);
    let mut sums = [0usize; 4];
    for (name, counts) in &rows {
        println!(
            "{:<12} {:>6} {:>6} {:>6} {:>6}",
            name, counts[0], counts[1], counts[2], counts[3]
        );
        for i in 0..4 {
            sums[i] += counts[i];
        }
    }
    hr(60);
    println!("{:<12} {:>6} {:>6} {:>6} {:>6}", "total", sums[0], sums[1], sums[2], sums[3]);
    println!("(paper: similar rule counts across levels, often more at higher levels)");
}
