//! The Figure 9 scenario in miniature: rules learned from LLVM-style
//! binaries applied to a guest built by a *different* compiler
//! (GCC-style), demonstrating the learning approach's compiler
//! insensitivity.
//!
//! ```sh
//! cargo run --release --example cross_compiler -- hmmer
//! ```

use ldbt_core::compiler::Options;
use ldbt_core::experiment::{learn_all, loo_rules};
use ldbt_core::workloads::Workload;
use ldbt_core::{run_benchmark, Config, EngineKind};

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "hmmer".to_string());
    println!("learning rules from LLVM-style compilations of the other 11 programs...");
    let cfg = Config::from_env();
    let all = learn_all(&Options::o2(), &cfg).expect("suite compiles");
    let rules = loo_rules(&all, &name);
    println!("  {} rules in the leave-one-out set", rules.len());

    for (label, guest) in [("LLVM-style guest", Options::o2()), ("GCC-style guest", Options::gcc())]
    {
        let base = run_benchmark(&name, Workload::Ref, EngineKind::Tcg, &guest, None, &cfg);
        let ours =
            run_benchmark(&name, Workload::Ref, EngineKind::Rules, &guest, Some(&rules), &cfg);
        assert_eq!(base.checksum, ours.checksum, "engines agree");
        println!(
            "{label:<17}: speedup {:.2}x  static coverage {:.1}%  dynamic coverage {:.1}%",
            ours.speedup_over(&base),
            ours.stats.static_coverage() * 100.0,
            ours.stats.dynamic_coverage() * 100.0,
        );
    }
    println!("(paper: 1.25x for LLVM guests, 1.21x for GCC guests — insensitive to the");
    println!(" compiler that produced the translated binary)");
}
