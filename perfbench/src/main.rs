//! `perfbench`: the repository's benchmark. One command, six workloads,
//! end-to-end and per-layer numbers for the learned-rule DBT. See
//! `perfbench/README.md` for what is measured and why.
//!
//! ```text
//! perfbench --workload W --seed N --seconds S --trace 0|1   one workload, in this process
//! perfbench run   [--seed N] [--runs K] [--seconds S] [--no-layers] [--out FILE]
//! perfbench trace [--seed N] [--seconds S] [--out spans.json]
//! perfbench smoke                                           every workload once, all checks on
//! perfbench compare A.json B.json                           the change (B) against the parent (A)
//! perfbench spec                                            print BENCHMARK.json
//! ```
//!
//! The first form is what the benchmark driver calls; `run`, `trace` and
//! `smoke` spawn it once per workload (a fresh allocator and its own
//! `VmHWM` each), one child after another.

#![forbid(unsafe_code)]

mod compare;
mod exec;
mod inputs;
mod layers;
mod learn;
mod measure;
mod report;
mod spans;
mod spec;
mod stats;

use ldbt_obs::json::Json;
use measure::RunArgs;
use report::{parse_result_line, Reported};
use spec::{RUN_SECONDS, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// `--flag value` pairs and bare words, in order.
struct Cli {
    words: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Cli {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli { words: Vec::new(), flags: Vec::new() };
        while let Some(a) = args.next() {
            match a.strip_prefix("--") {
                Some("no-layers") => cli.flags.push(("no-layers".into(), "1".into())),
                Some(flag) => {
                    let value = args.next().ok_or(format!("--{flag} needs a value"))?;
                    cli.flags.push((flag.to_string(), value));
                }
                None => cli.words.push(a),
            }
        }
        Ok(cli)
    }

    fn get(&self, flag: &str) -> Option<&str> {
        self.flags.iter().rev().find(|(f, _)| f == flag).map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{flag} {v}: not a number")),
        }
    }
}

/// An `LDBT_*` variable would reach the engine or the learner behind
/// the builders' back (`LDBT_TRACE`, `LDBT_RULEDB`, …): refuse to
/// measure under one.
fn refuse_ldbt_env() -> Result<(), String> {
    match std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("LDBT_")) {
        Some((k, _)) => Err(format!(
            "{} is set; perfbench pins every knob through the builders — unset it",
            k.to_string_lossy()
        )),
        None => Ok(()),
    }
}

/// The checked-out commit, read from `.git` when there is one.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let hash = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let hash = hash.trim();
    if hash.is_empty() {
        "unknown".into()
    } else {
        hash.chars().take(12).collect()
    }
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// What a result depends on besides the code: recorded with every file.
fn header(seed: u64, seconds: f64) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj(vec![
        ("commit", Json::Str(commit())),
        ("rustc", Json::Str(rustc_version())),
        ("seed", Json::u64(seed)),
        ("seconds", Json::Num(seconds)),
        ("nproc", Json::u64(nproc as u64)),
        ("threads", Json::u64(inputs::threads() as u64)),
        ("churn_smc_runs", Json::u64(exec::CHURN_SMC_RUNS as u64)),
        ("churn_kernel_runs", Json::u64(exec::CHURN_KERNEL_RUNS as u64)),
    ])
}

/// The driver's entry point: one workload, here.
fn one_workload(cli: &Cli) -> Result<ExitCode, String> {
    refuse_ldbt_env()?;
    let name = cli.get("workload").ok_or("--workload is required")?;
    let spec = spec::workload(name).ok_or_else(|| {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("no workload {name}; there are {}", names.join(", "))
    })?;
    let trace = match cli.get("trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(v) => return Err(format!("--trace {v}: 0 or 1")),
    };
    let args = RunArgs {
        spec,
        seed: cli.num("seed", 0)?,
        seconds: cli.num("seconds", RUN_SECONDS as f64)?,
        trace,
        spans: cli.get("spans").map(PathBuf::from),
    };
    println!(
        "perfbench {name} seed={} seconds={} trace={} threads={} nproc={}",
        args.seed,
        args.seconds,
        u8::from(trace),
        inputs::threads(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let result = measure::run(&args)?;
    for note in &result.notes {
        println!("  {note}");
    }
    print!("{}", report::table(&result.metrics));
    println!("  operations: {} attempted, {} failed", result.attempted, result.failed);
    // Failed operations are reported, not fatal: the driver reads them
    // from the line below. `run` and `smoke` turn them into an exit code.
    println!("{}", report::result_line(&result));
    Ok(ExitCode::SUCCESS)
}

/// Run one workload in a child process and read its result line.
fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<&str>,
) -> Result<Reported, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(path) = spans {
        cmd.args(["--spans", path]);
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (report, line) = match stdout.trim_end().rsplit_once('\n') {
        Some((report, line)) => (report, line),
        None => ("", stdout.trim_end()),
    };
    println!("{report}");
    if !out.status.success() {
        return Err(format!("the {workload} child ended with {}", out.status));
    }
    parse_result_line(line).map_err(|e| format!("{workload}: bad result line: {e}"))
}

fn values(metrics: &[(String, f64)]) -> Json {
    Json::Obj(metrics.iter().map(|(n, v)| (n.clone(), Json::Num(*v))).collect())
}

/// Every workload, untraced then traced, `--runs` times over.
fn run(cli: &Cli) -> Result<ExitCode, String> {
    refuse_ldbt_env()?;
    let seed: u64 = cli.num("seed", 0)?;
    let seconds: f64 = cli.num("seconds", RUN_SECONDS as f64)?;
    let runs: u64 = cli.num("runs", 1)?;
    let layers = cli.get("no-layers").is_none();
    let head = header(seed, seconds);
    println!("perfbench run {head}");
    let mut failed = 0;
    let mut all = Vec::new();
    for seed in seed..seed + runs {
        let mut workloads = Vec::new();
        for w in WORKLOADS {
            let e2e = child(w.name, seed, seconds, false, None)?;
            let per_layer = if layers {
                child(w.name, seed, seconds, true, None)?
            } else {
                Reported::default()
            };
            failed += e2e.failed + per_layer.failed;
            workloads.push((
                w.name.to_string(),
                Json::obj(vec![
                    ("attempted", Json::u64(e2e.attempted + per_layer.attempted)),
                    ("failed", Json::u64(e2e.failed + per_layer.failed)),
                    ("end_to_end", values(&e2e.metrics)),
                    ("per_layer", values(&per_layer.metrics)),
                ]),
            ));
        }
        all.push(Json::obj(vec![("seed", Json::u64(seed)), ("workloads", Json::Obj(workloads))]));
    }
    if let Some(path) = cli.get("out") {
        let file = Json::obj(vec![("header", head), ("runs", Json::Arr(all))]);
        std::fs::write(path, file.render() + "\n")
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    if failed > 0 {
        eprintln!("perfbench: {failed} operations failed");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// The traced run of every workload, spans kept.
fn trace(cli: &Cli) -> Result<ExitCode, String> {
    refuse_ldbt_env()?;
    let seed: u64 = cli.num("seed", 0)?;
    let seconds: f64 = cli.num("seconds", RUN_SECONDS as f64)?;
    let out = cli.get("out").unwrap_or("spans.json");
    println!("perfbench trace {}", header(seed, seconds));
    let mut failed = 0;
    let mut files = Vec::new();
    for w in WORKLOADS {
        let part = format!("{out}.{}", w.name);
        failed += child(w.name, seed, seconds, true, Some(&part))?.failed;
        let spans =
            std::fs::read_to_string(&part).map_err(|e| format!("cannot read {part}: {e}"))?;
        let _ = std::fs::remove_file(&part);
        files.push((w.name.to_string(), ldbt_obs::json::parse(&spans)?));
    }
    for (name, spans) in &files {
        let root = spans.get("root_s").and_then(Json::as_num).unwrap_or(0.0);
        println!("{name}: self time by layer, {root:.6} s under root spans");
        let mut own = 0.0;
        for (layer, s) in spans.get("self_s").and_then(Json::as_obj).unwrap_or(&[]) {
            let s = s.as_num().unwrap_or(0.0);
            own += s;
            println!(
                "  {layer:<22} {:>12.3} ms {:>6.2}%",
                s * 1e3,
                if root > 0.0 { s / root * 100.0 } else { 0.0 }
            );
        }
        println!(
            "  {:<22} {:>12.3} ms {:>6.2}%",
            "sum",
            own * 1e3,
            if root > 0.0 { own / root * 100.0 } else { 0.0 }
        );
    }
    std::fs::write(out, Json::Obj(files).render() + "\n")
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote {out}");
    Ok(if failed > 0 { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

/// One pass of each half of every workload, every check on.
fn smoke() -> Result<ExitCode, String> {
    refuse_ldbt_env()?;
    let mut failed = 0;
    for w in WORKLOADS {
        let r = child(w.name, 1, 0.0, false, None)?;
        failed += r.failed;
        if r.metrics.iter().any(|(_, v)| !(v.is_finite() && *v > 0.0)) {
            return Err(format!("{}: an end-to-end metric is zero or not a number", w.name));
        }
    }
    if failed > 0 {
        eprintln!("perfbench smoke: {failed} operations failed");
        return Ok(ExitCode::FAILURE);
    }
    println!("perfbench smoke ok");
    Ok(ExitCode::SUCCESS)
}

fn compare_files(cli: &Cli) -> Result<ExitCode, String> {
    let [_, a, b] = cli.words.as_slice() else {
        return Err("usage: perfbench compare A.json B.json".into());
    };
    let read = |path: &String| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        compare::parse_runs(&text).map_err(|e| format!("{path}: {e}"))
    };
    Ok(if compare::compare(&read(a)?, &read(b)?) { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let outcome = Cli::parse(std::env::args().skip(1)).and_then(|cli| {
        match cli.words.first().map(String::as_str) {
            None => one_workload(&cli),
            Some("run") => run(&cli),
            Some("trace") => trace(&cli),
            Some("smoke") => smoke(),
            Some("compare") => compare_files(&cli),
            Some("spec") => {
                print!("{}", spec::benchmark_json());
                Ok(ExitCode::SUCCESS)
            }
            Some(other) => Err(format!("no command {other}; see the head of main.rs")),
        }
    });
    outcome.unwrap_or_else(|why| {
        eprintln!("perfbench: {why}");
        ExitCode::from(2)
    })
}
