#!/bin/sh
# Tier-1 gate: everything that must pass before a change lands.
# Run from the repository root: ./scripts/tier1.sh
set -eux

cargo build --release
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --check

# Libraries never read the environment: every LDBT_* knob that changes
# what a run computes resolves in one place, Config::from_env
# (crates/dbt/src/env.rs), and the in-process matrix of
# tests/determinism/matrix.rs and tests/fault_injection.rs checks each
# cell of them. Only the three output settings — where a trace or a run
# report goes, whether wall-clock columns print — are read where used.
if grep -rn 'env::var\(_os\)\?("LDBT_' crates src examples tests \
    | grep -v -e crates/obs/src/trace.rs -e crates/core/src/report.rs -e crates/bench/src/lib.rs; then
    echo "LDBT_* read outside Config::from_env and the output settings"
    exit 1
fi

# Observability gate: tracing and run reports must never perturb
# results. The smoke binary prints only deterministic counters, so its
# stdout must be byte-identical with tracing on and off; the emitted
# NDJSON trace and JSON run report must pass their schema self-checks.
OBS_DIR=$(mktemp -d)
trap 'rm -rf "$OBS_DIR"' EXIT
cargo run -q --release -p ldbt-bench --bin smoke > "$OBS_DIR/smoke_off.txt"
LDBT_TRACE="all:$OBS_DIR/trace.ndjson" LDBT_STATS_JSON="$OBS_DIR/report.json" \
    cargo run -q --release -p ldbt-bench --bin smoke > "$OBS_DIR/smoke_on.txt"
cmp "$OBS_DIR/smoke_off.txt" "$OBS_DIR/smoke_on.txt"
cargo run -q --release -p ldbt-obs --bin obs_selfcheck -- trace "$OBS_DIR/trace.ndjson"
cargo run -q --release -p ldbt-obs --bin obs_selfcheck -- report "$OBS_DIR/report.json"
# events_have_field <ev> <field> <file>: every `<ev>` event of a traced
# run carries `<field>`. Every code-cache invalidation says why (`purge`
# / `reason`), and every region formation what it cost (`sb_form` /
# `dur_us`; smoke forms regions, so there must be some to check).
events_have_field() {
    if grep "\"ev\":\"$1\"" "$3" | grep -v "\"$2\":"; then
        echo "$1 event without $2 in $3"
        exit 1
    fi
}
events_have_field purge reason "$OBS_DIR/trace.ndjson"
grep -q '"ev":"sb_form"' "$OBS_DIR/trace.ndjson"
events_have_field sb_form dur_us "$OBS_DIR/trace.ndjson"

# The environment still reaches the binaries: with LDBT_NOSB=1 the
# guest does the same work to the same result on other host code.
LDBT_NOSB=1 cargo run -q --release -p ldbt-bench --bin smoke > "$OBS_DIR/smoke_nosb.txt"
field() { sed -n "s/.* $1=\([^ ]*\).*/\1/p" "$2"; }
for f in guest_dyn checksum; do
    test "$(field $f "$OBS_DIR/smoke_off.txt")" = "$(field $f "$OBS_DIR/smoke_nosb.txt")"
done
test "$(field host_instrs "$OBS_DIR/smoke_off.txt")" != "$(field host_instrs "$OBS_DIR/smoke_nosb.txt")"

# The flagship table must also be trace-invariant: with wall-clock
# columns zeroed (LDBT_DETERMINISTIC=1), two table1 runs — one traced,
# one not — must produce byte-identical stdout.
LDBT_DETERMINISTIC=1 cargo run -q --release -p ldbt-bench --bin table1 \
    > "$OBS_DIR/table1_off.txt" 2>/dev/null
LDBT_DETERMINISTIC=1 LDBT_TRACE="all:$OBS_DIR/table1.ndjson" \
    LDBT_STATS_JSON="$OBS_DIR/table1.json" \
    cargo run -q --release -p ldbt-bench --bin table1 \
    > "$OBS_DIR/table1_on.txt" 2>/dev/null
cmp "$OBS_DIR/table1_off.txt" "$OBS_DIR/table1_on.txt"
cargo run -q --release -p ldbt-obs --bin obs_selfcheck -- trace "$OBS_DIR/table1.ndjson"
cargo run -q --release -p ldbt-obs --bin obs_selfcheck -- report "$OBS_DIR/table1.json"

# A self-modifying guest purges translations; every purge its traced
# run logs must name its reason, and the trace must pass its self-check.
LDBT_TRACE="exec:$OBS_DIR/smc.ndjson" \
    cargo run -q --release -p ldbt-bench --bin smc_smoke > /dev/null
cargo run -q --release -p ldbt-obs --bin obs_selfcheck -- trace "$OBS_DIR/smc.ndjson"
grep -q '"ev":"purge"' "$OBS_DIR/smc.ndjson"
events_have_field purge reason "$OBS_DIR/smc.ndjson"

# The benchmark's own cross-checks, last: one pass of each of the six
# perfbench workloads (including `churn`: SMC purges, traps, watchdog
# re-execution, repair), every run compared against the ARM interpreter.
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- smoke
