#!/bin/sh
# Tier-1 gate: everything that must pass before a change lands.
# Run from the repository root: ./scripts/tier1.sh
set -eux

cargo build --release
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --check

# Fault-injection smoke matrix: every LDBT_FAULT site must degrade
# gracefully under the watchdog — run completes, faulty rule/snippet is
# quarantined or repaired, guest output stays identical to pure TCG.
# The repairable sites (imm-skew, operand-swap) and the unrepairable
# control (rule-corrupt) run with repair both on and off: on, the
# env-driven test asserts the self-healing outcome per site; off, the
# conservative whole-block quarantine path must keep the run correct.
for fault in rule-corrupt:0 imm-skew:0 operand-swap:0 solver-exhaust:0 worker-panic:0; do
    for repair in 0 1; do
        LDBT_WATCHDOG=1 LDBT_FAULT="$fault" LDBT_REPAIR="$repair" \
            cargo test -q --release --test fault_injection
    done
done

# Execution-mode determinism matrix: the engine suite asserts guest R0 /
# guest_dyn / memory against the ARM interpreter reference (and chained
# against unchained, regions against plain, in-process), so it must stay
# green in every combination of LDBT_NOCHAIN x LDBT_WATCHDOG x LDBT_NOSB
# the defaults can take. (Tests that pin a mode via the builder override
# the env, so each leg still exercises its own on/off comparison.)
for nochain in 0 1; do
    for watchdog in 0 1; do
        for nosb in 0 1; do
            LDBT_NOCHAIN="$nochain" LDBT_WATCHDOG="$watchdog" LDBT_NOSB="$nosb" \
                cargo test -q --release -p ldbt-dbt
            LDBT_NOCHAIN="$nochain" LDBT_WATCHDOG="$watchdog" LDBT_NOSB="$nosb" \
                cargo test -q --release --test determinism --test adversarial
        done
    done
done

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

# The region passes must be invisible to the flagship table: table1
# reports learning results and guest-visible outcomes, so its stdout
# must be byte-identical across the full LDBT_NORA x LDBT_NOFUSE x
# LDBT_NOSB knob matrix (the all-off leg is table1_off above).
for nora in 0 1; do
    for nofuse in 0 1; do
        for nosb in 0 1; do
            [ "$nora$nofuse$nosb" = "000" ] && continue
            LDBT_DETERMINISTIC=1 LDBT_NORA="$nora" LDBT_NOFUSE="$nofuse" LDBT_NOSB="$nosb" \
                cargo run -q --release -p ldbt-bench --bin table1 \
                > "$OBS_DIR/table1_knobs.txt" 2>/dev/null
            cmp "$OBS_DIR/table1_off.txt" "$OBS_DIR/table1_knobs.txt"
        done
    done
done

# Repair must be invisible on clean runs: with no fault injected the
# repair machinery never engages, so table1 stdout must be
# byte-identical with LDBT_REPAIR=0.
LDBT_DETERMINISTIC=1 LDBT_REPAIR=0 cargo run -q --release -p ldbt-bench --bin table1 \
    > "$OBS_DIR/table1_norepair.txt" 2>/dev/null
cmp "$OBS_DIR/table1_off.txt" "$OBS_DIR/table1_norepair.txt"

# Warm-start gate: a second boot from the persistent rule database
# (LDBT_RULEDB) must learn byte-identical rules — the cold run writes
# the database, the warm run replays learning from the persisted
# verification memo, and both tables must match the no-database run
# byte for byte (LDBT_DETERMINISTIC=1 zeroes the wall-clock and
# memo-traffic columns that legitimately differ warm vs fresh).
RULEDB="$OBS_DIR/rules.db"
LDBT_DETERMINISTIC=1 LDBT_RULEDB="$RULEDB" \
    cargo run -q --release -p ldbt-bench --bin table1 \
    > "$OBS_DIR/table1_cold.txt" 2>/dev/null
test -s "$RULEDB"
LDBT_DETERMINISTIC=1 LDBT_RULEDB="$RULEDB" \
    cargo run -q --release -p ldbt-bench --bin table1 \
    > "$OBS_DIR/table1_warm.txt" 2>/dev/null
cmp "$OBS_DIR/table1_off.txt" "$OBS_DIR/table1_cold.txt"
cmp "$OBS_DIR/table1_off.txt" "$OBS_DIR/table1_warm.txt"
# A truncated database must be rejected (notice on stderr), falling back
# to fresh learning with identical output.
head -c 24 "$RULEDB" > "$OBS_DIR/rules_corrupt.db"
LDBT_DETERMINISTIC=1 LDBT_RULEDB="$OBS_DIR/rules_corrupt.db" \
    cargo run -q --release -p ldbt-bench --bin table1 \
    > "$OBS_DIR/table1_corrupt.txt" 2> "$OBS_DIR/table1_corrupt.err"
cmp "$OBS_DIR/table1_off.txt" "$OBS_DIR/table1_corrupt.txt"
grep -q "ignoring rule database" "$OBS_DIR/table1_corrupt.err"

# Translation-cache coherence gate: the self-modifying-code smoke prints
# guest-visible state only (final registers + the patched body word), so
# the default run (coherent engines, asserting smc_invalidations > 0)
# and the LDBT_NOSMC=1 run (forced interpreter fallback — with the cache
# uncoherent, translated code may not execute the guest's stores) must
# be byte-identical.
cargo run -q --release -p ldbt-bench --bin smc_smoke > "$OBS_DIR/smc_default.txt"
LDBT_NOSMC=1 cargo run -q --release -p ldbt-bench --bin smc_smoke > "$OBS_DIR/smc_nosmc.txt"
cmp "$OBS_DIR/smc_default.txt" "$OBS_DIR/smc_nosmc.txt"
# The smoke run above purges nothing; this one does, so trace it too:
# same stdout, a valid trace, at least one purge, and every purge names
# its reason.
LDBT_TRACE="exec:$OBS_DIR/smc.ndjson" \
    cargo run -q --release -p ldbt-bench --bin smc_smoke > "$OBS_DIR/smc_traced.txt"
cmp "$OBS_DIR/smc_default.txt" "$OBS_DIR/smc_traced.txt"
cargo run -q --release -p ldbt-obs --bin obs_selfcheck -- trace "$OBS_DIR/smc.ndjson"
grep -q '"ev":"purge"' "$OBS_DIR/smc.ndjson"
events_have_field purge reason "$OBS_DIR/smc.ndjson"

# Guest trap-path gate: the cooperative mini-kernel (svc yields, svc
# exit, wild-store kill) must produce the interpreter's exact KernelRun
# on every engine, in every watchdog x superblock cell — the trap exit
# is what the watchdog's soundness contract extends to.
for watchdog in 0 1; do
    for nosb in 0 1; do
        LDBT_WATCHDOG="$watchdog" LDBT_NOSB="$nosb" \
            cargo run -q --release -p ldbt-bench --bin mini_kernel_smoke
    done
done

# The benchmark's own cross-checks, last: one pass of each of the six
# perfbench workloads (including `churn`: SMC purges, traps, watchdog
# re-execution, repair), every run compared against the ARM interpreter.
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- smoke
