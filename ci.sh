#!/usr/bin/env bash
# Local CI gate: formatting, lints, release build, and the full test
# suite, in the order of fastest feedback first. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> xtask lint --self-check"
# The linter proves its own rules still trip before its verdict counts.
cargo run -q -p xtask -- lint --self-check

echo "==> xtask lint"
# Exit 2 means rule violations, exit 1 means the analyzer itself broke;
# both fail CI but are reported distinctly. The JSON report is left
# under target/lint/ as an artifact for editors.
mkdir -p target/lint
LINT_STATUS=0
cargo run -q -p xtask -- lint --format json > target/lint/lint.json || LINT_STATUS=$?
case "$LINT_STATUS" in
    0) ;;
    2) echo "xtask lint: rule violations (see target/lint/lint.json)"; exit 2 ;;
    *) echo "xtask lint: analyzer internal error (exit $LINT_STATUS)"; exit 1 ;;
esac

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test -q --workspace

echo "==> perfbench build + tests"
# The benchmark is its own workspace over the library crates; building
# and testing it here makes a library refactor that breaks it fail now.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> perfbench full-scale smoke"
# One traced second per workload at full scale: perfbench exits nonzero
# when an output check fails (traced layer calls reproduce the plan,
# digest identical across passes, required capacity identical across
# passes, ...), which the TINY-scale unit tests above cannot see.
# fleet-10k is included: its translated workloads share their demand
# traces, so it peaks at ~0.65 GB.
for workload in plan-paper chaos-storm serve-churn fleet-10k; do
    cargo run --release -q --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 1 > /dev/null \
        || { echo "perfbench $workload: an output check failed"; exit 1; }
done

echo "==> results/ byte-identity"
# Every experiment binary regenerates its results/*.tsv from seeded
# inputs, so a kernel rewrite that changes any output bit shows up as a
# diff against the committed tables (wall times go to stdout only).
for bin in table1 failure ablation_cos ablation_deadline ablation_score \
    ablation_search lifecycle fig3 fig6 fig7 fig8; do
    env -u ROPUS_RESULTS cargo run --release -q -p ropus-bench --bin "$bin" > /dev/null
done
git diff --exit-code --stat -- results/ \
    || { echo "results/ differs from the committed tables"; exit 1; }
UNTRACKED="$(git ls-files --others --exclude-standard -- results/)"
test -z "$UNTRACKED" \
    || { echo "results/ gained untracked files: $UNTRACKED"; exit 1; }

echo "==> chaos replay smoke"
cargo run --release -q -p ropus --example chaos_replay > /dev/null

echo "==> obs smoke"
OBS_TMP="$(mktemp -d)"
trap 'rm -rf "$OBS_TMP"' EXIT
cargo run --release -q -p ropus-cli -- generate \
    --out "$OBS_TMP/traces.csv" --policy "$OBS_TMP/policy.json"
cargo run --release -q -p ropus-cli -- chaos \
    --traces "$OBS_TMP/traces.csv" --policy "$OBS_TMP/policy.json" \
    --fast --obs "json:$OBS_TMP/obs.json" > /dev/null
for key in '"spans"' '"events"' '"counters"' '"gauges"' '"histograms"'; do
    grep -q "$key" "$OBS_TMP/obs.json" \
        || { echo "obs.json is missing top-level key $key"; exit 1; }
done
# obs-report re-parses the snapshot through serde; a span every pipeline
# records must show up in the digest.
cargo run --release -q -p ropus-cli -- obs-report --file "$OBS_TMP/obs.json" \
    | grep -q "pipeline.consolidate"

echo "==> translate smoke"
# Every translation report field, at full f64 precision, must match the
# pinned output for the generated fleet in normal mode (T_degr 30), in
# failure mode, and under an hourly policy (θ 0.6, T_degr 180, two
# epochs a week), whose 168-slot weeks end in a partial 8-slot block of
# the translation's block index; the fig7/fig8 tables print rounded
# values only.
cat > "$OBS_TMP/policy-hourly.json" <<'JSON'
{
  "slot_minutes": 60,
  "server": { "cpus": 16, "cpu_capacity": 1.0 },
  "commitments": { "theta": 0.6, "deadline_minutes": 60 },
  "normal": {
    "band": { "low": 0.5, "high": 0.66 },
    "degradation": {
      "max_fraction": 0.03,
      "u_degr": 0.9,
      "time_limit_minutes": 180,
      "max_epochs_per_week": 2
    }
  }
}
JSON
for mode in normal failure hourly; do
    POLICY="$OBS_TMP/policy.json"
    MODE_FLAG=()
    [ "$mode" = failure ] && MODE_FLAG=(--failure-mode)
    [ "$mode" = hourly ] && POLICY="$OBS_TMP/policy-hourly.json"
    cargo run --release -q -p ropus-cli -- translate \
        --traces "$OBS_TMP/traces.csv" --policy "$POLICY" --json "${MODE_FLAG[@]}" \
        > "$OBS_TMP/translate-$mode.json"
    diff "$OBS_TMP/translate-$mode.json" "tests/golden/translate_$mode.json" \
        || { echo "translate --json ($mode) differs from tests/golden/translate_$mode.json"; exit 1; }
done

echo "==> plan smoke"
# A full plan — genetic consolidation plus the failure sweep — on one
# thread and on four must agree on everything but the engine's wall
# times, its hit/miss split and its thread count: the search's worker
# set may change who computes a fit, never a placement bit.
PLAN_FLAGS=(--traces "$OBS_TMP/traces.csv" --policy "$OBS_TMP/policy.json" --fast --json)
for threads in 1 4; do
    cargo run --release -q -p ropus-cli -- plan "${PLAN_FLAGS[@]}" --threads "$threads" \
        | grep -Ev '"(total_wall_ms|mean_generation_wall_ms|cache_hits|cache_misses|threads)":' \
        > "$OBS_TMP/plan-$threads.json"
done
diff "$OBS_TMP/plan-1.json" "$OBS_TMP/plan-4.json" \
    || { echo "plan differs across --threads"; exit 1; }
grep -q '"generations": [1-9]' "$OBS_TMP/plan-1.json" \
    || { echo "plan smoke ran no genetic search"; exit 1; }

echo "==> serve smoke"
# Drive a scripted admit/tick/depart session through the daemon twice —
# serially and on four refresh and probe threads — and require
# byte-identical responses: the online plan must be a pure function of
# the command stream, never of scheduling. The five `api` admits each
# fill most of a server, so later admissions probe six or more servers
# and the probe fan-out splits across workers.
SERVE_SCRIPT='{"cmd":"admit","name":"api0","level":6.0}
{"cmd":"admit","name":"api1","level":6.0}
{"cmd":"admit","name":"api2","level":6.0}
{"cmd":"admit","name":"api3","level":6.0}
{"cmd":"admit","name":"api4","level":6.0}
{"cmd":"admit","name":"web","level":3.0}
{"cmd":"admit","name":"db","level":5.0}
{"cmd":"tick"}
{"cmd":"admit","name":"batch","level":4.0}
{"cmd":"depart","name":"web"}
{"cmd":"tick","slots":2}
{"cmd":"snapshot"}
{"cmd":"shutdown"}'
printf '%s\n' "$SERVE_SCRIPT" | cargo run --release -q -p ropus-cli -- serve \
    --policy "$OBS_TMP/policy.json" --threads 1 > "$OBS_TMP/serve-1.jsonl"
printf '%s\n' "$SERVE_SCRIPT" | cargo run --release -q -p ropus-cli -- serve \
    --policy "$OBS_TMP/policy.json" --threads 4 > "$OBS_TMP/serve-4.jsonl"
diff "$OBS_TMP/serve-1.jsonl" "$OBS_TMP/serve-4.jsonl" \
    || { echo "serve responses differ across --threads"; exit 1; }
grep -q '"decision":"accepted"' "$OBS_TMP/serve-1.jsonl" \
    || { echo "serve smoke admitted nothing"; exit 1; }
grep -q '"server":5' "$OBS_TMP/serve-1.jsonl" \
    || { echo "serve smoke opened fewer than six servers"; exit 1; }
grep -q '"plan"' "$OBS_TMP/serve-1.jsonl" \
    || { echo "serve snapshot carried no plan"; exit 1; }
grep -q '"stats"' "$OBS_TMP/serve-1.jsonl" \
    || { echo "serve shutdown carried no stats"; exit 1; }
# The daemon's live plan must equal a batch consolidation of the same
# demand: admit two constant apps online, consolidate the identical
# traces offline, and compare the plans (engine stats excluded — cache
# tallies legitimately differ between the two paths).
python3 - "$OBS_TMP" <<'PYEOF'
import sys
t = sys.argv[1]
with open(f"{t}/serve-batch.csv", "w") as f:
    f.write("web,cache\n")
    f.writelines("3.0,2.0\n" for _ in range(2016))
PYEOF
printf '%s\n' \
    '{"cmd":"admit","name":"web","level":3.0}' \
    '{"cmd":"admit","name":"cache","level":2.0}' \
    '{"cmd":"tick"}' \
    '{"cmd":"snapshot"}' \
    '{"cmd":"shutdown"}' \
    | cargo run --release -q -p ropus-cli -- serve \
        --policy "$OBS_TMP/policy.json" > "$OBS_TMP/serve-snap.jsonl"
cargo run --release -q -p ropus-cli -- consolidate \
    --traces "$OBS_TMP/serve-batch.csv" --policy "$OBS_TMP/policy.json" \
    --fast --json > "$OBS_TMP/serve-batch.json"
python3 - "$OBS_TMP" <<'PYEOF'
import json, sys
t = sys.argv[1]
snap = None
for line in open(f"{t}/serve-snap.jsonl"):
    obj = json.loads(line)
    if obj.get("cmd") == "snapshot":
        snap = obj["plan"]
batch = json.load(open(f"{t}/serve-batch.json"))
for d in (snap, batch):
    d.pop("stats", None)
    d.pop("obs", None)
if snap != batch:
    print("serve snapshot diverged from the batch plan")
    print("serve:", json.dumps(snap, sort_keys=True))
    print("batch:", json.dumps(batch, sort_keys=True))
    sys.exit(1)
PYEOF

echo "==> subscribe smoke"
# An engineered burst fleet streamed over the subscribe protocol: a
# contiguous 50-slot burst (2.5% of the week — inside the weekly error
# budget, but concentrated enough to saturate the fast-burn short
# window) must fire a burn-rate alert mid-burst and clear after it
# passes, and the full interleaved response+telemetry stream must be
# byte-identical across --threads. The stream is archived under
# target/bench/ as a CI artifact.
mkdir -p target/bench
python3 - "$OBS_TMP" <<'PYEOF'
import json, sys
t = sys.argv[1]
# Drop the T_degr limit: with it, translation would raise the burst
# app's allocation to cover the long run, and no slot would degrade.
with open(f"{t}/policy.json") as f:
    policy = json.load(f)
policy["normal"]["degradation"]["time_limit_minutes"] = None
with open(f"{t}/subscribe-policy.json", "w") as f:
    json.dump(policy, f)
samples = [3.2 if 100 <= s < 150 else 2.0 for s in range(2016)]
with open(f"{t}/subscribe-script.jsonl", "w") as f:
    f.write('{"cmd":"admit","name":"steady","level":2.0}\n')
    f.write('{"cmd":"subscribe"}\n')
    f.write(json.dumps({"cmd": "admit", "name": "bursty", "samples": samples}) + "\n")
    f.write('{"cmd":"tick","slots":200}\n')
    f.write('{"cmd":"shutdown"}\n')
PYEOF
cargo run --release -q -p ropus-cli -- serve \
    --policy "$OBS_TMP/subscribe-policy.json" --obs det --threads 1 \
    < "$OBS_TMP/subscribe-script.jsonl" > target/bench/subscribe_smoke.jsonl
cargo run --release -q -p ropus-cli -- serve \
    --policy "$OBS_TMP/subscribe-policy.json" --obs det --threads 4 \
    < "$OBS_TMP/subscribe-script.jsonl" > "$OBS_TMP/subscribe-4.jsonl"
diff target/bench/subscribe_smoke.jsonl "$OBS_TMP/subscribe-4.jsonl" \
    || { echo "subscribe stream differs across --threads"; exit 1; }
# ropus watch must render the archived stream without choking on any line.
cargo run --release -q -p ropus-cli -- watch \
    --file target/bench/subscribe_smoke.jsonl --quiet \
    > "$OBS_TMP/subscribe-render.txt"
grep -q "ALERT" "$OBS_TMP/subscribe-render.txt" \
    || { echo "ropus watch rendered no alert line"; exit 1; }
python3 - <<'PYEOF'
import json
fire = clear = None
deltas = events = 0
for line in open("target/bench/subscribe_smoke.jsonl"):
    obj = json.loads(line)
    kind = obj.get("kind")
    if kind == "watch.stream.alert":
        alert = obj["alert"]
        if alert["kind"] == "Fire" and fire is None:
            fire = alert
        elif alert["kind"] == "Clear" and fire is not None and clear is None:
            clear = alert
    elif kind == "watch.stream.delta":
        deltas += 1
    elif kind == "watch.stream.event":
        events += 1
if events == 0:
    raise SystemExit("subscribe streamed no lifecycle events")
if deltas == 0:
    raise SystemExit("subscribe streamed no metric deltas")
if fire is None or clear is None:
    raise SystemExit("burn-rate alert did not fire and clear")
if not 100 <= fire["slot"] < 150:
    raise SystemExit(f"alert fired outside the burst: slot {fire['slot']}")
if not 150 <= clear["slot"] <= 200:
    raise SystemExit(f"alert cleared before the burst ended: slot {clear['slot']}")
print(
    f"subscribe smoke: {fire['rule']} fired at slot {fire['slot']} "
    f"(burn {fire['short_burn']:.1f}x/{fire['long_burn']:.1f}x), "
    f"cleared at slot {clear['slot']}; {events} events, {deltas} deltas"
)
PYEOF

echo "==> migration smoke"
# Storm-recovery gate: a 50-app fleet loses two servers back to back,
# and every re-placement is driven through the migration state machine.
# The capped run must pace the wave under its storm limits, stay
# byte-identical across --threads, and still commit moves; the summary
# JSONs are archived under target/bench/ as CI artifacts.
mkdir -p target/bench
cargo run --release -q -p ropus-cli -- generate \
    --out "$OBS_TMP/mig-traces.csv" --policy "$OBS_TMP/mig-policy.json" \
    --apps 50 --weeks 1
MIG_FLAGS=(--traces "$OBS_TMP/mig-traces.csv" --policy "$OBS_TMP/mig-policy.json" \
    --fast --fail 0@100+60,1@160+60 --json)
cargo run --release -q -p ropus-cli -- chaos "${MIG_FLAGS[@]}" \
    --migrate --max-inflight 2 --max-inflight-server 1 --threads 1 \
    > target/bench/migration_smoke_capped.json
cargo run --release -q -p ropus-cli -- chaos "${MIG_FLAGS[@]}" \
    --migrate --max-inflight 2 --max-inflight-server 1 --threads 4 \
    > "$OBS_TMP/mig-capped-4.json"
diff target/bench/migration_smoke_capped.json "$OBS_TMP/mig-capped-4.json" \
    || { echo "migration replay differs across --threads"; exit 1; }
cargo run --release -q -p ropus-cli -- chaos "${MIG_FLAGS[@]}" --migrate \
    > target/bench/migration_smoke_open.json
python3 - <<'PYEOF'
import json
capped = json.load(open("target/bench/migration_smoke_capped.json"))["migration"]
opened = json.load(open("target/bench/migration_smoke_open.json"))["migration"]
if capped["peak_in_flight"] > 2:
    raise SystemExit(f"storm cap breached: peak {capped['peak_in_flight']} > 2")
if capped["committed"] == 0 or opened["committed"] == 0:
    raise SystemExit("migration smoke committed no moves")
if opened["peak_in_flight"] > 2 and capped["deferred_slots"] == 0:
    raise SystemExit("storm caps bound the wave but deferred nothing")
print(
    f"migration smoke: capped peak {capped['peak_in_flight']} "
    f"({capped['committed']} committed, {capped['deferred_slots']} deferred) "
    f"vs open peak {opened['peak_in_flight']} ({opened['committed']} committed)"
)
PYEOF

echo "==> obs_overhead smoke"
# The SLO engine's cost at fleet scale: a 10k-app week replay with the
# collector off vs deterministic must stay under the < 3% overhead
# budget (min of 5 interleaved repeats; the summary is archived).
cargo run --release -q -p ropus-bench --bin obs_overhead
test -s target/bench/obs_overhead_10k.json \
    || { echo "obs_overhead left no bench summary"; exit 1; }

echo "==> cargo doc (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "CI OK"
