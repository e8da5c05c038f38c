#!/usr/bin/env bash
# Repeatability evidence for the benchmark, by the rule its bounds are
# judged by: two sets of runs of the same code, each set running every
# workload once per seed, untraced. Per end-to-end metric and workload it
# prints both medians, their ratio, both spreads (distance between the
# quartiles as a share of the median) and the bound, and it fails if
#   - a spread exceeds the bound (set-up time excepted), or
#   - the second median is worse than the first by more than the bound, or
#   - a run is incorrect or a simulated metric differs between the sets.
#
#   benchmark/repeat.sh [runs-per-set=10] [first-seed=7]
#
# Run from anywhere; the table is saved as benchmark/out/repeat.json too.
set -euo pipefail
cd "$(dirname "$0")/.."
exec python3 - "${1:-10}" "${2:-7}" <<'PY'
import json, statistics, subprocess, sys

runs, first_seed = int(sys.argv[1]), int(sys.argv[2])
spec = json.load(open("BENCHMARK.json"))
seeds = range(first_seed, first_seed + runs)
SIMULATED = {"avg_latency_ms", "group_hit_rate", "gic_ms"}


def run(workload, seed):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    result = json.loads(done.stdout.strip().splitlines()[-1]) if done.stdout.strip() else {}
    if done.returncode != 0 or not result.get("correct") or result.get("failed"):
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}, result {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


sets = []
for label in "AB":
    by_workload = {}
    for w in spec["workloads"]:
        by_workload[w["name"]] = [run(w["name"], s) for s in seeds]
        print(f"set {label}: {w['name']} done", file=sys.stderr)
    sets.append(by_workload)

rows, failed = [], False
print(f"{'workload':<14} {'metric':<22} {'median A':>14} {'median B':>14} {'B/A':>7} "
      f"{'spread A':>9} {'spread B':>9} {'bound':>6}")
for w in spec["workloads"]:
    for m in spec["end_to_end"]:
        a = [r[m["name"]] for r in sets[0][w["name"]]]
        b = [r[m["name"]] for r in sets[1][w["name"]]]
        med_a, med_b = statistics.median(a), statistics.median(b)
        worse = med_b / med_a - 1 if m["better"] == "lower" else 1 - med_b / med_a
        spreads = (spread(a), spread(b)) if runs >= 2 else (0.0, 0.0)
        problems = []
        if m["name"] != "setup_s" and max(spreads) > m["bound"]:
            problems.append("spread over bound")
        if worse > m["bound"]:
            problems.append("second set worse than bound")
        if m["name"] in SIMULATED and a != b:
            problems.append("simulated metric differs between sets")
        failed |= bool(problems)
        rows.append({"workload": w["name"], "metric": m["name"], "median_a": med_a,
                     "median_b": med_b, "ratio": med_b / med_a, "spread_a": spreads[0],
                     "spread_b": spreads[1], "bound": m["bound"], "problems": problems})
        print(f"{w['name']:<14} {m['name']:<22} {med_a:>14.4f} {med_b:>14.4f} "
              f"{med_b / med_a:>7.3f} {spreads[0]:>9.4f} {spreads[1]:>9.4f} {m['bound']:>6.2f}"
              + ("  <-- " + ", ".join(problems) if problems else ""))

with open("benchmark/out/repeat.json", "w") as out:
    json.dump({"runs_per_set": runs, "first_seed": first_seed, "rows": rows}, out, indent=1)
sys.exit(1 if failed else 0)
PY
