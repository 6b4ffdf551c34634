#!/usr/bin/env bash
# Runs the full untraced set twice, as BENCHMARK.json describes it, and
# prints each end-to-end metric's relative difference between the two
# sets beside its bound. Exits non-zero when any difference exceeds its
# bound or any run is incorrect. Run from the repo root:
#
#   benchmark/repeat.sh [seed]
set -euo pipefail
cd "$(dirname "$0")/.."
exec python3 - "${1:-1}" <<'EOF'
import json, subprocess, sys

seed = sys.argv[1]
spec = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m for m in spec["end_to_end"]}

def run_set():
    results = {}
    for w in spec["workloads"]:
        cmd = spec["command"] + ["--workload", w["name"], "--seed", seed,
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            sys.exit(f"{w['name']}: exit {out.returncode}\n{out.stderr[-2000:]}")
        line = json.loads(out.stdout.strip().splitlines()[-1])
        if not line["correct"] or line["failed"]:
            sys.exit(f"{w['name']}: {line['failed']} of {line['attempted']} ops failed")
        results[w["name"]] = {k: v["value"] for k, v in line["metrics"].items()}
    return results

first, second = run_set(), run_set()
worst = 0
print(f"{'workload':<18}{'metric':<20}{'first':>16}{'second':>16}{'rel.diff':>10}{'bound':>8}")
for w, metrics in first.items():
    for name, a in metrics.items():
        b = second[w][name]
        diff = abs(b - a) / a if a else 0.0
        bound = bounds[name]["bound"]
        flag = "  EXCEEDS" if diff > bound else ""
        worst += diff > bound
        print(f"{w:<18}{name:<20}{a:>16.4f}{b:>16.4f}{diff:>10.4f}{bound:>8.2f}{flag}")
sys.exit(1 if worst else 0)
EOF
