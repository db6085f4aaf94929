#!/usr/bin/env bash
# Runs every workload RUNS times (default 10), each run with another seed,
# and prints per workload x end-to-end metric the median, the quartiles and
# their distance as a share of the median (Python's statistics.quantiles,
# n=4) against the bound in BENCHMARK.json. A second argument sets the first
# seed, so two invocations give two independent sets whose medians can be
# compared. The table in README.md is this script's output.
#
#   bash bench/repeat.sh [runs] [first-seed] [workload ...]
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
runs="${1:-10}"
first="${2:-1}"
shift $(( $# < 2 ? $# : 2 ))
cd "$(dirname "$here")"
exec python3 - "$runs" "$first" "$@" <<'PY'
import json, statistics, subprocess, sys

runs, first, only = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3:]
spec = json.load(open("BENCHMARK.json"))
failed = False
print(f"{'workload':<18}{'metric':<20}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}  verdict")
for wl in spec["workloads"]:
    if only and wl["name"] not in only:
        continue
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(first, first + runs):
        cmd = spec["command"] + ["--workload", wl["name"], "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        out = json.loads(subprocess.run(cmd, check=True, capture_output=True, text=True).stdout.splitlines()[-1])
        if not out["correct"]:
            failed = True
            print(f"{wl['name']}: seed {seed}: {out['failed']} of {out['attempted']} ops failed  FAIL")
        for name in values:
            values[name].append(out["metrics"][name]["value"])
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        # setup_s is gated on its median only; the others on their spread,
        # with a third of the bound as the target.
        verdict = "PASS" if spread <= m["bound"] / 3 else "pass" if spread <= m["bound"] or m["name"] == "setup_s" else "FAIL"
        failed |= verdict == "FAIL"
        print(f"{wl['name']:<18}{m['name']:<20}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{spread:>9.4f}{m['bound']:>7.2f}  {verdict}")
sys.exit(1 if failed else 0)
PY
