#!/usr/bin/env bash
# Run the whole suite twice, back to back, on the same code, and compare:
# per workload and end-to-end metric both values, how much worse the
# second is than the first, and the bound from BENCHMARK.json. Exits
# non-zero if a pair differs by more than its bound or `failed` differs.
# Arguments are passed on to run.sh (for example --seed 1312).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$here/out"
first="$here/out/repeat-1.jsonl"
second="$here/out/repeat-2.jsonl"

bash "$here/run.sh" "$@" >"$first"
bash "$here/run.sh" "$@" >"$second"

python3 - "$here/../BENCHMARK.json" "$first" "$second" <<'PY'
import json, sys

spec = json.load(open(sys.argv[1]))
bounds = {m["name"]: m for m in spec["end_to_end"]}


def runs(path):
    # run.sh prints a detail line and a result line per workload
    lines = [json.loads(line) for line in open(path) if line.strip()]
    return [
        (detail["workload"], detail["host"], result)
        for detail, result in zip(lines[0::2], lines[1::2])
    ]


ok = True
print(f"{'workload':12} {'metric':12} {'first':>14} {'second':>14} {'worse by':>9} {'bound':>6}")
for (name, host, a), (_, _, b) in zip(runs(sys.argv[2]), runs(sys.argv[3])):
    for metric, m in bounds.items():
        x, y = a["metrics"][metric]["value"], b["metrics"][metric]["value"]
        worse = (y - x) / x if m["better"] == "lower" else (x - y) / x
        within = abs(worse) <= m["bound"]
        ok &= within
        print(
            f"{name:12} {metric:12} {x:14.4f} {y:14.4f} {worse * 100:8.2f}% "
            f"{m['bound'] * 100:5.0f}%{'' if within else '  OUT OF BOUND'}"
        )
    if (a["failed"], a["correct"]) != (b["failed"], b["correct"]) or a["failed"]:
        ok = False
        print(f"{name:12} failed: {a['failed']} then {b['failed']}  NOT CLEAN")
print("host:", json.dumps(host))
sys.exit(0 if ok else 1)
PY
