"""Self-test of the benchmark on the tiny graph (``WebGraphs.Tiny``).

Runs every workload untraced and traced on two seeds and checks that:
- every check passes (``correct``, no failed operation);
- the emitted metric names and units are exactly those in BENCHMARK.json;
- the traced run's composed passes match ``Clugp.run``;
- the same seed gives the same placements in a second run, the distributed
  one of a traced run included.

Usage (from the root of the repository): ``python3 perfbench/selftest.py``
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed, trace):
    res = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--graph", "tiny"],
        cwd=ROOT, capture_output=True, text=True)
    if res.returncode != 0:
        raise AssertionError(f"{workload} seed={seed} trace={trace} exited {res.returncode}:\n{res.stderr[-3000:]}")
    lines = res.stdout.strip().splitlines()
    summary = next(line for line in lines if line.startswith("perfbench: "))
    return summary, json.loads(lines[-1])


def main():
    errors = []
    for w in SPEC["workloads"]:
        for seed in (14, 3):
            for trace in (0, 1):
                name = f"{w['name']} seed={seed} trace={trace}"
                summary, res = run(w["name"], seed, trace)
                want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                if got != want:
                    errors.append(f"{name}: metrics {sorted(got.items())} != {sorted(want.items())}")
                if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
                    errors.append(f"{name}: correct={res['correct']} failed={res['failed']}/{res['attempted']}")
                if trace and res["metrics"]["trace.composition_identical"]["value"] != 1:
                    errors.append(f"{name}: composed passes differ from Clugp.run")
                if seed == 14:
                    again, _ = run(w["name"], seed, trace)
                    placements = lambda s: [f for f in s.split() if "/k" in f]  # noqa: E731
                    if placements(again) != placements(summary):
                        errors.append(f"{name}: placements differ between runs:\n  {summary}\n  {again}")
                print(f"{'FAIL' if errors else 'ok'}  {name}", flush=True)
    if errors:
        sys.exit("\n".join(errors))


if __name__ == "__main__":
    main()
