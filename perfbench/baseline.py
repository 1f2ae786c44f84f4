"""Measure the benchmark's run-to-run spread and store the numbers.

    python3 perfbench/baseline.py

Runs ``perfbench/run.py`` once per seed 1..10 on each workload of
BENCHMARK.json with tracing off, then once per workload with tracing on.
For every end-to-end metric it stores the ten values, their median and
quartiles (as ``statistics.quantiles(values, n=4)`` gives them) and the
quartile spread as a share of the median, and prints that spread against
the metric's bound in BENCHMARK.json. ``perfbench/baseline.json`` is rewritten after
each workload.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
OUT = ROOT / "perfbench" / "baseline.json"
SEEDS = list(range(1, 11))


def run_once(workload: str, seed: int, seconds: int, trace: int):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    record = next(json.loads(l[len("run-record "):]) for l in lines if l.startswith("run-record "))
    return record, json.loads(lines[-1])


def summarize(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]

    out = {"seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for name in [w["name"] for w in bench["workloads"]]:
        results = []
        for seed in SEEDS:
            record, result = run_once(name, seed, seconds, 0)
            results.append(result)
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        out["run_record"] = record
        e2e = {k: summarize([r["metrics"][k]["value"] for r in results]) for k in bounds}
        _, traced = run_once(name, SEEDS[0], seconds, 1)
        out["workloads"][name] = {
            "attempted": sum(r["attempted"] for r in results + [traced]),
            "failed": sum(r["failed"] for r in results + [traced]),
            "end_to_end": e2e,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        for k, s in e2e.items():
            flag = "ok" if s["spread"] < bounds[k] / 3 else "ABOVE a third of the bound"
            print(f"{name} {k}: median {s['median']:.4g}, spread {s['spread']:.3%} "
                  f"(bound {bounds[k]:.0%}) {flag}", flush=True)
        OUT.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
