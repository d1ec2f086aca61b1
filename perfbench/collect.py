"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --workload curate --seeds 1 2 3 4 5 \\
        [--seconds 10] [--trace 0] [--out summary.json]

For every metric it prints the median, the quartiles and the quartile
spread as a share of the median, the figure BENCHMARK.json's bounds are
set against.  Runs go one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, cwd=HERE.parent)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else None, "values": values}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    loads = []
    for seed in args.seeds:
        record, result = run_once(args.workload, seed, args.seconds, args.trace)
        loads.append([record["env"]["loadavg_end"], record["named"].get("host_scale")])
        for source in (result["metrics"], record["named"]):
            for name, m in source.items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print(f"seed {seed}: " + ", ".join(f"{k}={m['value']:.6g}"
                                           for k, m in result["metrics"].items()
                                           if m["value"]), flush=True)
    summary = {"workload": args.workload, "seeds": args.seeds, "seconds": args.seconds,
               "trace": args.trace, "env": record["env"], "load_and_host_scale": loads,
               "metrics": {k: {"unit": units[k], **summarise(v)} for k, v in values.items()}}
    for name, s in summary["metrics"].items():
        spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
        print(f"{name:45s} median {s['median']:.6g} {s['unit']:6s} spread {spread}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
