"""Run every workload on several seeds and summarize each end-to-end metric.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

Each run is ``run.py --workload W --seed S --seconds <run_seconds> --trace 0``
as BENCHMARK.json sets it.  For every workload and metric the output holds
the ten values, their median, quartiles (statistics.quantiles, n=4) and
spread, the quartile distance as a share of the median.  Compare two such
files, made on the same machine, to judge a change.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", help="JSON file to write")
    args = parser.parse_args(argv)
    bench = json.loads(Path("BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    summary = {"run_seconds": bench["run_seconds"], "seeds": seed_list(args.seeds),
               "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in summary["seeds"]:
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", "0"], capture_output=True, text=True, check=True)
            lines = proc.stdout.splitlines()
            env = json.loads(lines[0].split(" ", 2)[2])
            runs.append({"seed": seed, "wall_s": time.perf_counter() - t0,
                         "result": json.loads(lines[-1])})
            print(f"{workload} seed {seed}: {lines[-1]}", file=sys.stderr)
        metrics = {}
        for name in runs[0]["result"]["metrics"]:
            values = [run["result"]["metrics"][name]["value"] for run in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            metrics[name] = {"unit": runs[0]["result"]["metrics"][name]["unit"],
                             "median": statistics.median(values), "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / statistics.median(values),
                             "values": values}
        summary["workloads"][workload] = {
            "env": env, "metrics": metrics,
            "correct": all(run["result"]["correct"] for run in runs),
            "attempted": [run["result"]["attempted"] for run in runs],
            "failed": [run["result"]["failed"] for run in runs],
            "wall_s": [run["wall_s"] for run in runs],
        }
    text = json.dumps(summary, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
