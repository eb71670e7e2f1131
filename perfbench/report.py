"""Run every workload, untraced and then traced, and print each metric
by name and unit with the environment it was measured in.

    python3 perfbench/report.py [--seed N] [--seconds S] [--smoke]
                                [--out FILE]

Each run is a fresh `perfbench/run.py` process, started only after the
previous one has ended. --out writes every run's result and record as
one JSON file; perfbench/baseline.json is that file for the seed
commit. The exit code is 1 when any run failed or reported
"correct": false.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run(workload, trace, args):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900,
                          cwd=HERE.parent)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def _print_metrics(result, wall):
    for name, m in result["metrics"].items():
        share = ""
        if m["unit"] == "s" and wall > 0:
            share = f"  {100.0 * m['value'] / wall:6.1f}% of op wall"
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']:<15s}{share}")


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: each workload's own)")
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    report = {"seconds": args.seconds, "smoke": args.smoke, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        record0, result0 = run(workload, 0, args)
        record1, result1 = run(workload, 1, args)
        report.setdefault("env", record0["env"])
        report["workloads"][workload] = {
            "seed": record0["seed"],
            "end_to_end": result0,
            "per_layer": result1,
            "records": [record0, record1],
        }
        for result in (result0, result1):
            ok = ok and result["correct"]

        print(f"{workload} (seed {record0['seed']})")
        print(f"  end to end, {result0['attempted']} ops:")
        _print_metrics(result0, 0.0)
        print(f"  {'failed_frac':32s} "
              f"{result0['failed'] / result0['attempted']:>16.6g} "
              f"({result0['failed']}/{result0['attempted']})")
        traced_walls = [w for w, t in zip(record1["op_wall_s"],
                                          record1["op_traced"]) if t]
        print(f"  per layer, {len(traced_walls)} traced of "
              f"{result1['attempted']} ops:")
        _print_metrics(result1, statistics.median(traced_walls))
        for record in (record0, record1):
            for reason in record["failures"]:
                print(f"  FAILED op: {reason}")
            if record["counts_not_repeated"]:
                print(f"  counts not repeated: "
                      f"{', '.join(record['counts_not_repeated'])}")
    print("environment: " + ", ".join(f"{k}={v}"
                                      for k, v in report["env"].items()))
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
