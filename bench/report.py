"""Run every workload untraced and traced, print every metric, check every digest.

    python3 bench/report.py --seed 0 --seconds 40

Each run is its own process (``bench/run.py``), so peak memory is per run.
After the metrics it prints the tracing overhead and top-level span coverage
per workload, and whether each prediction about where the time goes held.
Exits 1 if any run's output digest did not match. Writes
``bench/out/report.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
TCP_BUSY = ("transport.tcp.ping.busy_s", "transport.tcp.fetch_weights.busy_s")

# (workload, what is predicted, busy-time metrics whose share of traced run_s
# is tested, lowest share, highest share)
PREDICTIONS = (
    ("fls_paper", "evaluate_model is a large share", ("experiments.evaluate_model.busy_s",),
     0.25, 1.0),
    ("bt_paper", "evaluate_model is a small share", ("experiments.evaluate_model.busy_s",),
     0.0, 0.10),
    ("bt_paper", "loss_and_grad dominates", ("model.loss_and_grad.busy_s",), 0.5, 1.0),
    ("bt_tcp_swarm", "transport.tcp.* dominates", TCP_BUSY, 0.5, 1.0),
    ("bt_tcp_swarm", "loss_and_grad is a small share", ("model.loss_and_grad.busy_s",),
     0.0, 0.20),
    ("fls_paper", "transport is idle", TCP_BUSY + ("transport.sim.ping.busy_s",), 0.0, 0.0),
)


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    args = parser.parse_args()

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    results = {(w, t): run(w, args.seed, args.seconds, t) for w in workloads for t in (0, 1)}
    all_correct = True
    for (workload, trace), result in results.items():
        all_correct &= result["correct"]
        print(f"== {workload} trace={trace}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"failed_frac={result['failed'] / result['attempted']}")
        for name, metric in result["metrics"].items():
            print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}")

    print("\n== tracing overhead (traced run_s - untraced run_s) and top-level coverage")
    for workload in workloads:
        traced = results[(workload, 1)]["metrics"]
        print(f"{workload}: overhead {traced['trace.overhead_s']['value']:.3f} s of "
              f"{traced['trace.run_s']['value']:.3f} s traced; top-level spans cover "
              f"{traced['trace.top_coverage']['value']:.1%} of run_s")

    print("\n== predictions (share of traced run_s)")
    verdicts = []
    for workload, claim, names, low, high in PREDICTIONS:
        traced = results[(workload, 1)]["metrics"]
        share = sum(traced[n]["value"] for n in names) / traced["trace.run_s"]["value"]
        held = low <= share <= high
        verdicts.append({"workload": workload, "prediction": claim, "share": share,
                         "held": held})
        print(f"{workload}: {claim}: {share:.1%} -> {'held' if held else 'DID NOT HOLD'}")

    (BENCH / "out").mkdir(exist_ok=True)
    (BENCH / "out" / "report.json").write_text(json.dumps({
        "seed": args.seed, "seconds": args.seconds, "predictions": verdicts,
        "results": {f"{w}/trace{t}": r for (w, t), r in results.items()},
    }, indent=2) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
