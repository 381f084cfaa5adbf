"""Write golden.json: the expected output digest of every workload for a range of seeds.

    python3 bench/golden.py --seeds 0-49

Digests come from simulated runs only: the ``metrics.csv`` that
``run_training`` writes for ``fls_paper`` and ``bt_paper``, and the final
client weights of the simulated run of ``bt_tcp_swarm``'s config, which the
TCP swarm must reproduce. Regenerate only for a change that is meant to
alter results, and say so where the change is described.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from workloads import GOLDEN_PATH, SWARM, WORKLOADS, config, run_sim, sim_reference  # noqa: E402


def digest(workload: str, seed: int) -> str:
    cfg = config(workload, seed)
    if workload == SWARM:
        return sim_reference(cfg)
    (BENCH / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "out") as out:
        return run_sim(cfg, Path(out)).digest


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-49")
    first, _, last = parser.parse_args().seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    for workload in WORKLOADS:
        table = golden.setdefault(workload, {})
        for seed in seeds:
            table[str(seed)] = digest(workload, seed)
            print(workload, seed, table[str(seed)], flush=True)
        golden[workload] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":
    main()
