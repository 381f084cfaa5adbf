"""Time one benchmark workload for one seed, untraced or traced.

    python3 bench/run.py --workload fls_paper --seed 0 --seconds 40 --trace 0

The program is imported from ``src/`` of the checkout this file sits in.
With ``--trace 0`` the run repeats the workload for about ``--seconds``
seconds and reports the end-to-end metrics as medians over the repeats,
scaled to one machine speed by the probe timed between them (``probe.py``).
With ``--trace 1`` it alternates an untraced and a traced repeat and
reports the per-layer metrics of the traced ones, plus the tracing
overhead. Every repeat's output digest is checked. Human-readable lines
come first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Spans and a result
file with the environment block are written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
# Always one BLAS thread, so every run measures the same configuration; BLAS
# threading is outside the benchmark's scope. On the shared 2-vCPU machine
# the benchmark was tuned on, alternating runs of bt_paper varied 2.7 times
# as much with two BLAS threads (run_s quartile spread 0.26 against 0.10),
# while the outputs are bitwise the same either way.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_to_one_cpu() -> tuple[list[int], int]:
    """Run this process and every thread it starts on one CPU of its affinity set.

    The swarm's client and server threads hand each request back and forth.
    Spread over two vCPUs, every hand-off wakes the other vCPU, and the time
    that takes depends on how busy the host is: on a shared 2-vCPU machine
    the unpinned swarm took about 1.7 times as long as the pinned one. The
    simulations are single-threaded and lose nothing. Returns the affinity
    set at start and the chosen CPU.
    """
    allowed = sorted(os.sched_getaffinity(0))
    cpu = allowed[-1]
    os.sched_setaffinity(0, {cpu})
    return allowed, cpu


def import_program() -> None:
    """Put the checkout's own src/ first on the path; refuse any other peerfed."""
    if not (SRC / "peerfed" / "__init__.py").is_file():
        sys.exit(f"bench: no peerfed sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import peerfed

    if Path(peerfed.__file__).resolve().parent != SRC / "peerfed":
        sys.exit(f"bench: imported peerfed from {peerfed.__file__}, not {SRC}")


def loadavg() -> list[str]:
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return []


def environment(allowed: list[int], cpu: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 only prints its config
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {k: os.environ.get(k, "unset") for k in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": allowed,
        "pinned_cpu": cpu,
        "loadavg_start": loadavg(),
    }


def repeat(seconds: float, step) -> list:
    """Call step() at least once, and again while the next call should end in time."""
    results = []
    begin = time.perf_counter()
    while True:
        started = time.perf_counter()
        results.append(step())
        now = time.perf_counter()
        if now - begin + (now - started) > seconds:
            return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    allowed, cpu = pin_to_one_cpu()
    import_program()
    from probe import PER_GAP, REF_S, Probe
    from stats import summarize
    from tracing import Tracer, install, layer_metrics
    from workloads import (SWARM, WORKLOADS, Swarm, config, expected_digests, run_sim,
                           setup_sim)

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    env = environment(allowed, cpu)
    cfg = config(args.workload, args.seed)
    OUT.mkdir(parents=True, exist_ok=True)
    setups: list[tuple[float, float]] = []  # (wall seconds, probe time next to it)

    def gap(speed: Probe) -> None:
        """Time the probe PER_GAP times; for a simulation, pair a set-up with each.

        The machine's speed can flip within a second, so each set-up is scaled
        by the probe timed right after it, not by the run's median probe.
        """
        for _ in range(PER_GAP):
            if args.workload == SWARM or args.trace:
                speed.sample()
                continue
            start = time.perf_counter()
            setup_sim(cfg)
            elapsed = time.perf_counter() - start
            setups.append((elapsed, speed.sample()))

    def unit(traced: bool, out_dir: Path, speed: Probe):
        """One complete run after a gap; returns (UnitResult, Tracer or None).

        The swarm's own set-up, server start-up included, is one sample per
        run, scaled by the probe just before it: a set-up-only swarm would
        cost its servers' 0.5 s shutdown poll.
        """
        gap(speed)
        tracer = Tracer()
        try:
            if traced:
                install(tracer)
            if args.workload == SWARM:
                start = time.perf_counter()
                with Swarm(cfg) as swarm:
                    setups.append((time.perf_counter() - start, speed.samples[-1]))
                    result = swarm.run()
            else:
                result = run_sim(cfg, out_dir)
        finally:
            tracer.close()
        return result, tracer if traced else None

    with tempfile.TemporaryDirectory(dir=OUT) as scratch, Probe() as speed:
        if args.trace:
            pairs = repeat(args.seconds, lambda: (unit(False, Path(scratch), speed)[0],
                                                  unit(True, Path(scratch), speed)))
            plain = [pair[0] for pair in pairs]
            traced = [pair[1] for pair in pairs]
            units = plain + [result for result, _ in traced]
        else:
            units = [result for result, _ in
                     repeat(args.seconds, lambda: unit(False, Path(scratch), speed))]
        gap(speed)
    probe_s = statistics.median(speed.samples)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # Every repeat, untraced or traced, must reproduce each expected digest.
    notes = []
    expected = expected_digests(args.workload, args.seed, cfg)
    if not expected:
        expected = [units[0].digest]
        notes.append(f"no golden digest for seed {args.seed}; checked that repeats agree")
    matched = [all(u.digest == e for e in expected) for u in units]
    correct = all(matched)
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed if ok else u.attempted for u, ok in zip(units, matched))

    if args.trace:
        main_thread = threading.main_thread().ident
        per_unit = [layer_metrics(tracer.spans, r.started, r.started + r.run_s, main_thread)
                    for r, tracer in traced]
        traced[-1][1].write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        metrics = {name: (statistics.fmean(m[name][0] for m in per_unit), unit_)
                   for name, (_, unit_) in per_unit[0].items()}
        plain_s = statistics.median(u.run_s for u in plain)
        traced_s = statistics.median(r.run_s for r, _ in traced)
        metrics["experiments.final_dice"] = (traced[0][0].final_dice, "dice")
        metrics["federation.round.p95_ms"] = (
            statistics.median(summarize(r.rounds_ms).tail for r, _ in traced), "ms")
        metrics["trace.run_s"] = (traced_s, "s")
        metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
        metrics["trace.probe_ms"] = (probe_s * 1e3, "ms")
    else:
        # Round figures are taken per repeat, then the median over repeats,
        # so a burst of interference during one repeat does not set them.
        rounds = [summarize(u.rounds_ms) for u in units]
        # A repeat whose digest does not match completed no update.
        completed = [u.attempted - u.failed if ok else 0 for u, ok in zip(units, matched)]
        # Each repeat is scaled by the probes of the gaps just before and just
        # after it, so drift within the run is corrected too; each set-up by
        # the probe timed next to it. Times scale by REF_S / probe, rates inversely.
        scales = [REF_S / statistics.median(speed.samples[i * PER_GAP:(i + 2) * PER_GAP])
                  for i in range(len(units))]
        round_p95_ms = statistics.median(r.tail * k for r, k in zip(rounds, scales))
        notes.append(f"round_p95_ms {round_p95_ms} ms (not gated): the median over "
                     f"{len(units)} repeats of each repeat's p{rounds[0].tail_pct} "
                     f"of {rounds[0].count} rounds, scaled")
        wall = {
            "setup_s": statistics.median(wall for wall, _ in setups),
            "run_s": statistics.median(u.run_s for u in units),
            "updates_per_s": statistics.median(c / u.run_s for c, u in zip(completed, units)),
            "round_p50_ms": statistics.median(r.median for r in rounds),
        }
        notes.append("wall clock before scaling: " + ", ".join(
            f"{name} {value}" for name, value in wall.items()))
        metrics = {
            "setup_s": (statistics.median(t * REF_S / p for t, p in setups), "s"),
            "run_s": (statistics.median(u.run_s * k for u, k in zip(units, scales)), "s"),
            "updates_per_s": (statistics.median(
                c / (u.run_s * k) for c, u, k in zip(completed, units, scales)), "1/s"),
            "round_p50_ms": (statistics.median(r.median * k for r, k in zip(rounds, scales)),
                             "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    env["loadavg_end"] = loadavg()
    checks = {"expected_digests": expected, "digests": [u.digest for u in units],
              "repeats": len(units), "failed_frac": failed / attempted,
              "final_dice": units[0].final_dice, "probe_s": probe_s,
              "probe_samples_s": speed.samples, "repeats_wall_s": [u.run_s for u in units],
              "notes": notes}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"workload": args.workload, "seed": args.seed, "environment": env,
                    "checks": checks, "metrics": metrics}, indent=2) + "\n")

    print(f"environment: {json.dumps(env)}")
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(units)} repeats, "
          f"digest {'ok' if correct else 'MISMATCH'}, failed_frac={failed / attempted}, "
          f"final_dice={units[0].final_dice!r}, median probe {probe_s * 1e3} ms")
    for note in notes:
        print(f"note: {note}")
    for name, (value, unit_) in metrics.items():
        print(f"{name} {value} {unit_}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_}
                    for name, (value, unit_) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
