"""Command-line interface: run trainings, generate datasets, render reports."""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .data import load_dataset, save_dataset
from .experiments import (
    ExperimentConfig,
    build_dataset,
    run_experiment1,
    run_experiment2,
    run_from_manifest,
    run_tcp_peer,
    run_training,
)
from .transport import parse_peer_table


def _load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        return ExperimentConfig.from_dict(json.load(fh))


def _apply_overrides(cfg: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    if args.mode:
        cfg = replace(cfg, mode=args.mode)
    if args.clients:
        cfg = replace(cfg, n_clients=args.clients)
    if args.rounds:
        cfg = replace(cfg, rounds_fls=args.rounds)
    if args.transport:
        cfg = replace(cfg, transport=args.transport)
    seed_overrides = {
        name: getattr(args, f"seed_{name}")
        for name in ("data", "init", "shuffle", "initiator")
        if getattr(args, f"seed_{name}") is not None
    }
    if seed_overrides:
        cfg = replace(cfg, seeds=replace(cfg.seeds, **seed_overrides))
    return cfg


def _print_table(headers: list[str], rows: list[list[str]]) -> None:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))


def _cell(value) -> str:
    return f"{value:.4f}" if isinstance(value, float) else str(value)


def cmd_run(args: argparse.Namespace) -> int:
    if args.from_manifest:
        result = run_from_manifest(args.from_manifest, out_dir=args.out)
        print(f"reproduced run: {result.config.mode}, "
              f"final avg dice {result.final.avg_client_dice:.4f}")
        return 0

    cfg = _apply_overrides(_load_config(args.config), args)

    if args.experiment:
        run = run_experiment1 if args.experiment == "exp1" else run_experiment2
        for name, table in run(cfg, out_dir=args.out)["tables"].items():
            if isinstance(table, tuple):  # (headers, rows), as in <name>.csv
                headers, rows = table
                print(f"{name}:")
                _print_table(headers, [[_cell(v) for v in row] for row in rows])
            else:
                print(f"{name}: {_cell(table)}")
        return 0

    if cfg.transport == "tcp":
        if args.peers is None or args.self_index is None:
            print("error: --transport tcp requires --peers and --self-index",
                  file=sys.stderr)
            return 2
        with open(args.peers) as fh:
            peers = parse_peer_table(json.load(fh))
        out = Path(args.out) if args.out else Path("peerfed-out")
        path = run_tcp_peer(cfg, args.self_index, peers, out)
        print(f"client {args.self_index} final weights: {path}")
        return 0

    result = run_training(cfg, out_dir=args.out)
    final = result.final
    print(f"mode={cfg.mode} clients={cfg.n_clients} rounds={cfg.rounds_fls}")
    print(f"final avg dice over clients: {final.avg_client_dice:.4f}")
    print(f"final aggregated-model dice: {final.aggregated_model_dice:.4f}")
    print(f"bytes transferred: {final.bytes_transferred}")
    if args.out:
        print(f"outputs written to {args.out}")
    return 0


def cmd_dataset(args: argparse.Namespace) -> int:
    if args.dataset_cmd == "gen":
        cfg = _load_config(args.config)
        train, test = build_dataset(cfg)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        save_dataset(train, cfg.data.num_classes, out / "train.btds")
        save_dataset(test, cfg.data.num_classes, out / "test.btds")
        print(f"wrote {len(train)} train / {len(test)} test images to {out}")
        return 0
    images, num_classes = load_dataset(args.infile)
    print(f"{len(images)} images, {num_classes} classes")
    for i, im in enumerate(images):
        counts = np.bincount(im.labels, minlength=num_classes)
        print(f"  [{i:3d}] {im.height}x{im.width} cohort={im.cohort:6.2f} "
              f"class pixels={list(counts)}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    root = Path(args.indir)
    manifests = sorted(root.glob("**/manifest.json"))
    if not manifests:
        print(f"no run manifests under {root}", file=sys.stderr)
        return 1
    rows = []
    plot_rows = []
    for manifest_path in manifests:
        manifest = json.loads(manifest_path.read_text())
        cfg = manifest["config"]
        run_dir = manifest_path.parent
        with open(run_dir / manifest["outputs"]["metrics_csv"]) as fh:
            records = list(csv.DictReader(fh))
        if not records:
            continue
        final = records[-1]
        name = run_dir.relative_to(root).as_posix() or run_dir.name
        rows.append([
            name, cfg["mode"], str(cfg["n_clients"]),
            f"{float(final['avg_client_dice']):.4f}",
            f"{float(final['aggregated_model_dice']):.4f}",
            final["bytes_transferred"],
        ])
        for rec in records:
            plot_rows.append([
                name, cfg["mode"], str(cfg["n_clients"]), rec["round_index"],
                rec["avg_client_dice"], rec["aggregated_model_dice"],
                rec["bytes_transferred"],
            ])
    _print_table(["run", "mode", "clients", "avg dice", "agg dice", "bytes"], rows)
    out_csv = Path(args.out) if args.out else root / "report.csv"
    with open(out_csv, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["run", "mode", "n_clients", "round_index",
                         "avg_client_dice", "aggregated_model_dice", "bytes_transferred"])
        writer.writerows(plot_rows)
    print(f"plot-ready CSV: {out_csv}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peerfed",
        description="Federated learning (server-based and peer-to-peer) "
                    "on synthetic segmentation data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a training or a full experiment sweep")
    run.add_argument("--config", help="JSON experiment config")
    run.add_argument("--from-manifest", help="reproduce a run from its manifest")
    run.add_argument("--mode", choices=("fls", "braintorrent", "pooled", "only_client"))
    run.add_argument("--clients", type=int)
    run.add_argument("--rounds", type=int)
    run.add_argument("--out", help="output directory for metrics and manifest")
    run.add_argument("--transport", choices=("sim", "tcp"))
    run.add_argument("--peers", help="JSON peer table for TCP runs")
    run.add_argument("--self-index", type=int, help="this process's client index (TCP)")
    run.add_argument("--experiment", choices=("exp1", "exp2"),
                     help="run a full experiment sweep instead of a single config")
    for name in ("data", "init", "shuffle", "initiator"):
        run.add_argument(f"--seed-{name}", type=int, dest=f"seed_{name}")
    run.set_defaults(func=cmd_run)

    dataset = sub.add_parser("dataset", help="generate or inspect datasets")
    dataset_sub = dataset.add_subparsers(dest="dataset_cmd", required=True)
    gen = dataset_sub.add_parser("gen", help="generate train/test BTDS files")
    gen.add_argument("--config", required=True)
    gen.add_argument("--out", required=True)
    dump = dataset_sub.add_parser("dump", help="summarize a BTDS file")
    dump.add_argument("--in", dest="infile", required=True)
    dataset.set_defaults(func=cmd_dataset)

    report = sub.add_parser("report", help="summarize run directories")
    report.add_argument("--in", dest="indir", required=True)
    report.add_argument("--out", help="where to write the plot-ready CSV")
    report.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run" and not args.config and not args.from_manifest:
        print("error: run needs --config or --from-manifest", file=sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
