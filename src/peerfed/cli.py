"""Command-line interface: run trainings, print datasets, render reports."""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from .experiments import (
    SWEEPS,
    ExperimentConfig,
    build_dataset,
    manifest_config,
    read_json,
    run_summary,
    run_sweep,
    run_tcp_peer,
    run_training,
    write_table,
)
from .transport import TransportError, parse_peer_table


def _load_config(path: str) -> ExperimentConfig:
    return ExperimentConfig.from_dict(read_json(path))


def _error(exc: Exception) -> int:
    """Report input the command rejects, or a run the model stops, as one
    line; the exit status is 2."""
    print(f"error: {exc}", file=sys.stderr)
    return 2


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


def _run_inputs(args: argparse.Namespace) -> tuple[ExperimentConfig, list | None]:
    """The run's config, from --config or a manifest as written, and, for
    one TCP peer, its peer table. A bad command line or file raises
    ValueError, or OSError for a file that cannot be read; the runners check
    the rest before they make --out.
    """
    if args.experiment and (args.peers is not None or args.self_index is not None):
        raise ValueError("--experiment runs in one process; it takes no --peers or --self-index")
    if (args.peers is None) != (args.self_index is None):
        raise ValueError("a TCP peer needs both --peers and --self-index")
    cfg = (_load_config(args.config) if args.from_manifest is None
           else manifest_config(args.from_manifest))
    peers = None if args.peers is None else parse_peer_table(read_json(args.peers))
    return cfg, peers


def cmd_run(args: argparse.Namespace) -> int:
    try:
        cfg, peers = _run_inputs(args)
        # The model's own finite checks stop a run that overflows, with a
        # ValueError; numpy's floating-point warnings would only precede it.
        with np.errstate(all="ignore"):
            if args.experiment:
                tables = run_sweep(args.experiment, cfg, args.out)["tables"]
                for name, (headers, rows) in tables.items():
                    print(f"{name}:")  # the table of <out>/<name>.csv
                    _print_table(headers, [[_cell(v) for v in row] for row in rows])
            elif peers is not None:
                out = Path(args.out) if args.out else Path("peerfed-out")
                path = run_tcp_peer(cfg, args.self_index, peers, out)
                print(f"client {args.self_index} final weights: {path}")
            else:
                print("\n".join(run_summary(run_training(cfg, out_dir=args.out))))
    except (OSError, ValueError) as exc:
        return _error(exc)
    except TransportError as exc:  # a TCP peer's wait for the other peers ran out
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_dataset(args: argparse.Namespace) -> int:
    try:
        cfg = _load_config(args.config)
        train, test = build_dataset(cfg)
    except (OSError, ValueError) as exc:
        return _error(exc)
    num_classes = cfg.data.num_classes
    for name, images in (("train", train), ("test", test)):
        print(f"{name}: {len(images)} images, {num_classes} classes")
        for i, im in enumerate(images):
            counts = np.bincount(im.labels, minlength=num_classes)
            print(f"  [{i:3d}] {im.height}x{im.width} cohort={im.cohort:6.2f} "
                  f"class pixels={counts.tolist()}")
    return 0


def _metrics_rows(path: Path) -> list[list]:
    """(round_index, avg dice, aggregated dice, bytes) of each row of a run's
    metrics.csv; ValueError naming the file for a missing column or a bad number.
    """
    with open(path) as fh:
        try:
            return [[int(rec["round_index"]), float(rec["avg_client_dice"]),
                     float(rec["aggregated_model_dice"]), int(rec["bytes_transferred"])]
                    for rec in csv.DictReader(fh)]
        except KeyError as exc:
            raise ValueError(f"{path}: no {exc} column") from None
        except (TypeError, ValueError) as exc:  # TypeError: a row short of a column
            raise ValueError(f"{path}: {exc}") from None


def cmd_report(args: argparse.Namespace) -> int:
    root = Path(args.indir)
    manifests = sorted(root.glob("**/manifest.json"))
    if not manifests:
        print(f"no run manifests under {root}", file=sys.stderr)
        return 1
    rows = []
    plot_rows = []
    try:
        for manifest_path in manifests:
            run_dir = manifest_path.parent
            cfg = manifest_config(manifest_path)
            records = _metrics_rows(run_dir / "metrics.csv")
            if not records:
                continue
            name = (run_dir.relative_to(root).as_posix() if run_dir != root
                    else root.resolve().name)
            _, avg, agg, nbytes = records[-1]
            rows.append([name, cfg.mode, cfg.n_clients, avg, agg, nbytes])
            plot_rows += [[name, cfg.mode, cfg.n_clients, *rec] for rec in records]
        out_csv = Path(args.out) if args.out else root / "report.csv"
        write_table(out_csv, ["run", "mode", "n_clients", "round_index", "avg_client_dice",
                              "aggregated_model_dice", "bytes_transferred"], plot_rows)
    except (OSError, ValueError) as exc:
        return _error(exc)
    _print_table(["run", "mode", "clients", "avg dice", "agg dice", "bytes"],
                 [[_cell(v) for v in row] for row in rows])
    print(f"plot-ready CSV: {out_csv}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises ValueError for a bad command line, so main reports it in one line."""

    def error(self, message: str):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="peerfed",
        description="Federated learning (server-based and peer-to-peer) "
                    "on synthetic segmentation data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a training or a full experiment sweep")
    run.add_argument("--config", help="JSON experiment config")
    run.add_argument("--from-manifest", help="take the config a run manifest records")
    run.add_argument("--out", help="output directory for metrics and manifest")
    run.add_argument("--peers", help="JSON peer table; with --self-index, run one TCP peer")
    run.add_argument("--self-index", type=int, help="this TCP peer's client index")
    run.add_argument("--experiment", choices=SWEEPS,
                     help="run a full experiment sweep instead of a single config")
    run.set_defaults(func=cmd_run)

    dataset = sub.add_parser("dataset", help="print the data a config generates")
    dataset.add_argument("--config", required=True, help="JSON experiment config")
    dataset.set_defaults(func=cmd_dataset)

    report = sub.add_parser("report", help="summarize run directories")
    report.add_argument("--in", dest="indir", required=True)
    report.add_argument("--out", help="where to write the plot-ready CSV")
    report.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "run" and (args.config is None) == (args.from_manifest is None):
            raise ValueError("run needs exactly one of --config and --from-manifest")
    except ValueError as exc:
        return _error(exc)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
