"""Experiment runner: declarative configs, training runs, metrics, manifests.

A run is fully described by an ExperimentConfig; with the simulated
transport the resulting metrics are a pure function of the config, and a
run's manifest is sufficient to reproduce its metrics files byte for
byte. ``schedule(cfg)`` lists a run's update steps, and both the
simulated runner and each TCP peer walk that one list. The four modes
differ only in the steps it holds:

* ``fls``          R server rounds (tune all, average all, broadcast)
* ``braintorrent`` peer rounds, one seeded initiator each; a config asking
                   for R server rounds gets an R x n_clients update budget,
                   the optional warm-up local pass included
* ``pooled``       R local passes of one client holding all training data
* ``only_client``  R local passes of n_clients isolated clients
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    FEATURE_CHANNELS,
    DatasetShard,
    GenConfig,
    SegImage,
    generate_dataset,
    generate_dataset_for_cohorts,
    split_by_cohort,
    split_uniform,
)
from .federation import (
    ClientNode,
    ClientState,
    RoundParams,
    VersionVector,
    aggregate_all_clients,
    bt_round,
    fls_round,
    pick_initiator,
    run_initiator_round,
    local_update,
)
from .model import ModelSpec, ModelWeights, dice_score, init_model, predict
from .seeding import derive_seed
from .transport import (
    PeerAddress,
    PeerUnreachableError,
    SimTransport,
    TcpPeerServer,
    TcpTransport,
    TransportError,
    weights_frame_bytes,
)

MODES = ("fls", "braintorrent", "pooled", "only_client")
EXP1_CLIENT_SWEEP = (5, 7, 10, 20)
EXP2_BOUNDARIES = (20.0, 30.0, 40.0, 50.0)
EXP2_COUNTS = (5, 9, 2, 1, 3)


def _require_keys(section: str, given: dict, allowed: set[str]) -> None:
    unknown = set(given) - allowed
    if unknown:
        raise ValueError(f"unknown {section} keys: {sorted(unknown)}")


_JSON_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,)}


def _typed(cls, d: dict) -> dict:
    """d, once every value for a bool, int or float field of cls (or a tuple
    of them) has that type: JSON's "false" is not a bool, and true, 2.5
    and "10" are not integers.
    """
    kinds = {f.name: f.type for f in fields(cls)}
    for key, value in d.items():
        kind = kinds.get(key, "")
        if kind.startswith("tuple[") and value is not None:
            item = _JSON_TYPES[kind[len("tuple["):kind.index(",")]]
            ok = isinstance(value, (list, tuple)) and all(type(v) in item for v in value)
        elif kind in _JSON_TYPES:
            ok = type(value) in _JSON_TYPES[kind]
        else:
            continue
        if not ok:
            raise ValueError(f"{key} must be {kind}, got {value!r}")
    return d


@dataclass(frozen=True)
class Seeds:
    data: int = 0
    init: int = 1
    shuffle: int = 2
    initiator: int = 3

    @staticmethod
    def from_dict(d: dict) -> "Seeds":
        _require_keys("seeds", d, {"data", "init", "shuffle", "initiator"})
        return Seeds(**_typed(Seeds, d))

    def to_dict(self) -> dict:
        return {"data": self.data, "init": self.init,
                "shuffle": self.shuffle, "initiator": self.initiator}


@dataclass(frozen=True)
class SplitSpec:
    kind: str = "uniform"
    boundaries: tuple[float, ...] | None = None
    counts: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("uniform", "cohort"):
            raise ValueError(f"unknown split kind {self.kind!r}")
        if self.kind == "uniform" and (self.boundaries or self.counts):
            raise ValueError("uniform split takes no boundaries or counts")
        if self.kind == "cohort":
            if self.boundaries is None:
                raise ValueError("cohort split requires boundaries")
            if self.counts is not None and len(self.counts) != len(self.boundaries) + 1:
                raise ValueError(
                    f"need {len(self.boundaries) + 1} counts for "
                    f"{len(self.boundaries)} boundaries"
                )

    @staticmethod
    def from_dict(d: dict) -> "SplitSpec":
        _require_keys("split", d, {"kind", "boundaries", "counts"})
        _typed(SplitSpec, d)
        return SplitSpec(
            kind=d.get("kind", "uniform"),
            boundaries=tuple(float(b) for b in d["boundaries"]) if d.get("boundaries") else None,
            counts=tuple(d["counts"]) if d.get("counts") else None,
        )

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.boundaries is not None:
            out["boundaries"] = list(self.boundaries)
        if self.counts is not None:
            out["counts"] = list(self.counts)
        return out


def _model_from_dict(d: dict) -> ModelSpec:
    _require_keys("model", d, {"input_dim", "hidden_dims", "num_classes", "activation"})
    _typed(ModelSpec, d)
    return ModelSpec(
        input_dim=d.get("input_dim", FEATURE_CHANNELS),
        hidden_dims=tuple(d.get("hidden_dims", (512,))),
        num_classes=d.get("num_classes", 4),
        activation=d.get("activation", "relu"),
    )


def _model_to_dict(spec: ModelSpec) -> dict:
    return {
        "input_dim": spec.input_dim,
        "hidden_dims": list(spec.hidden_dims),
        "num_classes": spec.num_classes,
        "activation": spec.activation,
    }


_DATA_KEYS = {
    "num_train", "num_test", "height", "width", "num_classes",
    "noise_std", "cohort_shift", "feature_scale",
}


def _data_from_dict(d: dict) -> GenConfig:
    if "seed" in d:
        raise ValueError("data.seed is not a config key; generation uses seeds.data")
    _require_keys("data", d, _DATA_KEYS)
    return GenConfig(**_typed(GenConfig, d))


def _data_to_dict(cfg: GenConfig) -> dict:
    return {
        "num_train": cfg.num_train,
        "num_test": cfg.num_test,
        "height": cfg.height,
        "width": cfg.width,
        "num_classes": cfg.num_classes,
        "noise_std": cfg.noise_std,
        "cohort_shift": cfg.cohort_shift,
        "feature_scale": cfg.feature_scale,
    }


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; serializes losslessly to and from JSON."""

    mode: str = "fls"
    n_clients: int = 10
    split: SplitSpec = field(default_factory=SplitSpec)
    rounds_fls: int = 16
    model: ModelSpec = field(default_factory=lambda: ModelSpec(FEATURE_CHANNELS, (512,), 4))
    data: GenConfig = field(default_factory=GenConfig)
    base_lr: float = 0.001
    epochs_per_round: int = 2
    batch_size: int = 1
    merge_norm: str = "participants"
    aggregate: str = "weighted"
    bt_warmup: bool = True
    on_unreachable: str = "skip"
    eval_every: int = 1
    seeds: Seeds = field(default_factory=Seeds)
    transport: str = "sim"
    sim_drop_prob: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.n_clients < 1:
            raise ValueError(f"n_clients must be >= 1, got {self.n_clients}")
        if self.rounds_fls < 1:
            raise ValueError(f"rounds_fls must be >= 1, got {self.rounds_fls}")
        if self.base_lr <= 0:
            raise ValueError(f"base_lr must be > 0, got {self.base_lr}")
        if self.epochs_per_round < 1 or self.batch_size < 1:
            raise ValueError("epochs_per_round and batch_size must be >= 1")
        if self.merge_norm not in ("participants", "global"):
            raise ValueError(f"unknown merge_norm {self.merge_norm!r}")
        if self.aggregate not in ("weighted", "unweighted"):
            raise ValueError(f"unknown aggregate {self.aggregate!r}")
        if self.on_unreachable not in ("skip", "abort"):
            raise ValueError(f"unknown on_unreachable {self.on_unreachable!r}")
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {self.eval_every}")
        if self.transport not in ("sim", "tcp"):
            raise ValueError(f"unknown transport {self.transport!r}")
        if not 0.0 <= self.sim_drop_prob < 1.0:
            raise ValueError(f"sim_drop_prob must be in [0, 1), got {self.sim_drop_prob}")
        if self.model.input_dim != FEATURE_CHANNELS:
            raise ValueError(
                f"model input_dim must equal the {FEATURE_CHANNELS} feature channels"
            )
        if self.model.num_classes != self.data.num_classes:
            raise ValueError(
                f"model num_classes {self.model.num_classes} != "
                f"data num_classes {self.data.num_classes}"
            )
        if self.split.kind == "cohort":
            if self.split.counts is not None:
                if self.n_clients != len(self.split.counts):
                    raise ValueError(
                        f"cohort split with {len(self.split.counts)} buckets needs "
                        f"n_clients={len(self.split.counts)}, got {self.n_clients}"
                    )
                if sum(self.split.counts) != self.data.num_train:
                    raise ValueError(
                        f"cohort counts {self.split.counts} must sum to "
                        f"num_train={self.data.num_train}"
                    )
            elif self.n_clients != len(self.split.boundaries) + 1:
                raise ValueError("cohort split needs one client per bucket")
        elif self.mode != "pooled" and self.n_clients > self.data.num_train:
            raise ValueError(
                f"{self.n_clients} clients cannot share {self.data.num_train} images"
            )

    _TOP_KEYS = {
        "mode", "n_clients", "split", "rounds_fls", "model", "data", "base_lr",
        "epochs_per_round", "batch_size", "merge_norm", "aggregate", "bt_warmup",
        "on_unreachable", "eval_every", "seeds", "transport", "sim_drop_prob",
    }

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        _require_keys("config", d, ExperimentConfig._TOP_KEYS)
        kwargs: dict = {k: v for k, v in _typed(ExperimentConfig, d).items()
                        if k not in ("split", "model", "data", "seeds")}
        if "split" in d:
            kwargs["split"] = SplitSpec.from_dict(d["split"])
        if "model" in d:
            kwargs["model"] = _model_from_dict(d["model"])
        if "data" in d:
            kwargs["data"] = _data_from_dict(d["data"])
        if "seeds" in d:
            kwargs["seeds"] = Seeds.from_dict(d["seeds"])
        return ExperimentConfig(**kwargs)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "n_clients": self.n_clients,
            "split": self.split.to_dict(),
            "rounds_fls": self.rounds_fls,
            "model": _model_to_dict(self.model),
            "data": _data_to_dict(self.data),
            "base_lr": self.base_lr,
            "epochs_per_round": self.epochs_per_round,
            "batch_size": self.batch_size,
            "merge_norm": self.merge_norm,
            "aggregate": self.aggregate,
            "bt_warmup": self.bt_warmup,
            "on_unreachable": self.on_unreachable,
            "eval_every": self.eval_every,
            "seeds": self.seeds.to_dict(),
            "transport": self.transport,
            "sim_drop_prob": self.sim_drop_prob,
        }


@dataclass
class MetricsRecord:
    round_index: int
    per_client_dice: list[float]
    avg_client_dice: float
    aggregated_model_dice: float
    bytes_transferred: int
    wall_time_ms: int


@dataclass
class RunResult:
    config: ExperimentConfig
    records: list[MetricsRecord]
    final_clients: list[ClientState]
    aggregated: ModelWeights
    total_updates: int
    failed_rounds: int
    trajectory: list[list[np.ndarray]] | None = None
    manifest: dict | None = None

    @property
    def final(self) -> MetricsRecord:
        return self.records[-1]


def build_dataset(cfg: ExperimentConfig) -> tuple[list[SegImage], list[SegImage]]:
    data = replace(cfg.data, seed=cfg.seeds.data)
    if cfg.split.kind == "cohort" and cfg.split.counts is not None:
        return generate_dataset_for_cohorts(
            data, list(cfg.split.boundaries), list(cfg.split.counts)
        )
    return generate_dataset(data)


def build_shards(cfg: ExperimentConfig, train: list[SegImage]) -> list[DatasetShard]:
    split_seed = derive_seed(cfg.seeds.data, "split")
    if cfg.mode == "pooled":
        # The pooled baseline is the one-client degenerate federation, so
        # its shard ordering matches a 1-client split of the same data.
        return split_uniform(train, 1, split_seed)
    if cfg.split.kind == "cohort":
        return split_by_cohort(
            train,
            list(cfg.split.boundaries),
            list(cfg.split.counts) if cfg.split.counts is not None else None,
        )
    return split_uniform(train, cfg.n_clients, split_seed)


def evaluate_model(
    spec: ModelSpec,
    weights: ModelWeights,
    images: list[SegImage],
    num_classes: int,
) -> float:
    """Mean over images of the per-image mean Dice across present classes."""
    scores = [
        dice_score(predict(spec, weights, im.features), im.labels, num_classes)[1]
        for im in images
    ]
    return float(np.mean(scores))


def _round_params(cfg: ExperimentConfig, total_samples: int) -> RoundParams:
    return RoundParams(
        spec=cfg.model,
        epochs=cfg.epochs_per_round,
        base_lr=cfg.base_lr,
        batch_size=cfg.batch_size,
        shuffle_seed=cfg.seeds.shuffle,
        merge_norm=cfg.merge_norm,
        on_unreachable=cfg.on_unreachable,
        total_samples=total_samples,
    )


def _initial_clients(cfg: ExperimentConfig, shards: list[DatasetShard]) -> list[ClientState]:
    w0 = init_model(cfg.model, cfg.seeds.init)
    return [
        ClientState(
            client_index=i,
            weights=w0.copy(),
            version=VersionVector.zeros(len(shards)),
            shard=shards[i],
            own_update_count=0,
        )
        for i in range(len(shards))
    ]


def bt_total_rounds(cfg: ExperimentConfig) -> int:
    """Peer rounds in an R x N update budget; warm-up passes count toward it."""
    budget = cfg.rounds_fls * cfg.n_clients
    return budget - (cfg.n_clients if cfg.bt_warmup else 0)


SERVER_ROUND = "server_round"  # one fls_round over every client
LOCAL_PASS = "local_pass"  # one local_update per client, no communication
Step = str | int  # SERVER_ROUND, LOCAL_PASS, or the initiator of one peer round


def schedule(cfg: ExperimentConfig) -> list[Step]:
    """The run's update steps in order, for the simulated run and every TCP peer."""
    if cfg.mode == "fls":
        return [SERVER_ROUND] * cfg.rounds_fls
    if cfg.mode != "braintorrent":
        return [LOCAL_PASS] * cfg.rounds_fls
    warmup = [LOCAL_PASS] if cfg.bt_warmup else []
    return warmup + [pick_initiator(r, cfg.n_clients, cfg.seeds.initiator)
                     for r in range(bt_total_rounds(cfg))]


def expected_versions(steps: list[Step], n_clients: int) -> list[int]:
    """Own-version each client has reached once all the given steps are done."""
    counts = [0] * n_clients
    for step in steps:
        for i in range(n_clients) if isinstance(step, str) else [step]:
            counts[i] += 1
    return counts


def run_training(
    cfg: ExperimentConfig,
    out_dir: str | Path | None = None,
    capture_trajectory: bool = False,
) -> RunResult:
    """Execute one run under the simulated transport and optionally persist it.

    Walks schedule(cfg), evaluating after every eval_every x len(nodes)
    client updates and once more at the end if the last update was not
    evaluated. A peer round that cannot reach a peer changes nothing and
    counts as failed.
    """
    if cfg.transport != "sim":
        raise ValueError("run_training drives the simulated transport; "
                         "use run_tcp_peer for one TCP peer process")
    started = time.perf_counter()
    started_at = datetime.now(timezone.utc).isoformat()

    train, test = build_dataset(cfg)
    shards = build_shards(cfg, train)
    nodes = [ClientNode(c) for c in _initial_clients(cfg, shards)]
    transport = SimTransport(
        len(nodes),
        seed=derive_seed(cfg.seeds.initiator, "faults"),
        drop_prob=cfg.sim_drop_prob,
    )
    for i, node in enumerate(nodes):
        transport.register(i, node)
    params = _round_params(cfg, total_samples=sum(s.sample_count for s in shards))
    frame_bytes = weights_frame_bytes(cfg.model.param_count())

    server: ModelWeights | None = None  # the last server round's aggregate
    server_bytes = updates = failed_rounds = 0
    evaluated_at = None
    records: list[MetricsRecord] = []
    trajectory: list[list[np.ndarray]] | None = [] if capture_trajectory else None

    def aggregate(states: list[ClientState]) -> ModelWeights:
        if server is not None:
            return server
        return aggregate_all_clients(states, weighted=cfg.aggregate == "weighted")

    def evaluate() -> None:
        states = [n.state for n in nodes]
        per_client = [evaluate_model(cfg.model, s.weights, test, cfg.data.num_classes)
                      for s in states]
        records.append(MetricsRecord(
            round_index=updates // len(nodes),
            per_client_dice=per_client,
            avg_client_dice=float(np.mean(per_client)),
            aggregated_model_dice=evaluate_model(cfg.model, aggregate(states), test,
                                                 cfg.data.num_classes),
            bytes_transferred=server_bytes + transport.delivered_bytes(),
            wall_time_ms=int((time.perf_counter() - started) * 1000),
        ))
        if trajectory is not None:
            trajectory.append([s.weights.params.copy() for s in states])

    for step in schedule(cfg):
        if step == SERVER_ROUND:
            states, server = fls_round([n.state for n in nodes], params)
            for node, state in zip(nodes, states):
                node.commit(state)
            # Notional traffic: every client uploads its model and
            # downloads the aggregate once per round.
            server_bytes += 2 * len(nodes) * frame_bytes
            updates += len(nodes)
        elif step == LOCAL_PASS:
            for node in nodes:
                node.commit(local_update(node.state, params))
            updates += len(nodes)
        else:
            try:
                bt_round(nodes, step, params, transport)
            except PeerUnreachableError:
                failed_rounds += 1
                continue
            updates += 1
        if updates % (cfg.eval_every * len(nodes)) == 0:
            evaluate()
            evaluated_at = updates
    if evaluated_at != updates:
        evaluate()

    final_clients = [n.state for n in nodes]
    result = RunResult(
        config=cfg,
        records=records,
        final_clients=final_clients,
        aggregated=aggregate(final_clients),
        total_updates=updates,
        failed_rounds=failed_rounds,
        trajectory=trajectory,
    )
    if out_dir is not None:
        result.manifest = write_run_outputs(result, Path(out_dir), started_at)
    return result


def format_real(x: float) -> str:
    """17 significant digits: enough to round-trip any float64 exactly."""
    return format(float(x), ".17g")


def metrics_to_csv(records: list[MetricsRecord]) -> str:
    """Render records as CSV with a stable column order and no wall-clock timing."""
    n_clients = len(records[0].per_client_dice) if records else 0
    columns = ["round_index", "avg_client_dice", "aggregated_model_dice", "bytes_transferred"]
    columns += [f"client_{i:02d}_dice" for i in range(n_clients)]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for rec in records:
        row = [
            str(rec.round_index),
            format_real(rec.avg_client_dice),
            format_real(rec.aggregated_model_dice),
            str(rec.bytes_transferred),
        ]
        row += [format_real(d) for d in rec.per_client_dice]
        writer.writerow(row)
    return buffer.getvalue()


def metrics_to_json(records: list[MetricsRecord]) -> str:
    out = [
        {
            "round_index": rec.round_index,
            "avg_client_dice": rec.avg_client_dice,
            "aggregated_model_dice": rec.aggregated_model_dice,
            "bytes_transferred": rec.bytes_transferred,
            "per_client_dice": list(rec.per_client_dice),
        }
        for rec in records
    ]
    return json.dumps({"records": out}, indent=2) + "\n"


def emit_metrics(records: list[MetricsRecord], path: str | Path, fmt: str = "csv") -> Path:
    """Write records to a file; canonical output excludes wall-clock timing."""
    path = Path(path)
    if fmt == "csv":
        text = metrics_to_csv(records)
    elif fmt == "json":
        text = metrics_to_json(records)
    else:
        raise ValueError(f"unknown metrics format {fmt!r}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def write_run_outputs(result: RunResult, out_dir: Path, started_at: str) -> dict:
    """Persist metrics (canonical), a reproduction manifest, and a report."""
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_csv = emit_metrics(result.records, out_dir / "metrics.csv", "csv")
    metrics_json = emit_metrics(result.records, out_dir / "metrics.json", "json")

    manifest = {
        "config": result.config.to_dict(),
        "code_version": __version__,
        "started_at": started_at,
        "finished_at": datetime.now(timezone.utc).isoformat(),
        "total_updates": result.total_updates,
        "failed_rounds": result.failed_rounds,
        "shard_sizes": [c.shard.sample_count for c in result.final_clients],
        "outputs": {
            "metrics_csv": metrics_csv.name,
            "metrics_json": metrics_json.name,
            "report": "report.txt",
        },
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")

    lines = [
        f"mode={result.config.mode} n_clients={result.config.n_clients} "
        f"rounds_fls={result.config.rounds_fls}",
        f"total client updates: {result.total_updates} "
        f"(failed rounds: {result.failed_rounds})",
    ]
    if result.records:
        final = result.final
        lines += [
            f"final avg dice over clients: {final.avg_client_dice:.4f}",
            f"final aggregated-model dice: {final.aggregated_model_dice:.4f}",
            f"bytes transferred: {final.bytes_transferred}",
            f"wall time: {final.wall_time_ms} ms",
        ]
    (out_dir / "report.txt").write_text("\n".join(lines) + "\n")
    return manifest


def run_from_manifest(manifest_path: str | Path, out_dir: str | Path | None = None) -> RunResult:
    """Re-execute the run a manifest describes; metrics reproduce bitwise."""
    manifest = json.loads(Path(manifest_path).read_text())
    cfg = ExperimentConfig.from_dict(manifest["config"])
    return run_training(cfg, out_dir=out_dir)


# ---------------------------------------------------------------------------
# Experiment sweeps
# ---------------------------------------------------------------------------


def _run_name(mode: str, n_clients: int) -> str:
    return f"{mode}_c{n_clients:02d}"


def write_table(path: Path, headers: list[str], rows: list[list]) -> None:
    """Write one experiment table as CSV, reals at 17 significant digits."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows([format_real(v) if isinstance(v, float) else v for v in row]
                         for row in rows)


def _client_columns(n_clients: int) -> list[str]:
    return [f"client_{i:02d}" for i in range(n_clients)]


def run_experiment1(
    base_cfg: ExperimentConfig,
    out_dir: str | Path | None = None,
) -> dict:
    """Client sweep 5/7/10/20 for both protocols plus pooled and only-client.

    Produces two (headers, rows) tables, each written to ``<name>.csv``:
    ``summary_clients`` (avg-over-clients and aggregated-model dice per
    client count, plus a pooled row) and ``per_client_10`` (per-client
    dice of the 10-client setting).
    """
    if base_cfg.data.num_train != max(EXP1_CLIENT_SWEEP):
        raise ValueError(
            f"experiment 1 sweeps up to {max(EXP1_CLIENT_SWEEP)} clients and needs "
            f"num_train={max(EXP1_CLIENT_SWEEP)}, got {base_cfg.data.num_train}"
        )
    out = Path(out_dir) if out_dir is not None else None
    runs: dict[str, RunResult] = {}

    def run_point(mode: str, n_clients: int) -> MetricsRecord:
        cfg = replace(base_cfg, mode=mode, n_clients=n_clients,
                      split=SplitSpec(kind="uniform"))
        name = _run_name(mode, n_clients)
        runs[name] = run_training(cfg, out_dir=out / name if out else None)
        return runs[name].final

    summary = []
    for n_clients in EXP1_CLIENT_SWEEP:
        fls = run_point("fls", n_clients)
        bt = run_point("braintorrent", n_clients)
        summary.append([n_clients, round(base_cfg.data.num_train / n_clients),
                        fls.avg_client_dice, bt.avg_client_dice,
                        fls.aggregated_model_dice, bt.aggregated_model_dice])
    pooled = run_point("pooled", base_cfg.n_clients)
    summary.append(["pooled", "", "", "", pooled.aggregated_model_dice, ""])
    run_point("only_client", 10)

    per_client = []
    for mode in ("braintorrent", "fls", "only_client"):
        dice = runs[_run_name(mode, 10)].final.per_client_dice
        per_client.append([mode, *dice, float(np.mean(dice))])

    tables = {
        "summary_clients": (
            ["n_clients", "images_per_client", "fls_avg_dice", "braintorrent_avg_dice",
             "fls_aggregated_dice", "braintorrent_aggregated_dice"],
            summary,
        ),
        "per_client_10": (["method", *_client_columns(10), "mean"], per_client),
    }
    if out is not None:
        for name, (headers, rows) in tables.items():
            write_table(out / f"{name}.csv", headers, rows)
    return {"tables": tables, "runs": runs}


def run_experiment2(
    base_cfg: ExperimentConfig,
    out_dir: str | Path | None = None,
) -> dict:
    """Non-uniform cohort shards (sizes 5/9/2/1/3) for both protocols plus pooled.

    Produces the ``cohort_table`` (headers, rows) table, written to
    ``cohort_table.csv``, with the shard sizes and the braintorrent minus
    fls average dice beside it.
    """
    if base_cfg.data.num_train != sum(EXP2_COUNTS):
        raise ValueError(
            f"experiment 2 needs num_train={sum(EXP2_COUNTS)}, got {base_cfg.data.num_train}"
        )
    out = Path(out_dir) if out_dir is not None else None
    n_clients = len(EXP2_COUNTS)
    split = SplitSpec(kind="cohort", boundaries=EXP2_BOUNDARIES, counts=EXP2_COUNTS)
    runs: dict[str, RunResult] = {}
    for mode in ("braintorrent", "fls", "pooled"):
        cfg = replace(base_cfg, mode=mode, n_clients=n_clients, split=split)
        name = "pooled" if mode == "pooled" else _run_name(mode, n_clients)
        runs[mode] = run_training(cfg, out_dir=out / name if out else None)

    rows = []
    for mode in ("braintorrent", "fls"):
        final = runs[mode].final
        rows.append([mode, *final.per_client_dice, final.avg_client_dice,
                     final.aggregated_model_dice])
    rows.append(["pooled", *[""] * n_clients, "", runs["pooled"].final.aggregated_model_dice])
    tables = {
        "cohort_table": (["method", *_client_columns(n_clients), "avg", "aggregated"], rows),
        "shard_sizes": [c.shard.sample_count for c in runs["fls"].final_clients],
        "bt_minus_fls_avg": (runs["braintorrent"].final.avg_client_dice
                             - runs["fls"].final.avg_client_dice),
    }
    if out is not None:
        write_table(out / "cohort_table.csv", *tables["cohort_table"])
    return {"tables": tables, "runs": runs}


# ---------------------------------------------------------------------------
# TCP peer process
# ---------------------------------------------------------------------------


def _wait_for_versions(
    transport: TcpTransport,
    self_index: int,
    own_version: int,
    expected: list[int],
    deadline_s: float,
    allow_down: bool = False,
    poll_interval_s: float = 0.05,
) -> None:
    pending = {j for j in range(len(expected)) if j != self_index}
    if own_version < expected[self_index]:
        raise RuntimeError("local client is behind its own schedule")
    deadline = time.monotonic() + deadline_s
    while pending:
        for j in sorted(pending):
            try:
                if transport.ping(self_index, j) >= expected[j]:
                    pending.discard(j)
            except TransportError:
                if allow_down:
                    pending.discard(j)
        if pending:
            if time.monotonic() > deadline:
                raise RuntimeError(f"peers {sorted(pending)} never reached {expected}")
            time.sleep(poll_interval_s)


def run_tcp_peer(
    cfg: ExperimentConfig,
    self_index: int,
    peers: list[PeerAddress],
    out_dir: str | Path,
    round_deadline_s: float = 120.0,
    grace_s: float = 2.0,
) -> Path:
    """Run one peer process of a serialized-schedule peer-protocol training.

    Every process derives the same data, shards, initial weights, and
    schedule(cfg) from the config, applies the warm-up pass, and runs the
    peer rounds it initiates. Before the round at step r it polls peers
    (plain pings) until their versions reach those of steps[:r], so rounds
    execute in schedule order and the final weights match a simulated run
    bit for bit. A round that hits any transport fault retries after a
    short pause; atomicity makes the retry safe.
    """
    if cfg.mode != "braintorrent":
        raise ValueError("TCP peers run the peer-to-peer protocol only")
    if len(peers) != cfg.n_clients:
        raise ValueError(f"peer table has {len(peers)} entries for {cfg.n_clients} clients")

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    train, _ = build_dataset(cfg)
    shards = build_shards(cfg, train)
    state = _initial_clients(cfg, shards)[self_index]
    params = replace(
        _round_params(cfg, total_samples=sum(s.sample_count for s in shards)),
        on_unreachable="abort",
    )

    node = ClientNode(state)
    address = next(p for p in peers if p.client_index == self_index)
    host, port = address.host_port()
    server = TcpPeerServer(node, self_index, host, port)
    server.start()
    transport = TcpTransport(self_index, peers)
    try:
        steps = schedule(cfg)
        for r, step in enumerate(steps):
            if step == LOCAL_PASS:
                node.commit(local_update(node.state, params))
            elif step == self_index:
                _wait_for_versions(transport, self_index, node.version_entry(),
                                   expected_versions(steps[:r], cfg.n_clients),
                                   round_deadline_s)
                deadline = time.monotonic() + round_deadline_s
                while True:
                    try:
                        new_state, _ = run_initiator_round(node.state, transport, params)
                        node.commit(new_state)
                        break
                    except TransportError:
                        if time.monotonic() > deadline:
                            raise
                        time.sleep(0.1)

        _wait_for_versions(transport, self_index, node.version_entry(),
                           expected_versions(steps, cfg.n_clients),
                           round_deadline_s, allow_down=True)
        weights_path = out_dir / f"client_{self_index}_weights.npy"
        np.save(weights_path, node.state.weights.params)
        time.sleep(grace_s)  # let slower peers finish their final polls
        return weights_path
    finally:
        server.stop()
