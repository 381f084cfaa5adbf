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
import ctypes
import hashlib
import io
import json
import os
import platform
import sys
import time
from dataclasses import dataclass, field, fields, is_dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    FEATURE_CHANNELS,
    DatasetShard,
    GenConfig,
    SegImage,
    SplitSpec,
    generate_dataset,
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
SWEEPS = ("exp1", "exp2")
EXP1_CLIENT_SWEEP = (5, 7, 10, 20)
EXP2_BOUNDARIES = (20.0, 30.0, 40.0, 50.0)
EXP2_COUNTS = (5, 9, 2, 1, 3)


_JSON_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,)}


def _config_fields(section) -> list:
    """A config section's keys, in field order: its init fields."""
    return [f for f in fields(section) if f.init]


def _is(kind: str, value) -> bool:
    """Whether a JSON value has the annotated type: JSON's "false" is not a
    bool, true, 2.5 and "10" are not ints, and NaN, Infinity and ints past
    float range (which json reads as ints) are not floats.
    """
    return type(value) in _JSON_TYPES[kind] and (
        kind != "float" or abs(value) <= sys.float_info.max)


def _from_json(default, d, section: str):
    """default with the values of the JSON object d, each checked against
    the annotation of its field; nested sections recurse. A list becomes a
    tuple (of floats for a float tuple), and an empty one is None where the
    field allows None.
    """
    if not isinstance(d, dict):
        raise ValueError(f"{section} must be a JSON object, got {d!r}")
    kinds = {f.name: f.type for f in _config_fields(default)}
    unknown = set(d) - set(kinds)
    if unknown:
        raise ValueError(f"unknown {section} keys: {sorted(unknown)}")
    values = {}
    for key, value in d.items():
        kind = kinds[key]
        optional = kind.endswith(" | None")
        if is_dataclass(getattr(default, key)):
            value = _from_json(getattr(default, key), value, key)
        elif kind.startswith("tuple[") and not (optional and value is None):
            item = kind[len("tuple["):kind.index(",")]
            if not isinstance(value, (list, tuple)) or not all(_is(item, v) for v in value):
                raise ValueError(f"{key} must be {kind}, got {value!r}")
            value = tuple(float(v) if item == "float" else v for v in value)
            value = value or (None if optional else ())
        elif kind in _JSON_TYPES and not _is(kind, value):
            raise ValueError(f"{key} must be {kind}, got {value!r}")
        values[key] = value
    return replace(default, **values)


def _to_json(section) -> dict:
    """The JSON object of a config section: keys in field order, tuples as
    lists, None values left out.
    """
    out = {}
    for f in _config_fields(section):
        value = getattr(section, f.name)
        if is_dataclass(value):
            value = _to_json(value)
        elif isinstance(value, tuple):
            value = list(value)
        if value is not None:
            out[f.name] = value
    return out


@dataclass(frozen=True)
class Seeds:
    data: int = 0
    init: int = 1
    shuffle: int = 2
    initiator: int = 3

    def __post_init__(self) -> None:
        # init seeds numpy's generator as it is, which takes no negative
        # seed; the others pass through derive_seed first.
        if self.init < 0:
            raise ValueError(f"seeds.init must be >= 0, got {self.init}")


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
    eval_every: int = 1
    seeds: Seeds = field(default_factory=Seeds)
    sim_drop_prob: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.n_clients < 1:
            raise ValueError(f"n_clients must be >= 1, got {self.n_clients}")
        if self.mode == "braintorrent" and self.n_clients > 1 << 16:
            raise ValueError(f"n_clients {self.n_clients} > 65536 overflows the 16-bit sender field")
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
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {self.eval_every}")
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
            buckets = len(self.split.boundaries) + 1
            if self.n_clients != buckets:
                raise ValueError(f"cohort split with {buckets} buckets needs "
                                 f"n_clients={buckets}, got {self.n_clients}")
            if self.split.counts is not None and sum(self.split.counts) != self.data.num_train:
                raise ValueError(f"cohort counts {self.split.counts} must sum to "
                                 f"num_train={self.data.num_train}")
        elif self.mode != "pooled" and self.n_clients > self.data.num_train:
            raise ValueError(
                f"{self.n_clients} clients cannot share {self.data.num_train} images"
            )

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        return _from_json(ExperimentConfig(), d, "config")

    def to_dict(self) -> dict:
        return _to_json(self)


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
    total_updates: int
    failed_rounds: int

    @property
    def final(self) -> MetricsRecord:
        return self.records[-1]


def build_dataset(cfg: ExperimentConfig) -> tuple[list[SegImage], list[SegImage]]:
    return generate_dataset(cfg.data, cfg.split, cfg.seeds.data)


def build_shards(cfg: ExperimentConfig, train: list[SegImage]) -> list[DatasetShard]:
    split_seed = derive_seed(cfg.seeds.data, "split")
    if cfg.mode == "pooled":
        # The pooled baseline is the one-client degenerate federation, so
        # its shard ordering matches a 1-client split of the same data.
        return split_uniform(train, 1, split_seed)
    if cfg.split.kind == "cohort":
        return split_by_cohort(train, cfg.split)
    return split_uniform(train, cfg.n_clients, split_seed)


def evaluate_model(
    spec: ModelSpec,
    weights: ModelWeights,
    images: list[SegImage],
    num_classes: int,
) -> float:
    """Mean over images of the per-image mean Dice across present classes;
    ValueError unless weights are of spec."""
    if weights.spec != spec:
        raise ValueError(f"weights of {weights.spec} do not match {spec}")
    scores = [
        dice_score(predict(weights, im.features), im.labels, num_classes)[1]
        for im in images
    ]
    return float(np.mean(scores))


def _start(cfg: ExperimentConfig) -> tuple[list[ClientState], RoundParams, list[SegImage]]:
    """Each client's initial state, whose version vector lists the run's
    clients, the round params and the test images: every run starts here."""
    train, test = build_dataset(cfg)
    shards = build_shards(cfg, train)
    w0 = init_model(cfg.model, cfg.seeds.init)
    clients = [ClientState(i, w0.copy(), VersionVector.zeros(len(shards)), shard)
               for i, shard in enumerate(shards)]
    params = RoundParams(
        spec=cfg.model,
        epochs=cfg.epochs_per_round,
        base_lr=cfg.base_lr,
        batch_size=cfg.batch_size,
        shuffle_seed=cfg.seeds.shuffle,
        merge_norm=cfg.merge_norm,
        total_samples=sum(s.sample_count for s in shards),
    )
    return clients, params, test


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
) -> RunResult:
    """Execute one run under the simulated transport and optionally persist it.

    Walks schedule(cfg), evaluating after every eval_every x len(nodes)
    client updates and once more at the end if the last update was not
    evaluated. Each distinct parameter vector is scored on the test set
    once per run (in fls, every client holds the server average). A peer
    round that cannot reach a peer changes nothing and counts as failed.
    """
    started = time.perf_counter()
    started_at = datetime.now(timezone.utc).isoformat()

    clients, params, test = _start(cfg)
    nodes = [ClientNode(c) for c in clients]
    transport = SimTransport(
        nodes,
        seed=derive_seed(cfg.seeds.initiator, "faults"),
        drop_prob=cfg.sim_drop_prob,
    )
    frame_bytes = weights_frame_bytes(cfg.model.param_count())

    server: ModelWeights | None = None  # the last server round's aggregate
    server_bytes = updates = failed_rounds = 0
    evaluated_at = None
    records: list[MetricsRecord] = []
    # Test-set Dice by SHA-256 of the parameters. The spec and test set are
    # fixed within this run, so equal parameter bytes score equal Dice.
    scores: dict[bytes, float] = {}

    def dice(weights: ModelWeights) -> float:
        key = hashlib.sha256(weights.params.tobytes()).digest()
        if key not in scores:
            scores[key] = evaluate_model(cfg.model, weights, test, cfg.data.num_classes)
        return scores[key]

    def evaluate() -> None:
        states = [n.state for n in nodes]
        per_client = [dice(s.weights) for s in states]
        aggregated = server if server is not None else aggregate_all_clients(
            states, weighted=cfg.aggregate == "weighted")
        records.append(MetricsRecord(
            round_index=updates // len(nodes),
            per_client_dice=per_client,
            avg_client_dice=float(np.mean(per_client)),
            aggregated_model_dice=dice(aggregated),
            bytes_transferred=server_bytes + transport.delivered_bytes(),
            wall_time_ms=int((time.perf_counter() - started) * 1000),
        ))

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

    result = RunResult(
        config=cfg,
        records=records,
        final_clients=[n.state for n in nodes],
        total_updates=updates,
        failed_rounds=failed_rounds,
    )
    if out_dir is not None:
        write_run_outputs(result, Path(out_dir), started_at)
    return result


def format_real(x: float) -> str:
    """17 significant digits: enough to round-trip any float64 exactly."""
    return format(float(x), ".17g")


def table_csv(headers: list[str], rows: list[list]) -> str:
    """A table as CSV text: reals at 17 significant digits, other values as they are."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows([format_real(v) if isinstance(v, float) else v for v in row]
                     for row in rows)
    return buffer.getvalue()


def metrics_to_csv(records: list[MetricsRecord]) -> str:
    """Render records as CSV with a stable column order and no wall-clock timing."""
    n_clients = len(records[0].per_client_dice) if records else 0
    columns = ["round_index", "avg_client_dice", "aggregated_model_dice", "bytes_transferred"]
    columns += [f"client_{i:02d}_dice" for i in range(n_clients)]
    return table_csv(columns, [
        [rec.round_index, rec.avg_client_dice, rec.aggregated_model_dice,
         rec.bytes_transferred, *rec.per_client_dice]
        for rec in records
    ])


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


def blas_corename() -> str | None:
    """The kernel set numpy's OpenBLAS picked for this CPU at load time (or
    that OPENBLAS_CORETYPE forced), e.g. "SkylakeX"; None for another BLAS.

    The build's "openblas configuration" names only the build target, and
    with DYNAMIC_ARCH the kernels that run, and so the bits they give, can
    differ from it.
    """
    from numpy.linalg import _umath_linalg

    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None
    for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename"):
        get = getattr(lib, symbol, None)
        if get is not None:
            get.argtypes, get.restype = [], ctypes.c_char_p
            return get().decode("ascii")
    return None


def run_environment() -> dict:
    """What a rerun needs to know of the machine: the numpy and BLAS build
    that the bitwise contract rests on, the BLAS thread settings and the CPUs.
    """
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {**{key: blas.get(key) for key in ("name", "version", "openblas configuration")},
                 "corename": blas_corename()},
        "threads": {var: os.environ.get(var)
                    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
    }


def run_summary(result: RunResult) -> list[str]:
    """The lines of a run's report.txt, which `peerfed run` also prints."""
    cfg, final = result.config, result.final
    return [
        f"mode={cfg.mode} n_clients={cfg.n_clients} rounds_fls={cfg.rounds_fls}",
        f"total client updates: {result.total_updates} "
        f"(failed rounds: {result.failed_rounds})",
        f"final avg dice over clients: {final.avg_client_dice:.4f}",
        f"final aggregated-model dice: {final.aggregated_model_dice:.4f}",
        f"bytes transferred: {final.bytes_transferred}",
        f"wall time: {final.wall_time_ms} ms",
    ]


def write_run_outputs(result: RunResult, out_dir: Path, started_at: str) -> None:
    """Persist metrics (canonical), a reproduction manifest, and a report."""
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "metrics.csv").write_text(metrics_to_csv(result.records))
    (out_dir / "metrics.json").write_text(metrics_to_json(result.records))

    manifest = {
        "config": result.config.to_dict(),
        "code_version": __version__,
        "started_at": started_at,
        "finished_at": datetime.now(timezone.utc).isoformat(),
        "total_updates": result.total_updates,
        "failed_rounds": result.failed_rounds,
        "shard_sizes": [c.shard.sample_count for c in result.final_clients],
        "environment": run_environment(),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    (out_dir / "report.txt").write_text("\n".join(run_summary(result)) + "\n")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's dict; ValueError naming a key it repeats."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"repeated key {key!r}")
        out[key] = value
    return out


def read_json(path: str | Path):
    """The JSON value a file holds; ValueError naming the file if it is not
    JSON, repeats a key in an object or nests too deeply to parse, OSError
    if it cannot be read."""
    try:
        return json.loads(Path(path).read_text(), object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def manifest_config(manifest_path: str | Path) -> ExperimentConfig:
    """The config a run manifest records; ValueError naming the file if it
    holds no valid one, OSError if it cannot be read."""
    manifest = read_json(manifest_path)
    try:
        if not isinstance(manifest, dict) or "config" not in manifest:
            raise ValueError("not a run manifest: no config")
        return ExperimentConfig.from_dict(manifest["config"])
    except ValueError as exc:
        raise ValueError(f"{manifest_path}: {exc}") from None


# ---------------------------------------------------------------------------
# Experiment sweeps
# ---------------------------------------------------------------------------


def write_table(path: Path, headers: list[str], rows: list[list]) -> None:
    """Write one table as CSV (table_csv), making its directory if need be."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(table_csv(headers, rows))


def _client_columns(n_clients: int) -> list[str]:
    return [f"client_{i:02d}" for i in range(n_clients)]


def sweep_configs(name: str, base: ExperimentConfig) -> dict[str, ExperimentConfig]:
    """The runs of sweep name, in the order they run, by run name (also the
    run's out_dir subdirectory); ValueError unless base's data suits it.

    * ``exp1``: fls and braintorrent at 5/7/10/20 uniform clients, then
      pooled and only_client at 10: ``fls_c05 ... braintorrent_c20,
      pooled_c10, only_client_c10``.
    * ``exp2``: the 5 age-cohort shards of sizes 5/9/2/1/3 under
      braintorrent, fls and pooled: ``braintorrent_c05, fls_c05, pooled``.

    Every other setting comes from base; its mode and n_clients are unused.
    """
    if name not in SWEEPS:
        raise ValueError(f"unknown sweep {name!r}; expected one of {SWEEPS}")
    need = max(EXP1_CLIENT_SWEEP) if name == "exp1" else sum(EXP2_COUNTS)
    if base.data.num_train != need:
        raise ValueError(f"{name} needs num_train={need}, got {base.data.num_train}")
    if name == "exp1":
        points = [(mode, n) for n in EXP1_CLIENT_SWEEP for mode in ("fls", "braintorrent")]
        return {f"{mode}_c{n:02d}": replace(base, mode=mode, n_clients=n, split=SplitSpec())
                for mode, n in points + [("pooled", 10), ("only_client", 10)]}
    split = SplitSpec(kind="cohort", boundaries=EXP2_BOUNDARIES, counts=EXP2_COUNTS)
    return {run: replace(base, mode=mode, n_clients=len(EXP2_COUNTS), split=split)
            for run, mode in (("braintorrent_c05", "braintorrent"), ("fls_c05", "fls"),
                              ("pooled", "pooled"))}


def sweep_tables(name: str, base: ExperimentConfig,
                 finals: dict[str, MetricsRecord]) -> dict[str, tuple[list[str], list[list]]]:
    """The (headers, rows) tables of sweep name, by CSV name, from the final
    record of each run of sweep_configs(name, base).

    * ``exp1``: ``summary_clients`` (avg-over-clients and aggregated-model
      dice of both protocols per client count, plus a pooled row) and
      ``per_client_10`` (per-client dice of the 10-client runs).
    * ``exp2``: ``cohort_table`` (per-client, avg and aggregated dice of
      both protocols, plus a pooled row). The braintorrent minus fls gap is
      the difference of its two ``avg`` cells.
    """
    if name == "exp1":
        summary = []
        for n in EXP1_CLIENT_SWEEP:
            fls, bt = finals[f"fls_c{n:02d}"], finals[f"braintorrent_c{n:02d}"]
            summary.append([n, round(base.data.num_train / n),
                            fls.avg_client_dice, bt.avg_client_dice,
                            fls.aggregated_model_dice, bt.aggregated_model_dice])
        summary.append(["pooled", "", "", "", finals["pooled_c10"].aggregated_model_dice, ""])
        per_client = [[mode, *finals[f"{mode}_c10"].per_client_dice,
                       finals[f"{mode}_c10"].avg_client_dice]
                      for mode in ("braintorrent", "fls", "only_client")]
        return {
            "summary_clients": (
                ["n_clients", "images_per_client", "fls_avg_dice", "braintorrent_avg_dice",
                 "fls_aggregated_dice", "braintorrent_aggregated_dice"],
                summary,
            ),
            "per_client_10": (["method", *_client_columns(10), "mean"], per_client),
        }
    n = len(EXP2_COUNTS)
    rows = [[mode, *final.per_client_dice, final.avg_client_dice, final.aggregated_model_dice]
            for mode, final in (("braintorrent", finals["braintorrent_c05"]),
                                ("fls", finals["fls_c05"]))]
    rows.append(["pooled", *[""] * n, "", finals["pooled"].aggregated_model_dice])
    return {"cohort_table": (["method", *_client_columns(n), "avg", "aggregated"], rows)}


def run_sweep(name: str, base: ExperimentConfig, out_dir: str | Path | None = None) -> dict:
    """Run sweep name ("exp1" or "exp2"): each run of sweep_configs in turn
    through run_training, into out_dir/<run name> when out_dir is given,
    then each table of sweep_tables to out_dir/<table name>.csv.

    Returns {"tables": sweep_tables(...), "runs": {run name: RunResult}}.
    """
    out = Path(out_dir) if out_dir is not None else None
    runs = {run: run_training(cfg, out_dir=out / run if out else None)
            for run, cfg in sweep_configs(name, base).items()}
    tables = sweep_tables(name, base, {run: result.final for run, result in runs.items()})
    if out is not None:
        for table, (headers, rows) in tables.items():
            write_table(out / f"{table}.csv", headers, rows)
    return {"tables": tables, "runs": runs}


# ---------------------------------------------------------------------------
# TCP peer process
# ---------------------------------------------------------------------------


ROUND_DEADLINE_S = 120.0  # how long a TCP peer waits for any one thing before giving up
POLL_S = 0.05  # a TCP peer's pause between two checks of what it waits for


def _wait_until(ready, what: str) -> None:
    """Call ready() every POLL_S until it returns true, a TransportError
    counting as not yet; after ROUND_DEADLINE_S, a TransportError naming
    what was waited for and the last fault."""
    deadline = time.monotonic() + ROUND_DEADLINE_S
    fault = ""
    while True:
        try:
            if ready():
                return
        except TransportError as exc:
            fault = f"; last fault: {exc}"
        if time.monotonic() > deadline:
            raise TransportError(f"no {what} within {ROUND_DEADLINE_S:g} s{fault}")
        time.sleep(POLL_S)


def check_tcp_peer_inputs(cfg: ExperimentConfig, self_index: int,
                          peers: list[PeerAddress]) -> None:
    """ValueError unless cfg, self_index and peers make a TCP peer run."""
    if cfg.mode != "braintorrent":
        raise ValueError("TCP peers run the peer-to-peer protocol only")
    indices = sorted(p.client_index for p in peers)
    if indices != list(range(cfg.n_clients)):
        raise ValueError(f"peer table client indices {indices} are not "
                         f"0..{cfg.n_clients - 1}, one entry each")
    if not 0 <= self_index < cfg.n_clients:
        raise ValueError(f"self_index {self_index} is not in 0..{cfg.n_clients - 1}")


def run_tcp_peer(
    cfg: ExperimentConfig,
    self_index: int,
    peers: list[PeerAddress],
    out_dir: str | Path,
) -> Path:
    """Run one peer process of a serialized-schedule peer-protocol training.

    Binds the peer's endpoint first (ValueError naming it if that fails).
    Every process derives the same data, shards, initial weights and
    schedule(cfg) from the config. A round this peer initiates runs, and
    runs again after a transport fault (rounds are atomic), once pings
    show every peer at the versions of the steps before it, so the final
    weights match a simulated run bit for bit. The peer stops once every
    other peer has reached its final version and been sent this peer's
    final version in a ping reply. A wait that outlasts ROUND_DEADLINE_S
    ends the run with a TransportError.
    """
    check_tcp_peer_inputs(cfg, self_index, peers)
    address = next(p for p in peers if p.client_index == self_index)
    node = ClientNode(None)  # given its state before the server starts answering
    try:
        server = TcpPeerServer(node, self_index, *address.host_port())
    except OSError as exc:
        raise ValueError(f"cannot listen on {address.endpoint}: {exc}") from None
    transport = TcpTransport(self_index, peers)
    try:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        clients, params, _ = _start(cfg)
        node.commit(clients[self_index])
        params = replace(params, on_unreachable="abort")
        server.start()
        others = [j for j in range(cfg.n_clients) if j != self_index]
        seen = [-1] * cfg.n_clients  # the highest version each peer answered a ping with

        def reached(target: list[int]) -> bool:  # pings only the peers not yet seen there
            for j in others:
                if seen[j] < target[j]:
                    seen[j] = transport.ping(self_index, j)
            return all(seen[j] >= target[j] for j in others)

        def run_round() -> bool:
            node.commit(run_initiator_round(node.state, transport, params)[0])
            return True

        steps = schedule(cfg)
        for r, step in enumerate(steps):
            if step == LOCAL_PASS:
                node.commit(local_update(node.state, params))
            elif step == self_index:
                target = expected_versions(steps[:r], cfg.n_clients)
                _wait_until(lambda: reached(target) and run_round(), f"round {r}")
        final, sent = expected_versions(steps, cfg.n_clients), server.sent_versions
        _wait_until(lambda: reached(final) and all(
            sent.get(j, -1) >= final[self_index] for j in others), "end of the run")
        weights_path = Path(out_dir) / f"client_{self_index}_weights.npy"
        np.save(weights_path, node.state.weights.params)
        return weights_path
    finally:
        transport.close()
        server.stop()
