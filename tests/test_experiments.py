"""Config parsing, the training runner, metrics files, and manifests."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import socket
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import free_ports, record_frames, record_trajectory
from hypothesis import given, settings
from hypothesis import strategies as st

import peerfed
from peerfed import experiments
from peerfed.data import FEATURE_CHANNELS, GenConfig
from peerfed.experiments import (
    EXP2_BOUNDARIES,
    EXP2_COUNTS,
    LOCAL_PASS,
    SERVER_ROUND,
    ExperimentConfig,
    MetricsRecord,
    Seeds,
    SplitSpec,
    _wait_until,
    bt_total_rounds,
    build_dataset,
    build_shards,
    evaluate_model,
    expected_versions,
    manifest_config,
    metrics_to_csv,
    metrics_to_json,
    run_sweep,
    run_tcp_peer,
    run_training,
    schedule,
    sweep_configs,
)
from peerfed.federation import pick_initiator
from peerfed.model import ModelSpec, ModelWeights, init_model
from peerfed.transport import PeerAddress, ProtocolError, SimTransport, TransportError

SMALL_MODEL = ModelSpec(FEATURE_CHANNELS, (8,), 4)
SMALL_DATA = GenConfig(num_train=8, num_test=3, height=8, width=8, num_classes=4)


def small_cfg(**overrides) -> ExperimentConfig:
    defaults = dict(
        mode="fls",
        n_clients=4,
        rounds_fls=3,
        model=SMALL_MODEL,
        data=SMALL_DATA,
        seeds=Seeds(data=5, init=6, shuffle=7, initiator=8),
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


# Every field of every section differs from its default, except the one
# that admits one value: model.input_dim.
EVERY_FIELD_SET = ExperimentConfig(
    mode="braintorrent",
    n_clients=3,
    split=SplitSpec("cohort", (20.0, 40.5), (3, 3, 2)),
    rounds_fls=5,
    model=ModelSpec(FEATURE_CHANNELS, (8, 6), 3),
    data=GenConfig(num_train=8, num_test=3, height=8, width=6, num_classes=3,
                   noise_std=0.05, cohort_shift=0, feature_scale=0.25),
    base_lr=0.005,
    epochs_per_round=3,
    batch_size=2,
    merge_norm="global",
    aggregate="unweighted",
    bt_warmup=False,
    eval_every=2,
    seeds=Seeds(data=11, init=12, shuffle=13, initiator=14),
    sim_drop_prob=0.1,
)

# json.dumps(cfg.to_dict()) of each config: the bytes manifest.json stores.
# tests/test_golden.py pins only the metrics files, so these pin the writer.
PINNED_MANIFEST_CONFIGS = [
    (small_cfg(mode="braintorrent", sim_drop_prob=0.05),
     '{"mode": "braintorrent", "n_clients": 4, "split": {"kind": "uniform"}, '
     '"rounds_fls": 3, "model": {"input_dim": 4, "hidden_dims": [8], "num_classes": 4}, '
     '"data": {"num_train": 8, "num_test": 3, "height": 8, '
     '"width": 8, "num_classes": 4, "noise_std": 0.1, "cohort_shift": 1.0, '
     '"feature_scale": 0.5}, "base_lr": 0.001, "epochs_per_round": 2, "batch_size": 1, '
     '"merge_norm": "participants", "aggregate": "weighted", "bt_warmup": true, '
     '"eval_every": 1, "seeds": {"data": 5, "init": 6, '
     '"shuffle": 7, "initiator": 8}, "sim_drop_prob": 0.05}'),
    (EVERY_FIELD_SET,
     '{"mode": "braintorrent", "n_clients": 3, "split": {"kind": "cohort", '
     '"boundaries": [20.0, 40.5], "counts": [3, 3, 2]}, "rounds_fls": 5, '
     '"model": {"input_dim": 4, "hidden_dims": [8, 6], "num_classes": 3}, '
     '"data": {"num_train": 8, "num_test": 3, "height": 8, '
     '"width": 6, "num_classes": 3, "noise_std": 0.05, "cohort_shift": 0, '
     '"feature_scale": 0.25}, "base_lr": 0.005, "epochs_per_round": 3, "batch_size": 2, '
     '"merge_norm": "global", "aggregate": "unweighted", "bt_warmup": false, '
     '"eval_every": 2, "seeds": {"data": 11, "init": 12, '
     '"shuffle": 13, "initiator": 14}, "sim_drop_prob": 0.1}'),
    (small_cfg(model=ModelSpec(FEATURE_CHANNELS, (), 4)),
     '{"mode": "fls", "n_clients": 4, "split": {"kind": "uniform"}, "rounds_fls": 3, '
     '"model": {"input_dim": 4, "hidden_dims": [], "num_classes": 4}, '
     '"data": {"num_train": 8, "num_test": 3, "height": 8, '
     '"width": 8, "num_classes": 4, "noise_std": 0.1, "cohort_shift": 1.0, '
     '"feature_scale": 0.5}, "base_lr": 0.001, "epochs_per_round": 2, "batch_size": 1, '
     '"merge_norm": "participants", "aggregate": "weighted", "bt_warmup": true, '
     '"eval_every": 1, "seeds": {"data": 5, "init": 6, '
     '"shuffle": 7, "initiator": 8}, "sim_drop_prob": 0.0}'),
]


class TestConfig:
    def test_round_trips_through_dict(self):
        cfg = small_cfg(mode="braintorrent", sim_drop_prob=0.05)
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg

    @pytest.mark.parametrize("cfg, manifest_text", PINNED_MANIFEST_CONFIGS,
                             ids=["small", "every_field_set", "no_hidden_layer"])
    def test_manifest_text_round_trips(self, cfg, manifest_text):
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert json.dumps(cfg.to_dict()) == manifest_text

    def test_only_split_boundaries_become_floats(self):
        d = small_cfg(split=SplitSpec("cohort", (20.0, 30.0, 40.0))).to_dict()
        d["split"]["boundaries"] = [20, 30, 40]
        d["data"]["cohort_shift"] = 1
        text = json.dumps(ExperimentConfig.from_dict(d).to_dict())
        assert '"boundaries": [20.0, 30.0, 40.0]' in text
        assert '"cohort_shift": 1,' in text

    def test_partial_sections_keep_their_defaults(self):
        cfg = ExperimentConfig.from_dict({"model": {"num_classes": 4}, "split": {}})
        assert cfg.model == ModelSpec(FEATURE_CHANNELS, (512,), 4)
        assert cfg.split == SplitSpec()
        assert cfg == ExperimentConfig()

    @pytest.mark.parametrize("key", ["boundaries", "counts"])
    def test_empty_split_list_means_absent(self, key):
        d = small_cfg().to_dict()
        d["split"][key] = []
        assert getattr(ExperimentConfig.from_dict(d).split, key) is None

    # transport, on_unreachable and model.activation were config keys
    # before 0.2.0; a config or manifest that still names them is rejected.
    def test_unknown_top_level_key_rejected(self):
        for key, value in [("typo_key", 1), ("transport", "sim"), ("on_unreachable", "skip")]:
            d = small_cfg().to_dict()
            d[key] = value
            with pytest.raises(ValueError, match=key):
                ExperimentConfig.from_dict(d)

    def test_unknown_nested_key_rejected(self):
        for key, value in [("layers", 3), ("activation", "relu")]:
            d = small_cfg().to_dict()
            d["model"][key] = value
            with pytest.raises(ValueError, match=key):
                ExperimentConfig.from_dict(d)

    def test_data_seed_key_rejected(self):
        d = small_cfg().to_dict()
        d["data"]["seed"] = 9
        with pytest.raises(ValueError, match=r"unknown data keys: \['seed'\]"):
            ExperimentConfig.from_dict(d)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            small_cfg(mode="gossip")

    def test_model_data_class_counts_must_agree(self):
        with pytest.raises(ValueError, match="num_classes"):
            small_cfg(model=ModelSpec(FEATURE_CHANNELS, (8,), 5))

    def test_cohort_split_validation(self):
        split = SplitSpec(kind="cohort", boundaries=(20.0, 40.0), counts=(3, 3, 2))
        cfg = small_cfg(mode="fls", n_clients=3, split=split)
        assert cfg.split.counts == (3, 3, 2)
        with pytest.raises(ValueError, match="n_clients"):
            small_cfg(n_clients=4, split=split)
        with pytest.raises(ValueError, match="n_clients"):
            small_cfg(n_clients=4, split=SplitSpec("cohort", (20.0, 40.0)))
        with pytest.raises(ValueError, match="sum"):
            small_cfg(n_clients=3, split=SplitSpec("cohort", (20.0, 40.0), (3, 3, 3)))

    def test_too_many_clients_rejected(self):
        with pytest.raises(ValueError, match="clients"):
            small_cfg(n_clients=9)
        with pytest.raises(ValueError, match="16-bit sender field"):
            ExperimentConfig(mode="braintorrent", n_clients=65537,
                             data=GenConfig(num_train=65537, height=4, width=4))

    def test_a_model_too_large_for_one_weights_frame_rejected(self):
        # Its weights frame would be 72,240,052 bytes, over the 64 MiB cap a
        # peer reads; a server round sends no weights frame.
        big = ModelSpec(FEATURE_CHANNELS, (3000, 3000), 4)
        with pytest.raises(ValueError, match="9030004 params needs a weights frame "
                                             "of 72240052 bytes, over the 67108864-byte"):
            ExperimentConfig(mode="braintorrent", model=big)
        assert ExperimentConfig(mode="fls", model=big).model == big
        fits = ModelSpec(FEATURE_CHANNELS, (2800, 2800), 4)
        assert ExperimentConfig(mode="braintorrent", model=fits).model.param_count() == 7_868_004

    @pytest.mark.parametrize("path, value", [
        ("bt_warmup", "false"),
        ("n_clients", 2.5),
        ("rounds_fls", True),
        ("eval_every", 1.5),
        ("n_clients", "10"),
        ("base_lr", "0.001"),
        ("seeds.data", 1.0),
        ("model.hidden_dims", [8, "8"]),
        ("data.num_train", 20.7),
        ("base_lr", float("inf")),
        ("data.noise_std", float("nan")),
        ("data.feature_scale", float("inf")),
        ("split.boundaries", [20.0, float("nan"), 40.0]),
        pytest.param("base_lr", 10**400, id="base_lr-int_past_float_range"),
        pytest.param("split.boundaries", [20.0, 30.0, 150.0], id="split.boundaries-past_100"),
        pytest.param("split.boundaries", [0.0, 30.0, 40.0], id="split.boundaries-at_0"),
        pytest.param("split.boundaries", [20.0, 40.0, 30.0], id="split.boundaries-decreasing"),
        pytest.param("split.counts", [3, 3, 0, 2], id="split.counts-empty_bucket"),
    ])
    def test_wrongly_typed_value_rejected(self, path, value):
        # A cohort split, so that only the value under test is wrong.
        d = small_cfg(split=SplitSpec("cohort", (20.0, 30.0, 40.0))).to_dict()
        *section, key = path.split(".")
        (d[section[0]] if section else d)[key] = value
        with pytest.raises(ValueError, match=key):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize("path, value, match", [
        ("base_lr", 0.0, "base_lr must be > 0"),
        ("base_lr", -0.5, "base_lr must be > 0"),
        ("epochs_per_round", 0, "epochs_per_round and batch_size"),
        ("batch_size", 0, "epochs_per_round and batch_size"),
        ("eval_every", 0, "eval_every must be >= 1"),
        ("sim_drop_prob", 1.0, r"sim_drop_prob must be in \[0, 1\)"),
        ("sim_drop_prob", -0.1, r"sim_drop_prob must be in \[0, 1\)"),
        ("model.input_dim", 3, "input_dim must equal"),
        ("data.height", 3, "image size"),
        ("data.cohort_shift", 2.0, "cohort_shift"),
        ("data.feature_scale", 0.0, "feature_scale"),
    ])
    def test_out_of_range_value_rejected(self, path, value, match):
        d = small_cfg().to_dict()
        *section, key = path.split(".")
        (d[section[0]] if section else d)[key] = value
        with pytest.raises(ValueError, match=match):
            ExperimentConfig.from_dict(d)

    def test_negative_init_seed_rejected_at_load(self):
        d = small_cfg().to_dict()
        d["seeds"]["init"] = -1
        with pytest.raises(ValueError, match="seeds.init"):
            ExperimentConfig.from_dict(d)

    def test_negative_derived_seeds_still_run(self):
        d = small_cfg(rounds_fls=1).to_dict()
        d["seeds"].update(data=-5, shuffle=-7, initiator=-8)
        cfg = ExperimentConfig.from_dict(d)
        for mode in ("fls", "braintorrent"):
            assert run_training(replace(cfg, mode=mode)).records

    @pytest.mark.parametrize("section, value", [
        (None, []),
        ("model", 3),
        ("data", None),
        ("split", "uniform"),
        ("seeds", [1, 2]),
    ])
    def test_non_object_section_rejected(self, section, value):
        d = value if section is None else {**small_cfg().to_dict(), section: value}
        with pytest.raises(ValueError, match=f"{section or 'config'} must be a JSON object"):
            ExperimentConfig.from_dict(d)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                               max_size=4),
    max_leaves=8,
)
FULL_CONFIG = EVERY_FIELD_SET.to_dict()
CONFIG_PATHS = ["", "data.seed", *FULL_CONFIG, *(
    f"{section}.{key}" for section, keys in FULL_CONFIG.items() if isinstance(keys, dict)
    for key in keys
)]


@settings(max_examples=400, deadline=None)
@given(base=st.sampled_from([FULL_CONFIG, small_cfg().to_dict(), {}]),
       path=st.sampled_from(CONFIG_PATHS), value=JSON_VALUES)
def test_any_json_value_loads_and_round_trips_or_is_rejected(base, path, value):
    """A JSON value under any config key loads, and its config round-trips to
    equal JSON, or it raises ValueError; never another exception."""
    d = json.loads(json.dumps(base))
    if not path:
        d = value
    elif "." in path:
        section, key = path.split(".")
        d.setdefault(section, {})[key] = value
    else:
        d[path] = value
    try:
        cfg = ExperimentConfig.from_dict(d)
    except ValueError:
        return
    text = json.dumps(cfg.to_dict())
    again = ExperimentConfig.from_dict(json.loads(text))
    assert again == cfg
    assert json.dumps(again.to_dict()) == text


class TestRunTraining:
    def test_budget_parity_fls_vs_braintorrent(self):
        fls = run_training(small_cfg(mode="fls"))
        bt = run_training(small_cfg(mode="braintorrent"))
        assert fls.total_updates == bt.total_updates == 3 * 4

    def test_bt_round_count_accounts_for_warmup(self):
        cfg = small_cfg(mode="braintorrent")
        assert bt_total_rounds(cfg) == 3 * 4 - 4
        assert bt_total_rounds(replace(cfg, bt_warmup=False)) == 3 * 4

    def test_fls_eval_each_round(self):
        res = run_training(small_cfg(mode="fls"))
        assert [r.round_index for r in res.records] == [1, 2, 3]
        assert all(len(r.per_client_dice) == 4 for r in res.records)

    def test_eval_every_collapses_to_final(self):
        res = run_training(small_cfg(mode="fls", eval_every=3))
        assert [r.round_index for r in res.records] == [3]

    def test_pooled_single_trajectory(self):
        res = run_training(small_cfg(mode="pooled"))
        assert res.total_updates == 3
        assert all(len(r.per_client_dice) == 1 for r in res.records)
        last = res.records[-1]
        assert last.avg_client_dice == last.per_client_dice[0]

    def test_only_client_models_never_communicate(self):
        res = run_training(small_cfg(mode="only_client"))
        assert res.final.bytes_transferred == 0
        for i, c in enumerate(res.final_clients):
            assert c.own_update_count == 3
            np.testing.assert_array_equal(
                c.version.entries, [3 if j == i else 0 for j in range(4)]
            )

    def test_bt_run_transfers_bytes_without_failures(self):
        res = run_training(small_cfg(mode="braintorrent"))
        assert res.final.bytes_transferred > 0
        assert res.failed_rounds == 0

    def test_drop_injection_aborts_but_completes(self):
        res = run_training(small_cfg(mode="braintorrent", sim_drop_prob=0.3))
        assert res.failed_rounds > 0
        assert res.total_updates < 12
        assert sum(c.own_update_count for c in res.final_clients) == res.total_updates

    def test_dice_in_unit_interval(self):
        res = run_training(small_cfg(mode="fls"))
        for rec in res.records:
            assert 0.0 <= rec.avg_client_dice <= 1.0
            assert 0.0 <= rec.aggregated_model_dice <= 1.0
            assert all(0.0 <= d <= 1.0 for d in rec.per_client_dice)

    def test_bytes_monotone_cumulative(self):
        res = run_training(small_cfg(mode="braintorrent"))
        transferred = [r.bytes_transferred for r in res.records]
        assert transferred == sorted(transferred)

    def test_deterministic_records(self):
        a = run_training(small_cfg(mode="braintorrent"))
        b = run_training(small_cfg(mode="braintorrent"))
        assert metrics_to_csv(a.records) == metrics_to_csv(b.records)

    def test_delivered_bytes_is_the_trace_total(self, monkeypatch):
        made = []

        class RecordingSimTransport(SimTransport):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append((self, record_frames(self)))

        monkeypatch.setattr(experiments, "SimTransport", RecordingSimTransport)
        res = run_training(small_cfg(mode="braintorrent", sim_drop_prob=0.3))
        ((transport, frames),) = made
        assert res.failed_rounds > 0
        assert transport.delivered_bytes() == sum(f.nbytes for f in frames)
        assert res.final.bytes_transferred == transport.delivered_bytes()


def count_evaluations(monkeypatch) -> list[str]:
    """Record the parameter digest of every experiments.evaluate_model call."""
    digests: list[str] = []
    evaluate = experiments.evaluate_model

    def counting(spec, weights, images, num_classes):
        digests.append(hashlib.sha256(weights.params.tobytes()).hexdigest())
        return evaluate(spec, weights, images, num_classes)

    monkeypatch.setattr(experiments, "evaluate_model", counting)
    return digests


class TestEvaluationDedup:
    def test_fls_scores_the_shared_model_once_per_eval_point(self, monkeypatch):
        digests = count_evaluations(monkeypatch)
        res = run_training(small_cfg(mode="fls", rounds_fls=3, eval_every=1))
        assert len(res.records) == 3
        assert len(digests) == 3
        for rec in res.records:
            assert rec.per_client_dice == [rec.aggregated_model_dice] * 4

    def test_braintorrent_scores_each_distinct_model_once(self, monkeypatch):
        digests = count_evaluations(monkeypatch)
        trajectory = record_trajectory(monkeypatch)
        res = run_training(small_cfg(mode="braintorrent"))
        assert len(digests) == len(set(digests))
        scored = {hashlib.sha256(p.tobytes()).hexdigest()
                  for point in trajectory for p in point}
        assert scored <= set(digests)
        assert len(digests) < len(res.records) * (4 + 1)

    def test_memoised_scores_equal_fresh_scores(self, monkeypatch):
        cfg = small_cfg(mode="braintorrent")
        trajectory = record_trajectory(monkeypatch)
        res = run_training(cfg)
        _, test = build_dataset(cfg)
        assert len(trajectory) == len(res.records)
        for rec, point in zip(res.records, trajectory):
            fresh = [evaluate_model(cfg.model, ModelWeights(cfg.model, p),
                                    test, cfg.data.num_classes)
                     for p in point]
            assert rec.per_client_dice == fresh


class TestEvaluateModel:
    def test_weights_of_another_spec_rejected(self):
        cfg = small_cfg()
        _, test = build_dataset(cfg)
        other = ModelSpec(FEATURE_CHANNELS, (6,), 4)
        with pytest.raises(ValueError, match=r"weights of .*hidden_dims=\(6,\).* do not "
                                             r"match .*hidden_dims=\(8,\)"):
            evaluate_model(cfg.model, init_model(other, 0), test, 4)

    def test_weights_of_an_equal_spec_accepted(self):
        cfg = small_cfg()
        _, test = build_dataset(cfg)
        again = ModelSpec(FEATURE_CHANNELS, [8], 4)
        assert again is not cfg.model
        w = init_model(cfg.model, 0)
        assert evaluate_model(again, w, test, 4) == evaluate_model(cfg.model, w, test, 4)


class TestShards:
    def test_pooled_uses_single_shard(self):
        cfg = small_cfg(mode="pooled")
        train, _ = build_dataset(cfg)
        shards = build_shards(cfg, train)
        assert len(shards) == 1
        assert shards[0].sample_count == len(train)

    def test_cohort_counts_reach_shards(self):
        data = GenConfig(num_train=20, num_test=2, height=8, width=8, num_classes=4)
        cfg = small_cfg(
            mode="fls",
            n_clients=5,
            data=data,
            split=SplitSpec("cohort", EXP2_BOUNDARIES, EXP2_COUNTS),
        )
        train, _ = build_dataset(cfg)
        shards = build_shards(cfg, train)
        assert [s.sample_count for s in shards] == list(EXP2_COUNTS)


class TestMetricsFiles:
    def records(self):
        return [
            MetricsRecord(1, [0.5, 0.25], 0.375, 0.4, 100, 12),
            MetricsRecord(2, [0.625, 0.5], 0.5625, 0.6, 200, 30),
        ]

    def test_header_only_for_empty_records(self):
        lines = metrics_to_csv([]).splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("round_index,")

    def test_csv_row_count(self):
        assert len(metrics_to_csv(self.records()).splitlines()) == 3

    def test_json_round_trips_through_generic_parser(self):
        parsed = json.loads(metrics_to_json(self.records()))
        assert parsed["records"][1]["avg_client_dice"] == 0.5625
        assert parsed["records"][0]["per_client_dice"] == [0.5, 0.25]

    def test_reals_have_17_significant_digits(self):
        third = 1 / 3
        text = metrics_to_csv([MetricsRecord(1, [third], third, third, 0, 0)])
        assert "0.33333333333333331" in text

    def test_timing_excluded_by_default(self):
        assert "wall_time" not in metrics_to_csv(self.records())


def unloadable_library(path):
    raise OSError(f"{path}: cannot open shared object file")


class TestManifest:
    def test_outputs_written(self, tmp_path):
        run_training(small_cfg(), out_dir=tmp_path / "run")
        for name in ("metrics.csv", "metrics.json", "manifest.json", "report.txt"):
            assert (tmp_path / "run" / name).exists()

    def test_rejected_cohort_split_makes_no_out_dir(self, tmp_path):
        cfg = small_cfg(n_clients=3, split=SplitSpec("cohort", (1.0, 2.0)))
        with pytest.raises(ValueError, match="contains no images"):
            run_training(cfg, out_dir=tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_manifest_rerun_reproduces_metrics_bitwise(self, tmp_path):
        run_training(small_cfg(mode="braintorrent"), out_dir=tmp_path / "a")
        run_training(manifest_config(tmp_path / "a" / "manifest.json"), out_dir=tmp_path / "b")
        for name in ("metrics.csv", "metrics.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_code_version_is_the_pyproject_version(self):
        # The manifest's code_version is peerfed.__version__; the package's
        # metadata declares the version a second time.
        tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
        with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
            declared = tomllib.load(fh)["project"]["version"]
        assert peerfed.__version__ == declared

    def test_manifest_records_resolved_config_and_shards(self, tmp_path):
        run_training(small_cfg(), out_dir=tmp_path / "run")
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert set(manifest) == {"config", "code_version", "started_at", "finished_at",
                                 "total_updates", "failed_rounds", "shard_sizes", "environment"}
        assert manifest["config"]["n_clients"] == 4
        assert manifest["shard_sizes"] == [2, 2, 2, 2]
        assert manifest["total_updates"] == 12

    def test_manifest_records_the_environment(self, tmp_path):
        run_training(small_cfg(), out_dir=tmp_path / "run")
        env = json.loads((tmp_path / "run" / "manifest.json").read_text())["environment"]
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        assert set(env["blas"]) == {"name", "version", "openblas configuration", "corename"}
        assert env["blas"]["name"]
        assert env["blas"]["corename"] == experiments.blas_corename()
        assert set(env["threads"]) == {
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
        assert env["cpu_count"] == os.cpu_count()
        assert env["affinity_cpus"] is None or 1 <= env["affinity_cpus"] <= env["cpu_count"]

    @pytest.mark.parametrize("cdll", [lambda path: object(), unloadable_library],
                             ids=["no_symbol", "no_library"])
    def test_corename_is_null_without_an_openblas_symbol(self, monkeypatch, cdll):
        monkeypatch.setattr(experiments.ctypes, "CDLL", cdll)
        assert experiments.run_environment()["blas"]["corename"] is None

    def test_manifest_config_rejects_a_manifest_without_one(self, tmp_path):
        path = tmp_path / "manifest.json"
        for text in ("[]", '{"outputs": {}}'):
            path.write_text(text)
            with pytest.raises(ValueError, match="not a run manifest"):
                manifest_config(path)


SWEEP_BASE = ExperimentConfig(
    mode="fls",
    n_clients=10,
    rounds_fls=2,
    model=SMALL_MODEL,
    data=GenConfig(num_train=20, num_test=2, height=8, width=8, num_classes=4),
    seeds=Seeds(1, 2, 3, 4),
)


class TestSweepConfigs:
    def test_run_names_modes_and_clients_in_order(self):
        exp1 = sweep_configs("exp1", SWEEP_BASE)
        assert [(run, cfg.mode, cfg.n_clients) for run, cfg in exp1.items()] == [
            ("fls_c05", "fls", 5), ("braintorrent_c05", "braintorrent", 5),
            ("fls_c07", "fls", 7), ("braintorrent_c07", "braintorrent", 7),
            ("fls_c10", "fls", 10), ("braintorrent_c10", "braintorrent", 10),
            ("fls_c20", "fls", 20), ("braintorrent_c20", "braintorrent", 20),
            ("pooled_c10", "pooled", 10), ("only_client_c10", "only_client", 10),
        ]
        exp2 = sweep_configs("exp2", SWEEP_BASE)
        assert [(run, cfg.mode, cfg.n_clients) for run, cfg in exp2.items()] == [
            ("braintorrent_c05", "braintorrent", 5), ("fls_c05", "fls", 5),
            ("pooled", "pooled", 5),
        ]

    @pytest.mark.parametrize("name", ["exp1", "exp2"])
    def test_runs_do_not_depend_on_base_mode_or_clients(self, name):
        configs = sweep_configs(name, SWEEP_BASE)
        for mode, n_clients in (("braintorrent", 7), ("pooled", 1), ("only_client", 20)):
            other = replace(SWEEP_BASE, mode=mode, n_clients=n_clients)
            assert sweep_configs(name, other) == configs

    def test_unknown_sweep_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep 'exp3'"):
            sweep_configs("exp3", SWEEP_BASE)


class TestExperiment1:
    def test_sweep_structure(self, tmp_path):
        tables = run_sweep("exp1", SWEEP_BASE, out_dir=tmp_path)["tables"]
        _, summary = tables["summary_clients"]
        assert [row[0] for row in summary] == [5, 7, 10, 20, "pooled"]
        assert [row[1] for row in summary[:-1]] == [4, 3, 2, 1]
        headers, per_client = tables["per_client_10"]
        assert [row[0] for row in per_client] == ["braintorrent", "fls", "only_client"]
        assert len(headers) == 12 and all(len(row) == 12 for row in per_client)
        assert (tmp_path / "summary_clients.csv").exists()
        assert (tmp_path / "per_client_10.csv").exists()
        assert (tmp_path / "braintorrent_c20" / "manifest.json").exists()

    def test_wrong_train_count_rejected(self):
        with pytest.raises(ValueError, match="num_train"):
            run_sweep("exp1", small_cfg())


class TestExperiment2:
    def test_structure_and_shard_sizes(self, tmp_path):
        out = run_sweep("exp2", SWEEP_BASE, out_dir=tmp_path)
        tables = out["tables"]
        shard_sizes = [c.shard.sample_count for c in out["runs"]["fls_c05"].final_clients]
        assert shard_sizes == list(EXP2_COUNTS)
        assert [row[0] for row in tables["cohort_table"][1]] == ["braintorrent", "fls", "pooled"]
        assert (tmp_path / "cohort_table.csv").exists()
        manifest = json.loads((tmp_path / "fls_c05" / "manifest.json").read_text())
        assert manifest["shard_sizes"] == list(EXP2_COUNTS)


class TestScheduleHelpers:
    def test_expected_versions_counts_schedule_prefix(self):
        steps = [LOCAL_PASS, 0, 2, 1, 0]
        assert expected_versions(steps[:1], 3) == [1, 1, 1]
        assert expected_versions(steps[:3], 3) == [2, 1, 2]
        assert expected_versions(steps[1:], 3) == [2, 1, 1]

    def test_schedule_shape_per_mode(self):
        assert schedule(small_cfg(mode="fls")) == [SERVER_ROUND] * 3
        assert schedule(small_cfg(mode="pooled")) == [LOCAL_PASS] * 3
        assert schedule(small_cfg(mode="only_client")) == [LOCAL_PASS] * 3
        initiators = [pick_initiator(r, 4, 8) for r in range(12)]
        assert schedule(small_cfg(mode="braintorrent")) == [LOCAL_PASS] + initiators[:8]
        assert schedule(small_cfg(mode="braintorrent", bt_warmup=False)) == initiators

    @pytest.mark.parametrize("warmup", [True, False])
    def test_expected_versions_match_simulated_run(self, warmup):
        cfg = small_cfg(mode="braintorrent", bt_warmup=warmup)
        final = run_training(cfg).final_clients
        assert expected_versions(schedule(cfg), 4) == [c.own_update_count for c in final]

    @pytest.mark.parametrize("indices, self_index, match", [
        ((0, 1, 7), 2, "client indices"),
        ((0, 1, 1), 0, "client indices"),
        ((0, 1), 0, "client indices"),
        ((0, 1, 2), 3, "self_index"),
        ((0, 1, 2), -1, "self_index"),
    ])
    def test_tcp_peer_rejects_a_bad_peer_table(self, tmp_path, indices, self_index, match):
        cfg = small_cfg(mode="braintorrent", n_clients=3)
        peers = [PeerAddress(i, f"127.0.0.1:{9000 + k}") for k, i in enumerate(indices)]
        with pytest.raises(ValueError, match=match):
            run_tcp_peer(cfg, self_index, peers, tmp_path)

    def test_tcp_peer_rejects_a_server_round_config(self, tmp_path):
        peers = [PeerAddress(i, f"127.0.0.1:{9000 + i}") for i in range(4)]
        with pytest.raises(ValueError, match="peer-to-peer protocol only"):
            run_tcp_peer(small_cfg(mode="fls"), 0, peers, tmp_path)

    def test_tcp_peer_rejecting_a_cohort_split_makes_no_out_dir_and_frees_its_port(
            self, tmp_path):
        cfg = small_cfg(mode="braintorrent", n_clients=3,
                        split=SplitSpec("cohort", (1.0, 2.0)))
        peers = [PeerAddress(i, f"127.0.0.1:{port}") for i, port in enumerate(free_ports(3))]
        with pytest.raises(ValueError, match="contains no images"):
            run_tcp_peer(cfg, 0, peers, tmp_path / "peer")
        assert not (tmp_path / "peer").exists()
        socket.create_server(peers[0].host_port()).close()  # the peer closed its listener

    def test_tcp_peer_whose_out_dir_cannot_be_made_fails_before_training(
            self, tmp_path, monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("trained although out_dir cannot be made")

        monkeypatch.setattr(experiments, "local_update", no_training)
        monkeypatch.setattr(experiments, "run_initiator_round", no_training)
        blocker = tmp_path / "file"
        blocker.write_text("")
        peers = [PeerAddress(i, f"127.0.0.1:{port}") for i, port in enumerate(free_ports(3))]
        with pytest.raises(OSError):
            run_tcp_peer(small_cfg(mode="braintorrent", n_clients=3), 0, peers, blocker / "peer")
        socket.create_server(peers[0].host_port()).close()  # the peer closed its listener

    def test_wait_until_retries_after_protocol_error(self, monkeypatch):
        monkeypatch.setattr(experiments, "POLL_S", 0.0)
        calls = []

        def ready():
            calls.append(len(calls))
            if len(calls) == 1:
                raise ProtocolError("corrupt reply")
            return True

        _wait_until(ready, "a reply")
        assert len(calls) == 2

    def test_wait_until_gives_up_at_the_deadline(self, monkeypatch):
        monkeypatch.setattr(experiments, "POLL_S", 0.0)
        monkeypatch.setattr(experiments, "ROUND_DEADLINE_S", 0.0)

        def ready():
            raise ProtocolError("corrupt reply")

        with pytest.raises(TransportError,
                           match="^no a reply within 0 s; last fault: corrupt reply$"):
            _wait_until(ready, "a reply")
