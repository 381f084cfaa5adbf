"""Config parsing, the training runner, metrics files, and manifests."""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

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
    _wait_for_versions,
    bt_total_rounds,
    build_dataset,
    build_shards,
    emit_metrics,
    expected_versions,
    metrics_to_csv,
    run_experiment1,
    run_experiment2,
    run_from_manifest,
    run_training,
    schedule,
)
from peerfed.federation import pick_initiator
from peerfed.model import ModelSpec
from peerfed.transport import ProtocolError

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


class TestConfig:
    def test_round_trips_through_dict(self):
        cfg = small_cfg(mode="braintorrent", sim_drop_prob=0.05)
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_unknown_top_level_key_rejected(self):
        d = small_cfg().to_dict()
        d["typo_key"] = 1
        with pytest.raises(ValueError, match="typo_key"):
            ExperimentConfig.from_dict(d)

    def test_unknown_nested_key_rejected(self):
        d = small_cfg().to_dict()
        d["model"]["layers"] = 3
        with pytest.raises(ValueError, match="layers"):
            ExperimentConfig.from_dict(d)

    def test_data_seed_key_rejected(self):
        d = small_cfg().to_dict()
        d["data"]["seed"] = 9
        with pytest.raises(ValueError, match="seeds.data"):
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
        with pytest.raises(ValueError, match="sum"):
            small_cfg(n_clients=3, split=SplitSpec("cohort", (20.0, 40.0), (3, 3, 3)))

    def test_too_many_clients_rejected(self):
        with pytest.raises(ValueError, match="clients"):
            small_cfg(n_clients=9)

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
    ])
    def test_wrongly_typed_value_rejected(self, path, value):
        d = small_cfg().to_dict()
        *section, key = path.split(".")
        (d[section[0]] if section else d)[key] = value
        with pytest.raises(ValueError, match=key):
            ExperimentConfig.from_dict(d)


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

    def test_bt_bytes_match_transport_trace(self):
        res = run_training(small_cfg(mode="braintorrent"))
        assert res.final.bytes_transferred > 0
        assert res.failed_rounds == 0

    def test_drop_injection_aborts_but_completes(self):
        res = run_training(small_cfg(mode="braintorrent", sim_drop_prob=0.3))
        assert res.failed_rounds > 0
        assert res.total_updates < 12
        for c in res.final_clients:
            c.validate()

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

    def test_tcp_transport_rejected_here(self):
        with pytest.raises(ValueError, match="tcp"):
            run_training(small_cfg(transport="tcp"))

    def test_deterministic_records(self):
        a = run_training(small_cfg(mode="braintorrent"))
        b = run_training(small_cfg(mode="braintorrent"))
        assert metrics_to_csv(a.records) == metrics_to_csv(b.records)


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

    def test_header_only_for_empty_records(self, tmp_path):
        path = emit_metrics([], tmp_path / "m.csv", "csv")
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("round_index,")

    def test_csv_row_count(self, tmp_path):
        path = emit_metrics(self.records(), tmp_path / "m.csv", "csv")
        assert len(path.read_text().splitlines()) == 3

    def test_json_round_trips_through_generic_parser(self, tmp_path):
        path = emit_metrics(self.records(), tmp_path / "m.json", "json")
        parsed = json.loads(path.read_text())
        assert parsed["records"][1]["avg_client_dice"] == 0.5625
        assert parsed["records"][0]["per_client_dice"] == [0.5, 0.25]

    def test_reals_have_17_significant_digits(self, tmp_path):
        third = 1 / 3
        path = emit_metrics([MetricsRecord(1, [third], third, third, 0, 0)],
                            tmp_path / "m.csv", "csv")
        assert "0.33333333333333331" in path.read_text()

    def test_timing_excluded_by_default(self, tmp_path):
        path = emit_metrics(self.records(), tmp_path / "m.csv", "csv")
        assert "wall_time" not in path.read_text()

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_metrics([], tmp_path / "m.xml", "xml")


class TestManifest:
    def test_outputs_written(self, tmp_path):
        run_training(small_cfg(), out_dir=tmp_path / "run")
        for name in ("metrics.csv", "metrics.json", "manifest.json", "report.txt"):
            assert (tmp_path / "run" / name).exists()

    def test_manifest_rerun_reproduces_metrics_bitwise(self, tmp_path):
        run_training(small_cfg(mode="braintorrent"), out_dir=tmp_path / "a")
        run_from_manifest(tmp_path / "a" / "manifest.json", out_dir=tmp_path / "b")
        for name in ("metrics.csv", "metrics.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_manifest_records_resolved_config_and_shards(self, tmp_path):
        run_training(small_cfg(), out_dir=tmp_path / "run")
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["config"]["n_clients"] == 4
        assert manifest["shard_sizes"] == [2, 2, 2, 2]
        assert manifest["total_updates"] == 12


class TestExperiment1:
    def test_sweep_structure(self, tmp_path):
        base = ExperimentConfig(
            mode="fls",
            n_clients=10,
            rounds_fls=2,
            model=SMALL_MODEL,
            data=GenConfig(num_train=20, num_test=2, height=8, width=8, num_classes=4),
            seeds=Seeds(1, 2, 3, 4),
        )
        tables = run_experiment1(base, out_dir=tmp_path)["tables"]
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
            run_experiment1(small_cfg())


class TestExperiment2:
    def test_structure_and_shard_sizes(self, tmp_path):
        base = ExperimentConfig(
            mode="fls",
            n_clients=5,
            rounds_fls=2,
            model=SMALL_MODEL,
            data=GenConfig(num_train=20, num_test=2, height=8, width=8, num_classes=4),
            seeds=Seeds(1, 2, 3, 4),
        )
        out = run_experiment2(base, out_dir=tmp_path)
        tables = out["tables"]
        assert tables["shard_sizes"] == list(EXP2_COUNTS)
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

    def test_wait_for_versions_retries_after_protocol_error(self):
        class FlakyTransport:
            pings = 0

            def ping(self, sender, peer):
                self.pings += 1
                if self.pings == 1:
                    raise ProtocolError("corrupt reply")
                return 1

        transport = FlakyTransport()
        _wait_for_versions(transport, 0, 1, [1, 1], deadline_s=5.0, poll_interval_s=0.0)
        assert transport.pings == 2
