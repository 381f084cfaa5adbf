"""CLI subcommands: run, dataset, report, manifest replay; rejected command lines."""

from __future__ import annotations

import json
import shutil
import socket
import warnings

import pytest
from conftest import free_ports

from peerfed import cli, experiments
from peerfed.cli import main


@pytest.fixture
def config_path(tmp_path):
    cfg = {
        "mode": "fls",
        "n_clients": 3,
        "rounds_fls": 2,
        "model": {"input_dim": 4, "hidden_dims": [8], "num_classes": 4},
        "data": {"num_train": 6, "num_test": 2, "height": 8, "width": 8,
                 "num_classes": 4},
        "seeds": {"data": 1, "init": 2, "shuffle": 3, "initiator": 4},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_run_writes_outputs(tmp_path, config_path, capsys):
    out = tmp_path / "run"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    assert (out / "metrics.csv").exists()
    assert "final avg dice" in capsys.readouterr().out


def test_run_prints_the_lines_of_its_report(tmp_path, config_path, capsys):
    out = tmp_path / "run"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
    assert capsys.readouterr().out == (out / "report.txt").read_text()
    replay = tmp_path / "replay"
    assert main(["run", "--from-manifest", str(out / "manifest.json"),
                 "--out", str(replay)]) == 0
    assert capsys.readouterr().out == (replay / "report.txt").read_text()


def test_run_out_under_a_regular_file_fails_before_training(tmp_path, config_path, capsys,
                                                           monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("trained although --out cannot be made")

    monkeypatch.setattr(cli, "run_training", no_training)
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["run", "--config", str(config_path), "--out", str(blocker / "run")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(blocker) in captured.err


def test_run_mode_and_seed_overrides(tmp_path, config_path):
    plain = tmp_path / "plain"
    assert main(["run", "--config", str(config_path), "--out", str(plain)]) == 0
    # A manifest is a config source like --config and takes the same overrides.
    for source in (["--config", str(config_path)],
                   ["--from-manifest", str(plain / "manifest.json")]):
        out = tmp_path / source[0].lstrip("-")
        assert main([
            "run", *source, "--mode", "braintorrent",
            "--seed-initiator", "99", "--out", str(out),
        ]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["mode"] == "braintorrent"
        assert manifest["config"]["seeds"]["initiator"] == 99


def test_run_from_manifest(tmp_path, config_path, capsys):
    out = tmp_path / "a"
    main(["run", "--config", str(config_path), "--out", str(out)])
    assert main(["run", "--from-manifest", str(out / "manifest.json"),
                 "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "metrics.csv").read_bytes() == \
        (tmp_path / "b" / "metrics.csv").read_bytes()


def test_run_requires_config_or_manifest(capsys):
    assert main(["run"]) == 2
    assert "config" in capsys.readouterr().err


@pytest.mark.parametrize("case, message", [
    ("infinite_base_lr", "base_lr"),
    ("negative_init_seed", "seeds.init"),
    ("negative_init_override", "seeds.init"),
    ("zero_clients_override", "n_clients must be >= 1"),
    ("zero_rounds_override", "rounds_fls must be >= 1"),
    ("missing_config", "absent.json"),
    ("peer_table_object", "peer table must be a JSON list"),
    ("self_index_out_of_range", "self_index 3"),
    ("peers_without_self_index", "needs both --peers and --self-index"),
    ("self_index_without_peers", "needs both --peers and --self-index"),
    ("experiment_with_peers", "--experiment runs in one process"),
    ("experiment_with_mode", "it takes no --mode or --clients"),
    ("experiment_with_clients", "it takes no --mode or --clients"),
    ("exp1_wrong_num_train", "needs num_train=20, got 6"),
    ("config_names_transport", "unknown config keys: ['transport']"),
    ("config_and_manifest", "exactly one of --config and --from-manifest"),
    ("manifest_bad_config", "gossip"),
    ("manifest_without_config", "not a run manifest"),
    ("manifest_with_removed_keys", "unknown config keys: ['on_unreachable', 'transport']"),
    ("dataset_missing_config", "absent.json"),
    ("dataset_rejected_config", "base_lr"),
    ("dataset_without_config", "required: --config"),
    ("dataset_gen", "unrecognized arguments: gen"),
    ("no_subcommand", "required: command"),
    ("unknown_option", "unrecognized arguments: --transport tcp"),
    ("unknown_mode", "invalid choice: 'gossip'"),
    ("clients_not_an_int", "invalid int value: 'x'"),
    ("config_nested_too_deeply", "deep.json: maximum recursion depth"),
    ("manifest_nested_too_deeply", "deep.json: maximum recursion depth"),
    ("peers_nested_too_deeply", "deep.json: maximum recursion depth"),
    ("cohort_boundary_past_100", "strictly inside (0, 100)"),
    ("cohort_boundaries_decreasing", "strictly increasing"),
    ("cohort_boundary_past_100_with_counts", "strictly inside (0, 100)"),
    ("cohort_empty_bucket", "counts [3, 3, 0] must each be >= 1"),
    ("cohort_bucket_draws_no_image", "cohort bucket 0 (-inf, 1.0] contains no images"),
    ("cohort_draw_misses_a_one_ulp_bucket", "sizes [3, 1, 2] do not match expected [2, 2, 2]"),
    ("config_repeats_a_key", "c.json: repeated key 'mode'"),
    ("manifest_repeats_a_key", "m.json: repeated key 'config'"),
    ("peer_entry_repeats_a_key", "p.json: repeated key 'client_index'"),
])
def test_rejected_input_is_a_one_line_error(tmp_path, config_path, capsys, case, message):
    def write(name, text):
        (tmp_path / name).write_text(text)
        return str(tmp_path / name)

    cfg = json.loads(config_path.read_text())
    run = ["run", "--config", str(config_path)]
    peers = [{"client_index": i, "endpoint": f"127.0.0.1:{i + 1}"} for i in range(3)]
    bt_run = ["run", "--config", write("bt.json", json.dumps({**cfg, "mode": "braintorrent"}))]
    sweep_run = ["run", "--config", write(  # data both sweeps can use
        "sweep.json", json.dumps({**cfg, "data": {**cfg["data"], "num_train": 20}}))]

    deep = write("deep.json", "[" * 100_000)

    def cohort(n_clients, boundaries, counts=None):
        split = {"kind": "cohort", "boundaries": boundaries, "counts": counts or []}
        text = json.dumps({**cfg, "n_clients": n_clients, "split": split})
        return ["run", "--config", write("c.json", text)]

    argv = {
        "infinite_base_lr": lambda: ["run", "--config", write("c.json", '{"base_lr": Infinity}')],
        "negative_init_seed": lambda: ["run", "--config", write(
            "c.json", json.dumps({**cfg, "seeds": {"init": -1}}))],
        "negative_init_override": lambda: [*run, "--seed-init", "-1"],
        "zero_clients_override": lambda: [*run, "--clients", "0"],
        "zero_rounds_override": lambda: [*run, "--rounds", "0"],
        "missing_config": lambda: ["run", "--config", str(tmp_path / "absent.json")],
        "peer_table_object": lambda: [*bt_run, "--self-index", "0",
                                      "--peers", write("p.json", '{"0": "127.0.0.1:1"}')],
        "self_index_out_of_range": lambda: [
            *bt_run, "--self-index", "3", "--peers", write("p.json", json.dumps(peers))],
        "peers_without_self_index": lambda: [
            *bt_run, "--peers", write("p.json", json.dumps(peers))],
        "self_index_without_peers": lambda: [*bt_run, "--self-index", "0"],
        "experiment_with_peers": lambda: [
            *run, "--experiment", "exp2", "--peers", write("p.json", json.dumps(peers))],
        "experiment_with_mode": lambda: [
            *sweep_run, "--experiment", "exp1", "--mode", "braintorrent"],
        "experiment_with_clients": lambda: [*sweep_run, "--experiment", "exp2", "--clients", "7"],
        "exp1_wrong_num_train": lambda: [*run, "--experiment", "exp1"],
        "config_names_transport": lambda: ["run", "--config", write(
            "c.json", json.dumps({**cfg, "transport": "tcp"}))],
        "config_and_manifest": lambda: [
            *run, "--from-manifest", write("m.json", json.dumps({"config": cfg}))],
        "manifest_bad_config": lambda: ["run", "--from-manifest", write(
            "m.json", json.dumps({"config": {**cfg, "mode": "gossip"}}))],
        "manifest_without_config": lambda: ["run", "--from-manifest", write("m.json", "[]")],
        "manifest_with_removed_keys": lambda: ["run", "--from-manifest", write(
            "m.json", json.dumps({"config": {**cfg, "on_unreachable": "skip",
                                             "transport": "sim"}}))],
        "dataset_missing_config": lambda: ["dataset", "--config", str(tmp_path / "absent.json")],
        "dataset_rejected_config": lambda: [
            "dataset", "--config", write("c.json", '{"base_lr": Infinity}')],
        "dataset_without_config": lambda: ["dataset"],
        "dataset_gen": lambda: ["dataset", "gen", "--config", str(config_path)],
        "no_subcommand": lambda: [],
        "unknown_option": lambda: [*run, "--transport", "tcp"],
        "unknown_mode": lambda: [*run, "--mode", "gossip"],
        "clients_not_an_int": lambda: [*run, "--clients", "x"],
        "config_nested_too_deeply": lambda: ["run", "--config", deep],
        "manifest_nested_too_deeply": lambda: ["run", "--from-manifest", deep],
        "peers_nested_too_deeply": lambda: [*bt_run, "--self-index", "0", "--peers", deep],
        "cohort_boundary_past_100": lambda: cohort(2, [150.0]),
        "cohort_boundaries_decreasing": lambda: cohort(3, [50.0, 40.0]),
        "cohort_boundary_past_100_with_counts": lambda: cohort(3, [50.0, 150.0], [2, 2, 2]),
        "cohort_empty_bucket": lambda: cohort(3, [20.0, 40.0], [3, 3, 0]),
        "cohort_bucket_draws_no_image": lambda: cohort(3, [1.0, 2.0]),
        "cohort_draw_misses_a_one_ulp_bucket": lambda: cohort(
            3, [1.0, 1.0000000000000002], [2, 2, 2]),
        "config_repeats_a_key": lambda: ["run", "--config", write(
            "c.json", json.dumps(cfg)[:-1] + ', "mode": "braintorrent"}')],
        "manifest_repeats_a_key": lambda: ["run", "--from-manifest", write(
            "m.json", f'{{"config": {json.dumps(cfg)}, "config": {{}}}}')],
        "peer_entry_repeats_a_key": lambda: [*bt_run, "--self-index", "0", "--peers", write(
            "p.json", json.dumps(peers).replace('"client_index": 0', '"client_index": 0, '
                                                '"client_index": 1'))],
    }[case]()
    if argv[:1] == ["run"]:
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err
    assert not (tmp_path / "out").exists()


def test_tcp_peer_whose_port_is_taken_is_a_one_line_error(tmp_path, config_path, capsys,
                                                          monkeypatch):
    def no_data(*args, **kwargs):
        raise AssertionError("generated data although the endpoint cannot be bound")

    monkeypatch.setattr(experiments, "build_dataset", no_data)
    cfg = {**json.loads(config_path.read_text()), "mode": "braintorrent"}
    (tmp_path / "bt.json").write_text(json.dumps(cfg))
    with socket.create_server(("127.0.0.1", 0)) as taken:
        endpoint = f"127.0.0.1:{taken.getsockname()[1]}"
        peers = [{"client_index": 0, "endpoint": endpoint}] + [
            {"client_index": i, "endpoint": f"127.0.0.1:{i}"} for i in (1, 2)]
        (tmp_path / "peers.json").write_text(json.dumps(peers))
        status = main(["run", "--config", str(tmp_path / "bt.json"), "--peers",
                       str(tmp_path / "peers.json"), "--self-index", "0",
                       "--out", str(tmp_path / "out")])
    assert status == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot listen on {endpoint}: ")
    assert captured.err.count("\n") == 1


def test_tcp_peer_that_gives_up_is_a_one_line_error(tmp_path, config_path, capsys,
                                                    monkeypatch):
    # Client 1 never starts, so client 0's first wait for it runs out.
    monkeypatch.setattr(experiments, "ROUND_DEADLINE_S", 0.5)
    cfg = {**json.loads(config_path.read_text()), "mode": "braintorrent", "n_clients": 2}
    (tmp_path / "bt.json").write_text(json.dumps(cfg))
    peers = [{"client_index": i, "endpoint": f"127.0.0.1:{port}"}
             for i, port in enumerate(free_ports(2))]
    (tmp_path / "peers.json").write_text(json.dumps(peers))
    status = main(["run", "--config", str(tmp_path / "bt.json"), "--peers",
                   str(tmp_path / "peers.json"), "--self-index", "0",
                   "--out", str(tmp_path / "out")])
    assert status == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: no ") and captured.err.count("\n") == 1
    assert " within 0.5 s; last fault: client 1 unreachable: " in captured.err


@pytest.mark.parametrize("how", ["single", "experiment", "peers"])
def test_run_that_goes_non_finite_is_a_one_line_error(tmp_path, config_path, capsys, how):
    """The model's finite checks stop the run; numpy warns of nothing first."""
    cfg = {**json.loads(config_path.read_text()), "base_lr": 1e300}
    argv = ["run", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "out")]
    if how == "experiment":
        cfg["data"]["num_train"] = 20
        argv += ["--experiment", "exp2"]
    if how == "peers":
        cfg = {**cfg, "mode": "braintorrent", "n_clients": 2}
        peers = [{"client_index": i, "endpoint": f"127.0.0.1:{port}"}
                 for i, port in enumerate(free_ports(2))]
        (tmp_path / "peers.json").write_text(json.dumps(peers))
        argv += ["--peers", str(tmp_path / "peers.json"), "--self-index", "0"]
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: non-finite ") and captured.err.count("\n") == 1


def test_run_experiment2_prints_its_tables(tmp_path, config_path, capsys):
    cfg = json.loads(config_path.read_text())
    cfg["data"]["num_train"] = 20
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "exp2"
    assert main(["run", "--config", str(path), "--experiment", "exp2", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    headers = (out / "cohort_table.csv").read_text().splitlines()[0].split(",")
    assert lines[0] == "cohort_table:" and lines[1].split() == headers
    assert [line.split()[0] for line in lines[3:6]] == ["braintorrent", "fls", "pooled"]
    assert len(lines) == 6


def test_dataset_prints_the_data_its_config_generates(config_path, capsys):
    assert main(["dataset", "--config", str(config_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "train: 6 images, 4 classes",
        "  [  0] 8x8 cohort= 15.57 class pixels=[36, 14, 12, 2]",
        "  [  1] 8x8 cohort= 73.76 class pixels=[23, 23, 13, 5]",
        "  [  2] 8x8 cohort= 81.46 class pixels=[20, 23, 16, 5]",
        "  [  3] 8x8 cohort= 32.00 class pixels=[32, 19, 9, 4]",
        "  [  4] 8x8 cohort= 93.98 class pixels=[21, 22, 15, 6]",
        "  [  5] 8x8 cohort= 64.46 class pixels=[26, 22, 10, 6]",
        "test: 2 images, 4 classes",
        "  [  0] 8x8 cohort= 64.77 class pixels=[26, 22, 12, 4]",
        "  [  1] 8x8 cohort= 63.93 class pixels=[25, 23, 11, 5]",
    ]


@pytest.mark.parametrize("manifest, message", [
    ("{}", "not a run manifest"),
    ("[1]", "not a run manifest"),
    ('{"config": {"mode": "gossip"}}', "gossip"),
    ("{", "manifest.json"),
], ids=["empty_object", "list", "rejected_config", "not_json"])
def test_report_rejects_a_bad_manifest(tmp_path, config_path, capsys, manifest, message):
    main(["run", "--config", str(config_path), "--out", str(tmp_path / "runs" / "good")])
    bad = tmp_path / "runs" / "bad" / "manifest.json"
    bad.parent.mkdir()
    bad.write_text(manifest)
    capsys.readouterr()
    assert main(["report", "--in", str(tmp_path / "runs")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(bad) in captured.err and message in captured.err
    assert not (tmp_path / "runs" / "report.csv").exists()


def test_report_renders_and_writes_csv(tmp_path, config_path, capsys):
    main(["run", "--config", str(config_path), "--out", str(tmp_path / "runs" / "r1")])
    main(["run", "--config", str(config_path), "--mode", "pooled",
          "--out", str(tmp_path / "runs" / "r2")])
    assert main(["report", "--in", str(tmp_path / "runs")]) == 0
    out = capsys.readouterr().out
    assert "r1" in out and "pooled" in out
    report = (tmp_path / "runs" / "report.csv").read_text().splitlines()
    assert report[0].startswith("run,mode,n_clients,round_index")
    assert len(report) > 2


def test_report_on_one_run_directory_names_it(tmp_path, config_path, capsys):
    run_dir = tmp_path / "runs" / "r1"
    main(["run", "--config", str(config_path), "--out", str(run_dir)])
    capsys.readouterr()
    assert main(["report", "--in", str(run_dir)]) == 0
    assert capsys.readouterr().out.splitlines()[2].startswith("r1 ")
    assert (run_dir / "report.csv").read_text().splitlines()[1].startswith("r1,fls,3,")


def test_report_skips_a_run_with_no_metric_rows(tmp_path, config_path, capsys):
    runs = tmp_path / "runs"
    main(["run", "--config", str(config_path), "--out", str(runs / "r1")])
    shutil.copytree(runs / "r1", runs / "r2")
    metrics = runs / "r2" / "metrics.csv"
    metrics.write_text(metrics.read_text().splitlines(keepends=True)[0])  # the header alone
    capsys.readouterr()
    assert main(["report", "--in", str(runs)]) == 0
    table = capsys.readouterr().out.splitlines()[2:-1]  # below the header and its rule
    assert [line.split()[0] for line in table] == ["r1"]
    report = (runs / "report.csv").read_text().splitlines()
    assert len(report) > 1 and {line.split(",")[0] for line in report[1:]} == {"r1"}


@pytest.mark.parametrize("edit, message", [
    (lambda text: text.replace("avg_client_dice", "avg_dice", 1), "no 'avg_client_dice' column"),
    (lambda text: text.replace("\n1,", "\none,", 1), "invalid literal for int()"),
], ids=["missing_column", "not_a_number"])
def test_report_rejects_a_bad_metrics_table(tmp_path, config_path, capsys, edit, message):
    metrics = tmp_path / "runs" / "r1" / "metrics.csv"
    main(["run", "--config", str(config_path), "--out", str(metrics.parent)])
    metrics.write_text(edit(metrics.read_text()))
    capsys.readouterr()
    assert main(["report", "--in", str(tmp_path / "runs")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(metrics) in captured.err and message in captured.err


def test_report_out_makes_its_directory(tmp_path, config_path, capsys):
    main(["run", "--config", str(config_path), "--out", str(tmp_path / "runs" / "r1")])
    out = tmp_path / "new" / "dir" / "report.csv"
    assert main(["report", "--in", str(tmp_path / "runs"), "--out", str(out)]) == 0
    assert out.read_text().startswith("run,mode,n_clients,round_index")


def test_report_empty_dir_fails(tmp_path, capsys):
    assert main(["report", "--in", str(tmp_path)]) == 1
