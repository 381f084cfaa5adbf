"""Bitwise oracle: SHA-256 of the canonical output files for fixed-seed configs.

Any change to training, merging, evaluation cadence, byte accounting or
CSV/JSON rendering shows up here as a mismatch. A change that means to
alter these bytes updates the digests and says why; a speedup or a
refactor must leave them as they are.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from peerfed.data import FEATURE_CHANNELS, GenConfig
from peerfed.experiments import (
    ExperimentConfig,
    Seeds,
    run_sweep,
    run_training,
)
from peerfed.model import ModelSpec

BASE = ExperimentConfig(
    mode="fls",
    n_clients=4,
    rounds_fls=3,
    model=ModelSpec(FEATURE_CHANNELS, (8,), 4),
    data=GenConfig(num_train=8, num_test=3, height=8, width=8, num_classes=4),
    seeds=Seeds(data=5, init=6, shuffle=7, initiator=8),
)

# (config overrides, sha256 of metrics.csv, sha256 of metrics.json)
RUNS = {
    "fls": ({"mode": "fls"},
            "3cb987a29cd49893a28ff7d6a93e3c1e6d27fec8664e4885cd22247d284b4e36",
            "6b33d845d1fd947aa59d23d4cd627238ed07e2d6d24196a403af94dd9d513941"),
    "braintorrent": ({"mode": "braintorrent"},
                     "df3f1e1fd33f383fe57ad5fe514c9f9b0d2196e8bd29b0addbd572342a6028fa",
                     "600c8c5f1d7a0e9b52d0bed0ec25bfe7274f98bccb3c8e337c5f91e6c8ce81b3"),
    "pooled": ({"mode": "pooled"},
               "da93632a2122723d5507a8c3e8be68e5580cd568d0fdc4a65b429fbf893e9f32",
               "33fb447d20046b9140815cbb1c7a712be838d1fde42b552023e6202323463358"),
    "only_client": ({"mode": "only_client"},
                    "c08cd6828e6587d2839a6ac2aa92619b2dd2de8e50fca3306f760bd49b8f1246",
                    "0909993ae41e1d3cba71611d99e810b96f03dda8cc3822de6a212fc57570ddcb"),
    "bt_drop_no_warmup": ({"mode": "braintorrent", "sim_drop_prob": 0.3, "bt_warmup": False},
                          "12b30362a996414c7061355b4cf2cd885b1ae6397643811e8a3950117ffc7b05",
                          "f79714454bae5b0f508cc5b14d55bda00d45d0cd15501153d39a82a5fa3810c9"),
    "fls_eval_every_2": ({"mode": "fls", "eval_every": 2},
                         "efd7574317fa487fd804a00ebdb2f72559ca81b73ff4a53baf98d7ba73418be6",
                         "72de08ebb2a4f83f19ab77d4e3963958c296cb2db3c0c579e8fdc96534a4782d"),
    "bt_eval_every_2": ({"mode": "braintorrent", "eval_every": 2},
                        "7eec580801050009a50d09e046869416eb28879dc4c56652fa5948221ef037cb",
                        "3bbaa4a87fec1cf10f0b0a62580dd09dbba68a90101ae19415b0a5bb656dea05"),
}

# The SWEEP_BASE config of test_experiments.py.
SWEEP_BASE = ExperimentConfig(
    mode="fls",
    n_clients=10,
    rounds_fls=2,
    model=ModelSpec(FEATURE_CHANNELS, (8,), 4),
    data=GenConfig(num_train=20, num_test=2, height=8, width=8, num_classes=4),
    seeds=Seeds(1, 2, 3, 4),
)
TABLES = {
    "summary_clients.csv": "1159420b76113dcc8c4af136dacd927488cdecdd39da7a53dec22b1ecd9a74c4",
    "per_client_10.csv": "631c6f540b535b07f0cf11eb3e1b48daef3bd7e2c57a4e070b5aeb0df7050e6e",
    "cohort_table.csv": "4e39477401ee86c8027f9869de2160410352356bed9a5bf2c80957e1be8ba9c0",
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_metrics_files_match_recorded_digests(name, tmp_path):
    overrides, csv_digest, json_digest = RUNS[name]
    run_training(replace(BASE, **overrides), out_dir=tmp_path)
    assert (sha256(tmp_path / "metrics.csv"), sha256(tmp_path / "metrics.json")) == (
        csv_digest, json_digest)


def test_experiment_tables_match_recorded_digests(tmp_path):
    run_sweep("exp1", SWEEP_BASE, out_dir=tmp_path)
    run_sweep("exp2", SWEEP_BASE, out_dir=tmp_path)
    assert {name: sha256(tmp_path / name) for name in TABLES} == TABLES
