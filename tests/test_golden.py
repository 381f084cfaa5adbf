"""Bitwise oracle: SHA-256 of the canonical output files, and of the final
weights, for fixed-seed configs.

Any change to training, merging, evaluation cadence, byte accounting or
CSV/JSON rendering shows up here as a mismatch. A change that means to
alter these bytes updates the digests and says why; a speedup or a
refactor must leave them as they are.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import peerfed
from peerfed.data import FEATURE_CHANNELS, GenConfig
from peerfed.experiments import (
    ExperimentConfig,
    Seeds,
    blas_corename,
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

# SHA-256 of every client's final params.tobytes(), in client order, for
# each RUNS config, by the OpenBLAS kernel that computed them (the kernels
# round some products differently). The metrics files hold Dice scores and
# byte counts, which a change of a few ulps in every weight leaves as they
# were; these do not.
_SKYLAKEX_WEIGHTS = {
    "braintorrent": "50fb5fd5caa80774580218bb1596aed85320491698f5f8b191780a76be7ced19",
    "bt_drop_no_warmup": "f60aed9ae1f096744f08445c3cf3db6a4af99d1af9ed246f29193a7929ab0836",
    "bt_eval_every_2": "50fb5fd5caa80774580218bb1596aed85320491698f5f8b191780a76be7ced19",
    "fls": "21ed4a468dd4c2016bfdb3581441ab494ed8e02508a20c9410dd8ca545b7baf3",
    "fls_eval_every_2": "21ed4a468dd4c2016bfdb3581441ab494ed8e02508a20c9410dd8ca545b7baf3",
    "only_client": "f67d8ff02860601775acf4b4af10074693fa882f255edc00f2dff2411a6121f2",
    "pooled": "6f2ea80605e1fbd67d4f7def4008f2734472918954e566dc96b7c71222ebaa7f",
}
WEIGHTS = {
    "SkylakeX": _SKYLAKEX_WEIGHTS,
    "Haswell": _SKYLAKEX_WEIGHTS,
    "Sandybridge": {
        "braintorrent": "d0bfb849f40707fc95fcaf746c9e7a9331b611e6a84b93237a11cc2714963fae",
        "bt_drop_no_warmup": "6d63445732ab01acbefde32cdd36da52beb4cc616afafb50f0106ab1eaaad4dd",
        "bt_eval_every_2": "d0bfb849f40707fc95fcaf746c9e7a9331b611e6a84b93237a11cc2714963fae",
        "fls": "335eb78f5c4c4eee4103116ede8f353142c219fc2c241184b1ba1f4c27a563f1",
        "fls_eval_every_2": "335eb78f5c4c4eee4103116ede8f353142c219fc2c241184b1ba1f4c27a563f1",
        "only_client": "c3164dda4250b4b1b84615b8e090dc682154b551b868eab96bbacb11d70cb5fd",
        "pooled": "dbc09beac76e0daeb9ad7f272de1eec462f8300721dd89f8149d0a49e24ec105",
    },
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


@pytest.mark.parametrize("name", sorted(RUNS))
def test_final_weights_match_recorded_digests(name):
    kernel = blas_corename()
    if kernel not in WEIGHTS:
        pytest.skip(f"no weight digests recorded for BLAS kernel {kernel!r}")
    result = run_training(replace(BASE, **RUNS[name][0]))
    digest = hashlib.sha256()
    for client in result.final_clients:
        digest.update(client.weights.params.tobytes())
    assert digest.hexdigest() == WEIGHTS[kernel][name]


def test_experiment_tables_match_recorded_digests(tmp_path):
    run_sweep("exp1", SWEEP_BASE, out_dir=tmp_path)
    run_sweep("exp2", SWEEP_BASE, out_dir=tmp_path)
    assert {name: sha256(tmp_path / name) for name in TABLES} == TABLES


# An OpenBLAS kernel other than the one the CPU picks, with the CPU flag it
# needs: forcing a kernel whose instructions the CPU lacks would crash.
OTHER_KERNELS = {"Sandybridge": "avx", "Haswell": "avx2"}


def _cpu_flags() -> set[str]:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    return {flag for line in text.splitlines() if line.startswith("flags")
            for flag in line.split(":", 1)[1].split()}


# Each rerun of the bit checks, as (OPENBLAS_CORETYPE, OPENBLAS_NUM_THREADS):
# another kernel than this CPU's with one thread, or this CPU's own (None)
# with two.
RERUNS = {"Haswell": ("Haswell", "1"), "Sandybridge": ("Sandybridge", "1"),
          "two_threads": (None, "2")}


@pytest.mark.slow
@pytest.mark.parametrize("kernel", sorted(RERUNS))
def test_bits_hold_under_another_openblas_kernel(kernel):
    """The reference-equality tests and the digests above, with OpenBLAS
    forced onto another kernel, or on this CPU's kernel with two threads:
    the model's bit-exact rewrites must hold for every kernel and thread
    count it may run on, not only the one-thread tier-1 run on this CPU.
    """
    if platform.machine().lower() not in ("x86_64", "amd64") or blas_corename() is None:
        pytest.skip("numpy's BLAS is not OpenBLAS on x86-64")
    coretype, threads = RERUNS[kernel]
    if coretype and OTHER_KERNELS[coretype] not in _cpu_flags():
        pytest.skip(f"this CPU lacks {OTHER_KERNELS[coretype]}, which {coretype} kernels need")
    tests = Path(__file__).resolve().parent
    package_root = Path(peerfed.__file__).resolve().parents[1]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": str(package_root)}
    if coretype:
        env["OPENBLAS_CORETYPE"] = coretype
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{tests / 'test_model.py'}::TestScratchBuffers",
         f"{tests / 'test_model.py'}::TestRewrittenStep",
         f"{tests / 'test_golden.py'}::test_metrics_files_match_recorded_digests",
         f"{tests / 'test_golden.py'}::test_final_weights_match_recorded_digests"],
        env=env, capture_output=True, text=True, timeout=600,
    )
    # A skip would mean the weight digests went unchecked under this kernel.
    assert done.returncode == 0 and "skipped" not in done.stdout, done.stdout[-3000:]
