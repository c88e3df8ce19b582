"""Self-test of the benchmark at tiny size, on a seed other than the default.

    python -m pytest perfbench/test_perfbench.py

It runs the driver on every workload in both modes and checks the result
line against ``BENCHMARK.json``, checks that the correctness gate catches a
wrong MSE and a split one row off, and checks that the driver refuses to run
without the program.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LISTED_WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 7


def test_every_listed_workload_exists():
    assert set(LISTED_WORKLOADS) <= set(run.WORKLOADS)


def run_driver(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_driver_prints_every_metric_with_its_unit(workload, trace, kind):
    proc = run_driver(ROOT, "--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    listed = {m["name"]: m["unit"] for m in SPEC[kind]}
    if workload in LISTED_WORKLOADS:
        assert printed == listed
    else:  # a workload run by hand may print more, e.g. the search's report write time
        assert printed.items() >= listed.items()
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    facts = json.loads(proc.stdout.splitlines()[-2].removeprefix("facts: "))
    # recorded as found: the benchmark never pins BLAS threads itself
    assert facts["environment"]["blas_threads"] == {name: os.environ.get(name, "unset") for name in run.BLAS_THREAD_VARS}
    assert len(facts["mse_sha256"]) == 64


@pytest.fixture(scope="module")
def program():
    return run.Program()


def tiny_workload(program, name: str, seed: int = SEED):
    workload = run.WORKLOADS[name](program, run.SIZES["tiny"], seed)
    workload.setup()
    return workload


def test_gate_passes_the_program_and_flags_a_wrong_mse(program):
    workload = tiny_workload(program, "eval-deep")
    unit = workload.unit(0)
    assert run.gate(program, workload, [unit]) == []

    trial = unit.trials[0]
    wrong = replace(trial, test_mses=(trial.test_mses[0] * 1.01,) + trial.test_mses[1:])
    problems = run.gate(program, workload, [replace(unit, trials=[wrong])])
    assert [message.split(":")[0] for _, message in problems] == ["guess 0"]


@pytest.mark.parametrize("split, shift", [("washout", 1), ("validation_len", 1), ("train_len", -1)])
@pytest.mark.parametrize("name", LISTED_WORKLOADS)
def test_gate_flags_a_split_one_row_off(program, name, split, shift):
    workload = tiny_workload(program, name)
    units = [workload.unit(index) for index in range(run.GATE_UNITS)]
    # the program fitted and scored the rows of the true split; a reference one row over must disagree
    workload.task = replace(workload.task, **{split: getattr(workload.task, split) + shift})
    assert run.gate(program, workload, units)


def test_inputs_follow_the_seed(program):
    digests = [
        run.mse_digest([tiny_workload(program, "eval-shallow-sparse", seed).unit(3)]) for seed in (SEED, SEED, SEED + 1)
    ]
    assert digests[0] == digests[1] != digests[2]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for directory in SPEC["paths"]:
        shutil.copytree(ROOT / directory, tmp_path / directory, ignore=shutil.ignore_patterns("__pycache__", ".out"))
    proc = run_driver(tmp_path, "--workload", LISTED_WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
