"""The package's export list and the project's pytest configuration."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import deepesn

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_all_names_resolve_once():
    namespace = {}
    exec("from deepesn import *", namespace)
    del namespace["__builtins__"]
    # a stale name fails the import, a repeated one the comparison
    assert sorted(namespace) == sorted(deepesn.__all__)


def test_failing_property_reports_its_example(tmp_path):
    # with every warning an error, the deprecation hypothesis triggers while reporting a failure
    # must not end the run as an internal error (exit 3) that hides the falsifying example
    (tmp_path / "test_property.py").write_text(
        "from hypothesis import given, strategies as st\n\n"
        "@given(st.integers())\n"
        "def test_negative(x):\n"
        "    assert x < 0\n"
    )
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "Falsifying example" in done.stdout


ONE_GUESS_PER_TOPOLOGY = """
import sys
import deepesn.cli
from deepesn import ScalingSpec, evaluate_trial, generate_narma10, parse_topology

task = generate_narma10(400, seed=1, train_len=200, washout=20, validation_len=50)
for name in ("sparse", "permutation", "ring", "chain"):
    evaluate_trial(task, parse_topology(name), 2, ScalingSpec(0.9, 0.5, 0.5), 1, 0, total_units=20)
print("scipy.linalg" in sys.modules)
with open("/proc/self/maps", encoding="utf-8") as maps:
    fields = (line.rstrip("\\n").split(maxsplit=5) for line in maps)
    print(*sorted({f[5] for f in fields if len(f) == 6 and "openblas" in f[5]}), sep="\\n")
"""


def test_one_openblas_and_no_scipy_linalg():
    # scipy.linalg would load scipy's own OpenBLAS next to numpy's: at paper size that cost
    # about 0.09 s of set-up and 16 MB of peak memory, and a second library to pin
    if not Path("/proc/self/maps").exists():
        pytest.skip("no /proc/self/maps to list the loaded libraries")
    src = str(Path(deepesn.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", ONE_GUESS_PER_TOPOLOGY],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    linalg_loaded, *libraries = done.stdout.splitlines()
    assert linalg_loaded == "False"
    assert len(libraries) == 1, libraries


def test_perfbench_spans_see_each_stage_of_a_guess(tmp_path):
    # the benchmark times the program's stages by wrapping its functions by name; one bypassed or renamed
    # would read 0 there, not fail
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    recorder = tracing.Recorder(tmp_path)
    uninstall = tracing.install(recorder)
    try:
        task = deepesn.generate_narma10(400, seed=1, train_len=200, washout=20, validation_len=50)
        deepesn.experiment.evaluate_trial(task, deepesn.Permutation(), 2, deepesn.ScalingSpec(0.9, 0.5, 0.5), 1, 0,
                                          total_units=20)
    finally:
        uninstall()
    spans = recorder.take()
    names = {(span["pid"], span["id"]): span["name"] for span in spans}
    recorded = {span["name"] for span in spans}
    assert {"reservoir.build", "reservoir.run", "readout.fit", "readout.mse", "experiment.trial"} <= recorded
    # the fit is the factor step alone: a state run inside it would be timed as readout
    assert all(names.get(span["parent"]) != "readout.fit" for span in spans if span["name"] == "reservoir.run")
    assert deepesn.experiment.run is deepesn.reservoir.run  # uninstalled
