"""The package's export list and the project's pytest configuration."""

import subprocess
import sys
from pathlib import Path

import deepesn

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


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
