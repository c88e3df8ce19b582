"""Random hyperparameter search and the shallow-vs-deep benchmark harness.

For every (task, topology) pair the harness runs two searches: a shallow
one (single layer holding all units) and a deep one (the layer counts in
the search space).  Each search samples scaling configurations uniformly,
scores every configuration as the mean validation MSE over several fresh
network guesses, selects the best configuration by validation MSE only,
and reports that configuration's test MSE.

Each planned trial carries its own :func:`evaluate_trial` arguments, and the
pool hands out one trial at a time.  Results are keyed by a master seed and
each trial's structural identity, never by execution order, and every trial
pins OpenBLAS to one thread (restoring the caller's counts), so reruns,
parallel runs and lone ``eval`` calls give the same MSEs at any thread setting.
"""

from __future__ import annotations

import ctypes
import hashlib
import multiprocessing
import struct
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import islice
from typing import ClassVar

import numpy as np

from . import __version__, readout
from .datasets import Dataset
from .reservoir import INTERLAYER_FAN_IN, ReservoirSpec, build_reservoir, run
from .topology import ScalingSpec, Sparse, TopologyKind, parse_topology, random_stream

__all__ = [
    "SearchSpace", "TrialResult", "FULL_BUDGET", "sample_config", "derive_seed",
    "evaluate_trial", "run_benchmark_suite", "format_report", "trial_log_table", "load_trial_log",
]


@dataclass(frozen=True)
class SearchSpace:
    """Budget of one random search; the sampling ranges are fixed."""

    rho_range: ClassVar[tuple[float, float]] = (0.1, 1.0)
    omega_in_range: ClassVar[tuple[float, float]] = (0.1, 2.0)
    omega_il_range: ClassVar[tuple[float, float]] = (0.1, 2.0)
    configs_per_layer: int = 50
    guesses: int = 10
    layer_counts: tuple[int, ...] = (2, 3, 4, 5)

    def __post_init__(self):
        if self.configs_per_layer < 1 or self.guesses < 1:
            raise ValueError("configs_per_layer and guesses must be at least 1")
        if not self.layer_counts or any(l < 1 for l in self.layer_counts):
            raise ValueError("layer_counts must be non-empty positive integers")
        if len(set(self.layer_counts)) != len(self.layer_counts):
            raise ValueError(f"layer_counts must not repeat, got {self.layer_counts}")


FULL_BUDGET = SearchSpace()
_SEGMENT = 512  # steps of the fit range that evaluate_trial runs at a time: 2 MB of states at 500 units
# Steps of the validation and test ranges run at a time.  Their predictions, one gemv per piece, have the bits
# of one product over the whole range only when each piece starts a multiple of OpenBLAS's gemv row block from
# the range's start: 512-row pieces do, 1-, 2- and 7-row ones do not.  So this stays 512 whatever _SEGMENT is.
_PIECE = 512


def sample_config(space: SearchSpace, rng: np.random.Generator) -> ScalingSpec:
    """One hyperparameter draw, each value uniform on its half-open (low, high] range."""

    def draw(low: float, high: float) -> float:
        # high - U[0, high-low) lands in (low, high], matching the search ranges
        return high - rng.uniform(0.0, high - low)

    rho = draw(*space.rho_range)
    omega_in = draw(*space.omega_in_range)
    omega_il = draw(*space.omega_il_range)
    return ScalingSpec(rho=rho, omega_in=omega_in, omega_il=omega_il)


def derive_seed(*parts) -> int:
    """Collapse a structural identity into a stable 64-bit seed.

    Uses a cryptographic digest rather than Python's salted ``hash`` so the
    value is identical across processes and sessions.
    """
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            digest.update(b"s")
            digest.update(part.encode("utf-8"))
        elif isinstance(part, (bool, int, np.integer)):
            digest.update(b"i")
            digest.update(int(part).to_bytes(16, "little", signed=True))
        elif isinstance(part, (float, np.floating)):
            digest.update(b"f")
            digest.update(struct.pack("<d", float(part)))
        else:
            raise TypeError(f"cannot derive a seed from {type(part).__name__}")
        digest.update(b"\x00")
    return int.from_bytes(digest.digest()[:8], "little")


def _topology_parts(kind: TopologyKind) -> tuple[str, int]:
    fan_in = kind.fan_in if isinstance(kind, Sparse) else 0
    return kind.name, fan_in


@dataclass(frozen=True)
class TrialResult:
    """Per-guess MSEs of one hyperparameter configuration; the statistics derive from them.

    A trial has failed when it has no guesses or any non-finite MSE; its
    statistics are then NaN.  The std is the population std over the guesses.
    """

    task: str
    topology: str
    num_layers: int
    config_index: int
    hyper: ScalingSpec
    validation_mses: tuple[float, ...]
    test_mses: tuple[float, ...]
    note: str = ""

    @property
    def guesses(self) -> int:
        return len(self.validation_mses)

    @cached_property
    def failed(self) -> bool:
        return not self.validation_mses or not np.all(np.isfinite(self.validation_mses + self.test_mses))

    def _statistic(self, values, reduce) -> float:
        return float("nan") if self.failed else float(reduce(values))

    @cached_property
    def validation_mse_mean(self) -> float:
        return self._statistic(self.validation_mses, np.mean)

    @cached_property
    def validation_mse_std(self) -> float:
        return self._statistic(self.validation_mses, np.std)

    @cached_property
    def test_mse_mean(self) -> float:
        return self._statistic(self.test_mses, np.mean)

    @cached_property
    def test_mse_std(self) -> float:
        return self._statistic(self.test_mses, np.std)


def evaluate_trial(
    task: Dataset,
    topology: TopologyKind,
    num_layers: int,
    hyper: ScalingSpec,
    guesses: int,
    master_seed: int,
    *,
    total_units: int = 500,
    config_index: int = 0,
) -> TrialResult:
    """Score one configuration as mean/std MSE over fresh network guesses.

    Every guess builds a completely new reservoir from a seed derived from
    (master seed, topology, layer count, hyperparameters, guess index) and
    fits two readouts on post-washout rows: one on the fit range scored on
    the validation range, and one on the full training range scored on the
    test range.  The training range extends the fit range, so both readouts
    come from one :class:`readout.NestedFit` that factorizes each training
    row once.  Its buffer has room for about half the fit range's rows, so
    it factors itself down to its triangle once, halfway through the fit
    range.  The states are those of one run over the whole series, run
    in pieces of at most 512 steps, each resumed from the last state of the
    one before and cut at the ends of the fit and training ranges.  Each
    piece of the training range is copied straight into the readout's
    buffer, each piece of the validation range after its predictions, and
    each piece of the test range is only predicted.  So a guess holds the
    buffer plus one piece of states.  The guesses run at one OpenBLAS
    thread: the readout's sums depend on how BLAS splits them.
    """
    if guesses < 1:
        raise ValueError(f"guesses must be at least 1, got {guesses}")
    if task.validation_len == 0:
        raise ValueError("task needs a validation tail for model selection")
    topo_name, fan_in = _topology_parts(topology)
    washout = task.washout
    fit_end = task.train_len - task.validation_len
    train_end = task.train_len
    targets = task.targets[:, None]
    starts = [*range(0, fit_end, _SEGMENT), *range(fit_end, train_end, _PIECE), *range(train_end, len(targets), _PIECE)]
    pieces = list(zip(starts, starts[1:] + [len(targets)]))
    predictions = np.empty((len(targets) - fit_end, 1))  # of the validation range, then the test range

    val_mses, test_mses = [], []
    pinned = [(set_threads, get_threads()) for set_threads, get_threads in _openblas_thread_calls()]
    try:
        for set_threads, _ in pinned:
            set_threads(1)
        for guess in range(guesses):
            seed = derive_seed(
                master_seed, "guess", topo_name, fan_in, num_layers,
                hyper.rho, hyper.omega_in, hyper.omega_il, guess,
            )
            spec = ReservoirSpec(total_units=total_units, num_layers=num_layers, topology=topology, scaling=hyper, seed=seed)
            reservoir = build_reservoir(spec)
            # the fit range's first rows fill the triangle's place and half the rest the room after it; the other
            # half goes under the triangle the full buffer is factored down to.  The validation range fits whole
            half_fit = -(-(fit_end - washout - (total_units + 1)) // 2)
            fit = readout.NestedFit(total_units, 1, max(half_fit, task.validation_len))
            last = None  # each piece of the run resumes from a copy of the last row of the one before
            for start, stop in pieces:
                if start in (fit_end, train_end):
                    model = readout.train_pseudo_inverse(fit)
                states = run(reservoir, task.inputs[start:stop], initial_state=last)
                last = states[-1].copy()
                if start >= fit_end:  # predicted from the row-major piece, before its rows join the fit
                    predictions[start - fit_end:stop - fit_end] = states @ model
                if start < train_end:
                    skip = max(washout - start, 0)
                    fit.append(states[skip:], targets[start + skip:stop])
                del states
            del fit  # so the next guess's buffer replaces this one, not joins it
            val_mses.append(readout.mse(predictions[:task.validation_len], targets[fit_end:train_end]))
            test_mses.append(readout.mse(predictions[task.validation_len:], targets[train_end:]))
    finally:
        for set_threads, count in pinned:
            set_threads(count)
    return TrialResult(task.name, topo_name, num_layers, config_index, hyper, tuple(val_mses), tuple(test_mses))


def select_best(trials) -> TrialResult | None:
    """Lowest validation mean wins; ties fall to fewer layers, then sample order."""
    viable = [t for t in trials if not t.failed]
    if not viable:
        return None
    return min(viable, key=lambda t: (t.validation_mse_mean, t.num_layers, t.config_index))


@dataclass(frozen=True)
class SearchResult:
    """All trials of one shallow or deep search, in plan order."""

    trials: tuple[TrialResult, ...]

    @property
    def selected(self) -> TrialResult | None:
        return select_best(self.trials)


@dataclass(frozen=True)
class BenchmarkEntry:
    """Shallow and deep search results for one task/topology pair."""

    task: str
    topology: str
    shallow: SearchResult
    deep: SearchResult


@dataclass(frozen=True)
class ExperimentReport:
    """Every benchmark entry plus protocol metadata."""

    entries: tuple[BenchmarkEntry, ...]
    metadata: dict = field(default_factory=dict)

    @property
    def failures(self) -> tuple[str, ...]:
        """The note of every trial that raised, in plan order."""
        searches = (result for entry in self.entries for result in (entry.shallow, entry.deep))
        return tuple(trial.note for result in searches for trial in result.trials if trial.note)


@dataclass(frozen=True)
class _Job:
    """One planned trial: exactly the arguments of :func:`evaluate_trial`, the task included."""

    task: Dataset
    topology: TopologyKind
    num_layers: int
    hyper: ScalingSpec
    guesses: int
    master_seed: int
    total_units: int
    config_index: int


def _run_job(job: _Job) -> TrialResult:
    try:
        return evaluate_trial(job.task, job.topology, job.num_layers, job.hyper, job.guesses, job.master_seed,
                              total_units=job.total_units, config_index=job.config_index)
    except Exception as exc:  # isolate a broken trial instead of aborting the suite
        topo_name = job.topology.name
        note = f"{job.task.name}/{topo_name}/L={job.num_layers}/config={job.config_index}: {type(exc).__name__}: {exc}"
        return TrialResult(job.task.name, topo_name, job.num_layers, job.config_index, job.hyper, (), (), note)


def _openblas_thread_calls() -> list:
    """The (set, get) thread-count functions of each OpenBLAS in /proc/self/maps."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            # the path is everything after the fifth field, and may hold spaces
            fields = (line.rstrip("\n").split(maxsplit=5) for line in maps)
            paths = sorted({f[5] for f in fields if len(f) == 6 and "openblas" in f[5]})
    except OSError:
        return []
    found = []
    for library in map(ctypes.CDLL, paths):
        # numpy's bundled ILP64 build, scipy's bundled build, a system build
        for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads", "openblas_{}_num_threads"):
            if hasattr(library, name.format("set")):
                set_threads, get_threads = getattr(library, name.format("set")), getattr(library, name.format("get"))
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                found.append((set_threads, get_threads))
                break
    return found


def _warn_if_unpinned() -> None:
    if not _openblas_thread_calls():
        print("warning: no OpenBLAS found to pin to one thread; the results may depend on the "
              "BLAS thread count", file=sys.stderr, flush=True)


def _execute_jobs(jobs, workers: int, progress: bool = False):
    every = max(1, len(jobs) // 100)
    start = time.perf_counter()

    def _collect(iterator):
        out = []
        for index, outcome in enumerate(iterator, start=1):
            out.append(outcome)
            if progress and (index % every == 0 or index == len(jobs)):
                rate = index / max(time.perf_counter() - start, 1e-9)
                minutes, seconds = divmod(round((len(jobs) - index) / rate), 60)
                print(f"progress: {index}/{len(jobs)} trials, {rate:.2f} trials/s, ETA {minutes}m{seconds:02d}s",
                      file=sys.stderr, flush=True)
        return out

    _warn_if_unpinned()  # once per search; evaluate_trial pins in each process
    if workers <= 1 or len(jobs) <= 1:
        return _collect(map(_run_job, jobs))
    # fork start method: workers inherit the modules as they are, without importing the program again
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(workers, mp_context=context) as pool:
        return _collect(pool.map(_run_job, jobs))  # one trial at a time


def _plan_search(task: Dataset, topology: TopologyKind, space: SearchSpace, master_seed: int, total_units: int):
    """Deterministic trial plan: each config has its own derived sampling stream."""
    topo_name, fan_in = _topology_parts(topology)
    jobs = []
    for num_layers in space.layer_counts:
        key = derive_seed(master_seed, "config", task.name, topo_name, fan_in, num_layers)
        for index in range(space.configs_per_layer):
            hyper = sample_config(space, random_stream(key, index))
            jobs.append(_Job(task, topology, num_layers, hyper, space.guesses, master_seed, total_units, index))
    return jobs


def run_benchmark_suite(
    tasks,
    topologies,
    space: SearchSpace = FULL_BUDGET,
    master_seed: int = 0,
    *,
    workers: int = 1,
    total_units: int = 500,
    metadata: dict | None = None,
    progress: bool = False,
) -> ExperimentReport:
    """Cross product of tasks and topologies, each with a shallow and a deep search."""
    tasks = list(tasks)
    topologies = [parse_topology(t) if isinstance(t, str) else t for t in topologies]
    shallow_space = replace(space, layer_counts=(1,))

    planned = [  # one [shallow, deep] pair of trial plans per (task, topology)
        (task, topology, [_plan_search(task, topology, s, master_seed, total_units) for s in (shallow_space, space)])
        for task in tasks
        for topology in topologies
    ]
    plan = [job for *_, pair in planned for jobs in pair for job in jobs]
    outcomes = iter(_execute_jobs(plan, workers, progress=progress))
    entries = tuple(
        BenchmarkEntry(task.name, topology.name, *(SearchResult(tuple(islice(outcomes, len(jobs)))) for jobs in pair))
        for task, topology, pair in planned
    )

    meta = {
        "master_seed": str(master_seed),
        "total_units": str(total_units),
        "interlayer_fan_in": str(INTERLAYER_FAN_IN),
        "rcond": repr(readout.DEFAULT_RCOND),
        "configs_per_layer": str(space.configs_per_layer),
        "guesses": str(space.guesses),
        "shallow_layer_counts": ",".join(str(l) for l in shallow_space.layer_counts),
        "deep_layer_counts": ",".join(str(l) for l in space.layer_counts),
        "rho_range": f"({space.rho_range[0]!r}, {space.rho_range[1]!r}]",
        "omega_in_range": f"({space.omega_in_range[0]!r}, {space.omega_in_range[1]!r}]",
        "omega_il_range": f"({space.omega_il_range[0]!r}, {space.omega_il_range[1]!r}]",
        "std_convention": "population",
        "tasks": ",".join(task.name for task in tasks),
        "topologies": ",".join(t.name for t in topologies),
        **{f"split.{task.name}.{key}": str(getattr(task, key))
           for task in tasks for key in ("train_len", "washout", "validation_len")},
        "deepesn_version": __version__,
    }
    if metadata:
        meta.update({str(k): str(v) for k, v in metadata.items()})
    return ExperimentReport(entries=entries, metadata=meta)


def _format_mse(trial: TrialResult | None) -> str:
    return "failed" if trial is None else f"{trial.test_mse_mean:.3e} ({trial.test_mse_std:.3e})"


def format_report(report: ExperimentReport) -> str:
    """Human-readable summary: one block per task, topology rows, ordering flags."""
    lines = ["deep echo state network benchmark", "=" * 34, ""]
    for key, value in report.metadata.items():
        lines.append(f"{key} = {value}")
    lines.append("")

    for task in dict.fromkeys(entry.task for entry in report.entries):
        lines.append(f"task: {task}")
        lines.append(f"{'topology':<14}{'shallow ESN':<28}{'deep ESN':<28}{'layers':<6}")
        for entry in report.entries:
            if entry.task != task:
                continue
            shallow, deep = entry.shallow.selected, entry.deep.selected
            layers_text = str(deep.num_layers) if deep else "-"
            lines.append(f"{entry.topology:<14}{_format_mse(shallow):<28}{_format_mse(deep):<28}{layers_text:<6}")
        lines.append("")

    lines.append("ordering checks (deep test MSE < shallow test MSE):")
    for entry in report.entries:
        shallow, deep = entry.shallow.selected, entry.deep.selected
        if shallow is None or deep is None:
            verdict = "not comparable (failed search)"
        elif deep.test_mse_mean < shallow.test_mse_mean:
            verdict = "ok"
        else:
            verdict = "VIOLATED"
        lines.append(f"  {entry.task}/{entry.topology}: {verdict}")
    if report.failures:
        lines.append("")
        lines.append("isolated failures:")
        for failure in report.failures:
            lines.append(f"  {failure}")
    lines.append("")
    return "\n".join(lines)


_LOG_COLUMNS = (
    "task", "topology", "group", "layers", "config", "rho", "omega_in", "omega_il",
    "guesses", "failed", "val_mse_mean", "val_mse_std", "test_mse_mean", "test_mse_std",
    "val_mses", "test_mses", "selected",
)


def trial_log_table(report: ExperimentReport) -> str:
    """Machine-readable log: tab-separated, one row per trial, full-precision floats."""
    lines = ["\t".join(_LOG_COLUMNS)]
    for entry in report.entries:
        for group, result in (("shallow", entry.shallow), ("deep", entry.deep)):
            selected = result.selected  # once per search: select_best scans every trial
            for trial in result.trials:
                row = (
                    trial.task,
                    trial.topology,
                    group,
                    str(trial.num_layers),
                    str(trial.config_index),
                    repr(trial.hyper.rho),
                    repr(trial.hyper.omega_in),
                    repr(trial.hyper.omega_il),
                    str(trial.guesses),
                    "1" if trial.failed else "0",
                    repr(trial.validation_mse_mean),
                    repr(trial.validation_mse_std),
                    repr(trial.test_mse_mean),
                    repr(trial.test_mse_std),
                    ",".join(repr(v) for v in trial.validation_mses),
                    ",".join(repr(v) for v in trial.test_mses),
                    "1" if trial is selected else "0",
                )
                lines.append("\t".join(row))
    return "\n".join(lines) + "\n"


def load_trial_log(path) -> list[dict]:
    """Parse a trial log written by :func:`trial_log_table` back into dicts."""
    with open(path, "r", encoding="ascii") as handle:
        lines = [line.rstrip("\n") for line in handle if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty trial log")
    header = tuple(lines[0].split("\t"))
    if header != _LOG_COLUMNS:
        raise ValueError(f"{path}: unexpected header {header!r}")
    rows = []
    for line in lines[1:]:
        parts = line.split("\t")
        if len(parts) != len(header):
            raise ValueError(f"{path}: malformed row: {line!r}")
        record = dict(zip(header, parts))
        for key in ("layers", "config", "guesses"):
            record[key] = int(record[key])
        for key in ("rho", "omega_in", "omega_il", "val_mse_mean", "val_mse_std", "test_mse_mean", "test_mse_std"):
            record[key] = float(record[key])
        for key in ("failed", "selected"):
            record[key] = record[key] == "1"
        for key in ("val_mses", "test_mses"):
            record[key] = tuple(float(v) for v in record[key].split(",")) if record[key] else ()
        rows.append(record)
    return rows
