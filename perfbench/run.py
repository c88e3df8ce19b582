"""Benchmark of the deepesn search harness: throughput, CPU, memory and per-stage cost.

Run from the root of a checkout:

    python3 perfbench/run.py --workload eval-deep --seed 1 --seconds 45 --trace 0

Each run is one fresh process that imports the checkout's ``src/deepesn`` and
drives it through the calls the CLI makes: ``cli.make_task`` for the data,
``experiment.run_benchmark_suite`` or ``experiment.evaluate_trial`` for the
guesses, and ``format_report`` / ``trial_log_table`` for the output files.
Work is issued in units (one suite call, or one ``evaluate_trial`` call)
until the next unit would end further from ``--seconds`` than stopping now.

``--trace 0`` prints the end-to-end metrics, with ``setup_s`` the median over
fresh interpreters, started between units, that each import the program and
make the workload's data (``--setup-probe``); ``--trace 1`` runs every unit
once untraced and once with spans around the program's public calls (see
``tracing.py``), alternating which goes first, and prints the per-layer
metrics and the tracing overhead.  Outside the timed
region every run recomputes a fixed sample of guesses with the plain
reference in ``reference.py``; a mismatch makes the run incorrect and exits
with code 1.  The last line of standard output is the JSON result; the line
before it holds facts about the run (environment, MSE digest, gate).

The benchmark never sets BLAS thread variables: it measures the program as
shipped.
"""

import time

_START = time.perf_counter()  # before numpy and the program are imported: a set-up probe counts the import

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import reference
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = HERE / ".out"

DEFAULT_SEED = 1
SETUP_REPEATS = 9  # setup_s is the median of this many fresh-interpreter set-ups, spread over the run
GENERATE_REPEATS = 3  # datasets.generate_s is the median of this many traced set-ups
GATE_UNITS = 4  # the gate's guesses are spread evenly over the guesses of this many leading units
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Sizes:
    """Problem sizes: ``full`` is what the benchmark measures, ``tiny`` is for its self-test."""

    units: int
    search_length: int
    eval_length: int


SIZES = {"full": Sizes(units=500, search_length=1000, eval_length=10000), "tiny": Sizes(40, 800, 1200)}


def _splits(length: int) -> dict:
    # the CLI's 5000/100/1000 split at 10000 steps, scaled to shorter series
    return dict(train_len=length // 2, washout=100, validation_len=length // 10)


@dataclass
class Unit:
    """Outcome of one unit of work: its trials and the master seed they ran under."""

    trials: list
    master_seed: int
    report: object = None

    @property
    def guesses(self) -> int:
        return sum(t.guesses for t in self.trials)


class SearchWorkload:
    """search-w2: the CLI's benchmark traffic at reduced scale, on the fork pool."""

    topologies = ("sparse", "permutation", "ring", "chain")
    gate_guesses = 4  # one per topology

    def __init__(self, program, sizes: Sizes, seed: int, workers: int):
        self.p, self.sizes, self.seed, self.workers = program, sizes, seed, workers
        self.space = program.experiment.SearchSpace(configs_per_layer=1, guesses=3)

    def setup(self):
        length = self.sizes.search_length
        self.task, self.meta = self.p.cli.make_task("narma10", seed=self.seed, length=length, **_splits(length))

    def unit(self, index: int) -> Unit:
        master = self.seed * 1000 + index
        report = self.p.experiment.run_benchmark_suite(
            [self.task], self.topologies, self.space, master,
            workers=self.workers, total_units=self.sizes.units, metadata=self.meta,
        )
        trials = [t for entry in report.entries for r in (entry.shallow, entry.deep) for t in r.trials]
        return Unit(trials, master, report)


class EvalWorkload:
    """eval-*: ``evaluate_trial`` called serially on configs drawn from the workload seed."""

    workers = 1
    gate_guesses = 2  # a reference guess at 10000 steps costs more than a second

    def __init__(self, program, sizes: Sizes, seed: int, task: str, topology: str, layers: int, guesses: int):
        self.p, self.sizes, self.seed = program, sizes, seed
        self.task_name, self.layers, self.guesses = task, layers, guesses
        self.topology = program.topology.parse_topology(topology)

    def setup(self):
        length = self.sizes.eval_length
        self.task, self.meta = self.p.cli.make_task(self.task_name, seed=self.seed, length=length, **_splits(length))

    def unit(self, index: int) -> Unit:
        hyper = self.p.experiment.sample_config(
            self.p.experiment.FULL_BUDGET, self.p.topology.random_stream(self.seed, 1, index)
        )
        trial = self.p.experiment.evaluate_trial(
            self.task, self.topology, self.layers, hyper, self.guesses, self.seed,
            total_units=self.sizes.units, config_index=index,
        )
        return Unit([trial], self.seed)


# BENCHMARK.json lists the two eval workloads.  search-w2 is run by hand: it
# adds the suite planner, report writing and the fork pool, whose workers'
# OpenBLAS threads contend for the same cores as shipped.  Over ten seeds its
# guesses_per_s spread by a third (quartile distance over median), more than
# any bound BENCHMARK.json may set.
WORKLOADS = {
    "search-w2": lambda p, s, seed: SearchWorkload(p, s, seed, 2),
    "eval-deep": lambda p, s, seed: EvalWorkload(p, s, seed, "mg17", "permutation", 5, 10),
    "eval-shallow-sparse": lambda p, s, seed: EvalWorkload(p, s, seed, "narma10", "sparse", 1, 1),
}


class Program:
    """The checkout's deepesn modules, imported from ``src`` and nowhere else."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        import deepesn
        import deepesn.cli
        import deepesn.experiment
        import deepesn.readout
        import deepesn.reservoir
        import deepesn.topology

        if not Path(deepesn.__file__).resolve().is_relative_to(SRC):
            raise ImportError(f"deepesn was imported from {deepesn.__file__}, not from {SRC}")
        self.cli, self.experiment = deepesn.cli, deepesn.experiment
        self.reservoir, self.topology = deepesn.reservoir, deepesn.topology
        self.rcond = deepesn.readout.DEFAULT_RCOND


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; the children figure is the largest reaped worker
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, reaped) / 1024.0


def _write_report(program, report, out_dir: Path) -> float:
    """What ``deepesn benchmark`` writes after its search; returns the seconds it took."""
    start = time.perf_counter()
    (out_dir / "report.txt").write_text(program.experiment.format_report(report), encoding="ascii")
    (out_dir / "trials.tsv").write_text(program.experiment.trial_log_table(report), encoding="ascii")
    return time.perf_counter() - start


@dataclass
class Pass:
    """Units issued under one setting, with the wall time of each search or eval call."""

    units: list = field(default_factory=list)
    walls: list = field(default_factory=list)
    writes: list = field(default_factory=list)
    cpu_s: float = 0.0

    @property
    def guesses(self) -> int:
        return sum(u.guesses for u in self.units)

    def issue(self, workload, program, index: int, out_dir: Path) -> None:
        cpu0, begin = _cpu_seconds(), time.perf_counter()
        unit = workload.unit(index)
        self.walls.append(time.perf_counter() - begin)
        if unit.report is not None:
            self.writes.append(_write_report(program, unit.report, out_dir))
        self.cpu_s += _cpu_seconds() - cpu0
        self.units.append(unit)


def run_passes(workload, program, seconds: float, out_dir: Path, recorder=None, setup_probe=None):
    """Issue units until the next one would end further from ``seconds`` than stopping now.

    With a recorder every unit runs twice, untraced and traced, alternating which
    goes first so that warm-up and drift fall on both sides alike.  With a set-up
    probe its samples are taken between units, spread over the run, so that they
    see the same load as the units.  Returns the untraced pass and the traced one
    (None without a recorder).
    """
    plain, traced = Pass(), (Pass() if recorder else None)
    start = time.perf_counter()
    index = 0
    while True:
        sides = [plain] if traced is None else [plain, traced][:: 1 if index % 2 == 0 else -1]
        for side in sides:
            uninstall = tracing.install(recorder) if side is traced else None
            try:
                side.issue(workload, program, index, out_dir)
            finally:
                if uninstall:
                    uninstall()
        index += 1
        if setup_probe is not None:
            setup_probe.sample(share=(time.perf_counter() - start) / seconds)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / index / 2 > seconds:
            return plain, traced


def gate(program, workload, units) -> list[tuple[object, str]]:
    """Recompute a fixed sample of guesses with the reference; (trial, message) per problem."""
    experiment, topology = program.experiment, program.topology
    problems = []
    for unit in units:
        for trial in unit.trials:
            values = trial.validation_mses + trial.test_mses
            if trial.failed or not all(math.isfinite(v) and v > 0.0 for v in values):
                problems.append((trial, f"failed or non-finite MSE {trial.note}"))
    guesses = [(unit, trial, g) for unit in units[:GATE_UNITS] for trial in unit.trials for g in range(trial.guesses)]
    count = workload.gate_guesses
    picks = sorted({round(k * (len(guesses) - 1) / (count - 1)) for k in range(count)})
    for unit, trial, g in (guesses[i] for i in picks):
        kind = topology.parse_topology(trial.topology)
        fan_in = kind.fan_in if isinstance(kind, topology.Sparse) else 0
        hyper = trial.hyper
        seed = experiment.derive_seed(
            unit.master_seed, "guess", trial.topology, fan_in, trial.num_layers,
            hyper.rho, hyper.omega_in, hyper.omega_il, g,
        )
        spec = program.reservoir.ReservoirSpec(
            total_units=workload.sizes.units, num_layers=trial.num_layers, topology=kind, scaling=hyper, seed=seed,
        )
        reservoir = program.reservoir.build_reservoir(spec)
        got = (trial.validation_mses[g], trial.test_mses[g])
        for check in reference.check_guess(reservoir, workload.task, program.rcond, got):
            if not check.ok:
                problems.append((trial, f"guess {g}: {check.label} MSE {check.value!r} vs reference "
                                        f"{check.nearest!r} (relative gap {check.gap:.2e} > {check.tolerance:.2e})"))
    return problems


def log_round_trip(program, units, out_dir: Path) -> list[tuple[object, str]]:
    """The trial log on disk must give back every per-guess MSE of the last report exactly."""
    reports = [u for u in units if u.report is not None]
    if not reports:
        return []
    rows = program.experiment.load_trial_log(out_dir / "trials.tsv")
    trials = reports[-1].trials
    if len(rows) != len(trials):
        return [(t, "trials.tsv has another row count than the report") for t in trials]
    return [
        (t, "trials.tsv does not give back this trial's per-guess MSEs")
        for row, t in zip(rows, trials)
        if (row["val_mses"], row["test_mses"]) != (t.validation_mses, t.test_mses)
    ]


def mse_digest(units) -> str:
    """SHA-256 over every per-guess MSE of the run, in the order the units ran, at full precision."""
    digest = hashlib.sha256()
    for index, unit in enumerate(units):
        for t in unit.trials:
            for g in range(t.guesses):
                line = (f"{index}\t{t.task}\t{t.topology}\t{t.num_layers}\t{t.config_index}\t{g}\t"
                        f"{t.validation_mses[g]!r}\t{t.test_mses[g]!r}\n")
                digest.update(line.encode("ascii"))
    return digest.hexdigest()


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(workers: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError, AttributeError):
        blas_text = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_text,
        "blas_threads": {name: os.environ.get(name, "unset") for name in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "workers": workers,
        "git_commit": _git_commit(),
    }


# Runs the probe command given as its arguments once per line read, printing the probe's last line.
_PROBE_SERVER = """
import subprocess, sys
for _ in sys.stdin:
    out = subprocess.run(sys.argv[1:], capture_output=True, text=True, check=True, timeout=120).stdout
    print(out.strip().splitlines()[-1], flush=True)
"""


class SetupProbe:
    """setup_s: fresh interpreters that each import the program and make the workload's data.

    The interpreters are started by a helper process that is reaped only after
    the run's figures are read, so that their memory and CPU time stay out of
    peak_rss_mb and cpu_s_per_guess.
    """

    def __init__(self, args):
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                   "--seed", str(args.seed), "--setup-probe"] + (["--tiny"] if args.tiny else [])
        self.server = subprocess.Popen(
            [sys.executable, "-c", _PROBE_SERVER, *command], cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )
        self.samples = []

    def sample(self, share: float) -> None:
        """Take samples until ``share`` of the ``SETUP_REPEATS`` samples are taken."""
        while len(self.samples) < min(SETUP_REPEATS, math.ceil(share * SETUP_REPEATS)):
            self.server.stdin.write("\n")
            self.server.stdin.flush()
            self.samples.append(float(self.server.stdout.readline()))

    def median(self) -> float:
        self.sample(share=1.0)
        return statistics.median(self.samples)

    def close(self) -> None:
        self.server.stdin.close()
        self.server.wait(timeout=120)


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def layer_metrics(spans, setup_spans, guesses, wall, workers, cpu_s, writes, overhead) -> dict:
    """Per-layer figures of one traced pass; times and counts are per guess unless named otherwise."""
    def total(name):
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    def calls(name):
        return sum(1 for s in spans if s["name"] == name)

    busy = total("experiment.trial")
    sparse_builds = calls("topology.make_sparse_recurrent")
    layer_steps = sum(s.get("layer_steps", 0) for s in spans if s["name"] == "reservoir.run")
    generate = [s["end"] - s["start"] for s in setup_spans if s["name"] == "datasets.generate"]
    metrics = {
        "datasets.generate_s": _metric(statistics.median(generate), "s"),
        "topology.spectral_radius_s": _metric(total("topology.spectral_radius") / guesses, "s/guess"),
        "topology.spectral_radius_calls": _metric(calls("topology.spectral_radius") / guesses, "calls/guess"),
        "topology.operator_norm_s": _metric(total("topology.operator_norm") / guesses, "s/guess"),
        "topology.operator_norm_calls": _metric(calls("topology.operator_norm") / guesses, "calls/guess"),
        "topology.draws_per_sparse_matrix": _metric(
            calls("topology.spectral_radius") / sparse_builds if sparse_builds else 0.0, "draws"
        ),
        "reservoir.build_s": _metric(total("reservoir.build") / guesses, "s/guess"),
        "reservoir.run_s": _metric(total("reservoir.run") / guesses, "s/guess"),
        "reservoir.run_us_per_layer_step": _metric(1e6 * total("reservoir.run") / layer_steps, "us"),
        "readout.fit_s": _metric(total("readout.fit") / guesses, "s/guess"),
        "readout.fit_calls": _metric(calls("readout.fit") / guesses, "calls/guess"),
        "readout.mse_s": _metric(total("readout.mse") / guesses, "s/guess"),
        "experiment.self_s": _metric(tracing.self_seconds(spans, "experiment.trial") / guesses, "s/guess"),
        "trace_overhead_frac": _metric(overhead, "frac"),
    }
    if writes:  # only the search workload writes a report and runs the pool
        metrics["experiment.write_s"] = _metric(statistics.median(writes), "s")
        metrics["experiment.worker_busy_frac"] = _metric(busy / (workers * wall), "frac")
        metrics["experiment.cpu_per_busy_s"] = _metric(cpu_s / busy, "s/s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="drives the data seed and sampled configs")
    parser.add_argument("--seconds", type=float, default=45.0, help="wall time to fill with units of work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every workload; for the benchmark's self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    try:
        program = Program()
    except ImportError as exc:
        print(f"error: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    sizes = SIZES["tiny" if args.tiny else "full"]
    if args.setup_probe:  # one sample of setup_s: print the seconds since this interpreter began importing
        WORKLOADS[args.workload](program, sizes, args.seed).setup()
        print(time.perf_counter() - _START)
        return 0

    run_dir = WORK_DIR / str(os.getpid())
    (run_dir / "spool").mkdir(parents=True, exist_ok=True)
    setup_probe = None if args.trace else SetupProbe(args)
    try:
        return _measure(program, args, sizes, run_dir, setup_probe)
    finally:
        if setup_probe is not None:
            setup_probe.close()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:  # another run still uses it
            pass


def _measure(program, args, sizes, run_dir, setup_probe) -> int:
    workload = WORKLOADS[args.workload](program, sizes, args.seed)
    recorder = tracing.Recorder(run_dir / "spool")
    uninstall = tracing.install(recorder) if args.trace else None
    for _ in range(GENERATE_REPEATS if args.trace else 1):
        workload.setup()
    if uninstall:
        uninstall()
    setup_spans = recorder.take()

    plain, traced = run_passes(
        workload, program, args.seconds, run_dir, recorder if args.trace else None, setup_probe
    )
    units = plain.units
    if traced:
        metrics = layer_metrics(
            recorder.take(), setup_spans, traced.guesses, sum(traced.walls), workload.workers, traced.cpu_s,
            traced.writes, sum(traced.walls) / sum(plain.walls) - 1.0,
        )
    else:
        metrics = {
            "setup_s": _metric(setup_probe.median(), "s"),
            "guesses_per_s": _metric(plain.guesses / sum(plain.walls), "1/s"),
            "cpu_s_per_guess": _metric(plain.cpu_s / plain.guesses, "s"),
            "peak_rss_mb": _metric(_peak_rss_mb(), "MB"),
        }

    problems = gate(program, workload, units) + log_round_trip(program, units, run_dir)
    attempted = sum(len(u.trials) for u in units)
    failed = len({id(trial) for trial, _ in problems})
    if not args.trace:
        metrics["ok_frac"] = _metric(1.0 - failed / attempted, "frac")
    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "units": len(units),
        "guesses": plain.guesses,
        "mse_sha256": mse_digest(units),
        "gate": {
            "checked_guesses": workload.gate_guesses,
            "tolerance": f"max({reference.TOLERANCE_FLOOR:g}, {reference.TOLERANCE_FACTOR:g} x the median relative "
                         f"MSE change over {reference.ROUNDING_DRAWS} one-rounding nudges of the reference states), "
                         f"around the reference MSE or a nudged one (up to {reference.SEARCH_DRAWS} more nudges)",
        },
        "environment": environment(workload.workers),
    }
    for trial, problem in problems:
        print(f"correctness: {trial.topology}/L={trial.num_layers}/config={trial.config_index}: {problem}",
              file=sys.stderr)
    print("facts: " + json.dumps(facts, sort_keys=True))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
