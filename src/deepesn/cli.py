"""Command-line front-end: dataset generation, single-model evaluation, benchmark runs.

Exit codes: 0 on success, 1 on runtime failure or partial completion,
2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

from . import __version__
from .datasets import (
    Dataset,
    DivergenceError,
    MGParams,
    check_split,
    generate_mackey_glass,
    generate_narma10,
    load_laser,
    save_series,
)
from .experiment import (
    FULL_BUDGET,
    REDUCED_BUDGET,
    evaluate_trial,
    format_report,
    run_benchmark_suite,
    trial_log_table,
)
from .reservoir import check_layout
from .topology import ScalingSpec, parse_topology

LASER_PATH_ENV = "DEEPESN_LASER_PATH"
GENERATED_TASKS = ("narma10", "mg17", "mg30")
ALL_TASKS = GENERATED_TASKS + ("laser",)
ALL_TOPOLOGIES = ("sparse", "permutation", "ring", "chain")


class UsageError(Exception):
    """Invalid invocation detected after argument parsing."""


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _comma_list(convert=str, names=(), kind="item"):
    """argparse type: a comma list of distinct items, each converted and, given ``names``, one of them."""

    def comma_list(text: str) -> tuple:
        items = tuple(convert(item.strip()) for item in text.split(",") if item.strip())
        if not items:
            raise argparse.ArgumentTypeError("expected a comma-separated list")
        for item in items:
            if names and item not in names:
                raise argparse.ArgumentTypeError(f"unknown {kind} {item!r}; expected one of {', '.join(names)}")
        if len(set(items)) < len(items):
            raise argparse.ArgumentTypeError(f"repeated {kind} in {text!r}")
        return items

    return comma_list


def _split(args) -> dict:
    """The ``Dataset`` split keywords given on the command line."""
    return dict(train_len=args.train_len, washout=args.washout, validation_len=args.validation_len)


def _reject_unrunnable(args, task_names, topologies, layer_counts) -> None:
    """Raise UsageError, before any work, for argument combinations that no trial can run."""
    length = args.length if set(task_names) & set(GENERATED_TASKS) else None
    try:
        check_split(**_split(args), length=length)
        for topology in topologies:
            for num_layers in layer_counts:
                check_layout(args.units, num_layers, topology)
    except ValueError as exc:
        raise UsageError(f"no trial can run with these arguments: {exc}") from None


def _mg_params(task: str) -> MGParams:
    return MGParams(tau=17.0) if task == "mg17" else MGParams(tau=30.0)


def make_task(name: str, *, seed: int, length: int, laser_path: str | None = None, **split) -> tuple[Dataset, dict]:
    """Build one benchmark dataset, with ``split`` passed to :class:`Dataset`, plus its generator metadata.

    NARMA10 occasionally diverges for an unlucky seed; the next seed is
    tried (and recorded) until generation succeeds.  The laser file is
    ``laser_path``, else the one named by the environment.
    """
    if name == "narma10":
        attempt = seed
        while True:
            try:
                dataset = generate_narma10(length, attempt, **split)
                break
            except DivergenceError:
                print(f"warning: narma10 seed {attempt} diverged, retrying with {attempt + 1}",
                      file=sys.stderr)
                attempt += 1
        meta = {"dataset.narma10.seed": attempt, "dataset.narma10.length": length}
        return dataset, meta
    if name in ("mg17", "mg30"):
        params = _mg_params(name)
        dataset = generate_mackey_glass(params, length, name=name, **split)
        meta = {f"dataset.{name}.{key}": value for key, value in {**asdict(params), "length": length}.items()}
        return dataset, meta
    if name == "laser":
        laser_path = laser_path or os.environ.get(LASER_PATH_ENV)
        if not laser_path:
            raise UsageError(
                f"the laser task needs a data file: pass --laser-path or set {LASER_PATH_ENV}"
            )
        dataset = load_laser(laser_path, **split)
        return dataset, {"dataset.laser.path": str(laser_path), "dataset.laser.samples": len(dataset) + 1}
    raise UsageError(f"unknown task {name!r}; expected one of {', '.join(ALL_TASKS)}")


def cmd_generate(args) -> int:
    if args.task == "laser":
        raise UsageError(
            "the laser series is measured data and cannot be generated; "
            "point --laser-path (or the environment) at an existing file instead"
        )
    _reject_unrunnable(args, [args.task], [], [])
    dataset, meta = make_task(args.task, seed=args.seed, length=args.length, **_split(args))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    inputs_path = out / f"{args.task}_inputs.txt"
    targets_path = out / f"{args.task}_targets.txt"
    save_series(dataset.inputs, inputs_path)
    save_series(dataset.targets, targets_path)
    sidecar = {
        "task": args.task,
        "generator": {str(k): v for k, v in meta.items()},
        "splits": _split(args),
        "tool": f"deepesn {__version__}",
    }
    meta_path = out / f"{args.task}_meta.json"
    meta_path.write_text(json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="ascii")
    print(f"wrote {inputs_path}, {targets_path} and {meta_path} ({len(dataset)} steps)")
    return 0


def cmd_eval(args) -> int:
    low, high = FULL_BUDGET.rho_range
    if args.rho > high:
        print(
            f"warning: rho={args.rho} is above the usual search range ({low}, {high}]; "
            "dynamics may be unstable",
            file=sys.stderr,
        )
    topology = parse_topology(args.topology, fan_in=args.fan_in)
    _reject_unrunnable(args, [args.task], [topology], [args.layers])
    dataset, _ = make_task(
        args.task, seed=args.data_seed, length=args.length, laser_path=args.laser_path, **_split(args)
    )
    hyper = ScalingSpec(rho=args.rho, omega_in=args.omega_in, omega_il=args.omega_il)
    trial = evaluate_trial(
        dataset,
        topology,
        args.layers,
        hyper,
        args.guesses,
        args.seed,
        total_units=args.units,
    )
    lines = [
        f"task={trial.task} topology={trial.topology} layers={trial.num_layers} "
        f"rho={hyper.rho:g} omega_in={hyper.omega_in:g} omega_il={hyper.omega_il:g} "
        f"guesses={trial.guesses} seed={args.seed}",
        f"validation MSE: {trial.validation_mse_mean:.6e} (std {trial.validation_mse_std:.3e})",
        f"test MSE:       {trial.test_mse_mean:.6e} (std {trial.test_mse_std:.3e})",
    ]
    text = "\n".join(lines)
    print(text)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "eval_result.txt").write_text(text + "\n", encoding="ascii")
    return 1 if trial.failed else 0


def cmd_benchmark(args) -> int:
    space = FULL_BUDGET if args.budget == "full" else REDUCED_BUDGET
    overrides = {"configs_per_layer": args.configs, "guesses": args.guesses, "layer_counts": args.layers}
    space = replace(space, **{key: value for key, value in overrides.items() if value is not None})
    topologies = [parse_topology(name) for name in args.topologies]
    _reject_unrunnable(args, args.tasks, topologies, (1,) + space.layer_counts)  # 1: the shallow search

    tasks, metadata, partial = [], {}, False
    for name in args.tasks:
        try:
            dataset, meta = make_task(
                name, seed=args.data_seed, length=args.length, laser_path=args.laser_path, **_split(args)
            )
        except (UsageError, OSError, ValueError) as exc:
            print(f"warning: skipping task {name}: {exc}", file=sys.stderr)
            partial = True
            continue
        tasks.append(dataset)
        metadata.update(meta)
    if not tasks:
        print("error: no tasks left to run", file=sys.stderr)
        return 1

    report = run_benchmark_suite(
        tasks,
        topologies,
        space,
        args.seed,
        workers=args.workers,
        total_units=args.units,
        metadata=metadata,
        progress=not args.quiet,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report_text = format_report(report)
    (out / "report.txt").write_text(report_text, encoding="ascii")
    (out / "trials.tsv").write_text(trial_log_table(report), encoding="ascii")
    print(report_text)
    print(f"report written to {out / 'report.txt'}; trial log to {out / 'trials.tsv'}")
    if report.failures:
        partial = True
    return 1 if partial else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deepesn",
        description="Deep echo state networks with structured reservoir topologies.",
    )
    parser.add_argument("--version", action="version", version=f"deepesn {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    def add_split_flags(sub):
        sub.add_argument("--length", type=_positive_int, default=10000, help="series length in steps")
        sub.add_argument("--train-len", type=_positive_int, default=Dataset.train_len, help="training split length")
        sub.add_argument("--washout", type=_nonnegative_int, default=Dataset.washout,
                         help="initial steps excluded from fits")
        sub.add_argument("--validation-len", type=_positive_int, default=Dataset.validation_len,
                         help="validation tail of the training split")

    gen = commands.add_parser("generate", help="write a generated task to disk as text series")
    gen.add_argument("task", choices=ALL_TASKS)
    gen.add_argument("--seed", type=_nonnegative_int, default=0)
    gen.add_argument("--out", default=".", help="output directory")
    add_split_flags(gen)
    gen.set_defaults(func=cmd_generate)

    ev = commands.add_parser("eval", help="score one explicit configuration")
    ev.add_argument("--task", choices=ALL_TASKS, required=True)
    ev.add_argument("--topology", choices=ALL_TOPOLOGIES, required=True)
    ev.add_argument("--layers", type=_positive_int, required=True)
    ev.add_argument("--rho", type=_positive_float, required=True)
    ev.add_argument("--omega-in", type=_positive_float, required=True)
    ev.add_argument("--omega-il", type=_positive_float, required=True)
    ev.add_argument("--guesses", type=_positive_int, default=10)
    ev.add_argument("--seed", type=_nonnegative_int, default=0, help="master seed for the network guesses")
    ev.add_argument("--data-seed", type=_nonnegative_int, default=1, help="seed for dataset generation")
    ev.add_argument("--units", type=_positive_int, default=500, help="total reservoir units")
    ev.add_argument("--fan-in", type=_positive_int, default=5, help="in-degree of sparse layers")
    ev.add_argument("--laser-path", default=None)
    ev.add_argument("--out", default=None, help="also write the result into this directory")
    add_split_flags(ev)
    ev.set_defaults(func=cmd_eval)

    bench = commands.add_parser("benchmark", help="random-search benchmark over tasks and topologies")
    bench.add_argument("--tasks", type=_comma_list(names=ALL_TASKS, kind="task"), default=GENERATED_TASKS,
                       help=f"comma-separated tasks from: {', '.join(ALL_TASKS)}")
    bench.add_argument("--topologies", type=_comma_list(names=ALL_TOPOLOGIES, kind="topology"),
                       default=ALL_TOPOLOGIES, help=f"comma-separated topologies from: {', '.join(ALL_TOPOLOGIES)}")
    bench.add_argument("--budget", choices=("full", "reduced"), default="full",
                       help="full: 50 configs x 10 guesses; reduced: 10 x 3")
    bench.add_argument("--configs", type=_positive_int, default=None, help="override configs per layer count")
    bench.add_argument("--guesses", type=_positive_int, default=None, help="override guesses per config")
    bench.add_argument("--layers", type=_comma_list(_positive_int, kind="layer count"), default=None,
                       help="override deep layer counts, e.g. 2,3")
    bench.add_argument("--seed", type=_nonnegative_int, default=42, help="master seed")
    bench.add_argument("--data-seed", type=_nonnegative_int, default=1)
    bench.add_argument("--units", type=_positive_int, default=500)
    bench.add_argument("--workers", type=_positive_int, default=1)
    bench.add_argument("--laser-path", default=None)
    bench.add_argument("--out", default="results", help="output directory")
    bench.add_argument("--quiet", action="store_true", help="suppress progress lines on stderr")
    add_split_flags(bench)
    bench.set_defaults(func=cmd_benchmark)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
