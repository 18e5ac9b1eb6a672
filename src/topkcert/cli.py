"""Command-line interface: run, sweep, gen, verify.

Configuration keys resolve in order: built-in defaults, then a flat key=value
config file (--config), then TOPKCERT_* environment variables, then explicit
command-line flags.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager

from .certify import ALGORITHMS
from .confidence import _METHOD_NAMES
from .core import true_top_k
from .harness import (
    BASE_DEFAULTS,
    CONFIG_KEYS,
    DEFAULT_ALGORITHMS,
    EXPERIMENTS,
    _SWEPT_KEYS,
    SweepSpec,
    gap_instance,
    run_replicate,
    run_row,
    run_sweep,
    rows_to_csv_text,
    verify_invariants,
    write_rows,
)
from .instances import PackingSpec, generate_packing_instance, load_instance, save_instance
from .oracles import _NOISE_MODELS

ENV_PREFIX = "TOPKCERT_"
_CONFIG_INSTANCE = "the config does not describe a valid instance"

_CHOICES = {"oracle.noise": _NOISE_MODELS, "ci.method": tuple(_METHOD_NAMES)}
_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _dest(key: str) -> str:
    """A key's argparse dest: no ``oracle.`` prefix, ``.`` as ``_``; its flag spells ``_`` as ``-``."""
    return key.removeprefix("oracle.").replace(".", "_")


def _coerce(key: str, raw):
    """`raw` as `key`'s type; ``""`` and ``none`` mean None, if `key` defaults to None."""
    if raw is None or isinstance(raw, (int, float, bool)):
        return raw
    text = str(raw).strip()
    kind, default = CONFIG_KEYS[key]
    value = None
    if text == "" or text.lower() == "none":
        if default is None:
            return None
    elif kind is bool:
        value = _BOOLEANS.get(text.lower())
    else:
        try:
            value = kind(text)
        except ValueError:
            pass
    if value is None:
        takes = "/".join(_BOOLEANS) if kind is bool else kind.__name__
        raise SystemExit(f"config key {key!r} takes {takes}, not {text!r}")
    return value


def _read_config_file(path: str) -> dict:
    cfg = {}
    with open(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise SystemExit(f"{path}:{line_no}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            cfg[key.strip()] = value.strip()
    return cfg


def resolve_config(args: argparse.Namespace) -> dict:
    cfg = dict(BASE_DEFAULTS)
    if getattr(args, "config", None):
        for key, value in _read_config_file(args.config).items():
            if key not in cfg:
                raise SystemExit(f"unknown config key {key!r}")
            cfg[key] = _coerce(key, value)
    for key in cfg:
        env_value = os.environ.get(ENV_PREFIX + key.upper().replace(".", "_"))
        for raw in (env_value, getattr(args, _dest(key), None)):
            if raw is not None:
                cfg[key] = _coerce(key, raw)
    return cfg


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key=value config file")
    for key, (kind, _) in CONFIG_KEYS.items():
        dest = _dest(key)
        flag = "--" + dest.replace("_", "-")
        if kind is bool:
            parser.add_argument(flag, dest=dest, action="store_const", const=True)
        else:
            parser.add_argument(flag, dest=dest, type=kind, choices=_CHOICES.get(key))


def _parse_seed_range(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, _, hi = text.partition("..")
            seeds = list(range(int(lo), int(hi)))
        else:
            seeds = [int(part) for part in text.split(",") if part]
    except ValueError:
        seeds = []
    if not seeds:
        raise SystemExit(f"--seeds takes a non-empty range like 0..100 or comma list, not {text!r}")
    return seeds


def _parse_grid(experiment: str, text: str) -> list:
    """The --grid points as the swept key's type; ``1e3`` is an int point."""
    key, kind = _SWEPT_KEYS[experiment]
    grid = []
    for part in filter(None, text.split(",")):
        try:
            point = float(part)
        except ValueError:
            raise SystemExit(f"--grid takes numbers, not {part!r}") from None
        if kind is int and not point.is_integer():
            raise SystemExit(f"--grid sweeps the integer {key!r}, not {part!r}")
        grid.append(kind(point))
    if not grid:
        raise SystemExit("--grid must name at least one point")
    return grid


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topkcert",
        description="PAC certification of the exact top-k set with weak and strong oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one algorithm on one instance")
    _add_common(p_run)
    p_run.add_argument("--algo", required=True, choices=tuple(ALGORITHMS))
    p_run.add_argument("--instance", help="instance CSV; generated when omitted")
    p_run.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p_run.add_argument("--timing", action="store_true")

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep and write rows")
    _add_common(p_sweep)
    p_sweep.add_argument("--experiment", required=True, choices=EXPERIMENTS)
    p_sweep.add_argument("--grid", required=True, help="comma-separated swept values")
    p_sweep.add_argument("--replicates", type=int, default=10)
    p_sweep.add_argument("--algorithms", default=",".join(DEFAULT_ALGORITHMS))
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p_sweep.add_argument("--timing", action="store_true")

    p_gen = sub.add_parser("gen", help="emit an instance CSV")
    _add_common(p_gen)
    p_gen.add_argument("--kind", choices=("gap", "packing"), default="gap")
    p_gen.add_argument("--m", type=int, help="packed-set size (packing instances)")
    p_gen.add_argument("--out", required=True)

    p_verify = sub.add_parser("verify", help="run the invariant suite over a seed range")
    _add_common(p_verify)
    p_verify.add_argument("--seeds", default="0..20", help="half-open range a..b, or a comma list")
    return parser


@contextmanager
def _instance_errors(source: str):
    """Turn an instance that cannot be built or read into one line naming `source`.

    Only instance construction goes inside: an error from a certifier must
    surface as it is.
    """
    try:
        yield
    except (ValueError, OSError) as error:
        raise SystemExit(f"{source}: {error}") from None


def _check_out(path: str) -> None:
    """Exit naming --out before any work when it names a directory, or when
    the directory it writes into is missing."""
    if os.path.isdir(path):
        raise SystemExit(f"--out {path}: is a directory, not a file")
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise SystemExit(f"--out {path}: directory {directory!r} does not exist")


def _cmd_run(args) -> int:
    cfg = resolve_config(args)
    seed = cfg["oracle.seed"]
    if args.instance:
        with _instance_errors(f"--instance {args.instance}"):
            instance = load_instance(args.instance, k=cfg["k"])
        # the row reports the loaded instance, not the config's generator gap
        cfg["gap"] = instance.gap
    else:
        with _instance_errors(_CONFIG_INSTANCE):
            instance = gap_instance(cfg, seed)
    result = run_replicate(instance, seed, [args.algo], cfg, timing=args.timing)[0]
    row = run_row("run", cfg, seed, result, instance, true_top_k(instance))
    if args.format == "jsonl":
        sys.stdout.write(json.dumps(row.as_dict()) + "\n")
    else:
        sys.stdout.write(rows_to_csv_text([row]))
    # reveals outside their weak interval: some interval missed its value
    if result.error is None and result.report.interval_conflicts:
        print(f"interval conflicts: {result.report.interval_conflicts}", file=sys.stderr)
    return 0 if result.error is None else 1


def _cmd_sweep(args) -> int:
    _check_out(args.out)
    cfg = resolve_config(args)
    algorithms = tuple(filter(None, args.algorithms.split(",")))
    for name in algorithms:
        if name not in ALGORITHMS:
            raise SystemExit(f"--algorithms takes {','.join(ALGORITHMS)}, not {name!r}")
    if args.replicates < 1:
        raise SystemExit(f"--replicates must be at least 1, not {args.replicates}")
    spec = SweepSpec(
        experiment=args.experiment,
        grid=_parse_grid(args.experiment, args.grid),
        replicates=args.replicates,
        base=cfg,
        algorithms=algorithms,
        base_seed=cfg["oracle.seed"],
        timing=args.timing,
    )
    rows = run_sweep(spec)
    write_rows(rows, args.out, fmt=args.format)
    errors = sum(1 for row in rows if row.status == "error")
    print(f"wrote {len(rows)} rows to {args.out}" + (f" ({errors} errors)" if errors else ""))
    # a grid with some infeasible points still succeeds; one where nothing ran does not
    return 0 if any(row.kind == "run" and row.status == "ok" for row in rows) else 1


def _cmd_gen(args) -> int:
    _check_out(args.out)
    cfg = resolve_config(args)
    if args.kind == "packing" and args.m is None:
        raise SystemExit("--m is required for packing instances")
    with _instance_errors(_CONFIG_INSTANCE):
        if args.kind == "packing":
            instance, _ = generate_packing_instance(
                PackingSpec(n=cfg["n"], k=cfg["k"], m=args.m), seed=cfg["oracle.seed"]
            )
        else:
            instance = gap_instance(cfg, cfg["oracle.seed"])
    save_instance(instance, args.out)
    print(f"wrote {instance.n} items to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    cfg = resolve_config(args)
    seeds = _parse_seed_range(args.seeds)
    # whether the config describes an instance does not depend on the seed
    with _instance_errors(_CONFIG_INSTANCE):
        gap_instance(cfg, seeds[0])
    problems = verify_invariants(seeds, cfg)
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"verified {len(seeds)} seeds: {'OK' if not problems else f'{len(problems)} problems'}")
    return 0 if not problems else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "sweep": _cmd_sweep, "gen": _cmd_gen, "verify": _cmd_verify}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
