"""Command-line scenario runner.

Usage::

    collisim <scenario> [--config path.json] [--out dir] [--seed N]
             [--emit csv|json|both] [--log-base 2|e]

Writes ``<out>/<scenario>_<seed>.csv`` and/or ``.json`` and prints a
one-line JSON summary to stdout.  Exit codes: 0 success, 2 unknown
scenario or malformed command line (``--seed abc``, ``--emit xml``: argparse
exits with its usage message), 3 config error, 4 numerical-integrity abort,
5 non-convergence; ``EXITS`` maps each error type to its code and the label
of its message.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .errors import ConfigError, IntegrityError, NotConvergedError
from .scenarios import SCENARIOS, run_scenario, write_trajectory_csv, write_trajectory_json

EXIT_OK = 0
EXIT_UNKNOWN_SCENARIO = 2
EXIT_CONFIG = 3
EXIT_INTEGRITY = 4
EXIT_NOT_CONVERGED = 5
# the exit code of each error a call can end with, and the label of its message
EXITS = {ConfigError: (EXIT_CONFIG, "config error"),
         IntegrityError: (EXIT_INTEGRITY, "numerical integrity error"),
         NotConvergedError: (EXIT_NOT_CONVERGED, "not converged")}


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # JSON, UTF-8 or int digit-limit errors
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    allowed = {"overrides", "emit", "seed", "log_base"}
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}; allowed {sorted(allowed)}")
    if "overrides" in doc and not isinstance(doc["overrides"], dict):
        raise ConfigError("config 'overrides' must be a JSON object")
    return doc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="collisim",
                                     description="collision-model scenario runner")
    parser.add_argument("scenario", help="scenario name")
    parser.add_argument("--config", help="JSON config with scenario overrides")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--emit", choices=["csv", "json", "both"], default=None)
    parser.add_argument("--log-base", choices=["2", "e"], default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.scenario not in SCENARIOS:
        print(f"unknown scenario {args.scenario!r}; available: "
              f"{', '.join(sorted(SCENARIOS))}", file=sys.stderr)
        return EXIT_UNKNOWN_SCENARIO
    try:
        doc = _load_config(args.config) if args.config else {}
        seed = args.seed if args.seed is not None else doc.get("seed", 0)
        emit = args.emit or doc.get("emit", "csv")
        if emit not in ("csv", "json", "both"):
            raise ConfigError(f"unknown emit mode {emit!r}")
        base_flag = args.log_base or doc.get("log_base", "2")
        if base_flag not in ("2", 2, "e"):
            raise ConfigError(f"config 'log_base' must be '2', 2 or 'e', got {base_flag!r}")
        log_base = math.e if base_flag == "e" else 2.0
        out_dir = Path(args.out)
        try:  # before the run, so an unusable directory costs no run
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create --out {args.out!r}: {exc.strerror}") from None
        result = run_scenario(args.scenario, doc.get("overrides", {}), seed, log_base)
        stem = out_dir / f"{args.scenario}_{seed}"
        written = []
        try:
            if emit in ("csv", "both"):
                written.append(str(stem.with_suffix(".csv")))
                write_trajectory_csv(result.trajectory, written[-1])
            if emit in ("json", "both"):
                written.append(str(stem.with_suffix(".json")))
                write_trajectory_json(result.trajectory, result.summary, written[-1])
        except OSError as exc:
            raise ConfigError(f"cannot write {written[-1]}: {exc.strerror}") from None
        print(json.dumps({"scenario": args.scenario, "seed": seed,
                          "outputs": written, "summary": result.summary}))
        return EXIT_OK
    except tuple(EXITS) as exc:
        code, label = EXITS[type(exc)]
        print(f"{label}: {exc}", file=sys.stderr)
        return code


def entry():  # console_scripts hook
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
