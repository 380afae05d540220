"""Spans recorded by wrappers around collisim's public functions.

The benchmark times each layer from outside: it replaces a public
function with a wrapper that records a span (name, start, end, parent
span, run id) and calls the original.  ``from module import name`` copies
the binding, so the wrapper is installed at every module attribute and
registry entry that holds the original, and every original is put back
afterwards.  Spans stay in memory until the benchmark writes them out.

A span's self time is its duration minus the durations of its direct
child spans.  Calls are synchronous and single-threaded, so children
never overlap.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import importlib
import sys
import types
from collections import defaultdict
from time import perf_counter_ns

LARGE_DIM = 64  # eigensolves and trace distances at this dimension or above are "large"


def _dim(arg) -> int:
    return arg.shape[-1]


def _sized(prefix: str):
    return lambda args: f"{prefix}.large" if _dim(args[0]) >= LARGE_DIM else f"{prefix}.small"


# (module, attribute, span name or function of the call's args, span
# attribute as a function of the call's args or None)
TARGETS = [
    ("collisim.linalg", "kron", "linalg.kron", None),
    ("collisim.linalg", "partial_trace", "linalg.partial_trace", lambda a: _dim(a[0])),
    ("collisim.linalg", "embed_operator", "linalg.embed_operator", None),
    ("collisim.linalg", "conjugate", "linalg.conjugate", lambda a: _dim(a[1])),
    ("collisim.qstate", "von_neumann_entropy", "qstate.von_neumann_entropy", None),
    ("collisim.qstate", "relative_entropy", "qstate.relative_entropy", None),
    ("collisim.qstate", "mutual_information", "qstate.mutual_information", None),
    ("collisim.qstate", "trace_distance", _sized("qstate.trace_distance"), None),
    ("collisim.engine", "CollisionConfig.validate", "engine.setup", None),
    ("collisim.engine", "collision_unitary", "engine.setup", None),
    ("collisim.engine", "run", "engine.run", lambda a: (a[0].backend, a[0].n_steps)),
    ("collisim.engine", "run_paired", "engine.run_paired", None),
    ("collisim.thermo", "build_ledger", "thermo.build_ledger", None),
    ("collisim.thermo", "steady_state_fluxes", "thermo.steady_state_fluxes", None),
    ("collisim.thermo", "landauer_report", "thermo.landauer_report", None),
    ("collisim.nonmarkov", "blp_optimize_pairs", "nonmarkov.blp_optimize_pairs", None),
    ("collisim.nonmarkov", "distinguishability_series",
     "nonmarkov.distinguishability_series", None),
    ("collisim.nonmarkov", "all_pair_bound_reports", "nonmarkov.all_pair_bound_reports",
     None),
    ("collisim.scenarios", "run_scenario", "scenarios.run_scenario", None),
    ("collisim.scenarios", "write_trajectory_csv", "scenarios.write_trajectory_csv", None),
    ("collisim.scenarios", "write_trajectory_json", "scenarios.write_trajectory_json",
     None),
    ("collisim.cli", "main", "cli.main", None),
    ("numpy.linalg", "eigvalsh", _sized("numpy.eig"), None),
    ("numpy.linalg", "eigh", _sized("numpy.eig"), None),
]


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, last = attr.split(".")
    for name in path:
        owner = getattr(owner, name)
    return owner, last


def _set(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


def binding_sites(original):
    """Every (namespace, key) in the loaded collisim modules, including
    module-level registries such as ``scenarios.SCENARIOS``, that holds
    ``original``."""
    for name, mod in list(sys.modules.items()):
        if name != "collisim" and not name.startswith("collisim."):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                yield vars(mod), key
            elif isinstance(value, dict):
                yield from ((value, k) for k, v in value.items() if v is original)


class Tracer:
    """Installs span-recording wrappers and holds the spans they record.

    Each span is ``(parent index or -1, name, start_ns, end_ns, run_id,
    attribute)``; a span's index is its position in ``spans``.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.run_id = 0
        self._stack = [-1]
        self._patches: list[tuple] = []

    def _wrap(self, fn, name, attr):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (parent, name(args) if callable(name) else name,
                                start, end, self.run_id, attr(args) if attr else None)
        return wrapper

    def _install(self, owner, key, name, attr):
        if isinstance(owner, types.ModuleType):
            owner = vars(owner)
        original = owner.get(key) if isinstance(owner, dict) else getattr(owner, key, None)
        if original is None:  # the function is gone from this version of the package
            return
        wrapper = self._wrap(original, name, attr)
        sites = {(id(owner), key): (owner, key)}
        sites.update(((id(ns), k), (ns, k)) for ns, k in binding_sites(original))
        for site, site_key in sites.values():
            self._patches.append((site, site_key, original))
            _set(site, site_key, wrapper)

    def install(self):
        for module, attr, name, span_attr in TARGETS:
            owner, key = _resolve(module, attr)
            self._install(owner, key, name, span_attr)
        registry = importlib.import_module("collisim.scenarios").SCENARIOS
        for scenario in list(registry):
            self._install(registry, scenario, f"scenarios.{scenario}", None)

    def uninstall(self):
        while self._patches:
            site, key, original = self._patches.pop()
            _set(site, key, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write(self, path):
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "parent", "name", "start_ns", "end_ns", "run_id"])
            for index, (parent, name, start, end, run_id, _) in enumerate(self.spans):
                out.writerow([index, parent, name, start, end, run_id])


def layer_metrics(spans: list[tuple]) -> dict[str, float]:
    """Per-layer metrics named ``<span>.calls``, ``<span>.self_s`` and
    ``<span>.wall_s`` (inclusive), plus the derived engine and kernel ones."""
    children = [0] * len(spans)
    setup_children = [0] * len(spans)
    for parent, name, start, end, _, _ in spans:
        if parent >= 0:
            children[parent] += end - start
            if name == "engine.setup":
                setup_children[parent] += end - start
    calls, self_ns, wall_ns = defaultdict(int), defaultdict(int), defaultdict(int)
    run_ns, run_collisions = defaultdict(int), defaultdict(int)
    flop = nbytes = max_dim = 0
    for index, (parent, name, start, end, _, attr) in enumerate(spans):
        calls[name] += 1
        wall_ns[name] += end - start
        self_ns[name] += end - start - children[index]
        if name == "linalg.conjugate":
            # u @ rho @ u^dagger: two complex d x d matmuls (8 real flops per
            # complex multiply-add); reads u and rho, writes two d x d results
            flop += 16 * attr ** 3
            nbytes += 4 * 16 * attr ** 2
        elif name == "engine.run":
            backend, n_steps = attr
            run_ns[backend] += end - start - setup_children[index]
            run_collisions[backend] += n_steps
        elif name == "linalg.partial_trace" and parent >= 0 \
                and spans[parent][1] == "engine.run":
            max_dim = max(max_dim, attr)
    out = {}
    for name in calls:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_ns[name] / 1e9
        out[f"{name}.wall_s"] = wall_ns[name] / 1e9
    for backend, n in run_collisions.items():
        out[f"engine.{backend}.s_per_collision"] = run_ns[backend] / 1e9 / n
    out["linalg.conjugate.gflop"] = flop / 1e9
    out["linalg.conjugate.gbyte"] = nbytes / 1e9
    out["engine.max_joint_dim"] = max_dim
    out["trace.spans"] = len(spans)
    return out
