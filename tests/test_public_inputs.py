"""Every public function fails loudly.

Each public function of ``collisim.__all__``, ``linalg``, ``qstate``,
``nonmarkov``, ``thermo`` and ``scenarios`` has a row: a valid call.  Each
argument of the call that is data (a number, a matrix, a series, a list of
factors, a name, a scenario's overrides, seed or log base) is replaced in
turn by each of ``TestMalformedFields``' values and, if it is an array, by
a copy full of NaN, by itself with a trailing axis (the wrong rank) and by
itself one longer on every axis (mismatched lengths).  Each case returns a
value or raises ``ConfigError``.  An argument wrapped in ``Fixed`` is passed
as it is: a configuration or trajectory (whose fields are
``TestMalformedFields``' table), a scenario's merged parameters (which
``run_scenario`` builds and checks), a summary or a file path.

The named rows after the table are inputs that each must be a ``ConfigError``.
"""

import inspect
import math
from contextlib import suppress
from dataclasses import replace

import numpy as np
import pytest

import collisim
from collisim import engine, linalg, nonmarkov, qstate, scenarios, thermo
from collisim.engine import AncillaStream, partial_swap_interaction, run, run_paired
from collisim.errors import ConfigError
from test_engine import EXCITED, GROUND, MALFORMED_VALUES, qubit_config, with_field
from test_scenarios_cli import SMALL


class Fixed:
    """An argument passed as it is, never replaced by a malformed value."""

    def __init__(self, value):
        self.value = value


CFG = qubit_config(n_steps=3)
TRAJ = run(CFG)
CONVERGED = run(qubit_config(theta=math.pi / 2, n_steps=3))  # a full swap thermalizes at once
PAIR = run_paired(replace(CFG, backend="full"), EXCITED, GROUND)
H = linalg.SIGMA_Z / 2
JOINT = linalg.kron(EXCITED, GROUND)
SERIES = [0.0, 0.5, 0.2, 0.4]

ROWS = {
    "engine.collision_hamiltonian": (engine.collision_hamiltonian, (Fixed(CFG), 0)),
    "engine.collision_unitary": (engine.collision_unitary, (Fixed(CFG), 0)),
    "engine.erase_correlations": (engine.erase_correlations, (JOINT, [2, 2], 0.5)),
    "engine.partial_swap_interaction": (engine.partial_swap_interaction, (2,)),
    "engine.partial_swap_unitary": (engine.partial_swap_unitary, (2, 0.3)),
    "engine.run": (engine.run, (Fixed(CFG),)),
    "engine.run_paired": (engine.run_paired, (Fixed(CFG), EXCITED, GROUND)),
    "engine.run_stack": (engine.run_stack, (Fixed(CFG), [EXCITED, GROUND])),
    "engine.swap_unitary": (engine.swap_unitary, (2,)),
    "engine.system_channel": (engine.system_channel, (Fixed(CFG), 0)),
    "engine.system_channel(cfg)": (lambda rho: engine.system_channel(CFG)(rho), (EXCITED,)),
    "linalg.as_square": (linalg.as_square, (JOINT, "joint")),
    "linalg.commutator": (linalg.commutator, (H, EXCITED)),
    "linalg.commutator_norm": (linalg.commutator_norm, (H, EXCITED)),
    "linalg.conjugate": (linalg.conjugate, (engine.swap_unitary(2), JOINT, [2, 2], [0, 1])),
    "linalg.dagger": (linalg.dagger, (JOINT,)),
    "linalg.herm_eig": (linalg.herm_eig, (JOINT,)),
    "linalg.hermitize": (linalg.hermitize, (JOINT,)),
    "linalg.is_hermitian": (linalg.is_hermitian, (JOINT,)),
    "linalg.kron": (linalg.kron, (EXCITED, GROUND)),
    "linalg.partial_trace": (linalg.partial_trace, (JOINT, [2, 2], [0])),
    "linalg.sector_eigvalsh": (linalg.sector_eigvalsh, (JOINT,)),
    "linalg.sectors": (linalg.sectors, (JOINT != 0,)),
    "linalg.unitary_from_hamiltonian": (linalg.unitary_from_hamiltonian, (H, 0.5)),
    "qstate.bloch_state": (qstate.bloch_state, (0.3, 0.2)),
    "qstate.check_base": (qstate.check_base, (2.0, "base")),
    "qstate.js_distance": (qstate.js_distance, (EXCITED, GROUND, 2.0)),
    "qstate.maximally_mixed": (qstate.maximally_mixed, (2,)),
    "qstate.pure_state": (qstate.pure_state, ([1.0, 0.0],)),
    "qstate.relative_entropy": (qstate.relative_entropy, (EXCITED, GROUND, 2.0)),
    "qstate.state_distance": (qstate.state_distance, (EXCITED, GROUND, "jensen-shannon", 2.0)),
    "qstate.thermal_state": (qstate.thermal_state, (H, 1.0)),
    "qstate.trace_distance": (qstate.trace_distance, (EXCITED, GROUND)),
    "qstate.validate_density_matrix": (qstate.validate_density_matrix, (EXCITED,)),
    "qstate.von_neumann_entropy": (qstate.von_neumann_entropy, (EXCITED, 2.0)),
    "nonmarkov.antipodal_pair": (nonmarkov.antipodal_pair, (0.3, 0.2)),
    "nonmarkov.blp_measure": (nonmarkov.blp_measure, (SERIES,)),
    "nonmarkov.blp_optimize_pairs": (nonmarkov.blp_optimize_pairs, (Fixed(CFG), "trace", 2)),
    "nonmarkov.bound_findings": (nonmarkov.bound_findings, (SERIES, np.zeros((4, 3)))),
    "nonmarkov.bound_terms": (nonmarkov.bound_terms, tuple(map(Fixed, PAIR))),
    "nonmarkov.distinguishability_series": (nonmarkov.distinguishability_series,
                                            tuple(map(Fixed, PAIR))),
    "nonmarkov.first_revival_step": (nonmarkov.first_revival_step, (SERIES,)),
    "thermo.build_ledger": (thermo.build_ledger, (Fixed(TRAJ),)),
    "thermo.detailed_balance_report": (thermo.detailed_balance_report,
                                       (H, H, partial_swap_interaction(2))),
    "thermo.landauer_report": (thermo.landauer_report, (Fixed(CONVERGED), 1)),
    "thermo.steady_state_drift": (thermo.steady_state_drift, (Fixed(TRAJ), 1)),
    "thermo.steady_state_fluxes": (thermo.steady_state_fluxes, (Fixed(TRAJ), 1)),
    "scenarios.battery_interaction": (scenarios.battery_interaction, ("exchange",)),
    "scenarios.run_scenario": (scenarios.run_scenario,
                               ("thermalization", {"n_steps": 3}, 0, 2.0)),
    "scenarios.write_trajectory_csv": (scenarios.write_trajectory_csv,
                                       (Fixed(TRAJ), Fixed("trajectory.csv"))),
    "scenarios.write_trajectory_json": (scenarios.write_trajectory_json,
                                        (Fixed(TRAJ), Fixed({}), Fixed("trajectory.json"))),
    **{f"scenarios.{function.__name__}": (function, (
        Fixed(scenarios._merge(scenarios.DEFAULTS[name], SMALL[name], name)), 0, 2.0))
       for name, function in scenarios.SCENARIOS.items()},
}


def public_functions() -> set[str]:
    """``module.name`` of each function in ``collisim.__all__`` and of each
    public function defined in the five modules."""
    functions = [getattr(collisim, name) for name in collisim.__all__]
    for module in (linalg, qstate, nonmarkov, thermo, scenarios):
        functions += [f for name, f in vars(module).items()
                      if not name.startswith("_") and getattr(f, "__module__", None)
                      == module.__name__]
    return {f"{f.__module__.removeprefix('collisim.')}.{f.__name__}"
            for f in functions if inspect.isfunction(f)}


def malformed(arg) -> list:
    """(label, value) of each malformed value that replaces ``arg``."""
    cases = [(repr(value), value) for value in MALFORMED_VALUES]
    arr = np.asarray(arg)
    if arr.ndim and arr.dtype != object:
        cases += [("nan entries", np.full(arr.shape, math.nan)),
                  ("wrong rank", arr[..., None]),
                  ("mismatched length", np.pad(arr, [(0, 1)] * arr.ndim))]
    return cases


CASES = [pytest.param(name, i, value, id=f"{name}-arg{i}-{label}")
         for name, (_, args) in ROWS.items()
         for i, arg in enumerate(args) if not isinstance(arg, Fixed)
         for label, value in malformed(arg)]


def call(name: str, replaced: dict):
    function, args = ROWS[name]
    return function(*(replaced.get(i, arg.value if isinstance(arg, Fixed) else arg)
                      for i, arg in enumerate(args)))


def test_every_public_function_has_a_row():
    assert public_functions() <= set(ROWS)


@pytest.mark.parametrize("name", sorted(ROWS))
def test_row_is_a_valid_call(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # where the writers put their files
    call(name, {})


@pytest.mark.parametrize("name,position,value", CASES)
def test_malformed_argument_returns_or_is_a_config_error(name, position, value):
    with suppress(ConfigError):
        call(name, {position: value})


NAMED = {
    # a string or object array was checked as an array, not for its dtype
    "str system_init": (lambda: run(with_field(
        qubit_config(), "system_init", np.array([["1", "0"], ["0", "0"]]))),
        "system_init must be a numpy array, got "),
    "object system_init": (lambda: run(with_field(
        qubit_config(), "system_init", np.array([[None, 0], [0, 1]]))),
        "system_init must be a numpy array, got "),
    # a bool array converted to the state |0><0|
    "bool-array system_init": (lambda: run(with_field(
        qubit_config(), "system_init", np.array([[True, False], [False, False]]))),
        "system_init must be a numpy array, got "),
    "NaN series": (lambda: nonmarkov.blp_measure([0, math.nan, 1]),
                   "series must be a non-empty array of finite real numbers"),
    "2-D series of first_revival_step": (
        lambda: nonmarkov.first_revival_step(np.array([[0.0, 1.0], [0.5, 0.2]])),
        "of rank 1, got "),
    "string series": (lambda: nonmarkov.blp_measure("ab"), "series must be a numpy array"),
    "bound terms shorter than the series": (
        lambda: nonmarkov.bound_findings([0, 1, 0, 1], np.zeros((2, 3))),
        "terms must have shape (4, 3) for a series of 4 points, got (2, 3)"),
    "nested lists to trace_distance": (
        lambda: qstate.trace_distance([[1, 0], [0, 0]], [[0, 0], [0, 1]]),
        "rho must be a numpy array, got [[1, 0], [0, 0]]"),
    "string inverse temperature": (lambda: qstate.thermal_state(H, "1"),
                                   "beta must be a real number, got '1'"),
    "string stack to run_stack": (lambda: engine.run_stack(qubit_config(), "abc"),
                                  "initial states must be a numpy array"),
    "string keep set": (lambda: linalg.partial_trace(JOINT, [2, 2], keep="0"),
                        "keep entry must be an integer >= 0, got '0'"),
    "unknown scenario": (lambda: scenarios.run_scenario("nope"),
                         "unknown scenario 'nope'; available: battery, continuous_limit"),
}


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_input_is_a_config_error(name):
    reject, fragment = NAMED[name]
    with pytest.raises(ConfigError) as info:
        reject()
    assert fragment in str(info.value)


@pytest.mark.parametrize("field,value,fragment", [
    ("hamiltonian", [[1.0, 0.0], [0.0, 0.0]], "streams[0].hamiltonian must be a numpy array"),
    ("dim", 2.0, "streams[0].dim must be an integer, got 2.0"),
    ("beta", "1", "streams[0].beta must be a real number, got '1'"),
    ("role", "sink", "unknown stream role 'sink'")])
def test_a_stream_is_checked_by_its_configuration_alone(field, value, fragment):
    # the stream had a check of its own that, called alone, read the shape of
    # a list and let a float dim and a string beta through
    assert not hasattr(AncillaStream, "validate")
    with pytest.raises(ConfigError) as info:
        stream = replace(qubit_config().streams[0], **{field: value})
        replace(qubit_config(), streams=[stream]).validate()
    assert fragment in str(info.value)
