import json
import math
from dataclasses import replace

import numpy as np
import pytest

from collisim import engine, linalg, nonmarkov, qstate, scenarios
from collisim.engine import (AncillaStream, CollisionConfig,
                             partial_swap_interaction, run_paired, run_stack)
from collisim.errors import ConfigError, IntegrityError
from test_engine import BROKEN, CLAMPED, plant

SZ = linalg.SIGMA_Z
EXCITED = qstate.pure_state([1, 0])
GROUND = qstate.pure_state([0, 1])


def qubit_config(theta=0.3 * math.pi, n_steps=8, aa_mode="off", aa_swap_prob=0.0,
                 **extra):
    h = SZ / 2
    stream = AncillaStream(2, h, GROUND)
    return CollisionConfig(
        system_dim=2, system_hamiltonian=h, system_init=EXCITED,
        streams=[stream], interactions=[partial_swap_interaction(2)],
        tau=1.0, coupling=theta, n_steps=n_steps, aa_mode=aa_mode,
        aa_swap_prob=aa_swap_prob, **extra)


class TestBlpMeasure:
    def test_hand_series(self):
        # increments +? only 0.3->0.4 counts: sum of positive jumps is 0.1
        assert nonmarkov.blp_measure([0.5, 0.3, 0.4, 0.2]) == pytest.approx(0.1)

    def test_monotone_series_scores_zero(self):
        assert nonmarkov.blp_measure([1.0, 0.7, 0.5, 0.5, 0.2]) == 0.0

    def test_threshold_filters_noise(self):
        assert nonmarkov.blp_measure([0.5, 0.5 + 1e-13]) == 0.0

    def test_too_short(self):
        with pytest.raises(ConfigError):
            nonmarkov.blp_measure([0.5])

    def test_first_revival_step(self):
        assert nonmarkov.first_revival_step([0.5, 0.3, 0.4, 0.2]) == 1
        assert nonmarkov.first_revival_step([0.5, 0.3, 0.2]) is None


class TestDistinguishabilitySeries:
    def test_markovian_decay(self):
        cfg = qubit_config(n_steps=10)
        ta, tb = run_paired(cfg, EXCITED, GROUND)
        series = nonmarkov.distinguishability_series(ta, tb)
        assert series[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(series) <= 1e-12)
        assert nonmarkov.blp_measure(series) == 0.0

    def test_metric_choice_is_respected(self):
        cfg = qubit_config(n_steps=4)
        tr = nonmarkov.distinguishability_series(*run_paired(cfg, EXCITED, GROUND))
        ta, tb = run_paired(replace(cfg, pair_metric="jensen-shannon"), EXCITED, GROUND)
        js = nonmarkov.distinguishability_series(ta, tb)
        # the metric changes the series, not the dynamics
        assert np.array_equal(tr, qstate.trace_distance(ta.snapshots, tb.snapshots))
        assert np.array_equal(js, qstate.js_distance(ta.snapshots, tb.snapshots))
        assert np.array_equal(ta.ledger["D_pair"], js[1:])
        # both start at their maximal value for orthogonal pure states
        assert tr[0] == pytest.approx(1.0, abs=1e-10)
        assert js[0] == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("metric", ["trace", "jensen-shannon"])
    def test_aa_collisions_create_revivals(self, metric):
        cfg = qubit_config(n_steps=10, aa_mode="coherent", aa_swap_prob=1.0,
                           pair_metric=metric)
        ta, tb = run_paired(cfg, EXCITED, GROUND)
        series = nonmarkov.distinguishability_series(ta, tb)
        assert nonmarkov.blp_measure(series) > 0.1


class TestSwapProbabilityOrdering:
    @pytest.mark.parametrize("mode", ["coherent", "incoherent"])
    def test_measure_grows_with_swap_probability(self, mode):
        values = []
        for p in (0.0, 0.5, 1.0):
            cfg = qubit_config(n_steps=12, aa_mode=mode if p > 0 else "off",
                               aa_swap_prob=p, rng_seed=3)
            ta, tb = run_paired(cfg, EXCITED, GROUND)
            values.append(nonmarkov.blp_measure(
                nonmarkov.distinguishability_series(ta, tb)))
        assert values[0] == 0.0
        assert values[0] < values[1] < values[2]


class TestPairOptimization:
    def test_markovian_optimum_is_zero(self):
        cfg = qubit_config(n_steps=8)
        _, best = nonmarkov.blp_optimize_pairs(cfg, grid_resolution=3)
        assert best == 0.0

    def test_resolution_one_is_the_pole_pair(self):
        cfg = qubit_config(n_steps=6, aa_mode="coherent", aa_swap_prob=1.0)
        (a, b), best = nonmarkov.blp_optimize_pairs(cfg, grid_resolution=1)
        assert qstate.trace_distance(a, EXCITED) < 1e-12
        assert qstate.trace_distance(b, GROUND) < 1e-12
        ta, tb = run_paired(cfg, EXCITED, GROUND)
        assert best == pytest.approx(nonmarkov.blp_measure(
            nonmarkov.distinguishability_series(ta, tb)), abs=1e-12)

    def test_grid_optimum_dominates_pole_pair(self):
        cfg = qubit_config(n_steps=6, aa_mode="coherent", aa_swap_prob=1.0)
        _, pole = nonmarkov.blp_optimize_pairs(cfg, grid_resolution=1)
        _, best = nonmarkov.blp_optimize_pairs(cfg, grid_resolution=4)
        assert best >= pole - 1e-12

    def test_antipodal_pair_construction(self):
        a, b = nonmarkov.antipodal_pair(0.7, 1.2)
        assert qstate.trace_distance(a, b) == pytest.approx(1.0, abs=1e-10)

    def test_qubit_only(self):
        h = np.diag([1.0, 0.0, -1.0]).astype(complex)
        stream = AncillaStream(3, h, qstate.maximally_mixed(3))
        cfg = CollisionConfig(3, h, qstate.maximally_mixed(3), [stream],
                              [partial_swap_interaction(3)])
        with pytest.raises(ConfigError):
            nonmarkov.blp_optimize_pairs(cfg)


def reference_pair_scan(cfg, resolution):
    """Best BLP sum of the grid scan, as an explicit loop of paired runs."""
    return max(paired_blp(cfg, nonmarkov.antipodal_pair(math.acos(u), phi))
               for u in np.linspace(1.0, 0.0, resolution)
               for phi in np.linspace(0.0, 2 * math.pi, 2 * resolution, endpoint=False))


def paired_blp(cfg, pair):
    """BLP sum of one pair from the D_pair fields of a paired run."""
    ta, _ = run_paired(cfg, *pair)
    d = [qstate.state_distance(*pair, cfg.pair_metric)] + [r.D_pair for r in ta.records]
    return sum(b - a for a, b in zip(d, d[1:]) if b - a > nonmarkov.REVIVAL_THRESHOLD)


class TestStackedPairScan:
    @pytest.mark.parametrize("resolution", [3, 4])
    @pytest.mark.parametrize("metric", ["trace", "jensen-shannon"])
    @pytest.mark.parametrize("mode", ["coherent", "incoherent"])
    def test_matches_loop_of_paired_runs(self, mode, metric, resolution):
        cfg = qubit_config(n_steps=10, aa_mode=mode, aa_swap_prob=0.5, rng_seed=3,
                           pair_metric=metric)
        pair, value = nonmarkov.blp_optimize_pairs(cfg, grid_resolution=resolution)
        expected = reference_pair_scan(cfg, resolution)
        assert value > 0.01
        assert value == pytest.approx(expected, abs=1e-12)
        # ties within rounding may pick another pair, but it attains the value
        assert paired_blp(cfg, pair) == pytest.approx(value, abs=1e-12)

    def test_scores_in_the_configured_metric(self):
        cfg = qubit_config(n_steps=10, aa_mode="incoherent", aa_swap_prob=0.5, rng_seed=3,
                           pair_metric="jensen-shannon")
        _, value = nonmarkov.blp_optimize_pairs(cfg, grid_resolution=3)
        _, trace = nonmarkov.blp_optimize_pairs(replace(cfg, pair_metric="trace"), "trace", 3)
        assert value == nonmarkov.blp_optimize_pairs(cfg, "jensen-shannon", 3)[1]
        assert abs(value - trace) > 1e-3
        with pytest.raises(ConfigError, match="metric 'trace' disagrees with the "
                           "configuration's pair_metric 'jensen-shannon'"):
            nonmarkov.blp_optimize_pairs(cfg, "trace", 3)

    @pytest.mark.parametrize("resolution", [0, -3, 2.5, True, "3", None])
    def test_rejects_a_bad_grid_resolution_before_any_run(self, monkeypatch, resolution):
        def no_run(*args):
            raise AssertionError("a collision unitary was built")
        monkeypatch.setattr(engine, "collision_unitary", no_run)
        with pytest.raises(ConfigError, match=f"grid_resolution must be an integer >= 1, "
                           f"got {resolution!r}"):
            nonmarkov.blp_optimize_pairs(qubit_config(), grid_resolution=resolution)

    def test_accepts_a_numpy_integer_resolution(self):
        cfg = qubit_config(n_steps=6, aa_mode="coherent", aa_swap_prob=1.0)
        (a, b), value = nonmarkov.blp_optimize_pairs(cfg, grid_resolution=np.int64(3))
        (ea, eb), expected = nonmarkov.blp_optimize_pairs(cfg, grid_resolution=3)
        assert value == expected and np.array_equal(a, ea) and np.array_equal(b, eb)


def plant_checked(monkeypatch, step, member, state):
    """Make the propagation's check receive ``state`` as the carried state of
    stack member ``member`` at step ``step``, in place of the propagated one."""
    integrity = engine._integrity

    def planted(joint, steps, *blocks):
        at = np.flatnonzero(np.atleast_1d(steps) == step)
        if at.size and joint.shape[-2:] == state.shape:  # not an accounted state
            joint = joint.copy()
            joint.reshape((-1,) + joint.shape[-3:])[at[0], member] = state
        return integrity(joint, steps, *blocks)
    monkeypatch.setattr(engine, "_integrity", planted)


class TestLedgerFreeScan:
    """The scan sets the loop up once, computes no ledger, and has the
    propagation check each carried state once as it stores it."""

    @staticmethod
    def config():
        return qubit_config(n_steps=8, aa_mode="incoherent", aa_swap_prob=0.5, rng_seed=3)

    def test_reads_no_ledger(self, monkeypatch):
        expected = nonmarkov.blp_optimize_pairs(self.config(), grid_resolution=4)

        def no_ledger(*args):
            raise AssertionError("the scan accounted a ledger")
        monkeypatch.setattr(engine, "_account", no_ledger)
        (a, b), value = nonmarkov.blp_optimize_pairs(self.config(), grid_resolution=4)
        assert value == expected[1]
        assert np.array_equal(a, expected[0][0]) and np.array_equal(b, expected[0][1])

    def test_sets_up_once_and_checks_each_state_once(self, monkeypatch):
        calls = {"collision_unitary": 0, "_maps": 0}
        for name in calls:
            def counted(*args, _name=name, _f=getattr(engine, name)):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(engine, name, counted)
        checked, integrity = [], engine._integrity

        def check(joint, steps, *blocks):
            checked.append(np.atleast_1d(steps).tolist())
            assert joint.shape[:2] == (len(checked[-1]), 48)  # every member of a row
            return integrity(joint, steps, *blocks)
        monkeypatch.setattr(engine, "_integrity", check)
        nonmarkov.blp_optimize_pairs(self.config(), grid_resolution=12)
        assert calls == {"collision_unitary": 1, "_maps": 1}
        # the states after steps 1..8 of each of the 12 rows, none twice, and
        # no call receives a whole run
        assert sorted(sum(checked, [])) == sorted(list(range(1, 9)) * 12)
        assert max(map(len, checked)) < 8

    def test_broken_carried_state_names_step_and_member(self, monkeypatch):
        cfg = qubit_config(n_steps=8)
        plant_checked(monkeypatch, 5, 1, BROKEN)
        with pytest.raises(IntegrityError, match="lost positivity at step 5, stack member 1"):
            nonmarkov.blp_optimize_pairs(cfg, grid_resolution=3)
        # the accounted run of the scan's first row names the same step and member
        row = [nonmarkov.antipodal_pair(0.0, phi)
               for phi in np.linspace(0.0, 2 * math.pi, 6, endpoint=False)]
        with pytest.raises(IntegrityError, match="at step 5, stack member 1"):
            run_stack(cfg, [a for a, _ in row] + [b for _, b in row])

    def test_check_is_weaker_than_the_accounting(self, monkeypatch):
        # a state inside the PSD_ABORT floor but outside the entropy code's
        # clamp window breaks only the ledger, which the scan does not compute
        cfg = qubit_config(n_steps=8)
        plant(monkeypatch, 5, 1, CLAMPED)
        nonmarkov.blp_optimize_pairs(cfg, grid_resolution=3)
        with pytest.raises(IntegrityError, match="reduced state broken at step 5"):
            run_stack(cfg, [EXCITED, GROUND])


def oracle_pair(cfg):
    """The paired full-backend run the bound is evaluated on."""
    return run_paired(replace(cfg, backend="full"), EXCITED, GROUND)


def reference_family(dist, terms):
    """The exhaustive (s, t) bound family, t >= s, member by member in s-major
    order: the O(n^2) reference that ``bound_findings`` reduces with arrays."""
    family = []
    for s in range(len(dist)):
        env, rho, sigma = terms[s]
        for t in range(s, len(dist)):
            lhs = dist[t] - dist[s]
            family.append({"slack": env + rho + sigma - lhs, "s": s, "t": t, "lhs": lhs,
                           "rhs_env": env, "rhs_corr_rho": rho, "rhs_corr_sigma": sigma})
    return family


def reference_findings(dist, terms):
    """The findings ``bound_findings`` returns, from ``reference_family``: the
    first of equal minima (or maxima) wins, as in Python's min and max."""
    family = reference_family(list(dist), np.asarray(terms).tolist())
    revivals = [m for m in family if m["s"] >= 1 and m["lhs"] > nonmarkov.REVIVAL_THRESHOLD]
    return {"min_bound_slack": min(m["slack"] for m in family),
            "min_revival_slack": min(revivals, key=lambda m: m["slack"], default=None),
            "max_revival_lhs": max(m["lhs"] for m in family)}


def assert_findings_match_reference(dist, terms):
    """Same values, keys, key order and types: the sweep's JSON bytes."""
    found = nonmarkov.bound_findings(dist, terms)
    assert json.dumps(found) == json.dumps(reference_findings(dist, terms))
    return found


def pair_family(pair):
    """The reference family of a paired full-backend run."""
    return reference_family(nonmarkov.distinguishability_series(*pair).tolist(),
                            nonmarkov.bound_terms(*pair).tolist())


def bound_member(pair, s, t):
    """The (s, t) member of the exhaustive bound family of a paired run."""
    return next(m for m in pair_family(pair) if (m["s"], m["t"]) == (s, t))


class TestBoundFindings:
    def test_markovian_revivals_never_positive(self):
        cfg = qubit_config(n_steps=6)
        rep = bound_member(oracle_pair(cfg), 2, 5)
        assert rep["lhs"] <= 1e-12
        assert rep["slack"] >= -1e-9

    def test_coincident_endpoints(self):
        cfg = qubit_config(n_steps=5, aa_mode="coherent", aa_swap_prob=0.7)
        rep = bound_member(oracle_pair(cfg), 3, 3)
        assert rep["lhs"] == pytest.approx(0.0, abs=1e-12)
        assert rep["slack"] >= -1e-9

    def test_revival_is_bounded(self):
        cfg = qubit_config(n_steps=8, aa_mode="coherent", aa_swap_prob=1.0)
        pair = oracle_pair(cfg)
        s = nonmarkov.first_revival_step(nonmarkov.distinguishability_series(*pair))
        assert s is not None
        rep = bound_member(pair, s, s + 1)
        assert rep["lhs"] > 1e-6
        assert rep["slack"] >= -1e-9

    def test_exhaustive_family_holds(self):
        cfg = qubit_config(n_steps=6, aa_mode="coherent", aa_swap_prob=0.8)
        pair = oracle_pair(cfg)
        family = pair_family(pair)
        assert len(family) == 7 * 8 // 2
        assert min(m["slack"] for m in family) >= -1e-9
        found = assert_findings_match_reference(nonmarkov.distinguishability_series(*pair),
                                                nonmarkov.bound_terms(*pair))
        assert found["min_bound_slack"] >= -1e-9
        assert found["min_revival_slack"] is not None

    def test_time_ordering_required(self):
        # every pair of collision indices with t >= s, once each, and no other
        cfg = qubit_config(n_steps=4, aa_mode="coherent", aa_swap_prob=1.0)
        assert [(m["s"], m["t"]) for m in pair_family(oracle_pair(cfg))] == \
            [(s, t) for s in range(5) for t in range(s, 5)]
        # the family is visited s-major: of revivals of equal slack, (1, 2) comes
        # before (1, 4), which comes before (3, 4)
        dist = [0.0, 0.0, 0.5, 0.0, 0.5]
        terms = [[0.0] * 3, [0.6, 0.0, 0.0], [0.0] * 3, [0.6, 0.0, 0.0], [0.0] * 3]
        tightest = assert_findings_match_reference(dist, terms)["min_revival_slack"]
        assert (tightest["s"], tightest["t"]) == (1, 2)

    def test_report_reads_the_series_and_the_terms(self):
        cfg = qubit_config(n_steps=5, aa_mode="incoherent", aa_swap_prob=0.6, rng_seed=2)
        ta, tb = oracle_pair(cfg)
        dist = nonmarkov.distinguishability_series(ta, tb)
        terms = nonmarkov.bound_terms(ta, tb)
        assert terms.shape == (6, 3)
        assert np.array_equal(terms[0], np.zeros(3))
        for m in pair_family((ta, tb)):
            assert m["lhs"] == dist[m["t"]] - dist[m["s"]]
            assert [m["rhs_env"], m["rhs_corr_rho"], m["rhs_corr_sigma"]] == \
                terms[m["s"]].tolist()
        # the environment term compares the two recorded environment states,
        # the correlation terms are the ones each run recorded
        for s in range(1, 6):
            assert terms[s, 0] == qstate.trace_distance(ta.env_states[s - 1],
                                                        tb.env_states[s - 1])
        assert terms[1:, 1].tolist() == ta.correlations.tolist()
        assert terms[1:, 2].tolist() == tb.correlations.tolist()
        assert_findings_match_reference(dist, terms)

    def test_tightest_revival_skips_the_tight_family(self):
        # s = 0 revives by 0.5 with all terms 0; t = s; (1, 2) and (3, 4) revive
        # only by rounding noise (1e-12)
        trivial = [0.0, 0.5, 0.5 + 1e-12, 0.5, 0.5 + 1e-12]
        terms = [[0.0] * 3] + [[0.1, 0.0, 0.0]] * 4
        found = assert_findings_match_reference(trivial, terms)
        assert found["min_revival_slack"] is None
        assert found["max_revival_lhs"] == 0.5 + 1e-12
        # genuine revivals: (1, 2) by 0.3 at slack 0.2, (3, 4) by 0.2 at slack 0.1
        genuine = [0.0, 0.5, 0.8, 0.5, 0.7]
        terms = [[0.0] * 3, [0.5, 0.0, 0.0], [0.0] * 3, [0.25, 0.0, 0.05], [0.0] * 3]
        tightest = assert_findings_match_reference(genuine, terms)["min_revival_slack"]
        assert (tightest["s"], tightest["t"]) == (3, 4)
        assert tightest["slack"] == pytest.approx(0.1)

    @pytest.mark.parametrize("seed", range(12))
    def test_arrays_match_the_reference_loop(self, seed):
        # planted families with ties, rounding-level revivals, t = s and s = 0
        # rows, on series of 1 to 9 points
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 10))
        dist = rng.choice([0.0, 0.3, 0.3 + 1e-12, 0.3 + 1e-9, 0.6], size=n)
        terms = rng.choice([0.0, 0.1, 0.2, 1e-11], size=(n, 3))
        terms[0] = 0.0
        assert_findings_match_reference(dist, terms)
        assert_findings_match_reference(dist.tolist(), terms.tolist())

    def test_windowed_backend_rejected(self):
        cfg = qubit_config(n_steps=4)
        ta, tb = run_paired(cfg, EXCITED, GROUND)
        with pytest.raises(ConfigError, match="full-backend"):
            nonmarkov.bound_terms(ta, tb)
        # one windowed member is enough to reject the pair
        fa, fb = oracle_pair(cfg)
        for pair in ((ta, fb), (fa, tb)):
            with pytest.raises(ConfigError, match="full-backend"):
                nonmarkov.bound_terms(*pair)

    @pytest.mark.parametrize("key,value", [("pair_metric", "jensen-shannon"),
                                           ("log_base", math.e), ("n_steps", 4)])
    def test_mismatched_pair_rejected(self, key, value):
        cfg = qubit_config(n_steps=3)
        fa, _ = oracle_pair(cfg)
        _, fb = oracle_pair(replace(cfg, **{key: value}))
        with pytest.raises(ConfigError, match=f"bound terms need one {key} for both runs"):
            nonmarkov.bound_terms(fa, fb)


class TestPrecursorSeries:
    """The bound's three terms of a pair along its run, before any revival."""

    def test_uncoupled_is_flat_zero(self):
        cfg = replace(qubit_config(n_steps=5), coupling=0.0)
        env, c_a, c_b = nonmarkov.bound_terms(*oracle_pair(cfg)).T
        assert np.max(env) < 1e-12
        assert np.max(c_a) < 1e-12
        assert np.max(c_b) < 1e-12

    def test_markovian_correlations_without_backflow(self):
        # correlations and environment changes build up, but no revival follows
        cfg = qubit_config(n_steps=6)
        env, c_a, c_b = nonmarkov.bound_terms(*oracle_pair(cfg)).T
        assert env.max() > 1e-3
        ta, tb = run_paired(cfg, EXCITED, GROUND)
        series = nonmarkov.distinguishability_series(ta, tb)
        assert nonmarkov.first_revival_step(series) is None

    def test_precursors_precede_the_revival(self):
        cfg = qubit_config(n_steps=9, aa_mode="coherent", aa_swap_prob=1.0)
        env, c_a, c_b = nonmarkov.bound_terms(*oracle_pair(cfg)).T
        ta, tb = run_paired(cfg, EXCITED, GROUND)
        s = nonmarkov.first_revival_step(nonmarkov.distinguishability_series(ta, tb))
        assert s is not None and s >= 1
        total = env + c_a + c_b
        assert total[s] > 1e-6


class TestWindowedAgainstOracle:
    """On every distinct channel of the default sweep the windowed backend
    gives the full backend's snapshots and ledger over the oracle's steps."""

    def test_default_sweep(self, monkeypatch):
        pairs = []

        def recorded(cfg, init_a, init_b):
            pairs.append((cfg, run_paired(cfg, init_a, init_b)))
            return pairs[-1][1]
        monkeypatch.setattr(scenarios, "run_paired", recorded)
        scenarios.run_scenario("nonmarkov_sweep")
        windowed = {(cfg.aa_mode, cfg.aa_swap_prob): pair for cfg, pair in pairs
                    if cfg.backend == "windowed"}
        oracles = [(cfg, pair) for cfg, pair in pairs if cfg.backend == "full"]
        assert len(oracles) == len(windowed) == 8
        for cfg, oracle in oracles:
            n = cfg.n_steps
            for full, window in zip(oracle, windowed[cfg.aa_mode, cfg.aa_swap_prob]):
                assert np.max(np.abs(window.snapshots[:n + 1] - full.snapshots)) <= 1e-13
                assert set(window.ledger) == set(full.ledger)
                for name, column in full.ledger.items():
                    # an infinite entry agrees with the same infinity only
                    assert np.isclose(column, window.ledger[name][:n], rtol=0,
                                      atol=1e-13).all(), (cfg.aa_mode, cfg.aa_swap_prob, name)
