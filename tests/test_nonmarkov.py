import math
from dataclasses import replace

import numpy as np
import pytest

from collisim import linalg, nonmarkov, qstate
from collisim.engine import (AncillaStream, CollisionConfig,
                             partial_swap_interaction, run_paired)
from collisim.errors import ConfigError

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
        ta, tb = run_paired(cfg, EXCITED, GROUND)
        tr = nonmarkov.distinguishability_series(ta, tb, "trace")
        js = nonmarkov.distinguishability_series(ta, tb, "jensen-shannon")
        assert np.array_equal(tr, qstate.trace_distance(ta.snapshots, tb.snapshots))
        assert np.array_equal(js, qstate.js_distance(ta.snapshots, tb.snapshots))
        # both start at their maximal value for orthogonal pure states
        assert tr[0] == pytest.approx(1.0, abs=1e-10)
        assert js[0] == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("metric", ["trace", "jensen-shannon"])
    def test_aa_collisions_create_revivals(self, metric):
        cfg = qubit_config(n_steps=10, aa_mode="coherent", aa_swap_prob=1.0,
                           pair_metric=metric)
        ta, tb = run_paired(cfg, EXCITED, GROUND)
        series = nonmarkov.distinguishability_series(ta, tb, metric)
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


def reference_pair_scan(cfg, metric, resolution):
    """Best BLP sum of the grid scan, as an explicit loop of paired runs."""
    cfg = replace(cfg, pair_metric=metric)
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
        cfg = qubit_config(n_steps=10, aa_mode=mode, aa_swap_prob=0.5, rng_seed=3)
        pair, value = nonmarkov.blp_optimize_pairs(cfg, metric, resolution)
        expected = reference_pair_scan(cfg, metric, resolution)
        assert value > 0.01
        assert value == pytest.approx(expected, abs=1e-12)
        # ties within rounding may pick another pair, but it attains the value
        assert paired_blp(replace(cfg, pair_metric=metric), pair) == \
            pytest.approx(value, abs=1e-12)


def oracle_pair(cfg):
    """The paired full-backend run the bound is evaluated on."""
    return run_paired(replace(cfg, backend="full"), EXCITED, GROUND)


def bound_report(pair, s, t):
    """The (s, t) member of the exhaustive bound family of a paired run."""
    return next(r for r in nonmarkov.all_pair_bound_reports(*pair) if (r.s, r.t) == (s, t))


class TestBoundReports:
    def test_markovian_revivals_never_positive(self):
        cfg = qubit_config(n_steps=6)
        rep = bound_report(oracle_pair(cfg), 2, 5)
        assert rep.lhs <= 1e-12
        assert rep.slack >= -1e-9

    def test_coincident_endpoints(self):
        cfg = qubit_config(n_steps=5, aa_mode="coherent", aa_swap_prob=0.7)
        rep = bound_report(oracle_pair(cfg), 3, 3)
        assert rep.lhs == pytest.approx(0.0, abs=1e-12)
        assert rep.slack >= -1e-9

    def test_revival_is_bounded(self):
        cfg = qubit_config(n_steps=8, aa_mode="coherent", aa_swap_prob=1.0)
        pair = oracle_pair(cfg)
        s = nonmarkov.first_revival_step(nonmarkov.distinguishability_series(*pair))
        assert s is not None
        rep = bound_report(pair, s, s + 1)
        assert rep.lhs > 1e-6
        assert rep.slack >= -1e-9

    def test_exhaustive_family_holds(self):
        cfg = qubit_config(n_steps=6, aa_mode="coherent", aa_swap_prob=0.8)
        reports = nonmarkov.all_pair_bound_reports(*oracle_pair(cfg))
        assert len(reports) == 7 * 8 // 2
        assert min(r.slack for r in reports) >= -1e-9

    def test_time_ordering_required(self):
        # every pair of collision indices with t >= s, once each, and no other
        cfg = qubit_config(n_steps=4, aa_mode="coherent", aa_swap_prob=1.0)
        reports = nonmarkov.all_pair_bound_reports(*oracle_pair(cfg))
        assert [(r.s, r.t) for r in reports] == \
            [(s, t) for s in range(5) for t in range(s, 5)]

    def test_report_reads_the_series_and_the_terms(self):
        cfg = qubit_config(n_steps=5, aa_mode="incoherent", aa_swap_prob=0.6, rng_seed=2)
        ta, tb = oracle_pair(cfg)
        dist = nonmarkov.distinguishability_series(ta, tb)
        terms = nonmarkov.bound_terms(ta, tb)
        assert terms.shape == (6, 3)
        assert np.array_equal(terms[0], np.zeros(3))
        for r in nonmarkov.all_pair_bound_reports(ta, tb):
            assert r.lhs == dist[r.t] - dist[r.s]
            assert [r.rhs_env, r.rhs_corr_rho, r.rhs_corr_sigma] == terms[r.s].tolist()

    def test_windowed_backend_rejected(self):
        cfg = qubit_config(n_steps=4)
        ta, tb = run_paired(cfg, EXCITED, GROUND)
        with pytest.raises(ConfigError, match="full-backend"):
            nonmarkov.all_pair_bound_reports(ta, tb)
        # one windowed member is enough to reject the pair
        fa, fb = oracle_pair(cfg)
        for pair in ((ta, fb), (fa, tb)):
            with pytest.raises(ConfigError, match="full-backend"):
                nonmarkov.bound_terms(*pair)


class TestPrecursorSeries:
    def test_uncoupled_is_flat_zero(self):
        cfg = replace(qubit_config(n_steps=5), coupling=0.0)
        env, c_a, c_b = nonmarkov.precursor_series(cfg, EXCITED, GROUND)
        assert np.max(env) < 1e-12
        assert np.max(c_a) < 1e-12
        assert np.max(c_b) < 1e-12

    def test_markovian_correlations_without_backflow(self):
        # correlations and environment changes build up, but no revival follows
        cfg = qubit_config(n_steps=6)
        env, c_a, c_b = nonmarkov.precursor_series(cfg, EXCITED, GROUND)
        assert env.max() > 1e-3
        ta, tb = run_paired(cfg, EXCITED, GROUND)
        series = nonmarkov.distinguishability_series(ta, tb)
        assert nonmarkov.first_revival_step(series) is None

    def test_precursors_precede_the_revival(self):
        cfg = qubit_config(n_steps=9, aa_mode="coherent", aa_swap_prob=1.0)
        env, c_a, c_b = nonmarkov.precursor_series(cfg, EXCITED, GROUND)
        ta, tb = run_paired(cfg, EXCITED, GROUND)
        s = nonmarkov.first_revival_step(nonmarkov.distinguishability_series(ta, tb))
        assert s is not None and s >= 1
        total = env + c_a + c_b
        assert total[s] > 1e-6
