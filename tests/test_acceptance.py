"""Acceptance gate: one test per criterion, each at its stated tolerance,
printing a pass/fail line (run with -s or read captured stdout)."""

import csv
import io
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    binom_pmf_exact,
    binom_tail_exact,
    mean_specs,
    moment_vector_of,
    prob_at,
    random_task,
    random_unit_dist,
)
from tailbound import (
    BinomialSpec,
    DiscreteDist,
    MomentVector,
    PartitionSpec,
    VarianceClassSpec,
    bennett_bound,
    bentkus_linear_bound,
    binomial_comparison_bound,
    binomial_dist,
    check_convex_order,
    check_stochastic_order,
    convolve,
    hoeffding_bound,
    impossibility_witness,
    markov_bound,
    markov_reduction_check,
    missing_factor_bound,
    mix_envelope,
    sample_class_member,
    upper_tail,
    validate_bound,
    xi_distribution,
)
from tailbound.classic_bounds import BoundReport
from tailbound.cli import class_specs_for_task, compute_bounds, main

HALF = Fraction(1, 2)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} FAIL: {description}")
        raise
    print(f"criterion {number:2d} PASS: {description}")


def test_criterion_01_hoeffding_closed_form():
    with criterion(1, "closed-form optimized exponential bound and grid oracle"):
        start = time.perf_counter()
        value = hoeffding_bound(mean_specs(10, 0.5), 6).value
        assert value == pytest.approx(0.817622, abs=1e-6)
        h = np.linspace(10.0 / 10**6, 10.0, 10**6)
        grid_min = float(np.exp((-h * 6 + 10 * np.log1p(0.5 * np.expm1(h))).min()))
        assert value == pytest.approx(grid_min, rel=1e-9)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_02_missing_factor_reproduction():
    with criterion(2, "sharpened-factor bound value and point-tail sandwich"):
        report = missing_factor_bound(mean_specs(10, 0.5), 8)
        # reference from the stated oracle: direct formula evaluation with
        # exact rational pmf (45/1024 + (1+ln 4)/4 * 56/1024 = 0.0765704307)
        exp_h = 4.0
        factor = (1 + math.log(exp_h)) / exp_h
        tail_terms = float(binom_pmf_exact(10, 8, HALF)) + factor * float(
            binom_tail_exact(10, 8, HALF) - binom_pmf_exact(10, 8, HALF)
            + binom_pmf_exact(10, 9, HALF) * 3
            + binom_pmf_exact(10, 10, HALF) * 15
        )
        oracle = float(binom_pmf_exact(10, 8, HALF)) + factor * float(
            Fraction(56, 1024)
        )
        assert oracle == pytest.approx(0.0765704307, abs=1e-9)
        assert report.value == pytest.approx(oracle, abs=1e-6)
        assert tail_terms == pytest.approx(oracle, rel=1e-12)  # pieces recombine
        # sandwich: exact binomial tail <= value < mean-only bound
        assert float(binom_tail_exact(10, 8, HALF)) == 0.0546875
        assert 0.0546875 <= report.value
        hoeffding_exact = Fraction(1, 4) ** 8 * Fraction(5, 2) ** 10
        assert float(hoeffding_exact) == pytest.approx(0.145519, abs=1e-6)
        assert report.value < float(hoeffding_exact)


def test_criterion_03_binomial_comparison_reproduction():
    with criterion(3, "binomial comparison value and near-mean clamping"):
        report = binomial_comparison_bound(mean_specs(10, 0.5), 8)
        exact = Fraction(4, 3) * binom_tail_exact(10, 8, HALF)
        assert exact == Fraction(7, 96)
        assert report.value == pytest.approx(float(exact), abs=1e-9)
        assert not report.clamped

        near_mean = binomial_comparison_bound(mean_specs(10, 0.5), 6)
        raw = 3 * binom_tail_exact(10, 6, HALF)
        assert float(raw) == pytest.approx(1.13086, abs=1e-5)
        assert near_mean.value == 1.0 and near_mean.clamped


def test_criterion_04_breakpoint_optimum():
    with criterion(4, "optimal piecewise-linear bound at the integer breakpoint"):
        report = bentkus_linear_bound(mean_specs(10, 0.5), 6)
        assert report.value == pytest.approx(float(Fraction(630, 1024)), rel=1e-12)
        assert report.witness["epsilon"] == 5.0
        assert report.value <= markov_bound(mean_specs(10, 0.5), 6).value  # 5/6
        assert report.value <= hoeffding_bound(mean_specs(10, 0.5), 6).value


def test_criterion_05_variance_bound_identity():
    with criterion(5, "variance bound collapses to the mean bound at full variance"):
        rng = np.random.default_rng(20260810)
        for _ in range(100):
            n = int(rng.integers(2, 60))
            p = float(rng.uniform(0.1, 0.9))
            t = float(n * p + (n - n * p) * rng.uniform(0.05, 0.9))
            full = bennett_bound(n, VarianceClassSpec(p, p * (1 - p)), t).value
            mean_only = hoeffding_bound(mean_specs(n, p), t).value
            assert full == pytest.approx(mean_only, rel=1e-9)


def test_criterion_06_impossibility_witness():
    with criterion(6, "no dominating member once the variance is pinned"):
        ratio = impossibility_witness(0.5, 0.3)
        assert ratio == pytest.approx(0.6, abs=1e-12)
        mu1, mu2 = Fraction(1, 2), Fraction(3, 10)
        lam = mu1 - (mu2 - mu1**2) / (1 - mu1)
        e_g_c = (mu1 - lam) / (1 - lam)
        e_g_cprime = (mu2 / mu1 - lam) / (1 - lam) * mu1**2 / mu2
        assert e_g_c == Fraction(1, 6) and e_g_cprime == Fraction(5, 18)
        assert Fraction(1, 6) / Fraction(5, 18) == Fraction(3, 5)


def test_criterion_07_global_soundness():
    with criterion(7, "every emitted bound dominates 200 seeded adversarial instances"):
        start = time.perf_counter()
        rng = np.random.default_rng(7_2026)
        checked = 0
        for index in range(200):
            task = random_task(rng, n=int(rng.integers(2, 7)))
            specs = class_specs_for_task(task)
            rows = compute_bounds(task)
            for m_index, row in enumerate(rows):
                if not isinstance(row, BoundReport):
                    continue
                seed = int(
                    np.random.SeedSequence([7_2026, index, m_index]).generate_state(1)[0]
                )
                report = validate_bound(specs, task.t, row.value, trials=5, seed=seed)
                assert report.ok, (
                    f"{row.method} violated on instance {index}: "
                    f"tail {report.violations[0].tail} > bound {row.value}"
                )
                checked += 1
        elapsed = time.perf_counter() - start
        assert checked > 1000
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_criterion_08_order_theory_suite():
    with criterion(8, "convex/stochastic order suite (sandwich, iff, dominations)"):
        rng = np.random.default_rng(8_2026)

        # sandwich: member <=_cx three-point envelope <=_cx two-point envelope
        for _ in range(50):
            p = float(rng.uniform(0.15, 0.85))
            s2 = float(rng.uniform(0.02, 0.999)) * p * (1 - p)
            vclass = VarianceClassSpec(p, s2)
            xi = xi_distribution(vclass)
            bernoulli = DiscreteDist((0.0, 1.0), (1 - p, p))
            assert check_convex_order(xi, bernoulli).holds
            for _ in range(20):
                member = sample_class_member(vclass, rng)
                assert check_convex_order(member, xi).holds

        # characterization: order between two-cell envelopes is equivalent
        # to comparing their mass at the shared mean, in both directions
        for _ in range(50):
            p = float(rng.uniform(0.2, 0.8))
            s2 = float(rng.uniform(0.05, 0.95)) * p * (1 - p)
            partition = PartitionSpec((0.0, p, 1.0))
            vclass = VarianceClassSpec(p, s2)
            x = sample_class_member(vclass, rng)
            y = sample_class_member(vclass, rng)
            xi_x = mix_envelope(x, partition)
            xi_y = mix_envelope(y, partition)
            mass_x, mass_y = prob_at(xi_x, p), prob_at(xi_y, p)
            assert check_convex_order(xi_x, xi_y).holds == (mass_x >= mass_y - 1e-10)
            assert check_convex_order(xi_y, xi_x).holds == (mass_y >= mass_x - 1e-10)

        # lattice weight variable is stochastically below its binomial cap
        for m in range(2, 7):
            for _ in range(10):
                base = random_unit_dist(rng)
                mv = moment_vector_of(base, m)
                z = bernstein_weights_of(mv)
                cap = binomial_dist(
                    BinomialSpec(m, mv.mu[-1] ** (1.0 / m)), scale=1.0 / m
                )
                assert check_stochastic_order(z, cap).holds

        # unequal Bernoulli sums are dominated by the averaged binomial
        # from one unit above the mean onward
        for n in range(2, 7):
            for _ in range(20):
                qs = rng.uniform(0.05, 0.95, n)
                q_bar = float(np.mean(qs))
                total = convolve(
                    [DiscreteDist((0.0, 1.0), (1 - q, q)) for q in qs]
                )
                reference = BinomialSpec(n, q_bar)
                for c in range(math.ceil(n * q_bar + 1 - 1e-12), n + 1):
                    assert (
                        total.upper_tail(float(c))
                        <= upper_tail(reference, c) + 1e-10
                    )


def bernstein_weights_of(mv: MomentVector):
    from tailbound import bernstein_weights

    return bernstein_weights(mv)


def test_criterion_09_markov_reduction():
    with criterion(9, "unbounded variables reduce the method to the mean bound"):
        rng = np.random.default_rng(9_2026)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            mus = [float(rng.uniform(0.05, 2.0)) for _ in range(n)]
            t = sum(mus) * float(rng.uniform(1.05, 4.0))
            report = markov_reduction_check(mus, t)
            assert report.eps_star == 0.0
            assert report.value == pytest.approx(sum(mus) / t, abs=1e-12)


def test_criterion_10_figure_panels(tmp_path):
    with criterion(10, "12 variance-sweep panels with the high-variance crossover"):
        start = time.perf_counter()
        outdir = tmp_path / "fig1"
        assert main(["figure1", "--out", str(outdir)]) == 0
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        names = sorted(p.name for p in outdir.iterdir())
        assert len(names) == 12
        for name in names:
            rows = list(csv.DictReader(io.StringIO((outdir / name).read_text())))
            assert len(rows) == 50
            suffix_start = None
            for i, row in enumerate(rows):
                below = (
                    float(row["momopt"]) < float(row["bennett"])
                    and float(row["xitheorem"]) < float(row["bennett"])
                )
                if below and suffix_start is None:
                    suffix_start = i
                if not below:
                    suffix_start = None
            assert suffix_start is not None, f"no crossover suffix in {name}"
