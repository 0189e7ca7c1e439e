import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import kp5.spacetime
import kp5.sweeps
from kp5.convbounds import convolution_bound_check
from kp5.cutoffs import cutoff_psi, dyadic_eta
from kp5.errors import ConfigError
from kp5.sweeps import SUITES, SuiteReport, dyadic_suite, run_suite, strichartz_suite, thread_budget


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nope", 0)


@pytest.mark.parametrize("name", sorted(SUITES))
@pytest.mark.parametrize("samples", [0, -1])
def test_non_positive_sample_counts_rejected(name, samples):
    with pytest.raises(ValueError, match="sample count"):
        run_suite(name, 0, samples)


def test_resonance_suite_small():
    report = run_suite("resonance", 123, 500)
    assert report.passed
    assert report.summary["max_defect"] <= 1e-9
    assert len(report.rows) == 6  # two branches x three alphas


def test_kp2bound_suite_small():
    report = run_suite("kp2bound", 123, 500)
    assert report.passed
    assert report.summary["min_ratio"] >= 1.0


def test_unitarity_suite_small():
    report = run_suite("unitarity", 123, 5)
    assert report.passed


def test_dyadic_suite_small():
    report = run_suite("dyadic", 123, 10_000)
    assert report.passed
    assert report.summary["max_defect"] <= 1e-15


def test_convolution_suite_makes_one_array_check_and_reports_the_rule_gap(monkeypatch):
    shapes = []

    def counted(gamma, a):
        shapes.append((np.shape(gamma), np.shape(a)))
        return convolution_bound_check(gamma, a)

    monkeypatch.setattr(kp5.sweeps, "convolution_bound_check", counted)
    report = run_suite("convolution", 123, 5)
    assert shapes == [((21,), (21,))]  # 4 gammas x 5 offsets, then the gamma = 2 spot value
    assert report.passed
    assert [(row["gamma"], row["a"]) for row in report.rows[5:10]] == [(1.5, a) for a in (-100.0, -50.0, 0.0, 50.0, 100.0)]
    res = convolution_bound_check(1.5, -50.0)
    assert report.rows[6] == {
        "gamma": 1.5,
        "a": -50.0,
        "lhs_bracket": res.lhs_bracket,
        "ratio_bracket": res.ratio_bracket,
        "lhs_sqrt": res.lhs_sqrt,
        "ratio_sqrt": res.ratio_sqrt,
    }
    gap = report.summary["quadrature_error_estimate"]
    assert gap == max(convolution_bound_check(row["gamma"], row["a"]).error_estimate for row in report.rows)
    assert 0.0 < gap <= 1e-10


@pytest.mark.skipif(
    np.finfo(np.longdouble).nmant == 52, reason="the identity reference needs an extended longdouble"
)
def test_resonance_suite_passes_where_a_float64_reference_cancelled():
    # a float64 reference read 1.61e-9 here and failed the 1e-9 gate
    report = run_suite("resonance", 50234)
    assert report.passed
    assert report.summary["max_defect"] <= 1e-11


def _dyadic_per_shell_loop(seed, samples, j_max=40):
    """dyadic_suite as first written: dyadic_eta on every point of every shell."""
    rng = np.random.default_rng([seed, 0xD7AD1C])
    n_random = samples // 2
    exponents = rng.uniform(-10.0, float(j_max + 1), size=n_random)
    signs = rng.choice([-1.0, 1.0], size=n_random)
    x = np.concatenate(
        [
            signs * (2.0**exponents),
            np.linspace(-(2.0 ** (j_max + 1)), 2.0 ** (j_max + 1), samples - n_random),
        ]
    )
    total = np.zeros_like(x)
    for j in range(j_max + 1):
        total += dyadic_eta(j, x)
    worst = float(np.max(np.abs(total - cutoff_psi(np.ldexp(x, -j_max)))))
    return SuiteReport(
        suite="dyadic",
        seed=seed,
        passed=worst <= 1e-15,
        summary={"max_defect": worst, "threshold": 1e-15, "points": samples, "j_max": j_max},
        rows=({"j_max": j_max, "points": samples, "max_defect": worst},),
    )


@given(seed=st.integers(0, 2**63 - 1), samples=st.integers(1, 2_000))
def test_dyadic_shared_pass_matches_the_per_shell_loop(seed, samples):
    assert dyadic_suite(seed, samples) == _dyadic_per_shell_loop(seed, samples)


def test_dyadic_suite_checks_dyadic_eta_itself(monkeypatch):
    # the shared pass never calls dyadic_eta on the full grid, so only the
    # every-101st-point comparison can see a wrong shell
    def off_on_shell_3(j, x):
        return dyadic_eta(j, x) + (1e-12 if j == 3 else 0.0)

    monkeypatch.setattr(kp5.sweeps, "dyadic_eta", off_on_shell_3)
    report = dyadic_suite(5, 10_000)
    assert report.passed is False
    assert report.summary["max_defect"] == pytest.approx(1e-12, rel=1e-3)


def test_suite_reports_are_seed_deterministic():
    a = run_suite("resonance", 7, 300)
    b = run_suite("resonance", 7, 300)
    assert a == b
    c = run_suite("resonance", 8, 300)
    assert c.summary["max_defect"] != a.summary["max_defect"]


def test_strichartz_worker_count_invariance(monkeypatch):
    """Per-sample tasks share the compact shell weights read-only: four workers
    switching threads every microsecond give the serial rows."""
    monkeypatch.setenv("KP5_THREADS", "1")
    serial = strichartz_suite(5, 3)
    monkeypatch.setenv("KP5_THREADS", "4")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = strichartz_suite(5, 3)
    finally:
        sys.setswitchinterval(interval)
    assert serial.rows == threaded.rows
    assert serial.summary == threaded.summary


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_strichartz_computes_each_shell_weight_once(monkeypatch, threads):
    calls = []

    def counting(j, x):
        calls.append(j)
        return dyadic_eta(j, x)

    monkeypatch.setattr(kp5.spacetime, "dyadic_eta", counting)
    monkeypatch.setenv("KP5_THREADS", str(threads))
    strichartz_suite(5, 3)
    assert sorted(calls) == list(range(9))


@pytest.mark.parametrize(
    "suite, name",
    [(strichartz_suite, "j_values"), (strichartz_suite, "size"), (strichartz_suite, "threads"), (dyadic_suite, "j_max")],
)
def test_the_suite_sizes_and_workers_are_not_arguments(suite, name):
    with pytest.raises(TypeError):
        suite(5, 3, **{name: 1})


def test_strichartz_slope_is_the_least_squares_fit():
    report = strichartz_suite(5, 3)
    max_log2 = [report.summary["max_log2_ratio"][str(j)] for j in range(9)]
    assert report.summary["slope"] == pytest.approx(np.polyfit(np.arange(9.0), max_log2, 1)[0], rel=1e-12)


def test_thread_budget_env(monkeypatch):
    monkeypatch.delenv("KP5_THREADS", raising=False)
    assert thread_budget() == 1
    monkeypatch.setenv("KP5_THREADS", "3")
    assert thread_budget() == 3
    monkeypatch.setenv("KP5_THREADS", "zero")
    with pytest.raises(ConfigError):
        thread_budget()
    monkeypatch.setenv("KP5_THREADS", "0")
    with pytest.raises(ConfigError):
        thread_budget()
