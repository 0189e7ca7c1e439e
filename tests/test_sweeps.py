import sys

import pytest

import kp5.spacetime
from kp5.cutoffs import dyadic_eta
from kp5.errors import ConfigError
from kp5.sweeps import SUITES, run_suite, strichartz_suite, thread_budget


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


def test_suite_reports_are_seed_deterministic():
    a = run_suite("resonance", 7, 300)
    b = run_suite("resonance", 7, 300)
    assert a == b
    c = run_suite("resonance", 8, 300)
    assert c.summary["max_defect"] != a.summary["max_defect"]


def test_strichartz_worker_count_invariance():
    """Per-sample tasks share the compact shell weights read-only: four workers
    switching threads every microsecond give the serial rows."""
    serial = strichartz_suite(5, 3, j_values=(0, 3, 5), size=16, threads=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = strichartz_suite(5, 3, j_values=(0, 3, 5), size=16, threads=4)
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
    strichartz_suite(5, 3, j_values=(0, 2, 3), size=16, threads=threads)
    assert sorted(calls) == [0, 2, 3]


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
