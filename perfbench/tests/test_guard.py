"""The determinism guard, on a reduced co-run."""

import pytest

from perfbench import workloads
from perfbench.harness import check_outputs, one_rep


@pytest.fixture
def small_corun(monkeypatch):
    monkeypatch.setattr(workloads.CoRunSaba, "N_TOR", 2)
    monkeypatch.setattr(workloads.CoRunSaba, "CORUNS", 1)
    return workloads.CoRunSaba(seed=3)


def test_repetitions_with_reset_match(small_corun):
    workload = small_corun
    reference = one_rep(workload, None, None, 0).rep.outputs
    one_rep(workload, reference, None, 1)


def test_guard_fires_when_flow_id_reset_is_skipped(small_corun, monkeypatch):
    workload = small_corun
    reference = one_rep(workload, None, None, 0).rep.outputs
    monkeypatch.setattr(workloads, "reset_flow_ids", lambda start=0: None)
    with pytest.raises(workloads.BenchError):
        one_rep(workload, reference, None, 1)


def test_check_outputs_tolerance():
    want = {"flows": 3, "sim_completion_s": 1.0, "acct": {"a": 1}}
    check_outputs(want, {"flows": 3, "sim_completion_s": 1.0 + 1e-12,
                         "acct": {"a": 1}}, "ok")
    with pytest.raises(workloads.BenchError):
        check_outputs(want, {"flows": 3, "sim_completion_s": 1.0 + 1e-6,
                             "acct": {"a": 1}}, "drift")
    with pytest.raises(workloads.BenchError):
        check_outputs(want, {"flows": 3, "sim_completion_s": 1.0,
                             "acct": {"a": 2}}, "accounting")
