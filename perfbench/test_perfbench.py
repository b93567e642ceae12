"""Self-tests of the benchmark: failure counting, trace repeatability, clean wrapping
and host-speed sampling.

    python3 -m pytest perfbench -q

The last test replays the lab's default configs (about two minutes on one core).
"""

from __future__ import annotations

import argparse
import inspect
import json

import pytest

from run import ROOT, bootstrap, run_workload

bootstrap()

from spans import COUNT_METRICS, Tracer, install_layer_wrappers  # noqa: E402
from workloads import (DEFAULT_CONFIGS, HELD_OUT_SEED, REFERENCE_SEED,  # noqa: E402
                       WORKLOADS, ConjugationWorkload, RunnerWorkload, load_references)

TINY_ZVONKIN = {"lambda_grid": [60.0], "time_steps": 4, "nodes_per_dim": 9,
                "quad_panels": 2, "quad_order": 4, "hermite_order": 5}
SMALL = {
    "harnack": RunnerWorkload("harnack", {
        "zvonkin": TINY_ZVONKIN,
        "harnack": {"train_pairs": 2, "holdout_pairs": 2, "samples": 200}}),
    "uniqueness": RunnerWorkload("uniqueness", {"uniqueness": {
        "dt_exponents": [6, 7], "reference_exponent": 8, "paths": 8}}),
    # the benchmark's own field: on 7 nodes the theta inversion does not converge
    "conjugation": ConjugationWorkload(WORKLOADS["conjugation"].grid, samples=200,
                                       dt_exponents=(6, 7)),
}


BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _args(name: str, trace: int, seed: int = 7) -> argparse.Namespace:
    return argparse.Namespace(workload=name, seed=seed, seconds=0.0, trace=trace)


def _references(workload, tmp_path) -> dict:
    ctx = workload.prepare(tmp_path)
    return {str(REFERENCE_SEED): {"report_hash": workload.call(ctx, REFERENCE_SEED).report_hash}}


def test_perturbed_report_counts_as_failed(tmp_path, monkeypatch):
    workload = SMALL["uniqueness"]
    refs = _references(workload, tmp_path)
    result, _ = run_workload(_args("uniqueness", 0), workload, refs, tmp_path, REFERENCE_SEED)
    assert (result["correct"], result["failed"], result["attempted"]) == (True, 0, 2)

    from fspdelab.experiments import ExperimentResult

    original = ExperimentResult.canonical_report
    monkeypatch.setattr(ExperimentResult, "canonical_report",
                        lambda self: original(self) + " ")
    result, record = run_workload(_args("uniqueness", 0), workload, refs, tmp_path,
                                  REFERENCE_SEED)
    assert result["failed"] == 1 and not result["correct"]
    assert record["problems"][0].startswith("reference seed")


def test_raising_call_counts_as_failed(tmp_path, monkeypatch):
    workload = SMALL["uniqueness"]
    refs = _references(workload, tmp_path)
    calls = []
    original = RunnerWorkload.call

    def flaky(self, ctx, seed):
        calls.append(seed)
        if len(calls) == 2:
            raise RuntimeError("injected")
        return original(self, ctx, seed)

    monkeypatch.setattr(type(workload), "call", flaky)
    args = _args("uniqueness", 0)
    args.seconds = 1e-9
    result, _ = run_workload(args, workload, refs, tmp_path, REFERENCE_SEED)
    assert result["failed"] == 1 and result["attempted"] == 2


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_counts_repeat_exactly(name, tmp_path):
    workload = SMALL[name]
    refs = _references(workload, tmp_path)
    runs = [run_workload(_args(name, 1), workload, refs, tmp_path, REFERENCE_SEED)[0]
            for _ in range(2)]
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    for result in runs:
        assert result["correct"], result
        assert set(result["metrics"]) == per_layer
    counts = [{k: r["metrics"][k]["value"] for k in COUNT_METRICS} for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["simulator.simulate_ensemble.path_steps"] > 0 or name == "conjugation"
    if name != "uniqueness":
        assert counts[0]["zvonkin.solve_u.sweeps"] > 0
    if name == "conjugation":
        assert counts[0]["zvonkin.invert_theta.iterations"] > 0


def _bound_attributes():
    from fspdelab import experiments, harnack, simulator, zvonkin

    targets = [(zvonkin, "solve_u"), (zvonkin, "lambda_threshold"),
               (zvonkin, "transform_coeffs"), (experiments, "simulate_ensemble"),
               (harnack, "simulate_ensemble"), (simulator, "simulate_ensemble"),
               (simulator, "dini_drift"), (harnack, "collect_pair_estimates"),
               (harnack, "conjugation_check"), (simulator.SegmentView, "sup_norm"),
               (simulator.NoisePath, "generate"), (zvonkin.RegularizingField, "u_at"),
               (zvonkin.RegularizingField, "invert_theta")]
    return {(owner.__name__, attr): inspect.getattr_static(owner, attr)
            for owner, attr in targets}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_wrapping_keeps_report_hash_and_restores(name, tmp_path):
    workload = SMALL[name]
    before = _bound_attributes()
    plain = workload.call(workload.prepare(tmp_path), 11)

    tracer = Tracer()
    install_layer_wrappers(tracer)
    assert _bound_attributes() != before
    try:
        with tracer.span("experiments"):
            traced = workload.call(workload.prepare(tmp_path), 11)
    finally:
        assert tracer.uninstall() == []
    assert traced == plain
    assert _bound_attributes() == before
    assert len(tracer.names) > 1


def test_host_speed_sampling_keeps_report_hash_and_restores(tmp_path):
    import signal
    import time

    from calibrate import PERIOD_S, HostSpeed

    workload = SMALL["uniqueness"]
    ctx = workload.prepare(tmp_path)
    plain = workload.call(ctx, 11)
    before = signal.getsignal(signal.SIGALRM)
    with HostSpeed() as speed:
        sampled = workload.call(ctx, 11)
        time.sleep(3 * PERIOD_S)  # resumed after each pass
    assert sampled == plain
    assert len(speed.passes) >= 2
    assert speed.handler_wall_s >= sum(speed.passes) > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_recorded_references_reproduce(tmp_path):
    """The committed hashes: benchmark workloads on both seeds, runner defaults on one."""
    refs = load_references()
    assert "20240801" in refs["default_config"]["uniqueness"]
    expected_prefix = {"harnack": "b537a9a7aecd", "solve-u": "ec16805c1640",
                       "uniqueness": "de4b1c31e089"}
    for name, workload in DEFAULT_CONFIGS.items():
        out = workload.call(tmp_path, REFERENCE_SEED)
        assert out.report_hash.startswith(expected_prefix[name])
        assert out.report_hash == refs["default_config"][name][str(REFERENCE_SEED)]["report_hash"]
    for name, workload in WORKLOADS.items():
        ctx = workload.prepare(tmp_path)
        for seed in (REFERENCE_SEED, HELD_OUT_SEED):
            out = workload.call(ctx, seed)
            assert out.report_hash == refs[name][str(seed)]["report_hash"], (name, seed)
            assert out.verdicts == refs[name][str(seed)]["verdicts"]
