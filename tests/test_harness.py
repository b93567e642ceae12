import json
from dataclasses import replace

import numpy as np
import pytest

from fspdelab import analysis as an
from fspdelab import experiments, zvonkin
from fspdelab import simulator as sim
from fspdelab.cli import main
from fspdelab.config import ExperimentConfig
from fspdelab.errors import CertificationError, ConfigError
from fspdelab.experiments import (RUNNERS, fit_order, run_classcheck, run_galerkin,
                                  run_nonexplosion, run_simulate, run_uniqueness)
from fspdelab.segment import SegmentPath, _steps, stopping_time


class TestConfig:
    def test_defaults_validate_for_all_experiments(self):
        for name in RUNNERS:
            cfg = ExperimentConfig.defaults(name)
            assert cfg.experiment == name
            assert len(cfg.hash()) == 64

    def test_grid_step_must_divide_delay(self):
        with pytest.raises(ConfigError, match="time.delay"):
            ExperimentConfig.defaults("simulate", {"time": {"grid_step": 0.3}})

    def test_sample_floor(self):
        with pytest.raises(ConfigError, match="samples"):
            ExperimentConfig.defaults("simulate", {"montecarlo": {"samples": 10}})

    def test_harnack_needs_horizon_beyond_delay(self):
        with pytest.raises(ConfigError, match="horizon"):
            ExperimentConfig.defaults("harnack", {"time": {"horizon": 0.25,
                                                           "delay": 0.25}})

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.defaults("nope")

    def test_file_loading_with_overrides(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"montecarlo": {"seed": 9}}))
        cfg = ExperimentConfig.from_file("simulate", str(path),
                                         {"montecarlo": {"samples": 256}})
        assert cfg.data["montecarlo"]["seed"] == 9
        assert cfg.data["montecarlo"]["samples"] == 256

    def test_malformed_file_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file("simulate", str(path))

    def test_rule_named_and_benchmark_keys_accepted(self, tmp_path, monkeypatch):
        import importlib.util
        import sys
        from pathlib import Path

        # keys no default defines but a rule checks
        ExperimentConfig.defaults("simulate", {"coefficients": {"drift": {"kind": "cubic",
                                                                          "coeff": 2.0}}})
        ExperimentConfig.defaults("simulate", {"harnack": {"samples": 2000}})
        # every override the benchmark's workloads pass
        path = Path(__file__).parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        runners = [wl for wl in (*workloads.WORKLOADS.values(),
                                 *workloads.DEFAULT_CONFIGS.values())
                   if isinstance(wl, workloads.RunnerWorkload)]
        assert len(runners) == 6
        for wl in runners:
            wl.config(4242, tmp_path)
        workloads.ConjugationWorkload._coefficients()

    @pytest.mark.parametrize("config, name", [
        ({"montecarol": {"samples": 5}}, "montecarol"),
        ({"montecarlo": {"sampels": 5}}, "montecarlo.sampels"),
        ({"coefficients": {"drift": {"kind": "linear", "rate": 1.0, "rat": 2.0}}},
         "coefficients.drift.rat"),
        ({"time": {"horizon": {"value": 1.0}}}, "time.horizon.value"),
    ], ids=["section", "key", "coefficient-key", "key-below-a-value"])
    def test_unknown_key_rejected(self, config, name):
        with pytest.raises(ConfigError, match=f"^{name} is not a config key$"):
            ExperimentConfig.defaults("simulate", config)

    def test_hash_changes_with_content(self):
        a = ExperimentConfig.defaults("simulate")
        b = ExperimentConfig.defaults("simulate", {"montecarlo": {"seed": 1}})
        assert a.hash() != b.hash()

    @pytest.mark.parametrize("experiment, digest", [
        ("classcheck", "a246fca281171206f80a6b2ac8f3b212ec2b454490e0faf62b21a380529cb66d"),
        ("simulate", "790a1e19eeec156448e4c761ed6661c7511a8685e54970eb29be6b1b6513e0ee"),
        ("solve-u", "eadc14f16bc001c79e587c45caa472f9212fd5d3958209f009d6b43433dedfce"),
        ("uniqueness", "1038fe745886a8545512e3f4996ff3882c5f042c357a77bbe9a390e3ecbaa9bf"),
        ("galerkin", "2ecab8a415081d5e7570f6a0ed41aad79b3f56b1044b5e8f09d1ce29394cb6a7"),
        ("nonexplosion", "6bd8277d698309b26f02988454bc6995efffb6970c13885a38f865a96f05c011"),
        ("harnack", "19e2645232b86f582d46b231460bb0ceeee65b2b438af3e7c51faab6bb5d8d13"),
    ])
    def test_default_config_hashes_are_pinned(self, experiment, digest):
        # every report records this hash: an edit to the defaults moves them all
        assert ExperimentConfig.defaults(experiment).hash() == digest


class TestClasscheckExperiment:
    def test_all_verdicts_pass(self):
        result = run_classcheck(ExperimentConfig.defaults("classcheck"))
        assert result.passed
        assert result.verdicts["prime_subset_of_full"]


class TestSimulateExperiment:
    def test_default_report_hash_is_pinned(self):
        result = run_simulate(ExperimentConfig.defaults("simulate"))
        assert result.report_hash() == \
            "d41aaf9727f014887e890bd62180b24f233232a7458321d3b1685ce6d6f2d35e"

    def test_trajectory_table_written(self, tmp_path):
        result = run_simulate(ExperimentConfig.defaults("simulate"))
        assert result.passed
        report = result.write(tmp_path)
        assert report.exists()
        csv = tmp_path / "simulate_trajectory.csv"
        header = csv.read_text().splitlines()
        assert header[0].startswith("# experiment=simulate")
        assert any(line.startswith("# seed=") for line in header[:3])

    def test_exploding_path_ends_at_life_time(self, tmp_path):
        cfg = ExperimentConfig.defaults("simulate", {
            "coefficients": {"drift": {"kind": "cubic", "coeff": 1.0}},
            "time": {"horizon": 3.0}})
        result = run_simulate(cfg)
        life = result.metrics["life_time"]
        assert life < 3.0
        assert not result.verdicts["non_explosive"]
        result.write(tmp_path)
        lines = (tmp_path / "simulate_trajectory.csv").read_text().splitlines()
        assert float(lines[-1].split(",")[0]) == pytest.approx(life, abs=1e-12)
        # the same run again: its stored norms from t = 0 on, up to the horizon
        spec = experiments.build_spectrum(cfg)
        delay, dt = cfg.data["time"]["delay"], cfg.data["time"]["grid_step"]
        coeffs = experiments.build_coefficients(cfg, spec, delay)
        res = sim.simulate_ensemble(
            coeffs, experiments.default_initial_segment(spec, delay, dt), 3.0, dt, spec,
            sim.NoisePath.generate(cfg.data["montecarlo"]["seed"], _steps(3.0, dt),
                                   coeffs.noise_dim, dt))
        assert res.life_times[0] == life
        norms = res.norms[_steps(delay, dt):, 0]
        assert result.metrics["stopping_times"] == {
            str(n): stopping_time(norms, dt, float(n)) for n in (1, 2, 4, 8)}


class TestUniquenessExperiment:
    def test_default_report_hash_is_pinned(self):
        # the default-config reference of the uniqueness benchmark workload
        result = run_uniqueness(ExperimentConfig.defaults("uniqueness"))
        assert result.report_hash() == \
            "de4b1c31e0898d084588f980838c51bad1d8a852631f04c2b13d651af27cd164"

    def test_zero_noise_zero_drift_distance_exactly_zero(self):
        cfg = ExperimentConfig.defaults("uniqueness", {
            "coefficients": {"drift": {"kind": "zero"},
                             "delay_drift": {"kind": "zero"},
                             "diffusion": {"kind": "diag", "q": 1e-300}},
            "uniqueness": {"dt_exponents": [6, 7], "reference_exponent": 8,
                           "paths": 8},
        })
        result = run_uniqueness(cfg)
        assert result.metrics["pair_gaps"] == [0.0, 0.0]
        assert result.verdicts["truncation_agreement"]
        assert result.verdicts["order_in_band"]  # degenerate exact regime

    def test_time_cutoff_binding_report_hash_is_pinned(self, monkeypatch):
        # level 1.5 lies below the horizon 2, so the truncated coefficients clamp
        # time; the hash was recorded when each level ran as its own ensemble
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return sim.simulate_ensemble(*args, **kwargs)

        monkeypatch.setattr(experiments, "simulate_ensemble", counted)
        cfg = ExperimentConfig.defaults("uniqueness", {
            "time": {"horizon": 2.0},
            "uniqueness": {"level": 1.5, "dt_exponents": [6, 7], "reference_exponent": 8,
                           "paths": 8},
        })
        result = run_uniqueness(cfg)
        assert result.report_hash() == \
            "6537da8117bc3fb0e56b86df9ca70284411b8b7715fb8305ed676bbdb3a4ec47"
        # the reference run, then one ensemble holding both levels per step size
        assert len(calls) == 1 + len(cfg.section("uniqueness")["dt_exponents"])

    def test_linear_coefficients_distance_roundoff(self):
        cfg = ExperimentConfig.defaults("uniqueness", {
            "coefficients": {"drift": {"kind": "linear", "rate": 1.0},
                             "delay_drift": {"kind": "shift", "beta": 0.3},
                             "diffusion": {"kind": "diag", "q": 0.5}},
            "uniqueness": {"dt_exponents": [6, 7], "reference_exponent": 8,
                           "paths": 8},
        })
        result = run_uniqueness(cfg)
        assert max(result.metrics["pair_gaps"]) <= 1e-12


def _padded_projection(coeffs: sim.CoefficientSet, n_full: int, n: int) -> sim.CoefficientSet:
    """Galerkin image of n_full-mode coefficients on the first n modes: embed, evaluate, project."""

    def pad(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (n_full,))
        out[..., :n] = x
        return out

    class PaddedView:
        def __init__(self, view):
            self._view = view

        def value_at(self, s):
            return pad(self._view.value_at(s))

        def sup_norm(self):
            return self._view.sup_norm()

    diag = None if coeffs.diag_noise is None else coeffs.diag_noise[:n]
    # zero-padding keeps |x|, so the n-mode norms are passed on as they are
    return replace(
        coeffs, drift=lambda t, x, norms: np.asarray(
            coeffs.drift(t, pad(x), norms), dtype=float)[..., :n],
        delay_drift=lambda t, view: np.asarray(
            coeffs.delay_drift(t, PaddedView(view)), dtype=float)[..., :n],
        diffusion=lambda t, x, norms: np.asarray(
            coeffs.diffusion_matrix(t, pad(x), norms), dtype=float)[..., :n, :n],
        diag_noise=diag, noise_dim=n)


class TestGalerkinExperiment:
    def test_default_report_hash_is_pinned(self):
        # recorded when the sub-runs projected the 32-mode coefficients
        result = run_galerkin(ExperimentConfig.defaults("galerkin"))
        assert result.report_hash() == \
            "45928fae296b149afbad1e32bf2dc3bed51f2a87695cd0404c3e6ee738e6a509"

    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("diffusion", [
        {"kind": "diag"}, {"kind": "state_diag", "amplitude": 0.8, "frequency": 3.0}])
    @pytest.mark.parametrize("delay_drift", ["shift", "tanh", "zero"])
    @pytest.mark.parametrize("drift", [
        {"kind": "dini"}, {"kind": "linear", "rate": 1.0}, {"kind": "cubic"}, {"kind": "zero"}])
    def test_sub_run_built_at_n_modes_equals_the_projection_bytes(self, drift, delay_drift,
                                                                   diffusion, n):
        # every built-in coefficient commutes with zero-padding, so the
        # n-mode system of the config steps exactly as the projected one
        cfg = ExperimentConfig.defaults("galerkin", {
            "spectrum": {"n_modes": 8},
            "coefficients": {"drift": drift, "delay_drift": {"kind": delay_drift},
                             "diffusion": diffusion},
            "galerkin": {"mode_counts": [1, 2, 5], "reference_modes": 8, "paths": 8},
        })
        spec, delay, horizon, dt, seed, coeffs = experiments._inputs(cfg)
        xi = experiments.default_initial_segment(spec, delay, dt)
        noise = sim.NoisePath.generate(seed, _steps(horizon, dt), coeffs.noise_dim, dt, 8)
        sub_spec = an.Spectrum(n, spec.growth_coeff, spec.growth_power, spec.trace_exponent)
        sub_xi = SegmentPath(delay, dt, xi.values[:, :n])
        sub_noise = sim.NoisePath(noise.increments[:, :, :n], dt)
        built, projected = (sim.simulate_ensemble(c, sub_xi, horizon, dt, sub_spec, sub_noise)
                            for c in (experiments.build_coefficients(cfg, sub_spec, delay),
                                      _padded_projection(coeffs, spec.n_modes, n)))
        assert built.states.tobytes() == projected.states.tobytes()
        assert np.isfinite(built.states).all() and built.states[-1].any()

    def test_reference_level_error_exactly_zero(self):
        cfg = ExperimentConfig.defaults("galerkin", {
            "spectrum": {"n_modes": 8},
            "galerkin": {"mode_counts": [2, 4], "reference_modes": 8, "paths": 32},
        })
        result = run_galerkin(cfg)
        assert result.metrics["errors"][-1] == 0.0
        assert result.verdicts["strictly_decreasing"]

    def test_decoupled_linear_error_is_high_mode_energy(self):
        # with zero drifts the modes decouple, so the projection error is
        # exactly the reference's energy above the cut; oracle = per-mode
        # linear simulation of those high modes with the same noise columns
        cfg = ExperimentConfig.defaults("galerkin", {
            "spectrum": {"n_modes": 8},
            "coefficients": {"drift": {"kind": "zero"},
                             "delay_drift": {"kind": "zero"},
                             "diffusion": {"kind": "diag", "q": 0.5}},
            "galerkin": {"mode_counts": [2, 4], "reference_modes": 8, "paths": 64},
        })
        result = run_galerkin(cfg)

        spec = an.Spectrum(8)
        t = cfg.section("time")
        delay, horizon, dt = t["delay"], t["horizon"], t["grid_step"]
        seed = cfg.section("montecarlo")["seed"]
        from fspdelab.experiments import default_initial_segment

        xi = default_initial_segment(spec, delay, dt)
        steps = _steps(horizon, dt)
        lags = _steps(delay, dt)
        noise = sim.NoisePath.generate(seed, steps, 8, dt, 64)
        coeffs = sim.make_coefficients(8, diag_noise=0.5 * np.ones(8))
        ref = sim.simulate_ensemble(coeffs, xi, horizon, dt, spec, noise)
        for n, err in zip([2, 4], result.metrics["errors"]):
            tail = ref.states[-lags - 1:].copy()
            tail[:, :, :n] = 0.0
            oracle = float(np.mean(np.linalg.norm(tail, axis=-1).max(axis=0) ** 2))
            assert err == pytest.approx(oracle, abs=1e-12)


class TestNonexplosionExperiment:
    def test_default_report_hash_is_pinned(self):
        result = run_nonexplosion(ExperimentConfig.defaults("nonexplosion"))
        assert result.report_hash() == \
            "8904394dc1310cc6fa309f85795e784669e77ea7cb4ca0d1372b5063cbae2b89"

    def test_linear_dissipative_dominated_by_gronwall_curve(self):
        # comparison pair Phi = K s, h = K s^2 + c matches the analytic
        # alpha * exp(2 K t) envelope of the quadratic comparison argument
        spec = an.Spectrum(2)
        kappa = 1.0
        coeffs = sim.make_coefficients(2, drift=sim.linear_drift(kappa),
                                       diag_noise=0.3 * np.ones(2))
        K = kappa / 2.0 + 0.25
        lyap = sim.LyapunovSpec(
            comparison=lambda t, s: K * np.asarray(s, dtype=float) + 1e-6,
            forcing=lambda t, s: K * np.asarray(s, dtype=float) ** 2 + 1e-6)
        dt = 1.0 / 128.0
        xi = SegmentPath.constant(np.array([0.8, -0.5]), 0.25, dt)
        noise = sim.NoisePath.generate(13, _steps(1.0, dt), coeffs.noise_dim, dt, 200)
        result = sim.simulate_ensemble(coeffs, xi, 1.0, dt, spec, noise, record_convolution=True)
        margins = sim.bihari_margin(lyap, xi, result)
        assert np.min(margins) >= -1e-8
        # direct comparison against the closed Gronwall form per path
        lags = _steps(0.25, dt)
        y = result.states - result.convolution
        running = np.maximum.accumulate(np.linalg.norm(y, axis=-1) ** 2, axis=0)[lags:]
        alpha = sim.bihari_alpha(lyap, xi, result.convolution, 1.0, dt)
        times = dt * np.arange(running.shape[0])
        curve = alpha[None, :] * np.exp(2.0 * K * times[:, None]) \
            * np.exp(2e-6 * times[:, None] / 1.0)  # epsilon shift slack
        assert np.all(running <= curve * (1.0 + 1e-6) + 1e-9)

    def test_zero_coefficients_sup_below_initial(self):
        cfg = ExperimentConfig.defaults("nonexplosion", {
            "coefficients": {"drift": {"kind": "zero"},
                             "delay_drift": {"kind": "zero"},
                             "diffusion": {"kind": "diag", "q": 1e-300}},
            "nonexplosion": {"paths": 100, "negative_control": False},
        })
        result = run_nonexplosion(cfg)
        assert result.verdicts["zero_explosions"]
        assert result.verdicts["comparison_dominates"]

    def test_negative_control_explodes(self):
        cfg = ExperimentConfig.defaults("nonexplosion", {
            "nonexplosion": {"paths": 100, "negative_control": True}})
        result = run_nonexplosion(cfg)
        assert result.metrics["control_exploded"] > 0
        assert result.verdicts["negative_control_explodes"]


class TestHarnackExperiment:
    def test_trivial_drift_campaign_passes(self):
        cfg = ExperimentConfig.defaults("harnack", {
            "coefficients": {"drift": {"kind": "zero"}},
            "zvonkin": {"lambda_grid": [60.0], "time_steps": 6, "nodes_per_dim": 9},
            "harnack": {"train_pairs": 3, "holdout_pairs": 3, "samples": 1000},
        })
        from fspdelab.experiments import run_harnack_campaign

        result = run_harnack_campaign(cfg)
        assert result.passed
        assert result.metrics["threshold_lambda"] == 60.0
        assert result.metrics["bounds"]["K2"] == 0.0  # diffusion untouched


SMALL_CAMPAIGN = {
    "zvonkin": {"lambda_grid": [80.0, 40.0, 160.0], "time_steps": 6, "nodes_per_dim": 11,
                "quad_panels": 2, "quad_order": 4, "hermite_order": 5},
    "harnack": {"train_pairs": 2, "holdout_pairs": 2, "samples": 200},
}


def _recorded_solves(monkeypatch, spoiled=()):
    """Record the lam of every `zvonkin.solve_u` call; fields at `spoiled` lams fail hess."""
    solved = []
    real = zvonkin.solve_u

    def solve(ref, drift, lam, *args, **kwargs):
        solved.append(lam)
        field = real(ref, drift, lam, *args, **kwargs)
        if lam in spoiled:
            field = replace(field, norms={**field.norms, "hess": 1.0})
        return field

    monkeypatch.setattr(zvonkin, "solve_u", solve)
    return solved


class TestHarnackLambdaEarlyStop:
    def test_lowest_certified_lambda_is_the_only_solve(self, monkeypatch):
        cfg = ExperimentConfig.defaults("harnack", SMALL_CAMPAIGN)
        solved = _recorded_solves(monkeypatch)
        early = experiments.run_harnack_campaign(cfg)
        assert solved == [40.0]
        assert early.metrics["threshold_lambda"] == 40.0

        # selection from the full grid: every lam solved, then one threshold pick
        lazy = experiments._solve_fields
        monkeypatch.setattr(experiments, "_solve_fields", lambda *args: list(lazy(*args)))
        full = experiments.run_harnack_campaign(cfg)
        assert solved == [40.0, 40.0, 80.0, 160.0]
        assert full.report_hash() == early.report_hash()

    def test_lambda_failing_the_caps_moves_to_the_next(self, monkeypatch):
        cfg = ExperimentConfig.defaults("harnack", SMALL_CAMPAIGN)
        solved = _recorded_solves(monkeypatch, spoiled={40.0})
        result = experiments.run_harnack_campaign(cfg)
        assert solved == [40.0, 80.0]
        assert result.metrics["threshold_lambda"] == 80.0

    def test_no_certified_lambda_names_every_lambda(self, monkeypatch):
        cfg = ExperimentConfig.defaults("harnack", SMALL_CAMPAIGN)
        solved = _recorded_solves(monkeypatch, spoiled={40.0, 80.0, 160.0})
        with pytest.raises(CertificationError) as err:
            experiments.run_harnack_campaign(cfg)
        assert solved == [40.0, 80.0, 160.0]
        for lam in ("40.0", "80.0", "160.0"):
            assert f"{lam}: ['hess<=1/8']" in str(err.value)


class TestCli:
    def test_classcheck_exit_zero_and_report(self, tmp_path, capsys):
        code = main(["classcheck", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "experiment=classcheck" in out
        assert "verdict=pass" in out
        report = json.loads((tmp_path / "classcheck_result.json").read_text())
        assert report["experiment"] == "classcheck"

    def test_config_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"montecarlo": {"samples": 5}}))
        code = main(["simulate", "--config", str(bad)])
        assert code == 2
        assert "config_error" in capsys.readouterr().out

    def test_runtime_config_error_exit_two(self, tmp_path, capsys):
        # cross-section invariant violated only once the experiment assembles
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"galerkin": {"reference_modes": 8}}))
        code = main(["galerkin", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 2
        assert "config_error" in capsys.readouterr().out

    def test_uniqueness_dt_not_below_reference_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"uniqueness": {"dt_exponents": [6, 9],
                                                  "reference_exponent": 8}}))
        code = main(["uniqueness", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 2
        assert "config_error" in capsys.readouterr().out

    @pytest.mark.parametrize("experiment, config", [
        ("harnack", {"harnack": {"power_factors": [0.5, 1.0]}}),  # p <= floor (1+K)^2
        ("harnack", {"harnack": {"power_factors": []}}),          # no power compared
        ("harnack", {"harnack": {"train_pairs": 0}}),             # nothing to fit on
        ("harnack", {"harnack": {"holdout_pairs": 0}}),           # no holdout evidence
        ("uniqueness", {"uniqueness": {"dt_exponents": []}}),
        ("uniqueness", {"uniqueness": {"dt_exponents": [7], "reference_exponent": 8,
                                       "paths": 16}}),            # no slope to fit
        ("galerkin", {"galerkin": {"mode_counts": []}}),
        ("galerkin", {"spectrum": {"n_modes": 8},
                      "galerkin": {"mode_counts": [2], "reference_modes": 8,
                                   "paths": 32}}),                # nothing to compare
    ], ids=["harnack-low-powers", "harnack-no-powers", "harnack-no-train",
            "harnack-no-holdout", "uniqueness-no-dt", "uniqueness-one-dt",
            "galerkin-no-modes", "galerkin-one-count"])
    def test_config_without_evidence_exit_two(self, tmp_path, capsys, experiment, config):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        code = main([experiment, "--config", str(bad), "--out", str(tmp_path)])
        assert code == 2
        assert "config_error" in capsys.readouterr().out

    @pytest.mark.parametrize("level", [0.5, 1e-9])
    def test_uniqueness_level_not_above_start_exit_two(self, tmp_path, capsys, level):
        # the default |xi(0)| is 0.83: every comparison would stop at t = 0,
        # and both verdicts would pass on gaps and errors of exactly 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"uniqueness": {"level": level, "dt_exponents": [6, 7],
                                                  "reference_exponent": 8}}))
        code = main(["uniqueness", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 2
        assert "message=ConfigError('uniqueness.level must exceed |xi(0)| = 0.828" in \
            capsys.readouterr().out

    @pytest.mark.parametrize("experiment, config, section", [
        ("classcheck", {"spectrum": {"coeff": -1.0}}, "spectrum"),
        ("simulate", {"spectrum": {"coeff": -1.0}}, "spectrum"),
        ("classcheck", {"spectrum": {"power": -1.0}}, "spectrum"),
        ("simulate", {"coefficients": {"diffusion": {"kind": "state_diag", "q": 1.0,
                                                     "amplitude": 1.5}}},
         "coefficients.diffusion"),
    ], ids=["classcheck-negative-coeff", "simulate-negative-coeff",
            "classcheck-negative-power", "simulate-amplitude-above-one"])
    def test_invalid_model_parameter_exit_two(self, tmp_path, capsys, experiment, config,
                                              section):
        # the constructor's rule surfaces as a config error naming the section
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        code = main([experiment, "--config", str(bad), "--out", str(tmp_path)])
        assert code == 2
        out = capsys.readouterr().out
        assert "config_error" in out
        assert f"message=ConfigError('{section}: " in out

    @pytest.mark.parametrize("key, value", [("n_modes", "2"), ("coeff", "abc")])
    def test_non_numeric_spectrum_exit_two(self, tmp_path, capsys, key, value):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"spectrum": {key: value}}))
        code = main(["classcheck", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 2
        assert f"message=ConfigError('spectrum.{key} must be a number')" in \
            capsys.readouterr().out

    @pytest.mark.parametrize("value", [2.5, True])
    def test_non_integer_n_modes_exit_two(self, tmp_path, capsys, value):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"spectrum": {"n_modes": value}}))
        code = main(["classcheck", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 2
        assert "message=ConfigError('spectrum.n_modes must be an integer')" in \
            capsys.readouterr().out

    @pytest.mark.parametrize("key, value, message", [
        ("nodes_per_dim", 9.7, "must be an integer"),
        ("time_steps", True, "must be an integer"),
        ("quad_order", "6", "must be an integer"),
        ("nodes_per_dim", 2, "must be at least 5"),
        ("nodes_per_dim", 1, "must be at least 5"),
        ("nodes_per_dim", 6, "must be odd"),
        ("time_steps", 0, "must be at least 1"),
        ("quad_panels", 0, "must be at least 1"),
        ("hermite_order", 0, "must be at least 1"),
        ("lambda_grid", [], "must be a non-empty list of positive numbers"),
        ("lambda_grid", [40.0, -1.0], "must be a non-empty list of positive numbers"),
        ("lambda_grid", [True], "must be a non-empty list of positive numbers"),
        ("lambda_grid", 40.0, "must be a non-empty list of positive numbers"),
        ("halfwidth", 0.0, "must be a positive number"),
        ("halfwidth", -3.0, "must be a positive number"),
        ("halfwidth", 0.01, "must exceed 0.02, the innermost node of the grid axis"),
        ("halfwidth", 0.02, "must exceed 0.02, the innermost node of the grid axis"),
    ], ids=["nodes-fraction", "time-steps-bool", "quad-order-string", "nodes-2", "nodes-1",
            "nodes-6", "time-steps-0", "quad-panels-0", "hermite-order-0", "lambdas-empty",
            "lambdas-negative", "lambdas-bool", "lambdas-scalar", "halfwidth-0",
            "halfwidth-negative", "halfwidth-0.01", "halfwidth-0.02"])
    def test_invalid_zvonkin_grid_exit_two(self, tmp_path, capsys, key, value, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"zvonkin": {key: value}}))
        code = main(["solve-u", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 2
        assert f"message=ConfigError('zvonkin.{key} {message}')" in capsys.readouterr().out

    @pytest.mark.parametrize("experiment, config, message", [
        ("simulate", {"montecarlo": {"samples": "abc"}}, "montecarlo.samples must be an integer"),
        ("simulate", {"montecarlo": {"seed": 1.5}}, "montecarlo.seed must be an integer"),
        ("simulate", {"montecarlo": {"seed": -1}}, "montecarlo.seed must be at least 0"),
        ("simulate", {"time": {"delay": True}}, "time.delay must be a positive number"),
        ("harnack", {"harnack": {"train_pairs": 1.5}}, "harnack.train_pairs must be an integer"),
        ("uniqueness", {"uniqueness": {"level": -1}}, "uniqueness.level must be a positive number"),
        ("uniqueness", {"uniqueness": {"paths": 0}}, "uniqueness.paths must be at least 1"),
        ("nonexplosion", {"nonexplosion": {"paths": 0}}, "nonexplosion.paths must be at least 1"),
        ("galerkin", {"galerkin": {"mode_counts": [0, 4]}},
         "galerkin.mode_counts entries must be at least 1"),
        ("simulate", {"coefficients": {"drift": {"kind": "linear"}}},
         "coefficients.drift.rate must be a number for a linear drift"),
        ("simulate", {"coefficients": {"drift": "dini"}}, "coefficients.drift must be an object"),
        ("uniqueness", {"uniqueness": {"dt_exponents": [6.5, 7]}},
         "uniqueness.dt_exponents entries must be an integer"),
        ("uniqueness", {"uniqueness": {"dt_exponents": [6, "7"]}},
         "uniqueness.dt_exponents entries must be an integer"),
        ("uniqueness", {"uniqueness": {"reference_exponent": 11.0}},
         "uniqueness.reference_exponent must be an integer"),
        ("harnack", {"harnack": {"power_factors": ["x"]}},
         "harnack.power_factors must be a non-empty list of factors above 1 "
         "(powers above the floor (1+K)^2)"),
        ("simulate", {"coefficients": {"drift": {"kind": "dini", "scale": "abc"}}},
         "coefficients.drift.scale must be a number"),
        ("simulate", {"coefficients": {"drift": {"kind": "cubic", "coeff": True}}},
         "coefficients.drift.coeff must be a number"),
        ("simulate", {"coefficients": {"delay_drift": {"kind": "shift", "beta": "abc"}}},
         "coefficients.delay_drift.beta must be a number"),
        ("simulate", {"coefficients": {"diffusion": {"kind": "state_diag", "q": 1.0,
                                                     "frequency": "3"}}},
         "coefficients.diffusion.frequency must be a number"),
        ("nonexplosion", {"nonexplosion": {"comparison_margin": "abc"}},
         "nonexplosion.comparison_margin must be a number"),
        ("nonexplosion", {"nonexplosion": {"control_start": None}},
         "nonexplosion.control_start must be a number"),
        ("nonexplosion", {"nonexplosion": {"control_horizon": "abc"}},
         "nonexplosion.control_horizon must be a positive number"),
        ("nonexplosion", {"nonexplosion": {"control_horizon": 0}},
         "nonexplosion.control_horizon must be a positive number"),
        ("nonexplosion", {"nonexplosion": {"negative_control": "no"}},
         "nonexplosion.negative_control must be true or false"),
        ("uniqueness", {"uniqueness": {"dt_exponents": [0, 1], "reference_exponent": 2,
                                       "paths": 4}},
         "uniqueness step 2^-0 must divide time.delay and time.horizon"),
        ("nonexplosion", {"nonexplosion": {"paths": 4, "control_horizon": 0.3}},
         "time.grid_step must divide nonexplosion.control_horizon"),
        ("solve-u", {"coefficients": {"diffusion": {"kind": "diag", "q": 0}}},
         "coefficients.diffusion.q must be a positive number"),
        ("harnack", {"harnack": {"pair_scale": "abc"}},
         "harnack.pair_scale must be a positive number"),
        ("classcheck", {"spectrum": {"coeff": True}}, "spectrum.coeff must be a number"),
        ("solve-u", {"spectrum": {"n_modes": 4}},
         "spectrum.n_modes must be at most 3 for a tabulated field"),
        ("harnack", {"spectrum": {"n_modes": 4}},
         "spectrum.n_modes must be at most 3 for a tabulated field"),
        ("classcheck", {"time": 5}, "time must be an object"),
        ("classcheck", {"spectrum": 5}, "spectrum must be an object"),
        ("uniqueness", {"uniqueness": []}, "uniqueness must be an object"),
        ("simulate", {"coefficients": 5}, "coefficients must be an object"),
        ("simulate", {"montecarlo": "x"}, "montecarlo must be an object"),
        ("solve-u", {"zvonkin": 3}, "zvonkin must be an object"),
    ], ids=["samples-string", "seed-fraction", "seed-negative", "delay-bool",
            "train-pairs-fraction", "level-negative", "uniqueness-paths-0",
            "nonexplosion-paths-0", "mode-count-0", "linear-without-rate", "drift-string",
            "dt-exponent-fraction", "dt-exponent-string", "reference-exponent-float",
            "power-factor-string", "drift-scale-string", "cubic-coeff-bool",
            "beta-string", "frequency-string", "margin-string", "control-start-null",
            "control-horizon-string", "control-horizon-0", "negative-control-string",
            "uniqueness-step-off-grid", "control-horizon-off-grid", "diffusion-q-0",
            "pair-scale-string", "spectrum-coeff-bool", "solve-u-modes-above-cap",
            "harnack-modes-above-cap", "time-number", "spectrum-number", "uniqueness-list",
            "coefficients-number", "montecarlo-string", "zvonkin-number"])
    def test_invalid_section_value_exit_two(self, tmp_path, capsys, experiment, config,
                                            message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(config))
        code = main([experiment, "--config", str(bad), "--out", str(tmp_path)])
        assert code == 2
        assert f"message=ConfigError('{message}')" in capsys.readouterr().out

    def test_non_string_output_directory_exit_two(self, tmp_path, capsys):
        # no --out, which would replace the directory the config gives
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"output": {"directory": 5}}))
        code = main(["simulate", "--config", str(bad)])
        assert code == 2
        assert "message=ConfigError('output.directory must be a string')" in \
            capsys.readouterr().out

    def test_non_object_output_section_exit_two(self, tmp_path, capsys):
        # no --out, which would replace the section the config gives
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"output": 5}))
        code = main(["simulate", "--config", str(bad)])
        assert code == 2
        assert "message=ConfigError('output must be an object')" in capsys.readouterr().out

    def test_seed_override_changes_hash(self, tmp_path):
        main(["simulate", "--out", str(tmp_path / "a"), "--seed", "1"])
        main(["simulate", "--out", str(tmp_path / "b"), "--seed", "2"])
        a = (tmp_path / "a" / "simulate_result.json").read_text()
        b = (tmp_path / "b" / "simulate_result.json").read_text()
        assert a != b


def test_fit_order_on_synthetic_power_law():
    dts = [2.0**-e for e in range(4, 9)]
    errs = [3.0 * dt**0.5 for dt in dts]
    assert fit_order(dts, errs) == pytest.approx(0.5, abs=1e-12)


# Public names that no runner reaches on purpose: the exact semigroup is the
# tests' oracle for the path engine, the moment-inequality fit is acceptance
# criterion 2, and the conjugation identity is criterion 5 and a benchmark
# workload.  hess_at is read by the benchmark's tracer, which patches it by
# name, so deleting it is a change to the benchmark.  load reads the files
# save writes, and the tests exercise its hash checks.
UNREACHED_ON_PURPOSE = {"semigroup_apply", "maximal_inequality_check", "conjugation_check",
                        "RegularizingField.hess_at", "RegularizingField.load"}


def test_every_public_definition_is_referenced_in_the_package():
    """A definition nothing in the package reads is dead code.

    Every top-level function and class counts, private helpers too, so a
    deleted caller cannot leave its helper behind; of a class, every method
    and property but the dunders counts, private ones too.  These count by
    their bare name: a reference to that name anywhere in the package keeps
    every member of that name alive.  An attribute read on a module bound by
    an import statement, such as np.load or json.load, reads that module and
    keeps nothing of the package alive.
    """
    import ast
    from pathlib import Path

    import fspdelab

    def root(node):
        while isinstance(node, ast.Attribute):
            node = node.value
        return node

    defined, referenced = [], set()
    for path in sorted(Path(fspdelab.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for alias in node.names}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.name, node.name, node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(path.name, f"{node.name}.{member.name}", member.name)
                            for member in node.body if isinstance(member, ast.FunctionDef)
                            and not (member.name.startswith("__")
                                     and member.name.endswith("__"))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                base = root(node)
                if not (isinstance(base, ast.Name) and base.id in modules):
                    referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    dead = sorted(f"{module}:{qualified}" for module, qualified, name in defined
                  if name not in referenced and qualified not in UNREACHED_ON_PURPOSE)
    assert not dead, f"definitions no package code references: {dead}"


def test_every_parameter_is_read_by_its_function():
    """A parameter of a top-level function or method that its body never reads is dead API.

    A read anywhere in the body counts, nested functions included; the
    parameters of nested callbacks are fixed by their caller and are exempt,
    as is a method's self or cls.
    """
    import ast
    from pathlib import Path

    import fspdelab

    # perfbench/workloads.py passes lambda_threshold's horizon positionally, so
    # removing it is a change to the benchmark
    exempt = {"zvonkin.py:lambda_threshold.horizon"}
    unread = []
    for path in sorted(Path(fspdelab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [(node.name, node, False) for node in tree.body
                     if isinstance(node, ast.FunctionDef)]
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            functions += [(f"{cls.name}.{member.name}", member,
                           not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                   for d in member.decorator_list))
                          for member in cls.body if isinstance(member, ast.FunctionDef)]
        for qualified, fn, bound in functions:
            args = fn.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params = params[1:] if bound else params
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unread += [f"{path.name}:{qualified}.{name}" for name in params
                       if name not in read and f"{path.name}:{qualified}.{name}" not in exempt]
    assert not unread, f"parameters their function never reads: {unread}"


def test_every_dataclass_field_is_read_in_the_package():
    """A dataclass field whose name no package code reads as an attribute is dead data.

    A read of that name on any object counts.  ConjugationResult is exempt:
    the benchmark hashes its asdict and acceptance criterion 5 reads its fields.
    """
    import ast
    from pathlib import Path

    import fspdelab

    exempt = {"ConjugationResult"}
    fields, read = [], set()
    for path in sorted(Path(fspdelab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and cls.name not in exempt and any(
                    "dataclass" in ast.unparse(d) for d in cls.decorator_list):
                fields += [f"{path.name}:{cls.name}.{stmt.target.id}" for stmt in cls.body
                           if isinstance(stmt, ast.AnnAssign)
                           and isinstance(stmt.target, ast.Name)]
    unread = [name for name in fields if name.rsplit(".", 1)[1] not in read]
    assert not unread, f"dataclass fields no package code reads: {unread}"


COLD_START = """
import importlib, pkgutil, sys
import numpy as np
import fspdelab
from fspdelab import analysis, experiments, simulator, zvonkin
from fspdelab.config import ExperimentConfig

for mod in pkgutil.iter_modules(fspdelab.__path__):
    importlib.import_module(f"fspdelab.{mod.name}")
experiments.run_uniqueness(ExperimentConfig.defaults("uniqueness", {
    "uniqueness": {"dt_exponents": [6, 7], "reference_exponent": 8, "paths": 4}}))
print(sorted(m for m in ("scipy.interpolate", "scipy.sparse") if m in sys.modules))
spec = analysis.Spectrum(1)
coeffs = simulator.make_coefficients(1, diag_noise=np.ones(1))
ref = zvonkin.ReferenceSemigroup(spec, np.ones(1), quad_order=5)
field = zvonkin.solve_u(ref, coeffs.drift, 40.0, 0.5,
                        zvonkin.ZvonkinGrid(time_steps=2, nodes_per_dim=5, halfwidth=3.0))
field.u_at(0.1, np.array([[0.3]]))
print(sorted(m for m in ("scipy.interpolate", "scipy.sparse") if m in sys.modules))
"""


def _fresh_interpreter_lines(code: str) -> list:
    """The stdout lines of `code` run by a fresh interpreter that imports this checkout's fspdelab."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import fspdelab

    src = str(Path(fspdelab.__file__).parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return proc.stdout.splitlines()


def test_scipy_loads_only_at_a_field_read():
    """A fresh interpreter that imports every module and runs no field read loads no scipy."""
    before, after = _fresh_interpreter_lines(COLD_START)[-2:]
    assert before == "[]"
    assert after == "['scipy.interpolate', 'scipy.sparse']"


def test_solve_u_does_not_import_numpy_ma():
    """A field solve in a fresh interpreter leaves numpy.ma unloaded.

    np.unique imports it (~10 ms) on its first call in a process; the
    package takes sorted distinct values without it.
    """
    lines = _fresh_interpreter_lines("""
import sys
import numpy as np
from fspdelab import analysis, simulator, zvonkin
ref = zvonkin.ReferenceSemigroup(analysis.Spectrum(2), np.ones(2), quad_order=3)
drift = simulator.dini_drift(analysis.log_dini_modulus(scale=0.4), np.array([1.0, 0.0]))
field = zvonkin.solve_u(ref, drift, 60.0, 1.0, zvonkin.ZvonkinGrid(
    time_steps=2, nodes_per_dim=5, quad_panels=2, quad_order=3))
print(field.converged, "numpy.ma" in sys.modules)
""")
    assert lines[-1] == "True False"
