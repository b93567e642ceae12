"""Experiment configuration: defaults, validation, canonical hashing.

Configs are nested key-value sections serialized as JSON.  Every run
records the hash of its fully merged configuration so outputs from
different configurations can never be aggregated together.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .zvonkin import GH_DIM_CAP

EXPERIMENTS = ("classcheck", "simulate", "solve-u", "uniqueness", "galerkin",
               "nonexplosion", "harnack")

_BASE = {
    "spectrum": {"n_modes": 2, "coeff": 1.0, "power": 2.0, "trace_exponent": 0.4},
    "time": {"delay": 0.25, "horizon": 1.0, "grid_step": 1.0 / 128.0},
    "coefficients": {
        "drift": {"kind": "dini", "scale": 1.0, "delta": 1.0},
        "delay_drift": {"kind": "tanh", "beta": 0.3},
        "diffusion": {"kind": "diag", "q": 1.0},
    },
    "montecarlo": {"samples": 1000, "seed": 20240801},
    "output": {"directory": "out"},
}

# the lab's resolvent grid, shared by the two experiments that solve for u
_ZVONKIN = {"lambda_grid": [40.0, 80.0, 160.0], "time_steps": 12, "nodes_per_dim": 11,
            "halfwidth": 3.0, "quad_panels": 8, "quad_order": 6, "hermite_order": 7}

# each experiment's departures from _BASE, merged over it key by key
_PER_EXPERIMENT = {
    "classcheck": {},
    "simulate": {},
    "solve-u": {
        "coefficients": {"drift": {"scale": 0.4}},
        "zvonkin": _ZVONKIN,
    },
    "uniqueness": {
        "coefficients": {
            "delay_drift": {"kind": "shift", "beta": 0.4},
            "diffusion": {"kind": "state_diag", "q": 1.2, "amplitude": 0.8,
                          "frequency": 3.0},
        },
        "uniqueness": {"level": 5.0, "dt_exponents": [6, 7, 8, 9, 10],
                       "reference_exponent": 11, "paths": 64},
    },
    "galerkin": {
        "spectrum": {"n_modes": 32},
        "coefficients": {"delay_drift": {"kind": "shift", "beta": 0.4},
                         "diffusion": {"q": 0.5}},
        "galerkin": {"mode_counts": [2, 4, 8, 16], "reference_modes": 32, "paths": 256},
    },
    "nonexplosion": {
        "coefficients": {"drift": {"kind": "linear", "rate": 1.0},
                         "diffusion": {"q": 0.5}},
        "nonexplosion": {"paths": 1000, "comparison_margin": 0.5,
                         "negative_control": True, "control_start": 2.0,
                         "control_horizon": 3.0},
    },
    "harnack": {
        "time": {"horizon": 0.5},
        "coefficients": {"drift": {"scale": 0.4}},
        "montecarlo": {"samples": 10000},
        "zvonkin": _ZVONKIN,
        "harnack": {"train_pairs": 10, "holdout_pairs": 10, "pair_scale": 0.4,
                    "power_factors": [1.1, 1.5, 2.0], "test_function": "exp_head"},
    },
}


# the values checked wherever the config gives them, by rule;
# 5 nodes is the least count whose axis reaches +-halfwidth
_INTEGERS = (("montecarlo.samples", 100), ("montecarlo.seed", 0), ("harnack.samples", 100),
             ("harnack.train_pairs", 1), ("harnack.holdout_pairs", 1), ("uniqueness.paths", 1),
             ("uniqueness.reference_exponent", 0), ("galerkin.paths", 1),
             ("galerkin.reference_modes", 1), ("nonexplosion.paths", 1),
             ("zvonkin.time_steps", 1), ("zvonkin.nodes_per_dim", 5), ("zvonkin.quad_panels", 1),
             ("zvonkin.quad_order", 1), ("zvonkin.hermite_order", 1))
_INTEGER_LISTS = (("galerkin.mode_counts", 1), ("uniqueness.dt_exponents", 0))
_POSITIVE = ("uniqueness.level", "zvonkin.halfwidth", "nonexplosion.control_horizon",
             "coefficients.diffusion.q", "harnack.pair_scale")
_NUMBERS = ("coefficients.drift.scale", "coefficients.drift.delta", "coefficients.drift.coeff",
            "coefficients.drift.rate", "coefficients.delay_drift.beta",
            "coefficients.diffusion.amplitude", "coefficients.diffusion.frequency",
            "nonexplosion.comparison_margin", "nonexplosion.control_start")


def _dotted_keys(tree: dict, prefix: str = ""):
    """Every key of a nested config, sections and their entries alike, as a dotted name."""
    for key, val in tree.items():
        yield prefix + key
        if isinstance(val, dict):
            yield from _dotted_keys(val, f"{prefix}{key}.")


def _merge(base: dict, extra: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in extra.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


# a key no experiment's defaults define and no rule checks is a misspelling
_KNOWN_KEYS = frozenset(
    [key for extra in _PER_EXPERIMENT.values() for key in _dotted_keys(_merge(_BASE, extra))]
    + [dotted for dotted, _ in _INTEGERS + _INTEGER_LISTS] + list(_POSITIVE + _NUMBERS))


def to_jsonable(obj):
    """Recursively convert numpy scalars/arrays so json stays canonical."""
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    return obj


def canonical_json(data) -> str:
    return json.dumps(to_jsonable(data), sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str
    data: dict

    @classmethod
    def defaults(cls, experiment: str, overrides: dict | None = None) -> "ExperimentConfig":
        if experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {experiment!r}; choose from {EXPERIMENTS}")
        data = _merge(_BASE, _PER_EXPERIMENT[experiment])
        if overrides:
            data = _merge(data, overrides)
        cfg = cls(experiment, data)
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, experiment: str, path: str, overrides: dict | None = None) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        merged = _merge(loaded, overrides or {})
        return cls.defaults(experiment, merged)

    def section(self, name: str) -> dict:
        return self.data.get(name, {})

    def hash(self) -> str:
        # the output location is volatile plumbing, not part of the experiment
        data = {k: v for k, v in self.data.items() if k != "output"}
        payload = canonical_json({"experiment": self.experiment, "data": data})
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def validate(self) -> None:
        def number(val):
            return not isinstance(val, bool) and isinstance(val, (int, float))

        def positive(val):
            return number(val) and val > 0

        def integer(name, val, least):
            if isinstance(val, bool) or not isinstance(val, int):
                raise ConfigError(f"{name} must be an integer")
            if val < least:
                raise ConfigError(f"{name} must be at least {least}")

        def given(dotted):
            """The value at a dotted key as a 1-tuple, or () where the config omits it."""
            node = self.data
            for key in dotted.split("."):
                if not isinstance(node, dict) or key not in node:
                    return ()
                node = node[key]
            return (node,)

        def divides(step, span):
            # a step that underflows to 0, or a ratio past the float range, divides nothing
            ratio = span / step if step > 0 else math.inf
            return math.isfinite(ratio) and abs(ratio - round(ratio)) <= 1e-9 * max(1.0, ratio)

        for name, section in self.data.items():
            if not isinstance(section, dict):
                raise ConfigError(f"{name} must be an object")
        for dotted in _dotted_keys(self.data):
            if dotted not in _KNOWN_KEYS:
                raise ConfigError(f"{dotted} is not a config key")
        time = self.section("time")
        for key in ("delay", "horizon", "grid_step"):
            if not positive(time[key]):
                raise ConfigError(f"time.{key} must be a positive number")
        for key in ("delay", "horizon"):
            if not divides(time["grid_step"], time[key]):
                raise ConfigError(f"time.grid_step must divide time.{key}")
        if not isinstance(self.section("output")["directory"], str):
            raise ConfigError("output.directory must be a string")
        for dotted, least in _INTEGERS:
            for val in given(dotted):
                integer(dotted, val, least)
        for dotted, least in _INTEGER_LISTS:
            for entries in given(dotted):
                if not isinstance(entries, list):
                    raise ConfigError(f"{dotted} must be a list")
                for entry in entries:
                    integer(f"{dotted} entries", entry, least)
        # the uniqueness steps 2^-e run on the time grid of delay and horizon
        steps = [e for entries in given("uniqueness.dt_exponents") for e in entries]
        for e in steps + list(given("uniqueness.reference_exponent")):
            step = math.ldexp(1.0, -e)
            if not (divides(step, time["delay"]) and divides(step, time["horizon"])):
                raise ConfigError(f"uniqueness step 2^-{e} must divide time.delay and "
                                  "time.horizon")
        for dotted in _POSITIVE:
            if not all(map(positive, given(dotted))):
                raise ConfigError(f"{dotted} must be a positive number")
        for horizon in given("nonexplosion.control_horizon"):
            if not divides(time["grid_step"], horizon):
                raise ConfigError("time.grid_step must divide nonexplosion.control_horizon")
        for dotted in _NUMBERS:
            if not all(map(number, given(dotted))):
                raise ConfigError(f"{dotted} must be a number")
        if not all(isinstance(val, bool) for val in given("nonexplosion.negative_control")):
            raise ConfigError("nonexplosion.negative_control must be true or false")
        spec = self.section("spectrum")
        for key in ("n_modes", "coeff", "power", "trace_exponent"):
            # a bool n_modes is left to the integer rule below
            if not (number(spec[key]) or key == "n_modes" and isinstance(spec[key], bool)):
                raise ConfigError(f"spectrum.{key} must be a number")
        integer("spectrum.n_modes", spec["n_modes"], 1)
        # the experiments with a zvonkin grid tabulate u over every mode
        if "zvonkin" in _PER_EXPERIMENT[self.experiment] and spec["n_modes"] > GH_DIM_CAP:
            raise ConfigError(f"spectrum.n_modes must be at most {GH_DIM_CAP} for a "
                              "tabulated field")
        if not 0.0 < spec["trace_exponent"] < 1.0:
            raise ConfigError("spectrum.trace_exponent must lie in (0, 1)")
        for lams in given("zvonkin.lambda_grid"):
            if not isinstance(lams, list) or not lams or not all(map(positive, lams)):
                raise ConfigError("zvonkin.lambda_grid must be a non-empty list of "
                                  "positive numbers")
        for name, entry in self.section("coefficients").items():
            if not isinstance(entry, dict):
                raise ConfigError(f"coefficients.{name} must be an object")
        drift = self.section("coefficients")["drift"]
        if drift["kind"] == "linear" and not number(drift.get("rate")):
            raise ConfigError("coefficients.drift.rate must be a number for a linear drift")
        if self.experiment == "harnack":
            if time["horizon"] <= time["delay"]:
                raise ConfigError("time.horizon must exceed time.delay for harnack runs")
            # power = (1 + K2 K3)^2 * factor, so factors above 1 keep every
            # power above the admissible floor the power inequality needs
            factors = self.section("harnack")["power_factors"]
            if not isinstance(factors, list) or not factors or \
                    not all(number(fac) and fac > 1.0 for fac in factors):
                raise ConfigError("harnack.power_factors must be a non-empty list of "
                                  "factors above 1 (powers above the floor (1+K)^2)")
