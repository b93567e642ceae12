"""Closed-loop benchmark of fspdelab: one workload, one call at a time.

    python3 perfbench/run.py --workload harnack --seed 1 --seconds 18 --trace 0

Set-up is timed in fresh interpreters (median of five).  The run then
prepares the workload and calls it until `--seconds` have passed; the next
call starts only when the previous one has returned.  The first call replays
the reference seed and must reproduce its recorded report hash; it also
warms caches and is not timed.  Every later call uses `--seed` and must
reproduce the recorded hash of that seed, or, for a seed without one, the
hash of its own first call.  Every timed call and set-up probe samples the
host's speed as it runs (calibrate.py), and the reported times are scaled
to a host of fixed speed; the raw times are kept in the run file.

With `--trace 1` every second call runs with the layer wrappers of spans.py
installed and the per-layer metrics are reported instead of the end-to-end
ones; a traced run neither samples the host's speed nor times set-up.
Every metric is printed with its unit; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  Run files,
with the spans of a traced run, go to .perfbench-out/ in the checkout;
experiment outputs go to a temporary directory inside the checkout that is
removed at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
BLAS_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                   "VECLIB_MAXIMUM_THREADS")}
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 120


def bootstrap():
    """Pin BLAS to one thread and import fspdelab from this checkout's src/."""
    os.environ.update(BLAS_ENV)
    if not (SRC / "fspdelab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no fspdelab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fspdelab

    if not Path(fspdelab.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: imported fspdelab from {fspdelab.__file__}, not {SRC}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20240801)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="set the workload up once and exit (times set-up in a fresh process)")
    return parser.parse_args(argv)


def git_sha() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record() -> dict:
    import numpy
    import scipy

    return {"git_sha": git_sha(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(),
            "blas_env": {k: os.environ.get(k) for k in BLAS_ENV}}


def measure_setup(workload: str) -> list[dict]:
    """Spawn-to-exit seconds of fresh interpreters that only set the workload up.

    Each probe samples the host's speed while it sets up and prints what it
    sampled as its last line; the time its samples took is not counted.
    """
    from calibrate import scale

    cmd = [sys.executable, str(Path(__file__)), "--workload", workload, "--probe"]
    probes = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run(cmd, check=True, timeout=PROBE_TIMEOUT_S, capture_output=True,
                              text=True, env={**os.environ, **BLAS_ENV})
        raw = time.perf_counter() - start
        speed = json.loads(done.stdout.splitlines()[-1])
        probes.append({"raw_s": raw, **speed,
                       "scaled_s": scale(raw - speed["handler_wall_s"], speed["passes"])})
    return probes


def probe(workload_name: str) -> int:
    """Set the workload up once under a host-speed sampler; print what it sampled."""
    os.environ.update(BLAS_ENV)  # before numpy loads
    from calibrate import HostSpeed

    with HostSpeed() as speed:
        bootstrap()
        from workloads import WORKLOADS

        WORKLOADS[workload_name].prepare(None)  # set-up writes no output
    print(json.dumps({"passes": speed.passes, "handler_wall_s": speed.handler_wall_s}))
    return 0


class Sample:
    """One workload call: its wall and CPU seconds and what it returned."""

    def __init__(self, seed: int, traced: bool):
        self.seed, self.traced = seed, traced
        self.wall = self.cpu = 0.0
        self.passes = []  # host-speed samples taken during the call
        self.outcome = None
        self.error = None
        self.root = -1

    def run(self, workload, ctx, tracer=None, sample_speed=False) -> "Sample":
        """Call once; with `sample_speed`, sample the host's speed during the call."""
        from calibrate import HostSpeed

        speed = HostSpeed() if sample_speed else None
        with speed or contextlib.nullcontext():
            cpu0, wall0 = time.process_time(), time.perf_counter()
            try:
                if tracer is None:
                    self.outcome = workload.call(ctx, self.seed)
                else:
                    self.root = len(tracer.names)
                    with tracer.span("experiments"):
                        self.outcome = workload.call(ctx, self.seed)
            except Exception as exc:  # a failed call is counted, the loop goes on
                traceback.print_exc()
                self.error = repr(exc)
            self.wall = time.perf_counter() - wall0
            self.cpu = time.process_time() - cpu0
        if speed is not None:
            self.wall -= speed.handler_wall_s
            self.cpu -= speed.handler_cpu_s
            self.passes = speed.passes
        return self

    def scaled(self) -> tuple[float, float]:
        """Wall and CPU seconds on a host of the calibration's reference speed."""
        from calibrate import scale

        return scale(self.wall, self.passes), scale(self.cpu, self.passes)

    def as_dict(self) -> dict:
        return {"seed": self.seed, "traced": self.traced, "wall_s": self.wall,
                "cpu_s": self.cpu, "speed_passes": len(self.passes),
                "speed_mean_s": statistics.fmean(self.passes) if self.passes else None,
                "error": self.error,
                "report_hash": self.outcome and self.outcome.report_hash,
                "verdicts": self.outcome and self.outcome.verdicts}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe:
        return probe(args.workload)
    bootstrap()
    from workloads import REFERENCE_SEED, WORKLOADS, load_references

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    references = load_references().get(args.workload, {})
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as tmp:
        # set-up is an end-to-end metric only: a traced run does not time it
        setup = [] if args.trace else measure_setup(args.workload)
        result, record = run_workload(args, workload, references, tmp, REFERENCE_SEED)
    record["setup"] = setup
    if not args.trace:
        result["metrics"]["setup_s"] = {
            "value": statistics.median(p["scaled_s"] for p in setup), "unit": "s"}

    record["run"] = run_record()
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({**record, "result": result}, indent=1) + "\n",
                        encoding="utf-8")
    print(f"run_record {json.dumps(record['run'], sort_keys=True)}")
    for name, m in sorted(result["metrics"].items()):
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    print(f"calls={len(record['samples'])} attempted={result['attempted']} "
          f"failed={result['failed']} correct={result['correct']} "
          f"notes={';'.join(record['problems']) or 'none'} run_file={out_file}")
    print(json.dumps(result))
    return 0


def run_workload(args, workload, references: dict, tmp: str, reference_seed: int):
    """Prepare, then call until the deadline; returns (result, run-file record)."""
    from spans import (Tracer, count_signature, install_layer_wrappers, layer_metrics,
                       raw_layer_values)

    tracer = Tracer() if args.trace else None
    problems = []

    def traced(fn):
        install_layer_wrappers(tracer)
        try:
            return fn()
        finally:
            broken = tracer.uninstall()
            if broken:
                problems.append("not restored: " + ",".join(broken))

    if tracer is None:
        ctx = workload.prepare(tmp)
    else:
        setup_root = 0  # the first span the tracer records

        def prepare():
            with tracer.span("setup"):
                return workload.prepare(tmp)

        ctx = traced(prepare)

    # the first call replays the reference seed; every later one uses --seed
    expected = {seed: references.get(str(seed), {}).get("report_hash")
                for seed in (args.seed, reference_seed)}
    samples, failed = [], 0
    deadline = time.perf_counter() + args.seconds
    while True:
        seed = args.seed if samples else reference_seed
        sample = Sample(seed, tracer is not None and len(samples) % 2 == 1)
        if sample.traced:
            traced(lambda: sample.run(workload, ctx, tracer))
        else:
            sample.run(workload, ctx, sample_speed=tracer is None)
        got = sample.outcome and sample.outcome.report_hash
        if not samples and got != expected[seed]:
            problems.append(f"reference seed gave {sample.error or got[:12]}, "
                            f"recorded {str(expected[seed])[:12]}")
        if expected[seed] is None:  # a seed without a recorded hash must repeat itself
            expected[seed] = got
        failed += got is None or got != expected[seed]
        samples.append(sample)
        if len(samples) >= 2 and time.perf_counter() >= deadline:
            break

    plain = [s for s in samples if not s.traced]
    if tracer is None:
        timed = [s.scaled() for s in samples[1:]]  # the first call warms up
        metrics = {
            "wall_s": {"value": statistics.median(w for w, _ in timed), "unit": "s"},
            "cpu_s": {"value": statistics.median(c for _, c in timed), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    else:
        traced_samples = [s for s in samples if s.traced]
        totals = [tracer.root_totals(s.root) for s in traced_samples]
        setup_totals = tracer.root_totals(setup_root)
        if max(t["nesting_gap"] for t in totals + [setup_totals]) > 1e-6:
            problems.append("child spans overlap or leave their parent")
        if any(t["busy"]["experiments"] > s.wall for t, s in zip(totals, traced_samples)):
            problems.append("top-level spans exceed the call's wall time")
        raw_calls = [raw_layer_values(t) for t in totals]
        if len({count_signature(r) for r in raw_calls}) > 1:
            problems.append("layer counts differ between identical calls")
        values = layer_metrics(raw_layer_values(setup_totals), raw_calls)
        traced_wall = statistics.median(s.wall for s in traced_samples)
        plain_wall = statistics.median(s.wall for s in plain)
        values.update({"trace.traced_wall_s": traced_wall, "trace.untraced_wall_s": plain_wall,
                       "trace.overhead_s": traced_wall - plain_wall})
        metrics = {name: {"value": v, "unit": _unit(name)} for name, v in values.items()}

    result = {"correct": failed == 0 and not problems, "attempted": len(samples),
              "failed": int(failed), "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "samples": [s.as_dict() for s in samples],
              "problems": problems}
    if tracer is not None:
        record["spans"] = tracer.to_records()
    return result, record


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s_per_sweep")):
        return "s"
    if name.endswith("ns_per_path_step"):
        return "ns"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
