#!/usr/bin/env python3
"""Benchmark of the dexpou package.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload long_fit --seed 1 --seconds 20 --trace 0

Workloads (see README.md in this directory for why each exists):

    long_fit   one stationary path of n = 1e6 fitted in memory
    mc_short   Monte Carlo replications at n = 1e4: simulate, fit, intervals
    cli_io     ``dexpou simulate`` to CSV, then ``dexpou estimate`` of that CSV

One workload runs per process, as a closed loop with one caller and no extra
threads.  The package is imported from ``src/`` of the checkout and used
through its public functions only; it receives nothing but the inputs made
from ``--seed``.  Every op's output is checked.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: with ``--trace 0`` the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` its per-layer metrics from a run in which
every other op is traced.  The lines above it repeat the numbers for a
reader, with sample counts, information-only figures, output fingerprints
and machine facts.  Full results and the spans go to ``.bench_work/``.
"""

import os

# One caller and no extra threads: pin native thread pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import spans

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK = Path(".bench_work")  # relative to ROOT, which the run makes its cwd

H = 0.02
REF = {"theta": 2.0, "eta": 1.2, "phi": 1.6, "p": 0.6}
TRUTH = {"theta": 2.0, "p": 0.6, "rho": 1 / 1.2, "xi": 1 / 1.6,
         "eta": 1.2, "phi": 1.6}
# long_fit accepts an estimate within this relative distance of the truth.
# At n = 1e6 the delta-method standard errors are about 0.7% (theta) and
# 1.3-2.2% (the rest), so these are several standard errors wide.
LONG_FIT_RTOL = {"theta": 0.05, "p": 0.2, "rho": 0.2, "xi": 0.2,
                 "eta": 0.2, "phi": 0.2}
# The acceptance suite's band for 95% theta intervals.
COVERAGE_BAND = (0.91, 0.99)
SETUP_REPEATS = 3
P90_MIN_OPS = 100  # ten samples beyond the 90th percentile
SIZES = {
    "full": {"long_fit": 1_000_000, "mc_short": 10_000, "cli_io": 200_000},
    "tiny": {"long_fit": 20_000, "mc_short": 1_000, "cli_io": 2_000},
}
MODULES = ("simulate", "estimate", "model", "asymptotics", "pathio", "cli",
           "errors")


def load_package():
    """Import dexpou from this checkout's ``src/``; nothing else will do."""
    pkg_dir = ROOT / "src" / "dexpou"
    if not (pkg_dir / "__init__.py").is_file():
        raise SystemExit(f"error: no dexpou package at {pkg_dir}; run the "
                         "benchmark from a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    pkg = importlib.import_module("dexpou")
    if Path(pkg.__file__).resolve().parent != pkg_dir.resolve():
        raise SystemExit(f"error: imported dexpou from {pkg.__file__}, "
                         f"not from {pkg_dir}")
    return argparse.Namespace(
        **{m: importlib.import_module("dexpou." + m) for m in MODULES})


def fresh_import_s() -> float:
    """Wall time of a new interpreter that imports dexpou and exits."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import dexpou"
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
    return perf_counter() - t0


def fit(dx, path):
    """The calibration pipeline a user runs on a path, via public calls."""
    result = dx.estimate.estimate_all(path)
    cov = dx.asymptotics.covariance_estimate(path, result)
    return result, dx.asymptotics.confidence_intervals(result, cov, level=0.95)


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class LongFit:
    """One long path, calibrated in memory: covariance and moment passes."""

    def __init__(self, dx, seed, n):
        self.dx, self.seed, self.n = dx, seed, n
        self.params = dx.model.ModelParams(**REF)
        self.obs_per_op = n
        self.fingerprint = None

    def setup(self):
        self.path = None  # free the previous path before making the next
        self.path = self.dx.simulate.simulate_path(self.params, 0.0, H, self.n,
                                                   seed=self.seed)
        self.op(0)

    def op(self, i):
        return fit(self.dx, self.path)

    def check(self, i, out):
        result, ci = out
        est = result.estimates_dict()
        problems = []
        for name, value in est.items():
            if not abs(value - TRUTH[name]) <= LONG_FIT_RTOL[name] * TRUTH[name]:
                problems.append(f"{name} = {value!r} is not within "
                                f"{LONG_FIT_RTOL[name]:.0%} of {TRUTH[name]!r}")
            lo, hi = ci.intervals.get(name, (math.nan, math.nan))
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= value <= hi):
                problems.append(f"{name} interval {(lo, hi)} is not finite or "
                                f"misses the estimate {value!r}")
        vector = [est[k] for k in sorted(est)]
        digest = hashlib.sha256(json.dumps(vector).encode()).hexdigest()
        if self.fingerprint is None:
            self.fingerprint = digest
        elif digest != self.fingerprint:
            problems.append("estimate vector differs from the first op's")
        return problems

    def finish(self):
        return [], {"fingerprints": {"estimates_sha256": self.fingerprint}}


class MonteCarlo:
    """Replication i simulates its own path and fits it: per-call costs."""

    def __init__(self, dx, seed, n):
        self.dx, self.seed, self.n = dx, seed, n
        self.params = dx.model.ModelParams(**REF)
        self.obs_per_op = n
        self.covered = dict.fromkeys(("theta", "p", "rho", "xi"), 0)
        self.fitted = 0

    def setup(self):
        self.op(0)

    def op(self, i):
        path = self.dx.simulate.simulate_path(self.params, 0.0, H, self.n,
                                              seed=self.seed, replication=i)
        return fit(self.dx, path)

    def check(self, i, out):
        result, ci = out
        if "theta" not in ci.intervals:
            return ["no theta interval (negative variance)"]
        self.fitted += 1
        for name in self.covered:
            lo, hi = ci.intervals.get(name, (math.nan, math.nan))
            self.covered[name] += lo <= TRUTH[name] <= hi
        return []

    def finish(self):
        coverage = {k: v / self.fitted if self.fitted else math.nan
                    for k, v in self.covered.items()}
        lo, hi = COVERAGE_BAND
        problems = []
        if not lo <= coverage["theta"] <= hi:
            problems.append(f"theta coverage {coverage['theta']:.4f} over "
                            f"{self.fitted} replications is outside [{lo}, {hi}]")
        # p, rho and xi are known to under-cover; they are shown, not gated.
        return problems, {"coverage": coverage, "replications": self.fitted}


class CliRoundTrip:
    """``dexpou simulate`` then ``dexpou estimate`` through files, in-process."""

    def __init__(self, dx, seed, n):
        self.dx, self.seed, self.n = dx, seed, n
        self.obs_per_op = n
        # Fixed relative names: they enter the outputs' provenance records.
        self.dir = WORK / "cli_io"
        self.csv = self.dir / "path.csv"
        self.json = self.dir / "estimate.json"
        self.sim_args = ["simulate", "--theta", "2", "--eta", "1.2",
                         "--phi", "1.6", "--p", "0.6", "--h", str(H),
                         "--n", str(n), "--seed", str(seed),
                         "--out", str(self.csv)]
        self.est_args = ["estimate", str(self.csv), "--out", str(self.json)]
        self.cmd_s = {"simulate": [], "estimate": []}
        self.reference = None

    def setup(self):
        self.dir.mkdir(parents=True, exist_ok=True)
        self.op(0)

    def op(self, i):
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = perf_counter()
            rc_sim = self.dx.cli.main(self.sim_args)
            t1 = perf_counter()
            rc_est = self.dx.cli.main(self.est_args)
            t2 = perf_counter()
        return rc_sim, rc_est, t1 - t0, t2 - t1

    def verify_reference(self):
        """Check the set-up op's files against in-memory results once; later
        ops must reproduce their bytes."""
        dx = self.dx
        problems = []
        simulated = dx.simulate.simulate_path(dx.model.ModelParams(**REF), 0.0,
                                              H, self.n, seed=self.seed)
        reread = dx.pathio.read_path_csv(self.csv)
        if reread.values.tobytes() != simulated.values.tobytes():
            problems.append("re-read CSV differs from the simulated path")
        payload = json.loads(self.json.read_text())
        if "error" in payload:
            problems.append(f"estimate JSON reports an error: {payload['error']}")
        elif payload["estimates"] != dx.estimate.estimate_all(reread).estimates_dict():
            problems.append("estimate JSON differs from in-memory estimate_all")
        self.reference = (sha256_file(self.csv), sha256_file(self.json))
        return problems

    def check(self, i, out):
        rc_sim, rc_est, sim_s, est_s = out
        self.cmd_s["simulate"].append(sim_s)
        self.cmd_s["estimate"].append(est_s)
        if (rc_sim, rc_est) != (0, 0):
            return [f"exit codes simulate {rc_sim}, estimate {rc_est}"]
        if (sha256_file(self.csv), sha256_file(self.json)) != self.reference:
            return ["CSV or estimate JSON bytes differ from the verified set-up op"]
        return []

    def finish(self):
        info = {
            "cmd_simulate_s": statistics.median(self.cmd_s["simulate"]),
            "cmd_estimate_s": statistics.median(self.cmd_s["estimate"]),
            "csv_mb": os.path.getsize(self.csv) / 1e6,
            "fingerprints": {"csv_sha256": self.reference[0],
                             "estimate_json_sha256": self.reference[1]},
        }
        return [], info


WORKLOADS = {"long_fit": LongFit, "mc_short": MonteCarlo, "cli_io": CliRoundTrip}


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    l3 = "unknown"
    with contextlib.suppress(OSError):
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            if (index / "level").read_text().strip() == "3":
                l3 = (index / "size").read_text().strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "l3_size": l3,
        "loadavg_at_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "dexpou": importlib.import_module("dexpou").__version__,
    }


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {key: {m["name"]: m["unit"] for m in spec[key]}
            for key in ("end_to_end", "per_layer")}


def run_ops(dx, workload, seconds, tracer):
    """Closed loop: the next op starts when the previous one and its check
    are done.  With a tracer, odd ops are traced and even ops are not."""
    durations, traced_ops = [], []
    failures = {"estimation_error": 0, "check": 0}
    problems = []
    min_ops = 2 if tracer else 1
    deadline = perf_counter() + seconds
    i = 0
    while i < min_ops or perf_counter() < deadline:
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.op = i
            tracer.install()
        t0 = perf_counter()
        try:
            out = workload.op(i)
        except dx.errors.EstimationError as exc:
            out = exc
        durations.append(perf_counter() - t0)
        if traced:
            tracer.uninstall()
            traced_ops.append(i)
        if isinstance(out, dx.errors.EstimationError):
            failures["estimation_error"] += 1
        else:
            found = workload.check(i, out)
            if found:
                failures["check"] += 1
                problems.extend(f"op {i}: {p}" for p in found[:3])
        i += 1
    return durations, traced_ops, failures, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="problem sizes; 'tiny' is for the smoke test")
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    declared = declared_metrics()
    t0 = perf_counter()
    dx = load_package()
    import_times = [perf_counter() - t0]
    import_times += [fresh_import_s() for _ in range(SETUP_REPEATS - 1)]
    facts = machine_facts()

    n = SIZES[args.size][args.workload]
    workload = WORKLOADS[args.workload](dx, args.seed, n)
    tracer = spans.Tracer(dx.errors.EstimationError) if args.trace else None
    if tracer is not None:
        tracer.op = spans.SETUP_OP
        tracer.install()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        workload.setup()
        setup_times.append(perf_counter() - t0)
    if tracer is not None:
        tracer.uninstall()
    setup_problems = []
    if isinstance(workload, CliRoundTrip):
        setup_problems = workload.verify_reference()

    gc.collect()
    durations, traced_ops, failures, problems = run_ops(
        dx, workload, args.seconds, tracer)
    final_problems, info = workload.finish()
    problems = setup_problems + problems + final_problems
    attempted = len(durations)
    failed = failures["estimation_error"] + failures["check"]
    if setup_problems or final_problems:
        failed = attempted  # the run's outputs as a whole are wrong

    end_to_end = {
        "setup_s": statistics.median(import_times) + statistics.median(setup_times),
        "op_s_p50": statistics.median(durations),
        "obs_per_s": workload.obs_per_op * attempted / sum(durations),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info.update({
        "ops": attempted,
        "failed_frac": failed / attempted,
        "failures": failures,
        "import_s": import_times,
        "setup_repeats_s": setup_times,
        "op_s": durations,
        "n": n,
    })
    if attempted >= P90_MIN_OPS:
        info["op_s_p90"] = statistics.quantiles(durations, n=10)[-1]

    if tracer is not None:
        traced_set = set(traced_ops)
        untraced = [d for i, d in enumerate(durations) if i not in traced_set]
        traced = [durations[i] for i in traced_ops]
        tracer.measure_alloc()
        layer = tracer.summary(traced_ops)
        layer["trace.untraced_op_s_p50"] = statistics.median(untraced)
        layer["trace.traced_op_s_p50"] = statistics.median(traced)
        layer["trace.overhead_s"] = (layer["trace.traced_op_s_p50"]
                                     - layer["trace.untraced_op_s_p50"])
        units = declared["per_layer"]
        (WORK / args.workload).mkdir(parents=True, exist_ok=True)
        tracer.write(WORK / args.workload / "spans.jsonl")
    else:
        layer = None
        units = declared["end_to_end"]
    values = layer if layer is not None else end_to_end
    missing = sorted(set(units) - set(values))
    if missing:
        raise SystemExit(f"error: metrics declared but not measured: {missing}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}

    baseline = json.loads((BENCH_DIR / "baseline.json").read_text())
    expected = (baseline.get("fingerprints", {}).get(args.workload, {})
                .get(str(args.seed)) if args.size == "full" else None)
    if expected is not None and "fingerprints" in info:
        info["fingerprints_match_baseline"] = info["fingerprints"] == expected

    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "size": args.size,
              "machine": facts, "end_to_end": end_to_end, "per_layer": layer,
              "info": info, "problems": problems, "result": result}
    (WORK / args.workload).mkdir(parents=True, exist_ok=True)
    (WORK / args.workload / f"result_trace{args.trace}.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")

    print_report(report, end_to_end, info, declared, layer)
    print(json.dumps(result))
    return 0


def print_report(report, end_to_end, info, declared, layer):
    m = report["machine"]
    print(f"dexpou benchmark: workload {report['workload']}, seed {report['seed']}, "
          f"{report['seconds']} s, trace {report['trace']}, n = {info['n']}")
    print(f"machine: nproc {m['nproc']}, {m['cpu_model']}, L3 {m['l3_size']}, "
          f"load {m['loadavg_at_start']}, python {m['python']}, "
          f"numpy {m['numpy']}, scipy {m['scipy']}")
    ops = info["ops"]
    notes = {"setup_s": f"(medians of {SETUP_REPEATS} imports and "
                        f"{SETUP_REPEATS} set-ups)",
             "op_s_p50": f"(median of {ops} ops)",
             "peak_rss_mb": "(ru_maxrss of this process)"}
    for name, unit in declared["end_to_end"].items():
        print(f"  {name:<16} {end_to_end[name]:>14.6g} {unit:<6} "
              f"{notes.get(name, '')}")
    print(f"  {'failed_frac':<16} {info['failed_frac']:>14.6g} {'':<6} "
          f"({report['result']['failed']} of {ops} ops)")
    if "op_s_p90" in info:
        print(f"  {'op_s_p90':<16} {info['op_s_p90']:>14.6g} s      "
              f"(information, {ops} ops)")
    for key in ("cmd_simulate_s", "cmd_estimate_s"):
        if key in info:
            print(f"  {key:<16} {info[key]:>14.6g} s      (median of {ops} ops)")
    if "coverage" in info:
        cov = ", ".join(f"{k} {v:.4f}" for k, v in info["coverage"].items())
        print(f"  coverage of 95% intervals over {info['replications']} "
              f"replications: {cov} (only theta is gated)")
    for key, digest in sorted(info.get("fingerprints", {}).items()):
        print(f"  fingerprint {key}: {digest}")
    if "fingerprints_match_baseline" in info:
        print(f"  fingerprints match the baseline: {info['fingerprints_match_baseline']}")
    if layer is not None:
        for name, unit in declared["per_layer"].items():
            print(f"  {name:<44} {layer[name]:>14.6g} {unit}")
    for problem in report["problems"][:10]:
        print(f"  CHECK FAILED: {problem}")


if __name__ == "__main__":
    sys.exit(main())
