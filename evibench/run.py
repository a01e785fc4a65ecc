"""Benchmark command for evicast.

    python3 evibench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload end to end through evicast.harness.run_experiment (the
work `evicast simulate` does: config parsing, engine rounds, ledgers and
audits, transcript/CSV/SVG/report files), for a fixed number of
experiments: --seconds divided by the workload's nominal experiment time,
at least one.  The count depends on the arguments only, never on how fast
the program runs, so every version of the code runs the same inputs.
Experiment k's inputs are generated from (--seed, k) by
evibench/workloads.py and handed to the program as a config file.  The
written files are then judged by the benchmark's own checks, and the last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 wraps the public
functions of each evicast module (evibench/probes.py) and reports per-layer
call counts and self times instead.  The library is imported from src/ of
the checkout this script sits in.
"""

import time

T_SCRIPT = time.perf_counter()

import os


def _process_age() -> float:
    """Seconds since this process started, from the kernel's start time
    (clock ticks since boot); 0.0 where /proc is unavailable."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return max(0.0, time.clock_gettime(time.CLOCK_BOOTTIME) - started)
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


AGE_AT_SCRIPT = _process_age()

# one BLAS thread: the numbers should measure the program, not the scheduler
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import resource
import shutil
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")

# engine class and its (round, observe) methods, per config kind
ROUND_METHODS = {
    "standard": ("forecaster", "ReductionEngine", "mc_round", "mc_observe"),
    "k29": ("forecaster", "K29Engine", "k29_round", "mc_observe"),
    "self_play": ("decision", "DecisionEngine", "phi_round", "phi_observe"),
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _import_library():
    """evicast from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "evicast", "__init__.py")):
        raise SystemExit(f"error: no evicast sources under {SRC}")
    sys.path.insert(0, SRC)
    import evicast
    if not os.path.abspath(evicast.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: evicast imported from {evicast.__file__}")
    return evicast


def _sha256(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _rounds_at_target(exp_dir, workload) -> int:
    count = 0
    for name in workload.transcripts:
        with open(os.path.join(exp_dir, name)) as fh:
            data = json.load(fh)
        rounds = data["forecasts"]["rounds"] if "forecasts" in data else data["rounds"]
        count += sum(1 for r in rounds if not r["hit_cap"])
    return count


def main(argv=None) -> int:
    args = _parse(argv)
    _import_library()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]

    import numpy as np
    from evicast import decision, forecaster
    from evicast.harness import config_from_file, run_experiment
    from probes import RoundClock, Tracer

    # a fresh directory per run; earlier runs' files are removed only after
    # the measurements, since deleting them can take a second on a busy disk
    top = os.path.join(OUT, wl.name)
    base = os.path.join(top, f"run-{os.getpid()}")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)

    clock = RoundClock()
    mod, cls, rnd, obs = ROUND_METHODS[wl.kind]
    clock.install(getattr({"forecaster": forecaster, "decision": decision}[mod], cls),
                  rnd, obs)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    # experiment k runs the inputs made from (seed, k)
    n_exps = max(1, round(args.seconds / wl.experiment_s))
    per_exp_rounds = wl.horizon * wl.engines_per_round
    exps = []
    attempted = failed = 0
    errors = []
    for k in range(n_exps):
        exp_dir = os.path.join(base, f"exp{k}")
        os.makedirs(exp_dir)
        inputs = wl.make(args.seed, k, wl.horizon)
        config_path = os.path.join(exp_dir, "config.json")
        with open(config_path, "w") as fh:
            json.dump(inputs.config, fh)
        first_sample = len(clock.samples)
        cfg = config_from_file(config_path)
        t0 = time.perf_counter()
        attempted += per_exp_rounds
        try:
            result = run_experiment(cfg, exp_dir)
        except Exception as exc:  # a raising round fails the rest of its experiment
            failed += per_exp_rounds - (len(clock.samples) - first_sample)
            errors.append(f"experiment {k}: {type(exc).__name__}: {exc}")
            continue
        t1 = time.perf_counter()
        if not result.ok:
            errors.append(f"experiment {k}: the program's own ledgers failed")
        rounds_ms = 1e3 * np.array(clock.samples[first_sample:])
        exps.append({"k": k, "dir": exp_dir, "inputs": inputs, "run_s": t1 - t0,
                     "audit_s": t1 - clock.last_observe_end,
                     "round_ms_p50": float(np.percentile(rounds_ms, 50)),
                     "round_ms_p95": float(np.percentile(rounds_ms, 95))})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if clock.first_call is not None:
        setup_s = AGE_AT_SCRIPT + (clock.first_call - T_SCRIPT)

    for e in exps:
        k = e["k"]
        verdict = wl.check(e["dir"], e["inputs"])
        failed += len(verdict.bad_rounds)
        if verdict.failures:
            errors.append(f"experiment {k}: failed checks {verdict.failures}")
        for note in verdict.notes:
            print(f"check: experiment {k}: {note}", file=sys.stderr)
        e["sha256"] = _sha256([os.path.join(e["dir"], n) for n in wl.transcripts])
        e["transcript_bytes"] = sum(os.path.getsize(os.path.join(e["dir"], n))
                                    for n in wl.transcripts)
        e["rounds_at_target"] = _rounds_at_target(e["dir"], wl)
    for err in errors:
        print(f"error: {err}", file=sys.stderr)
    correct = not errors and bool(exps)
    metrics = {}
    if exps:
        # timings are per experiment, then the first quartile over
        # experiments: load from other tenants of a shared machine only ever
        # adds time, and it comes in bursts that slow some experiments'
        # rounds and not others, so the quieter experiments carry the figure
        def lower_quartile(key):
            return float(np.percentile([e[key] for e in exps], 25))

        e2e = {
            "setup_s": (setup_s, "s"),
            "round_ms_p50": (lower_quartile("round_ms_p50"), "ms"),
            "round_ms_p95": (lower_quartile("round_ms_p95"), "ms"),
            "audit_s": (lower_quartile("audit_s"), "s"),
            "run_s": (lower_quartile("run_s"), "s"),
            "rounds_at_target": (float(np.mean([e["rounds_at_target"]
                                                for e in exps])), "rounds"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
        if tracer is None:
            metrics = e2e
        else:
            metrics = tracer.metrics(len(exps))
            metrics["harness.transcript_bytes"] = (
                float(np.mean([e["transcript_bytes"] for e in exps])), "bytes")
        summary = {"workload": wl.name, "seed": args.seed, "horizon": wl.horizon,
                   "trace": args.trace, "experiments": len(exps),
                   "round_samples": len(clock.samples),
                   "transcript_sha256": [e["sha256"] for e in exps],
                   "experiment_dirs": [os.path.relpath(e["dir"], ROOT)
                                       for e in exps],
                   "per_experiment": [{k: e[k] for k in (
                       "run_s", "audit_s", "round_ms_p50", "round_ms_p95",
                       "rounds_at_target")} for e in exps],
                   "end_to_end": {k: v for k, (v, _) in e2e.items()},
                   "per_layer": ({k: v for k, (v, _) in metrics.items()}
                                 if tracer else None)}
        name = "trace.json" if tracer else "summary.json"
        with open(os.path.join(top, name), "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
    for old in os.listdir(top):
        if old.startswith("run-") and os.path.join(top, old) != base:
            shutil.rmtree(os.path.join(top, old), ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
