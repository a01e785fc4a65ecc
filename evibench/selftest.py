"""Self-test of the benchmark's own checks and of its tracing.

    python3 evibench/selftest.py

For each workload it runs one experiment at the workload's own horizon
twice (--seconds 0), untraced and traced, with the same seed, and requires
the same transcript hash: tracing must not change what the program writes.
Then it hands the workload's check the written files unchanged (the check
must pass) and corrupted in one place (the check must fail in the
corrupted round, for the reason the corruption is aimed at):

* one round's eps_realized lowered;
* one forecast atom moved off its body;
* on affine-tight, one round's delivery round shifted;
* on swap-selfplay, one recorded action moved to the atom's worst vertex,
  which only the per-round swap slack judges by itself.

Exits 0 when every expectation holds, 1 otherwise.
"""

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SCRATCH = os.path.join(BENCH_DIR, "out", "selftest")

sys.path.insert(0, BENCH_DIR)
from workloads import WORKLOADS  # noqa: E402

SEED = 7


def _run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "0",
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=170)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace} exited "
                           f"{out.returncode}: {out.stderr[-500:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    name = "trace.json" if trace else "summary.json"
    with open(os.path.join(BENCH_DIR, "out", workload, name)) as fh:
        summary = json.load(fh)
    summary["result"] = result
    return summary


def _rounds(data: dict) -> list:
    return data["forecasts"]["rounds"] if "forecasts" in data else data["rounds"]


def _lower_eps(data: dict, i: int) -> None:
    _rounds(data)[i]["eps_realized"] -= 1e-6


def _move_atom(data: dict, i: int) -> None:
    r = _rounds(data)[i]
    for key in ("points", "solved_points"):
        r[key][0][0] += 3.0


def _shift_delay(data: dict, i: int) -> None:
    _rounds(data)[i]["delivery_t"] += 1


def _worst_action(data: dict, i: int) -> None:
    """Record the worst vertex as the action of the atom where that costs
    most: some swap map then gains w_a (max p_a - min p_a) > 0."""
    r = _rounds(data)[i]
    gains = [w * (max(p) - min(p)) for p, w in zip(r["points"], r["weights"])]
    a = gains.index(max(gains))
    p = r["points"][a]
    data["decisions"][i]["mu_points"][a] = [
        1.0 if u == p.index(max(p)) else 0.0 for u in range(len(p))]


# label -> (corruption, workloads it applies to or None for all, the
# reasons of which one must be given for the corrupted round)
CORRUPTIONS = {
    "eps_realized lowered": (_lower_eps, None, ("certificate",)),
    "atom moved off the body": (_move_atom, None, (
        "off the simplex", "outside the hull", "off the loss box")),
    "delivery round shifted": (_shift_delay, ("affine-tight",),
                               ("delivery_t",)),
    "action moved to the worst vertex": (_worst_action, ("swap-selfplay",),
                                         ("slack",)),
}


def _corrupted_copy(src: str, name: str, transcript: str, t: int,
                    corrupt) -> str:
    dst = os.path.join(SCRATCH, name)
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)
    path = os.path.join(dst, transcript)
    with open(path) as fh:
        data = json.load(fh)
    if corrupt is not None:
        corrupt(data, t - 1)
    with open(path, "w") as fh:
        json.dump(data, fh)
    return dst


def main() -> int:
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            problems.append(what)

    for name, wl in WORKLOADS.items():
        plain = _run(name, 0)
        expect(plain["result"]["correct"] and plain["result"]["failed"] == 0,
               f"{name}: untraced run passes its checks")
        exp_dir = os.path.join(ROOT, plain["experiment_dirs"][0])
        inputs = wl.make(SEED, 0, wl.horizon)
        transcript = wl.transcripts[0]
        t = wl.horizon // 2
        key = (1, t) if wl.engines_per_round == 2 else t
        clean = wl.check(_corrupted_copy(exp_dir, f"{name}-clean", transcript,
                                         t, None), inputs)
        expect(clean.ok, f"{name}: check passes the written files")
        for label, (corrupt, only, wanted) in CORRUPTIONS.items():
            if only is not None and name not in only:
                continue
            verdict = wl.check(_corrupted_copy(exp_dir, f"{name}-corrupt",
                                               transcript, t, corrupt), inputs)
            reasons = verdict.reasons.get(key, [])
            expect(any(w in why for why in reasons for w in wanted),
                   f"{name}: check fails on {label} in round {t}: {reasons}")
        # last, since a run removes the files of earlier runs
        traced = _run(name, 1)
        expect(plain["transcript_sha256"][0] == traced["transcript_sha256"][0],
               f"{name}: traced and untraced runs write the same transcript "
               f"({plain['transcript_sha256'][0][:12]})")
    shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
