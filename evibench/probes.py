"""Timing probes installed on evicast from the outside.

RoundClock times every engine round (the round call plus its observe call)
and is installed in both modes.  Tracer wraps the public functions of each
evicast module and keeps, per wrapped name, a call count and a self time:
the wrapper's own duration minus the time spent in wrapped callees.  Both
patch class attributes and module globals in place, so the library's code
is unchanged and its outputs are unaffected; nothing is written until the
run ends.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter


class RoundClock:
    """Latency samples of engine rounds, measured around the engine's own
    round and observe methods."""

    def __init__(self):
        self.samples: list[float] = []
        self.first_call = None
        self.last_observe_end = None
        self._open: dict[int, float] = {}

    def install(self, cls, round_name: str, observe_name: str) -> None:
        rnd = getattr(cls, round_name)
        obs = getattr(cls, observe_name)
        clock = self

        @functools.wraps(rnd)
        def timed_round(engine, *args, **kwargs):
            t0 = perf_counter()
            if clock.first_call is None:
                clock.first_call = t0
            out = rnd(engine, *args, **kwargs)
            clock._open[id(engine)] = perf_counter() - t0
            return out

        @functools.wraps(obs)
        def timed_observe(engine, *args, **kwargs):
            t0 = perf_counter()
            out = obs(engine, *args, **kwargs)
            t1 = perf_counter()
            clock.samples.append(clock._open.pop(id(engine)) + (t1 - t0))
            clock.last_observe_end = t1
            return out

        setattr(cls, round_name, timed_round)
        setattr(cls, observe_name, timed_observe)


class Tracer:
    """Call counts and self times per traced name, plus sums read off the
    EVI solutions the solver returns."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.sums = {"evi.op_evals": 0, "evi.hit_cap": 0,
                     "evi.eps_realized_sum": 0.0, "evi.support_atoms": 0}
        self.history_rows: dict[int, int] = {}
        self._stack: list[float] = []

    def wrap(self, name: str, fn, after=None):
        """fn with its calls and self time counted under name; after(args,
        result), when given, reads the result outside the timed span."""
        self.calls.setdefault(name, 0)
        self.total.setdefault(name, 0.0)
        stack = self._stack
        calls, total = self.calls, self.total

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                calls[name] += 1
                total[name] += dt - child
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(args, out)
            return out

        return traced

    # -- installation -----------------------------------------------------------

    def patch_function(self, module, attr: str, name: str, after=None) -> None:
        """Replace module.attr, and every other evicast module's binding of
        the same object (from-imports), with one traced wrapper."""
        original = getattr(module, attr)
        traced = self.wrap(name, original, after)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("evicast") and \
                    getattr(mod, attr, None) is original:
                setattr(mod, attr, traced)

    def patch_method(self, cls, attr: str, name: str, after=None) -> None:
        setattr(cls, attr, self.wrap(name, cls.__dict__[attr], after))

    def install(self) -> None:
        from evicast import (decision, evi, forecaster, geometry, harness,
                             learners, testfns)

        sums = self.sums

        def count_solution(args, sol):
            sums["evi.op_evals"] += sol.op_evals
            sums["evi.hit_cap"] += int(sol.hit_cap)
            sums["evi.eps_realized_sum"] += sol.certified_gap
            sums["evi.support_atoms"] += sol.support_size

        self.patch_function(evi, "solve_evi", "evi.solve_evi", count_solution)
        for attr in ("_lp_polish", "_minmax_weights", "certify_evi"):
            self.patch_function(evi, attr, f"evi.{attr}")

        # the operator a family or kernel history hands to the solver
        post_init = evi.EviProblem.__post_init__
        op_wrap = functools.partial(self.wrap, "testfns.operator")

        def traced_problem_init(problem):
            post_init(problem)
            problem.operator = op_wrap(problem.operator)

        self.calls.setdefault("testfns.operator", 0)
        self.total.setdefault("testfns.operator", 0.0)
        evi.EviProblem.__post_init__ = traced_problem_init

        body = geometry.ConvexBody
        for attr in ("linopt", "project", "contains"):
            self.patch_method(body, attr, f"geometry.{attr}")
        dist = geometry.FiniteSupportDistribution
        self.patch_method(dist, "__post_init__", "geometry.distribution")
        self.patch_method(dist, "coalesced", "geometry.coalesced")

        rows = self.history_rows

        def count_rows(args, out):
            blocks = getattr(args[0], "_z_blocks", None)
            if blocks is not None:
                rows[id(args[0])] = sum(b.shape[0] for b in blocks)

        for cls in (testfns._ScalarHistory, testfns._FeatureHistory,
                    testfns._SumHistory):
            self.patch_method(cls, "absorb", "testfns.history.absorb", count_rows)

        for cls in (learners.Hedge, learners.BallRegularizedLeader):
            self.patch_method(cls, "next", "learners.next")
            self.patch_method(cls, "feed", "learners.feed")

        for cls in (forecaster.FiniteTestFamily, forecaster.LinearTestFamily,
                    decision.SwapTestFamily):
            self.patch_method(cls, "propose", "forecaster.propose")
            self.patch_method(cls, "gradient", "forecaster.gradient")
        for cls, rnd in ((forecaster.ReductionEngine, "mc_round"),
                         (forecaster.K29Engine, "k29_round")):
            self.patch_method(cls, rnd, "forecaster.round")
            self.patch_method(cls, "mc_observe", "forecaster.observe")
        for attr in ("finite_reduction_ledger", "linear_reduction_ledger",
                     "per_round_evi_inequality"):
            self.patch_function(forecaster, attr, f"forecaster.{attr}")
        self.patch_method(forecaster.K29ValuesBuilder, "__call__",
                          "forecaster.K29ValuesBuilder")

        for attr in ("best_response", "best_response_batch",
                     "max_linear_swap_regret"):
            self.patch_function(decision, attr, f"decision.{attr}")

        self.patch_method(forecaster.Transcript, "write_json",
                          "harness.write_transcript")
        self.patch_method(decision.DecisionTranscript, "write_json",
                          "harness.write_transcript")
        self.patch_method(forecaster.Transcript, "write_csv", "harness.write_csv")
        self.patch_function(harness, "_write_metrics", "harness.write_csv")
        self.patch_function(harness, "emit_plots", "harness.write_svg")
        # what is left of the report step once the wrapped writers, ledgers
        # and audits are taken out: the report dict, the hash and its write
        self.patch_function(harness, "_finalize", "harness.write_report")
        harness._RUNNERS["self_play"] = self.wrap(
            "harness.write_report", harness._RUNNERS["self_play"])
        self.patch_function(harness, "self_play_game", "harness.self_play_game")

    # -- results ----------------------------------------------------------------

    def metrics(self, experiments: int) -> dict:
        """Per-experiment means of every traced figure."""
        n = max(experiments, 1)
        out = {}
        for name in sorted(self.calls):
            out[f"{name}.calls"] = (self.calls[name] / n, "count")
            out[f"{name}.self_ms"] = (1e3 * self.total[name] / n, "ms")
        for name, value in self.sums.items():
            out[name] = (value / n, "gap" if name.endswith("_sum") else "count")
        out["testfns.history_rows"] = (max(self.history_rows.values(), default=0),
                                       "rows")
        return out
