"""The four benchmark workloads: how their inputs are made from a seed, and
the checks that judge a finished run from its written files.

Every check here is computed from the benchmark's own inputs and its own
arithmetic (vertex enumeration, a Gaussian-kernel sum, brute-force swap
regret, a LinProg feasibility solve).  Nothing in this module imports
evicast, so a fault in the library cannot hide itself from its own audit.

A check returns a Verdict: the rounds whose per-round checks failed, and
the run-level checks (ledgers, identities) that failed.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

CERT_TOL = 1e-9  # |enumerated certificate - eps_realized|
SLACK_TOL = 1e-9  # per-round sign checks
INPUT_TOL = 1e-12  # recorded inputs against the generated ones


def _rng(seed: int, tag: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((int(seed), tag, index)))


def _program_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


# -- input makers ----------------------------------------------------------------

def affine_tables(seed: int, dim: int, count: int, scale: float):
    """The seeded affine family, negation-closed: 2 * count members.

    This restates the documented construction of
    evicast.harness.random_affine_members, so the checks mix their own
    tables with the recorded Hedge weights."""
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x46414D49)))
    mats, offs = [], []
    for _ in range(count):
        m = rng.normal(size=(dim, dim))
        m *= scale / max(1.0, float(np.linalg.norm(m, 2)))
        c = rng.normal(size=dim)
        c *= 0.25 * scale / max(1.0, float(np.linalg.norm(c)))
        mats += [m, -m]
        offs += [c, -c]
    return np.array(mats), np.array(offs)


def swap_maps(k: int) -> np.ndarray:
    """All k^k vertex maps of the simplex as 0/1 column-stochastic matrices,
    in itertools.product order (the order the swap family documents)."""
    maps = []
    for pi in itertools.product(range(k), repeat=k):
        P = np.zeros((k, k))
        for i, j in enumerate(pi):
            P[j, i] = 1.0
        maps.append(P)
    return np.array(maps)


RPS = np.array([[0.5, 1.0, 0.0],
                [0.0, 0.5, 1.0],
                [1.0, 0.0, 0.5]])


@dataclass
class Inputs:
    """Everything a workload hands to the program, plus what the checks
    need to know about it."""

    config: dict
    horizon: int
    outcomes: np.ndarray = None
    contexts: np.ndarray = None
    delays: np.ndarray = None
    vertices: np.ndarray = None  # body vertices for certificate enumeration
    mats: np.ndarray = None
    offs: np.ndarray = None


# One fixed family for both affine workloads.  A family drawn per seed makes
# the solver's quality swing with the draw (rounds at target over 1000
# rounds ranged from 15 to 432 across ten family seeds), which would drown
# any change to the solver in the choice of family.
FAMILY_SEED = 0


def make_affine_tight(seed: int, index: int, horizon: int) -> Inputs:
    rng = _rng(seed, 0x41464654, index)
    outcomes = rng.dirichlet(np.ones(3), size=horizon)
    delays = rng.integers(1, 6, size=horizon)
    mats, offs = affine_tables(FAMILY_SEED, 3, 4, 0.25)
    config = {"kind": "standard", "horizon": horizon,
              "seed": _program_seed(rng),
              "label": "affine-tight", "eps_policy": "default",
              "body": {"kind": "simplex", "dim": 3},
              "family": {"kind": "affine", "count": 4, "scale": 0.25,
                         "seed": FAMILY_SEED},
              "nature": {"kind": "fixed_sequence",
                         "outcomes": outcomes.tolist()},
              "delays": delays.tolist()}
    return Inputs(config=config, horizon=horizon, outcomes=outcomes,
                  delays=delays, vertices=np.eye(3), mats=mats, offs=offs)


KERNEL_BANDWIDTH = 0.5
KERNEL_RADIUS = 1.0


def make_kernel_long(seed: int, index: int, horizon: int) -> Inputs:
    rng = _rng(seed, 0x4B4C4E47, index)
    contexts = rng.uniform(-1.0, 1.0, size=(horizon, 2))
    # outcome class probabilities tilt with the context, so calibration
    # against the kernel class has something to find
    logits = contexts @ np.array([[1.5, -0.5, -1.0], [-0.5, 1.5, -1.0]])
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    outcomes = np.array([rng.dirichlet(1.0 + 4.0 * p) for p in probs])
    config = {"kind": "k29", "horizon": horizon, "seed": _program_seed(rng),
              "label": "kernel-long", "eps_policy": "default",
              "body": {"kind": "simplex", "dim": 3},
              "kernel": {"kind": "gaussian", "bandwidth": KERNEL_BANDWIDTH},
              "context_dim": 2, "radius": KERNEL_RADIUS,
              "nature": {"kind": "fixed_sequence",
                         "outcomes": outcomes.tolist(),
                         "contexts": contexts.tolist()}}
    return Inputs(config=config, horizon=horizon, outcomes=outcomes,
                  contexts=contexts, vertices=np.eye(3))


def make_swap_selfplay(seed: int, index: int, horizon: int) -> Inputs:
    rng = _rng(seed, 0x53574150, index)
    config = {"kind": "self_play", "horizon": horizon,
              "seed": _program_seed(rng),
              "label": "swap-selfplay", "eps_policy": "default",
              "game": {"A": RPS.tolist(), "B": RPS.T.tolist()}}
    box = np.array(list(itertools.product((0.0, 1.0), repeat=3)))
    return Inputs(config=config, horizon=horizon, vertices=box)


def hull_vertices(count: int = 10) -> np.ndarray:
    """A fixed, evenly spread polytope: count points of a Fibonacci spiral
    on the unit sphere, all of them vertices.  The seed varies the outcomes
    and the family, not the body, so the cost of the hull oracles compares
    across seeds."""
    i = np.arange(count) + 0.5
    z = 1.0 - 2.0 * i / count
    r = np.sqrt(1.0 - z * z)
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def hull_facets(pts: np.ndarray) -> np.ndarray:
    """Vertex triples spanning a supporting plane: the triangular facets of
    a 3-d hull in general position."""
    out = []
    for tri in itertools.combinations(range(len(pts)), 3):
        a, b, c = pts[list(tri)]
        normal = np.cross(b - a, c - a)
        side = (pts - a) @ normal
        if np.all(side <= 1e-12) or np.all(side >= -1e-12):
            out.append(tri)
    return np.array(out)


def make_polytope_hull(seed: int, index: int, horizon: int) -> Inputs:
    rng = _rng(seed, 0x504F4C59, index)
    pts = hull_vertices()
    # outcomes on the boundary facets, where the hull projection works
    # hardest: a seeded facet and seeded barycentric weights per round
    facets = hull_facets(pts)
    which = rng.integers(0, len(facets), size=horizon)
    bary = rng.dirichlet(np.ones(3), size=horizon)
    outcomes = np.einsum("ta,tad->td", bary, pts[facets[which]])
    mats, offs = affine_tables(FAMILY_SEED, 3, 4, 0.25)
    config = {"kind": "standard", "horizon": horizon,
              "seed": _program_seed(rng),
              "label": "polytope-hull", "eps_policy": "sqrt",
              "body": {"kind": "vertex_polytope", "points": pts.tolist()},
              "family": {"kind": "affine", "count": 4, "scale": 0.25,
                         "seed": FAMILY_SEED},
              "nature": {"kind": "fixed_sequence",
                         "outcomes": outcomes.tolist()}}
    return Inputs(config=config, horizon=horizon, outcomes=outcomes,
                  vertices=pts, mats=mats, offs=offs)


# -- verdicts --------------------------------------------------------------------

@dataclass
class Verdict:
    bad_rounds: set = field(default_factory=set)  # t, or (player, t)
    reasons: dict = field(default_factory=dict)   # round -> what failed there
    failures: list = field(default_factory=list)  # run-level check names
    notes: list = field(default_factory=list)     # first few failure details

    def round_fails(self, key, why: str) -> None:
        if len(self.notes) < 8:
            self.notes.append(f"round {key}: {why}")
        self.bad_rounds.add(key)
        self.reasons.setdefault(key, []).append(why)

    def run_fails(self, name: str, why: str) -> None:
        self.failures.append(name)
        if len(self.notes) < 8:
            self.notes.append(f"{name}: {why}")

    @property
    def ok(self) -> bool:
        return not self.bad_rounds and not self.failures


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _enumerated_gap(vals, pts, w, vertices) -> float:
    """Certificate max_v E[S(p)]^T v - E[S(p)^T p] by vertex enumeration."""
    a = vals.T @ w
    b = float(np.sum(w * np.sum(vals * pts, axis=1)))
    return float(np.max(vertices @ a)) - b


def _check_common(v: Verdict, rounds: list, inputs: Inputs, target_of,
                  key=lambda t: t) -> None:
    """Row shape, target schedule, weights, and hit_cap consistency."""
    if len(rounds) != inputs.horizon:
        v.run_fails("round_count", f"{len(rounds)} != {inputs.horizon}")
    for i, r in enumerate(rounds):
        t = i + 1
        if r["t"] != t:
            v.round_fails(key(t), f"index {r['t']}")
            continue
        target = target_of(t)
        if abs(r["eps_target"] - target) > INPUT_TOL * target:
            v.round_fails(key(t), f"eps_target {r['eps_target']} != {target}")
        w = np.asarray(r["solved_weights"], float)
        if np.any(w < -1e-12) or abs(w.sum() - 1.0) > 1e-9:
            v.round_fails(key(t), "weights are not a distribution")
        if bool(r["hit_cap"]) != (r["eps_realized"] > r["eps_target"]):
            v.round_fails(key(t), "hit_cap disagrees with the certificate")


def _check_simplex_atoms(v: Verdict, t: int, pts: np.ndarray) -> None:
    if np.any(pts < -1e-9) or np.any(np.abs(pts.sum(axis=1) - 1.0) > 1e-9):
        v.round_fails(t, "atom off the simplex")


def _finite_ledger(v: Verdict, rounds: list, inputs: Inputs) -> None:
    """MC_i <= Hedge regret_i + sum eps + 1e-8 T for every member, both
    sides recomputed from the tables and the recorded weights."""
    mats, offs = inputs.mats, inputs.offs
    T = len(rounds)
    F = np.zeros((T, len(mats)))
    lam = np.zeros((T, len(mats)))
    eps_sum = 0.0
    for i, r in enumerate(rounds):
        P = np.asarray(r["solved_points"], float)
        w = np.asarray(r["solved_weights"], float)
        resid = inputs.outcomes[i][None, :] - P
        vals = np.einsum("nuv,av->nau", mats, P) + offs[:, None, :]
        F[i] = -np.einsum("a,nau,au->n", w, vals, resid)
        lam[i] = r["params"]
        eps_sum += r["eps_realized"]
    played = float(np.sum(lam * F))
    for j in range(len(mats)):
        mc = -float(F[:, j].sum())
        regret = played - float(F[:, j].sum())
        rhs = regret + eps_sum + 1e-8 * max(T, 1)
        if not mc <= rhs:
            v.run_fails("ledger", f"member {j}: mc {mc} > {rhs}")


def _check_affine_rounds(v: Verdict, rounds: list, inputs: Inputs,
                         in_body) -> None:
    """Per-round checks shared by the two affine standard workloads."""
    for i, r in enumerate(rounds):
        t = i + 1
        lam = np.asarray(r["params"], float)
        if lam.shape != (len(inputs.mats),) or np.any(lam < 0) or \
                abs(lam.sum() - 1.0) > 1e-9:
            v.round_fails(t, "Hedge weights are not a distribution")
            continue
        P = np.asarray(r["solved_points"], float)
        w = np.asarray(r["solved_weights"], float)
        if not (np.array_equal(P, np.asarray(r["points"], float))
                and np.array_equal(w, np.asarray(r["weights"], float))):
            v.round_fails(t, "played and solved distributions differ")
        in_body(v, t, P)
        if r["y"] is None or np.max(np.abs(np.asarray(r["y"]) - inputs.outcomes[i])) > INPUT_TOL:
            v.round_fails(t, "outcome differs from the generated one")
            continue
        M = np.einsum("n,nuv->uv", lam, inputs.mats)
        c = lam @ inputs.offs
        vals = P @ M.T + c[None, :]
        gap = _enumerated_gap(vals, P, w, inputs.vertices)
        if abs(gap - r["eps_realized"]) > CERT_TOL:
            v.round_fails(t, f"certificate {gap!r} != eps_realized {r['eps_realized']!r}")


def check_affine_tight(out_dir: str, inputs: Inputs) -> Verdict:
    v = Verdict()
    rounds = _load(os.path.join(out_dir, "transcript.json"))["rounds"]
    _check_common(v, rounds, inputs, lambda t: 1.0 / (10.0 * t * t))
    _check_affine_rounds(v, rounds, inputs, _check_simplex_atoms)
    for i, r in enumerate(rounds):
        if r["delivery_t"] != i + 1 + int(inputs.delays[i]):
            v.round_fails(i + 1, f"delivery_t {r['delivery_t']} != t + d_t")
    if not v.failures:
        _finite_ledger(v, rounds, inputs)
    return v


def _hull_residual(vertices: np.ndarray, p: np.ndarray) -> float:
    """L1 distance from p to conv(vertices) along coordinates, by an LP
    with slack variables: min sum(s+ + s-) s.t. V^T l + s+ - s- = p,
    l on the simplex."""
    k, d = vertices.shape
    c = np.concatenate([np.zeros(k), np.ones(2 * d)])
    a_eq = np.zeros((d + 1, k + 2 * d))
    a_eq[:d, :k] = vertices.T
    a_eq[:d, k:k + d] = np.eye(d)
    a_eq[:d, k + d:] = -np.eye(d)
    a_eq[d, :k] = 1.0
    b_eq = np.concatenate([p, [1.0]])
    res = optimize.linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None),
                           method="highs")
    return float(res.fun) if res.status == 0 else math.inf


def check_polytope_hull(out_dir: str, inputs: Inputs) -> Verdict:
    v = Verdict()
    rounds = _load(os.path.join(out_dir, "transcript.json"))["rounds"]
    _check_common(v, rounds, inputs, lambda t: 1.0 / math.sqrt(t))

    def in_hull(v, t, P):
        for p in P:
            if _hull_residual(inputs.vertices, p) > 1e-8:
                v.round_fails(t, "atom outside the hull")
                return

    _check_affine_rounds(v, rounds, inputs, in_hull)
    for i, y in enumerate(inputs.outcomes):
        if _hull_residual(inputs.vertices, y) > 1e-8:
            v.round_fails(i + 1, "outcome outside the hull")
    if not v.failures:
        _finite_ledger(v, rounds, inputs)
    return v


def _sqdist(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return np.sum((A[:, None, :] - B[None, :, :]) ** 2, axis=2)


def check_kernel_long(out_dir: str, inputs: Inputs) -> Verdict:
    """Replays the defensive forecaster with the benchmark's own Gaussian
    kernel sum: S_t(p) = sum_{i<t} E_{q~D_i}[k((x_t,p),(x_i,q)) (y_i - q)],
    the trust coefficient alpha_t from the norm recursion, and then the
    certificate and the realized-outcome inequality of alpha_t S_t."""
    v = Verdict()
    rounds = _load(os.path.join(out_dir, "transcript.json"))["rounds"]
    _check_common(v, rounds, inputs, lambda t: 1.0 / (10.0 * t * t))
    T = inputs.horizon
    # budget = T * value_bound * diameter^2 with value_bound 1 (Gaussian)
    # and diameter 2 (the simplex sits in the unit ball)
    eta = 2.0 * KERNEL_RADIUS / math.sqrt(T * 4.0)
    two_bw2 = 2.0 * KERNEL_BANDWIDTH ** 2
    Z = np.zeros((0, 5))
    R = np.zeros((0, 3))
    norm2 = 0.0
    for i, r in enumerate(rounds):
        t = i + 1
        x = np.asarray(r["x"], float)
        y = None if r["y"] is None else np.asarray(r["y"], float)
        P = np.asarray(r["solved_points"], float)
        w = np.asarray(r["solved_weights"], float)
        _check_simplex_atoms(v, t, P)
        if x.shape != (2,) or np.max(np.abs(x - inputs.contexts[i])) > INPUT_TOL:
            v.round_fails(t, "context differs from the generated one")
        if y is None or np.max(np.abs(y - inputs.outcomes[i])) > INPUT_TOL:
            v.round_fails(t, "outcome differs from the generated one")
            y = inputs.outcomes[i]
        alpha = eta / 2.0 if norm2 <= 0.0 else min(eta / 2.0,
                                                   KERNEL_RADIUS / math.sqrt(norm2))
        if r["alpha"] is None or abs(r["alpha"] - alpha) > 1e-9 * max(alpha, 1e-300) + 1e-15:
            v.round_fails(t, f"alpha {r['alpha']!r} != {alpha!r}")
        Zt = np.hstack([np.tile(x, (P.shape[0], 1)), P])
        S = np.exp(-_sqdist(Zt, Z) / two_bw2) @ R if Z.shape[0] else np.zeros_like(P)
        vals = alpha * S
        gap = _enumerated_gap(vals, P, w, inputs.vertices)
        if abs(gap - r["eps_realized"]) > CERT_TOL:
            v.round_fails(t, f"certificate {gap!r} != eps_realized {r['eps_realized']!r}")
        realized = float(np.sum(w * np.sum(vals * (y[None, :] - P), axis=1)))
        if realized > r["eps_realized"] + SLACK_TOL:
            v.round_fails(t, f"E[h(y - p)] {realized!r} > eps_realized")
        Rt = w[:, None] * (y[None, :] - P)
        cross = float(np.sum(S * Rt))
        w_t = float(np.sum(np.exp(-_sqdist(Zt, Zt) / two_bw2) * (Rt @ Rt.T)))
        norm2 += 2.0 * cross + w_t
        Z = np.vstack([Z, Zt])
        R = np.vstack([R, Rt])
    return v


def _best_response(P: np.ndarray) -> np.ndarray:
    """argmin over the simplex of <p, z>, lowest index on ties."""
    Z = np.zeros_like(P)
    Z[np.arange(P.shape[0]), np.argmin(P, axis=1)] = 1.0
    return Z


def check_swap_selfplay(out_dir: str, inputs: Inputs) -> Verdict:
    """Both players: atoms in the loss box, best responses, losses priced
    by the opponent's mean action, the certificate of each round's swap
    mixture, and the per-round slack of every vertex map.  Then the
    correlated-equilibrium violation of the joint play against brute-force
    swap regret over all 27 maps."""
    v = Verdict()
    A, B = RPS, RPS.T
    maps = swap_maps(3)
    players = [_load(os.path.join(out_dir, f"player{j}.json")) for j in (1, 2)]
    T = inputs.horizon
    means = np.zeros((2, T, 3))
    for j, dt in enumerate(players):
        rounds = dt["forecasts"]["rounds"]
        _check_common(v, rounds, inputs, lambda t: 1.0 / (10.0 * t * t),
                      key=lambda t, j=j: (j + 1, t))
        if len(rounds) != T or len(dt["decisions"]) != T:
            v.run_fails("round_count", f"player {j + 1}")
            return v
        for i, (r, d) in enumerate(zip(rounds, dt["decisions"])):
            P = np.asarray(r["points"], float)
            w = np.asarray(r["weights"], float)
            Z = _best_response(P)
            mu = np.asarray(d["mu_points"], float)  # the recorded sigma(p_a)
            if np.any(P < -1e-9) or np.any(P > 1.0 + 1e-9):
                v.round_fails((j + 1, i + 1), "forecast atom off the loss box")
            if not np.array_equal(Z, mu):
                v.round_fails((j + 1, i + 1), "pushforward is not the best response")
            means[j, i] = w @ Z
            lam = np.asarray(r["params"], float)
            Bt = np.eye(3) - np.einsum("n,nuv->uv", lam, maps)
            gap = _enumerated_gap(Z @ Bt.T, P, w, inputs.vertices)
            if abs(gap - r["eps_realized"]) > CERT_TOL:
                v.round_fails((j + 1, i + 1),
                              f"certificate {gap!r} != eps_realized {r['eps_realized']!r}")
            # slack of map n over the recorded actions:
            # sum_a w_a <mu_a - M_n mu_a, p_a>
            if mu.shape != P.shape:
                v.round_fails((j + 1, i + 1), "one recorded action per atom")
                continue
            H = mu[None, :, :] - np.einsum("nuv,av->nau", maps, mu)
            slack = np.einsum("a,nau,au->n", w, H, P)
            if float(slack.max()) > SLACK_TOL:
                v.round_fails((j + 1, i + 1), f"slack {float(slack.max())!r} > 0")
    for j, dt in enumerate(players):
        other = means[1 - j]
        expect = other @ A.T if j == 0 else other @ B
        got = np.array([d["loss"] for d in dt["decisions"]])
        for i in np.nonzero(np.max(np.abs(got - expect), axis=1) > INPUT_TOL)[0]:
            v.round_fails((j + 1, int(i) + 1), "loss is not priced by the opponent")
    joint = np.einsum("ta,tb->ab", means[0], means[1]) / T
    for j, table in enumerate((A, B)):
        if j == 0:
            gains = np.array([[np.sum(joint[a] * (table[a] - table[a2]))
                               for a2 in range(3)] for a in range(3)])
        else:
            gains = np.array([[np.sum(joint[:, b] * (table[:, b] - table[:, b2]))
                               for b2 in range(3)] for b in range(3)])
        ce = float(gains.max(axis=1).sum())
        dt = players[j]
        losses = np.array([d["loss"] for d in dt["decisions"]])
        regrets = [float(np.sum(losses * (means[j] - means[j] @ M.T)))
                   for M in maps]
        swap = max(regrets)
        if abs(ce - swap / T) > 1e-9:
            v.run_fails("ce_identity", f"player {j + 1}: {ce!r} vs {swap / T!r}")
    return v


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # the config kind, which fixes the engine whose rounds are timed
    horizon: int  # rounds per experiment
    make: object  # (seed, index, horizon) -> Inputs
    check: object  # (experiment dir, Inputs) -> Verdict
    transcripts: tuple  # files whose bytes and hashes identify the run
    # nominal seconds of one experiment; a run of S seconds makes
    # round(S / experiment_s) experiments, whatever the program's speed
    experiment_s: float
    engines_per_round: int = 1


# experiment_s is one experiment's run_s on a shared 2-core x86 machine
# (1.06, 4.0, 2.9 and 4.2 s) with headroom for set-up and the checks, so a
# 20 s run makes 18, 4, 6 and 4 experiments and ends in about 20-27 s
WORKLOADS = {
    w.name: w for w in (
        Workload("affine-tight", "standard", 300, make_affine_tight,
                 check_affine_tight, ("transcript.json",), 1.1),
        Workload("kernel-long", "k29", 240, make_kernel_long,
                 check_kernel_long, ("transcript.json",), 4.5),
        Workload("swap-selfplay", "self_play", 250, make_swap_selfplay,
                 check_swap_selfplay, ("player1.json", "player2.json"), 3.2,
                 engines_per_round=2),
        Workload("polytope-hull", "standard", 300, make_polytope_hull,
                 check_polytope_hull, ("transcript.json",), 4.5),
    )
}
