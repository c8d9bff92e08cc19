"""Property-verification suites.

Each suite draws deterministic per-trial samples, evaluates one identity,
and reports the worst relative residual.  Per-trial seeds are derived from
the master seed and the trial index alone, so reruns of the same suite
produce byte-identical reports.

Every suite runs on one runner, _Batched, in chunks of up to 64 trials.  A
chunk's samples of each distinct kind come from one sampler call on its list
of seeds, every offset the kind sits at included: each seed's counter-based
stream gives the numbers it gives alone, the samples are built and validated
once for the chunk, and each offset takes its rows of the batch as views.  The
chunk is then evaluated in one pass, and each residual has the bits of its
trial drawn and evaluated alone.  A chunk that raises an SjkError is
evaluated again one trial at a time, each sample drawn alone with its int
seed (a batch of a repeated kind and its split cost more than its 2-d draws),
so a trial that raises is recorded as a failure with its error and the run
goes on.  laplacian-invariance, whose test field depends on the seed, runs in
chunks of one trial, each Laplacian acting on its stencil's points in one
batch.  metric-invariance evaluates each metric once per (point, image) pair,
stacked with its tangent vectors on a leading axis of two.  A SUITES entry is
(fn, default tolerance) with fn(g, h, seeds) returning, per seed, a residual
or the SjkError its trial raised.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import asdict, dataclass, field
from functools import cached_property, partial
from operator import attrgetter
from typing import Callable

import numpy as np

from . import decomp
from .automorphy import IndexMatrix, Representation, verify_cocycle
from .geometry import (
    MetricParams,
    TEST_FIELDS,
    _abs_det2,
    _coordinate_dirs,
    _metric_sj_terms,
    _weighted_sj,
    laplacian_disk,
    laplacian_sj,
    laplacian_siegel,
    metric_disk,
    metric_siegel,
    pullback_metric_disk,
    sample_tangent,
    volume_density,
)
from .groups import (
    GStarJacobiElement,
    HeisenbergElement,
    JacobiElement,
    _seed,
    conjugate_by_T,
    embed_sp_gph,
    gstarj_inv,
    gstarj_mul,
    heisenberg_mul,
    jacobi_inv,
    jacobi_mul,
    sample_element,
    symplectic_j,
    theta,
    tstar_agreement_residual,
)
from .numkit import (
    DimensionError,
    DomainError,
    SjkError,
    _floor1,
    _slice_holder,
    _stack_holders,
    rel_error,
)
from .spaces import (
    act_disk,
    act_jacobi,
    act_jacobi_disk,
    act_siegel,
    cayley,
    check_compatibility,
    sample_point,
)

__all__ = ["VerifyReport", "SUITES", "run_suite", "run_all"]


@dataclass
class VerifyReport:
    suite: str
    g: int
    h: int
    trials: int
    max_residual: float
    tolerance: float
    failures: list = field(default_factory=list)
    passed: bool = True

    def to_dict(self) -> dict:
        return asdict(self)


def trial_seed(master: int, index: int) -> int:
    """Stable per-trial seed; identical across runs and platforms."""
    ss = np.random.SeedSequence([int(master), int(index)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _scalar_rel(x, y):
    return abs(x - y) / _floor1(abs(x), abs(y))


# ---------------------------------------------------------------------------
# element distances


_JACOBI = attrgetter("m.m", "hs.lam", "hs.mu", "hs.kappa")
_HEIS = attrgetter("lam", "mu", "kappa")
_GSTARJ = attrgetter("gs.p", "gs.q", "hc.xi", "hc.eta", "hc.zeta")


def _dist(fields: attrgetter, a, b):
    """The worst rel_error over the paired fields of two elements."""
    return np.max([rel_error(x, y) for x, y in zip(fields(a), fields(b), strict=True)], axis=0)


# ---------------------------------------------------------------------------
# the runner


_POINT_KINDS = ("siegel", "disk", "siegel_jacobi", "disk_jacobi")
# trials evaluated in one pass: memory stays flat in the trial count
_CHUNK = 64


def _sample(kind: str, g: int, h: int, seed):
    """The sample of one kind for a seed or a sequence of seeds: an element,
    a point, a tangent vector ("tangent", "tangent_jacobi" with a fiber) or,
    for "trial", the trial (g, h, seed) itself, for a suite that draws its own."""
    if kind == "trial":
        return g, h, seed
    if kind.startswith("tangent"):
        return sample_tangent(g, h if kind == "tangent_jacobi" else None, seed)
    return (sample_point if kind in _POINT_KINDS else sample_element)(kind, g, h, seed)


@dataclass(frozen=True)
class _Batched:
    """A suite that draws one sample of each kind per trial, seeded s, s + 1,
    ..., and evaluates each chunk of up to `chunk` trials in one pass.  A
    chunk's samples of a kind come from one sampler call: a kind at offsets
    k1..km is drawn on the seeds s + k1 over the chunk, then s + k2, ..., and
    each offset takes its rows of that batch as a view.

    A chunk that raises an SjkError, and a chunk of one trial, is evaluated
    trial by trial from 2-d holders drawn with the trial's int seed, one
    sampler call per offset: a batch of a repeated kind and its split cost
    more than its 2-d draws.  A trial that still raises gives its error in
    place of its residual.
    """

    kinds: tuple
    evaluate: Callable
    chunk: int = _CHUNK

    @cached_property
    def offsets(self) -> dict:
        """The offsets in kinds of each distinct kind, in order of first offset."""
        return {kind: [k for k, x in enumerate(self.kinds) if x == kind] for kind in self.kinds}

    def __call__(self, g: int, h: int, seeds: list[int]) -> list:
        out = []
        for i in range(0, len(seeds), self.chunk):
            chunk = seeds[i:i + self.chunk]
            if len(chunk) > 1:
                try:
                    out.extend(self.evaluate(*self._draw(g, h, chunk)))
                    continue
                except SjkError:
                    pass  # replayed trial by trial below, recording the trials that raise
            out.extend(self.alone(g, h, s) for s in chunk)
        return out

    def _draw(self, g: int, h: int, chunk: list[int]) -> list:
        """The chunk's samples, one batch per kind position, from one sampler
        call per distinct kind."""
        n, samples = len(chunk), [None] * len(self.kinds)
        for kind, ks in self.offsets.items():
            batch = _sample(kind, g, h, [s + k for k in ks for s in chunk])
            if len(ks) == 1:
                samples[ks[0]] = batch
            else:
                for j, k in enumerate(ks):
                    samples[k] = _slice_holder(batch, slice(j * n, (j + 1) * n))
        return samples

    def alone(self, g: int, h: int, s: int):
        """Trial s evaluated from 2-d holders, or the SjkError it raises."""
        try:
            return self.evaluate(*[_sample(kind, g, h, s + k) for k, kind in enumerate(self.kinds)])
        except SjkError as exc:
            return exc


# ---------------------------------------------------------------------------
# algebraic suites


def _group_axioms(a, b, c, ha, hb, hc, sa, sb, sc):
    e, ai = JacobiElement.identity(a.g, a.h), jacobi_inv(a)
    res = [_dist(_JACOBI, jacobi_mul(jacobi_mul(a, b), c), jacobi_mul(a, jacobi_mul(b, c))),
           _dist(_JACOBI, jacobi_mul(a, e), a), _dist(_JACOBI, jacobi_mul(e, a), a),
           _dist(_JACOBI, jacobi_mul(a, ai), e), _dist(_JACOBI, jacobi_mul(ai, a), e)]

    he = HeisenbergElement.identity(a.g, a.h)
    res += [_dist(_HEIS, heisenberg_mul(heisenberg_mul(ha, hb), hc),
                  heisenberg_mul(ha, heisenberg_mul(hb, hc))),
            _dist(_HEIS, heisenberg_mul(ha, he), ha)]

    se = GStarJacobiElement.identity(a.g, a.h)
    res += [_dist(_GSTARJ, gstarj_mul(gstarj_mul(sa, sb), sc), gstarj_mul(sa, gstarj_mul(sb, sc))),
            _dist(_GSTARJ, gstarj_mul(sa, se), sa), _dist(_GSTARJ, gstarj_mul(se, sa), sa),
            _dist(_GSTARJ, gstarj_mul(sa, gstarj_inv(sa)), se)]
    return np.max(res, axis=0)


def _theta_hom(a, b):
    res = [_dist(_GSTARJ, theta(jacobi_mul(a, b)), gstarj_mul(theta(a), theta(b))),
           tstar_agreement_residual(a)]
    ea, eb = embed_sp_gph(a), embed_sp_gph(b)
    res.append(rel_error(embed_sp_gph(jacobi_mul(a, b)), ea @ eb))
    j = symplectic_j(a.g + a.h)
    res.append(rel_error(ea.mT @ np.real(j) @ ea, np.real(j)))
    return np.max(res, axis=0)


def _compat_29(m, w):
    lhs = act_siegel(m, cayley(w))
    rhs = cayley(act_disk(conjugate_by_T(m), w))
    return rel_error(lhs.omega, rhs.omega)


def _hc_reconstruct(a, p):
    return np.max(list(decomp.component_residuals(a, p).values()), axis=0)


def _cocycle(g1, g2, p):
    h = g1.h
    half_integral = 2.0 * np.eye(h) + 0.5 * (np.ones((h, h)) - np.eye(h))
    indexes = [IndexMatrix(np.zeros((h, h))), IndexMatrix(np.eye(h)),
               IndexMatrix(half_integral, half_integral=True, psd=True)]
    reps = [Representation("det_power", k) for k in (0, 1, 2)] + [Representation("standard")]
    return verify_cocycle(indexes, reps, g1, g2, p)


# ---------------------------------------------------------------------------
# invariant geometry: metrics and volume through the exact differentials, and
# the Laplacians by their stencils


def _paired(act_fn, p, v):
    """(p, act_fn(p)) and (v, its pushforward), each pair one holder with a
    leading axis of two, for one metric call."""
    moved_p, (moved_v,) = act_fn(p, dirs=[v])
    return _stack_holders(p, moved_p), _stack_holders(v, moved_v)


def _pair_rel(vals):
    """The relative residual of a metric's values at a pair's two slices."""
    return _scalar_rel(vals[0], vals[1])


def _metric_action_residual(metric_fn, act_fn, p, v):
    """The metric at (p, v) against the metric at their images under act_fn,
    with v pushed through the action's exact differential."""
    return _pair_rel(metric_fn(*_paired(act_fn, p, v)))


def _metric_invariance(m, ps, vs, gs, pd, vd, a, pj, vj, pc, vc, b, pb, vb):
    res = [_metric_action_residual(metric_siegel, partial(act_siegel, m), ps, vs),
           _metric_action_residual(metric_disk, partial(act_disk, gs), pd, vd)]
    terms = _metric_sj_terms(*_paired(partial(act_jacobi, a), pj, vj))
    res += [_pair_rel(_weighted_sj(params, terms))
            for params in (MetricParams(1.0, 1.0), MetricParams(2.0, 0.5))]
    # Cayley isometry: the factor 4 in the bounded-model metric
    moved, (moved_v,) = cayley(pc, dirs=[vc])
    res.append(_scalar_rel(metric_disk(pc, vc), metric_siegel(moved, moved_v)))
    # pullback metric on the disk model is invariant under the bounded action
    res.append(_metric_action_residual(partial(pullback_metric_disk, MetricParams(1.0, 1.0)),
                                       partial(act_jacobi_disk, b), pb, vb))
    return np.max(res, axis=0)


def _volume_invariance(a, p):
    moved, pushed = act_jacobi(a, p, dirs=_coordinate_dirs(p))
    return _scalar_rel(volume_density(moved) * _abs_det2(pushed), volume_density(p))


def _laplacian_residual(laplacian, fld, act, p) -> float:
    """The Laplacian of fld after act at p against that of fld at act(p); the
    stencil's batch of points goes through act in one call."""
    return _scalar_rel(laplacian(lambda q: fld(act(q)), p), laplacian(fld, act(p)))


def _laplacian_invariance(trial) -> float:
    """One trial: its test field, and so the samples it draws, follow from its seed."""
    g, h, s = trial
    fld = TEST_FIELDS[s % len(TEST_FIELDS)]
    if fld.domain == "disk":
        act = partial(act_disk, sample_element("gstar", g, h, s))
        return _laplacian_residual(laplacian_disk, fld, act, sample_point("disk", g, h, s + 1))
    act = partial(act_jacobi, sample_element("jacobi", g, h, s))
    lap = partial(laplacian_sj, MetricParams(1.0, 1.0))
    res = _laplacian_residual(lap, fld, act, sample_point("siegel_jacobi", g, h, s + 1))
    if fld.name in ("trace-re-base", "logdet-y"):
        act = partial(act_siegel, sample_element("sp", g, h, s + 2))
        res = np.maximum(res, _laplacian_residual(laplacian_siegel, fld, act,
                                                  sample_point("siegel", g, h, s + 3)))
    return res


# name -> (suite function (g, h, seeds) -> residual or error per seed, default tolerance)
SUITES = {
    "group-axioms": (_Batched(("jacobi",) * 3 + ("heisenberg",) * 3 + ("gstarj",) * 3,
                              _group_axioms), 1e-9),
    "theta-hom": (_Batched(("jacobi", "jacobi"), _theta_hom), 1e-9),
    "compat-29": (_Batched(("sp", "disk"), _compat_29), 1e-9),
    "compat-37": (_Batched(("jacobi", "disk_jacobi"), check_compatibility), 1e-9),
    "hc-reconstruct": (_Batched(("gstarj", "disk_jacobi"), _hc_reconstruct), 1e-9),
    "metric-invariance": (_Batched(("sp", "siegel", "tangent", "gstar", "disk", "tangent",
                                    "jacobi", "siegel_jacobi", "tangent_jacobi", "disk", "tangent",
                                    "gstarj", "disk_jacobi", "tangent_jacobi"),
                                   _metric_invariance), 1e-9),
    "laplacian-invariance": (_Batched(("trial",), _laplacian_invariance, chunk=1), 1e-3),
    "cocycle": (_Batched(("gstarj", "gstarj", "disk_jacobi"), _cocycle), 1e-8),
    "volume-invariance": (_Batched(("jacobi", "siegel_jacobi"), _volume_invariance), 1e-9),
}


def _count(x, what: str, error: type) -> int:
    """x as an int, or error unless x is an integer >= 1 and not a bool."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral) or x < 1:
        raise error(f"{what} must be an int >= 1, got {x!r}")
    return int(x)


def run_suite(name: str, g: int = 1, h: int = 1, trials: int = 100, seed: int = 0,
              tol: float | None = None) -> VerifyReport:
    """Run one named suite; deterministic in (name, g, h, trials, seed)."""
    if name not in SUITES:
        raise DomainError(f"unknown suite: {name!r}")
    g, h = _count(g, "g", DimensionError), _count(h, "h", DimensionError)
    trials = _count(trials, "trials", DomainError)
    suite_fn, default_tol = SUITES[name]
    if tol is not None and (isinstance(tol, bool) or not isinstance(tol, numbers.Real)
                            or not 0 < tol <= sys.float_info.max):  # NaN fails it too
        raise DomainError(f"tolerance must be a finite real number > 0, got {tol!r}")
    tolerance = default_tol if tol is None else float(tol)

    seeds = [trial_seed(_seed(seed), i) for i in range(trials)]
    results = list(suite_fn(g, h, seeds))
    errors = [r if isinstance(r, SjkError) else None for r in results]
    residuals = np.array([np.nan if e else r for r, e in zip(results, errors)], dtype=float)
    failures = [
        {"seed": s, "residual": float(r)} | ({"error": f"{type(e).__name__}: {e}"} if e else {})
        for s, r, e in zip(seeds, residuals, errors) if not r <= tolerance
    ]
    return VerifyReport(
        suite=name,
        g=g,
        h=h,
        trials=trials,
        max_residual=float(np.max(residuals)),  # NaN if any residual is
        tolerance=tolerance,
        failures=failures,
        passed=not failures,
    )


def run_all(g: int = 1, h: int = 1, trials: int = 100, seed: int = 0,
            tol: float | None = None) -> list[VerifyReport]:
    return [run_suite(name, g, h, trials, seed, tol) for name in SUITES]
