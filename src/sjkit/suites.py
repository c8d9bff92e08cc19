"""Property-verification suites.

Each suite draws deterministic per-trial samples, evaluates one identity,
and reports the worst relative residual.  Per-trial seeds are derived from
the master seed and the trial index alone, so reruns of the same suite
produce byte-identical reports.

Every suite runs on one runner, _Batched, in chunks of up to 64 trials.  A
chunk's samples of a family of kinds (see _FAMILIES) come from one pass over
the counter-based (seed, tag) streams of its rows, each read to the family's
longest length: a stream's first numbers do not depend on how many are
drawn, so each sample has the bits of its int-seed draw.  They are built and
validated once for the chunk, which is then evaluated in one pass, each
residual with the bits of its trial drawn and evaluated alone.  A trial that
raises an SjkError is recorded as a failure with its error and the run goes
on.  laplacian-invariance has a runner per test field, its samples set by
the field's domain, and sends each trial to the runner of its seed's field,
one trial per call, each Laplacian acting on its stencil's points in one
batch.  metric-invariance evaluates each metric once per (point, image)
pair, stacked with its tangent vectors on a leading axis of two.  A SUITES
entry is (fn, default tolerance) with fn(g, h, seeds) returning, per seed, a
residual or the SjkError its trial raised.
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
    _sample_tangents,
    _weighted_sj,
    laplacian_disk,
    laplacian_sj,
    laplacian_siegel,
    metric_disk,
    metric_siegel,
    pullback_metric_disk,
    volume_density,
)
from .groups import (
    GStarJacobiElement,
    HeisenbergElement,
    JacobiElement,
    _sample_elements,
    _seed,
    conjugate_by_T,
    embed_sp_gph,
    gstarj_inv,
    gstarj_mul,
    heisenberg_mul,
    jacobi_inv,
    jacobi_mul,
    symplectic_j,
    theta,
    tstar_agreement_residual,
)
from .numkit import (
    DomainError,
    SjkError,
    _count,
    _floor1,
    _slice_holder,
    _stack_holders,
    rel_error,
)
from .spaces import (
    _sample_points,
    act_disk,
    act_jacobi,
    act_jacobi_disk,
    act_siegel,
    cayley,
    check_compatibility,
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


# the kinds of each family, whose samples one builder makes from one pass over
# their (seed, tag) streams, and its draw (g, h, seeds) -> {kind: sample}, seeds
# mapping each of those kinds to its seed or sequence of seeds
_FAMILIES = {
    ("sp", "gstar", "jacobi", "gstarj"): _sample_elements,
    ("heisenberg",): _sample_elements,
    ("kstarj",): _sample_elements,
    ("siegel", "siegel_jacobi"): _sample_points,
    ("disk", "disk_jacobi"): _sample_points,
    ("tangent", "tangent_jacobi"): _sample_tangents,
}
_FAMILY = {kind: family for family in _FAMILIES for kind in family}
# trials evaluated in one pass: memory stays flat in the trial count
_CHUNK = 64


@dataclass(frozen=True)
class _Batched:
    """A suite that draws one sample of each kind per trial, seeded s, s + 1,
    ..., and evaluates each chunk of up to _CHUNK trials in one pass.

    A chunk's samples come from one draw per family of kinds (see _FAMILIES):
    a kind at offsets k1..km is drawn on the seeds s + k1 over the chunk, then
    s + k2, ..., next to the other kinds of its family, and each offset takes
    its rows of the kind's batch as a view, a 2-d holder through an int row
    for a chunk of one trial.  A family with one row is drawn with its int
    seed.  A chunk that raises an SjkError is evaluated again trial by trial,
    each trial drawn as a chunk of one, and a trial that still raises gives
    its error in place of its residual.
    """

    kinds: tuple
    evaluate: Callable

    @cached_property
    def families(self) -> list[tuple]:
        """(draw, the offsets in kinds of each of its kinds) per family, the
        families and their kinds in order of first offset."""
        out = {}
        for k, kind in enumerate(self.kinds):
            out.setdefault(_FAMILY[kind], {}).setdefault(kind, []).append(k)
        return [(_FAMILIES[family], offsets) for family, offsets in out.items()]

    def __call__(self, g: int, h: int, seeds: list[int]) -> list:
        out = []
        for i in range(0, len(seeds), _CHUNK):
            chunk = seeds[i:i + _CHUNK]
            if len(chunk) > 1:
                try:
                    out.extend(self.evaluate(*self._draw(g, h, chunk)))
                    continue
                except SjkError:
                    pass  # replayed trial by trial below, recording the trials that raise
            out.extend(self.alone(g, h, s) for s in chunk)
        return out

    def _draw(self, g: int, h: int, chunk: list[int]) -> list:
        """The chunk's samples, one per kind position, from one draw per
        family.  In a chunk of one trial each sample is a 2-d holder: a kind
        at one offset is drawn on its int seed, a kind at several takes int
        rows of its batch."""
        n, samples = len(chunk), [None] * len(self.kinds)
        for draw, offsets in self.families:
            seeds = {kind: chunk[0] + ks[0] if n == 1 and len(ks) == 1
                     else [s + k for k in ks for s in chunk] for kind, ks in offsets.items()}
            for kind, batch in draw(g, h, seeds).items():
                ks = offsets[kind]
                if len(ks) == 1:
                    samples[ks[0]] = batch
                    continue
                for j, k in enumerate(ks):
                    samples[k] = _slice_holder(batch, j if n == 1 else slice(j * n, (j + 1) * n))
        return samples

    def alone(self, g: int, h: int, s: int):
        """Trial s evaluated from 2-d holders, or the SjkError it raises."""
        try:
            return self.evaluate(*self._draw(g, h, [s]))
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


def _laplacian_invariance(fld, a, p, m=None, q=None) -> float:
    """fld's residual under a at p on the model of its domain, and for a field
    of Omega alone also under m at q on Siegel space."""
    if fld.domain == "disk":
        return _laplacian_residual(laplacian_disk, fld, partial(act_disk, a), p)
    lap = partial(laplacian_sj, MetricParams(1.0, 1.0))
    res = _laplacian_residual(lap, fld, partial(act_jacobi, a), p)
    if fld.domain == "siegel":
        res = np.maximum(res, _laplacian_residual(laplacian_siegel, fld, partial(act_siegel, m), q))
    return res


# the samples of a test field's trial, by the field's domain
_LAPLACIAN_KINDS = {"disk": ("gstar", "disk"), "sj": ("jacobi", "siegel_jacobi"),
                    "siegel": ("jacobi", "siegel_jacobi", "sp", "siegel")}
# a runner per test field: trial s takes TEST_FIELDS[s % 6], one trial per call, as
# _frame_laplacian takes a single point
_LAPLACIANS = tuple(_Batched(_LAPLACIAN_KINDS[f.domain], partial(_laplacian_invariance, f))
                    for f in TEST_FIELDS)


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
    "laplacian-invariance": (lambda g, h, seeds: [_LAPLACIANS[s % len(_LAPLACIANS)].alone(g, h, s)
                                                  for s in seeds], 1e-3),
    "cocycle": (_Batched(("gstarj", "gstarj", "disk_jacobi"), _cocycle), 1e-8),
    "volume-invariance": (_Batched(("jacobi", "siegel_jacobi"), _volume_invariance), 1e-9),
}


def run_suite(name: str, g: int = 1, h: int = 1, trials: int = 100, seed: int = 0,
              tol: float | None = None) -> VerifyReport:
    """Run one named suite; deterministic in (name, g, h, trials, seed)."""
    if not isinstance(name, str) or name not in SUITES:
        raise DomainError(f"unknown suite: {name!r}")
    g, h = _count(g, "g"), _count(h, "h")
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
