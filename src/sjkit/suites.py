"""Property-verification suites.

Each suite draws deterministic per-trial samples, evaluates one identity,
and reports the worst relative residual.  Per-trial seeds are derived from
the master seed and the trial index alone, so reruns of the same suite
produce byte-identical reports.

Every suite runs on one runner, _Batched, in chunks of up to 64 trials.  A
chunk's samples come from one pass over the counter-based (seed, tag)
streams of all its rows, each read to the longest length any family of
kinds (see _FAMILIES) needs: a stream's first numbers do not depend on how
many are drawn, so each sample has the bits of its int-seed draw.  Each
family's samples are built once for the chunk, and checked once where a
check could fail: the symplectic word is validated and each sampled base
checked for positivity, while the samples that are exact images of a
validated word (gstar, gstarj) or symmetric by construction (the Heisenberg
part) are not validated again.  The chunk is then evaluated in one pass,
each residual with the bits of its trial drawn and evaluated alone.  A
trial that raises an SjkError is recorded as a failure with its error and
the run goes on.  The algebraic suites call each law once per layer of
their identity trees, on the stack of the layer's operands (group-axioms:
jacobi_mul, heisenberg_mul and gstarj_mul twice each, then one rel_error
per field array of the two layers, its identities broadcast views at the
chunk's batch so each stack is one copy; theta-hom: theta and embed_sp_gph
once; cocycle: kc_component once and one rel_error per representation), and
a law that fails on a stack names its slice, e.g. " (slice 2)".
laplacian-invariance checks each test field once, on its domain's model
(_LAPLACIAN_MODELS), one trial per call, each Laplacian acting on its
stencil's points in one batch.  volume-invariance compares log densities,
the coordinate directions pushed as one TangentVector.  metric-invariance
applies three maps, then each model's metric once on the stack of its points
and images.  A SUITES entry is (fn, default tolerance), fn(g, h, seeds)
giving per seed a residual or the SjkError its trial raised.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import asdict, dataclass, field
from functools import cached_property, partial
from operator import attrgetter
from typing import Callable

import numpy as np

from . import decomp, geometry, groups, spaces
from .automorphy import IndexMatrix, Representation, verify_cocycle
from .geometry import (
    MetricParams,
    TEST_FIELDS,
    _abs_det2,
    _coordinate_dirs,
    _log_volume_density,
    _metric_sj_terms,
    _real_value,
    _sample_tangents,
    _weighted_sj,
    laplacian_disk,
    laplacian_sj,
    laplacian_siegel,
    metric_disk,
)
from .groups import (
    GStarJacobiElement,
    HeisenbergElement,
    JacobiElement,
    _draw_rows,
    _element_width,
    _fibered_width,
    _sample_elements,
    _seed,
    _tstar_residual,
    conjugate_by_T,
    embed_sp_gph,
    gstarj_inv,
    gstarj_mul,
    heisenberg_mul,
    jacobi_inv,
    jacobi_mul,
    symplectic_j,
    theta,
)
from .numkit import (
    ALGEBRAIC_REL,
    DomainError,
    SjkError,
    _broadcast_holder,
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
    partial_cayley,
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


# the kinds of each family, whose samples one builder makes from their rows of
# a chunk's one stream pass: (width, build), width(g, h, kinds) the numbers a
# row of the family reads and build(g, h, u, spans) -> {kind: sample} its
# samples from its block of rows u, each kind's rows at its span
_FAMILIES = {
    ("sp", "gstar", "jacobi", "gstarj"): (_element_width, _sample_elements),
    ("heisenberg",): (_element_width, _sample_elements),
    ("siegel", "siegel_jacobi"): (_fibered_width, _sample_points),
    ("disk", "disk_jacobi"): (_fibered_width, _sample_points),
    ("tangent", "tangent_jacobi"): (_fibered_width, _sample_tangents),
}
_FAMILY = {kind: family for family in _FAMILIES for kind in family}
# each kind's stream tag: elements 0-5, points 10-13, tangent vectors 20
_TAG = groups._KIND_TAG | spaces._KIND_TAG | geometry._KIND_TAG
# trials evaluated in one pass: memory stays flat in the trial count
_CHUNK = 64


@dataclass(frozen=True)
class _Batched:
    """A suite that draws one sample of each kind per trial, seeded s, s + 1,
    ..., and evaluates each chunk of up to _CHUNK trials in one pass.

    A chunk's samples come from one _uniforms pass over the (seed, tag) rows
    of all its kinds, laid out family by family (see _FAMILIES) and each read
    to the longest family's width; each family's builder then makes its
    kinds' samples from its block of rows.  A kind at offsets k1..km has the
    rows of the seeds s + k1 over the chunk, then s + k2, ..., next to the
    other kinds of its family, and each offset takes its rows of the kind's
    batch as a view, a 2-d holder through an int row for a chunk of one
    trial.  A kind with one row has it on its int seed.  A chunk that raises
    an SjkError is evaluated again trial by trial, each trial drawn as a
    chunk of one, and a trial that still raises gives its error in place of
    its residual.
    """

    kinds: tuple
    evaluate: Callable

    @cached_property
    def families(self) -> list[tuple]:
        """(width, build, the offsets in kinds of each of its kinds) per
        family, the families and their kinds in order of first offset."""
        out = {}
        for k, kind in enumerate(self.kinds):
            out.setdefault(_FAMILY[kind], {}).setdefault(kind, []).append(k)
        return [(*_FAMILIES[family], offsets) for family, offsets in out.items()]

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
        """The chunk's samples, one per kind position, from one stream pass
        whose rows are read to the longest family's width.  In a chunk of one
        trial each sample is a 2-d holder: a kind at one offset is drawn on
        its int seed, a kind at several takes int rows of its batch."""
        n, samples = len(chunk), [None] * len(self.kinds)
        seeds = [{kind: chunk[0] + ks[0] if n == 1 and len(ks) == 1
                  else [s + k for k in ks for s in chunk] for kind, ks in offsets.items()}
                 for _, _, offsets in self.families]
        width = max(w(g, h, s) for (w, _, _), s in zip(self.families, seeds))
        blocks = _draw_rows(seeds, _TAG, width)
        for (_, build, offsets), (u, spans) in zip(self.families, blocks):
            for kind, batch in build(g, h, u, spans).items():
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


def _axioms(mul, fields: attrgetter, a, b, c, pairs):
    """The distances of (ab)c from a(bc) and of x y from w, (x, y, w) in pairs,
    from one call of the law mul per layer and one rel_error per field array."""
    xs, ys, ws = zip(*pairs)
    one = mul(_stack_holders(a, b, *xs), _stack_holders(b, c, *ys))
    ab, bc = _slice_holder(one, 0), _slice_holder(one, 1)
    two = mul(_stack_holders(ab, a), _stack_holders(c, bc))  # (ab)c and a(bc)
    return np.max([rel_error(np.concatenate([t[:1], o[2:]]), np.concatenate([t[1:], w])) for
                   t, o, w in zip(fields(two), fields(one), fields(_stack_holders(*ws)))], axis=0)


def _group_axioms(a, b, c, ha, hb, hc, sa, sb, sc):
    ai, classes = jacobi_inv(a), (JacobiElement, HeisenbergElement, GStarJacobiElement)
    e, he, se = (_broadcast_holder(k.identity(a.g, a.h), a.m.m.shape[:-2]) for k in classes)
    return np.max(np.concatenate([
        _axioms(jacobi_mul, _JACOBI, a, b, c, [(a, e, a), (e, a, a), (a, ai, e), (ai, a, e)]),
        _axioms(heisenberg_mul, _HEIS, ha, hb, hc, [(ha, he, ha)]),
        _axioms(gstarj_mul, _GSTARJ, sa, sb, sc,
                [(sa, se, sa), (se, sa, sa), (sa, gstarj_inv(sa), se)])]), axis=0)


def _theta_hom(a, b):
    stack = _stack_holders(jacobi_mul(a, b), a, b)  # theta and embed_sp_gph once, on it
    t_ab, t_a, t_b = map(partial(_slice_holder, theta(stack)), range(3))
    e_ab, e_a, e_b = embed_sp_gph(stack)
    j = np.real(symplectic_j(a.g + a.h))
    return np.max([_dist(_GSTARJ, t_ab, gstarj_mul(t_a, t_b)), _tstar_residual(a, e_a),
                   rel_error(e_ab, e_a @ e_b), rel_error(e_a.mT @ j @ e_a, j)], axis=0)


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


# the weights the geometric suites give the Siegel-Jacobi metric
_UNIT, _SKEWED = MetricParams(1.0, 1.0), MetricParams(2.0, 0.5)


def _metric_invariance(a, pj, vj, b, pb, vb):
    """Each model's metric at its points and their images, from three maps and
    one metric call per model on their stack.  The base-model identities are
    read off the Jacobi samples, as each base-model map is the base part of
    its Jacobi map: Siegel space at pj's base and its image under a.m, the
    disk at pb and its image under b.gs, and the Cayley isometry, with the
    factor 4 of the bounded-model metric, at pb and partial_cayley(pb).  The
    Siegel-Jacobi metric takes pj and a.pj and, as a pullback of the
    bounded-model metric, the partial-Cayley images of pb and b.pb.  The
    Siegel-space values are the real part of its A-term on the first three
    slices, metric_siegel's bits without a metric call of their own."""
    moved_j, (moved_vj,) = act_jacobi(a, pj, dirs=[vj])
    moved_b, (moved_vb,) = act_jacobi_disk(b, pb, dirs=[vb])
    disk_p, disk_v = _stack_holders(pb, moved_b), _stack_holders(vb, moved_vb)
    up_b, (up_vb,) = partial_cayley(disk_p, dirs=[disk_v])
    sj_p, sj_v = (_stack_holders(x, y, _slice_holder(z, 0), _slice_holder(z, 1))
                  for x, y, z in ((pj, moved_j, up_b), (vj, moved_vj, up_vb)))
    terms = _metric_sj_terms(sj_p, sj_v)
    # Siegel space on the bases of pj, a.pj and partial_cayley(pb): the A-term's real part
    siegel = _real_value(terms[0][:3], ALGEBRAIC_REL, "siegel metric")
    disk = metric_disk(disk_p, disk_v)
    unit, skewed = _weighted_sj(_UNIT, terms), _weighted_sj(_SKEWED, [t[:2] for t in terms])
    return np.max([_scalar_rel(siegel[0], siegel[1]), _scalar_rel(disk[0], disk[1]),
                   _scalar_rel(unit[0], unit[1]), _scalar_rel(skewed[0], skewed[1]),
                   _scalar_rel(disk[0], siegel[2]), _scalar_rel(unit[2], unit[3])], axis=0)


def _volume_invariance(a, p):
    """|rho(a.p) |det J|^2 / rho(p) - 1| from the log volume density rho."""
    moved, (pushed,) = act_jacobi(a, p, dirs=[_coordinate_dirs(p)])
    return abs(np.expm1(_log_volume_density(moved) + np.log(_abs_det2(pushed))
                        - _log_volume_density(p)))


# by field domain: the model's trial samples (an element, a point), Laplacian and action
_LAPLACIAN_MODELS = {
    "disk": (("gstar", "disk"), laplacian_disk, act_disk),
    "siegel": (("sp", "siegel"), laplacian_siegel, act_siegel),
    "sj": (("jacobi", "siegel_jacobi"), partial(laplacian_sj, _UNIT), act_jacobi),
}


def _laplacian_invariance(fld, a, p) -> float:
    """Delta(fld after a) at p against (Delta fld) at a.p on the model of fld's
    domain; the stencil's batch of points goes through the action in one call."""
    _, laplacian, act = _LAPLACIAN_MODELS[fld.domain]
    return _scalar_rel(laplacian(lambda q: fld(act(a, q)), p), laplacian(fld, act(a, p)))


# a runner per test field: trial s takes TEST_FIELDS[s % 6], one trial per call, as
# _frame_laplacian takes a single point
_LAPLACIANS = tuple(_Batched(_LAPLACIAN_MODELS[f.domain][0], partial(_laplacian_invariance, f))
                    for f in TEST_FIELDS)


# name -> (suite function (g, h, seeds) -> residual or error per seed, default tolerance)
SUITES = {
    "group-axioms": (_Batched(("jacobi",) * 3 + ("heisenberg",) * 3 + ("gstarj",) * 3,
                              _group_axioms), 1e-9),
    "theta-hom": (_Batched(("jacobi", "jacobi"), _theta_hom), 1e-9),
    "compat-29": (_Batched(("sp", "disk"), _compat_29), 1e-9),
    "compat-37": (_Batched(("jacobi", "disk_jacobi"), check_compatibility), 1e-9),
    "hc-reconstruct": (_Batched(("gstarj", "disk_jacobi"), _hc_reconstruct), 1e-9),
    "metric-invariance": (_Batched(("jacobi", "siegel_jacobi", "tangent_jacobi",
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
