"""Reconstruction drivers.

The quadratic image-update subproblems of every iterative method here are
solved by the relaxed ordered-subsets linearized augmented Lagrangian
recursion with a decreasing relaxation schedule and diagonal majorizers.
The shifted-Poisson method rebuilds its quadratic surrogate (and the data
diagonal) every outer iteration; the weighted-least-squares variants keep
their data term fixed.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import dia_matrix

from .errors import ConfigurationError, NumericalError
from .geometry import (SystemGeometry, compute_kappa, pixel_centres, system_matrix,
                       weighted_gram_diag)
from .io import write_csv
from .metrics import DEFAULT_MU_WATER, RoiMask, rmse_roi
from .spstats import SpModel, neg_log_likelihood, post_log_convert, surrogate_at
from .ultra import (PatchConfig, SparseState, TransformUnion, accumulate_patches,
                    classwise_apply, extract_patches, largest_gram_eigenvalue,
                    patch_coverage, patch_weights, regularizer_majorizer_diag,
                    sparse_code_and_cluster)
# unused here, kept importable as recon.<name>: the benchmark's tracer wraps them
from .geometry import forward_project  # noqa: F401
from .spstats import build_surrogate  # noqa: F401
from .ultra import regularizer_value  # noqa: F401

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class EpParams:
    """Edge-preserving regularizer settings (delta in mm^-1)."""

    beta_ep: float
    delta: float
    potential_kind: str = "hyperbola"
    iters: int = 50

    def __post_init__(self):
        if self.potential_kind not in ("lange", "hyperbola"):
            raise ConfigurationError(f"unknown potential {self.potential_kind!r}")
        if self.delta <= 0:
            raise ConfigurationError("delta must be positive")


@dataclass(frozen=True)
class ReconConfig:
    beta: float
    gamma_c: float
    n_outer: int
    n_inner: int = 4
    n_subsets: int = 1
    alpha: float = 1.999
    x_max: float = 0.1
    patch_stride: int = 1  # the patch side is the transforms'
    ep: EpParams | None = None

    def __post_init__(self):
        if not (1.0 <= self.alpha < 2.0):
            raise ConfigurationError("alpha must satisfy 1 <= alpha < 2")
        if min(self.n_outer, self.n_inner, self.n_subsets) < 0 or self.n_inner < 1 \
                or self.n_subsets < 1:
            raise ConfigurationError("N must be >= 0 and P, M >= 1")
        if self.x_max <= 0:
            raise ConfigurationError("x_max must be positive")


def rho_schedule(t: int, alpha: float) -> float:
    """Decreasing relaxation sequence; equals 1 at t = 0."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0:
        return 1.0
    a = np.pi / (alpha * (t + 1))
    return float(a * np.sqrt(1.0 - (0.5 * a) ** 2))


def bit_reversal_order(m: int) -> list[int]:
    """Bit-reversal permutation of 0..m-1 (padded to a power of two, filtered)."""
    bits = (m - 1).bit_length()
    out = []
    for i in range(1 << bits):
        r = int(format(i, f"0{bits}b")[::-1], 2)
        if r < m:
            out.append(r)
    return out


class _SubsetBlocks(dict):
    """Subset row blocks of the cached operator, each gathered on first access."""

    def __init__(self, matrix, geom: SystemGeometry, m: int):
        super().__init__()
        self._matrix, self._geom, self._m = matrix, geom, m

    def __missing__(self, s):
        block = self[s] = self._matrix.block(np.arange(s, self._geom.n_views, self._m))
        return block


class SubsetSystem:
    """System matrix plus interleaved view subsets for ordered-subsets passes.

    Subset s holds views congruent to s modulo M; subsets are processed in
    bit-reversal order for gradient balance. A subset is a strided view: its
    gradient is one :meth:`SystemMatrix.residual_backprojection` pass over
    the subset's views in ascending order, which reads the cached operator
    in place, view by view.
    ``sub[s]`` is the subset's block, gathered on first access for
    inspection (the benchmark's byte probe reads it); the solver never
    reads it.
    """

    def __init__(self, geom: SystemGeometry, m: int):
        self.geom = geom
        self.m = m
        self.matrix = system_matrix(geom)
        self.order = bit_reversal_order(m)
        self.sub = _SubsetBlocks(self.matrix, geom, m)

    def gram_diag(self, w: np.ndarray) -> np.ndarray:
        """diag(A^T W A 1) as a flat pixel vector."""
        return weighted_gram_diag(self.geom, w).reshape(-1)

    def subset_gradient(self, s: int, x: np.ndarray, w, y_tilde) -> np.ndarray:
        """M-scaled weighted residual backprojection over subset s."""
        g = self.matrix.residual_backprojection(range(s, self.geom.n_views, self.m),
                                                x, w, y_tilde)
        g *= self.m
        return g


def os_lalm_image_update(x0: np.ndarray, system: SubsetSystem, w: np.ndarray,
                         y_tilde: np.ndarray, d_a: np.ndarray, reg,
                         cfg: ReconConfig, n_passes: int | None = None) -> np.ndarray:
    """Minimize 0.5 ||y_tilde - A x||_W^2 + reg over the box [0, x_max].

    Runs ``n_passes`` (default cfg.n_inner) ordered-subsets passes of the
    five-line relaxed recursion; the relaxation parameter is refreshed from
    :func:`rho_schedule` at every inner step. ``reg`` provides ``grad(x)``
    and a diagonal Hessian majorizer ``diag``.

    The iterates s, x, zeta, g and eta are the rows of one (5, n) workspace,
    updated in place with the operations, and in the order, of the recursion
    as written; ``d_a * x`` is formed once per step and serves both eta and
    the next step's s. One finiteness check covers the workspace per step;
    on failure, the first non-finite iterate in the order s, x, zeta, g, eta
    is reported. Overflow and invalid values inside a step are left to that
    check, so a numerical abort prints no numpy warnings.
    """
    passes = cfg.n_inner if n_passes is None else n_passes
    m, alpha = system.m, cfg.alpha
    d_r = reg.diag
    # rho > 0, so the pixels where rho d_a + d_r > 0 (NaN is not) are those
    # of rho = 1; elsewhere x keeps its value
    frozen = np.flatnonzero(~(d_a + d_r > 0))

    state = np.empty((5, x0.size))
    s, x, zeta, g, eta = state
    dax, step, denom = np.empty((3, x0.size))
    np.clip(x0, 0.0, cfg.x_max, out=x)
    zeta[:] = system.subset_gradient(system.order[-1], x, w, y_tilde)
    g[:] = zeta
    np.multiply(d_a, x, out=dax)
    np.subtract(dax, zeta, out=eta)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for t in range(passes * m):
            rho = rho_schedule(t, alpha)
            # s = rho (d_a x - eta) + (1 - rho) g
            np.subtract(dax, eta, out=s)
            s *= rho
            np.multiply(g, 1.0 - rho, out=step)
            s += step
            # x = clip(x - (s + grad) / (rho d_a + d_r), 0, x_max)
            np.multiply(d_a, rho, out=denom)
            denom += d_r
            denom[frozen] = 1.0
            np.add(s, reg.grad(x), out=step)
            step /= denom
            step[frozen] = 0.0
            x -= step
            np.clip(x, 0.0, cfg.x_max, out=x)
            zeta[:] = system.subset_gradient(system.order[t % m], x, w, y_tilde)
            # g = rho / (rho + 1) (alpha zeta + (1 - alpha) g) + g / (rho + 1),
            # with denom and step as scratch
            np.multiply(zeta, alpha, out=denom)
            np.multiply(g, 1.0 - alpha, out=step)
            denom += step
            denom *= rho / (rho + 1.0)
            g /= rho + 1.0
            g += denom
            # eta = alpha (d_a x - zeta) + (1 - alpha) eta
            np.multiply(d_a, x, out=dax)
            np.subtract(dax, zeta, out=step)
            step *= alpha
            eta *= 1.0 - alpha
            eta += step
            if not np.isfinite(state).all():
                for name, vec in zip(("s", "x", "zeta", "g", "eta"), state):
                    if not np.isfinite(vec).all():
                        raise NumericalError(name, t)
    return x.copy()


def _check_majorizer(diag: np.ndarray, key: str, beta: float) -> np.ndarray:
    """``diag``, a regularizer's majorizer weighted by ``key`` = ``beta``; an
    overflow would leave every inner step non-finite, so it is rejected."""
    if not np.isfinite(diag).all():
        raise ConfigurationError(f"{key}: {beta:g} makes the regularizer's diagonal "
                                 f"majorizer overflow; use a smaller value")
    return diag


def gram_bands(union: TransformUnion, patch: PatchConfig, dims):
    """Gram entries gathered per image-domain offset for the stride-1 banded
    operator of :class:`UltraQuadReg`.

    Returns ``(offsets, gathered)``: the distinct flat pixel offsets
    ``di * cols + dj`` with ``|di|, |dj| < patch_side``, and one row per
    offset whose column ``(k, a, b)`` is ``G_k[(a, b), (a + di, b + dj)]``
    (zero when that partner lies outside the patch). On images narrower than
    twice the patch side two 2D offsets can share a flat offset; their rows
    are summed, since no pixel pair is coupled by both. The transforms are
    fixed during a reconstruction, so this is computed once per run.
    """
    s = patch.patch_side
    grams = np.stack([t.T @ t for t in union.transforms]).reshape(union.k, s, s, s, s)
    d = np.arange(1 - s, s)
    di, dj = d[:, None, None, None], d[None, :, None, None]
    a, b = np.arange(s)[None, None, :, None], np.arange(s)[None, None, None, :]
    a2, b2 = a + di, b + dj
    inside = (a2 >= 0) & (a2 < s) & (b2 >= 0) & (b2 < s)
    vals = grams[:, a, b, np.clip(a2, 0, s - 1), np.clip(b2, 0, s - 1)] * inside
    rows = vals.transpose(1, 2, 0, 3, 4).reshape(d.size * d.size, union.k * patch.v)
    offsets, which = np.unique((d[:, None] * dims[1] + d[None, :]).ravel(),
                               return_inverse=True)
    gathered = np.zeros((offsets.size, rows.shape[1]))
    np.add.at(gathered, which, rows)
    return offsets, gathered


class UltraQuadReg:
    """Quadratic part of the transform-union regularizer at fixed codes and
    labels; one object serves a whole reconstruction.

    Its gradient is ``2 beta (H x - b)`` at every patch stride, with the
    image-domain operator ``H = sum_j tau_j P_j^T O_kj^T O_kj P_j`` and the
    code backprojection ``b = sum_j tau_j P_j^T O_kj^T z_j``. Both are fixed
    while the codes and labels are, so they are formed here and again by
    :meth:`update` after each coding step. ``diag`` is the Hessian majorizer
    of :func:`regularizer_majorizer_diag`; it depends only on the transforms
    and tau, which a reconstruction keeps fixed, so it is computed once here.

    At patch stride 1, H is the ``dia_matrix`` ``h``, whose band is rebuilt
    in place by every update, so applying it costs one banded multiply. The
    coefficient of offset o at pixel p sums, over the patch positions (a, b)
    of p, the gathered Gram entry times tau of the patch at p - (a, b) if
    that patch has the entry's class: one product of the gathered Grams
    (:func:`gram_bands`) with the class maps of tau shifted over the patch
    positions. DIA storage is column-indexed,
    ``h.data[i, q] = H[q - o_i, q]`` for ``o_i = h.offsets[i]``. The offsets
    are symmetric about ``o_m == 0`` and H is symmetric, so the product with
    the Grams of ``o_m, ..., o_2m`` taken in reverse order lands as rows
    ``0..m`` (offset -o holds ``H[q + o, q]``), and each row of a positive
    offset o is that of -o shifted right by o. The first o entries of that
    row lie outside H; they stay zero from the allocation. At stride
    >= 2 the band measured faster to apply but slow to build, and it raised
    the peak memory of a 128x128 run by 6-60%, so there H extracts the
    patches, applies the per-class Gram matrices (formed once here) and
    scatter-adds them back.
    """

    def __init__(self, union: TransformUnion, state: SparseState, beta: float,
                 patch: PatchConfig, dims):
        self.beta, self.patch, self.dims = beta, patch, dims
        self.n = dims[0] * dims[1]
        with np.errstate(over="ignore", invalid="ignore"):
            diag = regularizer_majorizer_diag(union, state.tau, beta, patch, dims)
        self.diag = _check_majorizer(diag.reshape(-1), "recon.beta", beta)
        # bounds every entry of H, on both paths and at any beta
        with np.errstate(over="ignore"):
            bound = largest_gram_eigenvalue(union) * patch_coverage(dims, patch, state.tau).max()
        if not np.isfinite(bound):
            raise ConfigurationError("the learned transforms are too large: their largest "
                                     "Gram eigenvalue times the patch coverage overflows")
        self._back = union.transforms.transpose(0, 2, 1)
        if patch.stride == 1:
            offsets, gathered = gram_bands(union, patch, dims)
            self.m = offsets.size // 2
            self._grams = np.ascontiguousarray(gathered[self.m:][::-1])
            self.h = dia_matrix((np.zeros((offsets.size, self.n)), offsets),
                                shape=(self.n, self.n))
        else:
            self._grams = [t.T @ t for t in union.transforms]
        self.update(state)

    def update(self, state: SparseState):
        """Re-form b, and at stride 1 rebuild the band in place, for ``state``'s
        codes and labels (its tau must be the constructor's)."""
        self._state = state
        code_back = classwise_apply(self._back, state.labels, state.z)
        code_back *= state.tau
        self._b = accumulate_patches(code_back, self.dims, self.patch).reshape(-1)
        if self.patch.stride != 1:
            return
        s, (rows, cols), m, n = self.patch.patch_side, self.dims, self.m, self.n
        nr, nc = self.patch.grid(self.dims)
        k = self._grams.shape[1] // self.patch.v
        maps = np.zeros((k, nr, nc))
        maps[state.labels.reshape(nr, nc), np.arange(nr)[:, None], np.arange(nc)] = \
            state.tau.reshape(nr, nc)
        shifted = np.zeros((k, s, s, rows, cols))
        for a in range(s):
            for b in range(s):
                shifted[:, a, b, a:a + nr, b:b + nc] = maps
        band = self.h.data
        np.matmul(self._grams, shifted.reshape(k * self.patch.v, n), out=band[:m + 1])
        for i, o in enumerate(self.h.offsets[m + 1:], start=1):
            band[m + i, o:] = band[m - i, :n - o]

    def _patch_apply(self, x_flat: np.ndarray) -> np.ndarray:
        state = self._state
        out = classwise_apply(self._grams, state.labels,
                              extract_patches(x_flat.reshape(self.dims), self.patch))
        out *= state.tau
        return accumulate_patches(out, self.dims, self.patch).reshape(-1)

    def grad(self, x_flat: np.ndarray) -> np.ndarray:
        hx = self.h @ x_flat if self.patch.stride == 1 else self._patch_apply(x_flat)
        return 2.0 * self.beta * (hx - self._b)


def ep_potential(t, delta: float, kind: str):
    """Symmetric edge-preserving potential, zero at the origin."""
    t = np.asarray(t, dtype=np.float64)
    r = np.abs(t) / delta
    if kind == "lange":
        return delta ** 2 * (r - np.log1p(r))
    if kind == "hyperbola":
        return delta ** 2 * (np.sqrt(1.0 + r * r) - 1.0)
    raise ConfigurationError(f"unknown potential {kind!r}")


def ep_potential_dot(t, delta: float, kind: str):
    t = np.asarray(t, dtype=np.float64)
    if kind == "lange":
        return t / (1.0 + np.abs(t) / delta)
    if kind == "hyperbola":
        return t / np.sqrt(1.0 + (t / delta) ** 2)
    raise ConfigurationError(f"unknown potential {kind!r}")


_OFFSETS8 = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]


def _offset_slices(shape, di, dj):
    rows, cols = shape
    center = (slice(max(0, -di), rows - max(0, di)),
              slice(max(0, -dj), cols - max(0, dj)))
    neighbor = (slice(max(0, di), rows - max(0, -di)),
                slice(max(0, dj), cols - max(0, -dj)))
    return center, neighbor


class EdgePreservingReg:
    """8-neighborhood penalty sum_j sum_k kappa_j kappa_k phi(x_j - x_k).

    The diagonal majorizer uses the paired-difference bound
    (a-b)^2 <= 2a^2 + 2b^2 together with phi'' <= 1, giving per-pixel
    4 beta sum_k kappa_j kappa_k; the bare Hessian diagonal (half of this)
    is not a valid majorizer.

    The gradient evaluates each neighbour pair once. The first four offsets
    of ``_OFFSETS8`` have their mirrors among the last four, in reverse
    order; a pair's flux 2 kappa_j kappa_k phi'(x_j - x_k) is added at j for
    offset o and subtracted at k for offset -o, in the order of
    ``_OFFSETS8``. Both potentials' derivatives are odd and the edge weights
    are computed once here, so this is the eight-offset sum bit for bit.
    """

    def __init__(self, kappa: np.ndarray, ep: EpParams, dims):
        self.kappa = kappa.reshape(dims)
        self.ep = ep
        self.dims = dims
        diag = np.zeros(dims)
        with np.errstate(over="ignore", invalid="ignore"):
            for di, dj in _OFFSETS8:
                c, nb = _offset_slices(dims, di, dj)
                diag[c] += 4.0 * ep.beta_ep * self.kappa[c] * self.kappa[nb]
        self.diag = _check_majorizer(diag.reshape(-1), "recon.beta_ep", ep.beta_ep)
        self._pairs = []
        for di, dj in _OFFSETS8[:4]:
            c, nb = _offset_slices(dims, di, dj)
            self._pairs.append((c, nb, 2.0 * self.kappa[c] * self.kappa[nb]))

    def value(self, x_flat: np.ndarray) -> float:
        x = x_flat.reshape(self.dims)
        total = 0.0
        for di, dj in _OFFSETS8:
            c, nb = _offset_slices(self.dims, di, dj)
            total += float(np.sum(self.kappa[c] * self.kappa[nb]
                                  * ep_potential(x[c] - x[nb], self.ep.delta,
                                                 self.ep.potential_kind)))
        return self.ep.beta_ep * total

    def grad(self, x_flat: np.ndarray) -> np.ndarray:
        """The gradient; an overflow leaves non-finite values, without a
        numpy warning, for the solver's finiteness check to report."""
        x = x_flat.reshape(self.dims)
        g = np.zeros(self.dims)
        fluxes = []
        with np.errstate(over="ignore", invalid="ignore"):
            for c, nb, weight in self._pairs:
                flux = weight * ep_potential_dot(x[c] - x[nb], self.ep.delta,
                                                 self.ep.potential_kind)
                g[c] += flux
                fluxes.append(flux)
            for (_, nb, _), flux in zip(self._pairs[::-1], fluxes[::-1]):
                g[nb] -= flux
            return self.ep.beta_ep * g.reshape(-1)


# the header of ``trace_<method>.csv``: ``labels_changed`` counts the patches
# whose class the iteration's coding step changed, ``nonzero_frac`` is the
# fraction of nonzero code entries after it, and ``objective_pre_coding`` is
# the objective between the image update and the coding step
TRACE_COLUMNS = ("iter", "objective", "data_term", "reg_term", "step_norm",
                 "rmse_vs_truth", "wall_ms", "labels_changed", "nonzero_frac",
                 "objective_pre_coding")


@dataclass
class ConvergenceTrace:
    """One list per column of ``TRACE_COLUMNS``; written as CSV for inspection."""

    columns: dict = field(default_factory=lambda: {c: [] for c in TRACE_COLUMNS})

    def append(self, **values):
        """One row; a column missing from ``values`` is left empty (None)."""
        unknown = sorted(values.keys() - self.columns.keys())
        if unknown:
            raise ValueError(f"unknown trace columns {unknown}")
        for name, col in self.columns.items():
            col.append(values.get(name))

    def to_csv(self, path):
        write_csv(path, TRACE_COLUMNS, zip(*self.columns.values()))


def union_patch(union: TransformUnion, dims, stride: int,
                source: str = "the transforms") -> PatchConfig:
    """The patches of ``union``'s side stepped by ``stride``; a
    ConfigurationError naming ``source`` unless they fit a ``dims`` image."""
    side = math.isqrt(union.v)
    if side * side != union.v:
        raise ConfigurationError(f"{source}: v = {union.v} is not a perfect square "
                                 f"(side^2), so its transforms fit no square patch")
    if side > min(dims):
        raise ConfigurationError(f"{source}: patch side {side} exceeds "
                                 f"geometry.image_dims {dims}")
    if stride > side:
        raise ConfigurationError(f"recon.stride: must be <= the patch side ({side}) "
                                 f"of {source}, got {stride}")
    return PatchConfig(side, stride)


def _ultra_outer_loop(value, quadratic, system: SubsetSystem, w_stat: np.ndarray,
                      union: TransformUnion, cfg: ReconConfig, x0: np.ndarray,
                      truth: np.ndarray | None, mu_water: float,
                      ) -> tuple[np.ndarray, ConvergenceTrace]:
    """Alternate image updates with sparse coding and clustering.

    ``value(l)`` is the data term at the projection ``l = A x`` of the image;
    ``quadratic(l)`` returns the weights, targets and data diagonal
    ``(w, y_tilde, d_a)`` of the quadratic that the image update minimizes
    from that image; ``w_stat`` sets the patch weights. Every outer iteration
    projects the image once, runs one ordered-subsets image update at fixed
    codes and labels, then re-codes and re-clusters the patches in one pass
    that also scores the codes before and after (the regularizer terms of
    the trace). Patches have the transforms' side and ``cfg.patch_stride``.
    A numerical abort carries the partial trace as ``err.trace``.
    """
    geom = system.geom
    dims = geom.image_dims
    patch = union_patch(union, dims, cfg.patch_stride)
    tau = patch_weights(compute_kappa(geom, w_stat), patch)
    x = np.clip(x0.reshape(-1), 0.0, cfg.x_max)
    state = sparse_code_and_cluster(x.reshape(dims), union, cfg.gamma_c, tau, patch)
    quad = UltraQuadReg(union, state, cfg.beta, patch, dims)
    everywhere = RoiMask(np.ones(dims, dtype=bool), "all")

    def rmse(x_flat):
        return None if truth is None else rmse_roi(x_flat.reshape(dims), truth, everywhere,
                                                   mu_water)

    trace = ConvergenceTrace()
    l = system.matrix @ x
    data = value(l)
    reg = cfg.beta * float(np.sum(state.tau * state.cost))
    trace.append(iter=0, objective=data + reg, data_term=data, reg_term=reg,
                 rmse_vs_truth=rmse(x))

    try:
        for n in range(cfg.n_outer):
            t0 = time.perf_counter()
            w, y_tilde, d_a = quadratic(l)
            if n:  # the constructor formed H and b for the first codes
                quad.update(state)
            x_new = os_lalm_image_update(x, system, w, y_tilde, d_a, quad, cfg)
            # the data term is unchanged by the coding step
            l = system.matrix @ x_new
            data = value(l)
            state = sparse_code_and_cluster(x_new.reshape(dims), union, cfg.gamma_c, tau,
                                            patch, prev=state)
            reg_pre = cfg.beta * float(np.sum(state.tau * state.prev_cost))
            reg = cfg.beta * float(np.sum(state.tau * state.cost))
            ms = (time.perf_counter() - t0) * 1e3
            trace.append(iter=n + 1, objective=data + reg, data_term=data, reg_term=reg,
                         step_norm=float(np.linalg.norm(x_new - x)),
                         rmse_vs_truth=rmse(x_new), wall_ms=ms,
                         labels_changed=state.labels_changed, nonzero_frac=state.nonzero_frac,
                         objective_pre_coding=data + reg_pre)
            x = x_new
    except NumericalError as err:
        err.trace = trace
        raise

    return x.reshape(dims), trace


def spultra_reconstruct(y_raw: np.ndarray, model: SpModel, union: TransformUnion,
                        geom: SystemGeometry, cfg: ReconConfig, x0: np.ndarray,
                        truth: np.ndarray | None = None, mu_water: float = DEFAULT_MU_WATER,
                        ) -> tuple[np.ndarray, ConvergenceTrace]:
    """Shifted-Poisson reconstruction with the transform-union regularizer.

    Raw counts are shifted by the electronic noise variance (and clamped at
    zero). Every outer iteration builds a fresh quadratic surrogate (and its
    data diagonal) at the current image, from the projection the data term
    was evaluated at.
    """
    y_raw = np.asarray(y_raw, dtype=np.float64).reshape(-1)
    counts = np.maximum(y_raw + model.sigma2, 0.0)
    _, w_stat = post_log_convert(y_raw, model)
    system = SubsetSystem(geom, cfg.n_subsets)

    def value(l):
        return neg_log_likelihood(l, counts, model)

    def quadratic(l):
        surr = surrogate_at(l, counts, model)
        return surr.w, surr.y_tilde, system.gram_diag(surr.w)

    return _ultra_outer_loop(value, quadratic, system, w_stat, union, cfg, x0, truth,
                             mu_water)


def pwls_ultra_reconstruct(l_tilde: np.ndarray, w_stat: np.ndarray,
                           union: TransformUnion, geom: SystemGeometry,
                           cfg: ReconConfig, x0: np.ndarray,
                           truth: np.ndarray | None = None, mu_water: float = DEFAULT_MU_WATER,
                           ) -> tuple[np.ndarray, ConvergenceTrace]:
    """Post-log weighted-least-squares counterpart: the data term stays fixed,
    so the weighted diagonal is computed once and no surrogate is rebuilt."""
    l_tilde = np.asarray(l_tilde, dtype=np.float64).reshape(-1)
    w_stat = np.asarray(w_stat, dtype=np.float64).reshape(-1)
    system = SubsetSystem(geom, cfg.n_subsets)
    d_a = system.gram_diag(w_stat)

    def value(l):
        r = l - l_tilde
        return 0.5 * float(np.sum(w_stat * r * r))

    return _ultra_outer_loop(value, lambda l: (w_stat, l_tilde, d_a), system, w_stat,
                             union, cfg, x0, truth, mu_water)


def pwls_ep_reconstruct(l_tilde: np.ndarray, w_stat: np.ndarray,
                        geom: SystemGeometry, cfg: ReconConfig,
                        x0: np.ndarray) -> np.ndarray:
    """Weighted least squares with the edge-preserving neighborhood penalty."""
    if cfg.ep is None:
        raise ConfigurationError("cfg.ep must be set for the edge-preserving method")
    l_tilde = np.asarray(l_tilde, dtype=np.float64).reshape(-1)
    w_stat = np.asarray(w_stat, dtype=np.float64).reshape(-1)
    dims = geom.image_dims
    reg = EdgePreservingReg(compute_kappa(geom, w_stat), cfg.ep, dims)
    system = SubsetSystem(geom, cfg.n_subsets)
    d_a = system.gram_diag(w_stat)
    x = os_lalm_image_update(x0.reshape(-1), system, w_stat, l_tilde, d_a, reg, cfg,
                             n_passes=cfg.ep.iters)
    return x.reshape(dims)


def fbp_reconstruct(sino: np.ndarray, geom: SystemGeometry) -> np.ndarray:
    """Filtered backprojection of a parallel-beam line-integral sinogram.

    Frequency-domain ramp with rectangular apodization, zero-padded to the
    next power of two at least twice the detector count; linear interpolation
    during backprojection. Output is not clipped (the operator is linear).
    """
    if geom.beam_kind != "parallel":
        raise ConfigurationError("filtered backprojection expects parallel-beam data")
    if geom.n_views < 8:
        log.warning("only %d views; reconstruction will be severely undersampled",
                    geom.n_views)
    p = np.asarray(sino, dtype=np.float64)
    if p.shape != (geom.n_views, geom.n_detectors):
        raise ConfigurationError("sinogram shape does not match geometry")

    nd = geom.n_detectors
    npad = 1 << int(np.ceil(np.log2(max(2 * nd, 64))))
    freqs = np.fft.rfftfreq(npad, d=geom.detector_spacing)
    filt = np.fft.irfft(np.fft.rfft(p, npad, axis=1) * freqs[None, :], npad, axis=1)
    filt = filt[:, :nd]

    xg, yg = pixel_centres(geom.image_dims, geom.pixel_spacing)
    offsets = geom.detector_offsets()

    out = np.zeros(geom.image_dims)
    for i, ang in enumerate(geom.view_angles()):
        s = xg * np.cos(ang) + yg * np.sin(ang)
        out += np.interp(s, offsets, filt[i], left=0.0, right=0.0)

    weight = geom.angular_range / geom.n_views
    if geom.angular_range > 1.5 * np.pi:
        weight *= 0.5
    return out * weight

