"""Reconstruction drivers.

The quadratic image-update subproblems of every iterative method here are
solved by the relaxed ordered-subsets linearized augmented Lagrangian
recursion with a decreasing relaxation schedule and diagonal majorizers.
The shifted-Poisson method rebuilds its quadratic surrogate (and the data
diagonal) every outer iteration; the weighted-least-squares variants keep
their data term fixed.
"""

from __future__ import annotations

import csv
import logging
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import dia_matrix
# the kernels behind csr_matrix @ x and csr_matrix.T @ r
from scipy.sparse._sparsetools import csc_matvec, csr_matvec

from .errors import ConfigurationError, NumericalError
from .geometry import (ImageGrid, Sinogram, SystemGeometry, compute_kappa,
                       forward_project, pixel_centres, system_matrix, weighted_gram_diag)
from .metrics import RoiMask, rmse_roi
from .spstats import SpModel, neg_log_likelihood, post_log_convert, surrogate_at
# kept importable as recon.build_surrogate: the benchmark's tracer wraps it there
from .spstats import build_surrogate  # noqa: F401
from .ultra import (PatchConfig, SparseState, TransformUnion, accumulate_patches,
                    classwise_apply, extract_patches, patch_weights,
                    regularizer_majorizer_diag, regularizer_value,
                    sparse_code_and_cluster)

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
    patch: PatchConfig = field(default_factory=lambda: PatchConfig(8, 1))
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
    if m == 1:
        return [0]
    bits = (m - 1).bit_length()
    out = []
    for i in range(1 << bits):
        r = int(format(i, f"0{bits}b")[::-1], 2)
        if r < m:
            out.append(r)
    return out


class _SubsetBlocks(dict):
    """Subset row blocks of the cached matrix, each gathered on first access."""

    def __init__(self, matrix, geom: SystemGeometry, m: int):
        super().__init__()
        self._matrix, self._geom, self._m = matrix, geom, m

    def __missing__(self, s):
        rays = np.arange(self._geom.n_rays).reshape(-1, self._geom.n_detectors)[s::self._m]
        block = self[s] = self._matrix[rays.reshape(-1)]
        return block


class SubsetSystem:
    """System matrix plus interleaved view subsets for ordered-subsets passes.

    Subset s holds views congruent to s modulo M; subsets are processed in
    bit-reversal order for gradient balance. A subset is a strided view: its
    gradient reads rows ``[s::M]`` of the (views, detectors) weights and
    targets, and runs scipy's compiled CSR/CSC kernels over each of its views'
    row blocks of the cached matrix in place, in ascending view order, which
    sums exactly as a product with the gathered subset block would.
    ``sub[s]`` is that block, gathered on first access for inspection (the
    benchmark's byte probe reads it); the solver never reads it.
    """

    def __init__(self, geom: SystemGeometry, m: int):
        self.geom = geom
        self.m = m
        self.matrix = system_matrix(geom)
        self.order = bit_reversal_order(m)
        self.sub = _SubsetBlocks(self.matrix, geom, m)

    def gram_diag(self, w: np.ndarray) -> np.ndarray:
        """diag(A^T W A 1) as a flat pixel vector."""
        return weighted_gram_diag(self.geom, w).data.reshape(-1)

    def subset_gradient(self, s: int, x: np.ndarray, w, y_tilde) -> np.ndarray:
        """M-scaled weighted residual backprojection over subset s."""
        a, nd, npix = self.matrix, self.geom.n_detectors, self.geom.n_pixels
        if x.shape != (npix,):  # the compiled kernels read npix entries unchecked
            raise ValueError(f"x has shape {x.shape}, expected ({npix},)")
        rows = [a.indptr[v * nd:(v + 1) * nd + 1] for v in range(s, self.geom.n_views, self.m)]
        r = np.zeros((len(rows), nd))
        for ptr, r_v in zip(rows, r):
            csr_matvec(nd, npix, ptr, a.indices, a.data, x, r_v)
        r -= y_tilde.reshape(-1, nd)[s::self.m]
        r *= w.reshape(-1, nd)[s::self.m]
        g = np.zeros(npix)
        for ptr, r_v in zip(rows, r):
            csc_matvec(npix, nd, ptr, a.indices, a.data, r_v, g)
        g *= self.m
        return g


class ZeroReg:
    """No regularization; used for plain weighted least squares."""

    diag = 0.0

    def grad(self, x):
        return 0.0


def os_lalm_image_update(x0: np.ndarray, system: SubsetSystem, w: np.ndarray,
                         y_tilde: np.ndarray, d_a: np.ndarray, reg,
                         cfg: ReconConfig, n_passes: int | None = None) -> np.ndarray:
    """Minimize 0.5 ||y_tilde - A x||_W^2 + reg over the box [0, x_max].

    Runs ``n_passes`` (default cfg.n_inner) ordered-subsets passes of the
    five-line relaxed recursion; the relaxation parameter is refreshed from
    :func:`rho_schedule` at every inner step. ``reg`` provides ``grad(x)``
    and a diagonal Hessian majorizer ``diag``.
    """
    passes = cfg.n_inner if n_passes is None else n_passes
    m = system.m
    d_r = reg.diag

    x = np.clip(x0, 0.0, cfg.x_max)
    zeta = system.subset_gradient(system.order[-1], x, w, y_tilde)
    g = zeta.copy()
    eta = d_a * x - zeta

    for t in range(passes * m):
        rho = rho_schedule(t, cfg.alpha)
        s = rho * (d_a * x - eta) + (1.0 - rho) * g
        denom = rho * d_a + d_r
        step = (s + reg.grad(x)) / np.where(denom > 0, denom, 1.0)
        x = np.clip(x - np.where(denom > 0, step, 0.0), 0.0, cfg.x_max)
        sub = system.order[t % m]
        zeta = system.subset_gradient(sub, x, w, y_tilde)
        g = (rho / (rho + 1.0)) * (cfg.alpha * zeta + (1.0 - cfg.alpha) * g) \
            + g / (rho + 1.0)
        eta = cfg.alpha * (d_a * x - zeta) + (1.0 - cfg.alpha) * eta
        for name, vec in (("s", s), ("x", x), ("zeta", zeta), ("g", g), ("eta", eta)):
            if not np.isfinite(vec).all():
                raise NumericalError(name, t)
    return x


def gram_bands(union: TransformUnion, patch: PatchConfig, dims):
    """Gram entries gathered per image-domain offset for the banded operator
    of :class:`UltraQuadReg`; ``None`` at stride >= 2, where it is not used.

    Returns ``(offsets, gathered)``: the distinct flat pixel offsets
    ``di * cols + dj`` with ``|di|, |dj| < patch_side``, and one row per
    offset whose column ``(k, a, b)`` is ``G_k[(a, b), (a + di, b + dj)]``
    (zero when that partner lies outside the patch). On images narrower than
    twice the patch side two 2D offsets can share a flat offset; their rows
    are summed, since no pixel pair is coupled by both. The transforms are
    fixed during a reconstruction, so this is computed once per run.
    """
    if patch.stride != 1:
        return None
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


def _band_operator(bands, state: SparseState, patch: PatchConfig, dims):
    """H = sum_j tau_j P_j^T G_kj P_j as a DIA matrix (stride-1 patches).

    The coefficient of offset o at pixel p sums, over the patch positions
    (a, b) of p, the gathered Gram entry times tau of the patch at p - (a, b)
    if that patch has the entry's class: one product of the gathered Grams
    with the class maps of tau shifted over the patch positions.
    """
    offsets, gathered = bands
    s = patch.patch_side
    rows, cols = dims
    nr, nc = patch.grid(dims)
    k = gathered.shape[1] // patch.v
    maps = np.zeros((k, nr, nc))
    maps[state.labels.reshape(nr, nc), np.arange(nr)[:, None], np.arange(nc)] = \
        state.tau.reshape(nr, nc)
    shifted = np.zeros((k, s, s, rows, cols))
    for a in range(s):
        for b in range(s):
            shifted[:, a, b, a:a + nr, b:b + nc] = maps
    # the offsets are symmetric about offsets[m] == 0 and H is symmetric, so
    # only the offsets o >= 0 are computed: upper[i, p] = H[p, p + o]
    m = offsets.size // 2
    upper = gathered[m:] @ shifted.reshape(k * patch.v, rows * cols)
    n = rows * cols
    # DIA storage is column-indexed, data[i, q] = H[q - offsets[i], q]:
    # offset -o holds H[q + o, q] = upper[., q], offset o holds upper[., q - o]
    data = np.zeros((offsets.size, n))
    data[m::-1] = upper
    for i, o in enumerate(offsets[m + 1:], start=1):
        data[m + i, o:] = upper[i, :n - o]
    return dia_matrix((data, offsets), shape=(n, n))


class UltraQuadReg:
    """Quadratic part of the transform-union regularizer at fixed codes and labels.

    Its gradient is ``2 beta (H x - b)`` at every patch stride, with the
    image-domain operator ``H = sum_j tau_j P_j^T O_kj^T O_kj P_j`` and the
    code backprojection ``b = sum_j tau_j P_j^T O_kj^T z_j``, both fixed
    while the codes and labels are, so ``b`` is formed once here. At patch
    stride 1, H is built once as a banded matrix with (2 side - 1)^2
    diagonals from ``bands`` (:func:`gram_bands`, computed here when not
    given), so applying it costs one banded multiply. At stride >= 2 the
    band measured faster to apply but slow to build, and it raised the peak
    memory of a 128x128 run by 6-60%, so there H extracts the patches,
    applies the per-class Gram matrices and scatter-adds them back.
    """

    def __init__(self, union: TransformUnion, state: SparseState, beta: float,
                 patch: PatchConfig, dims, diag: np.ndarray, bands=None):
        self.beta = beta
        self.diag = diag
        code_back = classwise_apply(union.transforms.transpose(0, 2, 1),
                                    state.labels, state.z)
        code_back *= state.tau
        self._b = accumulate_patches(code_back, dims, patch).reshape(-1)
        bands = gram_bands(union, patch, dims) if bands is None else bands
        if bands is not None:
            self._h = _band_operator(bands, state, patch, dims).dot
        else:
            grams = [t.T @ t for t in union.transforms]

            def apply(x_flat):
                out = classwise_apply(grams, state.labels,
                                      extract_patches(ImageGrid(x_flat.reshape(dims)), patch))
                out *= state.tau
                return accumulate_patches(out, dims, patch).reshape(-1)

            self._h = apply

    def grad(self, x_flat: np.ndarray) -> np.ndarray:
        return 2.0 * self.beta * (self._h(x_flat) - self._b)


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
    """

    def __init__(self, kappa: np.ndarray, ep: EpParams, dims):
        self.kappa = kappa.reshape(dims)
        self.ep = ep
        self.dims = dims
        diag = np.zeros(dims)
        for di, dj in _OFFSETS8:
            c, nb = _offset_slices(dims, di, dj)
            diag[c] += 4.0 * ep.beta_ep * self.kappa[c] * self.kappa[nb]
        self.diag = diag.reshape(-1)

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
        x = x_flat.reshape(self.dims)
        g = np.zeros(self.dims)
        for di, dj in _OFFSETS8:
            c, nb = _offset_slices(self.dims, di, dj)
            g[c] += 2.0 * self.kappa[c] * self.kappa[nb] \
                * ep_potential_dot(x[c] - x[nb], self.ep.delta, self.ep.potential_kind)
        return self.ep.beta_ep * g.reshape(-1)


@dataclass
class ConvergenceTrace:
    """Per-outer-iteration bookkeeping; written as CSV for inspection."""

    iters: list = field(default_factory=list)
    objective: list = field(default_factory=list)
    data_term: list = field(default_factory=list)
    reg_term: list = field(default_factory=list)
    step_norm: list = field(default_factory=list)
    rmse_vs_truth: list = field(default_factory=list)
    wall_ms: list = field(default_factory=list)
    # patches whose class changed in this iteration's coding step, and the
    # fraction of nonzero code entries after it; None at iteration 0
    labels_changed: list = field(default_factory=list)
    nonzero_frac: list = field(default_factory=list)
    # objective right after the image update, before re-coding; used by the
    # monotonicity checks, not written to disk
    objective_pre_coding: list = field(default_factory=list)

    def append(self, n, obj, data, reg, step, rmse, ms, pre=None,
               labels_changed=None, nonzero_frac=None):
        self.iters.append(n)
        self.objective.append(obj)
        self.data_term.append(data)
        self.reg_term.append(reg)
        self.step_norm.append(step)
        self.rmse_vs_truth.append(rmse)
        self.wall_ms.append(ms)
        self.labels_changed.append(labels_changed)
        self.nonzero_frac.append(nonzero_frac)
        if pre is not None:
            self.objective_pre_coding.append(pre)

    def to_csv(self, path):
        def fmt(v):
            return "" if v is None else f"{v:.17g}"

        with open(path, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["iter", "objective", "data_term", "reg_term",
                         "step_norm", "rmse_vs_truth", "wall_ms", "labels_changed",
                         "nonzero_frac"])
            for i in range(len(self.iters)):
                wr.writerow([self.iters[i], fmt(self.objective[i]), fmt(self.data_term[i]),
                             fmt(self.reg_term[i]), fmt(self.step_norm[i]),
                             fmt(self.rmse_vs_truth[i]), fmt(self.wall_ms[i]),
                             fmt(self.labels_changed[i]), fmt(self.nonzero_frac[i])])


def _ultra_outer_loop(value, quadratic, system: SubsetSystem, w_stat: np.ndarray,
                      union: TransformUnion, geom: SystemGeometry, cfg: ReconConfig,
                      x0: ImageGrid, truth: ImageGrid | None, mu_water: float,
                      ) -> tuple[ImageGrid, ConvergenceTrace]:
    """Alternate image updates with sparse coding and clustering.

    ``value(l)`` is the data term at the projection ``l = A x`` of the image;
    ``quadratic(l)`` returns the weights, targets and data diagonal
    ``(w, y_tilde, d_a)`` of the quadratic that the image update minimizes
    from that image; ``w_stat`` sets the patch weights. Every outer iteration
    projects the image once, runs one ordered-subsets image update at fixed
    codes and labels, then re-codes and re-clusters the patches in one pass
    that also scores the codes before and after (the regularizer terms of
    the trace). A numerical abort carries the partial trace as ``err.trace``.
    """
    dims = geom.image_dims
    tau = patch_weights(compute_kappa(geom, w_stat), cfg.patch)
    x = np.clip(x0.data.reshape(-1), 0.0, cfg.x_max)
    state = sparse_code_and_cluster(ImageGrid(x.reshape(dims)), union,
                                    cfg.gamma_c, tau, cfg.patch)
    d_r = regularizer_majorizer_diag(union, tau, cfg.beta, cfg.patch, dims).reshape(-1)
    bands = gram_bands(union, cfg.patch, dims)
    everywhere = RoiMask(np.ones(dims, dtype=bool), "all")

    def rmse(x_flat):
        return None if truth is None else rmse_roi(ImageGrid(x_flat.reshape(dims)), truth,
                                                   everywhere, mu_water)

    trace = ConvergenceTrace()
    l = system.matrix @ x
    data = value(l)
    reg = cfg.beta * float(np.sum(state.tau * state.cost))
    trace.append(0, data + reg, data, reg, None, rmse(x), None)

    try:
        for n in range(cfg.n_outer):
            t0 = time.perf_counter()
            w, y_tilde, d_a = quadratic(l)
            quad = UltraQuadReg(union, state, cfg.beta, cfg.patch, dims, d_r, bands)
            x_new = os_lalm_image_update(x, system, w, y_tilde, d_a, quad, cfg)
            # the data term is unchanged by the coding step
            l = system.matrix @ x_new
            data = value(l)
            state = sparse_code_and_cluster(ImageGrid(x_new.reshape(dims)), union,
                                            cfg.gamma_c, tau, cfg.patch, prev=state)
            reg_pre = cfg.beta * float(np.sum(state.tau * state.prev_cost))
            reg = cfg.beta * float(np.sum(state.tau * state.cost))
            ms = (time.perf_counter() - t0) * 1e3
            trace.append(n + 1, data + reg, data, reg,
                         float(np.linalg.norm(x_new - x)), rmse(x_new), ms,
                         pre=data + reg_pre, labels_changed=state.labels_changed,
                         nonzero_frac=state.nonzero_frac)
            x = x_new
    except NumericalError as err:
        # keep the partial trace reachable so callers can flush it
        err.trace = trace
        log.error("image update aborted at outer iteration %d: %s", len(trace.iters), err)
        raise

    return ImageGrid(x.reshape(dims), geom.pixel_spacing), trace


def spultra_reconstruct(y_raw: Sinogram, model: SpModel, union: TransformUnion,
                        geom: SystemGeometry, cfg: ReconConfig, x0: ImageGrid,
                        truth: ImageGrid | None = None, mu_water: float = 0.02,
                        ) -> tuple[ImageGrid, ConvergenceTrace]:
    """Shifted-Poisson reconstruction with the transform-union regularizer.

    Raw counts are shifted by the electronic noise variance (and clamped at
    zero). Every outer iteration builds a fresh quadratic surrogate (and its
    data diagonal) at the current image, from the projection the data term
    was evaluated at.
    """
    counts = np.maximum(y_raw.ravel() + model.sigma2, 0.0)
    _, w_stat = post_log_convert(y_raw.ravel(), model)
    system = SubsetSystem(geom, cfg.n_subsets)

    def value(l):
        return neg_log_likelihood(l, counts, model)

    def quadratic(l):
        surr = surrogate_at(l, counts, model)
        return surr.w, surr.y_tilde, system.gram_diag(surr.w)

    return _ultra_outer_loop(value, quadratic, system, w_stat, union, geom, cfg, x0,
                             truth, mu_water)


def pwls_ultra_reconstruct(l_tilde: np.ndarray, w_stat: np.ndarray,
                           union: TransformUnion, geom: SystemGeometry,
                           cfg: ReconConfig, x0: ImageGrid,
                           truth: ImageGrid | None = None, mu_water: float = 0.02,
                           ) -> tuple[ImageGrid, ConvergenceTrace]:
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
                             union, geom, cfg, x0, truth, mu_water)


def pwls_ep_reconstruct(l_tilde: np.ndarray, w_stat: np.ndarray,
                        geom: SystemGeometry, cfg: ReconConfig,
                        x0: ImageGrid) -> ImageGrid:
    """Weighted least squares with the edge-preserving neighborhood penalty."""
    if cfg.ep is None:
        raise ConfigurationError("cfg.ep must be set for the edge-preserving method")
    l_tilde = np.asarray(l_tilde, dtype=np.float64).reshape(-1)
    w_stat = np.asarray(w_stat, dtype=np.float64).reshape(-1)
    dims = geom.image_dims
    kappa = compute_kappa(geom, w_stat)
    reg = EdgePreservingReg(kappa.data.reshape(-1), cfg.ep, dims)
    system = SubsetSystem(geom, cfg.n_subsets)
    d_a = system.gram_diag(w_stat)
    x = np.clip(x0.data.reshape(-1), 0.0, cfg.x_max)
    x = os_lalm_image_update(x, system, w_stat, l_tilde, d_a, reg, cfg,
                             n_passes=cfg.ep.iters)
    return ImageGrid(x.reshape(dims), geom.pixel_spacing)


def fbp_reconstruct(sino: Sinogram, geom: SystemGeometry) -> ImageGrid:
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
    p = sino.data
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
    return ImageGrid(out * weight, geom.pixel_spacing)


def objective_value(x: ImageGrid, state: SparseState, y_raw: Sinogram,
                    model: SpModel, union: TransformUnion, cfg: ReconConfig,
                    geom: SystemGeometry) -> float:
    """Penalized-likelihood objective: shifted-Poisson data term plus regularizer."""
    counts = np.maximum(y_raw.ravel() + model.sigma2, 0.0)
    l = forward_project(x, geom).ravel()
    data = neg_log_likelihood(l, counts, model)
    reg = regularizer_value(x, state, union, cfg.beta, cfg.gamma_c, cfg.patch)
    return data + reg
