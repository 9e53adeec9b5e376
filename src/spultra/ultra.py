"""Union-of-learned-transforms image model.

A bank of K square matrices sparsifies image patches; each patch is assigned
to the transform whose thresholded coefficients approximate it best. The
module covers patch extraction and its adjoint, the joint sparse coding and
clustering step, the regularizer value and diagonal majorizer used by the
reconstruction solvers, and the alternating learning algorithm.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .geometry import ImageGrid
from .io import read_exact

_ULTR_MAGIC = b"ULTR"


@dataclass(frozen=True)
class PatchConfig:
    """Square patches of ``patch_side`` pixels per axis, stepped by ``stride``.

    Only fully contained patches are extracted (clipped boundary, no wrap).
    """

    patch_side: int
    stride: int = 1

    def __post_init__(self):
        if self.patch_side < 1:
            raise ConfigurationError("patch_side must be positive")
        if not (1 <= self.stride <= self.patch_side):
            raise ConfigurationError("stride must satisfy 1 <= stride <= patch_side")

    @property
    def v(self) -> int:
        return self.patch_side * self.patch_side

    def grid(self, dims) -> tuple[int, int]:
        rows, cols = dims
        if self.patch_side > rows or self.patch_side > cols:
            raise ConfigurationError("patch larger than image")
        return ((rows - self.patch_side) // self.stride + 1,
                (cols - self.patch_side) // self.stride + 1)

    def n_patches(self, dims) -> int:
        nr, nc = self.grid(dims)
        return nr * nc


@dataclass
class TransformUnion:
    """K square transforms stacked as an array of shape (K, v, v)."""

    transforms: np.ndarray

    def __post_init__(self):
        self.transforms = np.asarray(self.transforms, dtype=np.float64)
        if self.transforms.ndim != 3 or self.transforms.shape[1] != self.transforms.shape[2] \
                or self.transforms.shape[0] == 0:
            raise ConfigurationError("transforms must be (K, v, v) with K >= 1")
        for k in range(self.k):
            sign, _ = np.linalg.slogdet(self.transforms[k])
            if sign == 0:
                raise ConfigurationError(f"transform {k} is singular")

    @property
    def k(self) -> int:
        return self.transforms.shape[0]

    @property
    def v(self) -> int:
        return self.transforms.shape[1]


@dataclass
class SparseState:
    """Sparse codes (v, N), class labels (N,) in 0..K-1, and patch weights (N,)."""

    z: np.ndarray
    labels: np.ndarray
    tau: np.ndarray


def extract_patches(img: ImageGrid, cfg: PatchConfig) -> np.ndarray:
    """Patch matrix of shape (v, n_patches).

    Column j is the j-th patch in raster order of top-left corners,
    vectorized row-major within the patch.
    """
    x = img.data
    nr, nc = cfg.grid(x.shape)
    side = cfg.patch_side
    windows = np.lib.stride_tricks.sliding_window_view(x, (side, side))
    windows = windows[::cfg.stride, ::cfg.stride]
    return np.ascontiguousarray(
        windows.transpose(2, 3, 0, 1).reshape(cfg.v, nr * nc)
    )


def accumulate_patches(values: np.ndarray, dims, cfg: PatchConfig) -> np.ndarray:
    """Adjoint of patch extraction: scatter-add patch columns back into an image."""
    nr, nc = cfg.grid(dims)
    side, stride = cfg.patch_side, cfg.stride
    blocks = values.reshape(side, side, nr, nc)
    out = np.zeros(dims)
    for a in range(side):
        for b in range(side):
            out[a:a + stride * (nr - 1) + 1:stride,
                b:b + stride * (nc - 1) + 1:stride] += blocks[a, b]
    return out


def patch_coverage(dims, cfg: PatchConfig, tau=None) -> np.ndarray:
    """Per-pixel sum of tau_j over patches covering the pixel (tau defaults to 1)."""
    n = cfg.n_patches(dims)
    tau = np.ones(n) if tau is None else np.asarray(tau, dtype=np.float64)
    return accumulate_patches(np.broadcast_to(tau, (cfg.v, n)), dims, cfg)


def patch_weights(kappa: ImageGrid, cfg: PatchConfig) -> np.ndarray:
    """Patch weights: mean absolute resolution-uniformity value over each patch."""
    p = extract_patches(kappa, cfg)
    return np.abs(p).sum(axis=0) / cfg.v


def hard_threshold(values: np.ndarray, gamma_c: float) -> np.ndarray:
    """Zero entries with magnitude strictly below gamma_c; boundary entries stay."""
    if gamma_c <= 0:
        raise ValueError("gamma_c must be positive")
    values = np.asarray(values, dtype=np.float64)
    return np.where(np.abs(values) >= gamma_c, values, 0.0)


def classwise_apply(mats, labels: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Column j of the result is ``mats[labels[j]] @ cols[:, j]``, computed as
    one matrix product per class."""
    out = np.empty((mats[0].shape[0], cols.shape[1]))
    for k in range(len(mats)):
        sel = labels == k
        if np.any(sel):
            out[:, sel] = mats[k] @ cols[:, sel]
    return out


def _assign_labels(patches: np.ndarray, mats, gamma_c: float, penalty=None) -> np.ndarray:
    """Cheapest class per patch under the coding cost (thresholding residual
    plus gamma_c^2 times the support size) plus the optional per-class penalty
    row ``penalty[k]``; ties go to the smallest class index."""
    best = np.full(patches.shape[1], np.inf)
    labels = np.zeros(patches.shape[1], dtype=np.int64)
    for k in range(len(mats)):
        t = mats[k] @ patches
        z = hard_threshold(t, gamma_c)
        resid = t - z
        cost = np.einsum("ij,ij->j", resid, resid) + gamma_c ** 2 * np.count_nonzero(z, axis=0)
        if penalty is not None:
            cost = cost + penalty[k]
        better = cost < best
        labels[better] = k
        best[better] = cost[better]
    return labels


def sparse_code_and_cluster(x: ImageGrid, union: TransformUnion, gamma_c: float,
                            tau: np.ndarray, cfg: PatchConfig) -> SparseState:
    """Jointly assign each patch to its best transform and hard-threshold it.

    The per-patch cost is the thresholding residual plus gamma_c^2 times the
    support size; ties go to the smallest class index. The patch weights tau
    scale whole per-patch costs and therefore never change the argmin.
    """
    patches = extract_patches(x, cfg)
    labels = _assign_labels(patches, union.transforms, gamma_c)
    z = hard_threshold(classwise_apply(union.transforms, labels, patches), gamma_c)
    tau = np.asarray(tau, dtype=np.float64).reshape(-1)
    return SparseState(z=z, labels=labels, tau=tau)


def regularizer_value(x: ImageGrid, state: SparseState, union: TransformUnion,
                      beta: float, gamma_c: float, cfg: PatchConfig) -> float:
    """beta * sum_j tau_j (|| O_kj P_j x - z_j ||^2 + gamma_c^2 ||z_j||_0)."""
    patches = extract_patches(x, cfg)
    total = 0.0
    for k in range(union.k):
        sel = state.labels == k
        if not np.any(sel):
            continue
        resid = union.transforms[k] @ patches[:, sel] - state.z[:, sel]
        per_patch = np.einsum("ij,ij->j", resid, resid) \
            + gamma_c ** 2 * np.count_nonzero(state.z[:, sel], axis=0)
        total += float(np.sum(state.tau[sel] * per_patch))
    return beta * total


def spectral_norm_gram(omega: np.ndarray, tol: float = 1e-10, max_iter: int = 50000) -> float:
    """|| omega^T omega ||_2 by power iteration on the Gram matrix."""
    gram = omega.T @ omega
    v = np.arange(1.0, gram.shape[0] + 1.0)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iter):
        w = gram @ v
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        v = w / nw
        if abs(nw - lam) <= tol * max(nw, 1e-30):
            return float(nw)
        lam = nw
    return float(lam)


def regularizer_majorizer_diag(union: TransformUnion, tau: np.ndarray, beta: float,
                               cfg: PatchConfig, image_dims) -> np.ndarray:
    """Diagonal majorizer of the regularizer Hessian:
    2 beta max_k ||O_k^T O_k||_2 times the tau-weighted patch coverage.
    """
    worst = max(spectral_norm_gram(union.transforms[k]) for k in range(union.k))
    return 2.0 * beta * worst * patch_coverage(image_dims, cfg, tau)


def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal 1D DCT-II basis, rows are basis vectors."""
    j = np.arange(n)
    mat = np.cos(np.pi * (j[:, None] * (2 * j[None, :] + 1)) / (2 * n))
    mat[0] *= np.sqrt(1.0 / n)
    mat[1:] *= np.sqrt(2.0 / n)
    return mat


def initial_transform(v: int) -> np.ndarray:
    """2D DCT when v is a perfect square, 1D DCT otherwise."""
    side = int(round(np.sqrt(v)))
    if side * side == v:
        d = dct_matrix(side)
        return np.kron(d, d)
    return dct_matrix(v)


def _transform_update(x_k: np.ndarray, z_k: np.ndarray, lam: float) -> np.ndarray:
    """Closed-form minimizer of ||O X - Z||_F^2 + lam (||O||_F^2 - log|det O|)."""
    v = x_k.shape[0]
    gram = x_k @ x_k.T + lam * np.eye(v)
    evals, evecs = np.linalg.eigh(gram)
    evals = np.maximum(evals, lam * 1e-15)
    l_inv = (evecs / np.sqrt(evals)) @ evecs.T
    u, s, vh = np.linalg.svd(l_inv @ x_k @ z_k.T)
    scale = 0.5 * (s + np.sqrt(s * s + 2.0 * lam))
    return (vh.T * scale) @ u.T @ l_inv


def _regularizer_q(omega: np.ndarray) -> float:
    # the log-determinant barrier uses |det|; orientation is irrelevant
    sign, logabsdet = np.linalg.slogdet(omega)
    if sign == 0:
        return np.inf
    return float(np.sum(omega * omega) - logabsdet)


def learning_objective(patches, union: TransformUnion, z, labels, gamma_c, lambda0) -> float:
    """Joint learning cost: coding residuals, sparsity penalty, and each class's
    transform regularizer scaled by lambda0 times its training energy."""
    total = 0.0
    for k in range(union.k):
        sel = labels == k
        if not np.any(sel):
            continue
        x_k = patches[:, sel]
        resid = union.transforms[k] @ x_k - z[:, sel]
        lam = lambda0 * float(np.sum(x_k * x_k))
        total += float(np.sum(resid * resid)) \
            + gamma_c ** 2 * int(np.count_nonzero(z[:, sel])) \
            + lam * _regularizer_q(union.transforms[k])
    return total


def learn_transforms(patches: np.ndarray, k: int, gamma_c: float, lambda0: float,
                     iters: int, seed: int = 0) -> tuple[TransformUnion, np.ndarray]:
    """Alternating transform learning over a fixed training patch matrix.

    Each round codes the patches at fixed labels, updates every non-empty
    class's transform in closed form, then reassigns patches. The clustering
    cost charges each patch its share of the transform regularizer
    (lambda0 ||y_j||^2 per unit of Q(O_k)), which keeps the joint objective
    non-increasing across rounds. Returns the learned union and the
    objective trace, one entry per round.

    Transforms start from the DCT; labels start uniformly at random with the
    given seed. Classes that become empty keep their previous transform.
    """
    patches = np.asarray(patches, dtype=np.float64)
    v, n = patches.shape
    rng = np.random.Generator(np.random.Philox(key=seed))
    labels = rng.integers(0, k, size=n)
    omegas = np.stack([initial_transform(v) for _ in range(k)])
    energies = np.einsum("ij,ij->j", patches, patches)

    trace = np.empty(iters)
    for it in range(iters):
        # code at fixed labels, then update transforms per class
        z = hard_threshold(classwise_apply(omegas, labels, patches), gamma_c)
        for kk in range(k):
            sel = labels == kk
            if not np.any(sel):
                continue
            x_k = patches[:, sel]
            lam = lambda0 * float(np.sum(x_k * x_k))
            if lam <= 0.0:
                continue  # all-zero class; the update would be singular
            omegas[kk] = _transform_update(x_k, z[:, sel], lam)

        # reassign: coding cost plus the patch's share of the regularizer
        q_vals = np.array([_regularizer_q(omegas[kk]) for kk in range(k)])
        labels = _assign_labels(patches, omegas, gamma_c,
                               penalty=q_vals[:, None] * (lambda0 * energies)[None, :])
        z = hard_threshold(classwise_apply(omegas, labels, patches), gamma_c)

        trace[it] = learning_objective(patches, TransformUnion(omegas.copy()), z,
                                       labels, gamma_c, lambda0)
    return TransformUnion(omegas), trace


def save_transforms(path, union: TransformUnion):
    """Binary layout: magic, u32 LE K, u32 LE v, then K*v*v float64 LE values
    row-major per transform."""
    with open(path, "wb") as fh:
        fh.write(_ULTR_MAGIC)
        fh.write(struct.pack("<II", union.k, union.v))
        fh.write(union.transforms.astype("<f8").tobytes())


def load_transforms(path) -> TransformUnion:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _ULTR_MAGIC:
            raise ConfigurationError(f"not a transform file: bad magic {magic!r}")
        k, v = struct.unpack("<II", read_exact(fh, 8, "transform file header"))
        data = np.frombuffer(read_exact(fh, 8 * k * v * v, "transform file"), dtype="<f8")
    return TransformUnion(data.reshape(k, v, v).astype(np.float64))
