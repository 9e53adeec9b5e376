"""Union-of-learned-transforms image model.

A bank of K square matrices sparsifies image patches; each patch is assigned
to the transform whose thresholded coefficients approximate it best. The
module covers patch extraction and its adjoint, the joint sparse coding and
clustering step, the regularizer value and diagonal majorizer used by the
reconstruction solvers, and the alternating learning algorithm.

One kernel, :func:`_cheapest_class`, forms class products and picks labels
for both reconstruction and learning. In a reconstruction's outer iteration
it is the only pass over the patches: it forms each class's transform
products once and returns, with the new codes and labels, the per-patch
costs that make up the regularizer value before and after re-coding.
:func:`regularizer_value` computes the same costs the same way and stays as
the reference. Learning reassigns patches with the same kernel, adding each
patch's share of the transform regularizer as a per-class penalty.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
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
        with np.errstate(over="ignore"):  # ||O||_F^2 bounds every entry of O^T O
            fro2 = np.square(self.transforms).sum(axis=(1, 2))
        for k in range(self.k):
            if not np.isfinite(self.transforms[k]).all():
                raise ConfigurationError(f"transform {k} has a non-finite entry")
            if not np.isfinite(fro2[k]):
                raise ConfigurationError(f"transform {k} has a squared Frobenius norm "
                                         f"above the float64 range")
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
    """Sparse codes (v, N), class labels (N,) in 0..K-1, and patch weights (N,).

    The coding pass also records, per patch, the coding cost of these codes
    at the image they were coded from (``cost``), the cost of the previous
    state's codes at that same image (``prev_cost``), how many labels differ
    from the previous state's (``labels_changed``) and the fraction of
    nonzero code entries (``nonzero_frac``). ``prev_cost`` and
    ``labels_changed`` are ``None`` without a previous state; all four are
    ``None`` on a state built by hand.
    """

    z: np.ndarray
    labels: np.ndarray
    tau: np.ndarray
    cost: np.ndarray | None = None
    prev_cost: np.ndarray | None = None
    labels_changed: int | None = None
    nonzero_frac: float | None = None


def extract_patches(img: np.ndarray, cfg: PatchConfig) -> np.ndarray:
    """Patch matrix of shape (v, n_patches) of the 2D image ``img``.

    Column j is the j-th patch in raster order of top-left corners,
    vectorized row-major within the patch.
    """
    nr, nc = cfg.grid(img.shape)
    side = cfg.patch_side
    windows = np.lib.stride_tricks.sliding_window_view(img, (side, side))
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


def patch_weights(kappa: np.ndarray, cfg: PatchConfig) -> np.ndarray:
    """Patch weights: mean absolute resolution-uniformity value over each patch."""
    p = extract_patches(kappa, cfg)
    return np.abs(p).sum(axis=0) / cfg.v


def hard_threshold(values: np.ndarray, gamma_c: float) -> np.ndarray:
    """Zero entries with magnitude strictly below gamma_c; boundary entries stay.
    Every zeroed entry, NaN included, becomes +0.0."""
    return _threshold_in_place(np.array(values, dtype=np.float64), gamma_c)


def _threshold_in_place(t: np.ndarray, gamma_c: float) -> np.ndarray:
    """:func:`hard_threshold` written over the float64 array ``t``, returned."""
    if gamma_c <= 0:
        raise ValueError("gamma_c must be positive")
    # |t| >= gamma_c without a float temporary; NaN passes neither test
    keep = t >= gamma_c
    keep |= t <= -gamma_c
    np.copyto(t, 0.0, where=~keep)
    return t


def classwise_apply(mats, labels: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Column j of the result is ``mats[labels[j]] @ cols[:, j]``, computed as
    one matrix product per class."""
    out = np.empty((mats[0].shape[0], cols.shape[1]))
    for k in range(len(mats)):
        sel = np.flatnonzero(labels == k)
        if sel.size:
            out[:, sel] = mats[k] @ cols[:, sel]
    return out


def _code_cost(t: np.ndarray, z: np.ndarray, gamma_c: float) -> np.ndarray:
    """Per-patch coding cost ||t_j - z_j||^2 + gamma_c^2 ||z_j||_0 of the
    codes ``z`` for the transform products ``t``, which it overwrites.

    Formed element by element, so that for z = hard_threshold(t) it equals
    ``np.minimum(t * t, gamma_c ** 2).sum(axis=0)`` bit for bit.
    """
    np.subtract(t, z, out=t)
    np.multiply(t, t, out=t)
    np.add(t, gamma_c ** 2, out=t, where=z != 0)
    return t.sum(axis=0)


def _cheapest_class(patches: np.ndarray, mats, gamma_c: float, prev_labels=None,
                    penalty=None, keep_products=True):
    """Products of each patch with its cheapest class under the coding cost
    ``sum min(t^2, gamma_c^2)``, plus ``penalty[k]`` (a per-patch row) when a
    penalty is given; ties go to the smallest class index.

    Returns ``(labels, t, cost, prev_t)``: the labels, the chosen classes'
    products (``None`` unless ``keep_products``), their per-patch costs
    (penalty included) and, when ``prev_labels`` is given, the products with
    those classes instead (else ``None``). Each class's products are formed
    once and carried by masked copies; the scratch arrays are freed on
    return, and the caller thresholds the chosen products in place.
    """
    g2 = gamma_c ** 2
    labels = np.zeros(patches.shape[1], dtype=np.int64)
    t, sq = np.empty_like(patches), np.empty_like(patches)
    prev_t = None if prev_labels is None else np.empty_like(patches)
    best_t = None
    for k in range(len(mats)):
        np.matmul(mats[k], patches, out=t)
        if prev_t is not None:
            np.copyto(prev_t, t, where=prev_labels == k)
        np.multiply(t, t, out=sq)
        cost = np.minimum(sq, g2, out=sq).sum(axis=0)
        if penalty is not None:
            cost += penalty[k]
        if k == 0:
            best_cost = cost
            if keep_products:
                best_t, t = t, np.empty_like(patches)
        else:
            better = cost < best_cost
            labels[better] = k
            np.copyto(best_cost, cost, where=better)
            if keep_products:
                np.copyto(best_t, t, where=better)
    return labels, best_t, best_cost, prev_t


def sparse_code_and_cluster(x: np.ndarray, union: TransformUnion, gamma_c: float,
                            tau: np.ndarray, cfg: PatchConfig,
                            prev: SparseState | None = None) -> SparseState:
    """Jointly assign each patch to its best transform and hard-threshold it.

    One pass over the patches: each class's transform products are formed
    once, and the per-patch cost of a class is the thresholding residual
    plus gamma_c^2 times the support size, ``sum min(t^2, gamma_c^2)``; ties
    go to the smallest class index. The patch weights tau scale whole
    per-patch costs and therefore never change the argmin. Given ``prev``,
    the same products also give the cost of its codes and labels at ``x``
    (``prev_cost``), so that the regularizer both before and after
    re-coding comes from this pass.
    """
    labels, t, cost, prev_t = _cheapest_class(
        extract_patches(x, cfg), union.transforms, gamma_c,
        None if prev is None else prev.labels)
    z = _threshold_in_place(t, gamma_c)
    tau = np.asarray(tau, dtype=np.float64).reshape(-1)
    state = SparseState(z=z, labels=labels, tau=tau, cost=cost,
                        nonzero_frac=float(np.count_nonzero(z) / z.size))
    if prev is not None:
        state.prev_cost = _code_cost(prev_t, prev.z, gamma_c)
        state.labels_changed = int(np.count_nonzero(labels != prev.labels))
    return state


def regularizer_value(x: np.ndarray, state: SparseState, union: TransformUnion,
                      beta: float, gamma_c: float, cfg: PatchConfig) -> float:
    """beta * sum_j tau_j (|| O_kj P_j x - z_j ||^2 + gamma_c^2 ||z_j||_0).

    Forms every class's full transform products, as the coding pass does, so
    it reproduces the ``cost`` and ``prev_cost`` of
    :func:`sparse_code_and_cluster` bit for bit.
    """
    patches = extract_patches(x, cfg)
    cost = np.zeros(patches.shape[1])
    for k in range(union.k):
        sel = state.labels == k
        if np.any(sel):
            cost[sel] = _code_cost(union.transforms[k] @ patches, state.z, gamma_c)[sel]
    return beta * float(np.sum(state.tau * cost))


def regularizer_majorizer_diag(union: TransformUnion, tau: np.ndarray, beta: float,
                               cfg: PatchConfig, image_dims) -> np.ndarray:
    """Diagonal majorizer of the regularizer Hessian:
    2 beta max_k ||O_k^T O_k||_2 times the tau-weighted patch coverage.

    ||O_k^T O_k||_2 is the largest eigenvalue of the Gram matrix, computed
    by a symmetric eigensolver, so the diagonal is a true majorizer up to
    roundoff and costs well under a millisecond per class at v = 64.
    """
    return 2.0 * beta * largest_gram_eigenvalue(union) * patch_coverage(image_dims, cfg, tau)


def largest_gram_eigenvalue(union: TransformUnion) -> float:
    """max_k ||O_k^T O_k||_2, the largest eigenvalue of any class's Gram matrix."""
    return max(float(np.linalg.eigvalsh(o.T @ o)[-1]) for o in union.transforms)


def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal 1D DCT-II basis, rows are basis vectors."""
    j = np.arange(n)
    mat = np.cos(np.pi * (j[:, None] * (2 * j[None, :] + 1)) / (2 * n))
    mat[0] *= np.sqrt(1.0 / n)
    mat[1:] *= np.sqrt(2.0 / n)
    return mat


def initial_transform(v: int) -> np.ndarray:
    """2D DCT when v is a perfect square, 1D DCT otherwise."""
    side = math.isqrt(v)
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


def _class_pass(patches, omegas, labels, gamma_c, lambda0, q_vals):
    """Code each non-empty class at ``labels`` and score the learning objective.

    Per class, one gather of its patches and one product ``O_k x_k``: a
    thresholded copy of the product becomes the class's codes, and the
    class's coding residual, sparsity penalty and ``lam_k Q(O_k)`` add to the
    objective, with ``lam_k = lambda0 ||x_k||_F^2`` and ``Q(O_k) = q_vals[k]``.
    Returns ``(classes, objective)``, where ``classes`` lists
    ``(k, selection, codes, lam_k)`` for the next transform update. The codes
    are a fresh Fortran-ordered array, as ``z[:, selection]`` of a full code
    matrix would be, so the update's products round the same way.
    """
    classes, total = [], 0.0
    for kk in range(len(omegas)):
        sel = labels == kk
        if not np.any(sel):
            continue
        x_k = patches[:, sel]
        t = omegas[kk] @ x_k
        codes = _threshold_in_place(np.array(t, order="F"), gamma_c)
        lam = lambda0 * float(np.sum(np.square(x_k, out=x_k)))  # x_k is a copy
        np.subtract(t, codes, out=t)
        total += float(np.sum(np.square(t, out=t))) \
            + gamma_c ** 2 * int(np.count_nonzero(codes)) \
            + lam * q_vals[kk]
        classes.append((kk, sel, codes, lam))
    return classes, total


def learn_transforms(patches: np.ndarray, k: int, gamma_c: float, lambda0: float,
                     iters: int, seed: int = 0) -> tuple[TransformUnion, np.ndarray]:
    """Alternating transform learning over a fixed training patch matrix.

    Each round updates every non-empty class's transform in closed form from
    the current codes, reassigns the patches, then makes one pass over the
    classes at the new labels (:func:`_class_pass`), which codes each class
    and scores the round's joint objective from the same products; those
    codes carry over to the next round's update. The reassignment is the
    reconstruction's coding step, :func:`_cheapest_class`, with each patch
    charged its share of the transform regularizer (lambda0 ||y_j||^2 per
    unit of Q(O_k)) as a per-class penalty, which keeps the joint objective
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

    # codes at the random start labels; their objective is not traced
    q_vals = np.array([_regularizer_q(o) for o in omegas])
    classes = _class_pass(patches, omegas, labels, gamma_c, lambda0, q_vals)[0]
    trace = np.empty(iters)
    for it in range(iters):
        for kk, sel, codes, lam in classes:
            if lam <= 0.0:
                continue  # all-zero class; the update would be singular
            omegas[kk] = _transform_update(patches[:, sel], codes, lam)
        del classes  # not needed again: the next codes come from the new labels

        # reassign: coding cost plus the patch's share of the regularizer
        q_vals = np.array([_regularizer_q(o) for o in omegas])
        labels = _cheapest_class(patches, omegas, gamma_c,
                                 penalty=q_vals[:, None] * (lambda0 * energies)[None, :],
                                 keep_products=False)[0]
        # code from per-class products, not from the reassignment's full-width
        # ones: those round differently, and learning amplifies the difference
        classes, trace[it] = _class_pass(patches, omegas, labels, gamma_c, lambda0,
                                         q_vals)
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
    try:
        return TransformUnion(data.reshape(k, v, v).astype(np.float64))
    except ConfigurationError as err:
        raise ConfigurationError(f"{path}: {err}") from None
