import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spultra.errors import ConfigurationError
from spultra.recon import UltraQuadReg
from spultra import ultra
from spultra.ultra import (PatchConfig, SparseState, TransformUnion,
                           _cheapest_class, _regularizer_q, _transform_update,
                           accumulate_patches, classwise_apply, extract_patches,
                           hard_threshold, initial_transform, learn_transforms,
                           load_transforms, patch_coverage,
                           regularizer_majorizer_diag, regularizer_value,
                           save_transforms, sparse_code_and_cluster)


def random_union(k, v, seed=0):
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(k):
        m = rng.standard_normal((v, v))
        m += np.eye(v) * v  # keep well-conditioned
        mats.append(m)
    return TransformUnion(np.stack(mats))


def brute_force_code(b, gamma_c):
    """Exhaustive search over all supports for min ||b - z||^2 + gamma^2 ||z||_0."""
    v = len(b)
    best_cost, best_z = np.inf, None
    for r in range(v + 1):
        for support in itertools.combinations(range(v), r):
            z = np.zeros(v)
            z[list(support)] = b[list(support)]
            cost = np.sum((b - z) ** 2) + gamma_c ** 2 * r
            if cost < best_cost - 1e-15:
                best_cost, best_z = cost, z
    return best_z, best_cost


def test_patch_config_validation():
    with pytest.raises(ConfigurationError):
        PatchConfig(4, 5)
    with pytest.raises(ConfigurationError):
        PatchConfig(0, 1)
    with pytest.raises(ConfigurationError):
        PatchConfig(9, 1).grid((8, 8))


def test_extract_whole_image_single_patch():
    rng = np.random.default_rng(0)
    img = rng.random((8, 8))
    p = extract_patches(img, PatchConfig(8, 1))
    assert p.shape == (64, 1)
    assert np.array_equal(p[:, 0], img.reshape(-1))


def test_extract_disjoint_tiling():
    img = np.arange(16.0).reshape(4, 4)
    p = extract_patches(img, PatchConfig(2, 2))
    assert p.shape == (4, 4)
    # raster order of top-left corners; row-major inside each patch
    assert np.array_equal(p[:, 0], [0, 1, 4, 5])
    assert np.array_equal(p[:, 1], [2, 3, 6, 7])
    assert np.array_equal(p[:, 2], [8, 9, 12, 13])
    assert np.array_equal(p[:, 3], [10, 11, 14, 15])


@pytest.mark.parametrize("side,stride,dims", [(2, 1, (5, 6)), (3, 2, (7, 7)), (4, 3, (8, 10))])
def test_coverage_matches_brute_force(side, stride, dims):
    cfg = PatchConfig(side, stride)
    cov = patch_coverage(dims, cfg)
    brute = np.zeros(dims)
    rows = range(0, dims[0] - side + 1, stride)
    cols = range(0, dims[1] - side + 1, stride)
    for r in rows:
        for c in cols:
            brute[r:r + side, c:c + side] += 1.0
    assert np.array_equal(cov, brute)


def test_accumulate_is_adjoint_of_extract():
    rng = np.random.default_rng(5)
    dims = (7, 9)
    cfg = PatchConfig(3, 2)
    img = rng.random(dims)
    p = extract_patches(img, cfg)
    vals = rng.random(p.shape)
    lhs = np.sum(p * vals)
    rhs = np.sum(img * accumulate_patches(vals, dims, cfg))
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_hard_threshold_boundary_kept():
    out = hard_threshold(np.array([3.0, -1.0, 2.0]), 2.0)
    assert np.array_equal(out, [3.0, 0.0, 2.0])


def test_hard_threshold_all_zeroed():
    a = np.array([0.5, -0.9, 0.1])
    assert np.array_equal(hard_threshold(a, 1.0), np.zeros(3))
    with pytest.raises(ValueError):
        hard_threshold(a, 0.0)


@pytest.mark.parametrize("v", [3, 5, 6])
def test_hard_threshold_solves_l0_problem(v):
    rng = np.random.default_rng(v)
    for _ in range(20):
        b = rng.standard_normal(v) * 2
        gamma = float(rng.uniform(0.3, 2.5))
        z = hard_threshold(b, gamma)
        cost = np.sum((b - z) ** 2) + gamma ** 2 * np.count_nonzero(z)
        _, best_cost = brute_force_code(b, gamma)
        assert cost == pytest.approx(best_cost, rel=1e-12, abs=1e-12)


def test_cluster_single_class_and_identity():
    rng = np.random.default_rng(2)
    img = rng.uniform(1.0, 2.0, (6, 6))
    cfg = PatchConfig(2, 1)
    union = TransformUnion(np.eye(4)[None, :, :])
    n = cfg.n_patches(img.shape)
    state = sparse_code_and_cluster(img, union, 0.5, np.ones(n), cfg)
    assert np.all(state.labels == 0)
    # identity transform, threshold below every entry: codes equal the patches
    assert np.allclose(state.z, extract_patches(img, cfg))


def test_cluster_matches_exhaustive_oracle():
    rng = np.random.default_rng(11)
    k, side = 3, 2
    cfg = PatchConfig(side, 1)
    union = random_union(k, side * side, seed=4)
    img = rng.standard_normal((6, 6)) * 0.5
    n = cfg.n_patches(img.shape)
    gamma = 0.8
    state = sparse_code_and_cluster(img, union, gamma, np.ones(n), cfg)
    patches = extract_patches(img, cfg)
    for j in range(n):
        costs = []
        for kk in range(k):
            b = union.transforms[kk] @ patches[:, j]
            _, c = brute_force_code(b, gamma)
            costs.append(c)
        k_star = int(np.argmin(costs))
        assert state.labels[j] == k_star
        b = union.transforms[k_star] @ patches[:, j]
        z_star, _ = brute_force_code(b, gamma)
        assert np.allclose(state.z[:, j], z_star, atol=1e-12)


def test_cluster_tau_invariance():
    rng = np.random.default_rng(21)
    cfg = PatchConfig(2, 1)
    union = random_union(3, 4, seed=9)
    img = rng.standard_normal((7, 7))
    n = cfg.n_patches(img.shape)
    base = sparse_code_and_cluster(img, union, 0.6, np.ones(n), cfg)
    for seed in range(3):
        tau = np.random.default_rng(seed).uniform(0.1, 5.0, n)
        state = sparse_code_and_cluster(img, union, 0.6, tau, cfg)
        assert np.array_equal(state.labels, base.labels)


def test_support_magnitudes_at_least_gamma():
    rng = np.random.default_rng(3)
    cfg = PatchConfig(3, 1)
    union = random_union(2, 9, seed=13)
    img = rng.standard_normal((8, 8))
    gamma = 0.7
    state = sparse_code_and_cluster(img, union, gamma, np.ones(cfg.n_patches(img.shape)), cfg)
    nz = state.z[state.z != 0]
    assert np.all(np.abs(nz) >= gamma)


def test_regularizer_value_cases():
    cfg = PatchConfig(2, 2)
    union = TransformUnion(np.eye(4)[None, :, :])
    zero = np.zeros((4, 4))
    n = cfg.n_patches((4, 4))
    state = SparseState(z=np.zeros((4, n)), labels=np.zeros(n, dtype=int), tau=np.ones(n))
    assert regularizer_value(zero, state, union, 3.0, 0.5, cfg) == 0.0

    # single patch, tau=1, identity transform, patch (1,0,0,0), z=0, gamma=0.5:
    # value = beta * (1 + 0)
    img = np.array([[1.0, 0.0], [0.0, 0.0]])
    cfg1 = PatchConfig(2, 1)
    state1 = SparseState(z=np.zeros((4, 1)), labels=np.zeros(1, dtype=int), tau=np.ones(1))
    beta = 2.5
    assert regularizer_value(img, state1, union, beta, 0.5, cfg1) == pytest.approx(beta)


def test_coding_minimizes_regularizer_value():
    rng = np.random.default_rng(6)
    cfg = PatchConfig(2, 1)
    union = random_union(3, 4, seed=2)
    img = rng.standard_normal((6, 6))
    n = cfg.n_patches(img.shape)
    tau = rng.uniform(0.2, 2.0, n)
    gamma = 0.9
    state = sparse_code_and_cluster(img, union, gamma, tau, cfg)
    best = regularizer_value(img, state, union, 1.0, gamma, cfg)
    for seed in range(10):
        r2 = np.random.default_rng(100 + seed)
        z = hard_threshold(r2.standard_normal(state.z.shape), gamma)
        labels = r2.integers(0, union.k, n)
        challenger = SparseState(z=z, labels=labels, tau=tau)
        assert best <= regularizer_value(img, challenger, union, 1.0, gamma, cfg) + 1e-12


def _two_pass_labels(patches, mats, gamma_c, penalty=None):
    """The former coding step's class choice, kept as the reference: every
    class's products, hard-thresholded, scored as residual plus gamma_c^2
    times the support size, plus the per-class row ``penalty[k]`` when given
    (learning's former reassignment); ties to the smallest class index.
    Returns the labels and the (K, N) cost table."""
    costs = []
    for k, om in enumerate(mats):
        t = om @ patches
        z = hard_threshold(t, gamma_c)
        resid = t - z
        cost = np.einsum("ij,ij->j", resid, resid) + gamma_c ** 2 * np.count_nonzero(z, axis=0)
        costs.append(cost if penalty is None else cost + penalty[k])
    costs = np.array(costs)
    labels = np.zeros(patches.shape[1], dtype=np.int64)
    best = np.full(patches.shape[1], np.inf)
    for k, cost in enumerate(costs):
        better = cost < best
        labels[better] = k
        best[better] = cost[better]
    return labels, costs


def _coding_problem(seed, k, side, stride, rows, cols, on_boundary):
    """Random image and transforms; with ``on_boundary``, gamma_c equals the
    magnitude of one of the transform products, so the threshold is hit exactly."""
    rng = np.random.default_rng(seed)
    v = side * side
    union = TransformUnion(np.stack([np.eye(v) + 0.5 * rng.standard_normal((v, v))
                                     for _ in range(k)]))
    cfg = PatchConfig(side, stride)
    img = rng.standard_normal((rows, cols))
    gamma = float(rng.uniform(0.2, 1.5))
    if on_boundary:
        t = union.transforms[rng.integers(k)] @ extract_patches(img, cfg)
        gamma = float(np.abs(t.flat[rng.integers(t.size)])) or gamma
    tau = rng.uniform(0.1, 3.0, cfg.n_patches(img.shape))
    return union, cfg, img, gamma, tau


@settings(deadline=None, max_examples=80)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 4), side=st.integers(1, 4),
       stride=st.integers(1, 4), extra=st.tuples(st.integers(0, 6), st.integers(0, 6)),
       on_boundary=st.booleans(), penalized=st.booleans())
def test_one_pass_coding_matches_two_pass_reference(seed, k, side, stride, extra,
                                                    on_boundary, penalized):
    stride = min(stride, side)
    union, cfg, img, gamma, tau = _coding_problem(seed, k, side, stride, side + extra[0],
                                                  side + extra[1], on_boundary)
    patches = extract_patches(img, cfg)
    penalty = None
    if penalized:  # a per-class row of either sign, on the scale of the coding cost
        penalty = np.random.default_rng(seed).uniform(-1.0, 1.0, (k, patches.shape[1])) \
            * cfg.v * gamma ** 2
    got, t, cost, prev_t = _cheapest_class(patches, union.transforms, gamma, penalty=penalty)
    labels, costs = _two_pass_labels(patches, union.transforms, gamma, penalty)
    cols = np.arange(patches.shape[1])
    # the two cost forms differ only by roundoff, so labels may differ at near-ties
    differ = got != labels
    gap = np.abs(costs[got, cols] - costs[labels, cols])
    assert np.all(gap[differ] <= 1e-12 * np.maximum(1.0, np.abs(costs[labels, cols][differ])))
    for kk in range(k):
        full = union.transforms[kk] @ patches
        expect = np.minimum(full * full, gamma ** 2).sum(axis=0)
        if penalized:
            expect = expect + penalty[kk]
        sel = got == kk
        assert np.array_equal(t[:, sel], full[:, sel])
        assert np.array_equal(cost[sel], expect[sel])
    assert prev_t is None
    if not penalized:
        state = sparse_code_and_cluster(img, union, gamma, tau, cfg)
        assert np.array_equal(state.labels, got)
        assert np.array_equal(state.z, hard_threshold(t, gamma))
        assert np.array_equal(state.cost, cost)
        assert state.prev_cost is None and state.labels_changed is None
        assert state.nonzero_frac == np.count_nonzero(state.z) / state.z.size


def test_codes_are_the_thresholded_chosen_products():
    # pixel values put products exactly at +-gamma under both transforms (I and I/2)
    gamma = 0.25
    vals = np.array([gamma, -gamma, 2 * gamma, -2 * gamma, gamma / 2, -gamma / 2,
                     0.0, -0.0, 0.1, -0.1, 0.7, -0.7, 1e-300, -1e-300])
    rng = np.random.default_rng(17)
    img = rng.choice(vals, size=(9, 8))
    cfg = PatchConfig(2, 1)
    union = TransformUnion(np.stack([np.eye(cfg.v), 0.5 * np.eye(cfg.v)]))
    patches = extract_patches(img, cfg)
    labels, t, _, _ = _cheapest_class(patches, union.transforms, gamma)
    assert set(np.unique(labels)) == {0, 1}
    assert np.any(t == gamma) and np.any(t == -gamma)
    ref = hard_threshold(t, gamma)
    state = sparse_code_and_cluster(img, union, gamma, np.ones(patches.shape[1]), cfg)
    assert np.array_equal(state.labels, labels)
    assert np.array_equal(state.z, ref)
    assert np.all(state.z[np.abs(t) == gamma] == t[np.abs(t) == gamma])
    assert not np.any(np.signbit(state.z[state.z == 0]))
    assert state.nonzero_frac == np.count_nonzero(ref) / ref.size
    # NaN and -0.0 become +0.0, as everything else below gamma
    out = hard_threshold(np.array([np.nan, -0.0, -gamma, gamma, -np.inf, 0.2]), gamma)
    assert np.array_equal(out, [0.0, 0.0, -gamma, gamma, -np.inf, 0.0])
    assert not np.any(np.signbit(out[out == 0]))


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 4), side=st.integers(1, 4),
       extra=st.tuples(st.integers(0, 6), st.integers(0, 6)), on_boundary=st.booleans(),
       beta=st.floats(1e-3, 1e5))
def test_regularizer_value_reproduces_pass_costs(seed, k, side, extra, on_boundary, beta):
    union, cfg, img, gamma, tau = _coding_problem(seed, k, side, 1, side + extra[0],
                                                  side + extra[1], on_boundary)
    prev = sparse_code_and_cluster(img, union, gamma, tau, cfg)
    assert regularizer_value(img, prev, union, beta, gamma, cfg) \
        == beta * float(np.sum(tau * prev.cost))
    moved = img + 0.3 * np.random.default_rng(seed).standard_normal(img.shape)
    state = sparse_code_and_cluster(moved, union, gamma, tau, cfg, prev=prev)
    assert regularizer_value(moved, prev, union, beta, gamma, cfg) \
        == beta * float(np.sum(tau * state.prev_cost))
    assert regularizer_value(moved, state, union, beta, gamma, cfg) \
        == beta * float(np.sum(tau * state.cost))
    assert state.labels_changed == np.count_nonzero(state.labels != prev.labels)


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 4), side=st.integers(1, 4),
       stride=st.integers(1, 4), on_boundary=st.booleans(), hand_made=st.booleans())
def test_recoding_never_raises_the_cost(seed, k, side, stride, on_boundary, hand_made):
    stride = min(stride, side)
    union, cfg, img, gamma, tau = _coding_problem(seed, k, side, stride, side + 3,
                                                  side + 4, on_boundary)
    rng = np.random.default_rng(seed + 1)
    if hand_made:  # any codes and labels, not only those of an earlier pass
        n = cfg.n_patches(img.shape)
        prev = SparseState(z=hard_threshold(rng.standard_normal((cfg.v, n)), gamma),
                           labels=rng.integers(0, k, n), tau=tau)
    else:
        prev = sparse_code_and_cluster(
            img + 0.2 * rng.standard_normal(img.shape), union, gamma, tau, cfg)
    state = sparse_code_and_cluster(img, union, gamma, tau, cfg, prev=prev)
    assert np.all(state.cost <= state.prev_cost)
    assert float(np.sum(tau * state.cost)) <= float(np.sum(tau * state.prev_cost))


def test_cost_ties_go_to_the_smallest_class_index():
    union, cfg, img, gamma, tau = _coding_problem(8, 2, 3, 1, 8, 9, False)
    a, b = union.transforms
    tied = TransformUnion(np.stack([b, a, a, b]))  # classes 1, 2 and 0, 3 cost the same
    state = sparse_code_and_cluster(img, tied, gamma, tau, cfg)
    assert set(np.unique(state.labels)) == {0, 1}


def test_recoding_at_the_same_image_keeps_codes_and_cost():
    union, cfg, img, gamma, tau = _coding_problem(4, 3, 3, 1, 9, 8, True)
    first = sparse_code_and_cluster(img, union, gamma, tau, cfg)
    again = sparse_code_and_cluster(img, union, gamma, tau, cfg, prev=first)
    assert again.labels_changed == 0
    assert np.array_equal(again.z, first.z)
    assert np.array_equal(again.prev_cost, first.cost)
    assert np.array_equal(again.cost, first.cost)


def regularizer_gradient(img, state, union, beta, cfg):
    """Gradient of the quadratic regularizer part, as the solvers evaluate it."""
    reg = UltraQuadReg(union, state, beta, cfg, img.shape)
    return reg.grad(img.reshape(-1)).reshape(img.shape)


def test_regularizer_gradient_zero_at_exact_codes():
    rng = np.random.default_rng(8)
    cfg = PatchConfig(2, 1)
    union = random_union(2, 4, seed=5)
    img = rng.standard_normal((5, 5))
    patches = extract_patches(img, cfg)
    n = patches.shape[1]
    labels = rng.integers(0, 2, n)
    z = np.empty((4, n))
    for k in range(2):
        sel = labels == k
        z[:, sel] = union.transforms[k] @ patches[:, sel]
    state = SparseState(z=z, labels=labels, tau=np.ones(n))
    g = regularizer_gradient(img, state, union, 1.3, cfg)
    assert np.max(np.abs(g)) <= 1e-12


def test_regularizer_gradient_matches_finite_differences():
    rng = np.random.default_rng(12)
    cfg = PatchConfig(2, 1)
    union = random_union(3, 4, seed=3)
    dims = (5, 6)
    img = rng.standard_normal(dims)
    n = cfg.n_patches(dims)
    tau = rng.uniform(0.2, 2.0, n)
    state = sparse_code_and_cluster(img, union, 0.8, tau, cfg)
    beta = 1.7

    def quad_part(x):
        val = 0.0
        patches = extract_patches(x, cfg)
        for k in range(union.k):
            sel = state.labels == k
            if np.any(sel):
                resid = union.transforms[k] @ patches[:, sel] - state.z[:, sel]
                val += float(np.sum(tau[sel] * np.einsum("ij,ij->j", resid, resid)))
        return beta * val

    g = regularizer_gradient(img, state, union, beta, cfg)
    rng2 = np.random.default_rng(99)
    for _ in range(20):
        i, j = rng2.integers(0, dims[0]), rng2.integers(0, dims[1])
        e = np.zeros(dims)
        e[i, j] = 1.0
        eps = 1e-6
        fd = (quad_part(img + eps * e) - quad_part(img - eps * e)) / (2 * eps)
        assert g[i, j] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    # linearity in beta
    g2 = regularizer_gradient(img, state, union, 2 * beta, cfg)
    assert np.allclose(g2, 2 * g, rtol=0, atol=0)


def test_majorizer_diag_orthonormal_tiling():
    # one orthonormal transform, disjoint tiling, tau = 1: diagonal is 2*beta
    cfg = PatchConfig(2, 2)
    union = TransformUnion(initial_transform(4)[None, :, :])
    beta = 3.0
    d = regularizer_majorizer_diag(union, np.ones(cfg.n_patches((6, 6))), beta, cfg, (6, 6))
    assert np.allclose(d, 2 * beta)


def test_majorizer_diag_dominates_hessian():
    rng = np.random.default_rng(15)
    cfg = PatchConfig(2, 1)
    union = random_union(3, 4, seed=8)
    dims = (6, 6)
    n = cfg.n_patches(dims)
    tau = rng.uniform(0.1, 2.0, n)
    beta = 0.9
    labels = rng.integers(0, 3, n)
    d = regularizer_majorizer_diag(union, tau, beta, cfg, dims).reshape(-1)
    # hessian quadratic form: x^T H x = 2 beta sum_j tau_j ||O_kj P_j x||^2
    for seed in range(50):
        x = np.random.default_rng(200 + seed).standard_normal(dims)
        patches = extract_patches(x, cfg)
        hx = 0.0
        for k in range(3):
            sel = labels == k
            t = union.transforms[k] @ patches[:, sel]
            hx += 2 * beta * float(np.sum(tau[sel] * np.einsum("ij,ij->j", t, t)))
        dx = float(np.sum(d * x.reshape(-1) ** 2))
        assert dx >= hx - 1e-10 * max(1.0, abs(hx))


def test_majorizer_diag_zero_beta():
    cfg = PatchConfig(2, 1)
    union = random_union(2, 4)
    d = regularizer_majorizer_diag(union, np.ones(cfg.n_patches((5, 5))), 0.0, cfg, (5, 5))
    assert np.all(d == 0)


@pytest.mark.parametrize("kind", ["permutation", "dense"])
def test_majorizer_diag_exact_near_double_top_singular_value(kind):
    """Class 1's two largest singular values are 1e-6 apart, where a power
    iteration on O^T O stops short of the top eigenvalue. The diagonal must
    equal 2 beta ||O||_2^2 times the tau-weighted coverage to 1e-14 and not
    fall below it. A signed permutation times diag(s) has a Gram matrix that
    floating point forms exactly, so there not even by a rounding."""
    rng = np.random.default_rng(37)
    v = 16
    s = np.concatenate([[1.0 + 1e-6, 1.0], np.linspace(0.9, 0.2, v - 2)])
    if kind == "dense":
        q, r = (np.linalg.qr(rng.standard_normal((v, v)))[0] for _ in range(2))
        top = (q * s) @ r.T
    else:
        top = np.zeros((v, v))
        top[rng.permutation(v), np.arange(v)] = s * rng.choice([-1.0, 1.0], v)
    union = TransformUnion(np.stack([0.5 * initial_transform(v), top]))
    cfg, dims, beta = PatchConfig(4, 1), (9, 10), 0.7
    tau = rng.uniform(0.1, 2.0, cfg.n_patches(dims))
    d = regularizer_majorizer_diag(union, tau, beta, cfg, dims)
    ref = 2.0 * beta * s[0] ** 2 * patch_coverage(dims, cfg, tau)
    np.testing.assert_allclose(d, ref, rtol=1e-14, atol=0)
    assert np.all(d >= ref * (1.0 - (1e-14 if kind == "dense" else 0.0)))


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


def _former_learn_transforms(patches, k, gamma_c, lambda0, iters, seed=0):
    """learn_transforms as it was before learning shared the coding kernel:
    each round recodes at fixed labels, updates the transforms, reassigns
    with the two-pass reference and codes again."""
    v, n = patches.shape
    rng = np.random.Generator(np.random.Philox(key=seed))
    labels = rng.integers(0, k, size=n)
    omegas = np.stack([initial_transform(v) for _ in range(k)])
    energies = np.einsum("ij,ij->j", patches, patches)
    trace = np.empty(iters)
    for it in range(iters):
        z = hard_threshold(classwise_apply(omegas, labels, patches), gamma_c)
        for kk in range(k):
            sel = labels == kk
            if not np.any(sel):
                continue
            x_k = patches[:, sel]
            lam = lambda0 * float(np.sum(x_k * x_k))
            if lam <= 0.0:
                continue
            omegas[kk] = _transform_update(x_k, z[:, sel], lam)
        q_vals = np.array([_regularizer_q(omegas[kk]) for kk in range(k)])
        labels, _ = _two_pass_labels(patches, omegas, gamma_c,
                                     q_vals[:, None] * (lambda0 * energies)[None, :])
        z = hard_threshold(classwise_apply(omegas, labels, patches), gamma_c)
        trace[it] = learning_objective(patches, TransformUnion(omegas.copy()), z,
                                       labels, gamma_c, lambda0)
    return TransformUnion(omegas), trace


@pytest.mark.parametrize("seed,k,n,n_zero", [
    (0, 1, 300, 0), (1, 2, 300, 40), (2, 3, 400, 0), (3, 4, 250, 60),
    (4, 5, 3, 0),  # fewer patches than classes: empty classes from the start
    (5, 2, 50, 50),  # nothing but all-zero patches
])
def test_learning_matches_former_rounds_bytewise(seed, k, n, n_zero):
    rng = np.random.default_rng(seed)
    patches = rng.standard_normal((16, n)) * rng.uniform(0.2, 2.0, n)
    patches[:, :n_zero] = 0.0
    union, trace = learn_transforms(patches, k=k, gamma_c=0.8, lambda0=1e-2, iters=8,
                                    seed=seed)
    ref_union, ref_trace = _former_learn_transforms(patches, k, 0.8, 1e-2, 8, seed=seed)
    assert union.transforms.tobytes() == ref_union.transforms.tobytes()
    assert trace.tobytes() == ref_trace.tobytes()


def test_learning_round_is_one_class_pass(monkeypatch):
    """Each round evaluates Q(O_k), and so one log-determinant, once per
    class for the reassignment and the objective together, and codes without
    the full-width class kernel."""
    def fail(*args):
        raise AssertionError("classwise_apply called during learning")

    calls = {"q": 0, "slogdet": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(ultra, "classwise_apply", fail)
    monkeypatch.setattr(ultra, "_regularizer_q", counted("q", _regularizer_q))
    monkeypatch.setattr(np.linalg, "slogdet", counted("slogdet", np.linalg.slogdet))
    rng = np.random.default_rng(3)
    patches = rng.standard_normal((16, 300))
    k = 3
    counts = []
    for iters in (2, 5):
        calls.update(q=0, slogdet=0)
        learn_transforms(patches, k=k, gamma_c=0.8, lambda0=1e-2, iters=iters, seed=0)
        counts.append(dict(calls))
    # three more rounds, K each
    assert counts[1]["q"] - counts[0]["q"] == 3 * k
    assert counts[1]["slogdet"] - counts[0]["slogdet"] == 3 * k


def test_learning_objective_non_increasing():
    rng = np.random.default_rng(42)
    patches = rng.standard_normal((16, 600))
    union, trace = learn_transforms(patches, k=3, gamma_c=0.8, lambda0=1e-2,
                                    iters=30, seed=0)
    diffs = np.diff(trace)
    assert np.all(diffs <= 1e-9 * np.maximum(1.0, np.abs(trace[:-1])))
    for k in range(union.k):
        assert abs(np.linalg.det(union.transforms[k])) > 1e-12


def test_learning_fixed_point_when_already_sparse():
    # patches already exactly sparse under the starting transform and a
    # negligible regularizer: one more round must not move the objective
    rng = np.random.default_rng(7)
    v, n = 9, 120
    omega0 = initial_transform(v)
    gamma = 0.5
    codes = hard_threshold(rng.standard_normal((v, n)) * 3, gamma)
    x = np.linalg.solve(omega0, codes)
    lam0 = 1e-16
    _, tr1 = learn_transforms(x, k=1, gamma_c=gamma, lambda0=lam0, iters=1, seed=0)
    _, tr2 = learn_transforms(x, k=1, gamma_c=gamma, lambda0=lam0, iters=2, seed=0)
    scale = 1 + abs(tr1[-1])
    assert abs(tr2[-1] - tr1[-1]) <= 1e-10 * scale


def test_learning_large_lambda_approaches_scaled_orthonormal():
    rng = np.random.default_rng(19)
    patches = rng.standard_normal((16, 400))
    devs = []
    for lam0 in (1e-2, 1e-1, 1.0, 10.0):
        union, _ = learn_transforms(patches, k=1, gamma_c=0.6, lambda0=lam0,
                                    iters=10, seed=0)
        o = union.transforms[0]
        gram = o @ o.T
        c = np.trace(gram) / gram.shape[0]
        devs.append(np.linalg.norm(gram - c * np.eye(gram.shape[0])) / abs(c))
    assert devs[-1] < devs[0]
    assert devs[-1] < 0.05


def test_empty_class_keeps_transform():
    rng = np.random.default_rng(23)
    patches = rng.standard_normal((4, 3))  # fewer patches than classes
    union, trace = learn_transforms(patches, k=5, gamma_c=0.5, lambda0=1e-2,
                                    iters=5, seed=1)
    assert union.k == 5
    assert np.all(np.isfinite(trace))


def test_all_zero_patches_are_safe():
    # flat-background training sets produce classes with zero energy; the
    # update must skip them instead of going singular
    rng = np.random.default_rng(29)
    patches = np.zeros((4, 50))
    patches[:, :10] = rng.standard_normal((4, 10))
    union, trace = learn_transforms(patches, k=2, gamma_c=0.3, lambda0=1e-2,
                                    iters=4, seed=0)
    assert np.all(np.isfinite(union.transforms))
    assert np.all(np.isfinite(trace))


def test_transform_file_round_trip(tmp_path):
    union = random_union(3, 16, seed=77)
    path = tmp_path / "u.ult"
    save_transforms(path, union)
    loaded = load_transforms(path)
    assert loaded.k == union.k and loaded.v == union.v
    assert np.array_equal(loaded.transforms, union.transforms)
    raw = path.read_bytes()
    assert raw[:4] == b"ULTR"
    import struct
    k, v = struct.unpack("<II", raw[4:12])
    assert (k, v) == (3, 16)


def test_transform_file_bad_magic(tmp_path):
    path = tmp_path / "bad.ult"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ConfigurationError):
        load_transforms(path)


def test_transform_file_without_transforms_rejected(tmp_path):
    # K = 0 would leave every patch labelled with a class that does not exist
    import struct
    path = tmp_path / "empty.ult"
    path.write_bytes(b"ULTR" + struct.pack("<II", 0, 4))
    with pytest.raises(ConfigurationError):
        load_transforms(path)


def test_singular_transform_rejected():
    mats = np.zeros((1, 3, 3))
    with pytest.raises(ConfigurationError):
        TransformUnion(mats)
