"""Weak-perspective fit: scale, shape coefficients, 2x3 rotation rows, 2D offset.

The weighted, Tikhonov-regularized cost is minimized by block coordinate
descent over scale, shape coefficients and rotation rows, initialized from a
convex relaxation that fixes the shape to the mean and replaces the
row-orthonormality constraint with a spectral-norm regularizer (Zhou,
Leonardos, Hu & Daniilidis, CVPR 2015). In both stages the offset is
eliminated exactly at the weighted means, so both see the keypoints only
through one Gram of the centred rows [W; B0; B_1 .. B_k], formed once per fit:
the relaxation reads its leading 5x5 block, the moments of [W; B0], and the
descent all of it. Every step is a contraction of these with the current
coefficients and rows, so no step passes over the keypoints. Every block is
an exact minimizer, so the cost never rises:

- scale and shape coefficients are weighted least-squares solves;
- the rotation rows take Newton steps R <- R exp(hat(omega)) on SO(3) in
  plain float arithmetic on their 2x3 and 3x3 moments. A step is kept only
  when the Hessian is positive definite and the cost does not rise; a rise
  within the stopping tolerance ends the block as solved. Otherwise the step
  is one Procrustes pass on the cross-covariance completed with the missing
  third image row (Kiers, Psychometrika 1990), which cannot raise the cost.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateGeometryError, InsufficientConstraintsError
from .geometry import (
    check_stiefel_rows, lift_stiefel, rotation_from_cross_covariance, so3_newton_rows
)
from .shape_basis import compose_shape

logger = logging.getLogger(__name__)


@dataclass
class SolverOptions:
    """Shared options for the weak- and full-perspective solvers.

    ``lam`` (Tikhonov weight) and ``mu`` (spectral-norm weight for the convex
    initialization) default to data-scaled heuristics when left as None:
    ``default_lambda`` of the basis, and mu = 0.01 ||(W - wbar) D^(1/2)||_F for
    the weighted mean wbar of the keypoints W (in the solver's coordinates:
    pixels for solve_wp, normalized image coordinates for solve_fp's WP init).
    Centring removes the principal-point offset, which would otherwise
    dominate the norm and over-shrink the relaxed pose.
    """

    lam: float = None
    mu: float = None
    max_iterations: int = 500
    relative_tolerance: float = 1e-9
    record_block_costs: bool = False

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.relative_tolerance <= 0.0:
            raise ValueError("relative_tolerance must be positive")
        if self.lam is not None and self.lam < 0.0:
            raise ValueError("lam must be nonnegative")


@dataclass
class WPEstimate:
    """Weak-perspective solution: scale s, coefficients c, rows rbar, offset tbar."""

    s: float
    c: np.ndarray
    rbar: np.ndarray
    tbar: np.ndarray
    final_cost: float
    iterations: int
    converged: bool
    block_costs: list = field(default=None, repr=False)

    def __post_init__(self):
        if self.s <= 0.0:
            raise ValueError("weak-perspective scale must be positive")
        self.c = np.asarray(self.c, dtype=float).reshape(-1)
        self.rbar = np.asarray(self.rbar, dtype=float)
        self.tbar = np.asarray(self.tbar, dtype=float).reshape(2)

    def rotation(self):
        """Full rotation with the third row completed by the cross product."""
        return lift_stiefel(self.rbar)


def default_lambda(basis):
    """Tikhonov weight tied to the shape-variance scale (heuristic default)."""
    if basis.num_modes == 0:
        return 0.0
    mean_eig = float(np.mean(basis.eigenvalues))
    if mean_eig <= 0.0:
        return 0.0
    return 1e-2 / mean_eig


def _checked_inputs(obs, basis, opts):
    """The confidences and the Tikhonov weight of a fit, after the checks both
    solvers share: matching keypoint counts and >= 4 confident keypoints."""
    d = np.asarray(obs.d, dtype=float)
    if obs.num_keypoints != basis.num_keypoints:
        raise ValueError("observation and basis keypoint counts differ")
    if np.count_nonzero(d > 0.0) < 4:
        raise InsufficientConstraintsError(
            "need at least 4 keypoints with positive confidence"
        )
    return d, opts.lam if opts.lam is not None else default_lambda(basis)


def _cleaned_w(obs):
    """Copy of W with zero-confidence columns (possible sentinels) zeroed."""
    w = np.array(obs.w, dtype=float)
    w[:, obs.d <= 0.0] = 0.0
    return w


def _wp_cost(w, d, s, shape, c, rbar, tbar, lam):
    """cost_wp on cleaned keypoints and an already composed shape."""
    resid = w - s * (rbar @ shape) - tbar[:, None]
    return float(
        0.5 * np.sum(d * np.sum(resid**2, axis=0)) + 0.5 * lam * np.sum(c**2)
    )


def cost_wp(obs, basis, s, c, rbar, tbar, lam):
    """Weighted weak-perspective cost with Tikhonov penalty on c."""
    c = np.asarray(c, dtype=float).reshape(-1)
    return _wp_cost(
        _cleaned_w(obs),
        obs.d,
        s,
        compose_shape(basis, c),
        c,
        np.asarray(rbar, dtype=float),
        np.asarray(tbar, dtype=float).reshape(2),
        lam,
    )


def wp_cost_gradient(obs, basis, s, c, rbar, tbar, lam):
    """Analytic gradient of cost_wp.

    Returns (g_s, g_c, g_tbar, g_omega) where g_omega is the gradient with
    respect to a right tangent perturbation rbar @ exp(hat(omega)).
    """
    c = np.asarray(c, dtype=float).reshape(-1)
    rbar = np.asarray(rbar, dtype=float)
    tbar = np.asarray(tbar, dtype=float).reshape(2)
    shape = compose_shape(basis, c)
    w = _cleaned_w(obs)
    d = obs.d
    proj = rbar @ shape
    resid = w - s * proj - tbar[:, None]
    wr = resid * d

    g_s = -float(np.sum(wr * proj))
    g_tbar = -np.sum(wr, axis=1)
    g_c = -s * np.einsum("ap,jap->j", wr, rbar @ basis.modes) + lam * c
    # d/d omega_j of rbar exp(hat(omega)) S_i is rbar (e_j x S_i)
    g_omega = -s * np.sum(np.cross(shape, rbar.T @ wr, axis=0), axis=1)
    return g_s, g_c, g_tbar, g_omega


def _prox_spectral(y, t):
    """Proximal operator of t * (spectral norm) at a 2x3 matrix ``y`` (nested
    lists); returns the result and its largest singular value.

    With K = y y^T, s1^2 is the larger eigenvalue of K and s1 s2 = |y1 x y2|
    (Cauchy-Binet), which keeps a small s2 accurate. Shrinking s1 alone
    subtracts (t / s1) P y with P = (K - s2^2 I) / (s1^2 - s2^2); the tied
    branch scales K^(-1/2) y = ((s1^2 + s1 s2 + s2^2) I - K) y / (s1 s2 (s1 + s2)).
    """
    (a0, a1, a2), (b0, b1, b2) = y
    kaa = a0 * a0 + a1 * a1 + a2 * a2
    kab = a0 * b0 + a1 * b1 + a2 * b2
    kbb = b0 * b0 + b1 * b1 + b2 * b2
    s1 = math.sqrt(0.5 * (kaa + kbb + math.hypot(kaa - kbb, 2.0 * kab)))
    cross = math.hypot(a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)
    s2 = cross / s1 if s1 > 0.0 else 0.0
    if s1 - s2 >= t:  # not s1 - t >= s2, which holds for s1 = s2 and t < ulp(s1)
        f = t / (s1 * (s1 - s2) * (s1 + s2)) if t > 0.0 else 0.0
        l00, l01, l11 = 1.0 - f * (kaa - s2 * s2), -f * kab, 1.0 - f * (kbb - s2 * s2)
        top = s1 - t
    else:
        top = max(0.0, 0.5 * (s1 + s2 - t))  # > 0 only if s2 > 0
        f = top / (s1 * s2 * (s1 + s2)) if top > 0.0 else 0.0
        q = s1 * s1 + s1 * s2 + s2 * s2
        l00, l01, l11 = f * (q - kaa), -f * kab, f * (q - kbb)
    return [
        [l00 * a0 + l01 * b0, l00 * a1 + l01 * b1, l00 * a2 + l01 * b2],
        [l01 * a0 + l11 * b0, l01 * a1 + l11 * b1, l01 * a2 + l11 * b2],
    ], top


def convex_init(moments, mu, max_iterations=5000, tol=1e-10):
    """Globally solve the relaxed problem (c = 0, spectral-norm regularizer).

    ``moments`` is the 5x5 matrix sum_i d_i x_i x_i^T of the rows x = [W; B0]
    centred at their weighted means, the leading block of solve_wp's Gram.
    Minimizes 0.5 ||(Wc - M Bc) D^(1/2)||_F^2 + mu ||M||_2 over the
    unconstrained 2x3 matrix M by proximal gradient (the offset is exact at
    the weighted means), then factors M into scale and orthonormal rows.
    Returns both reflection-consistent candidates as a list of (s, rbar)
    pairs ranked by the unrelaxed cost at c = 0.

    With G = Bc D Bc^T and C = Wc D Bc^T read from ``moments``, the gradient
    is M G - C; steps run on floats and are compared by their exact change
    <M' - M, (M' + M) G / 2 - C> + mu (||M'||_2 - ||M||_2).
    """
    moments = np.asarray(moments, dtype=float)
    if moments.shape != (5, 5):
        raise ValueError("moments must be the 5x5 moments of the centred [W; B0]")
    eigs = np.linalg.eigvalsh(moments[2:, 2:])
    if eigs[-1] <= 0.0 or eigs[1] <= 1e-12 * eigs[-1]:
        raise DegenerateGeometryError("mean shape is (near-)collinear")
    step = 1.0 / eigs[-1]
    (g00, g01, g02), (_, g11, g12), (_, _, g22) = moments[2:, 2:].tolist()
    cov = moments[:2, 2:].tolist()
    sww = float(moments[0, 0] + moments[1, 1])

    m = mg = [[0.0] * 3] * 2  # M and M G
    norm = 0.0  # ||M||_2
    current = 0.5 * sww
    for _ in range(max_iterations):
        y = [[x - step * (g - c) for x, g, c in zip(*r)] for r in zip(m, mg, cov)]
        new, new_norm = _prox_spectral(y, step * mu)
        new_g = [[x0 * g00 + x1 * g01 + x2 * g02, x0 * g01 + x1 * g11 + x2 * g12,
                  x0 * g02 + x1 * g12 + x2 * g22] for x0, x1, x2 in new]
        change = mu * (new_norm - norm) + sum(
            (x1 - x0) * (0.5 * (g1 + g0) - c)
            for r in zip(new, m, new_g, mg, cov)
            for x1, x0, g1, g0, c in zip(*r)
        )
        m, mg, norm = new, new_g, new_norm
        prev, current = current, current + change
        if -change < tol * max(prev, 1e-300):
            break

    u, sv, vt = np.linalg.svd(np.array(m), full_matrices=False)
    s_est = float((sv[0] + sv[1]) / 2.0)
    rbar_a = u @ vt
    n = (s_est * moments[:2, 2:]).tolist()
    g = (s_est * s_est * moments[2:, 2:]).tolist()
    return sorted(  # by the cost with the offset at the weighted means
        [(s_est, rbar_a), (s_est, rbar_a @ np.diag([1.0, 1.0, -1.0]))],
        key=lambda cand: _moment_cost(sww, n, g, cand[1].tolist()),
    )


def _moment_cost(sa, n, m, rows):
    """sum_i d_i |a_i - rbar b_i|^2 = sa - 2 tr(rbar^T N) + tr(rbar M rbar^T) for
    rbar = ``rows[:2]``, which on SO(3) is sa + tr M - 2 tr(rbar^T N) - u^T M u."""
    return sa + _cost_change(n, m, [[0.0] * 3] * 2, rows)


def _cost_change(n, m, rows, new):
    """_moment_cost at ``new`` minus at ``rows``, in which sa cancels: with
    delta = rbar' - rbar it is tr(delta (M (rbar' + rbar)^T - 2 N^T))."""
    (m00, m01, m02), (_, m11, m12), (_, _, m22) = m
    change = 0.0
    for (x0, x1, x2), (y0, y1, y2), (n0, n1, n2) in zip(new, rows, n):
        s0, s1, s2 = x0 + y0, x1 + y1, x2 + y2
        change += (
            (x0 - y0) * (m00 * s0 + m01 * s1 + m02 * s2 - 2.0 * n0)
            + (x1 - y1) * (m01 * s0 + m11 * s1 + m12 * s2 - 2.0 * n1)
            + (x2 - y2) * (m02 * s0 + m12 * s1 + m22 * s2 - 2.0 * n2)
        )
    return change


def _newton_rotation(n, m, rows, mu):
    """R exp(hat(omega)) for the Newton step omega of the cost at R = ``rows``,
    or None when the Hessian is not positive definite (a Cholesky pivot <= 0).

    For omega -> cost(R exp(hat(omega))) at 0 the gradient is
    2 (r1 x n1 + r2 x n2 + u x mu) and, as |u| = 1, the Hessian is
    2 (tr Y - u.mu) I + 2 M - Y - Y^T with Y = R^T [n1; n2; 3 mu - tr(M) u].
    """
    (a0, a1, a2), (b0, b1, b2), (u0, u1, u2) = rows
    (p0, p1, p2), (q0, q1, q2) = n
    (m00, m01, m02), (_, m11, m12), (_, _, m22) = m
    v0, v1, v2 = mu
    g0 = 2.0 * (a1 * p2 - a2 * p1 + b1 * q2 - b2 * q1 + u1 * v2 - u2 * v1)
    g1 = 2.0 * (a2 * p0 - a0 * p2 + b2 * q0 - b0 * q2 + u2 * v0 - u0 * v2)
    g2 = 2.0 * (a0 * p1 - a1 * p0 + b0 * q1 - b1 * q0 + u0 * v1 - u1 * v0)
    trm = m00 + m11 + m22
    z0, z1, z2 = 3.0 * v0 - trm * u0, 3.0 * v1 - trm * u1, 3.0 * v2 - trm * u2
    y00 = a0 * p0 + b0 * q0 + u0 * z0
    y11 = a1 * p1 + b1 * q1 + u1 * z1
    y22 = a2 * p2 + b2 * q2 + u2 * z2
    diag = 2.0 * (y00 + y11 + y22 - u0 * v0 - u1 * v1 - u2 * v2)
    h00 = diag + 2.0 * (m00 - y00)
    h11 = diag + 2.0 * (m11 - y11)
    h22 = diag + 2.0 * (m22 - y22)
    h10 = 2.0 * m01 - a1 * p0 - a0 * p1 - b1 * q0 - b0 * q1 - u1 * z0 - u0 * z1
    h20 = 2.0 * m02 - a2 * p0 - a0 * p2 - b2 * q0 - b0 * q2 - u2 * z0 - u0 * z2
    h21 = 2.0 * m12 - a2 * p1 - a1 * p2 - b2 * q1 - b1 * q2 - u2 * z1 - u1 * z2
    return so3_newton_rows(rows, (g0, g1, g2), (h00, h10, h11, h20, h21, h22))


def _rotation_rows(rbar):
    """Validated ``rbar`` with u = r1 x r2 appended, as nested lists."""
    (a0, a1, a2), (b0, b1, b2) = rows = check_stiefel_rows(rbar).tolist()
    return rows + [[a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]]


def _solve_rows(sa, n, m, rows, max_steps=50):
    """Rows minimizing sum_i d_i |a_i - rbar b_i|^2 from ``rows``, in float
    arithmetic on its moments sa = sum_i d_i |a_i|^2, N = sum_i d_i a_i b_i^T (2x3)
    and M = sum_i d_i b_i b_i^T (3x3), with the summed change of the cost. A step
    is a safeguarded Newton step (see the module docstring) or else one
    completion pass: the Procrustes rotation of the cross-covariance [N; u^T M],
    which fills in the missing image row with u^T b_i. Steps are compared by
    their cost change, in which sa cancels exactly."""
    current, total = _moment_cost(sa, n, m, rows), 0.0
    for _ in range(max_steps):
        u0, u1, u2 = rows[2]
        mu = [mr[0] * u0 + mr[1] * u1 + mr[2] * u2 for mr in m]
        new = _newton_rotation(n, m, rows, mu)
        if new is not None:
            change = _cost_change(n, m, rows, new)
            if 0.0 < change <= 1e-14 * max(current, 1.0):
                break  # a Newton step rejected only by rounding: the block is solved
        if new is None or change > 0.0:
            new = rotation_from_cross_covariance(np.array([n[0], n[1], mu])).tolist()
            change = _cost_change(n, m, rows, new)
        prev = current
        rows, current, total = new, current + change, total + change
        if -change <= 1e-14 * max(prev, 1.0):
            break
    return rows, total


def _bcd_wp(w, d, moments, basis, s, rbar, lam, opts):
    """Block descent from one start on the centred moments of solve_wp. With
    gamma = (1, c) the shape is sum_j gamma_j B_j (B_0 = b0), so the moments
    Q_jl of B_j B_l^T enter as <rbar^T rbar, Q_jl>, those of w B_j^T as
    <rbar, Q_wj>. The offset is eliminated at the weighted means,
    tbar = wbar - s rbar sum_j gamma_j Bbar_j, and formed only for a cost or
    the estimate. The stopping rule reads the sum of the blocks' exact
    decreases, each written without cancellation."""
    wbar, bbar, sww, qwm, qmm = moments
    k = basis.num_modes
    c, gamma, eye = np.zeros(k), np.eye(k + 1)[0], np.eye(k)
    rows = _rotation_rows(rbar)
    s = max(float(s), 1e-12)

    def offset():
        return wbar - s * (rbar @ (gamma @ bbar))

    def cost(shape):
        return _wp_cost(w, d, s, shape, c, rbar, offset(), lam)

    current = cost(basis.b0)
    block_costs = [current] if opts.record_block_costs else None
    iterations, converged = 0, False

    def record():
        if block_costs is not None:
            block_costs.append(cost(compose_shape(basis, c)))

    for iterations in range(1, opts.max_iterations + 1):
        rp = rbar.T @ rbar
        h = (qmm @ rp.ravel()).reshape(k + 1, k + 1)  # <rbar^T rbar, Q_jl>
        wr = qwm @ rbar.ravel()  # <rbar, Q_wj>

        # scale block (closed-form weighted least squares)
        den, num = float(gamma @ h @ gamma), float(gamma @ wr)
        if den <= 0.0:
            raise DegenerateGeometryError("projected shape collapsed to a point")
        s_new = max(num / den, 1e-12)
        decrease = (s - s_new) * (0.5 * den * (s + s_new) - num)
        s = s_new
        record()

        # coefficient block (weighted ridge least squares)
        if k > 0:
            a = s * s * h[1:, 1:] + lam * eye
            rhs = s * (wr[1:] - s * h[1:, 0])
            c_new = np.linalg.solve(a, rhs)
            decrease += float((c - c_new) @ (0.5 * (a @ (c + c_new)) - rhs))
            c = gamma[1:] = c_new
            record()

        # rotation-rows block, on N = sum d a b^T, M = sum d b b^T, sum d |a|^2
        # for the centred a = w - wbar and b = s (S - Sbar)
        ss = (np.outer(gamma, gamma).ravel() @ qmm).reshape(3, 3)
        n = s * (gamma @ qwm).reshape(2, 3)
        rows, change = _solve_rows(sww, n.tolist(), (s * s * ss).tolist(), rows)
        decrease -= 0.5 * change
        rbar = np.array(rows[:2])
        record()

        prev, current = current, current - decrease
        if decrease < opts.relative_tolerance * max(prev, 1e-300):
            converged = True
            break

    return WPEstimate(
        s=s,
        c=c,
        rbar=rbar,
        tbar=offset(),
        final_cost=cost(compose_shape(basis, c)),
        iterations=iterations,
        converged=converged,
        block_costs=block_costs,
    )


def _choose_candidate(results):
    """The estimate of lowest final cost. Costs within 8 ulps of the larger
    one tie; a tie goes to the estimate whose third row looks at +z, and
    then to the earlier one, so rounding does not decide."""
    best = results[0]
    for other in results[1:]:
        gap = other.final_cost - best.final_cost
        if abs(gap) > 8.0 * math.ulp(max(other.final_cost, best.final_cost)):
            best = other if gap < 0.0 else best
        elif np.cross(*other.rbar)[2] > 0.0 >= np.cross(*best.rbar)[2]:
            best = other
    return best


def solve_wp(obs, basis, opts=None):
    """Fit the weak-perspective model to confidence-weighted keypoints.

    Runs block coordinate descent from both reflection candidates of the
    convex initialization and returns the lower-cost estimate. The keypoints
    are reduced once, to the Gram of the rows [w; b0; B_1 .. B_k] centred at
    their weighted means, which eliminates the offset: the default mu, the
    relaxation (its leading 5x5 block) and both descents read it.
    """
    opts = opts or SolverOptions()
    d, lam = _checked_inputs(obs, basis, opts)
    w = _cleaned_w(obs)
    k = basis.num_modes
    rows = np.concatenate([w, basis.b0, *basis.modes])
    mean = rows @ d / d.sum()
    rows -= mean[:, None]
    sv = np.linalg.svd(rows[:2] * np.sqrt(d), compute_uv=False)
    if sv[1] <= 1e-9 * max(sv[0], 1e-300):
        raise DegenerateGeometryError("weighted observed keypoints are collinear")

    gram = rows @ (rows * d).T
    sww = float(gram[0, 0] + gram[1, 1])
    mu = opts.mu if opts.mu is not None else 0.01 * math.sqrt(sww)

    qwm = gram[:2, 2:].reshape(2, k + 1, 3).transpose(1, 0, 2).reshape(k + 1, 6)
    qmm = gram[2:, 2:].reshape(k + 1, 3, k + 1, 3).transpose(0, 2, 1, 3).reshape(-1, 9)
    moments = mean[:2], mean[2:].reshape(k + 1, 3), sww, qwm, qmm
    results = [
        _bcd_wp(w, d, moments, basis, s0, rbar0, lam, opts)
        for s0, rbar0 in convex_init(gram[:5, :5], mu)
    ]
    best = _choose_candidate(results)
    if not best.converged:
        logger.warning(
            "solve_wp stopped at max_iterations=%d before the relative cost "
            "decrease fell below %g",
            opts.max_iterations,
            opts.relative_tolerance,
        )
    return best
