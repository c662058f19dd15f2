"""Weak-perspective fit: scale, shape coefficients, 2x3 rotation rows, 2D offset.

The weighted, Tikhonov-regularized cost is minimized by block coordinate
descent over scale, shape coefficients and rotation rows, initialized from a
convex relaxation that fixes the shape to the mean and replaces the
row-orthonormality constraint with a spectral-norm regularizer (Zhou,
Leonardos, Hu & Daniilidis, CVPR 2015). The relaxation takes Newton steps
where the spectral norm is smooth, with the closed-form Hessian of Lewis &
Sendov (SIAM J. Matrix Anal. Appl. 2001), and proximal gradient steps at a
tied optimum, where the two singular values meet. Both stop on one test, the
strong-convexity bound on the distance to the minimizer; a coplanar mean shape
is solved in its plane, where that bound holds. In both stages the offset is
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
  is one Procrustes pass, geometry.project_to_so3 of the cross-covariance
  completed with the missing third image row (Kiers, Psychometrika 1990),
  which cannot raise the cost.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateGeometryError, InsufficientConstraintsError
from .geometry import (
    check_stiefel_rows, lift_stiefel, project_to_so3, so3_newton_rows, spd_solve3,
)
from .shape_basis import compose_shape

logger = logging.getLogger(__name__)

# Newton steps of the relaxation before proximal steps take over, the step
# lengths 1, 1/2, .. one Newton step tries, the proximal steps after them,
# and the relative distance to the minimizer at which the relaxation stops
_NEWTON_STEPS = 8
_BACKTRACKS = 20
_PROX_STEPS = 5000
_RELAX_TOL = 1e-10


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


def _gram_2x3(y):
    """K = y y^T of a 2x3 matrix ``y`` (nested lists) as (kaa, kab, kbb), with
    s1^2 - s2^2 = hypot(kaa - kbb, 2 kab) and the largest singular value s1."""
    (a0, a1, a2), (b0, b1, b2) = y
    kaa = a0 * a0 + a1 * a1 + a2 * a2
    kab = a0 * b0 + a1 * b1 + a2 * b2
    kbb = b0 * b0 + b1 * b1 + b2 * b2
    gap = math.hypot(kaa - kbb, 2.0 * kab)
    return kaa, kab, kbb, gap, math.sqrt(0.5 * (kaa + kbb + gap))


def _prox_spectral(y, t):
    """Proximal operator of t * (spectral norm) at a 2x3 array ``y``, and its
    largest singular value: with y = U diag(s1, s2) V^T, s1 alone shrinks by
    t, or both become max(0, (s1 + s2 - t) / 2) where s1 - t would pass s2."""
    u, (s1, s2), vt = np.linalg.svd(y, full_matrices=False)
    if s1 - s2 >= t:  # not s1 - t >= s2, which holds for s1 = s2 and t < ulp(s1)
        sv = np.array([s1 - t, s2])
    else:
        sv = np.full(2, max(0.0, 0.5 * (s1 + s2 - t)))
    return (u * sv) @ vt, sv[0]


def _norm_change(m, d, t):
    """||M + t D||_2 - ||M||_2 for 2x3 M and D (nested lists), written without
    cancellation through the exact change of K = M M^T, so that a step near
    rounding is still compared correctly."""
    (a0, a1, a2), (b0, b1, b2) = m
    (c0, c1, c2), (e0, e1, e2) = d
    kaa, kab, kbb, gap, s1 = _gram_2x3(m)
    daa = t * (2.0 * (a0 * c0 + a1 * c1 + a2 * c2) + t * (c0 * c0 + c1 * c1 + c2 * c2))
    dbb = t * (2.0 * (b0 * e0 + b1 * e1 + b2 * e2) + t * (e0 * e0 + e1 * e1 + e2 * e2))
    dab = t * (a0 * e0 + a1 * e1 + a2 * e2 + b0 * c0 + b1 * c1 + b2 * c2
               + t * (c0 * e0 + c1 * e1 + c2 * e2))
    x, dx = kaa - kbb, daa - dbb
    total = gap + math.hypot(x + dx, 2.0 * (kab + dab))
    dgap = (dx * (2.0 * x + dx) + 4.0 * dab * (2.0 * kab + dab)) / total if total > 0.0 else 0.0
    ds = 0.5 * (daa + dbb + dgap)  # the change of s1^2 = (kaa + kbb + gap) / 2
    total = s1 + math.sqrt(max(s1 * s1 + ds, 0.0))
    return ds / total if total > 0.0 else 0.0


def _norm_frame(m):
    """Singular values and vectors of a 2x3 M (nested lists) where ||M||_2 is
    twice differentiable: (s1, s2, s1^2 - s2^2, (u1, u2), (v1, v2, v3)) with
    M = s1 u1 v1^T + s2 u2 v2^T, s2 >= 0 and v3 along m1 x m2. None when
    m1 x m2 = 0 or s1 - s2 <= 1e-8 s1, too close to the kink at s1 = s2. u1
    is the top eigenvector of K = M M^T, and s1 s2 = |m1 x m2| (Cauchy-Binet)
    keeps a small s2 accurate. With u2 = (-u1[1], u1[0]), m1 x m2 =
    s1 s2 (v1 x v2) fixes the sign of v2 = v3 x v1."""
    (a0, a1, a2), (b0, b1, b2) = m
    kaa, kab, kbb, gap, s1 = _gram_2x3(m)
    x0, x1, x2 = a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0
    cross = math.hypot(x0, x1, x2)
    if not cross > 0.0 or s1 - cross / s1 <= 1e-8 * s1:
        return None
    p, q = (kaa - kbb + gap, 2.0 * kab) if kaa >= kbb else (2.0 * kab, kbb - kaa + gap)
    r = math.hypot(p, q)
    p, q = p / r, q / r
    y0, y1, y2 = (p * a0 + q * b0) / s1, (p * a1 + q * b1) / s1, (p * a2 + q * b2) / s1
    # m1 x m2 is normal to v1 but for its rounding, which is most of it when
    # s2 << s1; there the Hessian needs only that v1, v2, v3 are orthonormal
    dot = x0 * y0 + x1 * y1 + x2 * y2
    x0, x1, x2 = x0 - dot * y0, x1 - dot * y1, x2 - dot * y2
    r = math.hypot(x0, x1, x2)
    x0, x1, x2 = x0 / r, x1 / r, x2 / r
    z0, z1, z2 = x1 * y2 - x2 * y1, x2 * y0 - x0 * y2, x0 * y1 - x1 * y0
    return s1, cross / s1, gap, ((p, q), (-q, p)), ((y0, y1, y2), (z0, z1, z2), (x0, x1, x2))


def _newton_direction(frame, grad, lam, mu):
    """The Newton step -H^-1 g (2x3 nested lists) of the relaxed objective at
    the M of ``frame`` (see _norm_frame), for its gradient g, the 2x3
    ``grad``, and G = diag(``lam``); None when H has no Cholesky factor.

    H is I (x) G plus mu times the Hessian of ||M||_2, which by Lewis & Sendov
    (SIAM J. Matrix Anal. Appl. 2001) is [s1 (ea ea^T + eb eb^T) + s2 (ea eb^T
    + eb ea^T)] / (s1^2 - s2^2) + ec ec^T / s1 for ea = u1 v2^T, eb = u2 v1^T
    and ec = u1 v3^T. In the frame of a step X, Z = U^T X V, these are the
    entries z01, z10 and z02, and I (x) G is F = V^T G V on each row of Z.
    So with gap = s1^2 - s2^2, H is A = F + mu diag(0, s1 / gap, 1 / s1) on
    row 0, D = F + mu diag(s1 / gap, 0, 0) on row 1 and the coupling
    c = mu s2 / gap of z01 and z10; its Cholesky factor is that of A and
    that of the Schur complement D - c^2 (A^-1)_11 e0 e0^T.
    """
    s1, s2, gap, ((p, q), (r, t)), ((a0, a1, a2), (b0, b1, b2), (c0, c1, c2)) = frame
    (x0, x1, x2), (y0, y1, y2) = grad
    l0, l1, l2 = lam
    # U^T g, whose rows times V are the rows of g in the frame
    e0, e1, e2 = p * x0 + q * y0, p * x1 + q * y1, p * x2 + q * y2
    f0, f1, f2 = r * x0 + t * y0, r * x1 + t * y1, r * x2 + t * y2
    # F = V^T G V
    ga0, ga1, ga2 = l0 * a0, l1 * a1, l2 * a2
    gb0, gb1, gb2 = l0 * b0, l1 * b1, l2 * b2
    h00 = ga0 * a0 + ga1 * a1 + ga2 * a2
    h10 = ga0 * b0 + ga1 * b1 + ga2 * b2
    h20 = ga0 * c0 + ga1 * c1 + ga2 * c2
    h11 = gb0 * b0 + gb1 * b1 + gb2 * b2
    h21 = gb0 * c0 + gb1 * c1 + gb2 * c2
    h22 = l0 * c0 * c0 + l1 * c1 * c1 + l2 * c2 * c2
    w, c = mu * s1 / gap, mu * s2 / gap
    solved = spd_solve3(
        (h00, h10, h11 + w, h20, h21, h22 + mu / s1),
        (-(e0 * a0 + e1 * a1 + e2 * a2), -(e0 * b0 + e1 * b1 + e2 * b2),
         -(e0 * c0 + e1 * c1 + e2 * c2)),
        (0.0, 1.0, 0.0),
    )
    if solved is None:
        return None
    (j0, j1, j2), (i0, i1, i2) = solved  # A^-1 (-row 0) and A^-1 e1
    solved = spd_solve3(
        (h00 + w - c * c * i1, h10, h11, h20, h21, h22),
        (-(f0 * a0 + f1 * a1 + f2 * a2) - c * j1, -(f0 * b0 + f1 * b1 + f2 * b2),
         -(f0 * c0 + f1 * c1 + f2 * c2)),
    )
    if solved is None:
        return None
    (k0, k1, k2), = solved  # row 1 of Z
    j0, j1, j2 = j0 - c * k0 * i0, j1 - c * k0 * i1, j2 - c * k0 * i2  # row 0
    # back to the entries of M: U Z V^T = u1 (V z0)^T + u2 (V z1)^T
    e0, f0 = j0 * a0 + j1 * b0 + j2 * c0, k0 * a0 + k1 * b0 + k2 * c0
    e1, f1 = j0 * a1 + j1 * b1 + j2 * c1, k0 * a1 + k1 * b1 + k2 * c1
    e2, f2 = j0 * a2 + j1 * b2 + j2 * c2, k0 * a2 + k1 * b2 + k2 * c2
    return [[p * e0 + r * f0, p * e1 + r * f1, p * e2 + r * f2],
            [q * e0 + t * f0, q * e1 + t * f1, q * e2 + t * f2]]


def _newton_relaxed(m, cov, lam, mu, bound):
    """One safeguarded Newton step on the relaxed objective from M = ``m``
    for G = diag(``lam``): the new M after an Armijo backtracking search;
    ``m`` itself when |gradient|_F <= ``bound`` |M|_F; None when ||M||_2 is
    not smooth there (see _norm_frame), H has no Cholesky factor or no step
    length passes the search. The gradient is M G - C + mu u1 v1^T, and a
    step's change of the objective is <D, M G - C> + <D, D G> / 2 +
    mu (||M + D||_2 - ||M||_2)."""
    frame = _norm_frame(m)
    if frame is None:
        return None
    (p, q), v1 = frame[3][0], frame[4][0]
    resid = [[x * l - c for x, l, c in zip(row, lam, cr)] for row, cr in zip(m, cov)]
    grad = [[x + mu * u * v for x, v in zip(row, v1)] for row, u in zip(resid, (p, q))]
    if math.hypot(*grad[0], *grad[1]) <= bound * math.hypot(*m[0], *m[1]):
        return m
    d = _newton_direction(frame, grad, lam, mu)
    if d is None:
        return None
    lin = sum(x * y for rows in zip(d, resid) for x, y in zip(*rows))
    w0, w1, w2 = v1
    (d0, d1, d2), (e0, e1, e2) = d
    slope = lin + mu * (p * (d0 * w0 + d1 * w1 + d2 * w2) + q * (e0 * w0 + e1 * w1 + e2 * w2))
    quad = sum(l * (x * x + y * y) for l, x, y in zip(lam, *d))
    t = 1.0
    for _ in range(_BACKTRACKS):
        if t * (lin + 0.5 * t * quad) + mu * _norm_change(m, d, t) <= 1e-4 * t * slope:
            return [[x + t * y for x, y in zip(*rows)] for rows in zip(m, d)]
        t *= 0.5
    return None


def _relaxed_m(moments, mu):
    """The minimizer M (a 2x3 array) of the relaxation in convex_init, found
    in the eigenvectors Q of G = Q diag(lam) Q^T: M Q has the same spectral
    norm, and there G is diag(lam) and C is C Q."""
    moments = np.asarray(moments, dtype=float)
    if moments.shape != (5, 5):
        raise ValueError("moments must be the 5x5 moments of the centred [W; B0]")
    lam, vecs = np.linalg.eigh(moments[2:, 2:])
    if lam[-1] <= 0.0 or lam[1] <= 1e-12 * lam[-1]:
        raise DegenerateGeometryError("mean shape is (near-)collinear")
    cq = moments[:2, 2:] @ vecs
    if lam[0] <= 1e-12 * lam[-1]:
        # a coplanar mean shape: with C's column off the plane dropped, a part
        # of M off the plane only adds to ||M||_2, so a weight lam[1] there
        # keeps the minimizer, in the plane, and makes G positive definite
        lam[0], cq[:, 0] = lam[1], 0.0
    cov, lams = cq.tolist(), lam.tolist()
    m = (cq / lam).tolist()  # the mu = 0 minimizer C G^+
    # |M - M*|_F <= |g|_F / lambda_min(G) for a (sub)gradient g, held to
    # _RELAX_TOL, but not below g's rounding, about 1e-14 lambda_max(G) |M|_F
    bound = max(_RELAX_TOL * lams[0], 1e-14 * lams[-1])
    for _ in range(_NEWTON_STEPS):
        new = _newton_relaxed(m, cov, lams, mu, bound)
        if new is m:
            return np.array(m) @ vecs.T
        if new is None:
            break
        m = new

    # proximal gradient from M: the tied optimum (s1 = s2) and failed steps
    m, step = np.array(m), 1.0 / lams[-1]
    for _ in range(_PROX_STEPS):
        new = _prox_spectral(m - step * (m * lam - cq), step * mu)[0]
        # (M - M') (L I - G) is a subgradient at M' for L = lambda_max(G)
        sub = np.linalg.norm((m - new) * (lam[-1] - lam))
        m = new
        if sub <= bound * np.linalg.norm(m):
            break
    return m @ vecs.T


def convex_init(moments, mu):
    """Globally solve the relaxed problem (c = 0, spectral-norm regularizer).

    ``moments`` is the 5x5 matrix sum_i d_i x_i x_i^T of the rows x = [W; B0]
    centred at their weighted means, the leading block of solve_wp's Gram.
    Minimizes 0.5 ||(Wc - M Bc) D^(1/2)||_F^2 + mu ||M||_2 over the
    unconstrained 2x3 matrix M (the offset is exact at the weighted means),
    then factors M into scale and orthonormal rows. Returns both
    reflection-consistent candidates as a list of (s, rbar) pairs ranked by
    the unrelaxed cost at c = 0.

    With G = Bc D Bc^T and C = Wc D Bc^T read from ``moments``, the smooth
    part has gradient M G - C. From the mu = 0 minimizer C G^-1, safeguarded
    Newton steps run in float arithmetic where ||M||_2 is twice
    differentiable (s1 > s2), each kept by an Armijo search on the exact
    change of the objective. The iterate is returned once strong convexity
    bounds its distance to the minimizer, |M - M*|_F <= |g|_F / lambda_min(G)
    for a (sub)gradient g, by 1e-10 |M|_F, or by g's rounding level where G
    is ill-conditioned. At a tied optimum (s1 = s2), or when a Newton step
    fails, at most 5000 proximal gradient steps (an SVD each) finish from the
    current point under the same bound. A coplanar mean shape (G of rank 2)
    is solved in its plane: M* has no part off it, so the relaxation there
    starts from C G^+ and takes G's second eigenvalue as lambda_min(G).
    """
    moments = np.asarray(moments, dtype=float)
    u, sv, vt = np.linalg.svd(_relaxed_m(moments, mu), full_matrices=False)
    s_est = float((sv[0] + sv[1]) / 2.0)
    rbar_a = u @ vt
    sww = float(moments[0, 0] + moments[1, 1])
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
            new = project_to_so3([n[0], n[1], mu]).tolist()
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


def _tied(a, b):
    """Whether costs ``a`` and ``b`` lie within 8 ulps of the larger, so that
    rounding, not the fit, would decide between them (the tie rule of
    _choose_candidate and of FP block B's fallback)."""
    return abs(a - b) <= 8.0 * math.ulp(max(a, b))


def _choose_candidate(results):
    """The estimate of lowest final cost. Tied costs (see _tied) go to the
    estimate whose third row looks at +z, and then to the earlier one, so
    rounding does not decide."""
    best = results[0]
    for other in results[1:]:
        if not _tied(other.final_cost, best.final_cost):
            best = other if other.final_cost < best.final_cost else best
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
