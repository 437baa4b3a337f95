"""Ground state Q of  -Q + Lap Q + Q^(2 sigma + 1) = 0  and derived constants.

In 1d the profile is explicit, Q(x) = (1+sigma)^(1/(2 sigma)) sech^(1/sigma)(sigma x),
and all norms are Beta-function closed forms.  In 2d/3d the radial profile solves

    Q'' + (n-1)/r Q' - Q + Q^p = 0,   p = 2 sigma + 1,   Q'(0) = 0,

by Chebyshev collocation on r in [0, 30] with Q(30) = 0 (Trefethen, Spectral
Methods in MATLAB, SIAM 2000).  The row at r = 0 is the limit of the
equation, n Q''(0) - Q + Q^p = 0.  Petviashvili's iteration (Pelinovsky &
Stepanyants, SIAM J. Numer. Anal. 42, 2004) finds the positive solution from
2 exp(-r^2/2) and stops at a relative step of 1e-8; Newton's method then
polishes it.

The solver picks its own degree N (N + 1 nodes).  It tries N = 64, 96, ...,
728 in turn, each level starting from the interpolated solution of the last,
and stops at the first whose Chebyshev coefficients over the last eighth are
below 1e-10 of the largest.  Levels whose coefficients are still above 1e-5
are solved by Petviashvili's iteration, finer ones by Newton's method alone.
The 3d cubic Q resolves at N = 144; sigma = 1.8 in 3d needs N = 486.
M(Q), ||grad Q||^2 and ||Q||^(2 sigma+2) are Clenshaw-Curtis sums, and the
profile (r, Q) samples the collocation polynomial in barycentric form up to
the radius where Q falls to max(1e-9, 1e-10 Q(0)).  GroundState.profile_at
reads Q between the samples from the not-a-knot cubic spline through them.
That spline is built here in numpy and Python floats, in the operation
order of scipy.interpolate.CubicSpline and the LAPACK dgtsv it calls, so it
gives scipy's values bitwise without loading scipy.interpolate, which
would bring scipy.linalg, scipy.sparse and more into every 2d/3d process.

Every product and solve is elementwise numpy or einsum, never BLAS or LAPACK:
their threaded kernels would make the last bits of Q, and every constant
derived from it, depend on the thread count.  The results are bitwise the
same for any OPENBLAS_NUM_THREADS.  A run imports no scipy module at all:
its transforms are numpy.fft's, taken to give scipy.fft's bits (see grid).

Every returned GroundState is validated against the two Pokhozhaev identities

    ||grad Q||^2        = n sigma / (2 - (n-2) sigma) * M(Q)
    ||Q||_{2s+2}^{2s+2} = 2 (sigma+1) / (2 - (n-2) sigma) * M(Q)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GroundState",
    "GroundStateError",
    "scaling_index",
    "classify_regime",
    "explicit_q_1d",
    "solve_ground_state",
    "sharp_gn_constant",
    "threshold_abscissa",
    "energy_three_ways",
    "ground_state_variance",
]

DEFAULT_TOL_1D = 1e-8
DEFAULT_TOL_RADIAL = 1e-6


class GroundStateError(RuntimeError):
    pass


def scaling_index(n: int, sigma: float) -> float:
    """s_c = n/2 - 1/sigma."""
    if n < 1 or sigma <= 0:
        raise ValueError("need n >= 1 and sigma > 0")
    return n / 2.0 - 1.0 / sigma


def classify_regime(n: int, sigma: float) -> str:
    s_c = scaling_index(n, sigma)
    if abs(s_c) < 1e-12:
        return "critical"
    if s_c < 0:
        return "subcritical"
    if s_c < 1:
        return "intercritical"
    if s_c == 1:
        return "energy-critical"
    return "energy-supercritical"


def explicit_q_1d(sigma: float, x) -> np.ndarray | float:
    """The explicit 1d profile (1+sigma)^(1/(2 sigma)) sech^(1/sigma)(sigma x)."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    amp = (1.0 + sigma) ** (1.0 / (2.0 * sigma))
    return amp * (1.0 / np.cosh(sigma * np.asarray(x, dtype=float))) ** (1.0 / sigma)


@dataclass(frozen=True)
class GroundState:
    n: int
    sigma: float
    s_c: float
    alpha: float | None          # None outside the intercritical range
    mass: float                  # M(Q)
    grad_sq: float               # ||grad Q||^2
    lp2s2: float                 # ||Q||_{2sigma+2}^{2sigma+2}
    energy: float                # H(Q)
    gn_K: float                  # K in C_GN = K / M(Q)^sigma
    C_GN: float
    x_star: float | None
    f_xstar: float | None
    # the radial profile goes to the CSV, not to the JSON document
    r: np.ndarray = field(metadata={"serialize": False})        # sample points (|x| in 1d)
    profile: np.ndarray = field(metadata={"serialize": False})  # Q on r
    tol: float

    @property
    def l2_norm(self) -> float:
        return math.sqrt(self.mass)

    @property
    def grad_norm(self) -> float:
        return math.sqrt(self.grad_sq)

    @property
    def me_threshold(self) -> float:
        """H(Q) M(Q)^alpha, the mass-energy threshold (intercritical only)."""
        if self.alpha is None:
            raise ValueError("mass-energy threshold needs 0 < s_c < 1")
        return self.energy * self.mass**self.alpha

    def pokhozhaev_residuals(self):
        c1 = self.n * self.sigma / (2.0 - (self.n - 2) * self.sigma)
        c2 = 2.0 * (self.sigma + 1.0) / (2.0 - (self.n - 2) * self.sigma)
        r1 = abs(self.grad_sq - c1 * self.mass) / self.mass
        r2 = abs(self.lp2s2 - c2 * self.mass) / self.mass
        return r1, r2

    def profile_at(self, radius) -> np.ndarray:
        """Q(|x|); explicit formula in 1d, else the not-a-knot cubic spline
        through (r, profile), bitwise scipy.interpolate.CubicSpline's values
        (see _CubicSpline).

        Beyond the sampled range the e^{-r} asymptotics take over.
        """
        radius = np.abs(np.asarray(radius, dtype=float))
        if self.n == 1:
            return explicit_q_1d(self.sigma, radius)
        spline = getattr(self, "_spline", None)
        if spline is None:
            spline = _CubicSpline(self.r, self.profile)
            object.__setattr__(self, "_spline", spline)
        r_e, q_e = self.r[-1], self.profile[-1]
        q = np.asarray(spline(np.minimum(radius, r_e)))
        beyond = radius > r_e
        if np.any(beyond) and q_e > 0:
            decay = (r_e / radius[beyond]) ** ((self.n - 1) / 2.0)
            q[beyond] = q_e * decay * np.exp(-(radius[beyond] - r_e))
        return q


class _CubicSpline:
    """The not-a-knot cubic spline through float64 arrays (x, y) (de Boor, A
    Practical Guide to Splines, Springer 1978), with bitwise the coefficients
    and values of scipy.interpolate.CubicSpline(x, y).

    The slopes solve CubicSpline's tridiagonal system, built with its
    expressions, in the operation order of LAPACK's dgtsv (which CubicSpline
    reaches through scipy.linalg.solve_banded); each piece is CubicSpline's
    Hermite form, evaluated in PPoly's order.  Every step is one IEEE double
    operation in the same order as scipy's, so no result rounds differently.
    """

    def __init__(self, x, y):
        self.x = x
        dx = np.diff(x)
        slope = np.diff(y) / dx
        d = np.empty(len(x))
        d[1:-1] = 2 * (dx[:-1] + dx[1:])
        d[0], d[-1] = dx[1], dx[-2]
        du = np.append(x[2] - x[0], dx[:-1])
        dl = np.append(dx[1:], x[-1] - x[-3])
        b = np.empty(len(x))
        b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        h = x[2] - x[0]
        b[0] = ((dx[0] + 2 * h) * dx[1] * slope[0] + dx[0] * dx[0] * slope[1]) / h
        h = x[-1] - x[-3]
        b[-1] = (dx[-1] * dx[-1] * slope[-2] + (2 * h + dx[-1]) * dx[-2] * slope[-1]) / h
        s = np.array(_gtsv(dl.tolist(), d.tolist(), du.tolist(), b.tolist()), dtype=float)
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        self.c = (t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1])
        # On uniform knots an interval is found by arithmetic, then corrected
        # by one step either way; that needs every knot within half a step of
        # x[0] + k h.
        self.h = (x[-1] - x[0]) / (len(x) - 1)
        self.uniform = len(x) * np.max(np.abs(dx - self.h)) < 0.5 * self.h

    def interval(self, v):
        """PPoly's interval index: i with x[i] <= v < x[i+1], 0 below x[0]
        and len(x) - 2 at x[-1]; v is at most x[-1]."""
        x, last = self.x, len(self.x) - 2
        if not self.uniform:
            return np.clip(np.searchsorted(x, v, side="right") - 1, 0, last)
        i = np.clip(((v - x[0]) / self.h).astype(np.intp), 0, last)
        i -= x.take(i) > v
        i += x.take(i + 1) <= v
        return np.clip(i, 0, last)

    def __call__(self, v):
        """The spline at v (an array, at most x[-1]; the first piece extends below x[0])."""
        i = self.interval(v)
        s = v - self.x.take(i)
        s2 = s * s
        c0, c1, c2, c3 = (c.take(i) for c in self.c)
        return c3 + c2 * s + c1 * s2 + c0 * (s2 * s)


def _gtsv(dl, d, du, b):
    """x with A x = b for the tridiagonal A with subdiagonal dl, diagonal d and
    superdiagonal du (lists of floats, overwritten), in LAPACK dgtsv's
    operation order: elimination with a row interchange wherever
    |d[i]| < |dl[i]|, dl[i] then holding the fill-in, and back substitution.
    A singular A raises ZeroDivisionError.
    """
    n = len(d)
    dn, bn = d[0], b[0]  # row i's diagonal and right side, as eliminated so far
    for i in range(n - 1):
        li = dl[i]
        if abs(dn) >= abs(li):
            fact = li / dn
            dn = d[i + 1] = d[i + 1] - fact * du[i]
            bn = b[i + 1] = b[i + 1] - fact * bn
            dl[i] = 0.0
        else:
            fact = dn / li
            d[i], du[i], d[i + 1] = li, d[i + 1], du[i] - fact * d[i + 1]
            if i + 2 < n:
                dl[i], du[i + 1] = du[i + 1], -fact * du[i + 1]
            b[i], b[i + 1] = b[i + 1], bn - fact * b[i + 1]
            dn, bn = d[i + 1], b[i + 1]
    x2 = b[-1] = b[-1] / d[-1]
    x1 = b[-2] = (b[-2] - du[-1] * x2) / d[-2]
    for i in range(n - 3, -1, -1):
        x1, x2 = (b[i] - du[i] * x1 - dl[i] * x2) / d[i], x1
        b[i] = x1
    return b


def ground_state_variance(gs: GroundState) -> float:
    """V(Q) = integral |x|^2 Q^2 dx from the stored radial profile."""
    area = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}[gs.n]
    integrand = gs.r ** (gs.n + 1) * gs.profile**2
    return float(area * np.trapezoid(integrand, gs.r))


def energy_three_ways(gs: GroundState):
    """H(Q) from the definition, from s_c/(2(1-s_c)) M, and from (s_c/n) ||grad||^2."""
    h_def = 0.5 * gs.grad_sq - gs.lp2s2 / (2.0 * gs.sigma + 2.0)
    h_mass = gs.s_c / (2.0 * (1.0 - gs.s_c)) * gs.mass
    h_grad = gs.s_c / gs.n * gs.grad_sq
    return h_def, h_mass, h_grad


def sharp_gn_constant(n: int, sigma: float, mass: float):
    """Optimal Gagliardo-Nirenberg constant: (C_GN, K) with C_GN = K / M(Q)^sigma."""
    ns = n * sigma
    K = 2.0 * (sigma + 1.0) * (2.0 - (n - 2) * sigma) ** ((ns - 2.0) / 2.0) / ns ** (ns / 2.0)
    return K / mass**sigma, K


def threshold_abscissa(gs: GroundState, tol: float = 1e-5):
    """x* = (2/(B n sigma))^(1/(n sigma - 2)) and f(x*), with B = C_GN/(sigma+1).

    Cross-checks the identifications x* = ||grad Q|| M(Q)^(alpha/2) and
    f(x*) = H(Q) M(Q)^alpha before returning.
    """
    if not 0.0 < gs.s_c < 1.0:
        raise ValueError("x* requires 0 < s_c < 1")
    n, sigma = gs.n, gs.sigma
    B = gs.C_GN / (sigma + 1.0)
    ns = n * sigma
    x_star = (2.0 / (B * ns)) ** (1.0 / (ns - 2.0))
    f_xstar = 0.5 * (x_star**2 - B * x_star**ns)
    x_from_q = gs.grad_norm * gs.mass ** (gs.alpha / 2.0)
    f_from_q = gs.energy * gs.mass**gs.alpha
    if abs(x_star - x_from_q) > tol * x_from_q or abs(f_xstar - f_from_q) > tol * abs(f_from_q):
        raise GroundStateError("x* identity violated")
    return x_star, f_xstar


def _norms_1d(sigma: float):
    """M, ||Q'||^2 and ||Q||_{2s+2}^{2s+2} of the explicit profile in closed form.

    int sech^(2a)(sigma x) dx = B(a, 1/2) / sigma, Q^2 = (1+sigma)^(1/sigma)
    sech^(2/sigma)(sigma x) and Q' = -Q tanh(sigma x), with tanh^2 = 1 - sech^2.
    """
    s = 1.0 / sigma

    def beta_half(a):
        return math.gamma(a) * math.sqrt(math.pi) / math.gamma(a + 0.5)

    c = (1.0 + sigma) ** s * s
    m = c * beta_half(s)
    g = m - c * beta_half(s + 1.0)
    p = (1.0 + sigma) * c * beta_half(s + 1.0)
    return m, g, p


# The radial solve: Chebyshev collocation on [0, _RADIUS] with Q(_RADIUS) = 0.
_RADIUS = 30.0
# Polynomial degrees N (N + 1 nodes) tried in turn; each level starts from the last.
_DEGREES = (64, 96, 144, 216, 324, 486, 728)
_TAIL_NEWTON = 1e-5     # levels with a larger tail are solved by Petviashvili's iteration
_TAIL_RESOLVED = 1e-10  # Chebyshev tail of a resolved profile, relative to its largest coefficient
_PETVIASHVILI_STEP = 1e-8
_NEWTON_STEP = 1e-11
_SAMPLES = 2048
_R0 = 1e-8
_BLOCK = 32


def _matvec(a, v):
    return np.einsum("ij,j->i", a, v)


def _gauss_solve(a, b):
    """x with a x = b (b a vector or a matrix), by blocked Gaussian elimination
    with partial pivoting in elementwise operations and einsum, never BLAS.

    Each panel of _BLOCK columns is eliminated one column at a time; its row
    block of the right part then takes the panel's unit lower factor, and
    the trailing block one rank-_BLOCK update.
    """
    n = len(a)
    m = np.column_stack((a, b))
    for k0 in range(0, n, _BLOCK):
        k1 = min(k0 + _BLOCK, n)
        for k in range(k0, k1):
            p = k + int(np.argmax(np.abs(m[k:, k])))
            if p != k:
                m[[k, p]] = m[[p, k]]
            m[k + 1:, k] /= m[k, k]
            m[k + 1:, k + 1:k1] -= m[k + 1:, k, None] * m[k, k + 1:k1]
        for k in range(k0, k1 - 1):
            m[k + 1:k1, k1:] -= m[k + 1:k1, k, None] * m[k, k1:]
        m[k1:, k1:] -= np.einsum("ik,kj->ij", m[k1:, k0:k1], m[k0:k1, k1:])
    x = np.empty(m[:, n:].shape)
    for k in range(n - 1, -1, -1):
        x[k] = (m[k, n:] - np.einsum("j,j...->...", m[k, k + 1:n], x[k + 1:])) / m[k, k]
    return x.reshape(np.shape(b))


class _Collocation:
    """Chebyshev collocation of  Q'' + (n-1)/r Q' - Q + Q^p = 0  at degree N.

    The nodes are r_j = R (1 - x_j)/2 with x_j = cos(pi j/N), so r_0 = 0 and
    r_N = R, where Q = 0 is imposed; the unknowns are Q at r_0 .. r_{N-1}.
    Row 0 is the limit r -> 0 of the equation, n Q''(0) - Q + Q^p = 0.
    """

    def __init__(self, n: int, degree: int):
        N = self.degree = degree
        j = np.arange(N + 1)
        self.x = np.sin(np.pi * (N - 2 * j) / (2 * N))  # cos(pi j/N), exactly symmetric
        self.r = _RADIUS * (1.0 - self.x) / 2.0
        # Differentiation matrices in x (Weideman & Reddy, ACM TOMS 26, 2000),
        # with x_i - x_j taken from a product of sines for accuracy.
        c = np.where((j == 0) | (j == N), 2.0, 1.0) * (-1.0) ** j
        dx = 2.0 * np.sin(np.pi * (j[:, None] + j) / (2 * N)) \
            * np.sin(np.pi * (j - j[:, None]) / (2 * N))
        np.fill_diagonal(dx, 1.0)
        z = 1.0 / dx
        np.fill_diagonal(z, 0.0)
        ratio = c[:, None] / c
        d = np.eye(N + 1)
        dx_k = []
        for k in (1, 2):
            d = k * z * (ratio * np.diag(d)[:, None] - d)
            np.fill_diagonal(d, 0.0)
            np.fill_diagonal(d, -d.sum(axis=1))
            dx_k.append(d)
        scale = -2.0 / _RADIUS  # dx/dr
        self.d1 = scale * dx_k[0]
        lap = scale**2 * dx_k[1][:N, :N]
        lap[1:] += ((n - 1) / self.r[1:N])[:, None] * self.d1[1:N, :N]
        lap[0] *= n
        self.m = np.eye(N) - lap  # the equation reads m Q = Q^p
        # Clenshaw-Curtis weights on [0, R], times the radial measure r^(n-1)
        theta = np.pi * j / N
        k = np.arange(1, N // 2 + 1)
        b = np.where(k < N // 2, 2.0, 1.0) / (4.0 * k * k - 1.0)
        w = 2.0 / N * (1.0 - np.einsum("k,kj->j", b, np.cos(2.0 * np.outer(k, theta))))
        w[0] = w[N] = 1.0 / (N * N - 1.0)
        self.w = w * (_RADIUS / 2.0) * self.r ** (n - 1)
        self.bary = np.where((j == 0) | (j == N), 0.5, 1.0) * (-1.0) ** j

    def full(self, q):
        return np.append(q, 0.0)

    def interpolate(self, q, r):
        """The collocation polynomial of Q (unknowns q) at radii r (barycentric form)."""
        f = self.full(q)
        diff = (1.0 - 2.0 * np.asarray(r, dtype=float) / _RADIUS)[..., None] - self.x
        exact = diff == 0.0
        kern = self.bary / np.where(exact, 1.0, diff)
        out = np.einsum("...j,j->...", kern, f) / kern.sum(axis=-1)
        node = exact.any(axis=-1)
        if np.any(node):
            out[node] = f[np.argmax(exact[node], axis=-1)]
        return out

    def tail(self, q) -> float:
        """Largest Chebyshev coefficient of the last eighth, over the largest one."""
        f = self.full(q)
        a = np.abs(np.fft.rfft(np.concatenate((f, f[-2:0:-1]))).real)
        return float(a[-(self.degree // 8):].max() / a.max())


def _petviashvili(col: _Collocation, q, p: float):
    """Q = S^g m^-1 Q^p with S = <Q, m Q>/<Q, Q^p>, g = p/(p-1), iterated from q
    to a relative step of _PETVIASHVILI_STEP (Pelinovsky & Stepanyants 2004).

    Returns None when it does not converge, as on a level too coarse for Q.
    """
    m_inv = _gauss_solve(col.m, np.eye(col.degree))
    w = col.w[:-1]
    for _ in range(2000):
        qp = np.abs(q) ** (p - 1.0) * q
        s = np.sum(w * q * _matvec(col.m, q)) / np.sum(w * q * qp)
        q_next = s ** (p / (p - 1.0)) * _matvec(m_inv, qp)
        step = np.max(np.abs(q_next - q)) / np.max(np.abs(q_next))
        q = q_next
        if step < _PETVIASHVILI_STEP:
            return q
    return None


def _newton(col: _Collocation, q, p: float):
    """Newton's method on  Q^p - m Q = 0  from q, to a relative step of _NEWTON_STEP."""
    for _ in range(20):
        qp1 = np.abs(q) ** (p - 1.0)
        jac = -col.m
        jac[np.diag_indices_from(jac)] += p * qp1
        delta = _gauss_solve(jac, _matvec(col.m, q) - qp1 * q)
        q = q + delta
        if np.max(np.abs(delta)) <= _NEWTON_STEP * np.max(np.abs(q)):
            return q
    raise GroundStateError(f"Newton's method did not converge at degree {col.degree}")


def _solve_radial(n, sigma):
    """M, ||grad Q||^2, ||Q||^(2s+2) and the sampled profile (r, Q) in 2d/3d."""
    p = 2.0 * sigma + 1.0
    col, q, tail = None, None, math.inf
    for degree in _DEGREES:
        nxt = _Collocation(n, degree)
        q = 2.0 * np.exp(-nxt.r[:-1] ** 2 / 2.0) if q is None else col.interpolate(q, nxt.r[:-1])
        col = nxt
        if tail > _TAIL_NEWTON:
            q = _petviashvili(col, q, p)
            if q is None:
                continue
            tail = col.tail(q)
            if tail > _TAIL_NEWTON:
                continue
        q = _newton(col, q, p)
        tail = col.tail(q)
        if tail <= _TAIL_RESOLVED:
            break
    if q is None:
        raise GroundStateError("Petviashvili's iteration did not converge")

    qf = col.full(q)
    area = {2: 2.0 * np.pi, 3: 4.0 * np.pi}[n]
    m = area * np.sum(col.w * qf**2)
    g = area * np.sum(col.w * _matvec(col.d1, qf) ** 2)
    lp = area * np.sum(col.w * np.abs(qf) ** (2.0 * sigma + 2.0))

    # Sample up to the radius r_e where Q falls to the floor, located on
    # ever finer grids of the bracketing node interval; profile_at continues
    # with the e^{-r} asymptotics beyond it.
    floor = max(1e-9, q[0] * 1e-10)
    k = int(np.argmax(qf < floor))
    lo, hi = col.r[k - 1], col.r[k]
    for _ in range(4):
        rs = np.linspace(lo, hi, 65)
        k = int(np.argmax(col.interpolate(q, rs) < floor))
        lo, hi = rs[k - 1], rs[k]
    r = np.linspace(_R0, lo, _SAMPLES)
    return m, g, lp, r, col.interpolate(q, r)


def solve_ground_state(n: int, sigma: float, tol: float | None = None) -> GroundState:
    """Compute Q and all derived constants for energy-subcritical (n, sigma)."""
    if n not in (1, 2, 3):
        raise ValueError("ground-state solver supports n in {1, 2, 3}")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if n >= 3 and sigma >= 2.0 / (n - 2):
        raise ValueError(f"energy-supercritical: need sigma < {2.0 / (n - 2)} for n={n}")
    if tol is None:
        tol = DEFAULT_TOL_1D if n == 1 else DEFAULT_TOL_RADIAL

    if n == 1:
        m, g, lp = _norms_1d(sigma)
        r = np.linspace(0.0, 30.0 / sigma, 2048)
        profile = explicit_q_1d(sigma, r)
    else:
        m, g, lp, r, profile = _solve_radial(n, sigma)

    s_c = scaling_index(n, sigma)
    energy = 0.5 * g - lp / (2.0 * sigma + 2.0)
    c_gn, K = sharp_gn_constant(n, sigma, m)
    alpha = (1.0 - s_c) / s_c if 0.0 < s_c < 1.0 else None

    gs = GroundState(
        n=n, sigma=float(sigma), s_c=s_c, alpha=alpha,
        mass=m, grad_sq=g, lp2s2=lp, energy=energy,
        gn_K=K, C_GN=c_gn, x_star=None, f_xstar=None,
        r=np.asarray(r), profile=np.asarray(profile), tol=tol,
    )
    r1, r2 = gs.pokhozhaev_residuals()
    if r1 > tol or r2 > tol:
        raise GroundStateError(
            f"unconverged ground state: Pokhozhaev residuals {r1:.2e}, {r2:.2e} > {tol:.1e}"
        )
    if alpha is not None:
        x_star, f_xstar = threshold_abscissa(gs)
        object.__setattr__(gs, "x_star", x_star)
        object.__setattr__(gs, "f_xstar", f_xstar)
    return gs
