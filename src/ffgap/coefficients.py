"""Coefficient families, thresholds, prefactors, and weight combinatorics.

The finite-size criteria are driven by two families of deformation
coefficients:

* 1D: ``c_j = n^{3/2} + x*((n-2)*j - j^2)`` for ``j = 0..n-2`` (a downward
  parabola on top of a constant), with the optimal deformation strength
  ``x_n <= sqrt(6)``. These give the criterion prefactor F(n) and the local
  gap threshold G(n) = Theta(n^{-3/2}).
* 2D: ``c(r) = n^{3/2} + (n/2)^2 - r^2`` for ring index ``r = 1..n/2``,
  whose ring-weight sums (W_self, W_edge, W_corner, sigma_n) control the
  plaquette-patch criterion.

All formulas are evaluated in double precision; independent algebraic routes
for the same quantity are kept as cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .lattice import (
    Coord,
    center_distance,
    from_rotated,
    plaquette_ball,
    to_rotated,
)

SQRT6 = math.sqrt(6.0)


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Deformation1D:
    """1D deformation coefficients c_0..c_{n-2}; their count fixes the window size n.

    Valid families are symmetric about the midpoint and non-decreasing up to
    it: c_j >= c_{j-1} for 1 <= j <= (n-2)/2 and c_j = c_{n-2-j}.
    """

    c: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.c) + 1

    def __post_init__(self):
        if self.n < 3:
            raise ValueError(f"need n >= 3, got {self.n}")
        if any(cj <= 0 for cj in self.c):
            raise ValueError("coefficients must be positive")
        n = self.n
        for j in range(1, (n - 2) // 2 + 1):
            if self.c[j] < self.c[j - 1] - 1e-12 * abs(self.c[j - 1]):
                raise ValueError(f"coefficients must be non-decreasing up to the midpoint (j={j})")
        for j in range(n - 1):
            if not math.isclose(self.c[j], self.c[n - 2 - j], rel_tol=1e-12):
                raise ValueError(f"coefficients must be symmetric about the midpoint (j={j})")


@dataclass(frozen=True)
class Deformation2D:
    """2D ring coefficients c(1)..c(n/2), n = 2 len(c); must be non-increasing."""

    c: tuple[float, ...]

    @property
    def n(self) -> int:
        return 2 * len(self.c)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        if any(cr <= 0 for cr in self.c):
            raise ValueError("coefficients must be positive")
        for r in range(1, len(self.c)):
            if self.c[r] > self.c[r - 1] + 1e-12 * abs(self.c[r - 1]):
                raise ValueError("coefficients must be non-increasing")

    def at(self, r: int) -> float:
        """Coefficient of ring r (1-based, r in [1, n/2])."""
        if not 1 <= r <= self.n // 2:
            raise ValueError(f"ring index {r} outside [1, {self.n // 2}]")
        return self.c[r - 1]


@dataclass(frozen=True)
class WeightTable:
    """Pair-weight sums of the 2D coefficient family.

    W_self is the weight of a plaquette paired with itself, W_edge/W_corner
    the weights of side- and corner-adjacent pairs (always equal), sigma the
    plain coefficient sum over the ball. alpha = 1/W_edge and
    beta = alpha*W_self - 1 assemble the squared-Hamiltonian bound.
    """

    n: int
    W_self: float
    W_edge: float
    W_corner: float
    alpha: float
    beta: float
    sigma: float

    def __post_init__(self):
        if not math.isclose(self.W_edge, self.W_corner, rel_tol=1e-12):
            raise ValueError("side and corner pair weights must coincide")
        if self.beta < 0:
            raise ValueError("beta must be non-negative")


# ---------------------------------------------------------------------------
# 1D family
# ---------------------------------------------------------------------------

def coeffs_1d(n: int, x: float) -> Deformation1D:
    """Deformation coefficients c_j = n^{3/2} + x((n-2)j - j^2), j = 0..n-2.

    For n = 3 the two coefficients are the constant pair (1, 1) (the
    quadratic term vanishes identically, and the criterion constants are
    invariant under overall rescaling).
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if x <= 0:
        raise ValueError(f"deformation parameter must be positive, got {x}")
    if n == 3:
        return Deformation1D(c=(1.0, 1.0))
    c = tuple(n ** 1.5 + x * ((n - 2) * j - j * j) for j in range(n - 1))
    return Deformation1D(c=c)


def optimal_x(n: int) -> tuple[float, float, float, float]:
    """Optimal deformation strength and its auxiliaries, (x_n, a_n, b_n, phi_n).

    phi_n = (n-1)(n-2)(n-3)/3, b_n = 6 n^3 / ((n-1)(n-2)(n-3)), and x_n is
    the positive root of the threshold-minimizing quadratic; a_n = x_n / b_n.
    x_n increases toward sqrt(6) as n grows.
    """
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    phi = (n - 1) * (n - 2) * (n - 3) / 3.0
    b = 6.0 * n ** 3 / ((n - 1) * (n - 2) * (n - 3))
    u = (n - 1) / n ** 1.5
    x = -b * u + math.sqrt((b * u) ** 2 + b)
    a = x / b
    return x, a, b, phi


def threshold_1d(n: int, mode: str = "exact") -> float:
    """Local gap threshold G(n) of the 1D criterion.

    mode='exact' evaluates G(n) = (1 + a_n^2 b_n)/(n - 1 + n^{3/2} a_n) at
    the optimal deformation (n >= 4). mode='asymptotic' returns the closed
    bound 2*sqrt(6)*n^{-3/2} for n >= 4 and the special value 1/2 for n = 3.
    """
    if mode == "exact":
        if n < 4:
            raise ValueError(f"exact threshold needs n >= 4, got {n}")
        _, a, b, _ = optimal_x(n)
        return (1.0 + a * a * b) / (n - 1 + n ** 1.5 * a)
    if mode == "asymptotic":
        if n == 3:
            return 0.5
        if n < 3:
            raise ValueError(f"need n >= 3, got {n}")
        return 2.0 * SQRT6 * n ** -1.5
    raise ValueError(f"unknown mode {mode!r}")


def threshold_1d_general(coeffs: Deformation1D) -> float:
    """Threshold of an arbitrary valid coefficient family.

    G = (2 c_0^2 + sum_j (c_j - c_{j+1})^2) / (2 c_0 sum_j c_j); agrees with
    :func:`threshold_1d` at the optimal deformation.
    """
    c = coeffs.c
    num = 2.0 * c[0] ** 2 + sum((c[j] - c[j + 1]) ** 2 for j in range(len(c) - 1))
    den = 2.0 * c[0] * sum(c)
    return num / den


def threshold_1d_quadratic_form(n: int, x: float) -> float:
    """Threshold of the quadratic family via the reduced rational form.

    G = (2 n^3 + x^2 phi_n) / (2 n^3 (n-1) + n^{3/2} x phi_n) with
    phi_n = (n-1)(n-2)(n-3)/3; a third independent route for cross-checks.
    """
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    phi = (n - 1) * (n - 2) * (n - 3) / 3.0
    return (2.0 * n ** 3 + x * x * phi) / (2.0 * n ** 3 * (n - 1) + n ** 1.5 * x * phi)


def prefactor_1d(n: int, x: float) -> tuple[float, float]:
    """Criterion prefactor (F_exact, F_lower_bound) of the 1D family.

    F_exact = alpha * c_0 * sum_j c_j with alpha = 1/sum_j c_j c_{j+1}; the
    lower bound is (1/24) * (n-3)/n^{3/2} * x/(1+x)^2 (zero at n = 3, where
    F_exact = 2 exactly).
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    c = coeffs_1d(n, x).c
    alpha = 1.0 / sum(c[j] * c[j + 1] for j in range(len(c) - 1))
    f_exact = alpha * c[0] * sum(c)
    f_lower = (1.0 / 24.0) * (n - 3) / n ** 1.5 * x / (1.0 + x) ** 2
    return f_exact, f_lower


def autocorr_1d(coeffs: Deformation1D) -> tuple[float, ...]:
    """Autocorrelation q(x) = sum_j c_j c_{j+x}, x = 0..n-2 (non-increasing)."""
    c = coeffs.c
    return tuple(
        sum(c[j] * c[j + shift] for j in range(len(c) - shift))
        for shift in range(len(c))
    )


# ---------------------------------------------------------------------------
# 2D family
# ---------------------------------------------------------------------------

def coeffs_2d(n: int) -> Deformation2D:
    """Ring coefficients c(r) = n^{3/2} + (n/2)^2 - r^2, r = 1..n/2."""
    if n < 2 or n % 2 != 0:
        raise ValueError(f"need even n >= 2, got {n}")
    half = n // 2
    c = tuple(n ** 1.5 + half * half - r * r for r in range(1, half + 1))
    return Deformation2D(c=c)


def weight_table(n: int, c: Deformation2D | None = None) -> WeightTable:
    """Closed-form pair-weight sums of the ring family.

    W_self = 5 c(1)^2 + sum_{r>=2} c(r)^2 (16r - 12)
    W_edge = W_corner = 2 c(1)^2 + sum_{r>=2} [c(r)^2 (8r-6) + c(r)c(r-1)(8r-10)]
    sigma  = 5 c(1) + sum_{r>=2} c(r) (16r - 12)
    """
    if c is None:
        c = coeffs_2d(n)
    if c.n != n:
        raise ValueError(f"coefficient family is for n={c.n}, not n={n}")
    half = n // 2
    w_self = 5.0 * c.at(1) ** 2
    w_edge = 2.0 * c.at(1) ** 2
    sigma = 5.0 * c.at(1)
    for r in range(2, half + 1):
        w_self += c.at(r) ** 2 * (16 * r - 12)
        w_edge += c.at(r) ** 2 * (8 * r - 6) + c.at(r) * c.at(r - 1) * (8 * r - 10)
        sigma += c.at(r) * (16 * r - 12)
    alpha = 1.0 / w_edge
    beta = alpha * w_self - 1.0
    return WeightTable(
        n=n, W_self=w_self, W_edge=w_edge, W_corner=w_edge,
        alpha=alpha, beta=beta, sigma=sigma,
    )


def _ball_around_origin(n: int) -> tuple[Coord, ...]:
    return plaquette_ball((1, 1), n)


def weight_bruteforce(n: int, c: Deformation2D, p1: Coord, p2: Coord) -> float:
    """Pair weight of (p1, p2) by direct enumeration over covering balls.

    Sums c(d(p1 - tau)) * c(d(p2 - tau)) over every plaquette-lattice
    translation tau whose (n, n) ball contains both plaquettes. The weight
    is zero whenever the two plaquettes are farther apart than one ball can
    cover; arbitrary pairs are accepted.
    """
    origin = (1, 1)
    ball = set(_ball_around_origin(n))
    s1, t1 = to_rotated(p1)
    s2, t2 = to_rotated(p2)
    total = 0.0
    # every covering translation keeps p1 in the ball, so tau ranges over the
    # rotated sup-ball of radius n-1 around p1 (parity-preserving offsets)
    for ds in range(s1 - (n - 1), s1 + n):
        for dt in range(t1 - (n - 1), t1 + n):
            if (ds + dt) % 2 != 0:
                continue
            q1 = from_rotated((s1 - ds, t1 - dt))
            q2 = from_rotated((s2 - ds, t2 - dt))
            if q1 in ball and q2 in ball:
                total += c.at(center_distance(origin, q1)) * c.at(
                    center_distance(origin, q2)
                )
    return total


def sigma_bruteforce(n: int, c: Deformation2D) -> float:
    """sum over the ball of c(d(.)), the enumeration route to sigma_n."""
    origin = (1, 1)
    return sum(c.at(center_distance(origin, q)) for q in _ball_around_origin(n))


def threshold_2d(n: int, with_routes: bool = False):
    """Local gap threshold G(n) of the 2D plaquette criterion.

    G(n) = 4 beta_n / (alpha_n c(n/2) sigma_n) = 4 (W_self - W_edge) /
    (c(n/2) sigma_n). A telescoped route
    4 [(2n-1) c(n/2)^2 + sum_{r>=2} (4r-5)(c(r) - c(r-1))^2] / (c(n/2) sigma_n)
    is returned alongside when ``with_routes`` is set; the two must agree to
    1e-12 relative. Scaling: G(n)*n^{3/2} stays bounded as n grows (the
    limiting constant is recorded by the threshold report, not asserted).
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"need even n >= 2, got {n}")
    c = coeffs_2d(n)
    table = weight_table(n, c)
    half = n // 2
    g_direct = 4.0 * (table.W_self - table.W_edge) / (c.at(half) * table.sigma)
    tele = (2 * n - 1) * c.at(half) ** 2
    for r in range(2, half + 1):
        tele += (4 * r - 5) * (c.at(r) - c.at(r - 1)) ** 2
    g_tele = 4.0 * tele / (c.at(half) * table.sigma)
    if with_routes:
        return g_direct, g_tele
    return g_direct
