"""Integer-lattice geometry: chains, boxes, rhomboids, plaquettes, patches.

Coordinate conventions
----------------------
Sites are points of Z^2; 1D chains are embedded as the y = 0 row. Rhomboidal
regions are unions of R x R boxes (R odd, so each box has an integer center);
the box centers form the metaspin lattice.

A plaquette is a unit cell of the metaspin lattice, touching exactly four box
centers. Its physical center lies on the half-integer dual lattice, so we
store plaquettes in *doubled* integer coordinates: the plaquette with
physical center p is stored as (X, Y) = 2*p/R, an integer pair with both
entries odd. Box centers in doubled coordinates are even-even pairs, and the
four corner boxes of plaquette (X, Y) sit at (X +- 1, Y +- 1).

Internally we use rotated coordinates

    s = (X + Y - 2) // 2,    t = (X - Y) // 2,

in which the plaquette set D_{m1,m2} becomes the parity-constrained box

    {(s, t) : 0 <= s <= 2*(m2-1), 0 <= t <= 2*(m1-1), s = t (mod 2)},

rhomboids become axis-aligned boxes, the n-ball around a plaquette becomes
the sup-norm ball of radius n-1, and lattice translations are exactly the
vectors with (delta s) = (delta t) (mod 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

Coord = tuple[int, int]


# ---------------------------------------------------------------------------
# coordinate helpers
# ---------------------------------------------------------------------------

def to_rotated(p: Coord) -> Coord:
    """Rotated (s, t) coordinates of a plaquette given in doubled (X, Y)."""
    X, Y = p
    if (X + Y) % 2 != 0:
        raise ValueError(f"not a dual-lattice point (doubled): {p}")
    return ((X + Y - 2) // 2, (X - Y) // 2)


def from_rotated(st: Coord) -> Coord:
    """Inverse of :func:`to_rotated`."""
    s, t = st
    return (s + t + 1, s - t + 1)


def box_center(site: Coord, R: int) -> Coord:
    """Center of the unique R x R box (R odd) containing ``site``."""
    if R % 2 == 0 or R < 1:
        raise ValueError(f"box side must be odd and positive, got {R}")
    h = (R - 1) // 2
    return (((site[0] + h) // R) * R, ((site[1] + h) // R) * R)


def box_sites(center: Coord, R: int) -> tuple[Coord, ...]:
    """All sites of the R x R box around ``center``, in lexicographic order."""
    h = (R - 1) // 2
    return tuple(
        (center[0] + a1, center[1] + a2)
        for a1 in range(-h, h + 1)
        for a2 in range(-h, h + 1)
    )


def plaquette_corner_boxes(p: Coord, R: int) -> tuple[Coord, ...]:
    """Physical centers of the four boxes touching plaquette ``p`` (doubled)."""
    X, Y = p
    if X % 2 == 0 or Y % 2 == 0:
        raise ValueError(f"not a plaquette (doubled coordinates must be odd): {p}")
    centers = [
        (R * (X + dx) // 2, R * (Y + dy) // 2)
        for dx in (-1, 1)
        for dy in (-1, 1)
    ]
    return tuple(sorted(centers))


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SiteRegion:
    """An ordered finite set of lattice sites.

    The ordering is canonical (lexicographic in (x, y)) and fixes the
    tensor-factor layout of every operator built on the region.
    """

    sites: tuple[Coord, ...]

    def __post_init__(self):
        ordered = tuple(sorted(self.sites))
        if len(set(ordered)) != len(ordered):
            raise ValueError("duplicate sites in region")
        object.__setattr__(self, "sites", ordered)

    def __len__(self) -> int:
        return len(self.sites)

    def __contains__(self, site: Coord) -> bool:
        return site in self._index

    def index(self, site: Coord) -> int:
        """Tensor-factor position of ``site`` in the canonical order."""
        return self._index[site]

    @property
    def _index(self) -> dict[Coord, int]:
        idx = self.__dict__.get("_index_cache")
        if idx is None:
            idx = {p: i for i, p in enumerate(self.sites)}
            self.__dict__["_index_cache"] = idx
        return idx


@dataclass(frozen=True)
class PlaquetteSet:
    """The plaquettes of the rhomboid built from m1 x m2 (+ staggered) boxes.

    Cardinality is always m1*m2 + (m1-1)*(m2-1). Plaquettes are stored in
    doubled coordinates, lexicographically ordered.
    """

    plaquettes: tuple[Coord, ...]
    m1: int
    m2: int
    R: int = 1

    def __len__(self) -> int:
        return len(self.plaquettes)

    def __contains__(self, p: Coord) -> bool:
        return p in set(self.plaquettes)

    def rotated_bounds(self) -> tuple[int, int]:
        """Upper corners (smax, tmax) of the rotated-coordinate box; lower is (0, 0)."""
        return 2 * (self.m2 - 1), 2 * (self.m1 - 1)


@dataclass(frozen=True)
class Patch:
    """Intersection of the n-ball around ``center`` with an ambient plaquette set.

    ``shape`` is the rhomboid side pair (n1, n2) whenever the member set is a
    lattice translate of a rhomboid plaquette set ((0, 0) for the empty
    patch), and ``None`` otherwise.  Non-rhomboid member sets only occur for
    boundary-clipped centers whose rotated coordinates are even-even; the
    members themselves are always the literal intersection.
    """

    center: Coord
    n: int
    members: tuple[Coord, ...]
    shape: tuple[int, int] | None
    ambient: PlaquetteSet = field(repr=False)

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class InteractionShape:
    """A finite set of offsets (containing the origin) on which a term acts.

    ``kind`` tags the geometric family: 'single_site', 'chain_pair',
    'l1_ball', 'axis_line', or 'generic'. Constructors below build the
    offset set from the family's parameters, so a tagged shape always
    matches its set definition.
    """

    offsets: tuple[Coord, ...]
    kind: str = "generic"

    def __post_init__(self):
        ordered = tuple(sorted(self.offsets))
        if len(set(ordered)) != len(ordered):
            raise ValueError("duplicate offsets in shape")
        if (0, 0) not in ordered:
            raise ValueError("shape must contain the origin")
        object.__setattr__(self, "offsets", ordered)

    @classmethod
    def single_site(cls) -> "InteractionShape":
        return cls(((0, 0),), kind="single_site")

    @classmethod
    def chain_pair(cls) -> "InteractionShape":
        """Nearest-neighbor pair along e1 (the 1D chain bond)."""
        return cls(((0, 0), (1, 0)), kind="chain_pair")

    @classmethod
    def l1_ball(cls, r: int) -> "InteractionShape":
        if r < 1:
            raise ValueError("ball radius must be >= 1")
        offsets = tuple(
            (x, y)
            for x in range(-r, r + 1)
            for y in range(-r, r + 1)
            if abs(x) + abs(y) <= r
        )
        return cls(offsets, kind="l1_ball")

    @classmethod
    def axis_line(cls, a: int, b: int, axis: int) -> "InteractionShape":
        """Sites j*e_axis for -a <= j <= b (axis 0 = e1, 1 = e2)."""
        if axis not in (0, 1):
            raise ValueError("axis must be 0 or 1")
        if a < 0 or b < 0:
            raise ValueError("extents must be non-negative")
        offsets = tuple(
            (j, 0) if axis == 0 else (0, j) for j in range(-a, b + 1)
        )
        return cls(offsets, kind="axis_line")

    @property
    def diameter(self) -> int:
        """Maximum pairwise l1 distance over the offsets."""
        pts = self.offsets
        return max(
            (abs(p[0] - q[0]) + abs(p[1] - q[1]) for p in pts for q in pts),
            default=0,
        )


# ---------------------------------------------------------------------------
# region generators
# ---------------------------------------------------------------------------

def chain_region(m: int) -> SiteRegion:
    """A 1D chain of m sites: (1, 0), ..., (m, 0)."""
    if m < 1:
        raise ValueError(f"chain length must be positive, got {m}")
    return SiteRegion(tuple((i, 0) for i in range(1, m + 1)))


def box_region(m1: int, m2: int) -> SiteRegion:
    """The m1 x m2 box {(a1, a2) : 1 <= a1 <= m1, 1 <= a2 <= m2}."""
    if m1 < 1 or m2 < 1:
        raise ValueError(f"box dimensions must be positive, got {(m1, m2)}")
    return SiteRegion(
        tuple((a1, a2) for a1 in range(1, m1 + 1) for a2 in range(1, m2 + 1))
    )


def _metaspin_centers(n1: int, n2: int, R: int) -> list[Coord]:
    """Box centers of the (n1, n2) rhomboid: two interleaved square families."""
    # f1 = R*(e1 - e2), f2 = R*(e1 + e2); centers j*f1 + j'*f2 and
    # R*e2 + j*f1 + j'*f2 with the staggered index ranges below.
    centers = []
    for j in range(n1):
        for jp in range(n2 + 1):
            centers.append((R * (j + jp), R * (jp - j)))
    for j in range(n1 + 1):
        for jp in range(n2):
            centers.append((R * (j + jp), R * (jp - j + 1)))
    return centers


def rhomboid_sites(n1: int, n2: int, R: int) -> tuple[SiteRegion, tuple[Coord, ...]]:
    """Sites and metaspin centers of the rhomboidal patch with sides (n1, n2).

    The patch is the union of 2*n1*n2 + n1 + n2 pairwise-disjoint R x R boxes
    arranged in two interleaved diagonal families. Returns the site region
    and the lexicographically ordered tuple of box centers.
    """
    if n1 < 1 or n2 < 1:
        raise ValueError(f"rhomboid sides must be positive, got {(n1, n2)}")
    if R < 1 or R % 2 == 0:
        raise ValueError(f"box side must be odd and positive, got {R}")
    centers = _metaspin_centers(n1, n2, R)
    if len(set(centers)) != len(centers):
        raise AssertionError("rhomboid boxes must be pairwise distinct")
    sites = []
    for c in centers:
        sites.extend(box_sites(c, R))
    return SiteRegion(tuple(sites)), tuple(sorted(centers))


def plaquette_set(m1: int, m2: int, R: int = 1) -> PlaquetteSet:
    """All plaquettes of the (m1, m2) rhomboid, in doubled coordinates.

    In rotated coordinates the set is {0 <= s <= 2*(m2-1),
    0 <= t <= 2*(m1-1), s = t (mod 2)}; its cardinality is
    m1*m2 + (m1-1)*(m2-1).
    """
    if m1 < 1 or m2 < 1:
        raise ValueError(f"plaquette-set dimensions must be positive, got {(m1, m2)}")
    if R < 1 or R % 2 == 0:
        raise ValueError(f"box side must be odd and positive, got {R}")
    plaquettes = [
        from_rotated((s, t))
        for s in range(0, 2 * (m2 - 1) + 1)
        for t in range(0, 2 * (m1 - 1) + 1)
        if (s + t) % 2 == 0
    ]
    return PlaquetteSet(tuple(sorted(plaquettes)), m1=m1, m2=m2, R=R)


def plaquette_ball(center: Coord, n: int) -> tuple[Coord, ...]:
    """The full (n, n) rhomboid of plaquettes centered at ``center`` (doubled).

    In rotated coordinates this is the sup-norm ball of radius n-1 about the
    center, restricted to the plaquette parity class.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"ball size must be a positive even integer, got {n}")
    cs, ct = to_rotated(center)
    members = [
        from_rotated((s, t))
        for s in range(cs - (n - 1), cs + n)
        for t in range(ct - (n - 1), ct + n)
        if (s + t) % 2 == 0
    ]
    return tuple(sorted(members))


def center_distance(center: Coord, p: Coord) -> int:
    """Ring index of plaquette ``p`` in the ball family around ``center``.

    Equals the smallest k >= 1 with p inside the (2k, 2k) rhomboid around
    the center; the center itself has distance 1, its four side-neighbors
    also have distance 1, and ring k >= 2 holds 16k - 12 plaquettes.
    """
    cs, ct = to_rotated(center)
    s, t = to_rotated(p)
    return (max(abs(s - cs), abs(t - ct)) + 2) // 2


def _match_rhomboid(members: set[Coord]) -> tuple[int, int] | None:
    """Shape (n1, n2) if ``members`` is a translate of a rhomboid plaquette set."""
    if not members:
        return (0, 0)
    rot = [to_rotated(p) for p in members]
    smin = min(s for s, _ in rot)
    smax = max(s for s, _ in rot)
    tmin = min(t for _, t in rot)
    tmax = max(t for _, t in rot)
    if (smax - smin) % 2 != 0 or (tmax - tmin) % 2 != 0:
        return None
    if (smin + tmin) % 2 != 0:
        # anchor off the even-even sublattice: not a rhomboid translate
        return None
    expected = {
        (s, t)
        for s in range(smin, smax + 1)
        for t in range(tmin, tmax + 1)
        if (s + t) % 2 == 0
    }
    if expected != set(rot):
        return None
    n2 = (smax - smin) // 2 + 1
    n1 = (tmax - tmin) // 2 + 1
    return (n1, n2)


def patch(n: int, center: Coord, ambient: PlaquetteSet) -> Patch:
    """Intersection of the (n, n) ball around ``center`` with ``ambient``.

    The center may lie outside the ambient set (members may be empty). The
    shape is resolved by canonical-form matching; see :class:`Patch`.
    """
    ball = set(plaquette_ball(center, n))
    members = tuple(sorted(ball.intersection(ambient.plaquettes)))
    shape = _match_rhomboid(set(members))
    if shape is not None and not (0 <= shape[0] <= n and 0 <= shape[1] <= n):
        raise AssertionError(f"patch shape {shape} exceeds ball size {n}")
    return Patch(center=center, n=n, members=members, shape=shape, ambient=ambient)


def plaquette_distance(patch_: Patch, p: Coord) -> int:
    """Distance ring of member ``p`` from the patch center, in [1, n/2]."""
    if p not in patch_.members:
        raise ValueError(f"plaquette {p} is not a member of the patch")
    return center_distance(patch_.center, p)


def collar_centers(ambient: PlaquetteSet, n: int) -> tuple[Coord, ...]:
    """All plaquette centers whose (n, n) ball meets ``ambient``.

    This is the ambient rotated box inflated by n-1 in the sup norm; every
    center in it yields a nonempty patch, and every center outside yields an
    empty one.
    """
    smax, tmax = ambient.rotated_bounds()
    centers = [
        from_rotated((s, t))
        for s in range(-(n - 1), smax + n)
        for t in range(-(n - 1), tmax + n)
        if (s + t) % 2 == 0
    ]
    return tuple(sorted(centers))


# ---------------------------------------------------------------------------
# interaction-shape validation
# ---------------------------------------------------------------------------

def validate_cell_shapes(
    shapes: list[InteractionShape] | tuple[InteractionShape, ...],
    R: int,
    strict_2d: bool = False,
) -> list[tuple[InteractionShape, str]]:
    """Check interaction shapes against the range-R grouping requirements.

    Basic mode accepts exactly the shapes of l1 diameter < R (what the
    strip/box grouping needs to avoid terms straddling three boxes in a row).
    Strict 2D mode instead enforces the geometric families required by the
    plaquette classification: a single site, an l1 ball of radius
    2 <= r < R, or an axis-aligned line with both extents in (0, R).

    Returns the list of (shape, reason) violations; an empty list means all
    shapes are accepted.
    """
    if R < 1:
        raise ValueError(f"interaction range must be positive, got {R}")
    violations: list[tuple[InteractionShape, str]] = []
    for shape in shapes:
        if strict_2d:
            reason = _strict_2d_reason(shape, R)
        else:
            reason = (
                None
                if shape.diameter < R
                else f"l1 diameter {shape.diameter} is not < R = {R}"
            )
        if reason is not None:
            violations.append((shape, reason))
    return violations


def _strict_2d_reason(shape: InteractionShape, R: int) -> str | None:
    offsets = set(shape.offsets)
    if offsets == {(0, 0)}:
        return None
    for r in range(2, R):
        if offsets == set(InteractionShape.l1_ball(r).offsets):
            return None
    for axis in (0, 1):
        pts = sorted(offsets)
        if all((p[1 - axis] == 0) for p in pts):
            coords = sorted(p[axis] for p in pts)
            a, b = -coords[0], coords[-1]
            if (
                coords == list(range(-a, b + 1))
                and 0 < a < R
                and 0 < b < R
            ):
                return None
    return "not a single site, an l1 ball of radius in [2, R), or an axis line with extents in (0, R)"
