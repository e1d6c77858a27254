"""Coarse-graining of 2D cells into effective chain and plaquette models.

Two one-step procedures:

* quasi-1D: a box of strips (width R) becomes a nearest-neighbor chain of
  metaspins, each block operator collecting the straddling terms plus half
  of each interior strip's internal terms (boundary strips contribute their
  internal terms whole to the single adjacent block);
* 2D: a rhomboid of boxes becomes a nearest-neighbor plaquette model, each
  interaction term equidistributed among the plaquettes whose corner boxes
  cover it (bulk denominators 4 / 2 / 1 for within-box / side-pair /
  corner-quad terms).

Both groupings reconstruct the original Hamiltonian exactly, and the
effective local projectors have the same kernel as the block operators they
normalize, which is what the sandwich bounds rest on. That kernel comes from
``spectra.kernel``, the FF recursion every window uses, and is cross-checked
by ``spectra.spectral_gap``. Blocks stay at or below ``DENSE_MAX_DIM``
because each effective projector is stored as a dense matrix on the block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .lattice import (
    Coord,
    InteractionShape,
    SiteRegion,
    box_center,
    box_region,
    box_sites,
    plaquette_corner_boxes,
    plaquette_set,
    rhomboid_sites,
    validate_cell_shapes,
)
from .operators import (
    ChainModel,
    InteractionCell,
    LocalProjector,
    LocalSum,
    region_terms,
)
from .spectra import DENSE_MAX_DIM, _largest_eigenvalue, kernel, spectral_gap


class CellRejection(ValueError):
    """A cell term straddles boxes in a way the plaquette grouping cannot host."""

    def __init__(self, message: str, witness):
        super().__init__(f"{message}; witness: {witness}")
        self.witness = witness


@dataclass(frozen=True)
class EffectiveModel1D:
    """Metaspin chain obtained from one quasi-1D coarse-graining step."""

    P_eff: LocalProjector
    lambda_min: float
    lambda_max: float
    R: int
    m2: int

    def __post_init__(self):
        if not 0 < self.lambda_min <= self.lambda_max:
            raise ValueError("need 0 < lambda_min <= lambda_max")

    @property
    def metaspin_dim(self) -> int:
        return self.P_eff.d

    @property
    def C1(self) -> float:
        return self.lambda_min

    @property
    def C2(self) -> float:
        return 2.0 * self.lambda_max

    def chain_model(self) -> ChainModel:
        """The effective nearest-neighbor chain (no boundary projectors)."""
        zero = LocalProjector.zero(1, self.metaspin_dim)
        return ChainModel(self.metaspin_dim, self.P_eff, zero, zero)


@dataclass(frozen=True)
class EffectiveModel2D:
    """Metaspin plaquette model obtained from one 2D coarse-graining step."""

    h_plaquette: LocalProjector
    lambda_min: float
    lambda_max: float
    R: int

    def __post_init__(self):
        if not 0 < self.lambda_min <= self.lambda_max:
            raise ValueError("need 0 < lambda_min <= lambda_max")

    @property
    def metaspin_dim(self) -> int:
        return self.h_plaquette.d

    @property
    def C1(self) -> float:
        return self.lambda_min

    @property
    def C2(self) -> float:
        return 4.0 * self.lambda_max


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def inflate_range(R: int, m1: int) -> int:
    """Smallest divisor of m1 that is >= R (the strip width actually used)."""
    if not 1 <= R <= m1:
        raise ValueError(f"need 1 <= R <= m1, got R={R}, m1={m1}")
    for candidate in range(R, m1 + 1):
        if m1 % candidate == 0:
            return candidate
    raise AssertionError("unreachable: m1 divides itself")


def _strip_of(site: Coord, R: int) -> int:
    return (site[0] - 1) // R + 1


def _translate(shape: InteractionShape, anchor: Coord) -> tuple[Coord, ...]:
    return tuple((anchor[0] + ox, anchor[1] + oy) for ox, oy in shape.offsets)


def _effective_projector(block: LocalSum) -> tuple[np.ndarray, float, float]:
    """The complement of a block operator's kernel, and its least and largest positive eigenvalues.

    The kernel K is ``spectra.kernel(block)``; the least positive eigenvalue
    is the gap of ``spectral_gap(kernel=K)``, which raises unless K is the
    block's kernel exactly; the largest is one Lanczos solve.
    """
    K = kernel(block)
    H = block.assemble()
    lam_min = spectral_gap(H, kernel=K).gap
    if np.isinf(lam_min):
        raise ValueError("block operator is zero; no positive spectrum")
    lam_max = _largest_eigenvalue(lambda v: H @ v, block.dim, H.dtype)
    return np.eye(block.dim) - K @ K.conj().T, lam_min, lam_max


# ---------------------------------------------------------------------------
# quasi-1D grouping
# ---------------------------------------------------------------------------

def group_1d(cell: InteractionCell, m1: int, m2: int, R: int) -> list[sp.csr_matrix]:
    """Block operators of the strip grouping, embedded on the full box.

    Returns the m-1 operators (m = m1/R strips); their sum reconstructs
    region_hamiltonian(cell, box) exactly. Raises when R does not divide m1
    (callers inflate R via inflate_range first).
    """
    if m1 % R != 0:
        raise ValueError(f"strip width {R} does not divide m1 = {m1}; inflate R first")
    m = m1 // R
    if m < 2:
        raise ValueError(f"need at least two strips, got m = {m}")
    region = box_region(m1, m2)
    blocks = [[] for _ in range(m - 1)]
    for proj, translate in region_terms(cell, region):
        strips = {_strip_of(site, R) for site in translate}
        positions = tuple(map(region.index, translate))
        if len(strips) == 1:
            j = strips.pop()
            if j == 1:
                blocks[0].append((positions, proj.matrix, 1.0))
            elif j == m:
                blocks[m - 2].append((positions, proj.matrix, 1.0))
            else:
                blocks[j - 2].append((positions, proj.matrix, 0.5))
                blocks[j - 1].append((positions, proj.matrix, 0.5))
        elif len(strips) == 2 and max(strips) - min(strips) == 1:
            blocks[min(strips) - 1].append((positions, proj.matrix, 1.0))
        else:
            raise CellRejection("term spans non-adjacent strips", (translate, sorted(strips)))
    return [LocalSum((cell.d,) * len(region), terms).assemble() for terms in blocks]


def effective_1d(
    cell: InteractionCell,
    m2: int,
    R: int,
) -> EffectiveModel1D:
    """One quasi-1D coarse-graining step: bulk block -> effective bond projector.

    The bulk block operator is built on a standalone two-strip window
    (interior form: half-weighted within-strip terms plus all straddling
    terms); the effective bond projector is the complement of its kernel
    and the sandwich constants are its extreme positive eigenvalues.
    """
    d = cell.d
    metaspin_dim = d ** (R * m2)
    pair_dim = metaspin_dim ** 2
    if pair_dim > DENSE_MAX_DIM:
        raise ValueError(
            f"metaspin dimension overflow: two-strip block dimension {pair_dim} "
            f"exceeds dense cap {DENSE_MAX_DIM}"
        )
    region = box_region(2 * R, m2)
    terms = [
        (
            tuple(map(region.index, translate)),
            proj.matrix,
            0.5 if len({_strip_of(site, R) for site in translate}) == 1 else 1.0,
        )
        for proj, translate in region_terms(cell, region)
    ]
    projector, lam_min, lam_max = _effective_projector(LocalSum((d,) * len(region), terms))
    return EffectiveModel1D(
        P_eff=LocalProjector(2, metaspin_dim, projector),
        lambda_min=lam_min,
        lambda_max=lam_max,
        R=R,
        m2=m2,
    )


# ---------------------------------------------------------------------------
# 2D classification and grouping
# ---------------------------------------------------------------------------

def classify_translate(
    shape: InteractionShape, anchor: Coord, R: int
) -> tuple[str, tuple[Coord, ...]]:
    """Class of one translated term relative to the R-box partition.

    Returns (class, touched box centers) with class among within_box /
    side_pair / corner_quad; diagonal two-box and three-box straddles raise
    CellRejection.
    """
    boxes = sorted({box_center(site, R) for site in _translate(shape, anchor)})
    if len(boxes) == 1:
        return "within_box", tuple(boxes)
    if len(boxes) == 2:
        (x1, y1), (x2, y2) = boxes
        if (abs(x1 - x2), abs(y1 - y2)) in ((R, 0), (0, R)):
            return "side_pair", tuple(boxes)
        raise CellRejection(
            "term straddles two corner-touching boxes", (shape, anchor, tuple(boxes))
        )
    if len(boxes) == 3:
        raise CellRejection("term straddles three boxes", (shape, anchor, tuple(boxes)))
    xs = sorted({b[0] for b in boxes})
    ys = sorted({b[1] for b in boxes})
    if len(boxes) == 4 and len(xs) == 2 and len(ys) == 2 and xs[1] - xs[0] == R and ys[1] - ys[0] == R:
        return "corner_quad", tuple(boxes)
    raise CellRejection(
        "term spans more than a 2x2 block of boxes", (shape, anchor, tuple(boxes))
    )


def classify_2d(cell: InteractionCell, R: int) -> dict[str, list]:
    """Classify every translate of every cell term over one box period.

    Requires the strict 2D shape rules; raises CellRejection (with the
    witness translate) if any anchor produces a diagonal-pair or three-box
    straddle.
    """
    if R < 1 or R % 2 == 0:
        raise ValueError(f"box width R must be an odd positive integer, got {R}")
    violations = validate_cell_shapes([s for s, _ in cell.terms], R, strict_2d=True)
    if violations:
        raise ValueError(f"strict 2D shape validation failed: {violations}")
    out: dict[str, list] = {"within_box": [], "side_pair": [], "corner_quad": []}
    for index, (shape, _) in enumerate(cell.terms):
        for ax in range(R):
            for ay in range(R):
                kind, boxes = classify_translate(shape, (ax, ay), R)
                out[kind].append((index, (ax, ay), boxes))
    return out


_BULK_WEIGHTS = {"within_box": 0.25, "side_pair": 0.5, "corner_quad": 1.0}


def effective_2d(
    cell: InteractionCell,
    R: int,
) -> EffectiveModel2D:
    """One 2D coarse-graining step: bulk plaquette block -> effective projector.

    The bulk block is built on a standalone 2x2-box window with the bulk
    equidistribution weights (1/4 within-box, 1/2 side-pair, 1 corner-quad);
    its factors are placed box-major (boxes sorted by center, sites sorted
    within each box) so the result is an operator on four metaspins.
    """
    classify_2d(cell, R)
    d = cell.d
    metaspin_dim = d ** (R * R)
    window_dim = metaspin_dim ** 4
    if window_dim > DENSE_MAX_DIM:
        raise ValueError(
            f"metaspin dimension overflow: plaquette block dimension {window_dim} "
            f"exceeds dense cap {DENSE_MAX_DIM}"
        )
    centers = [(0, 0), (0, R), (R, 0), (R, R)]
    box_major = [site for center in centers for site in box_sites(center, R)]
    position = {site: i for i, site in enumerate(box_major)}
    terms = []
    for anchor in box_major:
        for shape, proj in cell.terms:
            translate = _translate(shape, anchor)
            if all(site in position for site in translate):
                kind, _ = classify_translate(shape, anchor, R)
                positions = tuple(map(position.get, translate))
                terms.append((positions, proj.matrix, _BULK_WEIGHTS[kind]))
    projector, lam_min, lam_max = _effective_projector(LocalSum((d,) * len(box_major), terms))
    return EffectiveModel2D(
        h_plaquette=LocalProjector(4, metaspin_dim, projector),
        lambda_min=lam_min,
        lambda_max=lam_max,
        R=R,
    )


def group_2d(cell: InteractionCell, m1: int, m2: int, R: int = 1) -> dict[Coord, sp.csr_matrix]:
    """Plaquette block operators on a rhomboid, embedded on its full site set.

    Every translate inside the rhomboid is equidistributed among the
    plaquettes whose corner boxes cover all the boxes it touches; the
    blocks sum to the rhomboid Hamiltonian exactly.
    """
    region, _ = rhomboid_sites(m1, m2, R)
    plaqs = plaquette_set(m1, m2, R)
    corner_map = {p: frozenset(plaquette_corner_boxes(p, R)) for p in plaqs.plaquettes}
    blocks = {p: [] for p in plaqs.plaquettes}
    for proj, translate in region_terms(cell, region):
        boxes = frozenset(box_center(site, R) for site in translate)
        eligible = [p for p, corners in corner_map.items() if boxes <= corners]
        if not eligible:
            raise CellRejection(
                "translate's boxes are not covered by any plaquette",
                (translate, tuple(sorted(boxes))),
            )
        positions = tuple(map(region.index, translate))
        for p in eligible:
            blocks[p].append((positions, proj.matrix, 1.0 / len(eligible)))
    return {p: LocalSum((cell.d,) * len(region), terms).assemble() for p, terms in blocks.items()}


def plaquette_model_hamiltonian(eff: EffectiveModel2D, m1: int, m2: int) -> sp.csr_matrix:
    """Sum of the effective plaquette projector over all rhomboid plaquettes."""
    _, centers = rhomboid_sites(m1, m2, eff.R)
    region = SiteRegion(centers)
    terms = [
        (tuple(map(region.index, plaquette_corner_boxes(p, eff.R))), eff.h_plaquette.matrix, 1.0)
        for p in plaquette_set(m1, m2, eff.R).plaquettes
    ]
    return LocalSum((eff.metaspin_dim,) * len(region), terms).assemble()
