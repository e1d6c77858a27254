"""Built-in model constructors, random frustration-free instances, and model files.

Every constructor returns a ModelSpec whose frustration-freeness (ground
energy zero at each length) has been verified numerically up to its
``ff_check_depth``; rank-based sufficient conditions are treated as
advisory input validation only. Chains and 2D cells are checked by their
kernel recursion (``spectra.chain_kernels``, ``spectra.kernel``). The depth
is CHAIN_FF_DEPTH for built-in and loaded chains (6 for loaded chains with
d > 3) and CELL_FF_DEPTH for 2D cells; only ``random_ff`` takes a depth.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import spectra
from .lattice import InteractionShape, box_region
from .operators import ChainModel, InteractionCell, LocalProjector, region_sum

MAX_REGENERATIONS = 16
CHAIN_FF_DEPTH = 8  # chains are checked at lengths 2..8
CELL_FF_DEPTH = 3  # 2D cells are checked on boxes up to 3 x 3


@dataclass(frozen=True)
class ModelSpec:
    """A named model plus the depth to which frustration-freeness was verified.

    The depth is CHAIN_FF_DEPTH or CELL_FF_DEPTH except for ``random_ff``
    chains and loaded chains with d > 3; ``kind`` follows from the payload.
    """

    name: str
    payload: ChainModel | InteractionCell
    ff_check_depth: int
    regenerations: int = 0

    def __post_init__(self):
        if not isinstance(self.payload, (ChainModel, InteractionCell)):
            raise ValueError(
                "payload must be a ChainModel or an InteractionCell, "
                f"not {type(self.payload).__name__}"
            )

    @property
    def kind(self) -> str:
        """The model kind, "chain" or "cell_2d", read from the payload's type."""
        return "chain" if isinstance(self.payload, ChainModel) else "cell_2d"


# ---------------------------------------------------------------------------
# frustration-freeness verification
# ---------------------------------------------------------------------------

def frustration_free(spec_payload: ChainModel | InteractionCell, depth: int) -> bool:
    """Numerically check ground energy 0 at every size up to ``depth``.

    A window passes when its kernel, built without diagonalization by
    ``spectra.chain_kernels`` or ``spectra.kernel``, is nonempty; a chain
    past the recursion's cap raises ValueError. Chains are checked at
    lengths 2..depth, 2D cells on all boxes a x b with a, b <= depth (both
    orientations: a cell need not be symmetric) of dimension at most
    ``spectra.DENSE_MAX_DIM``.
    """
    if isinstance(spec_payload, ChainModel):
        return all(K.shape[1] > 0 for K in spectra.chain_kernels(spec_payload, depth)[1:])
    return all(
        spectra.kernel(region_sum(spec_payload, box_region(a, b))).shape[1] > 0
        for a in range(1, depth + 1)
        for b in range(1, depth + 1)
        if spec_payload.d ** (a * b) <= spectra.DENSE_MAX_DIM
    )


# ---------------------------------------------------------------------------
# built-in chains
# ---------------------------------------------------------------------------

def _spin1_matrices() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    sqrt2 = math.sqrt(2.0)
    sp_ = np.array([[0, sqrt2, 0], [0, 0, sqrt2], [0, 0, 0]], dtype=np.complex128)
    sm = sp_.conj().T
    sx = (sp_ + sm) / 2.0
    sy = (sp_ - sm) / 2.0j
    sz = np.diag([1.0, 0.0, -1.0]).astype(np.complex128)
    return sx, sy, sz


def aklt() -> ModelSpec:
    """Spin-1 chain with the rank-5 projector onto total spin 2 on each bond."""
    sx, sy, sz = _spin1_matrices()
    eye = np.eye(3)
    total = [np.kron(s, eye) + np.kron(eye, s) for s in (sx, sy, sz)]
    casimir = sum(s @ s for s in total)
    proj = casimir @ (casimir - 2.0 * np.eye(9)) / 24.0
    model = ChainModel(
        d=3,
        P=LocalProjector(2, 3, proj),
        P_L=LocalProjector.zero(1, 3),
        P_R=LocalProjector.zero(1, 3),
    )
    spec = ModelSpec("aklt", model, CHAIN_FF_DEPTH)
    if not frustration_free(model, CHAIN_FF_DEPTH):
        raise RuntimeError("AKLT chain failed the frustration-freeness check")
    return spec


def singlet_chain() -> ModelSpec:
    """Spin-1/2 chain projecting each bond onto the two-site singlet (gapless)."""
    singlet = np.zeros(4, dtype=np.complex128)
    singlet[1] = 1.0 / math.sqrt(2.0)
    singlet[2] = -1.0 / math.sqrt(2.0)
    model = ChainModel(
        d=2,
        P=LocalProjector(2, 2, np.outer(singlet, singlet.conj())),
        P_L=LocalProjector.zero(1, 2),
        P_R=LocalProjector.zero(1, 2),
    )
    spec = ModelSpec("singlet_chain", model, CHAIN_FF_DEPTH)
    if not frustration_free(model, CHAIN_FF_DEPTH):
        raise RuntimeError("singlet chain failed the frustration-freeness check")
    return spec


# ---------------------------------------------------------------------------
# random frustration-free instances
# ---------------------------------------------------------------------------

def _haar_projector(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    if rank == 0:
        return np.zeros((dim, dim), dtype=np.complex128)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    q, _ = np.linalg.qr(g)
    return q @ q.conj().T


def random_ff(
    d: int,
    rank_bulk: int,
    rank_boundary: int,
    seed: int,
    ff_check_depth: int = CHAIN_FF_DEPTH,
) -> ModelSpec:
    """Haar-random bond and boundary projectors, verified frustration-free.

    Ranks must respect the sufficient bounds rank_bulk <= max(d, d^2/4) and
    rank_boundary <= max(1, d/4). Failing instances are regenerated with an
    incremented sub-seed (up to 16 times, count recorded).
    """
    if not 1 <= rank_bulk <= max(d, d * d // 4):
        raise ValueError(f"bulk rank {rank_bulk} outside [1, {max(d, d * d // 4)}]")
    if not 0 <= rank_boundary <= max(1, d // 4):
        raise ValueError(f"boundary rank {rank_boundary} outside [0, {max(1, d // 4)}]")
    for attempt in range(MAX_REGENERATIONS + 1):
        rng = np.random.default_rng((seed, attempt))
        model = ChainModel(
            d=d,
            P=LocalProjector(2, d, _haar_projector(d * d, rank_bulk, rng)),
            P_L=LocalProjector(1, d, _haar_projector(d, rank_boundary, rng)),
            P_R=LocalProjector(1, d, _haar_projector(d, rank_boundary, rng)),
        )
        if frustration_free(model, ff_check_depth):
            return ModelSpec(
                name=f"random_ff(d={d},rb={rank_bulk},re={rank_boundary},seed={seed})",
                payload=model,
                ff_check_depth=ff_check_depth,
                regenerations=attempt,
            )
    raise RuntimeError(
        f"no frustration-free instance found after {MAX_REGENERATIONS} regenerations"
    )


def random_cell_2d(d: int, n_terms: int, seed: int) -> ModelSpec:
    """Random range-1 cell: single-site projectors annihilating a common state.

    Each term is a Haar-random rank-1 projector orthogonal to one fixed
    random local state, so the product of that state over all sites lies in
    the kernel of every translate and the cell is frustration-free by
    construction (still verified numerically).
    """
    if d < 2:
        raise ValueError("need local dimension >= 2")
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v0 /= np.linalg.norm(v0)
    basis = np.linalg.qr(
        np.column_stack([v0, rng.standard_normal((d, d - 1)) + 1j * rng.standard_normal((d, d - 1))])
    )[0]
    complement = basis[:, 1:]  # orthonormal basis of the orthogonal complement of v0
    terms = []
    for _ in range(n_terms):
        w = rng.standard_normal(d - 1) + 1j * rng.standard_normal(d - 1)
        vec = complement @ (w / np.linalg.norm(w))
        proj = np.outer(vec, vec.conj())
        terms.append((InteractionShape.single_site(), LocalProjector(1, d, proj)))
    cell = InteractionCell(d=d, terms=tuple(terms), R=1)
    spec = ModelSpec(
        name=f"random_cell_2d(d={d},terms={n_terms},seed={seed})",
        payload=cell,
        ff_check_depth=CELL_FF_DEPTH,
    )
    if not frustration_free(cell, CELL_FF_DEPTH):
        raise RuntimeError("random 2D cell failed the frustration-freeness check")
    return spec


def commuting_cell_2d(d: int = 2) -> ModelSpec:
    """Range-1 cell with one projector |0><0| per site (commuting, gapped)."""
    proj = np.zeros((d, d), dtype=np.complex128)
    proj[0, 0] = 1.0
    cell = InteractionCell(
        d=d,
        terms=((InteractionShape.single_site(), LocalProjector(1, d, proj)),),
        R=1,
    )
    spec = ModelSpec("commuting_cell_2d", cell, CELL_FF_DEPTH)
    if not frustration_free(cell, CELL_FF_DEPTH):
        raise RuntimeError("commuting cell failed the frustration-freeness check")
    return spec


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------

def _matrix_to_json(mat: np.ndarray) -> list:
    return [[[float(entry.real), float(entry.imag)] for entry in row] for row in mat]


def _matrix_from_json(data, context: str) -> np.ndarray:
    try:
        arr = np.asarray(
            [[complex(entry[0], entry[1]) for entry in row] for row in data],
            dtype=np.complex128,
        )
    except (TypeError, IndexError) as err:
        raise ValueError(f"{context}: malformed matrix encoding") from err
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{context}: matrix must be square")
    return arr


def save(spec: ModelSpec, path) -> None:
    """Serialize a ModelSpec to the JSON model-file format."""
    if spec.kind == "chain":
        model = spec.payload
        doc = {
            "kind": "chain",
            "d": model.d,
            "name": spec.name,
            "P": _matrix_to_json(model.P.matrix),
            "P_L": _matrix_to_json(model.P_L.matrix),
            "P_R": _matrix_to_json(model.P_R.matrix),
        }
    else:
        cell = spec.payload
        doc = {
            "kind": "cell_2d",
            "d": cell.d,
            "R": cell.R,
            "name": spec.name,
            "terms": [
                {
                    "shape": {"kind": shape.kind, "offsets": [list(o) for o in shape.offsets]},
                    "matrix": _matrix_to_json(proj.matrix),
                }
                for shape, proj in cell.terms
            ],
        }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def load(path) -> ModelSpec:
    """Load and validate a model file (projector and shape checks included)."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "kind" not in doc or "d" not in doc:
        raise ValueError(f"{path}: model file must be an object with 'kind' and 'd'")
    kind = doc["kind"]
    name = doc.get("name", str(path))
    try:
        d = int(doc["d"])
        if kind == "chain":
            for key in ("P", "P_L", "P_R"):
                if key not in doc:
                    raise ValueError(f"{path}: missing field {key!r}")
            try:
                P = LocalProjector(2, d, _matrix_from_json(doc["P"], "P"))
                P_L = LocalProjector(1, d, _matrix_from_json(doc["P_L"], "P_L"))
                P_R = LocalProjector(1, d, _matrix_from_json(doc["P_R"], "P_R"))
            except ValueError as err:
                raise ValueError(f"{path}: {err}") from None
            payload = ChainModel(d=d, P=P, P_L=P_L, P_R=P_R)
            depth = CHAIN_FF_DEPTH if d <= 3 else 6
        elif kind == "cell_2d":
            if "R" not in doc or "terms" not in doc:
                raise ValueError(f"{path}: missing field 'R' or 'terms'")
            terms = []
            for i, entry in enumerate(doc["terms"]):
                shape_doc = entry.get("shape", {})
                offsets = tuple(tuple(int(c) for c in o) for o in shape_doc.get("offsets", ()))
                shape = InteractionShape(offsets=offsets, kind=shape_doc.get("kind", "generic"))
                try:
                    proj = LocalProjector(
                        len(offsets), d, _matrix_from_json(entry["matrix"], f"terms[{i}]")
                    )
                except ValueError as err:
                    raise ValueError(f"{path}: terms[{i}]: {err}") from None
                terms.append((shape, proj))
            payload = InteractionCell(d=d, terms=tuple(terms), R=int(doc["R"]))
            depth = CELL_FF_DEPTH
        else:
            raise ValueError(f"{path}: unknown kind {kind!r}")
    except (AttributeError, KeyError, TypeError) as err:  # a missing or mistyped field
        raise ValueError(f"{path}: malformed model file ({err})") from None
    spec = ModelSpec(name, payload, depth)
    if not frustration_free(payload, depth):
        raise ValueError(f"{path}: model failed the frustration-freeness check")
    return spec
