"""Strip and plaquette coarse-graining: grouping, effective models, sandwiches."""

import numpy as np
import pytest

from ffgap.coarse_grain import (
    CellRejection,
    EffectiveModel1D,
    classify_2d,
    classify_translate,
    effective_1d,
    effective_2d,
    group_1d,
    group_2d,
    inflate_range,
    plaquette_model_hamiltonian,
)
from ffgap.lattice import InteractionShape, box_region, rhomboid_sites
from ffgap.models import commuting_cell_2d, random_cell_2d
from ffgap.operators import (
    InteractionCell,
    LocalProjector,
    LocalSum,
    chain_hamiltonian,
    region_hamiltonian,
)
from ffgap.spectra import psd_margin, spectral_gap


def line_cell(a: int, b: int, R: int) -> InteractionCell:
    """Axis-aligned line of a+b+1 sites projecting onto |0...0>."""
    shape = InteractionShape.axis_line(a, b, 0)
    k = a + b + 1
    proj = np.zeros((2**k, 2**k), dtype=np.complex128)
    proj[0, 0] = 1.0
    return InteractionCell(d=2, terms=((shape, LocalProjector(k, 2, proj)),), R=R)


def pair_cell() -> InteractionCell:
    proj = np.zeros((4, 4), dtype=np.complex128)
    proj[0, 0] = 1.0
    shape = InteractionShape.chain_pair()
    return InteractionCell(d=2, terms=((shape, LocalProjector(2, 2, proj)),), R=2)


def support(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference: eigenvalues of a PSD block above 1e-10 lambda_max and their eigenvectors, by eigh."""
    vals, vecs = np.linalg.eigh(block)
    keep = vals > 1e-10 * vals[-1]
    return vals[keep], vecs[:, keep]


# cells with the same single-site projectors on every site: their blocks are
# sums over sites, invariant under any reordering of the factors, so each
# block is its window's Hamiltonian times the bulk weight of a site
REFERENCE_CELLS = {
    "commuting": lambda: commuting_cell_2d().payload,
    "random_d2": lambda: random_cell_2d(2, 2, 0).payload,
    "random_d3": lambda: random_cell_2d(3, 2, 0).payload,
}
REFERENCE_CASES = [
    (name, m2) for name in REFERENCE_CELLS for m2 in (1, 2) + ((5,) if name != "random_d3" else ())
]


@pytest.fixture(scope="module")
def reference_cells():
    return {name: make() for name, make in REFERENCE_CELLS.items()}


def assert_matches_reference(projector, lam_min, lam_max, block):
    vals, vecs = support(block)
    assert lam_min == pytest.approx(vals[0], rel=1e-12)
    assert lam_max == pytest.approx(vals[-1], rel=1e-12)
    assert np.abs(projector - vecs @ vecs.conj().T).max() <= 1e-10


class TestAgainstDenseReference:
    """Kernel recursion, cross-checked gap and Lanczos against one dense eigh of the block."""

    @pytest.mark.parametrize("name, m2", REFERENCE_CASES)  # 2^10 at m2 = 5: a deflated gap
    def test_effective_1d(self, reference_cells, name, m2):
        cell = reference_cells[name]
        eff = effective_1d(cell, m2=m2, R=1)
        block = 0.5 * region_hamiltonian(cell, box_region(2, m2)).toarray()
        assert_matches_reference(eff.P_eff.matrix, eff.lambda_min, eff.lambda_max, block)

    @pytest.mark.parametrize("name", REFERENCE_CELLS)
    def test_effective_2d(self, reference_cells, name):
        cell = reference_cells[name]
        eff = effective_2d(cell, R=1)
        block = 0.25 * region_hamiltonian(cell, box_region(2, 2)).toarray()
        assert_matches_reference(eff.h_plaquette.matrix, eff.lambda_min, eff.lambda_max, block)

    def test_zero_block_refused(self):
        zero = InteractionCell(
            d=2, terms=((InteractionShape.single_site(), LocalProjector.zero(1, 2)),), R=1
        )
        with pytest.raises(ValueError, match="no positive spectrum"):
            effective_1d(zero, m2=1, R=1)
        with pytest.raises(ValueError, match="no positive spectrum"):
            effective_2d(zero, R=1)

    @pytest.mark.parametrize("name", ["random_d2", "random_d3"])
    def test_constants_repeat_bit_for_bit(self, reference_cells, name):
        # complex blocks: the Lanczos lambda_max must not drift between calls
        cell = reference_cells[name]
        m2 = 5 if cell.d == 2 else 2
        first, second = effective_1d(cell, m2=m2, R=1), effective_1d(cell, m2=m2, R=1)
        assert (first.lambda_min, first.lambda_max) == (second.lambda_min, second.lambda_max)
        assert np.array_equal(first.P_eff.matrix, second.P_eff.matrix)
        first, second = effective_2d(cell, R=1), effective_2d(cell, R=1)
        assert (first.lambda_min, first.lambda_max) == (second.lambda_min, second.lambda_max)
        assert np.array_equal(first.h_plaquette.matrix, second.h_plaquette.matrix)


class TestInflateRange:
    def test_divisor_found(self):
        assert inflate_range(1, 5) == 1
        assert inflate_range(2, 6) == 2
        assert inflate_range(3, 8) == 4
        assert inflate_range(5, 12) == 6
        assert inflate_range(7, 7) == 7

    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            inflate_range(0, 4)
        with pytest.raises(ValueError):
            inflate_range(5, 4)


class TestGroup1d:
    def test_blocks_reconstruct_hamiltonian(self, random_cells_2d):
        cell = random_cells_2d[0].payload
        blocks = group_1d(cell, 4, 2, 1)
        assert len(blocks) == 3
        total = blocks[0]
        for b in blocks[1:]:
            total = total + b
        want = region_hamiltonian(cell, box_region(4, 2))
        diff = total - want
        assert diff.nnz == 0 or np.abs(diff.data).max() < 1e-13

    def test_two_strips_single_block(self, commuting_cell_spec):
        cell = commuting_cell_spec.payload
        blocks = group_1d(cell, 2, 2, 1)
        assert len(blocks) == 1
        want = region_hamiltonian(cell, box_region(2, 2))
        assert np.allclose(blocks[0].toarray(), want.toarray(), atol=1e-14)

    def test_interior_strip_terms_half_split(self, commuting_cell_spec):
        cell = commuting_cell_spec.payload
        region = box_region(4, 1)
        blocks = group_1d(cell, 4, 1, 1)
        _, proj = cell.terms[0]

        def on(weights):
            terms = [((region.index(site),), proj.matrix, w) for site, w in weights.items()]
            return LocalSum((2,) * len(region), terms).assemble().toarray()

        middle = on({(2, 1): 0.5, (3, 1): 0.5})
        assert np.allclose(blocks[1].toarray(), middle, atol=1e-14)
        # boundary strips contribute whole to the single adjacent block
        first = on({(1, 1): 1.0, (2, 1): 0.5})
        assert np.allclose(blocks[0].toarray(), first, atol=1e-14)

    def test_width_must_divide(self, commuting_cell_spec):
        with pytest.raises(ValueError, match="does not divide"):
            group_1d(commuting_cell_spec.payload, 5, 1, 2)

    def test_needs_two_strips(self, commuting_cell_spec):
        with pytest.raises(ValueError, match="two strips"):
            group_1d(commuting_cell_spec.payload, 2, 1, 2)

    def test_non_adjacent_straddle_rejected(self):
        cell = line_cell(0, 2, R=3)
        with pytest.raises(CellRejection):
            group_1d(cell, 3, 1, 1)


class TestEffective1d:
    def test_commuting_cell_constants(self, commuting_cell_spec):
        eff = effective_1d(commuting_cell_spec.payload, m2=1, R=1)
        assert eff.metaspin_dim == 2
        assert eff.lambda_min == pytest.approx(0.5, abs=1e-12)
        assert eff.lambda_max == pytest.approx(1.0, abs=1e-12)
        assert eff.C1 == pytest.approx(0.5)
        assert eff.C2 == pytest.approx(2.0)
        P = eff.P_eff.matrix
        assert np.trace(P).real == pytest.approx(3.0, abs=1e-12)
        assert np.allclose(P @ P, P, atol=1e-12)

    def test_kernel_equality_with_original(self, random_cells_2d):
        cell = random_cells_2d[0].payload
        eff = effective_1d(cell, m2=1, R=1)
        for m in (3, 4):
            orig = spectral_gap(region_hamiltonian(cell, box_region(m, 1)))
            coarse = spectral_gap(chain_hamiltonian(eff.chain_model(), m))
            assert orig.kernel_dim == coarse.kernel_dim

    def test_sandwich_inequalities(self, random_cells_2d):
        cell = random_cells_2d[0].payload
        eff = effective_1d(cell, m2=1, R=1)
        H = region_hamiltonian(cell, box_region(4, 1)).toarray()
        Heff = chain_hamiltonian(eff.chain_model(), 4).toarray()
        assert psd_margin(H - eff.C1 * Heff) >= -1e-9
        assert psd_margin(eff.C2 * Heff - H) >= -1e-9

    def test_gap_sandwich(self, random_cells_2d):
        cell = random_cells_2d[0].payload
        eff = effective_1d(cell, m2=1, R=1)
        gap = spectral_gap(region_hamiltonian(cell, box_region(4, 1))).gap
        gap_eff = spectral_gap(chain_hamiltonian(eff.chain_model(), 4)).gap
        assert eff.C1 * gap_eff <= gap + 1e-10
        assert gap <= eff.C2 * gap_eff + 1e-10

    def test_metaspin_cap(self, commuting_cell_spec):
        cell = commuting_cell_spec.payload
        with pytest.raises(ValueError, match="overflow"):
            effective_1d(cell, m2=13, R=1)
        with pytest.raises(ValueError, match="two-strip"):
            effective_1d(cell, m2=7, R=1)

    def test_positive_lambda_required(self):
        with pytest.raises(ValueError, match="lambda_min"):
            EffectiveModel1D(
                P_eff=LocalProjector.zero(2, 2),
                lambda_min=0.0,
                lambda_max=1.0,
                R=1,
                m2=1,
            )


class TestClassifyTranslate:
    def test_single_site_within_box(self):
        shape = InteractionShape.single_site()
        for anchor in [(0, 0), (1, 2), (2, 2)]:
            kind, boxes = classify_translate(shape, anchor, 3)
            assert kind == "within_box"
            assert len(boxes) == 1

    def test_line_straddling_adjacent_boxes(self):
        line = InteractionShape.axis_line(0, 2, 0)
        kind, boxes = classify_translate(line, (0, 0), 3)
        assert kind == "side_pair"
        assert boxes == ((0, 0), (3, 0))
        assert classify_translate(line, (2, 0), 3)[0] == "within_box"

    def test_ball_at_box_corner_is_corner_quad(self):
        ball = InteractionShape.l1_ball(2)
        kind, boxes = classify_translate(ball, (1, 1), 3)
        assert kind == "corner_quad"
        assert boxes == ((0, 0), (0, 3), (3, 0), (3, 3))

    def test_diagonal_pair_rejected(self):
        diag = InteractionShape(((0, 0), (1, 1)))
        with pytest.raises(CellRejection) as exc:
            classify_translate(diag, (0, 0), 1)
        assert "corner-touching" in str(exc.value)
        assert exc.value.witness is not None

    def test_off_corner_ball_rejected(self):
        ball = InteractionShape.l1_ball(2)
        with pytest.raises(CellRejection):
            classify_translate(ball, (0, 1), 3)

    def test_long_line_rejected(self):
        line = InteractionShape.axis_line(0, 4, 0)
        with pytest.raises(CellRejection):
            classify_translate(line, (0, 0), 1)


class TestClassify2d:
    def test_single_site_cell_all_within(self, commuting_cell_spec):
        out = classify_2d(commuting_cell_spec.payload, 3)
        assert len(out["within_box"]) == 9
        assert out["side_pair"] == []
        assert out["corner_quad"] == []

    def test_centered_line_counts(self):
        cell = line_cell(1, 1, R=3)
        out = classify_2d(cell, 3)
        assert len(out["within_box"]) == 3
        assert len(out["side_pair"]) == 6
        assert out["corner_quad"] == []

    def test_even_width_rejected(self, commuting_cell_spec):
        with pytest.raises(ValueError, match="odd"):
            classify_2d(commuting_cell_spec.payload, 2)

    def test_strict_shape_validation(self):
        with pytest.raises(ValueError, match="strict 2D"):
            classify_2d(pair_cell(), 3)


class TestGroup2d:
    def test_blocks_reconstruct_rhomboid_hamiltonian(self, commuting_cell_spec):
        cell = commuting_cell_spec.payload
        blocks = group_2d(cell, 2, 2, R=1)
        assert len(blocks) == 5
        region, _ = rhomboid_sites(2, 2, 1)
        want = region_hamiltonian(cell, region)
        total = None
        for b in blocks.values():
            total = b if total is None else total + b
        diff = total - want
        assert diff.nnz == 0 or np.abs(diff.data).max() < 1e-13

    def test_single_site_equidistribution_weights(self, commuting_cell_spec):
        # weight of each site's projector inside each block, read off by
        # applying the (diagonal) block to a basis state exciting that site
        cell = commuting_cell_spec.payload
        blocks = group_2d(cell, 2, 2, R=1)
        region, centers = rhomboid_sites(2, 2, 1)
        n = len(region)
        per_site = []
        for site in centers:
            idx = (2**n - 1) - 2 ** (n - 1 - region.index(site))
            weights = [b[idx, idx].real for b in blocks.values()]
            total = sum(weights)
            assert total == pytest.approx(1.0, abs=1e-14)
            per_site.append(sorted(w for w in weights if w > 0))
        flat = sorted(w for ws in per_site for w in ws)
        assert set(np.round(flat, 12)) == {1.0, round(1 / 3, 12)}

    def test_pair_equidistribution_weights(self):
        cell = pair_cell()
        blocks = group_2d(cell, 2, 2, R=1)
        region, centers = rhomboid_sites(2, 2, 1)
        n = len(region)
        seen = set()
        for site in centers:
            partner = (site[0] + 1, site[1])
            if partner not in region:
                continue
            idx = (
                (2**n - 1)
                - 2 ** (n - 1 - region.index(site))
                - 2 ** (n - 1 - region.index(partner))
            )
            weights = [b[idx, idx].real for b in blocks.values()]
            assert sum(weights) == pytest.approx(1.0, abs=1e-14)
            seen.update(np.round(w, 12) for w in weights if w > 1e-14)
        assert seen == {np.round(1.0, 12), np.round(0.5, 12)}

    def test_uncoverable_translate_rejected(self):
        cell = line_cell(0, 2, R=3)  # three collinear boxes at box width 1
        with pytest.raises(CellRejection, match="not covered"):
            group_2d(cell, 2, 2, R=1)


class TestEffective2d:
    def test_commuting_cell_constants(self, commuting_cell_spec):
        eff = effective_2d(commuting_cell_spec.payload, R=1)
        assert eff.metaspin_dim == 2
        assert eff.lambda_min == pytest.approx(0.25, abs=1e-12)
        assert eff.lambda_max == pytest.approx(1.0, abs=1e-12)
        assert eff.C1 == pytest.approx(0.25)
        assert eff.C2 == pytest.approx(4.0)
        h = eff.h_plaquette.matrix
        assert np.trace(h).real == pytest.approx(15.0, abs=1e-12)
        assert np.allclose(h @ h, h, atol=1e-12)

    def test_kernel_equality_and_sandwich(self, random_cells_2d):
        cell = random_cells_2d[0].payload
        eff = effective_2d(cell, R=1)
        region, _ = rhomboid_sites(1, 2, 1)
        H = region_hamiltonian(cell, region).toarray()
        Heff = plaquette_model_hamiltonian(eff, 1, 2).toarray()
        orig = spectral_gap(H)
        coarse = spectral_gap(Heff)
        assert orig.kernel_dim == coarse.kernel_dim
        assert psd_margin(H - eff.C1 * Heff) >= -1e-9
        assert psd_margin(eff.C2 * Heff - H) >= -1e-9
        assert eff.C1 * coarse.gap <= orig.gap + 1e-10
        assert orig.gap <= eff.C2 * coarse.gap + 1e-10

    def test_window_dimension_cap(self, commuting_cell_spec):
        with pytest.raises(ValueError, match="overflow"):
            effective_2d(commuting_cell_spec.payload, R=3)

    def test_even_width_rejected(self, commuting_cell_spec):
        with pytest.raises(ValueError, match="odd"):
            effective_2d(commuting_cell_spec.payload, R=2)
