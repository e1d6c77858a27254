"""Operator assembly: local sums, chain/region Hamiltonians, the enlarged ring."""

import numpy as np
import pytest

from ffgap.coefficients import SQRT6, coeffs_1d
from ffgap.criteria import apply_q_plus_f, term_images, window_from_images, window_gap_margins
from ffgap.lattice import InteractionShape, box_region
from ffgap.operators import (
    ChainModel,
    InteractionCell,
    LocalProjector,
    LocalSum,
    chain_hamiltonian,
    cyclic_distance,
    enlarged_ring,
    q_and_f,
    region_hamiltonian,
    region_sum,
)

RNG = np.random.default_rng(8451)


def random_projector(dim: int, rank: int) -> np.ndarray:
    m = RNG.standard_normal((dim, rank)) + 1j * RNG.standard_normal((dim, rank))
    q = np.linalg.qr(m)[0]
    return q @ q.conj().T


def two_site_chain(d: int, seed: int = 0) -> ChainModel:
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((d * d, 1)) + 1j * rng.standard_normal((d * d, 1))
    q = np.linalg.qr(m)[0]
    return ChainModel(
        d=d,
        P=LocalProjector(2, d, q @ q.conj().T),
        P_L=LocalProjector.zero(1, d),
        P_R=LocalProjector.zero(1, d),
    )


class TestLocalProjector:
    def test_rejects_non_hermitian(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            LocalProjector(1, 2, bad)

    def test_rejects_non_idempotent(self):
        bad = 0.5 * np.eye(2)
        with pytest.raises(ValueError):
            LocalProjector(1, 2, bad)

    def test_zero_flag(self):
        assert LocalProjector.zero(1, 3).is_zero
        assert not LocalProjector(1, 2, np.diag([1.0, 0.0])).is_zero


class TestEmbed:
    def test_matches_kron_on_chain(self):
        p = random_projector(4, 2)
        got = LocalSum((2, 2, 2), [((0, 1), p, 1.0)]).assemble().toarray()
        want = np.kron(p, np.eye(2))
        assert np.allclose(got, want, atol=1e-14)

    def test_site_order_transposes_factors(self):
        p = random_projector(4, 1)
        forward = LocalSum((2, 2), [((0, 1), p, 1.0)]).assemble().toarray()
        swap = np.reshape(np.transpose(np.reshape(p, (2, 2, 2, 2)), (1, 0, 3, 2)), (4, 4))
        backward = LocalSum((2, 2), [((1, 0), swap, 1.0)]).assemble().toarray()
        assert np.allclose(forward, backward, atol=1e-14)

    def test_trace_identity(self):
        # tr(embedded A) = tr(A) * dim(rest)
        region = box_region(2, 2)
        p = random_projector(2, 1)
        op = LocalSum((2,) * 4, [((region.index((1, 2)),), p, 1.0)]).assemble()
        assert np.trace(op.toarray()) == pytest.approx(np.trace(p) * 2 ** 3)

    def test_mixed_local_dims(self):
        p = random_projector(6, 2)
        local_sum = LocalSum((2, 3), [((0, 1), p, 1.0)])
        assert local_sum.dim == 6
        assert np.allclose(local_sum.assemble().toarray(), p, atol=1e-14)

    def test_outside_site_rejected(self):
        with pytest.raises(ValueError):
            LocalSum((2, 2), [((5,), np.eye(2), 1.0)])

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            LocalSum((2, 2), [((0,), np.eye(3), 1.0)])

    def test_non_hermitian_rejected(self):
        mat = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="not Hermitian"):
            LocalSum((2,), [((0,), mat, 1.0)]).assemble()

    def test_apply_needs_contiguous_factors(self):
        p = random_projector(4, 1)
        local_sum = LocalSum((2, 2, 2), [((0, 1), p, 0.5), ((2, 0), p, 1.0)])
        v = random_state(8, 4)
        want = LocalSum((2, 2, 2), local_sum.terms[:1]).assemble() @ v  # weight 0.5 included
        assert np.allclose(local_sum.apply_term(0, v), want, atol=1e-14)
        with pytest.raises(ValueError, match="non-contiguous"):
            local_sum.apply_term(1, v)


def on_sites(local: np.ndarray, first: int, k: int, d: int, m: int) -> np.ndarray:
    """``local`` on sites first..first+k-1 (1-based) of an m-site chain, by np.kron."""
    return np.kron(np.kron(np.eye(d ** (first - 1)), local), np.eye(d ** (m - first - k + 1)))


class TestChainHamiltonian:
    def test_open_chain_term_count(self, random_chain_d3_boundary):
        model = random_chain_d3_boundary.payload
        H = chain_hamiltonian(model, 4).toarray()
        want = sum(on_sites(model.P.matrix, i, 2, 3, 4) for i in (1, 2, 3))
        want = want + on_sites(model.P_L.matrix, 1, 1, 3, 4)
        want = want + on_sites(model.P_R.matrix, 4, 1, 3, 4)
        assert np.allclose(H, want, atol=1e-13)

    def test_periodic_adds_wraparound(self):
        model = two_site_chain(2, seed=3)
        periodic = ChainModel(2, model.P, model.P_L, model.P_R, bc="periodic")
        H_open = chain_hamiltonian(model, 4).toarray()
        H_per = chain_hamiltonian(periodic, 4).toarray()
        # P on the factor order (site 4, site 1): out (a4, a1), in (b4, b1)
        eye = np.eye(2)
        wrap = np.einsum("wxyz,bB,cC->xbcwzBCy", model.P.matrix.reshape(2, 2, 2, 2), eye, eye)
        assert np.allclose(H_per, H_open + wrap.reshape(16, 16), atol=1e-13)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            chain_hamiltonian(two_site_chain(2), 1)


class TestRegionHamiltonian:
    def test_single_site_cell_counts_sites(self):
        proj = np.diag([1.0, 0.0])
        cell = InteractionCell(
            d=2,
            terms=((InteractionShape.single_site(), LocalProjector(1, 2, proj)),),
            R=1,
        )
        H = region_hamiltonian(cell, box_region(2, 2)).toarray()
        # eigenvalues count the number of sites in state |0>
        vals = np.sort(np.linalg.eigvalsh(H))
        assert vals[0] == pytest.approx(0.0, abs=1e-14)
        assert vals[-1] == pytest.approx(4.0, abs=1e-13)

    def test_straddling_translates_dropped(self):
        pair = InteractionShape.chain_pair()
        proj = random_projector(4, 1)
        cell = InteractionCell(d=2, terms=((pair, LocalProjector(2, 2, proj)),), R=3)
        H2 = region_hamiltonian(cell, box_region(2, 1)).toarray()
        # only one horizontal pair fits in a 2x1 box
        assert np.allclose(H2, proj, atol=1e-14)

    def test_region_sum_places_translates_in_site_order(self):
        pair = InteractionShape.chain_pair()
        proj = random_projector(4, 1)
        cell = InteractionCell(d=2, terms=((pair, LocalProjector(2, 2, proj)),), R=2)
        region = box_region(3, 2)
        terms = region_sum(cell, region)
        assert terms.dims == (2,) * 6
        assert [positions for positions, _, _ in terms.terms] == [
            (region.index((x, y)), region.index((x + 1, y))) for x in (1, 2) for y in (1, 2)
        ]
        assert (terms.assemble() != region_hamiltonian(cell, region)).nnz == 0

    def test_box_above_the_cap_refused(self, commuting_cell_spec):
        with pytest.raises(ValueError, match="diagonalization cap 65536"):
            region_hamiltonian(commuting_cell_spec.payload, box_region(17, 1))


def term_operator(ring: LocalSum, t: int):
    """Ring term t assembled on its own."""
    return LocalSum(ring.dims, (ring.terms[t],)).assemble()


class TestEnlargedRing:
    def test_terms_layout(self, random_chain_d3_boundary):
        model = random_chain_d3_boundary.payload
        m = 4
        ring = enlarged_ring(model, m)
        assert [t[0] for t in ring.terms] == [(0, 1), (1, 2), (2, 3), (3,), (0,)]
        # the m+1 terms act on the m-site space and sum to the open chain
        # (up to rounding: the two sums add the edge terms in another order)
        total = ring.assemble().toarray()
        assert np.allclose(total, chain_hamiltonian(model, m).toarray(), atol=1e-13)

    def test_zero_boundary_gives_zero_terms(self, random_chain_d2):
        ring = enlarged_ring(random_chain_d2.payload, 4)
        assert term_operator(ring, 3).nnz == 0  # P_R slot
        assert term_operator(ring, 4).nnz == 0  # P_L slot

    def test_hsquared_identity(self, random_chain_d3_boundary):
        model = random_chain_d3_boundary.payload
        m = 4
        H = chain_hamiltonian(model, m)
        Q, F = q_and_f(model, m)
        lhs = (H @ H).toarray()
        rhs = H.toarray() + Q.toarray() + F.toarray()
        scale = np.linalg.norm(lhs)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * scale

    def test_cyclic_distance(self):
        assert cyclic_distance(1, 5, 5) == 1
        assert cyclic_distance(0, 2, 5) == 2
        assert cyclic_distance(3, 3, 5) == 0


def random_state(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


class TestSubchainOperators:
    @pytest.mark.parametrize("l", [1, 4, 8, 9])
    def test_window_wraps_cyclically(self, random_chain_d2, l):
        model = random_chain_d2.payload
        m, n = 8, 4
        ring = enlarged_ring(model, m)
        want = sum(term_operator(ring, (l + k - 1) % (m + 1)).toarray() for k in range(n - 1))
        v = random_state(2 ** m, l)
        got = window_from_images(l, (1.0,) * (n - 1), term_images(ring, v))
        assert np.allclose(got, want @ v, atol=1e-12)

    def test_deformed_window_weights(self, random_chain_d2):
        model = random_chain_d2.payload
        m, n = 8, 4
        coeffs = coeffs_1d(n, SQRT6)
        ring = enlarged_ring(model, m)
        want = sum(
            coeffs.c[k] * term_operator(ring, (2 + k - 1) % (m + 1)).toarray()
            for k in range(n - 1)
        )
        v = random_state(2 ** m, 2)
        got = window_from_images(2, coeffs.c, term_images(ring, v))
        assert np.allclose(got, want @ v, atol=1e-12)

    def test_window_too_long_rejected(self, random_chain_d2):
        with pytest.raises(ValueError):
            window_gap_margins(random_chain_d2.payload, 6, coeffs_1d(4, SQRT6), 1.0, 1.0)

    def test_support_operator_matches_full(self, random_chain_d3_boundary):
        model = random_chain_d3_boundary.payload
        m, n = 6, 3
        coeffs = coeffs_1d(n, SQRT6)
        ring = enlarged_ring(model, m)
        windows = window_gap_margins(model, m, coeffs, 0.3, 0.2)
        for l in (1, 5, 6, 7, 3):
            full = sum(
                coeffs.c[k] * term_operator(ring, (l + k - 1) % (m + 1)).toarray()
                for k in range(n - 1)
            )
            vals = np.linalg.eigvalsh(full)
            # the margins agree because the spectra agree up to identity tensor factors
            window = windows[l - 1]
            want = float(np.min(vals * (vals - window["kappa"])))
            assert window["margin"] == pytest.approx(want, abs=1e-8)
            assert window["scale"] == pytest.approx(max(1.0, vals[-1] ** 2), abs=1e-8)
            assert all(1 <= s <= m for s in window["support"])


class TestEnlargedChainApplier:
    def test_matches_assembled_operators(self, random_chain_d3_boundary):
        model = random_chain_d3_boundary.payload
        m = 5
        ring = enlarged_ring(model, m)
        assert ring.dim == 3 ** m
        v = random_state(3 ** m, 11)
        for t in range(m + 1):
            assert np.allclose(ring.apply_term(t, v), term_operator(ring, t) @ v, atol=1e-12)
        H = chain_hamiltonian(model, m)
        assert np.allclose(ring.apply(v), H @ v, atol=1e-12)
        Q, F = q_and_f(model, m)
        images = term_images(ring, v)
        assert np.allclose(apply_q_plus_f(ring, images), (Q + F) @ v, atol=1e-11)

    def test_window_application(self, random_chain_d2):
        model = random_chain_d2.payload
        m, n = 8, 4
        coeffs = coeffs_1d(n, SQRT6)
        ring = enlarged_ring(model, m)
        dim = 2 ** m
        assert ring.dim == dim
        v = np.random.default_rng(7).standard_normal(dim).astype(np.complex128)
        images = term_images(ring, v)
        for l in (1, 5, 9):
            window = sum(
                coeffs.c[k] * term_operator(ring, (l + k - 1) % (m + 1)) for k in range(n - 1)
            )
            want = window @ v
            assert np.allclose(window_from_images(l, coeffs.c, images), want, atol=1e-11)


class TestAkltAlgebra:
    def test_bond_projector_rank(self, aklt_spec):
        P = aklt_spec.payload.P.matrix
        assert np.trace(P).real == pytest.approx(5.0, abs=1e-12)
        assert np.allclose(P @ P, P, atol=1e-12)

    def test_two_site_kernel_dimension(self, aklt_spec):
        H = chain_hamiltonian(aklt_spec.payload, 2).toarray()
        vals = np.linalg.eigvalsh(H)
        assert int(np.sum(vals < 1e-10)) == 4


class TestDtypeRule:
    """Projectors with an exactly zero imaginary part, and all built from them, are float64."""

    def test_projector_dtype_follows_its_imaginary_part(self):
        assert LocalProjector(1, 2, np.diag([1.0, 0.0]).astype(complex)).matrix.dtype == np.float64
        assert LocalProjector.zero(1, 3).matrix.dtype == np.float64
        assert LocalProjector(2, 2, random_projector(4, 1)).matrix.dtype == np.complex128

    @pytest.mark.parametrize("fixture", ["aklt_spec", "singlet_spec"])
    def test_real_chains_are_float64(self, request, fixture):
        model = request.getfixturevalue(fixture).payload
        assert {p.matrix.dtype for p in (model.P, model.P_L, model.P_R)} == {np.dtype(np.float64)}
        assert chain_hamiltonian(model, 4).dtype == np.float64
        assert enlarged_ring(model, 4).dtype == np.float64

    def test_random_chain_stays_complex(self, random_chain_d3_boundary):
        model = random_chain_d3_boundary.payload
        assert model.P.matrix.dtype == np.complex128
        assert chain_hamiltonian(model, 4).dtype == np.complex128
        assert enlarged_ring(model, 4).dtype == np.complex128

    def test_cell_projectors(self, commuting_cell_spec, random_cells_2d):
        # their region Hamiltonians and kernels: tests/test_spectra.py::TestRealArithmetic
        (_, proj), = commuting_cell_spec.payload.terms
        assert proj.matrix.dtype == np.float64
        assert all(p.matrix.dtype == np.complex128 for _, p in random_cells_2d[0].payload.terms)

    def test_local_sum_keeps_each_block_dtype(self):
        real, cplx = np.diag([1.0, 0.0]), random_projector(2, 1)
        mixed = LocalSum((2, 2), [((0,), real, 1.0), ((1,), cplx, 1.0)])
        assert [block.dtype for _, block, _ in mixed.terms] == [np.float64, np.complex128]
        assert mixed.dtype == mixed.assemble().dtype == np.complex128
        assert LocalSum((2, 2), [((0,), real, 1.0)]).assemble().dtype == np.float64
