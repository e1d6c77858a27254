"""Model constructors, frustration-freeness checks, and model files."""

import json
import math

import numpy as np
import pytest

from ffgap.models import (
    ModelSpec,
    aklt,
    commuting_cell_2d,
    frustration_free,
    load,
    random_cell_2d,
    random_ff,
    save,
    singlet_chain,
)
from ffgap.operators import (
    ChainModel,
    LocalProjector,
    LocalSum,
    chain_hamiltonian,
    region_hamiltonian,
)
from ffgap.lattice import box_region
from ffgap.spectra import spectral_gap


class TestAklt:
    def test_bond_projector_rank_five(self, aklt_spec):
        P = aklt_spec.payload.P.matrix
        assert np.trace(P).real == pytest.approx(5.0, abs=1e-12)
        assert np.allclose(P @ P, P, atol=1e-12)
        assert np.allclose(P, P.conj().T, atol=1e-14)

    def test_two_site_kernel_dimension(self, aklt_spec):
        report = spectral_gap(chain_hamiltonian(aklt_spec.payload, 2))
        assert report.kernel_dim == 4
        assert report.gap == pytest.approx(1.0, abs=1e-12)

    def test_spec_fields(self, aklt_spec):
        assert aklt_spec.name == "aklt"
        assert aklt_spec.kind == "chain"
        assert aklt_spec.payload.d == 3
        assert aklt_spec.payload.boundary_trivial


class TestSingletChain:
    def test_gaps_follow_cosine_law(self, singlet_spec):
        for m in range(2, 6):
            report = spectral_gap(chain_hamiltonian(singlet_spec.payload, m))
            assert report.gap == pytest.approx(1.0 - math.cos(math.pi / m), abs=1e-10)

    def test_bond_projector_rank_one(self, singlet_spec):
        P = singlet_spec.payload.P.matrix
        assert np.trace(P).real == pytest.approx(1.0, abs=1e-12)
        assert singlet_spec.payload.d == 2


class TestFrustrationFree:
    def test_accepts_aklt(self, aklt_spec):
        assert frustration_free(aklt_spec.payload, 6)

    def test_rejects_full_rank_bond(self):
        model = ChainModel(
            d=2,
            P=LocalProjector(2, 2, np.eye(4)),
            P_L=LocalProjector.zero(1, 2),
            P_R=LocalProjector.zero(1, 2),
        )
        assert not frustration_free(model, 4)

    def test_chain_check_needs_no_diagonalization(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("assembled a window for a frustration-freeness check")

        monkeypatch.setattr(LocalSum, "assemble", refuse)
        assert aklt(ff_check_depth=10).ff_check_depth == 10
        assert random_ff(2, 1, 0, seed=5, ff_check_depth=10).regenerations == 0
        assert frustration_free(random_ff(3, 1, 1, 108, ff_check_depth=4).payload, 7)
        assert commuting_cell_2d().ff_check_depth == 3

    def test_fixture_regenerations_unchanged(self, random_chain_d2, random_chain_d3_boundary):
        assert random_chain_d2.regenerations == 0
        assert random_chain_d3_boundary.regenerations == 0

    def test_random_chain_grounds_at_zero(self, random_chain_d2):
        model = random_chain_d2.payload
        for m in range(2, 7):
            report = spectral_gap(chain_hamiltonian(model, m))
            assert abs(report.ground_energy) < 1e-10
            assert report.kernel_dim >= 1


class TestRandomFF:
    def test_deterministic_in_seed(self):
        a = random_ff(2, 1, 0, seed=31, ff_check_depth=5)
        b = random_ff(2, 1, 0, seed=31, ff_check_depth=5)
        assert np.array_equal(a.payload.P.matrix, b.payload.P.matrix)
        assert np.array_equal(a.payload.P_L.matrix, b.payload.P_L.matrix)
        assert a.regenerations == b.regenerations

    def test_distinct_seeds_differ(self):
        a = random_ff(2, 1, 0, seed=31, ff_check_depth=4)
        b = random_ff(2, 1, 0, seed=32, ff_check_depth=4)
        assert not np.allclose(a.payload.P.matrix, b.payload.P.matrix)

    def test_regeneration_count_recorded(self, random_chain_d3_boundary):
        assert random_chain_d3_boundary.regenerations >= 0
        assert isinstance(random_chain_d3_boundary.regenerations, int)

    def test_rank_bounds_enforced(self):
        with pytest.raises(ValueError):
            random_ff(2, 0, 0, seed=1)
        with pytest.raises(ValueError):
            random_ff(2, 3, 0, seed=1)  # max bulk rank for d=2 is 2
        with pytest.raises(ValueError):
            random_ff(2, 1, 2, seed=1)  # max boundary rank for d=2 is 1

    def test_unsatisfiable_ranks_exhaust_regenerations(self):
        # maximal bulk rank plus nontrivial boundaries at d=2 is frustrated
        with pytest.raises(RuntimeError):
            random_ff(2, 2, 1, seed=7, ff_check_depth=4)


class TestRandomCell2d:
    def test_deterministic_in_seed(self):
        a = random_cell_2d(2, 3, seed=12)
        b = random_cell_2d(2, 3, seed=12)
        for (_, pa), (_, pb) in zip(a.payload.terms, b.payload.terms):
            assert np.array_equal(pa.matrix, pb.matrix)

    def test_shape_and_range(self, random_cells_2d):
        for spec in random_cells_2d:
            cell = spec.payload
            assert cell.R == 1
            assert all(shape.offsets == ((0, 0),) for shape, _ in cell.terms)
            assert frustration_free(cell, 2)

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            random_cell_2d(1, 1, seed=0)


class TestCommutingCell:
    def test_single_diagonal_projector(self, commuting_cell_spec):
        cell = commuting_cell_spec.payload
        assert len(cell.terms) == 1
        _, proj = cell.terms[0]
        assert np.array_equal(proj.matrix, np.diag([1.0, 0.0]).astype(complex))

    def test_region_spectrum_is_integer_counts(self, commuting_cell_spec):
        ham = region_hamiltonian(commuting_cell_spec.payload, box_region(2, 2))
        vals = np.linalg.eigvalsh(ham.toarray())
        assert np.allclose(np.unique(np.round(vals, 9)), [0.0, 1.0, 2.0, 3.0, 4.0])


class TestModelSpecValidation:
    def test_unknown_kind_rejected(self, aklt_spec):
        with pytest.raises(ValueError):
            ModelSpec("x", "lattice_3d", aklt_spec.payload, 4)

    def test_payload_kind_mismatch_rejected(self, aklt_spec, commuting_cell_spec):
        with pytest.raises(ValueError):
            ModelSpec("x", "chain", commuting_cell_spec.payload, 4)
        with pytest.raises(ValueError):
            ModelSpec("x", "cell_2d", aklt_spec.payload, 4)


class TestModelFiles:
    def test_chain_round_trip_exact(self, tmp_path, random_chain_d3_boundary):
        path = tmp_path / "chain.json"
        save(random_chain_d3_boundary, path)
        loaded = load(path, ff_check_depth=4)
        orig = random_chain_d3_boundary.payload
        assert loaded.kind == "chain"
        assert loaded.name == random_chain_d3_boundary.name
        assert np.array_equal(loaded.payload.P.matrix, orig.P.matrix)
        assert np.array_equal(loaded.payload.P_L.matrix, orig.P_L.matrix)
        assert np.array_equal(loaded.payload.P_R.matrix, orig.P_R.matrix)

    def test_cell_round_trip_exact(self, tmp_path, commuting_cell_spec):
        path = tmp_path / "cell.json"
        save(commuting_cell_spec, path)
        loaded = load(path)
        cell = loaded.payload
        orig = commuting_cell_spec.payload
        assert loaded.kind == "cell_2d"
        assert cell.R == orig.R
        assert len(cell.terms) == len(orig.terms)
        for (sa, pa), (sb, pb) in zip(cell.terms, orig.terms):
            assert sa.offsets == sb.offsets
            assert np.array_equal(pa.matrix, pb.matrix)

    @pytest.mark.parametrize(
        "fixture, dtype", [("aklt_spec", np.float64), ("random_chain_d3_boundary", np.complex128)]
    )
    def test_round_trip_keeps_the_dtype_and_format(self, tmp_path, request, fixture, dtype):
        spec = request.getfixturevalue(fixture)
        path = tmp_path / "chain.json"
        save(spec, path)
        loaded = load(path, ff_check_depth=4).payload
        assert loaded.P.matrix.dtype == dtype
        assert np.array_equal(loaded.P.matrix, spec.payload.P.matrix)
        # every entry is still a [re, im] pair, also for real projectors
        P = np.asarray(spec.payload.P.matrix, dtype=complex)
        want = [[[float(z.real), float(z.imag)] for z in row] for row in P]
        assert json.loads(path.read_text())["P"] == want

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "chain", "d": 2, "P": [[[1.0, 0.0]]]}))
        with pytest.raises(ValueError, match="missing field"):
            load(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "tree", "d": 2}))
        with pytest.raises(ValueError, match="unknown kind"):
            load(path)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(ValueError):
            load(path)

    def test_non_projector_matrix_rejected(self, tmp_path):
        zero2 = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        doc = {
            "kind": "chain",
            "d": 2,
            "P": [
                [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                [[0.0, 0.0], [-0.5, 0.0], [0.0, 0.0], [0.0, 0.0]],
                [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            ],
            "P_L": zero2,
            "P_R": zero2,
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load(path)

    @pytest.mark.parametrize(
        "doc",
        [
            {"kind": "cell_2d", "d": 2, "R": 1, "terms": [1]},
            {"kind": "chain", "d": None, "P": [], "P_L": [], "P_R": []},
            {"kind": "cell_2d", "d": 2, "R": 1,
             "terms": [{"shape": {"offsets": [5]}, "matrix": [[[1.0, 0.0]]]}]},
            {"kind": "cell_2d", "d": 2, "R": 1, "terms": [{"shape": {"offsets": [[0, 0]]}}]},
        ],
        ids=["term_not_an_object", "null_dimension", "offset_not_a_pair", "term_without_matrix"],
    )
    def test_malformed_fields_raise_value_error(self, tmp_path, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="bad.json"):
            load(path)

    def test_frustrated_model_file_rejected(self, tmp_path):
        eye4 = [
            [[1.0 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)
        ]
        zero2 = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        doc = {"kind": "chain", "d": 2, "P": eye4, "P_L": zero2, "P_R": zero2}
        path = tmp_path / "frustrated.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="frustration-freeness"):
            load(path, ff_check_depth=4)
