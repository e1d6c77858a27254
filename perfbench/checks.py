"""Checks of every job output against computations made apart from the program.

* Chain gaps are compared with the benchmark's own exact diagonalization of
  the Kronecker-built Hamiltonian, wherever its dimension is at most
  ``ED_MAX_DIM_REAL`` (real models) or ``ED_MAX_DIM_COMPLEX``; the AKLT and
  singlet projectors are built here too, random chains come from the
  program's generator (they are the input).
* Singlet-chain gaps equal 1 - cos(pi/m) and never certify.
* Every certificate's verdict equals ``local_gap > threshold`` and its bound
  equals ``prefactor * (local_gap - threshold)``; prefactors and thresholds
  with a closed form are recomputed.
* Every window gap of a non-interacting 2D cell equals the smallest positive
  eigenvalue of the one-site sum of its terms (1 for the commuting cell).
* Suite instances meet the identities and inequalities within the suite's
  tolerances, with their gaps recomputed by our own diagonalization.

``references`` computes what the checks need once per run; ``check``
returns a list of problems (empty when the output is right).
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

ED_MAX_DIM_REAL = 2187
ED_MAX_DIM_COMPLEX = 1024
POSITIVE_RTOL = 1e-9  # eigenvalues above this share of max(1, lambda_max) count as gaps
GAP_RTOL = 1e-8  # agreement of gaps, relative to max(1, lambda_max)
REL_TOL = 1e-12  # agreement of quantities the certificate derives by arithmetic
IDENTITY_RTOL = 1e-12  # the inequality suite's tolerances
MARGIN_RTOL = 1e-9


# ---------------------------------------------------------------------------
# our own exact diagonalization
# ---------------------------------------------------------------------------

def _spin1() -> list[np.ndarray]:
    s = math.sqrt(2.0)
    sp = np.array([[0, s, 0], [0, 0, s], [0, 0, 0]], dtype=complex)
    return [(sp + sp.T) / 2, (sp - sp.T) / 2j, np.diag([1.0, 0.0, -1.0]).astype(complex)]


def aklt_projector() -> np.ndarray:
    """Projector onto total spin 2 of two spin-1 sites (eigenvalue 6 of S_tot^2)."""
    eye = np.eye(3)
    total = [np.kron(s, eye) + np.kron(eye, s) for s in _spin1()]
    casimir = sum(t @ t for t in total)
    if np.abs(casimir.imag).max() > 1e-12:
        raise ValueError("S_tot^2 of two spin-1 sites should be real")
    vals, vecs = np.linalg.eigh(casimir.real)
    spin2 = vecs[:, np.abs(vals - 6.0) < 1e-9]
    return spin2 @ spin2.conj().T


def singlet_projector() -> np.ndarray:
    s = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
    return np.outer(s, s)


def chain_spectrum(P: np.ndarray, P_L, P_R, d: int, m: int) -> np.ndarray | None:
    """Eigenvalues of the m-site open chain, or None above the size cap."""
    dim = d**m
    real = all(np.all(np.imag(x) == 0) for x in (P, P_L, P_R) if x is not None)
    if dim > (ED_MAX_DIM_REAL if real else ED_MAX_DIM_COMPLEX):
        return None
    dtype = float if real else complex
    H = np.zeros((dim, dim), dtype=dtype)
    for i in range(m - 1):
        H += np.kron(np.kron(np.eye(d**i), np.asarray(P, dtype=dtype)), np.eye(d ** (m - i - 2)))
    if P_L is not None:
        H += np.kron(np.asarray(P_L, dtype=dtype), np.eye(d ** (m - 1)))
    if P_R is not None:
        H += np.kron(np.eye(d ** (m - 1)), np.asarray(P_R, dtype=dtype))
    return np.linalg.eigvalsh(H)


def spectral_gap(vals: np.ndarray) -> tuple[float, float]:
    """(smallest positive eigenvalue, max(1, lambda_max))."""
    scale = max(1.0, float(vals[-1]))
    return float(vals[vals > POSITIVE_RTOL * scale].min()), scale


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

class ChainReference:
    """Own gaps of one chain model by family and length, computed on demand."""

    def __init__(self, name: str, P, P_L, P_R, d: int):
        self.name, self.P, self.P_L, self.P_R, self.d = name, P, P_L, P_R, d
        self._gaps: dict = {}

    @classmethod
    def of(cls, name: str, model) -> "ChainReference":
        """From a program ChainModel (its projector matrices are the input)."""
        boundary = lambda p: None if p.is_zero else p.matrix  # noqa: E731
        return cls(name, model.P.matrix, boundary(model.P_L), boundary(model.P_R), model.d)

    def gap(self, family: str, m: int):
        """(gap, scale) of the bulk/left/right chain of length m, or None if too big."""
        if (family == "left" and self.P_L is None) or (family == "right" and self.P_R is None):
            family = "bulk"
        key = (family, m)
        if key not in self._gaps:
            P_L = self.P_L if family == "left" else None
            P_R = self.P_R if family == "right" else None
            vals = chain_spectrum(self.P, P_L, P_R, self.d, m)
            self._gaps[key] = None if vals is None else spectral_gap(vals)
        return self._gaps[key]

    def edge(self, upto: int):
        """(min(1, left and right gaps for lengths 2..upto), scale), or None if any is too big."""
        values, scale = [1.0], 1.0
        for m in range(2, upto + 1):
            for family in ("left", "right"):
                g = self.gap(family, m)
                if g is None:
                    return None
                values.append(g[0])
                scale = max(scale, g[1])
        return min(values), scale


def _chain_model(name: str, cache: dict) -> ChainReference:
    if name in cache:
        return cache[name]
    if name == "aklt":
        ref = ChainReference(name, aklt_projector(), None, None, 3)
    elif name == "singlet":
        ref = ChainReference(name, singlet_projector(), None, None, 2)
    elif name.startswith("random:"):
        from ffgap import models

        kw = dict(part.split("=") for part in name[len("random:"):].split(","))
        # depth 6 keeps the FF check dense; an instance the CLI's depth-8 check
        # regenerated would differ from this one and fail the gap comparison
        spec = models.random_ff(
            int(kw["d"]), int(kw["rank_bulk"]), int(kw["rank_boundary"]), int(kw["seed"]),
            ff_check_depth=6,
        )
        ref = ChainReference.of(name, spec.payload)
    else:
        raise ValueError(f"no reference for chain model {name!r}")
    cache[name] = ref
    return ref


def _suite_plan(job: dict) -> list[dict]:
    """The suite's instance plan, rebuilt from the job's configuration."""
    cfg = job["config"]
    dims = cfg["dims_cycle"]
    counters = {2: 0, 3: 0}
    plan = []
    for i in range(job["trials"]):
        d = dims[i % len(dims)]
        ms = cfg["identity_ms_d2"] if d == 2 else cfg["identity_ms_d3"]
        plan.append(
            {
                "d": d,
                "identity_m": ms[counters[d] % len(ms)],
                "rank_bulk": 1 if d == 2 else 2,
                "rank_boundary": 0 if d == 2 else 1,
                "seed": job["seed"] * 10007 + i,
            }
        )
        counters[d] += 1
    return plan


def _cell_reference(model: dict) -> dict:
    """The one-site sum h of a non-interacting cell and its smallest positive eigenvalue."""
    if "random" in model:
        from ffgap import models

        cell = models.random_cell_2d(**model["random"]).payload
        if any(len(shape.offsets) != 1 for shape, _ in cell.terms):
            raise ValueError("cell has multi-site terms; the one-site reference does not apply")
        h = sum(proj.matrix for _, proj in cell.terms)
    else:
        d = model["commuting"]
        h = np.zeros((d, d))
        h[0, 0] = 1.0
    vals = np.linalg.eigvalsh(h)
    gap, _ = spectral_gap(vals)
    return {"gap": gap, "lambda_max": float(vals[-1])}


def references(job_list: list[dict]) -> list:
    chains: dict = {}
    out = []
    for job in job_list:
        if job["kind"] == "cli":
            out.append(_chain_model(_argv_value(job["argv"], "--model"), chains))
        elif job["kind"] == "suite":
            from ffgap import models

            refs = []
            for entry in _suite_plan(job):
                spec = models.random_ff(
                    entry["d"], entry["rank_bulk"], entry["rank_boundary"], entry["seed"],
                    ff_check_depth=entry["identity_m"],
                )
                refs.append((entry, ChainReference.of(spec.name, spec.payload)))
            out.append(refs)
        else:
            out.append(_cell_reference(job["model"]))
    return out


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _argv_value(argv, flag):
    return argv[argv.index(flag) + 1]


def describe(job: dict) -> str:
    if job["kind"] == "cli":
        return "ffgap " + " ".join(a for a in job["argv"] if a != "--no-timestamp")
    if job["kind"] == "suite":
        return f"suite seed={job['seed']} trials={job['trials']} {job['config']}"
    return f"cell {job['model']}"


def _close(errors, label, got, want, rtol=REL_TOL, atol=0.0):
    if not math.isclose(got, want, rel_tol=rtol, abs_tol=atol):
        errors.append(f"{label}: got {got!r}, expected {want!r}")


def _gap_close(errors, label, got, ref):
    """Compare a gap with a reference (gap, scale) pair, if there is one."""
    if ref is not None:
        _close(errors, label, got, ref[0], rtol=0.0, atol=GAP_RTOL * ref[1])


def certificate_errors(cert: dict) -> list[str]:
    """The verdict and bound must follow from local_gap, threshold and prefactor."""
    errors = []
    gap, threshold = cert["local_gap"], cert["threshold"]
    verdict = "certified_gapped" if gap > threshold else "inconclusive"
    if cert["verdict"] != verdict:
        errors.append(f"verdict {cert['verdict']!r} but local_gap {gap!r} vs threshold {threshold!r}")
    bound = cert["prefactor"] * (gap - threshold)
    _close(errors, "bound", cert["bound"], bound)
    return errors


def _singlet_gap(m: int) -> float:
    return 1.0 - math.cos(math.pi / m)


def _check_cli(job, output, ref: ChainReference) -> list[str]:
    argv = [a for a in job["argv"] if a != "--no-timestamp"]
    res = output["result"]
    n = int(_argv_value(argv, "--n"))
    singlet = ref.name == "singlet"
    errors = []

    def bulk_ref(m):
        return (_singlet_gap(m), 1.0) if singlet else ref.gap("bulk", m)

    if argv[0] == "profile":
        for family, values in (("bulk", res["bulk"]), ("left", res["left"]), ("right", res["right"])):
            for m, value in enumerate(values, start=2):
                want = bulk_ref(m) if (family == "bulk" or singlet) else ref.gap(family, m)
                _gap_close(errors, f"{family} gap at m={m}", value, want)
        _close(errors, "edge_min", res["edge_min"], min([1.0] + res["left"] + res["right"]))
        return errors

    criterion = argv[1]
    errors += certificate_errors(res)
    certified = res["verdict"] == "certified_gapped"
    if output["exit_code"] != (0 if certified else 2):
        errors.append(f"exit code {output['exit_code']} for verdict {res['verdict']!r}")
    if singlet and certified:
        errors.append("the gapless singlet chain was certified")
    if criterion == "gm":
        m = int(_argv_value(argv, "--m"))
        _gap_close(errors, f"bulk gap at n={n}", res["local_gap"], bulk_ref(n))
        _close(errors, "threshold", res["threshold"], 6.0 / (n * (n + 1)))
        _close(errors, "prefactor", res["prefactor"], (5.0 / 6.0) * (n * n + n) / (n - 4))
        if res["inputs"]["m"] != m:
            errors.append(f"m {res['inputs']['m']} != {m}")
        return errors

    constants = res["constants"]
    bulk = constants["bulk_gap"]
    _gap_close(errors, f"bulk gap at n={n}", bulk, bulk_ref(n))
    _close(errors, "prefactor", res["prefactor"], 1.0 / (2**8 * math.sqrt(6.0 * n)))
    if criterion == "thm1":
        edge = constants["edge_gap"]
        if singlet:
            _gap_close(errors, "edge gap", edge, (min(1.0, _singlet_gap(n - 1)), 1.0))
        else:
            _gap_close(errors, "edge gap", edge, ref.edge(n - 1))
        _close(errors, "local_gap", res["local_gap"], min(bulk, edge))
        return errors

    # thm2: suffix-weighted averages of the edge gaps e_0 (bare boundary), e_1.. (lengths 2..n-1)
    x = constants["x"]
    c = [n**1.5 + x * ((n - 2) * j - j * j) for j in range(n - 1)]
    e = [min(1.0 if ref.P_L is not None else math.inf, 1.0 if ref.P_R is not None else math.inf)]
    for m in range(2, n):
        left, right = ref.gap("left", m), ref.gap("right", m)
        e.append(None if left is None or right is None else min(left[0], right[0]))
    averages = constants["edge_averages"]
    for j in range(n - 1):
        terms = e[j : n - 1]
        if None in terms:
            continue
        want = sum(w * v for w, v in zip(c, terms)) / sum(c[: n - 1 - j])
        if math.isinf(want):
            if averages[j] != want:
                errors.append(f"edge average {j}: got {averages[j]!r}, expected inf")
        else:
            _close(errors, f"edge average {j}", averages[j], want, rtol=0.0, atol=GAP_RTOL)
    _close(errors, "local_gap", res["local_gap"], min([bulk] + list(averages)))
    return errors


def _check_suite(job, report, refs) -> list[str]:
    errors = []
    instances = report["instances"]
    if len(instances) != len(refs):
        return [f"{len(instances)} instances, expected {len(refs)}"]
    if not report["pass"]:
        errors.append("suite reports pass=false")
    n = job["config"]["n"]
    m = job["config"]["margin_m"]
    c0 = 1.0 if n == 3 else n**1.5
    for rec, (entry, ref) in zip(instances, refs):
        tag = rec.get("name", "?")
        for key in ("d", "identity_m", "rank_bulk", "rank_boundary"):
            if rec[key] != entry[key]:
                errors.append(f"{tag}: {key} {rec[key]} != {entry[key]}")
        if rec.get("ff") is not True:
            errors.append(f"{tag}: frustration-freeness precondition not met")
            continue
        for key in ("identity_residual", "interchange_residual"):
            if not rec[key] <= IDENTITY_RTOL:
                errors.append(f"{tag}: {key} {rec[key]!r} > {IDENTITY_RTOL}")
        if not rec["rewrite_scale"] >= 1.0:
            errors.append(f"{tag}: rewrite scale {rec['rewrite_scale']!r} < 1")
        if not rec["rewrite_margin"] >= -MARGIN_RTOL * rec["rewrite_scale"]:
            errors.append(f"{tag}: rewrite margin {rec['rewrite_margin']!r} below tolerance")
        bulk = ref.gap("bulk", n)
        edge = ref.edge(n - 1)
        _gap_close(errors, f"{tag}: gamma_bulk_n", rec["gamma_bulk_n"], bulk)
        _gap_close(errors, f"{tag}: gamma_edge", rec["gamma_edge"], edge)
        windows = rec["windows"]
        if [w["l"] for w in windows] != list(range(1, m + 2)):
            errors.append(f"{tag}: windows cover {[w['l'] for w in windows]}")
        for w in windows:
            is_bulk = w["l"] <= m - n + 1
            if w["regime"] != ("bulk" if is_bulk else "edge"):
                errors.append(f"{tag}: window {w['l']} regime {w['regime']!r}")
            kappa = c0 * (bulk[0] if is_bulk else edge[0])
            _close(errors, f"{tag}: window {w['l']} kappa", w["kappa"], kappa, rtol=0.0, atol=c0 * GAP_RTOL * bulk[1])
            if not w["margin"] >= -MARGIN_RTOL * w["scale"]:
                errors.append(f"{tag}: window {w['l']} margin {w['margin']!r} below tolerance")
        for key in ("identity_pass", "interchange_pass", "rewrite_pass", "windows_pass", "pass"):
            if rec[key] is not True:
                errors.append(f"{tag}: {key} is {rec[key]!r}")
    return errors


def _check_cell(job, out, ref) -> list[str]:
    errors = []
    want = ref["gap"]
    if "commuting" in job["model"] and want != 1.0:
        errors.append(f"commuting cell reference gap {want!r} != 1")

    q = job["quasi1d"]
    n = q["n"]
    window = list(range(n // 2, n + 1))
    gaps = out["quasi1d"]["gaps"]
    if [g[0] for g in gaps] != window:
        errors.append(f"quasi-1D windows {[g[0] for g in gaps]} != {window}")
    largest = max(1.0, n * q["m2"] * ref["lambda_max"])
    for l, gap in gaps:
        _close(errors, f"window {l} gap", gap, want, rtol=0.0, atol=GAP_RTOL * largest)
    cert = out["quasi1d"]["certificate"]
    k = cert["constants"]
    errors += certificate_errors(cert)
    _close(errors, "quasi-1D local_gap", cert["local_gap"], min(g for _, g in gaps))
    _close(errors, "quasi-1D C2", k["C2"], 4.0 * math.sqrt(6.0) * k["C2_1d"])
    _close(errors, "quasi-1D threshold", cert["threshold"], k["C2"] * n**-1.5)
    _close(errors, "quasi-1D prefactor", cert["prefactor"], k["C1_1d"] / (2**9 * k["C2_1d"] * math.sqrt(6.0 * n)))
    provenance = [p["gap"] for p in cert["provenance"]]
    if provenance != [g for _, g in gaps]:
        errors.append("quasi-1D provenance gaps differ from the window gaps")

    if job["prop2d"]:
        for i, res in enumerate(out["prop2d"]):
            ok = res["margin"] >= -MARGIN_RTOL * res["scale"]
            if not (ok and res["pass"] is True and res["scale"] >= 1.0):
                errors.append(f"2D margin {i}: margin {res['margin']!r}, scale {res['scale']!r}, pass {res['pass']!r}")
    return errors


def check(job: dict, output, ref) -> list[str]:
    """Problems with one job's output (empty when it is right)."""
    try:
        if job["kind"] == "cli":
            return _check_cli(job, output, ref)
        if job["kind"] == "suite":
            return _check_suite(job, output, ref)
        return _check_cell(job, output, ref)
    except (KeyError, TypeError, IndexError, ValueError) as err:
        return [f"malformed output: {type(err).__name__}: {err}"]
