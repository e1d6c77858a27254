"""The benchmark's checks accept real outputs and reject a wrong gap, verdict or bound.

    python3 -m pytest perfbench

Each job runs once, in this process, on small inputs of the same kinds the
workloads use; every test then corrupts one field of a copy of the output.
"""

import copy

import pytest

import checks
import jobs
import worker

JOBS = {
    "thm1": jobs._cli("certify", "thm1", "--model", jobs._random_chain(5), "--n", "6"),
    "thm2": jobs._cli("certify", "thm2", "--model", "aklt", "--n", "5"),
    "gm": jobs._cli("certify", "gm", "--model", "singlet", "--n", "6", "--m", "14"),
    "profile": jobs._cli("profile", "--model", "singlet", "--n", "6"),
    "suite": jobs._suite(0, 2, n=3, margin_m=6, dims_cycle=[2], identity_ms_d2=[4]),
    "cell": jobs._cell({"random": {"d": 2, "n_terms": 2, "seed": 3}}, {"n": 4, "m2": 1, "R": 1}, prop2d=True),
    "commuting": jobs._cell({"commuting": 2}, {"n": 4, "m2": 1, "R": 1}, prop2d=False),
}


@pytest.fixture(scope="module")
def runs():
    out = {}
    for name, job in JOBS.items():
        out[name] = (job, worker.run_job(job), checks.references([job])[0])
    return out


def _problems(runs, name, corrupt=None):
    job, output, ref = runs[name]
    output = copy.deepcopy(output)
    if corrupt is not None:
        corrupt(output)
    return checks.check(job, output, ref)


@pytest.mark.parametrize("name", sorted(JOBS))
def test_real_output_passes(runs, name):
    assert _problems(runs, name) == []


def _flip_verdict(cert):
    cert["verdict"] = "inconclusive" if cert["verdict"] == "certified_gapped" else "certified_gapped"


def _scale(key, factor):
    def corrupt(cert):
        cert[key] *= factor

    return corrupt


def _set_bulk(value_of):
    def corrupt(cert):
        cert["constants"]["bulk_gap"] = value_of(cert["constants"]["bulk_gap"])

    return corrupt


CERT_CORRUPTIONS = {
    "verdict": _flip_verdict,
    "bound": _scale("bound", 1.001),
    "local_gap": _scale("local_gap", 1.01),
    "prefactor": _scale("prefactor", 1.01),
}


@pytest.mark.parametrize("name", ["thm1", "thm2", "gm"])
@pytest.mark.parametrize("field", sorted(CERT_CORRUPTIONS))
def test_chain_certificate_rejects(runs, name, field):
    def corrupt(output):
        CERT_CORRUPTIONS[field](output["result"])

    assert _problems(runs, name, corrupt)


@pytest.mark.parametrize("name", ["thm1", "thm2"])
def test_chain_rejects_wrong_bulk_gap(runs, name):
    def corrupt(output):
        _set_bulk(lambda g: g * (1 + 1e-6))(output["result"])

    assert _problems(runs, name, corrupt)


def test_thm1_rejects_wrong_edge_gap(runs):
    def corrupt(output):
        output["result"]["constants"]["edge_gap"] *= 1 + 1e-6

    assert _problems(runs, "thm1", corrupt)


def test_thm2_rejects_wrong_edge_average(runs):
    def corrupt(output):
        averages = output["result"]["constants"]["edge_averages"]
        averages[-1] *= 1 + 1e-6

    assert _problems(runs, "thm2", corrupt)


def test_singlet_certificate_is_rejected(runs):
    def corrupt(output):
        res = output["result"]
        res["local_gap"] = res["threshold"] + 1.0
        res["verdict"] = "certified_gapped"
        res["bound"] = res["prefactor"] * (res["local_gap"] - res["threshold"])
        output["exit_code"] = 0

    problems = _problems(runs, "gm", corrupt)
    assert any("singlet" in p for p in problems)


def test_exit_code_must_match_verdict(runs):
    def corrupt(output):
        output["exit_code"] = 0 if output["exit_code"] == 2 else 2

    assert _problems(runs, "thm1", corrupt)


@pytest.mark.parametrize("family", ["bulk", "left", "right"])
def test_profile_rejects_wrong_gap(runs, family):
    def corrupt(output):
        output["result"][family][-1] += 1e-6

    assert _problems(runs, "profile", corrupt)


SUITE_CORRUPTIONS = {
    "gamma_bulk_n": lambda rec: rec.update(gamma_bulk_n=rec["gamma_bulk_n"] * 1.01),
    "gamma_edge": lambda rec: rec.update(gamma_edge=rec["gamma_edge"] * 0.99),
    "rewrite_margin": lambda rec: rec.update(rewrite_margin=-1e-3 * rec["rewrite_scale"]),
    "identity_residual": lambda rec: rec.update(identity_residual=1e-9),
    "interchange_residual": lambda rec: rec.update(interchange_residual=1e-9),
    "window_margin": lambda rec: rec["windows"][0].update(margin=-1e-3 * rec["windows"][0]["scale"]),
    "window_kappa": lambda rec: rec["windows"][-1].update(kappa=rec["windows"][-1]["kappa"] * 1.01),
    "pass": lambda rec: rec.update({"pass": False}),
}


@pytest.mark.parametrize("field", sorted(SUITE_CORRUPTIONS))
def test_suite_rejects(runs, field):
    def corrupt(report):
        SUITE_CORRUPTIONS[field](report["instances"][-1])

    assert _problems(runs, "suite", corrupt)


@pytest.mark.parametrize("name", ["cell", "commuting"])
def test_cell_rejects_wrong_window_gap(runs, name):
    def corrupt(out):
        out["quasi1d"]["gaps"][0][1] *= 1 + 1e-6

    assert _problems(runs, name, corrupt)


@pytest.mark.parametrize("name", ["cell", "commuting"])
@pytest.mark.parametrize("field", ["verdict", "bound", "prefactor", "local_gap"])
def test_cell_certificate_rejects(runs, name, field):
    def corrupt(out):
        CERT_CORRUPTIONS[field](out["quasi1d"]["certificate"])

    assert _problems(runs, name, corrupt)


def test_prop2d_rejects_negative_margin(runs):
    def corrupt(out):
        out["prop2d"][1]["margin"] = -1e-3 * out["prop2d"][1]["scale"]

    assert _problems(runs, "cell", corrupt)


def test_malformed_output_is_a_problem(runs):
    job, _, ref = runs["thm1"]
    assert checks.check(job, {"exit_code": 0, "result": {}}, ref)
