import json

import numpy as np
import pytest

from sjkit.cli import main
from sjkit.geometry import MetricParams, metric_sj
from sjkit.groups import sample_element
from sjkit.serialize import decode_point, encode_element, encode_matrix, encode_point
from sjkit.spaces import act_jacobi, sample_point
from sjkit.suites import run_suite
from test_serialize import MALFORMED, PLAIN_MALFORMED


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_transform_partial_cayley_origin(capsys):
    code, out, _ = run_cli(
        capsys, "transform", "--map", "partial-cayley",
        "--input", '{"w":[[[0,0]]],"eta":[[[0,0]]]}',
    )
    assert code == 0
    assert json.loads(out) == {"omega": [[[0.0, 1.0]]], "z": [[[0.0, 0.0]]]}


def test_transform_cayley_scalar(capsys):
    code, out, _ = run_cli(capsys, "transform", "--map", "cayley", "--input", '{"w":[[[0,0.5]]]}')
    assert code == 0
    val = json.loads(out)["omega"][0][0]
    assert val[0] == pytest.approx(-0.8)
    assert val[1] == pytest.approx(0.6)


def test_transform_roundtrip(capsys):
    p = sample_point("siegel_jacobi", 2, 1, seed=8)
    code, out, _ = run_cli(
        capsys, "transform", "--map", "partial-cayley-inv",
        "--input", json.dumps(encode_point(p)),
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "transform", "--map", "partial-cayley", "--input", out)
    assert code == 0
    back = decode_point(json.loads(out))
    assert np.max(np.abs(back.omega - p.omega)) < 1e-10
    assert np.max(np.abs(back.z - p.z)) < 1e-10


def test_transform_action_matches_library(capsys):
    a = sample_element("jacobi", 2, 1, seed=9)
    p = sample_point("siegel_jacobi", 2, 1, seed=10)
    payload = json.dumps({"element": encode_element(a), "point": encode_point(p)})
    code, out, _ = run_cli(capsys, "transform", "--map", "act-jacobi", "--input", payload)
    assert code == 0
    got = decode_point(json.loads(out))
    want = act_jacobi(a, p)
    assert np.max(np.abs(got.omega - want.omega)) < 1e-14
    assert np.max(np.abs(got.z - want.z)) < 1e-14


@pytest.mark.parametrize("kind", ["siegel", "disk", "siegel-jacobi", "disk-jacobi", "sp",
                                  "heisenberg", "jacobi", "gstar", "gstarj", "kstarj"])
def test_sample_matches_library(capsys, kind):
    # with no --scale, each sampler's own default
    code, out, err = run_cli(capsys, "sample", "--kind", kind, "--g", "2", "--h", "1",
                             "--seed", "5")
    assert code == 0 and err == ""
    if "-" in kind or kind in ("siegel", "disk"):
        assert json.loads(out) == encode_point(sample_point(kind.replace("-", "_"), 2, 1, 5))
    else:  # an element's default scale is 0.8
        assert json.loads(out) == encode_element(sample_element(kind, 2, 1, 5, scale=0.8))


def test_metric_matches_library(capsys):
    p = sample_point("siegel_jacobi", 1, 1, seed=11)
    payload = json.dumps(
        {
            "point": encode_point(p),
            "tangent": {"dbase": encode_matrix([[0.2 - 0.3j]]),
                        "dfiber": encode_matrix([[0.4 + 0.1j]])},
        }
    )
    code, out, _ = run_cli(capsys, "metric", "--which", "sj", "--params", "2,0.5",
                           "--input", payload)
    assert code == 0
    from sjkit.geometry import TangentVector

    want = metric_sj(MetricParams(2, 0.5), p, TangentVector([[0.2 - 0.3j]], [[0.4 + 0.1j]]))
    assert json.loads(out)["value"] == pytest.approx(want)


def test_laplacian_command(capsys):
    code, out, _ = run_cli(
        capsys, "laplacian", "--which", "siegel", "--field", "logdet-y",
        "--input", '{"omega":[[[0.3,1.2]]]}',
    )
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(-1.0, abs=1e-4)


# the test fields each Laplacian takes: the Siegel one only the functions of Omega alone
_LAPLACIAN_FIELDS = {
    "siegel": {"trace-re-base", "logdet-y"},
    "disk": {"logdet-disk"},
    "sj": {"trace-re-base", "logdet-y", "trace-yvv", "re-trace-z", "abs2-trace-z"},
}


@pytest.mark.parametrize("field", ["trace-re-base", "logdet-y", "trace-yvv", "re-trace-z",
                                   "abs2-trace-z", "logdet-disk"])
@pytest.mark.parametrize("which", sorted(_LAPLACIAN_FIELDS))
def test_the_laplacian_command_takes_only_the_fields_of_its_model(capsys, which, field):
    kind = {"siegel": "siegel", "disk": "disk", "sj": "siegel_jacobi"}[which]
    point = json.dumps(encode_point(sample_point(kind, 2, 1, seed=3)))
    code, out, err = run_cli(capsys, "laplacian", "--which", which, "--field", field,
                             "--input", point)
    if field in _LAPLACIAN_FIELDS[which]:
        assert code == 0 and err == "" and np.isfinite(json.loads(out)["value"])
    else:
        assert code == 2 and out == "" and f"input error: field {field!r}" in err


@pytest.mark.parametrize("which, field, point, error", [
    # cond(Im omega) = 1e5: the stencil's step is too coarse
    ("siegel", "logdet-y", '{"omega":[[[0,1],[0,0]],[[0,0],[0,1e-5]]]}',
     "Im(omega): condition number 1.000e+05"),
    ("siegel", "logdet-y", '{"omega":[[[0,1e-5]]]}', None),  # near the boundary, well conditioned
    # 1 - |w|^2 = 2e-5: a field forming it loses eps / 2e-5
    ("disk", "logdet-disk", '{"w":[[[0.99999,0]]]}', "I - W conj(W): 4/lambda_min 2.000e+05"),
    ("disk", "logdet-disk", '{"w":[[[0.6,0.7]]]}', None),
])
def test_laplacian_command_refuses_only_ill_conditioned_points(capsys, which, field, point, error):
    got, out, err = run_cli(capsys, "laplacian", "--which", which, "--field", field,
                            "--input", point)
    if error:
        assert got == 4 and out == "" and f"numeric error: {error}" in err
    else:
        assert got == 0 and json.loads(out)["value"] == pytest.approx(-1.0, abs=1e-4)


def test_decompose_command(capsys):
    a = sample_element("gstarj", 1, 1, seed=12)
    p = sample_point("disk_jacobi", 1, 1, seed=13)
    payload = json.dumps({"element": encode_element(a), "point": encode_point(p)})
    code, out, _ = run_cli(capsys, "decompose", "--input", payload)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"pplus", "k", "pminus"}
    from sjkit.decomp import decompose_full

    want = decompose_full(a, p)
    got = np.array(doc["k"]["kappa_star"])[0, 0]
    assert complex(got[0], got[1]) == pytest.approx(complex(want.kappa_star[0, 0]))


def test_jfactor_command(capsys):
    a = sample_element("gstarj", 1, 1, seed=14)
    p = sample_point("disk_jacobi", 1, 1, seed=15)
    payload = json.dumps({"element": encode_element(a), "point": encode_point(p)})
    code, out, _ = run_cli(capsys, "jfactor", "--index-matrix", "[[1]]", "--rep", "det:2",
                           "--input", payload)
    assert code == 0
    from sjkit.automorphy import IndexMatrix, Representation, j_factor

    want = j_factor(IndexMatrix(np.eye(1)), Representation("det_power", 2), a, p)
    got = json.loads(out)["matrix"][0][0]
    assert complex(got[0], got[1]) == pytest.approx(complex(want[0, 0]))


def test_verify_matches_library_and_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "compat-37", "--g", "1", "--h", "1",
                           "--trials", "25", "--seed", "42")
    assert code == 0
    doc = json.loads(out)
    want = run_suite("compat-37", 1, 1, 25, 42).to_dict()
    assert doc == json.loads(json.dumps(want))
    # an impossible tolerance forces a verification failure
    code, out, _ = run_cli(capsys, "verify", "--suite", "compat-37", "--g", "1", "--h", "1",
                           "--trials", "5", "--seed", "42", "--tol", "1e-30")
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    assert len(doc["failures"]) == 5


def test_verify_all_aggregates(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--g", "1", "--h", "1",
                           "--trials", "2", "--seed", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert len(doc["reports"]) == 9


def test_exit_code_malformed_input(capsys):
    code, _, err = run_cli(capsys, "transform", "--map", "cayley", "--input", "not json")
    assert code == 2 and "input error" in err
    code, _, err = run_cli(capsys, "transform", "--map", "cayley", "--input", '{"w":[[1,2]]}')
    assert code == 2


@pytest.mark.parametrize(
    "argv, what",
    [
        (("transform", "--map", "act-jacobi-disk"), "action"),
        (("decompose",), "decompose"),
        (("jfactor", "--index-matrix", "[[1]]"), "jfactor"),
    ],
    ids=["transform", "decompose", "jfactor"],
)
def test_element_point_commands_require_point(capsys, argv, what):
    payload = json.dumps({"element": encode_element(sample_element("gstarj", 1, 1, seed=3))})
    code, out, err = run_cli(capsys, *argv, "--input", payload)
    assert code == 2 and out == "" and "input error" in err
    assert f"{what} input must be" in err


def test_laplacian_command_of_a_field_that_is_not_finite_is_a_domain_error(capsys):
    # det(Y) of Omega = 1e150 i I_4 overflows, so logdet-y is inf at every stencil point
    point = json.dumps({"omega": encode_matrix(1e150j * np.eye(4)),
                        "z": encode_matrix(np.zeros((1, 4)))})
    code, out, err = run_cli(capsys, "laplacian", "--which", "sj", "--field", "logdet-y",
                             "--input", point)
    assert code == 3 and out == ""
    assert "domain error: siegel-jacobi laplacian: not finite, from a NaN or inf field" in err


def test_exit_code_domain_violation(capsys):
    code, _, err = run_cli(capsys, "transform", "--map", "cayley", "--input", '{"w":[[[2,0]]]}')
    assert code == 3 and "domain error" in err


def test_cayley_of_a_huge_finite_point_names_the_disk_condition(capsys):
    # W conj(W) overflows on purpose; main runs the command without numpy's warnings
    code, out, err = run_cli(capsys, "transform", "--map", "cayley",
                             "--input", '{"w": [[[1e-320, 1e308]]]}')
    assert code == 3 and out == ""
    assert "I - W conj(W) is not positive definite" in err and "must be finite" not in err


def test_an_overflow_inside_a_check_prints_only_the_error_line():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import sjkit

    env = dict(os.environ, PYTHONPATH=str(Path(sjkit.__file__).parents[1]))
    r = subprocess.run([sys.executable, "-m", "sjkit", "transform", "--map", "cayley",
                        "--input", '{"w": [[[1e-320, 1e308]]]}'],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 3 and r.stdout == ""
    assert r.stderr == "sjkit: domain error: I - W conj(W) is not positive definite\n"


def test_jfactor_power_that_overflows_is_a_domain_error(capsys):
    a = sample_element("gstarj", 1, 1, seed=1)
    p = sample_point("disk_jacobi", 1, 1, seed=5)
    payload = json.dumps({"element": encode_element(a), "point": encode_point(p)})
    code, out, err = run_cli(capsys, "jfactor", "--index-matrix", "[[1]]", "--rep", "det:-100000",
                             "--input", payload)
    assert code == 3 and out == ""
    assert "domain error: det^-100000 out of double-precision range" in err
    code, _, _ = run_cli(capsys, "jfactor", "--index-matrix", "[[1]]", "--rep", "det:-1000",
                         "--input", payload)
    assert code == 0


def test_sample_rejects_a_scale_above_one_for_symplectic_kinds(capsys):
    code, out, err = run_cli(capsys, "sample", "--kind", "sp", "--g", "2", "--scale", "50",
                             "--seed", "0")
    assert code == 3 and out == "" and "scale must be at most 1" in err


def test_sample_rejects_a_nan_scale_as_a_domain_error(capsys):
    code, out, err = run_cli(capsys, "sample", "--kind", "disk", "--scale", "nan")
    assert code == 3 and out == "" and "_SCALE_MAX" in err


def test_exit_code_conditioning(capsys):
    m = [[1e13, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1e-13, 0], [0, 0, 0, 1]]
    payload = json.dumps(
        {
            "element": {"kind": "sp", "m": encode_matrix(np.array(m))},
            "point": {"omega": encode_matrix(1j * np.eye(2))},
        }
    )
    code, _, err = run_cli(capsys, "transform", "--map", "act-siegel", "--input", payload)
    assert code == 4 and "condition number" in err


def test_exit_code_internal_error(monkeypatch, capsys):
    import sjkit.cli

    def boom(args):
        raise ValueError("unexpected")

    monkeypatch.setattr(sjkit.cli, "_cmd_sample", boom)
    code, out, err = run_cli(capsys, "sample", "--kind", "sp")
    assert code == 4 and out == ""
    assert "internal error: ValueError: unexpected" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "no-such-suite"])
    assert exc.value.code == 2


def test_stdin_input(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO('{"w":[[[0,0]]]}'))
    code = main(["transform", "--map", "cayley"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out) == {"omega": [[[0.0, 1.0]]]}


def test_fast_mode_env_disables_validation():
    """SJK_FAST no longer switches validation off: the variable is ignored."""
    import os
    import subprocess as sp
    import sys as _sys
    from pathlib import Path

    import sjkit

    snippet = (
        "import numpy as np\n"
        "from sjkit.groups import SymplecticMatrix\n"
        "from sjkit.numkit import DomainError\n"
        "try:\n"
        "    SymplecticMatrix(2 * np.eye(2))\n"
        "except DomainError:\n"
        "    print('rejected')\n"
    )
    env = dict(os.environ, SJK_FAST="1", PYTHONPATH=str(Path(sjkit.__file__).parents[1]))
    r = sp.run([_sys.executable, "-c", snippet], capture_output=True, text=True, env=env)
    assert r.returncode == 0 and "rejected" in r.stdout


def test_exit_code_malformed_rep_and_params(capsys):
    a = sample_element("gstarj", 1, 1, seed=14)
    p = sample_point("disk_jacobi", 1, 1, seed=15)
    payload = json.dumps({"element": encode_element(a), "point": encode_point(p)})
    for rep in ("det:x", "det:1.5", "det:"):
        code, out, err = run_cli(capsys, "jfactor", "--index-matrix", "[[1]]", "--rep", rep,
                                 "--input", payload)
        assert code == 2 and out == "" and "input error" in err
    pt = sample_point("siegel_jacobi", 1, 1, seed=3)
    payload = json.dumps({"point": encode_point(pt),
                          "tangent": {"dbase": encode_matrix([[0.2 - 0.3j]]),
                                      "dfiber": encode_matrix([[0.4 + 0.1j]])}})
    code, _, _ = run_cli(capsys, "metric", "--which", "sj", "--params", "2,0.5",
                         "--input", payload)
    assert code == 0
    for params in ("a,b", "1", "1,2,3", "1,"):
        code, out, err = run_cli(capsys, "metric", "--which", "sj", "--params", params,
                                 "--input", payload)
        assert code == 2 and out == "" and "input error" in err


def test_verify_rejects_empty_run_and_bad_tolerance(capsys):
    base = ["verify", "--suite", "compat-37", "--seed", "1"]
    for extra in (["--trials", "0"], ["--trials", "-3"], ["--tol", "nan"], ["--tol", "inf"]):
        code, out, err = run_cli(capsys, *base, *extra)
        assert code == 3 and out == "" and "domain error" in err


def _payloads():
    """(argv, payload) for every subcommand that reads --input, at (g, h) = (2, 1)."""
    pt = {k: encode_point(sample_point(k, 2, 1, seed=20)) for k in
          ("siegel", "disk", "siegel_jacobi", "disk_jacobi")}
    el = {k: encode_element(sample_element(k, 2, 1, seed=21)) for k in
          ("sp", "gstar", "jacobi", "gstarj")}
    tangent = {"dbase": encode_matrix(np.eye(2)), "dfiber": encode_matrix(np.ones((1, 2)))}
    for m, kind in (("cayley", "disk"), ("cayley-inv", "siegel"),
                    ("partial-cayley", "disk_jacobi"), ("partial-cayley-inv", "siegel_jacobi")):
        yield ("transform", "--map", m), pt[kind]
    for m, e, kind in (("act-siegel", "sp", "siegel"), ("act-disk", "gstar", "disk"),
                       ("act-jacobi", "jacobi", "siegel_jacobi"),
                       ("act-jacobi-disk", "gstarj", "disk_jacobi")):
        yield ("transform", "--map", m), {"element": el[e], "point": pt[kind]}
    for which in ("siegel", "disk", "sj"):
        kind = {"siegel": "siegel", "disk": "disk", "sj": "siegel_jacobi"}[which]
        v = tangent if which == "sj" else {"dbase": tangent["dbase"]}
        yield ("metric", "--which", which), {"point": pt[kind], "tangent": v}
    yield ("laplacian", "--which", "siegel", "--field", "logdet-y"), pt["siegel"]
    yield ("laplacian", "--which", "sj", "--field", "trace-yvv"), pt["siegel_jacobi"]
    yield ("decompose",), {"element": el["gstarj"], "point": pt["disk_jacobi"]}
    yield ("jfactor", "--index-matrix", "[[1]]"), {"element": el["gstarj"], "point": pt["disk_jacobi"]}


def _with_matrix(doc, matrix):
    """Copies of the JSON object doc, each with one of its matrices replaced by matrix."""
    for key, value in doc.items():
        if isinstance(value, dict):
            for inner in _with_matrix(value, matrix):
                yield {**doc, key: inner}
        elif isinstance(value, list):
            yield {**doc, key: matrix}


def test_every_input_matrix_rejects_malformed_matrices_as_input_errors(capsys):
    """Each matrix of each --input payload and the --index-matrix, replaced by each
    malformed matrix, ends in an input (2) or domain (3) error, never an internal one."""
    runs = 0
    for argv, payload in _payloads():
        assert main([*argv, "--input", json.dumps(payload)]) == 0, argv
        for _, matrix, _ in MALFORMED:
            for doc in _with_matrix(payload, matrix):
                code = main([*argv, "--input", json.dumps(doc)])
                err = capsys.readouterr().err
                assert code in (2, 3) and "internal error" not in err, (argv, doc, err)
                runs += 1
        if argv[0] == "jfactor":
            for _, matrix, _ in MALFORMED + PLAIN_MALFORMED:
                code = main(["jfactor", "--index-matrix", json.dumps(matrix),
                             "--input", json.dumps(payload)])
                err = capsys.readouterr().err
                assert code in (2, 3) and "internal error" not in err, (matrix, err)
                runs += 1
    assert runs > 500


# the point kinds each map, metric and Laplacian takes; a Jacobi point is taken in its base
# where the command's own model has no fiber
_TAKES = {
    ("transform", "--map", "cayley"): ("disk", "disk_jacobi"),
    ("transform", "--map", "cayley-inv"): ("siegel", "siegel_jacobi"),
    ("transform", "--map", "partial-cayley"): ("disk_jacobi",),
    ("transform", "--map", "partial-cayley-inv"): ("siegel_jacobi",),
    ("transform", "--map", "act-siegel"): ("siegel", "siegel_jacobi"),
    ("transform", "--map", "act-disk"): ("disk", "disk_jacobi"),
    ("transform", "--map", "act-jacobi"): ("siegel_jacobi",),
    ("transform", "--map", "act-jacobi-disk"): ("disk_jacobi",),
    ("metric", "--which", "siegel"): ("siegel",),
    ("metric", "--which", "disk"): ("disk", "disk_jacobi"),
    ("metric", "--which", "sj"): ("siegel_jacobi",),
    ("laplacian", "--which", "siegel", "--field", "logdet-y"): ("siegel", "siegel_jacobi"),
    ("laplacian", "--which", "disk", "--field", "logdet-disk"): ("disk", "disk_jacobi"),
    ("laplacian", "--which", "sj", "--field", "trace-yvv"): ("siegel_jacobi",),
}
_ACTION_ELEMENT = {"act-siegel": "sp", "act-disk": "gstar", "act-jacobi": "jacobi",
                   "act-jacobi-disk": "gstarj"}


def _request(argv, point, element=None):
    """The --input of argv for point, with element for an action (its own kind by default)."""
    if argv[0] == "metric":
        tangent = {"dbase": encode_matrix(np.eye(2)), "dfiber": encode_matrix(np.ones((1, 2)))}
        return {"point": point, "tangent": tangent}
    if argv[0] == "transform" and argv[2] in _ACTION_ELEMENT:
        kind = element or _ACTION_ELEMENT[argv[2]]
        return {"element": encode_element(sample_element(kind, 2, 1, seed=21, scale=0.5)),
                "point": point}
    return point


def test_every_command_refuses_a_point_or_element_of_another_model_as_an_input_error(capsys):
    points = {k: sample_point(k, 2, 1, seed=20) for k in
              ("siegel", "disk", "siegel_jacobi", "disk_jacobi")}
    for argv, takes in _TAKES.items():
        for kind, p in points.items():
            code, out, err = run_cli(capsys, *argv, "--input",
                                     json.dumps(_request(argv, encode_point(p))))
            if kind not in takes:
                assert code == 2 and out == "" and " takes a " in err, (argv, kind, err)
                continue
            assert code == 0, (argv, kind, err)
            if kind.endswith("jacobi") and takes[0] != kind:  # a Jacobi point in its base
                base = encode_point(p.base)
                assert run_cli(capsys, *argv, "--input",
                               json.dumps(_request(argv, base)))[1] == out, (argv, kind)
    for action, own in _ACTION_ELEMENT.items():
        argv = ("transform", "--map", action)
        point = encode_point(points[_TAKES[argv][0]])
        for kind in ("sp", "heisenberg", "jacobi", "gstar", "gstarj", "kstarj"):
            code, out, err = run_cli(capsys, *argv, "--input",
                                     json.dumps(_request(argv, point, kind)))
            takes = kind == own or (own, kind) == ("gstarj", "kstarj")  # K*J lies in G*J
            assert (code, " takes a " in err) == ((0, False) if takes else (2, True)), \
                (action, kind, err)


@pytest.mark.parametrize("suite", ["compat-29", "all"])
@pytest.mark.parametrize("shape", [("--g", "0"), ("--h", "0"), ("--g", "-2")])
def test_verify_refuses_a_shape_below_one_as_an_input_error(capsys, suite, shape):
    code, out, err = run_cli(capsys, "verify", "--suite", suite, *shape, "--trials", "2")
    assert code == 2 and out == "" and "must be an int >= 1" in err
