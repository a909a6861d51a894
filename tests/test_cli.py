import hashlib
import json
from fractions import Fraction

import pytest

import cgva.cg
import cgva.cli
import cgva.lie
from cgva.cli import main
from cgva.fields import QQ
from cgva.lie import algebra_from_name, algebra_to_dict
from cgva.linalg import LinComb
from oracles import abelian


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# -- eval ------------------------------------------------------------------

def test_eval_annihilation_against_creation(capsys):
    rc, out, _ = run(capsys, "eval", "--algebra", "sl2", "e(1) f(-1) |0>")
    assert rc == 0
    assert out.strip() == "1 |0>"


def test_eval_zero_mode_scales(capsys):
    rc, out, _ = run(capsys, "eval", "--algebra", "sl2", "h(0) e(-1) |0>")
    assert rc == 0
    assert out.strip() == "2 e(-1) |0>"


def test_eval_annihilates_the_vacuum(capsys):
    rc, out, _ = run(capsys, "eval", "--algebra", "sl2", "e(0) |0>")
    assert rc == 0
    assert out.strip() == "0"


def test_eval_over_prime_field(capsys):
    rc, out, _ = run(capsys, "eval", "--algebra", "sl2", "--field", "fp:7",
                     "1/3 h(-2) |0>")
    assert rc == 0
    assert out.strip() == "5 h(-2) |0>"


@pytest.mark.parametrize("flag", [("--out", "x.txt"), ("--format", "text"),
                                  ("--seed", "1"), ("--samples", "5"),
                                  ("--max-degree", "3")],
                         ids=lambda f: f[0])
def test_eval_rejects_report_flags(capsys, tmp_path, monkeypatch, flag):
    # eval prints one state to stdout; flags it would ignore are refused
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--algebra", "sl2", *flag, "e(-1) |0>"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "x.txt").exists()


@pytest.mark.parametrize("argv", [
    ("validate", "--seed", "1"), ("validate", "--samples", "5"),
    ("validate", "--max-degree", "3"), ("build-cg", "--format", "text"),
    ("build-cg", "--samples", "5"), ("build-cg", "--max-degree", "3"),
], ids=lambda a: f"{a[0]}{a[1]}")
def test_validate_and_build_cg_reject_flags_they_ignore(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--algebra", "sl2", *argv[1:]])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_eval_parse_error_is_a_usage_error(capsys):
    rc, _, err = run(capsys, "eval", "--algebra", "sl2", "e(-1)")
    assert rc == 2
    assert "|0>" in err


def test_eval_refuses_a_sign_with_no_term(capsys):
    rc, out, err = run(capsys, "eval", "--algebra", "sl2",
                       "e(-1) |0> - + f(-1) |0>")
    assert rc == 2 and out == ""
    assert err.startswith("cgva: a sign with no term after it")


# -- argument and input failure modes --------------------------------------

def test_characteristic_two_field_is_rejected(capsys):
    rc, _, err = run(capsys, "validate", "--algebra", "sl2", "--field", "fp:2")
    assert rc == 2
    assert "characteristic 2" in err


def test_unknown_algebra_name(capsys):
    rc, _, err = run(capsys, "validate", "--algebra", "g2023")
    assert rc == 2
    assert "unknown builtin" in err


def test_missing_file(capsys):
    rc, _, err = run(capsys, "validate", "--file", "/no/such/file.json")
    assert rc == 2
    assert "cannot read" in err


def test_algebra_and_file_conflict(capsys, tmp_path):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(algebra_to_dict(abelian(1, QQ))))
    rc, _, err = run(capsys, "validate", "--algebra", "sl2",
                     "--file", str(path))
    assert rc == 2


def test_form_flag_conflicts_with_file(capsys, tmp_path):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(algebra_to_dict(abelian(1, QQ))))
    rc, _, err = run(capsys, "validate", "--file", str(path),
                     "--form", "killing")
    assert rc == 2
    assert "form" in err


def test_bad_form_string(capsys):
    rc, _, err = run(capsys, "validate", "--algebra", "sl2",
                     "--form", "euclidean")
    assert rc == 2


# -- validate --------------------------------------------------------------

def test_validate_sl2_json_output(capsys):
    rc, out, _ = run(capsys, "validate", "--algebra", "sl2")
    assert rc == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["validation"]["admissible"] is True
    assert data["notes"] == []


def test_validate_text_out_file_matches_stdout(capsys, tmp_path):
    path = tmp_path / "validate.txt"
    rc, out, _ = run(capsys, "validate", "--algebra", "sl2", "--format", "text")
    assert rc == 0 and out.startswith("algebra sl2 over q: PASS\n")
    rc, printed, _ = run(capsys, "validate", "--algebra", "sl2",
                         "--format", "text", "--out", str(path))
    assert rc == 0 and printed == ""
    assert path.read_bytes() == out.encode("utf-8")


def test_validate_centered_algebra_passes_with_note(capsys, tmp_path):
    path = tmp_path / "ab2.json"
    path.write_text(json.dumps(algebra_to_dict(abelian(2, QQ))))
    rc, out, _ = run(capsys, "validate", "--file", str(path))
    assert rc == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert "main-theorem: inadmissible (center != 0)" in data["notes"]


def test_validate_structurally_broken_file_fails(capsys, tmp_path):
    data = algebra_to_dict(algebra_from_name("sl2", QQ))
    data["brackets"][2] = [1, 2, [[2, "-3"]]]  # breaks the Jacobi identity
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    rc, _, err = run(capsys, "validate", "--file", str(path))
    assert rc == 1
    assert "Jacobi" in err or "jacobi" in err


def _sl2_data_with(change):
    """sl2's data, changed in place, or what change returns instead."""
    data = algebra_to_dict(algebra_from_name("sl2", QQ))
    replaced = change(data)
    return data if replaced is None else replaced


def _scale_form(data, factor):
    for entry in data["form"]["entries"]:
        entry[2] = str(Fraction(entry[2]) * factor)


def _one_then(data, scalar):
    """[e, f] = h with its 1 as a JSON integer, and scalar for the -2 of the
    later [h, f] = -2f."""
    data["brackets"][1][2][0][1] = 1
    data["brackets"][2][2][0][1] = scalar


ZERO_DIM_DATA = {"dim": 0, "basis": [], "brackets": [],
                 "form": {"type": "matrix", "entries": []}}


# each malformed sl2 file, and what the error names; None where the file is
# a valid algebra over that field
MALFORMED_FILES = {
    "term-index-too-large": (lambda d: d["brackets"][0][2].append([3, "1"]),
                             "index 3", "index 3"),
    "term-index-negative": (lambda d: d["brackets"][0][2].append([-1, "1"]),
                            "index -1", "index -1"),
    "form-index-too-large": (lambda d: d["form"]["entries"].append([0, 3, "1"]),
                             "form entry: index 3", "form entry: index 3"),
    "form-index-negative": (lambda d: d["form"]["entries"].append([-1, 0, "1"]),
                            "form entry: index -1", "form entry: index -1"),
    "scalar-not-rational": (lambda d: d["brackets"][0][2].append([0, "one"]),
                            "bad scalar 'one'", "bad scalar 'one'"),
    "scalar-zero-denominator": (lambda d: d["form"]["entries"][0].__setitem__(2, "1/0"),
                                "bad scalar '1/0'", "bad scalar '1/0'"),
    "term-index-not-an-int": (lambda d: d["brackets"][0][2].append([[0], "1"]),
                              "index [0]", "index [0]"),
    "term-index-repeated": (lambda d: d["brackets"][0][2].append([0, "5"]),
                            "repeats a term index", "repeats a term index"),
    "form-index-repeated": (lambda d: d["form"]["entries"].append([0, 2, "5"]),
                            "repeat an index pair", "repeat an index pair"),
    "form-not-an-object": (lambda d: d.__setitem__("form", "killing"),
                           "form must be an object", "form must be an object"),
    "denominator-vanishes-mod-p": (lambda d: _scale_form(d, Fraction(1, 7)),
                                   None, "vanishes in F_7"),
    # JSON floats and booleans where a scalar or an integer belongs, and a
    # basis that is not a list of strings
    "scalar-a-json-float": (lambda d: d["form"]["entries"][0].__setitem__(2, 0.1),
                            "bad scalar 0.1", "bad scalar 0.1"),
    "scalar-a-json-bool": (lambda d: d["form"]["entries"][0].__setitem__(2, True),
                           "bad scalar True", "bad scalar True"),
    # true and 1.0 after an integer 1: equal to it as dict keys, still refused
    "scalar-a-json-bool-after-a-one": (lambda d: _one_then(d, True),
                                       "bad scalar True", "bad scalar True"),
    "scalar-a-json-float-after-a-one": (lambda d: _one_then(d, 1.0),
                                        "bad scalar 1.0", "bad scalar 1.0"),
    "basis-not-a-list": (lambda d: d.__setitem__("basis", 5),
                         "basis must be a list", "basis must be a list"),
    "label-not-a-string": (lambda d: d["basis"].__setitem__(0, 7),
                           "basis label 7", "basis label 7"),
    "dim-a-json-bool": (lambda d: d.__setitem__("dim", True),
                        "dim must be a positive integer",
                        "dim must be a positive integer"),
    # the empty algebra: no degree-2 slice, and nothing to verify
    "dim-zero": (lambda d: ZERO_DIM_DATA,
                 "dim must be a positive integer, not 0",
                 "dim must be a positive integer, not 0"),
    # a top level that is not an object, and a name that is not a string
    "top-level-an-array": (lambda d: [],
                           "algebra data must be a JSON object, not an array",
                           "algebra data must be a JSON object, not an array"),
    "name-not-a-string": (lambda d: d.__setitem__("name", ["a"]),
                          "name must be a string, not ['a']",
                          "name must be a string, not ['a']"),
    # labels that parse_state could not read back in a factor label(mode)
    "label-with-a-space": (lambda d: d["basis"].__setitem__(0, "e 1"),
                           "basis label 'e 1' does not match",
                           "basis label 'e 1' does not match"),
    "label-with-parentheses": (lambda d: d["basis"].__setitem__(2, "f(1)"),
                               "basis label 'f(1)' does not match",
                               "basis label 'f(1)' does not match"),
    # lists that are not lists, named in the plural
    "brackets-not-a-list": (lambda d: d.__setitem__("brackets", 5),
                            "bracket entries must be a list, not 5",
                            "bracket entries must be a list, not 5"),
    "form-entries-missing": (lambda d: d["form"].__delitem__("entries"),
                             "form entries must be a list, not None",
                             "form entries must be a list, not None"),
}


@pytest.mark.parametrize("field", ["q", "fp:7"])
@pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
def test_malformed_file_fails_with_a_message(capsys, tmp_path, case, field):
    change, on_q, on_fp7 = MALFORMED_FILES[case]
    expected = on_q if field == "q" else on_fp7
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_sl2_data_with(change)))
    rc, out, err = run(capsys, "validate", "--file", str(path), "--field", field)
    if expected is None:
        assert rc == 0 and json.loads(out)["passed"] is True
    else:
        assert rc == 1 and out == ""
        assert err.startswith("cgva: ") and expected in err


def test_eval_on_a_dimension_zero_file_fails_with_a_message(capsys, tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(ZERO_DIM_DATA))
    rc, out, err = run(capsys, "eval", "--file", str(path), "0")
    assert rc == 1 and out == ""
    assert err == "cgva: dim must be a positive integer, not 0\n"


# -- build-cg --------------------------------------------------------------

def test_build_cg_prints_dimension_and_unit(capsys):
    rc, out, _ = run(capsys, "build-cg", "--algebra", "sl2")
    assert rc == 0
    assert "dim A = 1" in out
    assert "unital: yes" in out
    assert "1/4 h*h" in out


def test_build_cg_export_tables(capsys, tmp_path):
    target = tmp_path / "tables.json"
    rc, out, _ = run(capsys, "build-cg", "--algebra", "sl2",
                     "--out", str(target))
    assert rc == 0
    payload = json.loads(target.read_text())
    assert payload["tables"]["dim"] == 1
    assert payload["unit"] is not None


# -- verify ----------------------------------------------------------------

def test_verify_axioms_small_sample(capsys):
    rc, out, _ = run(capsys, "verify", "axioms", "--algebra", "sl2",
                     "--samples", "10", "--seed", "4")
    assert rc == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["prng"] == "python-random-mt19937"
    assert data["seed"] == 4
    assert [s["suite"] for s in data["suites"]] == ["vertex-axioms"]


def test_verify_main_theorem_text_format(capsys):
    rc, out, _ = run(capsys, "verify", "main-theorem", "--algebra", "sl2",
                     "--format", "text")
    assert rc == 0
    assert "overall: PASS" in out
    assert "theta-embeds-the-symmetric-square: ok" in out


def test_verify_on_centered_algebra_fails(capsys, tmp_path):
    path = tmp_path / "ab2.json"
    path.write_text(json.dumps(algebra_to_dict(abelian(2, QQ))))
    rc, out, _ = run(capsys, "verify", "main-theorem", "--file", str(path))
    assert rc == 1
    data = json.loads(out)
    assert data["passed"] is False


def test_verify_all_builds_the_algebra_once(capsys, monkeypatch):
    calls = []
    real = cgva.cli.build_cg

    def counting_build_cg(alg):
        calls.append(alg.name)
        return real(alg)

    monkeypatch.setattr(cgva.cli, "build_cg", counting_build_cg)
    s_matrices = []
    real_s_matrix = cgva.cg.s_matrix

    def counting_s_matrix(alg):
        s_matrices.append(alg.name)
        return real_s_matrix(alg)

    monkeypatch.setattr(cgva.cg, "s_matrix", counting_s_matrix)
    rc, _, _ = run(capsys, "verify", "all", "--algebra", "sl2",
                   "--samples", "5")
    assert rc == 0
    assert calls == ["sl2"]
    # the identity suite reuses that A rather than constructing its own,
    # and DegreeTwo.kernel reads ker T off it
    assert s_matrices == ["sl2"]


def test_a_failed_star_ideal_proof_is_reported_or_refused(capsys,
                                                         monkeypatch):
    # star against the monomial (2, 1) gains a pivot monomial, which S does
    # not kill: cg-identities alone reports the failed proof, and a command
    # that needs A refuses to build it
    sl2 = algebra_from_name("sl2", QQ)
    target, one = (2, 1), QQ.one
    stray = LinComb.term(cgva.cg.build_cg(sl2).im_monomials[0], one)
    exact = cgva.cg.star

    def broken(alg, x, y):
        out = exact(alg, x, y)
        return out + stray if y == LinComb.term(target, one) else out

    monkeypatch.setattr(cgva.cg, "star", broken)
    rc, out, _ = run(capsys, "verify", "cg-identities", "--algebra", "sl2")
    assert rc == 1
    (suite,) = json.loads(out)["suites"]
    (check,) = [c for c in suite["checks"]
                if c["name"] == "kernel-is-star-ideal"]
    assert check["passed"] is False
    assert check["details"] == f"failed at monomial {target}"
    for which in ("main-theorem", "all"):
        rc, out, err = run(capsys, "verify", which, "--algebra", "sl2",
                           "--samples", "5")
        assert rc == 1
        assert out == ""
        assert f"ker S is not a *-ideal at monomial {target}" in err


def test_verify_main_theorem_computes_the_lie_generators_once(capsys,
                                                              monkeypatch):
    # kernel_generators, sym2_generators and DegreeTwo.kernel_generators
    # all ask the algebra for them
    calls = []
    real = cgva.lie.greedy_generators

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cgva.lie, "greedy_generators", counting)
    rc, _, _ = run(capsys, "verify", "main-theorem", "--algebra", "sl4")
    assert rc == 0
    assert len(calls) == 1


# sha256 of `cgva verify all --algebra A --field F --samples 30` stdout at
# seed 0, JSON; any change to a report's bytes shows here
REPORT_DIGESTS = {
    ("sl2", "q"): "84616e1639d1006561d6e5c5a0e9012c334b6327cb049da8a21f67243db23c21",
    ("sl2", "fp:7"): "d7090ef2be34d2131e0200d31ff21b979647f2cc54b2e4bfbe25128bb75c0538",
    ("sl3", "q"): "dc886bca6226424210eb86b826a1f35c57e06b9a206e3ad34c4471aeff1074ec",
    ("sl3", "fp:7"): "34f690de47eabb3c2e54fcdd0201c3aa25c269d3e8af70a51dfc85dc22eefd6f",
    ("so5", "q"): "a7c0bb4d3088acd37641fb800dfe11150b73b46dcbce86ab3132d5a25834a6dc",
    ("so5", "fp:7"): "6ce2933abe45ca696951559e0ee0d9a135a91ae91bf6e5bf50e9b507f9271aca",
}


@pytest.mark.parametrize("algebra,field", sorted(REPORT_DIGESTS))
def test_verify_all_report_bytes_are_pinned(capsys, algebra, field):
    rc, out, _ = run(capsys, "verify", "all", "--algebra", algebra,
                     "--field", field, "--samples", "30")
    assert rc == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == REPORT_DIGESTS[(algebra, field)]


def test_reports_are_byte_identical_across_runs(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for target in (a, b):
        rc, _, _ = run(capsys, "verify", "comp-lemmas", "--algebra", "sl2",
                       "--out", str(target))
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_reports_embed_the_configuration(capsys):
    rc, out, _ = run(capsys, "verify", "comp-lemmas", "--algebra", "sl3",
                     "--field", "fp:11", "--form", "killing")
    assert rc == 0
    data = json.loads(out)
    assert data["tool"] == "cgva"
    assert data["field"] == "fp:11"
    assert data["form"] == "killing"
    assert data["algebra"] == "sl3"
    assert data["algebra_hash"].startswith("sha256:")


def test_max_degree_floor(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "axioms", "--algebra", "sl2", "--max-degree", "1"])
    assert exc.value.code == 2
    capsys.readouterr()
