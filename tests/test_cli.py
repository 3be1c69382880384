import json

import pytest

from waring.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rank_command(capsys):
    code, out, _ = run(capsys, "rank", "x1*x2*x3")
    assert code == 0
    assert out.splitlines()[0] == "4"


def test_rank_sum(capsys):
    code, out, _ = run(capsys, "rank", "x1^2*x2 + x3^3")
    assert code == 0
    assert out.splitlines()[0] == "4"


def test_rank_linear(capsys):
    code, out, _ = run(capsys, "rank", "x1 + x2")
    assert code == 0
    assert out.splitlines()[0] == "1"


def test_rank_json(capsys):
    code, out, _ = run(capsys, "rank", "x1^2*x2 + x3^3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["rank"] == 4
    assert data["per_monomial"][0]["rank"] == 3


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "rank", "x1 ++ x2")
    assert code == 1
    assert "position" in err


def test_decompose_four_cubes(capsys):
    code, out, _ = run(capsys, "decompose", "x1*x2*x3")
    assert code == 0
    assert "1/24" in out


def test_decompose_zeta3(capsys):
    code, out, _ = run(capsys, "decompose", "x1*x2^2")
    assert code == 0
    assert "z3" in out and "1/9" in out


def test_decompose_non_coprime(capsys):
    code, _, err = run(capsys, "decompose", "x1*x2 + x2*x3")
    assert code == 1
    assert "x2" in err


def test_decompose_verify_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "decompose", "x1^2*x2 + x3^3", "--json")
    assert code == 0
    path = tmp_path / "dec.json"
    path.write_text(out)
    code, out, _ = run(capsys, "verify", "x1^2*x2 + x3^3", str(path))
    assert code == 0
    assert "PASS" in out


def test_verify_detects_tampering(capsys, tmp_path):
    code, out, _ = run(capsys, "decompose", "x1*x2*x3", "--json")
    data = json.loads(out)
    data["terms"][0]["gamma"]["coeffs"][0] = "1/23"
    path = tmp_path / "dec.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", "x1*x2*x3", str(path))
    assert code == 2
    assert "FAIL" in out


def test_bound_commands(capsys):
    assert run(capsys, "bound", "x1*x2*x3")[1].strip() == "3"
    assert run(capsys, "bound", "x1^2*x2^2")[1].strip() == "3"
    assert run(capsys, "bound", "x1^5")[1].strip() == "1"


def test_bound_non_coprime_flagged(capsys):
    code, out, err = run(capsys, "bound", "x1^2*x2 + x1*x2^2")
    assert code == 0
    assert "lower bound only" in err


def test_survey_single_degree(capsys):
    code, out, _ = run(capsys, "survey", "3", "7")
    assert code == 0
    assert "16" in out and "12" in out


def test_survey_range_csv(capsys):
    code, out, _ = run(capsys, "survey", "3", "--range", "3:6", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("d,")
    assert len(lines) == 5


def test_survey_ratio(capsys):
    code, out, _ = run(capsys, "survey", "4", "--ratio", "--kmax", "5")
    assert code == 0
    assert "24/27" in out or "8/9" in out


def test_survey_resource_exit_code(capsys):
    code, _, err = run(capsys, "survey", "4", "30", "--max-enum", "5")
    assert code == 3


def test_hf_table(capsys):
    code, out, _ = run(capsys, "hf", "x1^2,x2^2", "--tmax", "3")
    assert code == 0
    assert "HF(2) = 1" in out
    assert "sum = 4" in out


def test_hf_claim(capsys):
    code, out, _ = run(capsys, "hf", "--claim", "x1*x2^2 + x3^3")
    assert code == 0
    assert "PASS" in out


def test_hf_claim_random(capsys):
    code, out, _ = run(capsys, "hf", "--claim-random", "5", "--seed", "3")
    assert code == 0
    assert out.count("pass") == 5


def test_byte_identical_output(capsys):
    a = run(capsys, "decompose", "x1*x2^2 + x3^3", "--json")[1]
    b = run(capsys, "decompose", "x1*x2^2 + x3^3", "--json")[1]
    assert a == b


@pytest.mark.parametrize("payload, field", [
    ({"degree": 2}, "'variables'"),
    ({"degree": 2, "variables": ["x1", "x2"], "terms": [
        {"gamma": {"order": "3", "coeffs": ["1"]}, "linear": [], "block": 0,
         "point": []}]}, "terms[0].gamma.order"),
    ({"degree": 2, "variables": ["x1", "x2"], "terms": [
        {"gamma": {"order": 1, "coeffs": ["1"]},
         "linear": [{"order": 1, "coeffs": ["1"]}, {"order": 1, "coeffs": ["1"]}],
         "block": 0}]}, "'point'"),
    ([{"degree": 2}], "expected a JSON object"),
], ids=["degree-only", "order-string", "missing-point", "top-level-list"])
def test_verify_rejects_malformed_json(capsys, tmp_path, payload, field):
    path = tmp_path / "dec.json"
    path.write_text(json.dumps(payload))
    code, out, err = run(capsys, "verify", "x1*x2", str(path))
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and field in err


def test_verify_rejects_linear_forms_of_the_wrong_length(capsys, tmp_path):
    code, out, _ = run(capsys, "decompose", "x1*x2", "--json")
    data = json.loads(out)
    data["terms"][1]["linear"].pop()
    path = tmp_path / "dec.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "x1*x2", str(path))
    assert code == 1
    assert "terms[1].linear: expected 2 entries" in err


def test_verify_rejects_an_unknown_block(capsys, tmp_path):
    code, out, _ = run(capsys, "decompose", "x1*x2", "--json")
    data = json.loads(out)
    data["terms"][1]["block"] = 7
    path = tmp_path / "dec.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "verify", "x1*x2", str(path))
    assert code == 1
    assert err == "error: term 1 names block 7, but the form has 1 blocks\n"


def test_verify_reports_a_least_variable_outside_the_namespace(capsys, tmp_path):
    code, out, _ = run(capsys, "decompose", "x1*x2", "--json")
    data = json.loads(out)
    data["variables"] = ["x2", "x3"]
    path = tmp_path / "dec.json"
    path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "verify", "x1*x2", str(path))
    assert code == 2
    assert "mismatch at x1*x2: expected 1, got variable missing" in out
    assert "least-variable property: False" in out


@pytest.mark.parametrize("t_max", ["0", "-1"])
def test_bound_rejects_t_max_below_one(capsys, t_max):
    code, out, err = run(capsys, "bound", "x1*x2", "--tmax", t_max)
    assert code == 1
    assert out == ""
    assert err == f"error: t_max must be at least 1, got {t_max}\n"


@pytest.mark.parametrize("argv, flag", [
    (("hf", "x1^2,x2", "--tmax", "-3"), "--tmax"),
    (("survey", "3", "--range", "5"), "--range"),
    (("survey", "3", "--range", "5:2"), "--range"),
    (("survey", "3", "--ratio", "--kmax", "0"), "--kmax"),
    (("hf", "--claim-random", "0"), "--claim-random"),
])
def test_bad_flag_values_exit_1_with_one_line(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: argument {flag}: ")


def test_boundary_flag_values_still_run(capsys):
    code, out, _ = run(capsys, "hf", "x1^2,x2", "--tmax", "0")
    assert code == 0
    assert out.splitlines() == ["HF(0) = 1", "sum = 1"]
    code, out, _ = run(capsys, "survey", "3", "--range", "4:4", "--csv")
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines()] == ["d", "4"]
