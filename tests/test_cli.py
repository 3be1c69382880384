import contextlib
import copy
import io
import json
import re
import sys
import tempfile
import time
from fractions import Fraction
from math import comb
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from waring import decompose, serialize
from waring.cli import main
from waring.forms import parse_form


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


@pytest.mark.parametrize("text, digits", [
    ("x1^" + "9" * 5000, 5000),
    ("1" + "0" * 5000 + "*x1^2*x2", 5001),
])
def test_an_integer_literal_over_the_digit_limit_exits_1_with_one_line(capsys, text, digits):
    code, out, err = run(capsys, "rank", text)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"{digits} digits" in err and f"{sys.get_int_max_str_digits()} digits" in err
    assert "set_int_max_str_digits" not in err


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


@pytest.mark.parametrize("text, bound, note", [
    ("x1*x2 + x1*x2", "2\n", ""),
    ("0*x1 + x2", "1\n", ""),
    ("x1^2*x2 + x1*x2^2", "2\n",
     "note: input is not a coprime sum; reporting a lower bound only\n"),
])
def test_bound_notes_only_shared_variables_of_the_merged_form(capsys, text, bound, note):
    assert run(capsys, "bound", text) == (0, bound, note)


def test_decompose_has_no_pretty_flag(capsys):
    code, out, err = run(capsys, "decompose", "x1*x2", "--pretty")
    assert code == 1
    assert out == ""
    assert err == "error: unrecognized arguments: --pretty\n"


@pytest.mark.parametrize("argv", [("survey", "3"), ("hf",)])
def test_a_missing_argument_prints_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


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


@pytest.mark.parametrize("argv, estimate, cap", [
    (("survey", "3", "--range", "1:100000000"), r"(\d+) rows", 5 * 10 ** 4),
    (("survey", "4", "--ratio", "--kmax", "100000000"), r"(\d+) rows", 5 * 10 ** 4),
    (("survey", "10000", "10000"), r"an integer of up to (\d+) bits", 14000),
    # the limit line's 1999^1999 has 21,920 bits
    (("survey", "2000", "--ratio", "--kmax", "3"), r"an integer of up to (\d+) bits", 14000),
    (("survey", "2000", "--range", "1:2000"), r"an estimated output of size (\d+)", 5 * 10 ** 6),
])
def test_survey_refuses_its_estimated_output(capsys, argv, estimate, cap):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    named = re.fullmatch(f"error: the survey would print {estimate}, above the cap {cap}\n", err)
    assert named and int(named[1]) > cap


@pytest.mark.parametrize("argv, rows, last", [
    (("survey", "3000", "3000"), 1,
     ["3000", str(2 ** 2999), "*".join(f"x{i}" for i in range(1, 3001))]),
    (("survey", "3", "--range", "1:1000"), 1000, ["1000", "250500", "x1*x2^499*x3^500"]),
    (("survey", "15", "--ratio"), 50, ["50", "701", str(51 ** 14)]),
    (("survey", "50", "--range", "1:100"), 100, ["100"]),
])
def test_survey_admits_wide_rows_and_long_tables(capsys, argv, rows, last):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    table = [line.split() for line in out.splitlines() if not line.startswith("#")]
    assert len(table) == rows + 1 and table[-1][:len(last)] == last


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


def test_hf_claim_random_count_is_capped(capsys):
    code, out, err = run(capsys, "hf", "--claim-random", "1001")
    assert (code, out) == (3, "")
    assert err == "error: 1001 random configurations are above the cap 1000\n"


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
    ({"degree": 2, "variables": ["x1", "x2"], "terms": [
        {"gamma": {"order": 1, "coeffs": [0.1]}, "linear": [], "block": 0,
         "point": []}]}, "terms[0].gamma.coeffs"),
    ({"degree": 2, "variables": ["x1", "x2"], "terms": [
        {"gamma": {"order": 1, "coeffs": [True]}, "linear": [], "block": 0,
         "point": []}]}, "terms[0].gamma.coeffs"),
    ({"degree": 2, "variables": ["x1", "x2"], "terms": [
        {"gamma": {"order": 1, "coeffs": ["1e3"]}, "linear": [], "block": 0,
         "point": []}]}, "terms[0].gamma.coeffs"),
    ({"degree": 2, "variables": ["x1", "x2"], "terms": [
        {"gamma": {"order": 1, "coeffs": [1]},
         "linear": [{"order": 1, "coeffs": [True]}, {"order": 1, "coeffs": [1]}],
         "block": 0, "point": []}]}, "terms[0].linear"),
    ({"degree": 2, "variables": ["x1", "x1"], "terms": []}, "decomposition.variables"),
], ids=["degree-only", "order-string", "missing-point", "top-level-list",
        "float-coefficient", "bool-coefficient", "exponent-string",
        "bool-after-an-equal-int", "repeated-variable"])
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


@pytest.mark.parametrize("drop_a_term", [False, True])
def test_verify_checks_blocks_before_printing_a_report(capsys, tmp_path, drop_a_term):
    """A term naming a block the form lacks is one error line and exit 1,
    with nothing on stdout, whether or not the term count is also wrong."""
    code, out, _ = run(capsys, "decompose", "x1*x2^2", "--json")
    data = json.loads(out)
    data["terms"][0]["block"] = 5
    if drop_a_term:
        data["terms"].pop()
    path = tmp_path / "dec.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", "x1*x2^2", str(path))
    assert (code, out, err) == (1, "", "error: term 0 names block 5, but the form has 1 blocks\n")


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


def test_bound_of_a_large_monomial(capsys):
    # the catalecticants are built from the form's support: 16^3 cells over
    # all t instead of a dense C(47-t, 2) x C(t+2, 2) matrix per t
    code, out, _ = run(capsys, "bound", "x1^15*x2^15*x3^15")
    assert code == 0
    assert out == "192\n"


def _refused_at_once(capsys, argv, *parts):
    """`waring ARGV` exits 3 within a second with one `error:` line that
    contains each of `parts`."""
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and all(part in err for part in parts)
    assert "Traceback" not in err


def test_decompose_over_the_solve_cap_exits_3(capsys):
    # one 61-square solve over Q(zeta_61): 61^3 * 60^2
    _refused_at_once(capsys, ("decompose", "x1*x2^60"), (
        "gamma solves of estimated cost 8.2e+08 ((a+1)^3 * phi(a+1)^2 per distinct "
        "a_i), above the cap 1e+08"))


@pytest.mark.parametrize("form, message", [
    # 8,000 terms in 8,000 classes: 6.4e7 class sums, at 40 to a step
    ("x1*x2^19*x3^19*x4^19", "takes 1.6e+06 steps (compositions, class sums and "
                             "pairs), above the step cap 1e+06"),
    ("x1*x2^6*x3^7*x4^8*x5^9*x6^10", "needs the field Q(zeta_27720), above the "
                                     "field order cap 1000"),
    # a price past the range of a float is printed by its bit length
    ("*".join(["x1"] + [f"x{i}^9" for i in range(2, 200)]), "takes about 2^1311 steps"),
], ids=["class sums", "field", "past a float"])
def test_decompose_over_a_verify_cap_exits_3_at_once(capsys, form, message):
    _refused_at_once(capsys, ("decompose", form), f"error: verifying the output {message}")


def test_decompose_of_a_linear_form_is_priced_as_verify_prices_its_term(capsys):
    """A degree-1 form is its own one term, which `decompose` prints without
    verifying it, at the price `verify` puts on that term: over 4,000
    variables it is 250 steps a composition and 1,000,001 in all, one over
    the cap, and over 3,999 it is admitted."""
    _refused_at_once(capsys, ("decompose", " + ".join(f"x{i}" for i in range(1, 4001))),
                     "error: verifying takes 1.0e+06 steps", "above the step cap 1e+06")
    code, out, err = run(capsys, "decompose", " + ".join(f"x{i}" for i in range(1, 4000)))
    assert (code, err) == (0, "")
    assert out.startswith("rank 1 decomposition of x1 + x2 + ")


@pytest.mark.parametrize("form, rank", [("x1^12*x2^12*x3^12", 169),
                                        ("x1^2*x2^2*x3^2*x4^2*x5^9", 270)])
def test_decompose_of_cheap_grids_once_refused_runs(capsys, form, rank):
    # exit 0 means the output passed its verification
    code, out, err = run(capsys, "decompose", form)
    assert (code, err) == (0, "")
    assert out.startswith(f"rank {rank} decomposition of {form}:\n")
    assert len(out.splitlines()) == rank + 1


def test_decompose_under_the_solve_cap_still_runs(capsys):
    code, out, _ = run(capsys, "decompose", "x1*x2^4*x3^6")
    assert code == 0
    assert out.startswith("rank 35 decomposition of x1*x2^4*x3^6:\n")


def test_the_parser_is_built_once_and_reused(capsys):
    from waring.cli import build_parser
    assert build_parser() is build_parser()
    # a rejected command line first, so a parser left in a bad state by an
    # error would show in the calls after it
    calls = [("decompose", "x1*x2^2", "--nope"),
             ("decompose", "x1*x2^2", "--json"),
             ("decompose", "x1*x2^2"),
             ("rank", "x1^2*x2 + x3^3", "--json"),
             ("hf", "x1^2,x2^3", "--tmax", "3"),
             ("bound", "x1^2*x2 + x1*x2^2", "--json")]
    reused = [run(capsys, *argv) for argv in calls]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [1, 0, 0, 0, 0, 0]


WIDE = "*".join(f"x{i}" for i in range(1, 14))


def test_bound_over_the_cell_cap_exits_3(capsys):
    # 1,037,899 nonzero cells of the degrees t <= 150 to eliminate, or
    # 14 * min(2^14, 14272 + 14 + 1) counting steps
    for form, estimate in [("x1^100*x2^100*x3^100 + x1^101*x2^99*x3^100", "1037899"),
                           (WIDE + "*x14^14259", "200018")]:
        _refused_at_once(capsys, ("bound", form), f"estimated {estimate} ",
                         "above the cap 200000")


def test_bound_under_the_cell_cap_runs(capsys):
    # 199,990 counting steps; x1^50000*x2, once refused, costs 8
    for form, bound in [(WIDE + "*x14^14257", "8192"), ("x1^50000*x2", "2")]:
        code, out, err = run(capsys, "bound", form)
        assert (code, out, err) == (0, bound + "\n", "")


def test_bound_counts_a_monomial_over_a_million_cells_at_once(capsys):
    # x1^100*x2^100*x3^100 has 101^3 = 1,030,301 nonzero catalecticant cells,
    # but its ranks are counted: 300 degrees of 2^3 steps each
    start = time.perf_counter()
    code, out, _ = run(capsys, "bound", "x1^100*x2^100*x3^100")
    assert time.perf_counter() - start < 1
    assert code == 0
    assert out == "7651\n"     # #{(a, b, c) <= 100 : a + b + c = 150}


def _decomposition_file(tmp_path, text, order):
    """`text`'s decomposition with every number re-expressed in Q(zeta_order)."""
    from waring import decompose_form, parse_form, serialize
    dec = decompose_form(parse_form(text))
    data = serialize.decomposition_to_json(dec)
    for t in data["terms"]:
        for key in ("linear", "point"):
            t[key] = [serialize.cyclo_to_json(serialize.cyclo_from_json(c).promote(order))
                      for c in t[key]]
        t["gamma"] = serialize.cyclo_to_json(
            serialize.cyclo_from_json(t["gamma"]).promote(order))
    path = tmp_path / "dec.json"
    path.write_text(json.dumps(data))
    return path


def test_verify_over_the_field_order_cap_exits_3(capsys, tmp_path, monkeypatch):
    """A huge `order` is refused before its Phi_N is built."""
    from waring import cyclotomic
    real_phi = cyclotomic.euler_phi

    def small_fields_only(n):
        assert n <= 1000, f"built Q(zeta_{n})"
        return real_phi(n)

    data = json.loads(_decomposition_file(tmp_path, "x1*x2", 2).read_text())
    data["terms"][0]["gamma"] = {"order": 100000, "coeffs": ["1"]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data))
    monkeypatch.setattr(cyclotomic, "euler_phi", small_fields_only)
    code, out, err = run(capsys, "verify", "x1*x2", str(path))
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "100000" in err and "1000" in err
    assert "Traceback" not in err


def test_verify_just_under_the_field_order_cap_still_runs(capsys, tmp_path):
    path = _decomposition_file(tmp_path, "x1*x2^4", 1000)
    code, out, _ = run(capsys, "verify", "x1*x2^4", str(path))
    assert code == 0
    assert out.endswith("PASS\n")


def test_verify_of_a_missing_file_exits_1(capsys, tmp_path):
    code, out, err = run(capsys, "verify", "x1*x2", str(tmp_path / "missing.json"))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_a_closed_stdout_exits_141_quietly():
    """`waring hf ... | head -1`: the reader takes one line and closes the
    pipe while more than a pipe buffer of output is still to come."""
    import os
    import subprocess
    import sys

    import waring
    src = os.path.dirname(os.path.dirname(os.path.abspath(waring.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "waring.cli", "hf", "x1^2,x2^3", "--tmax", "20000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"HF(0) = 1\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def _sweep_monomials():
    """The acceptance sweep: every monomial in 2 <= n <= 4 variables of
    degree <= 8, exponents nondecreasing (44 monomials)."""
    def partitions(d, n, least=1):
        if n == 1:
            yield from [(d,)] if d >= least else []
            return
        for first in range(least, d // n + 1):
            for rest in partitions(d - first, n - 1, first):
                yield (first,) + rest
    return ["*".join(f"x{i}" if a == 1 else f"x{i}^{a}" for i, a in enumerate(exps, 1))
            for n in (2, 3, 4) for d in range(n, 9) for exps in partitions(d, n)]


# sha256 of the `decompose` output below, recorded before the per-variable
# gamma solve replaced the full character system; any other way of computing
# the gammas must print the same decompositions
DECOMPOSE_OUTPUT_SHA256 = "b01f299ac51aa64ec7ea397298f44367c1b09c74f49b3bddc116f1cbd345ae33"


def test_decompose_output_is_pinned(capsys):
    import hashlib
    forms = _sweep_monomials() + ["3/2*x1*x2^2 - 2/5*x3^3",
                                  "-7/3*x1^2*x2^3 + 1/4*x3*x4^4 + 5/6*x5^5",
                                  "2/9*x1*x2*x3*x4 - 11/7*x5^2*x6^2 + x7*x8^3"]
    assert len(forms) == 47
    digest = hashlib.sha256()
    for form in forms:
        for argv in (("decompose", form), ("decompose", form, "--json")):
            code, out, _ = run(capsys, *argv)
            digest.update(json.dumps([argv, code, out]).encode())
    assert digest.hexdigest() == DECOMPOSE_OUTPUT_SHA256


# sha256 of the `bound` runs below, recorded while every catalecticant was
# still ranked by elimination; ranking coprime input by counting divisors
# must print the same bounds
BOUND_OUTPUT_SHA256 = "1dbcb1d5a3d2afa612d9ea8cad6c7abd639a36c1f2ca9677de09ac9480c016b7"


def test_bound_output_is_pinned(capsys):
    import hashlib
    forms = _sweep_monomials() + [
        "3/2*x1*x2^2 - 2/5*x3^3",
        "-7/3*x1^2*x2^3 + 1/4*x3*x4^4 + 5/6*x5^5",
        "2/9*x1*x2*x3*x4 - 11/7*x5^2*x6^2 + x7*x8^3",
        # not coprime sums: elimination, and a note on stderr
        "x1^2*x2 + x1*x2^2",
        "x1^4 + 4*x1^3*x2 + 6*x1^2*x2^2 + 4*x1*x2^3 + x2^4",
        "x1*x2*x3 + x2*x3*x4 - 1/2*x1^3"]
    assert len(forms) == 50
    digest = hashlib.sha256()
    for form in forms:
        for argv in (("bound", form), ("bound", form, "--json"),
                     ("bound", form, "--tmax", "2")):
            code, out, err = run(capsys, *argv)
            digest.update(json.dumps([argv, code, out, err]).encode())
    assert digest.hexdigest() == BOUND_OUTPUT_SHA256


def test_verify_over_the_step_cap_exits_3_at_once(capsys, tmp_path):
    """One term with every coordinate 1 for x1*...*x9*x10^21 (degree 30)
    would expand C(39, 9) ~ 2.1e8 compositions; it is refused before any."""
    import time
    names = [f"x{i}" for i in range(1, 11)]
    one = {"order": 1, "coeffs": ["1"]}
    path = tmp_path / "one_term.json"
    path.write_text(json.dumps({"degree": 30, "variables": names, "terms": [
        {"gamma": one, "linear": [one] * 10, "block": 0, "point": [one] * 10}]}))
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "*".join(names) + "^21", str(path))
    assert time.perf_counter() - start < 1
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "2.1e+08" in err and "step cap" in err
    assert "Traceback" not in err


def test_hf_refuses_a_long_table_with_its_estimate(capsys):
    code, out, err = run(capsys, "hf", "x1^2,x2^3", "--tmax", "100000")
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "200002 running-sum steps" in err


def test_verify_prints_an_oversized_mismatch_by_its_size(capsys, tmp_path):
    # (2 + z3)^20000 has coordinates of 4,772 digits, past the 4,300 that
    # str() of an int allows by default
    dec = {"degree": 20000, "variables": ["x1"],
           "terms": [{"gamma": {"order": 1, "coeffs": ["1"]},
                      "linear": [{"order": 3, "coeffs": ["2", "1"]}],
                      "block": 0, "point": []}]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(dec))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run(capsys, "verify", "x1^20000", str(path))
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 2
    assert err == ""
    assert ("  mismatch at x1^20000: expected 1, got <a number of Q(zeta_3) "
            "with integers of about 4772 digits>") in out.splitlines()
    assert out.splitlines()[-1] == "FAIL"


def _run_process(*argv, timeout=60):
    """`waring ARGV` in a fresh interpreter that imports this checkout's
    package; returns the finished process, with text output."""
    import os
    import subprocess

    import waring
    src = os.path.dirname(os.path.dirname(os.path.abspath(waring.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "waring.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=timeout)


def test_verify_of_deeply_nested_json_exits_1_with_one_line(tmp_path):
    """200,000 nested `[` overflow the JSON decoder's recursion; the command
    reports bad input in one line instead of a traceback."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    proc = _run_process("verify", "x1*x2", str(path))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: ") and "nested too deeply" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_cuts_a_long_bad_coefficient_short(capsys, tmp_path):
    """A bad coeffs entry of 5,001 characters is reported cut short, in one
    line."""
    one = {"order": 1, "coeffs": ["1"]}
    bad = {"order": 3, "coeffs": ["1", "x" + "7" * 5000]}
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"degree": 2, "variables": ["x1", "x2"], "terms": [
        {"gamma": bad, "linear": [one, one], "block": 0, "point": [one]}]}))
    code, out, err = run(capsys, "verify", "x1*x2", str(path))
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and len(err) < 300
    assert err.startswith("error: terms[0].gamma.coeffs: expected rationals, got ['1', 'x7")
    assert "Traceback" not in err


def test_bound_of_a_long_binary_form_takes_seconds_not_minutes():
    """18,001 catalecticant cells whose falling-factorial values would have
    thousands of digits: each term fills its cells with one value, and for
    two variables only divisors are enumerated."""
    import time
    start = time.perf_counter()
    proc = _run_process("bound", "x1^6000 + x1^5999*x2", timeout=30)
    elapsed = time.perf_counter() - start
    assert (proc.returncode, proc.stdout) == (0, "2\n")
    assert elapsed < 5, f"bound took {elapsed:.1f} s"


@pytest.mark.parametrize("last, code", [(4215, 0), (4399, 3)])
def test_rank_refuses_a_rank_it_cannot_print(capsys, last, code):
    """x1*x2^9*...*x_last^9 has rank 10^(last - 1): 13,999 bits print, and
    14,610 bits, past Python's int-to-str limit, are refused in one line."""
    text = "*".join(["x1"] + [f"x{i}^9" for i in range(2, last + 1)])
    returned, out, err = run(capsys, "rank", text)
    assert returned == code
    if code:
        assert out == ""
        assert err == "error: the rank has 14610 bits, above the cap 14000 on a printed integer\n"
    else:
        assert out.splitlines()[0] == str(10 ** (last - 1))


@pytest.mark.parametrize("generators, message", [
    ("x1^2,x2^3 @", "expected '*', '+', '-' or the end, got '@' (at position 10)"),
    ("x1^2, 2*x2^3", "generator '2*x2^3' must be a plain monomial (at position 6)"),
    ("x1^2,x2^3 + x3", "generator 'x2^3 + x3' must be a plain monomial (at position 5)"),
])
def test_hf_generator_errors_count_positions_in_the_whole_argument(capsys, generators, message):
    """Each comma-separated generator is parsed where it stands, so a
    position counts from the start of the argument, not of its chunk."""
    code, out, err = run(capsys, "hf", generators)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_bound_of_wide_sums_takes_seconds():
    """x1 + ... + x2000 has degree 1, where the bound is 1, and x1^200 + ...
    + x500^200, at the cap, is counted at the one degree t = 100; neither
    builds a cell."""
    import time
    for text, bound in ((" + ".join(f"x{i}" for i in range(1, 2001)), 1),
                        (" + ".join(f"x{i}^200" for i in range(1, 501)), 500)):
        start = time.perf_counter()
        proc = _run_process("bound", text, timeout=60)
        elapsed = time.perf_counter() - start
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{bound}\n", "")
        assert elapsed < 4, f"bound took {elapsed:.1f} s"


def _claim_blocks(r):
    """x1*x2^2*x3^3 + x4*x5^2*x6^3 + ..., r blocks."""
    return " + ".join(f"x{3 * i + 1}*x{3 * i + 2}^2*x{3 * i + 3}^3" for i in range(r))


def test_hf_prices_a_claim_and_a_generator_list_before_the_work(capsys):
    """The 40-block Claim ran for 97 s, and `hf` on the 1,830 generators of
    the 30-block Claim's intersection for 6.4 s.  Both are priced from their
    generator and variable counts, before any intersection or numerator."""
    from waring import apolarity, forms
    from waring.polynomials import monomial_text
    cap = f"above the cap {apolarity.MAX_NUMERATOR_COST}"
    # C(120, 2) + 40 * 120 = 11940 generators at most, squared, times 120
    _refused_at_once(capsys, ("hf", "--claim", _claim_blocks(40)),
                     "at most C(120, 2) + 4800 generators", "17107632000", cap)
    meet = apolarity.intersect_monomial_ideals(
        apolarity.claim_ideals(forms.parse_form(_claim_blocks(30))))
    assert len(meet.generators) == 1830
    names = [f"x{i}" for i in range(1, 91)]
    _refused_at_once(capsys, ("hf", ",".join(monomial_text(names, g) for g in meet.generators)),
                     "301401000 exponent comparisons (1830 generators", cap)


def test_verify_prices_integers_that_grow_with_the_degree(capsys, tmp_path):
    """A one-term file for x1^5000*x2^5000 has 10,001 compositions whose
    multinomials and powers run to thousands of digits: 15 s at a price of
    10,002 steps.  Each now counts (10000 / 500)^2 = 400 steps, so it is
    refused at once.  One for x1^40000 with the coordinate 1 + zeta_7 built
    all 40,001 powers (4 s); its one power is now taken by squaring."""
    one = {"order": 1, "coeffs": ["1"]}
    path = tmp_path / "grid.json"
    linear = [{"order": 1, "coeffs": ["2"]}, {"order": 1, "coeffs": ["3"]}]
    path.write_text(json.dumps({"degree": 10000, "variables": ["x1", "x2"], "terms": [
        {"block": 0, "gamma": one, "linear": linear, "point": linear}]}))
    _refused_at_once(capsys, ("verify", "x1^5000*x2^5000", str(path)),
                     "verifying takes 4.0e+06 steps")
    general = [{"order": 7, "coeffs": ["1", "1", "0", "0", "0", "0"]}]
    path.write_text(json.dumps({"degree": 40000, "variables": ["x1"], "terms": [
        {"block": 0, "gamma": one, "linear": general, "point": general}]}))
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "x1^40000", str(path))
    assert time.perf_counter() - start < 1
    assert (code, err) == (2, "")
    assert out.splitlines()[:2] == [
        "expansion matches: False",
        "  mismatch at x1^40000: expected 1, got <a number of Q(zeta_7) with "
        "integers of about 10230 digits>"]


def test_bound_at_the_cell_cap_computes_each_value_once(capsys, monkeypatch):
    """x1^133000 + x1^132999*x2 (199,500 cells, under the cap) builds 66,500
    catalecticants.  Each term's value c / multinomial(d; m) is computed
    once for the form, not once per degree: 2.0 s before, about 1 s now on
    a 2-vCPU VM, so the time bound leaves room for its speed swings."""
    from waring import polynomials
    calls, multinomial = [], polynomials.multinomial
    monkeypatch.setattr(polynomials, "multinomial",
                        lambda d, m: calls.append(m) or multinomial(d, m))
    start = time.perf_counter()
    code, out, err = run(capsys, "bound", "x1^133000 + x1^132999*x2")
    assert time.perf_counter() - start < 2
    assert (code, out) == (0, "2\n")
    assert sorted(calls) == [(132999, 1), (133000, 0)]


def test_hf_prices_a_generator_list_before_minimalizing_it(capsys):
    """x2^12000, x1^k*x2^(2*(6000-k)) for k = 1..5999, and x3: an antichain
    of 6,001 generators of mixed degrees in 3 variables.  Minimalizing it
    took 3.7-4.9 s before its numerator was refused; the list as given is
    priced first, as minimalizing it compares as many exponents."""
    from waring import apolarity
    gens = ["x2^12000", *(f"x1^{k}*x2^{2 * (6000 - k)}" for k in range(1, 6000)), "x3"]
    _refused_at_once(capsys, ("hf", ",".join(gens)),
                     "an estimated 108036003 exponent comparisons (6001 generators",
                     f"above the cap {apolarity.MAX_NUMERATOR_COST}")


def test_verify_prices_the_size_of_the_coordinates(capsys, tmp_path):
    """A one-term file for x1^50*x2^50 whose x1 coordinate has 4,000 digits
    was priced 102 steps by its degree alone and took 2.4-3.5 s to FAIL.
    Each of its 101 compositions multiplies integers of 100 * 13,288 bits,
    (1328800 / 8000)^2 rounded up = 27,590 steps, so it is refused at once.
    A 100-digit coordinate (329 bits) counts (32900 / 8000)^2 rounded up =
    17 steps a composition, plus one step of class sums, and that file is
    verified, to FAIL, within a second."""
    from waring import decompose, serialize
    one = {"order": 1, "coeffs": ["1"]}

    def coordinate_file(digits):
        linear = [{"order": 1, "coeffs": [str(10 ** (digits - 1))]}, one]
        path = tmp_path / f"coordinate{digits}.json"
        path.write_text(json.dumps({"degree": 100, "variables": ["x1", "x2"], "terms": [
            {"block": 0, "gamma": one, "linear": linear, "point": linear}]}))
        return path

    _refused_at_once(capsys, ("verify", "x1^50*x2^50", str(coordinate_file(4000))),
                     "verifying takes 2.8e+06 steps", "above the step cap 1e+06")
    path = coordinate_file(100)
    dec = serialize.decomposition_from_json(json.loads(path.read_text()))
    assert decompose._lift(dec, [1]).steps == 101 * 17 + 1
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "x1^50*x2^50", str(path))
    assert time.perf_counter() - start < 1
    assert (code, err, out.splitlines()[-1]) == (2, "", "FAIL")


_VERBS = ("rank", "decompose", "bound", "verify", "survey", "hf")


@pytest.mark.parametrize("argv", [
    ("rank", "x1*x2^2 + x3^3"),
    ("decompose", "x1*x2^2", "--json"),
    ("bound", "x1^2*x2^3", "--tmax", "2"),
    ("verify", "x1*x2^2", "DEC.json"),
    ("survey", "3", "4"),
    ("hf", "x1^2,x2^3", "--tmax", "3"),
    (),
    ("--help",),
    *((verb, "--help") for verb in _VERBS),
    ("nope", "x1"),
    ("rank",),
    ("rank", "x1", "x2"),
    ("bound", "x1^2", "--tmax", "x"),
    ("survey", "0"),
    ("--json", "rank", "x1"),
    ("rank", "--", "x1*x2"),
], ids=lambda argv: " ".join(argv) or "no argv")
def test_a_verb_goes_straight_to_its_parser_as_through_the_top_level(
        capsys, monkeypatch, tmp_path, argv):
    """`main` parses a call that starts with a verb with that verb's parser
    alone and every other argv with the top-level parser; either way the
    exit or SystemExit code, stdout and stderr are those of the top-level
    parser's `parse_args` on the whole argv."""
    from waring import cli, serialize
    from waring.decompose import decompose_form
    from waring.forms import parse_form
    (tmp_path / "DEC.json").write_text(serialize.dumps(decompose_form(parse_form("x1*x2^2"))))
    monkeypatch.chdir(tmp_path)
    parser = cli.build_parser()
    top_level = []
    monkeypatch.setattr(parser, "parse_args",
                        lambda args: top_level.append(args) or type(parser).parse_args(parser, args))

    def outcome():
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    dispatched = outcome()
    assert bool(top_level) == (not argv or argv[0] not in _VERBS)
    monkeypatch.setattr(cli, "_parse_args", lambda args: cli.build_parser().parse_args(args))
    assert outcome() == dispatched


def test_decompose_of_a_thousand_variable_linear_form_exits_0(capsys):
    """x1 + ... + x1000 is its own first power.  Verifying it walks the
    1,000 compositions of degree 1 into 1,000 parts, which a recursive
    generator could not do within Python's recursion limit."""
    text = " + ".join(f"x{i}" for i in range(1, 1001))
    code, out, err = run(capsys, "decompose", text)
    assert (code, err) == (0, "")
    assert out == f"rank 1 decomposition of {text}:\n1 * ({text})^1   [block 0]\n"


def _wide_square_file(tmp_path, n):
    """A one-term degree-2 file over x1..xn with every coordinate 1."""
    one = {"order": 1, "coeffs": ["1"]}
    path = tmp_path / f"wide{n}.json"
    path.write_text(json.dumps({"degree": 2, "variables": [f"x{i}" for i in range(1, n + 1)],
                                "terms": [{"block": 0, "gamma": one, "linear": [one] * n,
                                           "point": [one] * n}]}))
    return path


def test_verify_prices_the_variable_count(capsys, tmp_path):
    """Each composition builds its monomial over every variable, so it
    counts ceil(n / 16) steps over n variables: a one-term degree-2 file
    over 400 variables has C(401, 2) = 80,200 compositions, priced
    80,201 steps by the compositions alone, and took a minute to FAIL.
    It is refused at once at 25 times that; up to 16 variables the price
    is unchanged."""
    from waring import decompose, serialize

    def steps(n):
        dec = serialize.decomposition_from_json(
            json.loads(_wide_square_file(tmp_path, n).read_text()))
        return decompose._lift(dec, [1]).steps

    assert (steps(16), steps(17)) == (comb(17, 2) + 1, 2 * comb(18, 2) + 1)
    _refused_at_once(capsys, ("verify", "x1^2", str(_wide_square_file(tmp_path, 400))),
                     "verifying takes 2.0e+06 steps", "above the step cap 1e+06")
    _refused_at_once(capsys, ("verify", "x1^2", str(_wide_square_file(tmp_path, 1000))),
                     "verifying takes 3.2e+07 steps")


@pytest.mark.parametrize("argv, line", [
    (("rank", "x1^0"), "error: constant term is not a monomial (at position 0)"),
    (("bound", "x1^0"), "error: constant input has no variables (at position 0)"),
    (("bound", "x1^2 + x2"), "error: mixed degrees: 2 vs 1"),
    (("rank", "0*x1"), "error: zero coefficient on x1"),
    (("bound", "x1*x2", "--tmax", "5"), "error: t_max 5 exceeds degree 2"),
    (("survey", "2", "--ratio"), "error: the comparison needs n >= 3"),
    (("verify", "x1^2", {"degree": 0, "variables": ["x1"], "terms": []}),
     "error: decomposition.degree: expected an int >= 1, got 0"),
    (("verify", "x1^2", {"degree": 2, "variables": [1, 2], "terms": []}),
     "error: decomposition.variables: expected a list of names"),
])
def test_input_errors_exit_1_with_their_one_line(capsys, tmp_path, argv, line):
    if isinstance(argv[-1], dict):
        path = tmp_path / "dec.json"
        path.write_text(json.dumps(argv[-1]))
        argv = (*argv[:-1], str(path))
    assert run(capsys, *argv) == (1, "", line + "\n")


# -- the closed form recognised by its text --------------------------------------


def _captured(*argv):
    """(exit code, stdout, stderr) of one `main` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _verify(text, obj, text_check=True):
    """What `verify` prints for the JSON `obj`; with the text check turned
    off, every file takes the loader and the number path."""
    with tempfile.TemporaryDirectory() as work:
        path = Path(work, "dec.json")
        path.write_text(json.dumps(obj))
        if text_check:
            return _captured("verify", text, str(path))
        with mock.patch.object(decompose, "_is_closed_form_json", return_value=False):
            return _captured("verify", text, str(path))


@st.composite
def _sum_texts(draw):
    """A coprime sum as text: degree 1 to 5, one to three blocks of one to
    four variables of their own, order-1 blocks such as x1^3 included."""
    d = draw(st.integers(1, 5))
    names = iter(draw(st.permutations([f"x{i}" for i in range(1, 13)])))
    text = ""
    for i in range(draw(st.integers(1, 3))):
        k = draw(st.integers(1, min(4, d)))
        cuts = sorted(draw(st.lists(st.integers(1, d - 1), min_size=k - 1, max_size=k - 1,
                                    unique=True))) if k > 1 else []
        exps = [b - a for a, b in zip([0, *cuts], [*cuts, d])]
        sign = draw(st.sampled_from([" + ", " - "])) if i else ""
        coefficient = draw(st.sampled_from(["", "2*", "1/3*", "5/4*"]))
        text += sign + coefficient + "*".join(
            f"{next(names)}^{e}" if e > 1 else next(names) for e in exps)
    return text


def _number(data, obj):
    """A drawn number object of a decomposition's JSON: a gamma, a linear
    entry or a point entry."""
    t = data.draw(st.sampled_from(obj["terms"]))
    field = data.draw(st.sampled_from(["gamma", "linear", "point"]))
    return t["gamma"] if field == "gamma" else data.draw(st.sampled_from(t[field]))


def _respell(data, obj):
    """One coefficient written equal but not as `decompose` writes it."""
    x = _number(data, obj)
    i = data.draw(st.integers(0, len(x["coeffs"]) - 1))
    q = Fraction(x["coeffs"][i])
    x["coeffs"][i] = data.draw(st.sampled_from(
        [f"{2 * q.numerator}/{2 * q.denominator}", *(["-0"] * (q == 0)),
         *([q.numerator] * (q.denominator == 1))]))


def _order(data, obj):
    """One number's order written as a bool or a float."""
    x = _number(data, obj)
    x["order"] = data.draw(st.sampled_from([True, 1.0, float(x["order"])]))


def _block(data, obj):
    data.draw(st.sampled_from(obj["terms"]))["block"] = True


def _extra_key(data, obj):
    place = data.draw(st.sampled_from(["top", "term", "number"]))
    target = {"top": obj, "term": data.draw(st.sampled_from(obj["terms"])),
              "number": _number(data, obj)}[place]
    target["note"] = "x"


def _permuted(data, obj):
    """The namespace permuted, each linear form with it: the same
    decomposition."""
    order = data.draw(st.permutations(range(len(obj["variables"]))))
    obj["variables"] = [obj["variables"][i] for i in order]
    for t in obj["terms"]:
        t["linear"] = [t["linear"][i] for i in order]


def _extra_variable(data, obj):
    """A variable outside the form, zero in every linear form, in each
    term's field or in Q."""
    i = data.draw(st.integers(0, len(obj["variables"])))
    rational = data.draw(st.booleans())
    obj["variables"].insert(i, "y0")
    for t in obj["terms"]:
        order = 1 if rational else t["gamma"]["order"]
        t["linear"].insert(i, {"coeffs": ["0"] * (1 if rational else len(t["gamma"]["coeffs"])),
                               "order": order})


def _missing_variable(data, obj):
    i = data.draw(st.integers(0, len(obj["variables"]) - 1))
    del obj["variables"][i]
    for t in obj["terms"]:
        del t["linear"][i]


def _moved_point(data, obj):
    """One point entry changed away from its linear entry."""
    x = data.draw(st.sampled_from(data.draw(st.sampled_from(obj["terms"]))["point"]))
    x["coeffs"][0] = str(Fraction(x["coeffs"][0]) + 1)


def _unreadable_point(data, obj):
    """One point coefficient that the loader refuses."""
    x = data.draw(st.sampled_from(data.draw(st.sampled_from(obj["terms"]))["point"]))
    x["coeffs"][0] = data.draw(st.sampled_from(["1e3", "0.5", None]))


def _reordered(data, obj):
    i, j = data.draw(st.lists(st.integers(0, len(obj["terms"]) - 1), min_size=2, max_size=2,
                              unique=True))
    obj["terms"][i], obj["terms"][j] = obj["terms"][j], obj["terms"][i]


def _changed_gamma(data, obj):
    x = data.draw(st.sampled_from(obj["terms"]))["gamma"]
    x["coeffs"][0] = str(Fraction(x["coeffs"][0]) + 1)


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_sum_texts(), st.data())
def test_the_text_check_prints_what_the_number_path_prints(text, data):
    """`verify` passes a file in `decompose --json`'s canonical text of the
    closed form from its JSON alone, without loading it: the unchanged
    output of `decompose --json` never reaches `decomposition_from_json`
    (a degree-1 form is declined).  On it and on every perturbation, equal
    but non-canonical spellings, a bool or float order (at order 1 too), a
    bool block, extra keys, a permuted, wider or narrower namespace, a
    point moved off its linear entry or unreadable, swapped terms and a
    changed gamma,
    `verify` prints what it prints with the text check turned off."""
    form = parse_form(text)
    code, out, _ = _captured("decompose", text, "--json")
    assert code == 0
    canonical = json.loads(out)
    same = _verify(text, canonical)
    assert same == _verify(text, canonical, text_check=False) and same[0] == 0
    if form.degree == 1:
        assert not decompose._is_closed_form_json(form, canonical, 1)
    else:
        with mock.patch.object(serialize, "decomposition_from_json",
                               side_effect=AssertionError("loaded")):
            assert _verify(text, canonical) == same
    perturbations = [_respell, _order, _block, _extra_key, _permuted, _extra_variable,
                     _missing_variable, _moved_point, _unreadable_point, _changed_gamma]
    if len(canonical["terms"]) > 1:
        perturbations.append(_reordered)
    for perturb in perturbations:
        obj = copy.deepcopy(canonical)
        perturb(data, obj)
        assert _verify(text, obj) == _verify(text, obj, text_check=False), perturb.__name__


def _terms_changed(data, obj, count):
    """`count` distinct terms (at most all), each with its gamma or one
    linear coordinate changed."""
    count = min(count, len(obj["terms"]))
    for j in data.draw(st.lists(st.integers(0, len(obj["terms"]) - 1), min_size=count,
                                max_size=count, unique=True)):
        t = obj["terms"][j]
        x = data.draw(st.sampled_from([t["gamma"], *t["linear"]]))
        x["coeffs"][0] = str(Fraction(x["coeffs"][0]) + 1)


def _one_changed_coordinate(data, obj):
    t = data.draw(st.sampled_from(obj["terms"]))
    x = data.draw(st.sampled_from(t["linear"]))
    x["coeffs"][0] = str(Fraction(x["coeffs"][0]) - 1)


def _changed_across_blocks(data, obj):
    _terms_changed(data, obj, data.draw(st.integers(2, 3)))


def _malformed_changed_term(data, obj):
    """One term changed so that the loader refuses it."""
    t = data.draw(st.sampled_from(obj["terms"]))
    how = data.draw(st.sampled_from(["exponent", "length", "block"]))
    if how == "exponent":
        t["gamma"]["coeffs"][0] = "1e3"
    elif how == "length":
        t["linear"].append(t["linear"][0])
    else:
        t["block"] = str(t["block"])


def _int_order_written_otherwise(data, obj):
    """A number's order written `true` or `1.0` (at order 1) or as a float,
    equal in Python, next to one changed term."""
    x = _number(data, obj)
    x["order"] = data.draw(st.sampled_from([True, 1.0] if x["order"] == 1
                                           else [float(x["order"])]))
    _terms_changed(data, obj, 1)


def _respelled_near_closed(data, obj):
    _respell(data, obj)
    _terms_changed(data, obj, 1)


def _half_changed(data, obj):
    _terms_changed(data, obj, -(-len(obj["terms"]) // 2))


def _another_block(data, obj):
    t = data.draw(st.sampled_from(obj["terms"]))
    t["block"] = data.draw(st.sampled_from(
        [b for b in range(len(obj["terms"]) + 1) if b != t["block"]]))
    _terms_changed(data, obj, data.draw(st.integers(0, 1)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_sum_texts(), st.data())
def test_a_near_closed_file_prints_what_the_full_load_prints(text, data):
    """A file that differs from `decompose --json`'s canonical text of the
    closed form in a few terms is loaded at those terms alone and checked
    from them (`_is_closed_form_json` gives them); one that differs in half
    of its terms or more, in every term of a block, or in a term's block is
    declined.  On one changed gamma or coordinate, two or three changed
    terms, a changed term the loader refuses, an order written `true`,
    `1.0` or as a float next to a changed term, an equal respelling next to
    a changed term, half of the terms changed and a term moved to another
    block, `verify` prints what it prints when every file is loaded."""
    code, out, _ = _captured("decompose", text, "--json")
    assert code == 0
    canonical = json.loads(out)
    for perturb in [_changed_gamma, _one_changed_coordinate, _changed_across_blocks,
                    _malformed_changed_term, _int_order_written_otherwise,
                    _respelled_near_closed, _half_changed, _another_block]:
        obj = copy.deepcopy(canonical)
        perturb(data, obj)
        assert _verify(text, obj) == _verify(text, obj, text_check=False), perturb.__name__


def _near_closed_file(text, positions, work):
    """`decompose --json` of `text` with the gammas at `positions` changed,
    written to a file in `work`: (path, the changed JSON)."""
    code, out, _ = _captured("decompose", text, "--json")
    obj = json.loads(out)
    for j in positions:
        coeffs = obj["terms"][j]["gamma"]["coeffs"]
        coeffs[-1] = str(Fraction(coeffs[-1]) + 3)
    path = Path(work, "near.json")
    path.write_text(json.dumps(obj))
    return path, obj


@pytest.mark.parametrize("text, positions", [
    ("x1*x2^4*x3^6", [3]),
    ("x1*x2^4*x3^6 + 2*x4^5*x5^6", [0, 40]),
    ("x1*x2*x3*x4 + 1/3*x5^4", [1, 6, 7]),
])
def test_a_near_closed_file_is_walked_once_and_loaded_at_its_changed_terms(
        tmp_path, text, positions):
    """The JSON walk of the closed form finds the `k` changed terms, and
    `verify` loads those alone: the loader is asked for them by position,
    and its per-term reader runs `k` times.  The closed form is walked
    once, the comparison of numbers never runs, and `verify` prints what
    the full load prints."""
    path, obj = _near_closed_file(text, positions, tmp_path)
    expected = _verify(text, obj, text_check=False)
    assert expected[0] == 2
    load = mock.Mock(wraps=serialize.decomposition_from_json)
    reader = mock.Mock(wraps=serialize.term_from_json)
    walk = mock.Mock(wraps=decompose._closed_form)
    numbers = mock.patch.object(decompose, "_is_closed_form",
                                side_effect=AssertionError("compared as numbers"))
    with mock.patch.object(serialize, "decomposition_from_json", load), numbers, \
            mock.patch.object(serialize, "term_from_json", reader), \
            mock.patch.object(decompose, "_closed_form", walk):
        assert _captured("verify", text, str(path)) == expected
    assert [c.args[1:] for c in load.call_args_list] == [(positions,)]
    assert [c.args[1] for c in reader.call_args_list] == positions
    assert walk.call_count == 1


@pytest.mark.parametrize("text", ["3*x1 - 2/3*x2 + x3", "x1^3 + x2*x3^2",
                                  "x1*x2^4*x3^6 + x4^3*x5^4*x6^4 + x7^2*x8^4*x9^5"],
                         ids=["degree 1", "two blocks", "three blocks"])
def test_decompose_walks_the_closed_form_once(tmp_path, text):
    """`decompose` prints the terms of one walk of the closed form and
    checks nothing again: with `verify_decomposition` and `_is_closed_form`
    made to fail, it exits 0 having walked the closed form once (a degree-1
    form, itself its one linear form, not at all), and what it prints
    passes `verify`."""
    walk = mock.Mock(wraps=decompose._closed_form)
    with mock.patch.object(decompose, "verify_decomposition",
                           side_effect=AssertionError("verified")), \
            mock.patch.object(decompose, "_is_closed_form",
                              side_effect=AssertionError("compared as numbers")), \
            mock.patch.object(decompose, "_closed_form", walk):
        code, out, err = _captured("decompose", text, "--json")
    assert (code, err) == (0, "")
    assert walk.call_count == (parse_form(text).degree > 1)
    path = tmp_path / "dec.json"
    path.write_text(out)
    code, out, err = _captured("verify", text, str(path))
    assert (code, out.splitlines()[-1], err) == (0, "PASS", "")


def test_a_near_closed_file_over_the_step_cap_is_loaded_whole(tmp_path, monkeypatch):
    """A changed term whose 2k-term plan is over the step cap sends the file
    to the full load and the flat check's price, as when it is declined:
    the loader reads the changed term, then the whole file."""
    path, obj = _near_closed_file("x1*x2^4*x3^6", [], tmp_path)
    obj["terms"][3]["linear"][0]["coeffs"][0] = "1" + "0" * 2000
    path.write_text(json.dumps(obj))
    monkeypatch.setattr(decompose, "MAX_VERIFY_STEPS", 5000)
    expected = _verify("x1*x2^4*x3^6", obj, text_check=False)
    assert expected[0] == 3 and "above the step cap" in expected[2]
    load = mock.Mock(wraps=serialize.decomposition_from_json)
    with mock.patch.object(serialize, "decomposition_from_json", load):
        assert _captured("verify", "x1*x2^4*x3^6", str(path)) == expected
    assert [c.args[1:] for c in load.call_args_list] == [([3],), ()]


@pytest.mark.parametrize("field", ["gamma", "linear", "point"])
@pytest.mark.parametrize("order", [True, 1.0])
def test_an_order_1_number_with_a_bool_or_float_order_is_refused(capsys, tmp_path, field,
                                                                 order):
    """`true == 1` and `1.0 == 1` in Python, so an order is compared by its
    type as well: x1^3's term has every number in Q, and a bool or float
    order in any of them is a load error, as it always was."""
    code, out, _ = run(capsys, "decompose", "x1^3 + x2*x3^2", "--json")
    data = json.loads(out)
    term = data["terms"][0]
    (term["gamma"] if field == "gamma" else term[field][0])["order"] = order
    path = tmp_path / "dec.json"
    path.write_text(json.dumps(data))
    field = "point" if field == "point" else field
    assert run(capsys, "verify", "x1^3 + x2*x3^2", str(path)) == (
        1, "", f"error: terms[0].{field}.order: expected int, got {order!r}\n")


@pytest.mark.parametrize("caps, line", [
    ({decompose: {"MAX_FIELD_ORDER": 4}, serialize: {"MAX_FIELD_ORDER": 4}},
     "error: terms[0].gamma.order: field order 5 is above the verification cap 4"),
    ({decompose: {"MAX_FIELD_ORDER": 4}},
     "error: verifying needs the field Q(zeta_5), above the field order cap 4"),
    ({decompose: {"MAX_VERIFY_STEPS": 3}},
     "error: verifying takes 7.0e+00 steps (compositions, class sums and pairs), "
     "above the step cap 3e+00"),
], ids=["loader-field", "admit-field", "admit-steps"])
def test_a_canonical_file_over_a_cap_is_refused(capsys, tmp_path, monkeypatch, caps, line):
    """The text check declines a file priced past either cap, which then
    exits 3 with the loader's or `_admit`'s message."""
    code, out, _ = run(capsys, "decompose", "x1*x2^4", "--json")
    path = tmp_path / "dec.json"
    path.write_text(out)
    for module, values in caps.items():
        for name, value in values.items():
            monkeypatch.setattr(module, name, value)
    assert run(capsys, "verify", "x1*x2^4", str(path)) == (3, "", line + "\n")
