import itertools
import random
from fractions import Fraction

import pytest

from waring import rank
from waring.forms import CoprimeForm, Monomial, parse_form
from waring.rank import (
    EnumerationLimitError,
    ResourceLimitError,
    asymptotic_ratio_report,
    generic_rank,
    max_monomial_rank,
    max_monomial_rank_3vars,
    quadratic_form_rank,
    rank_coprime_sum,
    rank_monomial,
    survey_max_monomial_rank,
    survey_size,
)


def _mono(*exps):
    return Monomial([f"x{i + 1}" for i in range(len(exps))], list(exps))


def test_rank_single_variable():
    assert rank_monomial(_mono(7)) == 1


def test_rank_equal_exponents():
    assert rank_monomial(_mono(2, 2, 2)) == 9
    for n in range(1, 5):
        for m in range(1, 4):
            assert rank_monomial(_mono(*[m] * n)) == (m + 1) ** (n - 1)


def test_rank_sorted_formula():
    assert rank_monomial(_mono(1, 3)) == 4
    assert rank_monomial(_mono(3, 1)) == 4  # permutation invariant
    assert rank_monomial(_mono(2, 1, 3)) == 12


def test_rank_permutation_invariance():
    rng = random.Random(3)
    for _ in range(20):
        exps = [rng.randint(1, 5) for _ in range(rng.randint(2, 4))]
        base = rank_monomial(_mono(*exps))
        for perm in itertools.permutations(exps):
            assert rank_monomial(_mono(*perm)) == base


def test_rank_coprime_sum():
    assert rank_coprime_sum(parse_form("x1 + x2 + x3")) == 1
    assert rank_coprime_sum(parse_form("x1*x2 + x3^2")) == 3
    assert rank_coprime_sum(parse_form("x1^2*x2 + x3^3")) == 4


def test_rank_ignores_coefficients():
    assert rank_coprime_sum(parse_form("5*x1^2*x2 - 1/3*x3^3")) == 4


def test_quadratic_rank_matches_formula():
    rng = random.Random(11)
    for _ in range(20):
        # random coprime degree-2 form over a pool of variables
        pool = list(range(1, 9))
        rng.shuffle(pool)
        terms = []
        r = rng.randint(1, 3)
        for _ in range(r):
            if rng.random() < 0.5 and len(pool) >= 2:
                a, b = pool.pop(), pool.pop()
                terms.append((Fraction(rng.choice([-2, -1, 1, 3])),
                              Monomial([f"x{a}", f"x{b}"], [1, 1])))
            elif pool:
                a = pool.pop()
                terms.append((Fraction(rng.choice([-2, -1, 1, 3])),
                              Monomial([f"x{a}"], [2])))
        if not terms:
            continue
        form = CoprimeForm(terms)
        assert quadratic_form_rank(form) == rank_coprime_sum(form)


def test_generic_rank_values():
    assert generic_rank(3, 5).value == 7
    assert generic_rank(3, 5).exceptional is False
    assert generic_rank(1, 9).value == 1
    flagged = generic_rank(3, 4)
    assert flagged.value == 5 and flagged.exceptional is True


def test_generic_rank_exceptional_pairs():
    assert generic_rank(2, 2).exceptional
    assert generic_rank(5, 2).exceptional
    assert not generic_rank(1, 2).exceptional
    for n, d in ((3, 4), (4, 4), (5, 4), (5, 3)):
        assert generic_rank(n, d).exceptional


def test_generic_rank_binary_row():
    for d in range(1, 30):
        assert generic_rank(2, d).value == -(-(d + 1) // 2)


def test_max_monomial_rank_3vars():
    value, witness = max_monomial_rank_3vars(7)
    assert value == 16 and str(witness) == "x1*x2^3*x3^3"
    value, witness = max_monomial_rank_3vars(6)
    assert value == 12 and str(witness) == "x1*x2^2*x3^3"
    value, witness = max_monomial_rank_3vars(3)
    assert value == 4 and str(witness) == "x1*x2*x3"
    assert rank_monomial(witness) == 4


def test_max_monomial_rank_3vars_domain():
    with pytest.raises(ValueError):
        max_monomial_rank_3vars(2)


def test_survey_matches_closed_form():
    for d in range(3, 11):
        survey = survey_max_monomial_rank(3, d)
        closed, _ = max_monomial_rank_3vars(d)
        assert survey.value == closed
        assert rank_monomial(survey.witness) == survey.value


def test_survey_small_cases():
    assert survey_max_monomial_rank(1, 5).value == 1
    result = survey_max_monomial_rank(2, 9)
    assert result.value == 9
    assert result.witness.sorted_exponents == (1, 8)


def test_survey_includes_smaller_supports():
    table = dict(survey_max_monomial_rank(3, 4).table)
    assert (4,) in table and table[(4,)] == 1
    assert (1, 3) in table


def test_survey_resource_cap():
    with pytest.raises(EnumerationLimitError):
        survey_max_monomial_rank(4, 30, max_enum=10)


def test_ratio_report_three_vars():
    report = asymptotic_ratio_report(3, 50)
    assert report.limit == Fraction(3, 2)
    first = report.rows[0]
    assert (first.d, first.monomial_rank, first.generic_rank, first.ratio) == \
        (3, 4, 4, Fraction(1))
    last = report.rows[-1]
    assert abs(last.ratio - Fraction(3, 2)) <= Fraction(3, 2) * Fraction(5, 100)


def test_ratio_report_four_vars():
    report = asymptotic_ratio_report(4, 50)
    assert report.limit == Fraction(24, 27)
    last = report.rows[-1]
    assert abs(last.ratio - report.limit) <= report.limit * Fraction(5, 100)
    assert report.limit <= 1


@pytest.mark.parametrize("n", range(1, 8))
def test_balanced_scan_equals_the_brute_force_survey(n):
    for d in range(1, 31):
        survey = survey_max_monomial_rank(n, d)
        assert max_monomial_rank(n, d) == (survey.value, survey.witness), (n, d)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 40])
def test_survey_size_bounds_every_printed_row(n, monkeypatch):
    # the size counts 1 per witness variable and per bit of each printed rank
    printed = {}
    for d in range(1, 41):
        value, witness = max_monomial_rank(n, d)
        ranks = (value, generic_rank(n, d).value)
        printed[d] = witness.n + sum(r.bit_length() for r in ranks)
        monkeypatch.setattr(rank, "MAX_SURVEY_BITS", max(ranks).bit_length() - 1)
        with pytest.raises(ResourceLimitError, match="bits"):
            survey_size(n, range(d, d + 1))
    monkeypatch.undo()
    for lo, hi in itertools.combinations_with_replacement(range(1, 41), 2):
        assert survey_size(n, range(lo, hi + 1)) >= sum(printed[d] for d in range(lo, hi + 1))


@pytest.mark.parametrize("n", range(3, 9))
def test_ratio_report_refuses_below_its_printed_size(n, monkeypatch):
    for k_max in range(1, 12):
        report = asymptotic_ratio_report(n, k_max)
        rows = [(r.monomial_rank, r.generic_rank, r.ratio.numerator, r.ratio.denominator)
                for r in report.rows]
        bits = [x.bit_length() for row in rows for x in row]
        limit_bits = max(report.limit.numerator, report.limit.denominator).bit_length()
        for cap, value, kind in (("MAX_SURVEY_SIZE", sum(bits), "size"),
                                 ("MAX_SURVEY_BITS", max(bits + [limit_bits]), "bits")):
            monkeypatch.setattr(rank, cap, value - 1)
            with pytest.raises(ResourceLimitError, match=kind):
                asymptotic_ratio_report(n, k_max)
            monkeypatch.undo()
