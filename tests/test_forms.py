from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from reference import as_polynomial, ci_point_ideal, contains_monomial
from waring.forms import (
    CoprimeForm,
    MixedDegreeError,
    Monomial,
    MonomialIdeal,
    NonCoprimeError,
    ParseError,
    _parse_terms,
    decomposition_field_order,
    is_coprime_sum,
    minimalize,
    parse_form,
    parse_homogeneous,
    perp_generators,
    render_form,
)
from waring.polynomials import Polynomial, apply_differential


def test_parse_basic():
    form = parse_form("x1^2*x2 + x3^3")
    assert form.r == 2
    assert form.degree == 3
    assert form.variables == ("x1", "x2", "x3")
    assert str(form.monomials[0]) == "x1^2*x2"


def test_parse_coefficients():
    form = parse_form("3/2*x*y*z")
    assert form.coefficients == [Fraction(3, 2)]
    form = parse_form("a^2*b - 5*c^3")
    assert form.coefficients == [Fraction(1), Fraction(-5)]


def test_parse_non_coprime_names_variable():
    with pytest.raises(NonCoprimeError) as exc:
        parse_form("x1*x2 + x2*x3")
    assert exc.value.variable == "x2"


def test_parse_non_coprime_names_the_least_pair_of_terms():
    # (x1*x3, x3^2) is the least pair (i, j); (x2^2, x2*x4) has the least j
    with pytest.raises(NonCoprimeError) as exc:
        parse_form("x1*x3 + x2^2 + x2*x4 + x3^2")
    assert str(exc.value) == "monomials x1*x3 and x3^2 share the variable x3"


_NAMES = ("x1", "x2", "x9", "x10", "a", "b")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.sampled_from(_NAMES), min_size=1, max_size=3, unique=True),
                min_size=2, max_size=5))
def test_non_coprime_error_names_the_first_sharing_pair(supports):
    # every monomial has degree 3; the reference is the all-pairs scan
    terms = [(1, Monomial(v, [4 - len(v)] + [1] * (len(v) - 1))) for v in supports]
    expected = None
    for i, j in ((i, j) for i in range(len(terms)) for j in range(i + 1, len(terms))):
        shared = set(supports[i]) & set(supports[j])
        if shared:
            v = min(shared, key=lambda name: (not name.startswith("x"),
                                              int(name[1:]) if name[0] == "x" else 0, name))
            expected = f"monomials {terms[i][1]} and {terms[j][1]} share the variable {v}"
            break
    if expected is None:
        CoprimeForm(terms)
    else:
        with pytest.raises(NonCoprimeError) as exc:
            CoprimeForm(terms)
        assert str(exc.value) == expected


def test_parse_mixed_degrees():
    with pytest.raises(MixedDegreeError) as exc:
        parse_form("x1^2 + x2^3")
    assert exc.value.degrees == (2, 3)


def test_parse_syntax_error_has_position():
    with pytest.raises(ParseError) as exc:
        parse_form("x1^2 ++ x2^2")
    assert exc.value.position == 6
    with pytest.raises(ParseError):
        parse_form("x1 @ x2")
    with pytest.raises(ParseError):
        parse_form("3 + x1")  # constant term


def test_parse_exponent_zero_factor_dropped():
    form = parse_form("x1^2*x2^0 + x3^2")
    assert str(form.monomials[0]) == "x1^2"


def test_parse_repeated_factor_merges():
    form = parse_form("x1*x1*x2")
    assert str(form.monomials[0]) == "x1^2*x2"


def test_render_round_trip():
    for text in ("x1^2*x2 + x3^3", "3/2*x*y*z", "a^2*b - 5*c^3",
                 "x1*x2 - x3^2 + 2*x4*x5"):
        form = parse_form(text)
        assert parse_form(render_form(form)) == form


def test_monomial_sorted_view_and_least_variable():
    m = Monomial(["x2", "x1"], [3, 1])
    assert m.sorted_exponents == (1, 3)
    assert m.least_variable == "x1"
    # tie broken by input order
    m = Monomial(["x2", "x1"], [2, 2])
    assert m.least_variable == "x2"


def test_monomial_rejects_zero_exponent():
    with pytest.raises(ValueError):
        Monomial(["x1"], [0])


def test_perp_generators():
    m = parse_form("x1*x2*x3").monomials[0]
    perp = perp_generators(m)
    assert perp.generators == ((0, 0, 2), (0, 2, 0), (2, 0, 0))

    m = parse_form("x1^5").monomials[0]
    assert perp_generators(m).generators == ((6,),)

    m = parse_form("x1*x2^3").monomials[0]
    perp = perp_generators(m)
    assert perp.generators == ((0, 4), (2, 0))
    target = as_polynomial(m, m.variables)
    for gen in perp.generators:
        assert apply_differential(Polynomial.monomial(gen), target).is_zero()


def test_ci_point_ideal_binary():
    m = parse_form("x1*x2").monomials[0]
    gens = ci_point_ideal(m)
    assert len(gens) == 1
    assert gens[0].terms == {(0, 2): 1, (2, 0): -1}


def test_ci_point_ideal_annihilates():
    for text in ("x1*x2^2", "x1^2*x2^2*x3^3", "x1*x2*x3", "x1^3*x2"):
        m = parse_form(text).monomials[0]
        target = as_polynomial(m, m.variables)
        gens = ci_point_ideal(m)
        assert len(gens) == m.n - 1
        for g in gens:
            assert apply_differential(g, target).is_zero()


def test_ci_point_ideal_single_variable_empty():
    m = parse_form("x1^4").monomials[0]
    assert ci_point_ideal(m) == []


def test_ci_point_ideal_sorted_exponents():
    m = parse_form("x1^2*x2^2*x3^3").monomials[0]
    gens = ci_point_ideal(m)
    # a = (2,2,3) sorted: generators X2^3 - X1^3 and X3^4 - X1^4
    assert gens[0].terms == {(0, 3, 0): 1, (3, 0, 0): -1}
    assert gens[1].terms == {(0, 0, 4): 1, (4, 0, 0): -1}


def test_drop_unused_variables():
    form = CoprimeForm([(Fraction(1), Monomial(["x1"], [3]))],
                       variables=["x1", "x2", "x3", "x4", "x5"])
    assert len(form.variables) == 5
    reduced = CoprimeForm(form.terms)
    assert reduced.variables == ("x1",)
    # idempotent on already-minimal forms
    assert CoprimeForm(reduced.terms) == reduced


def test_parse_homogeneous_allows_overlap():
    form = parse_homogeneous("x1*x2 + x2*x3 + x1*x2")
    assert form.degree == 2
    assert form.terms[(1, 1, 0)] == 2


def test_parse_homogeneous_rejects_cancellation():
    with pytest.raises(ValueError):
        parse_homogeneous("x1*x2 - x1*x2")


def test_is_coprime_sum_reads_the_merged_form():
    assert isinstance(parse_homogeneous("x1*x2"), Polynomial)
    for text, coprime in [("x1*x2 + x1*x2", True), ("0*x1 + x2", True),
                          ("x1^2*x2 + x3^3", True), ("x1^2*x2 + x1*x2^2", False),
                          ("a*b - a*c", False)]:
        assert is_coprime_sum(parse_homogeneous(text)) is coprime, text


def test_monomial_ideal_minimalizes():
    ideal = MonomialIdeal(2, [(2, 0), (2, 1), (0, 3)])
    assert ideal.generators == ((0, 3), (2, 0))
    assert contains_monomial(ideal, (5, 1))
    assert not contains_monomial(ideal, (1, 2))


def test_decomposition_field_order():
    assert decomposition_field_order(parse_form("x1^4").monomials[0]) == 1
    assert decomposition_field_order(parse_form("x1*x2^2").monomials[0]) == 3
    assert decomposition_field_order(parse_form("x1*x2^2*x3^3").monomials[0]) == 12


# -- property tests: rendering and the two parsers ----------------------------

_NAMES = [f"x{i}" for i in range(1, 13)] + list("abcxyzABQ")


@st.composite
def _coprime_forms(draw):
    """Coprime sums of degree <= 6 in at most three blocks of at most three
    variables, named x<i> or by single letters, with rational coefficients
    of either sign and each monomial's variables in a shuffled order."""
    rng = draw(st.randoms(use_true_random=False))
    d = rng.randint(1, 6)
    sizes = [rng.randint(1, min(3, d)) for _ in range(rng.randint(1, 3))]
    names = rng.sample(_NAMES, sum(sizes))
    terms = []
    for size in sizes:
        block, names = names[:size], names[size:]
        cuts = sorted(rng.sample(range(1, d), size - 1))
        exps = [b - a for a, b in zip([0] + cuts, cuts + [d])]
        coeff = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))
        terms.append((coeff, Monomial(block, exps)))
    return CoprimeForm(terms)


@settings(max_examples=150, deadline=None)
@given(_coprime_forms())
def test_parse_form_inverts_render_form(form):
    assert parse_form(render_form(form)) == form


@settings(max_examples=60, deadline=None)
@given(_coprime_forms())
def test_both_parsers_give_the_same_catalecticant_bound(form):
    from waring.apolarity import catalecticant_lower_bound
    text = render_form(form)
    assert catalecticant_lower_bound(parse_form(text)) == \
        catalecticant_lower_bound(parse_homogeneous(text))


_TOKENS = ["x1", "x12", "x", "y", "a", "Q", "0", "1", "7", "12", "007",
           "^", "*", "/", "+", "-", " ", "(", ".", "\t"]


@st.composite
def _form_like(draw):
    """Token strings near the grammar: signed terms of an optional rational
    coefficient and factors with optional exponents, with optional spaces
    between tokens, and now and then one token swapped for any other."""
    tokens = []
    for i in range(draw(st.integers(1, 3))):
        if i:
            tokens.append(draw(st.sampled_from("+-")))
        if draw(st.booleans()):
            tokens.append("-")
        if draw(st.booleans()):
            tokens.append(draw(st.sampled_from(["0", "3", "12", "007"])))
            if draw(st.booleans()):
                tokens += ["/", draw(st.sampled_from(["0", "1", "4", "05"]))]
            tokens.append("*")
        for j in range(draw(st.integers(1, 3))):
            if j:
                tokens.append("*")
            tokens.append(draw(st.sampled_from(["x1", "x12", "x", "y", "a"])))
            if draw(st.booleans()):
                tokens += ["^", draw(st.sampled_from(["0", "1", "2", "10"]))]
    if draw(st.booleans()):
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(_TOKENS))
    return "".join(t + draw(st.sampled_from(["", "", " "])) for t in tokens)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(st.lists(st.sampled_from(_TOKENS), max_size=12).map("".join),
                 _form_like()))
@example("x1 - -x2")
@example("-3/4*x^0*y*y^2 +  5 * a")
@example("x1^2 ++ x2^2")
@example("3 + x1")
@example("x1y")
@example("x 1")
@example("(x1)")
@example("")
def test_the_scan_reads_forms_as_the_recursive_descent_parser(text):
    try:
        expected = reference.parse_terms(text)
    except ParseError:
        with pytest.raises(ParseError):
            _parse_terms(text)
    else:
        # the order of the variables is part of the result
        assert [(c, list(e.items())) for c, e in _parse_terms(text)] == \
            [(c, list(e.items())) for c, e in expected]


def _all_pairs_minimalize(gens):
    """The quadratic minimalize the one-pass version replaced: each
    generator against every other."""
    out = []
    for g in gens:
        if any(h != g and all(a >= b for a, b in zip(g, h)) for h in gens):
            continue
        if g not in out:
            out.append(g)
    return out


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.tuples(*[st.integers(0, 4)] * n), max_size=12)))
def test_minimalize_equals_the_all_pairs_version(gens):
    assert minimalize(gens) == _all_pairs_minimalize(gens)
