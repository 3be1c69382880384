"""Monomials, validated sums of pairwise coprime monomials, and perp ideals.

Forms are read in the grammar

    form    := term | form '+' term | form '-' term
    term    := ['-'] [rational '*'] factor | term '*' factor
    factor  := variable ['^' integer]
    variable:= 'x' integer | letter
    rational:= integer ['/' positive-integer]

No rule nests a form inside another, so the grammar is regular: each term is
scanned by anchored regular expressions.  Whitespace is insignificant, and an
integer literal may have at most `sys.get_int_max_str_digits()` digits (4300
by default).  Examples: "x1^2*x2 + x3^3", "3/2*x*y*z", "a^2*b - 5*c^3".
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import lcm
from operator import ge, itemgetter

from .polynomials import Polynomial, monomial_text, signed_sum


class ParseError(ValueError):
    """Syntax error at a reported position in the input text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NonCoprimeError(ValueError):
    """Two monomials of a would-be coprime sum share a variable."""

    def __init__(self, variable: str, first: str, second: str):
        super().__init__(
            f"monomials {first} and {second} share the variable {variable}")
        self.variable = variable


class MixedDegreeError(ValueError):
    """Monomials of a would-be form have different total degrees."""

    def __init__(self, d1: int, d2: int):
        super().__init__(f"mixed degrees: {d1} vs {d2}")
        self.degrees = (d1, d2)


def _variable_key(name: str):
    """Canonical ordering: x1, x2, ... numerically, then bare letters."""
    m = re.fullmatch(r"x(\d+)", name)
    if m:
        return (0, int(m.group(1)), name)
    return (1, 0, name)


class Monomial:
    """A monomial with all exponents >= 1 over named variables.

    The input order of the variables is preserved; `sorted_items` gives the
    canonical ascending-exponent view (ties broken by input position), so the
    first entry is the designated least-exponent variable.  It and
    `sorted_exponents` are tuples, sorted once at construction.
    """

    __slots__ = ("variables", "exponents", "sorted_items", "sorted_exponents")

    def __init__(self, variables, exponents):
        if len(variables) != len(exponents):
            raise ValueError("variables and exponents length mismatch")
        if not variables:
            raise ValueError("a monomial needs at least one variable")
        if len(set(variables)) != len(variables):
            raise ValueError(f"repeated variable in {variables}")
        if any(e < 1 for e in exponents):
            raise ValueError("all exponents must be >= 1")
        self.variables = tuple(variables)
        self.exponents = tuple(int(e) for e in exponents)
        # (variable, exponent) pairs by ascending exponent, ties by input position
        self.sorted_items = tuple(sorted(zip(self.variables, self.exponents),
                                         key=itemgetter(1)))
        self.sorted_exponents = tuple(e for _, e in self.sorted_items)

    @property
    def n(self) -> int:
        return len(self.variables)

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    @property
    def least_variable(self) -> str:
        return self.sorted_items[0][0]

    def __eq__(self, other):
        return (isinstance(other, Monomial)
                and self.variables == other.variables
                and self.exponents == other.exponents)

    def __hash__(self):
        return hash((self.variables, self.exponents))

    def __str__(self):
        return monomial_text(self.variables, self.exponents)

    def __repr__(self):
        return f"Monomial({self})"


class CoprimeForm:
    """A validated sum of pairwise coprime monomials of a common degree."""

    def __init__(self, terms, variables=None):
        terms = [(Fraction(c), m) for c, m in terms]
        if not terms:
            raise ValueError("a form needs at least one monomial")
        for c, m in terms:
            if c == 0:
                raise ValueError(f"zero coefficient on {m}")
        d = terms[0][1].degree
        for _, m in terms[1:]:
            if m.degree != d:
                raise MixedDegreeError(d, m.degree)
        # the terms holding each variable, ascending: the least sharing pair
        # of terms is the least (L[0], L[1]), its shared variables those with it
        holders = {}
        for i, (_, m) in enumerate(terms):
            for v in m.variables:
                holders.setdefault(v, []).append(i)
        shared = [(L[0], L[1], _variable_key(v), v)
                  for v, L in holders.items() if len(L) > 1]
        if shared:
            i, j, _, v = min(shared)
            raise NonCoprimeError(v, str(terms[i][1]), str(terms[j][1]))
        if variables is None:
            variables = sorted(holders, key=_variable_key)
        else:
            missing = holders.keys() - set(variables)
            if missing:
                raise ValueError(f"namespace is missing variables {sorted(missing)}")
        self.terms = terms
        self.variables = tuple(variables)
        self.degree = d

    @property
    def r(self) -> int:
        return len(self.terms)

    @property
    def monomials(self):
        return [m for _, m in self.terms]

    @property
    def coefficients(self):
        return [c for c, _ in self.terms]

    def __eq__(self, other):
        return (isinstance(other, CoprimeForm)
                and self.variables == other.variables
                and self.terms == other.terms)

    def __str__(self):
        return render_form(self)

    def __repr__(self):
        return f"CoprimeForm({self})"


class MonomialIdeal:
    """A monomial ideal given by a minimal list of exponent-vector generators;
    a list known to be minimal (`minimal=True`) is kept as it is."""

    def __init__(self, num_vars: int, generators, names=None, minimal=False):
        gens = [tuple(int(e) for e in g) for g in generators]
        for g in gens:
            if len(g) != num_vars:
                raise ValueError(f"generator {g} has wrong length")
            if any(e < 0 for e in g):
                raise ValueError(f"negative exponent in generator {g}")
        self.num_vars = num_vars
        self.generators = tuple(sorted(gens if minimal else minimalize(gens)))
        self.names = tuple(names) if names else tuple(
            f"X{i + 1}" for i in range(num_vars))
        self._numerator = None      # kept by `apolarity.hilbert_numerator`

    def contains_power_of_every_variable(self) -> bool:
        covered = [False] * self.num_vars
        for gen in self.generators:
            nz = [i for i, e in enumerate(gen) if e]
            if len(nz) == 1:
                covered[nz[0]] = True
        return all(covered)

    def __eq__(self, other):
        return (isinstance(other, MonomialIdeal)
                and self.num_vars == other.num_vars
                and self.generators == other.generators)

    def __repr__(self):
        gens = ", ".join(monomial_text(self.names, g) for g in self.generators)
        return f"MonomialIdeal({gens})"


def minimalize(gens):
    """Drop repeated generators and those divisible by another generator;
    the rest keep their input order.  A proper divisor has a smaller
    degree, so one pass in order of degree tests each generator only
    against the kept generators of smaller degree."""
    gens = list(dict.fromkeys(gens))
    kept, lower, degree = [], 0, None      # kept[:lower] have smaller degree
    for g in sorted(gens, key=sum):
        if sum(g) != degree:
            degree, lower = sum(g), len(kept)
        if not any(all(map(ge, g, kept[j])) for j in range(lower)):
            kept.append(g)
    kept = set(kept)
    return [g for g in gens if g in kept]


# -- parsing -----------------------------------------------------------------

# Each term is scanned by anchored matches: an optional '-' and coefficient,
# factors each with its trailing '*', then the separator before the next term.
_COEFFICIENT = re.compile(r"\s*(-?)\s*(?:(\d+)\s*(?:/\s*(\d+)\s*)?\*)?")
_FACTOR = re.compile(r"\s*(x\d+|[A-Za-z])(?:\s*\^\s*(\d+))?(\s*\*)?")
_SEPARATOR = re.compile(r"\s*([-+]|\Z)")


def _integer(match, group: int) -> int:
    """A matched integer literal; one longer than the interpreter converts
    (`sys.get_int_max_str_digits()`) is a ParseError."""
    try:
        return int(match[group])
    except ValueError:
        raise ParseError(
            f"integer literal of {len(match[group])} digits is longer than the "
            f"limit of {sys.get_int_max_str_digits()} digits", match.start(group)) from None


def _unexpected(text: str, pos: int, end: int, expected: str) -> ParseError:
    rest = text[pos:end].lstrip()
    found = repr(rest[0]) if rest else "end of input"
    return ParseError(f"expected {expected}, got {found}", end - len(rest))


def _parse_terms(text: str, pos: int = 0, end: int | None = None):
    """Parse text[pos:end] into a list of (coefficient, merged {variable:
    exponent}) pairs; error positions count from the start of `text`.

    Repeated factors multiply; exponent-0 factors are dropped (they denote the
    constant 1 and do not enlarge the variable set)."""
    end = len(text) if end is None else end
    terms, sign = [], 1
    while True:
        m = _COEFFICIENT.match(text, pos, end)
        coeff = Fraction(-sign if m[1] else sign)
        if m[2]:
            den = _integer(m, 3) if m[3] else 1
            if not den:
                raise ParseError("zero denominator", m.start(3))
            coeff *= Fraction(_integer(m, 2), den)
        exps, pos, more = {}, m.end(), True
        while more:
            f = _FACTOR.match(text, pos, end)
            if not f:
                raise _unexpected(text, pos, end, "a variable")
            exp = _integer(f, 2) if f[2] else 1
            if exp:
                exps[f[1]] = exps.get(f[1], 0) + exp
            pos, more = f.end(), f[3]
        terms.append((coeff, exps))
        m = _SEPARATOR.match(text, pos, end)
        if not m:
            raise _unexpected(text, pos, end, "'*', '+', '-' or the end")
        if not m[1]:
            return terms
        sign, pos = -1 if m[1] == "-" else 1, m.end()


def _exponent_tuple(pairs, index) -> tuple:
    """(variable, exponent) pairs as an exponent tuple over `index`, a map
    from variable to position."""
    key = [0] * len(index)
    for v, e in pairs:
        key[index[v]] = e
    return tuple(key)


def _namespace(term_exps):
    """The canonical variable order of parsed {variable: exponent} maps, and
    each map as an exponent tuple in that order."""
    variables = tuple(sorted({v for exps in term_exps for v in exps},
                             key=_variable_key))
    index = {v: i for i, v in enumerate(variables)}
    return variables, [_exponent_tuple(exps.items(), index) for exps in term_exps]


def parse_form(text: str) -> CoprimeForm:
    """Parse and validate a sum of pairwise coprime monomials."""
    terms = []
    for coeff, exps in _parse_terms(text):
        if not exps:
            raise ParseError("constant term is not a monomial", 0)
        names = list(exps)
        terms.append((coeff, Monomial(names, [exps[v] for v in names])))
    return CoprimeForm(terms)


def parse_homogeneous(text: str) -> Polynomial:
    """Relaxed parse, for bound-only commands: merges like terms, allows
    shared variables, but still requires all monomials to have one common
    degree.  Variable i is the i-th name in the canonical order."""
    raw = _parse_terms(text)
    variables, keys = _namespace([exps for _, exps in raw])
    if not variables:
        raise ParseError("constant input has no variables", 0)
    degree, merged = sum(keys[0]), {}
    for (coeff, _), key in zip(raw, keys):
        if sum(key) != degree:
            raise MixedDegreeError(degree, sum(key))
        merged[key] = merged.get(key, Fraction(0)) + coeff
    form = Polynomial(len(variables), merged)
    if form.is_zero():
        raise ValueError("the form cancels to zero")
    return form


def as_homogeneous(form) -> Polynomial:
    """A form as a Polynomial over its own namespace.  A CoprimeForm's
    (coefficient, Monomial) pairs become exponent tuples directly: coprime
    monomials are distinct, so nothing merges.  A Polynomial passes through
    if it is nonzero and homogeneous."""
    if isinstance(form, CoprimeForm):
        index = {v: i for i, v in enumerate(form.variables)}
        return Polynomial(len(form.variables), {
            _exponent_tuple(zip(m.variables, m.exponents), index): c
            for c, m in form.terms})
    if not isinstance(form, Polynomial):
        raise TypeError(f"expected a form, got {type(form).__name__}")
    if form.is_zero() or not form.is_homogeneous():
        raise ValueError("expected a nonzero homogeneous polynomial")
    return form


def is_coprime_sum(form: Polynomial) -> bool:
    """True iff no two terms of the form share a variable."""
    seen = set()
    for support in form.supports:
        if not seen.isdisjoint(support):
            return False
        seen.update(support)
    return True


def parse_generator_list(text: str):
    """Comma-separated monomial generators, e.g. 'x1^2, x2^2', as (the
    variables they use, named as in the input, their exponent vectors in
    input order), not yet minimalized."""
    gen_terms, start = [], 0
    for chunk in text.split(","):
        parsed = _parse_terms(text, start, start + len(chunk))
        if len(parsed) != 1 or parsed[0][0] != 1:
            raise ParseError(f"generator {chunk.strip()!r} must be a plain monomial",
                             start + len(chunk) - len(chunk.lstrip()))
        gen_terms.append(parsed[0][1])
        start += len(chunk) + 1
    return _namespace(gen_terms)


def render_form(form: CoprimeForm) -> str:
    """Canonical text rendering; parse_form(render_form(F)) == F up to
    namespace pruning."""
    return signed_sum((coeff < 0, str(mono) if abs(coeff) == 1 else f"{abs(coeff)}*{mono}")
                      for coeff, mono in form.terms)


# -- apolarity-side constructions ---------------------------------------------


def perp_generators(monomial: Monomial) -> MonomialIdeal:
    """The perp ideal of a monomial: pure powers X_j^(a_j+1), one per variable
    in the support."""
    return pure_power_ideal([e + 1 for e in monomial.exponents],
                            dual_names(monomial.variables))


def pure_power(num_vars: int, i: int, e: int) -> tuple:
    """The exponent tuple of X_i^e among num_vars variables."""
    return (0,) * i + (e,) + (0,) * (num_vars - i - 1)


def pure_power_ideal(exponents, names=None) -> MonomialIdeal:
    """(X_1^e_1, ..., X_n^e_n), one pure power per variable; an exponent of
    1 is a linear generator."""
    n = len(exponents)
    return MonomialIdeal(n, [pure_power(n, i, e) for i, e in enumerate(exponents)], names,
                         minimal=0 not in exponents)


def dual_names(variables) -> tuple:
    """Names of the dual (differential-operator) variables: x3 -> X3,
    a -> A."""
    return tuple(f"X{v[1:]}" if v.startswith("x") and v[1:].isdigit() else v.upper()
                 for v in variables)


def decomposition_field_order(monomial: Monomial) -> int:
    """lcm of the root orders a_i+1 over the non-minimal sorted exponents."""
    exps = monomial.sorted_exponents
    if len(exps) == 1:
        return 1
    return lcm(*[a + 1 for a in exps[1:]])
