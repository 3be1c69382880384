"""Reference implementations that only tests use: the recursive generator of
compositions, a term-by-term expansion of linear-form powers, point
evaluation, the complete-intersection point ideal of a monomial,
monomial-ideal membership, a tokenizer with a
recursive-descent parser for forms, a term-by-term mismatch coefficient, an
all-pairs dependence scan, a catalecticant bound over every degree, the
plain pairwise-LCM intersection of monomial ideals and the round-by-round
split of a generator list into its first connected part and the rest.  They check the package
from the outside and are not part of it."""

import re
from fractions import Fraction
from math import lcm

from waring.apolarity import catalecticant
from waring.cyclotomic import CyclotomicNumber, _normalised, cyclic_mul, reduce_mod_phi
from waring.forms import MonomialIdeal, ParseError, as_homogeneous, minimalize, \
    pure_power
from waring.polynomials import Polynomial, compositions, multinomial


def recursive_compositions(total: int, parts: int):
    """Yield all tuples of `parts` non-negative integers summing to `total`,
    the largest first coordinate first, one generator frame per part."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in recursive_compositions(total - first, parts - 1):
            yield (first,) + rest


def poly_pow_linear(linear_coeffs, d: int) -> Polynomial:
    """Expand (sum_j c_j x_j)^d exactly via the multinomial theorem."""
    n = len(linear_coeffs)
    if d < 1:
        raise ValueError("exponent d must be positive")
    support = [j for j, c in enumerate(linear_coeffs) if c]
    if not support:
        return Polynomial.zero(n)
    terms = {}
    for alpha in compositions(d, len(support)):
        value = multinomial(d, alpha)
        for j, a in zip(support, alpha):
            if a:
                value = linear_coeffs[j] ** a * value
        exps = [0] * n
        for j, a in zip(support, alpha):
            exps[j] = a
        terms[tuple(exps)] = value
    return Polynomial(n, terms)


def evaluate(poly: Polynomial, point):
    """The polynomial's value at a point given as a sequence of scalars."""
    if len(point) != poly.num_vars:
        raise ValueError("point length mismatch")
    total = Fraction(0)
    for exps, coeff in poly.terms.items():
        value = coeff
        for p, e in zip(point, exps):
            if e:
                value = value * p ** e
        total = value + total
    return total


def as_polynomial(monomial, names) -> Polynomial:
    """The monomial as a Polynomial over the variables `names`, in that order."""
    exps = dict(zip(monomial.variables, monomial.exponents))
    return Polynomial.monomial([exps.get(v, 0) for v in names])


def ci_point_ideal(monomial):
    """Binomial generators X_j^(a_j+1) - X_1^(a_j+1) (sorted view, j >= 2) of
    the complete-intersection point ideal inside the perp ideal.

    Returned as Polynomials in the dual variables, aligned to the monomial's
    input variable order.  Empty for a single variable."""
    if monomial.n == 1:
        return []
    order = sorted(range(monomial.n),
                   key=lambda i: (monomial.exponents[i], i))
    n, first = monomial.n, order[0]
    return [Polynomial(n, {pure_power(n, i, monomial.exponents[i] + 1): Fraction(1),
                           pure_power(n, first, monomial.exponents[i] + 1): Fraction(-1)})
            for i in order[1:]]


def contains_monomial(ideal, exps) -> bool:
    """Whether x^exps lies in the monomial ideal: some generator divides it."""
    return any(all(e >= g for e, g in zip(exps, gen)) for gen in ideal.generators)


# -- forms by tokens and recursive descent ------------------------------------

_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<var>x\d+|[A-Za-z])|(?P<op>[-+*/^()]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}",
                             len(text) - len(stripped))
        if m.lastgroup:
            tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    # trailing whitespace only
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text))

    def take(self, kind=None, value=None):
        tok = self.peek()
        if tok[0] is None:
            raise ParseError("unexpected end of input", tok[2])
        if kind and tok[0] != kind or value and tok[1] != value:
            raise ParseError(f"unexpected token {tok[1]!r}", tok[2])
        self.i += 1
        return tok

    def parse(self):
        terms = [self.term(sign=1)]
        while True:
            kind, value, pos = self.peek()
            if kind is None:
                return terms
            if kind != "op" or value not in "+-":
                raise ParseError(f"expected '+' or '-', got {value!r}", pos)
            self.take()
            terms.append(self.term(sign=-1 if value == "-" else 1))

    def term(self, sign: int):
        coeff = Fraction(sign)
        factors = []
        kind, value, pos = self.peek()
        if kind == "op" and value == "-":
            # tolerated leading sign inside a term, e.g. "-x1*x2"
            self.take()
            coeff = -coeff
            kind, value, pos = self.peek()
        if kind == "int":
            self.take()
            num = int(value)
            den = 1
            if self.peek()[:2] == ("op", "/"):
                self.take()
                dtok = self.take("int")
                den = int(dtok[1])
                if den == 0:
                    raise ParseError("zero denominator", dtok[2])
            coeff *= Fraction(num, den)
            kind, value, pos = self.peek()
            if kind == "op" and value == "*":
                self.take()
            elif kind is None or (kind == "op" and value in "+-"):
                raise ParseError("constant term is not a monomial", pos)
            else:
                raise ParseError(f"expected '*' after coefficient, got {value!r}", pos)
        while True:
            factors.append(self.factor())
            if self.peek()[:2] == ("op", "*"):
                self.take()
                continue
            break
        return coeff, factors

    def factor(self):
        tok = self.take("var")
        name = tok[1]
        exp = 1
        if self.peek()[:2] == ("op", "^"):
            self.take()
            exp = int(self.take("int")[1])
        return name, exp, tok[2]


def parse_terms(text: str):
    """Parse into a list of (coefficient, merged {variable: exponent}) pairs,
    by tokens and recursive descent (the parser the package's regular-expression
    scan replaced).  Repeated factors multiply; exponent-0 factors are dropped."""
    raw = _Parser(text).parse()
    out = []
    for coeff, factors in raw:
        exps = {}
        for name, exp, _pos in factors:
            if exp:
                exps[name] = exps.get(name, 0) + exp
        out.append((coeff, exps))
    return out


# -- verification, one term or one pair at a time -----------------------------

def _stretch(lift, step):
    return {k * step: v for k, v in lift.items()}


def coefficient(decomposition, lifted, scale, exps):
    """The coefficient of x^exps in the expansion, added up term by term from
    the lifts of `decompose._lift`: an oracle for the value the verifier
    reads off its residual, which tests promote to the field it prints in.
    Each term's contribution is reduced modulo Phi_M of its own field M; the
    running sum is promoted to the lcm field whenever it is nonzero, and
    restarts in the next term's field when it is zero, so the field of the
    result can depend on the order of the terms."""
    d = decomposition.degree
    if sum(exps) != d:
        return Fraction(0)
    used = [i for i, a in enumerate(exps) if a]
    total_field, total = 1, [0]
    for t, (order, gamma, bases) in zip(decomposition.terms, lifted):
        if not gamma or any(i not in bases for i in used):
            continue
        field = lcm(t.gamma.order, *(t.linear[i].order for i in used))
        step = order // field
        acc = gamma
        for i in used:
            for _ in range(exps[i]):
                acc = cyclic_mul(acc, bases[i], order)
        coords = reduce_mod_phi(((k // step, v) for k, v in acc.items()), field)
        if any(total):
            both = lcm(total_field, field)
            promoted = (reduce_mod_phi(_stretch(dict(enumerate(c)), both // f).items(), both)
                        for c, f in ((total, total_field), (coords, field)))
            coords, field = [x + y for x, y in zip(*promoted)], both
        total_field, total = field, coords
    m = multinomial(d, exps)
    return _normalised(total_field, scale, [m * v for v in total])


def first_dependent_pair(forms, dependent):
    """The first pair (i, j), i < j, in loop order, of forms for which
    `dependent` holds, testing every pair."""
    return next(((i, j) for i in range(len(forms)) for j in range(i + 1, len(forms))
                 if dependent(forms[i], forms[j])), None)


# -- catalecticant bounds, every degree ranked ----------------------------------

def all_degrees_bound(form, t_max=None) -> int:
    """max over t = 1..t_max (default d) of the catalecticant rank, ranking
    every degree (the loop that `catalecticant_lower_bound` cut to t <= d/2)."""
    form = as_homogeneous(form)
    t_max = form.degree if t_max is None else t_max
    return max(catalecticant(form, t).rank() for t in range(1, t_max + 1))


# -- monomial ideals, every pair of generators joined ---------------------------

def pairwise_lcm_intersection(ideals) -> MonomialIdeal:
    """J_1 cap ... cap J_r as the minimalized LCMs of every pair of
    generators, one ideal at a time."""
    gens = list(ideals[0].generators)
    for other in ideals[1:]:
        gens = minimalize([tuple(max(a, b) for a, b in zip(g, h))
                           for g in gens for h in other.generators])
    return MonomialIdeal(ideals[0].num_vars, gens)


def rescanned_connected_part(gens):
    """The generators linked to the first one through shared variables, and
    the rest, found by rescanning the rest against the growing support until
    a round links nothing."""
    support = {v for v, a in enumerate(gens[0]) if a}
    part, rest = [gens[0]], gens[1:]
    while True:
        linked = [g for g in rest if any(g[v] for v in support)]
        if not linked:
            return part, rest
        part += linked
        rest = [g for g in rest if not any(g[v] for v in support)]
        support.update(v for g in linked for v, a in enumerate(g) if a)
