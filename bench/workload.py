"""Seeded job lists for the decompose, reverify and certify workloads.

Everything here is independent of the package under test: forms are rendered
as text, and the decompositions that `reverify` checks are built with the
closed-form gammas of Fischer (Math. Mag. 1994) and Buczynska-Buczynski-Teitler
(arXiv:1201.2922) in this file's own cyclotomic arithmetic, so a change to the
package's gamma construction moves neither those inputs nor the set-up time.

Each workload is one *pass*: a fixed list of jobs.  The seed draws the
variable names, the coefficients, the output formats, which reverify files
are tampered and how, and the job order.  What sets a job's cost (monomial
and sum shapes, exponent order, degrees, t_max, survey sizes to within one)
is the same for every seed, so neither the cost of a pass nor which jobs sit
at its percentiles depends much on the seed.
"""

from __future__ import annotations

import json
import os
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial, lcm, prod

WORKLOADS = ("decompose", "reverify", "certify")

# Monomial shapes (sorted exponents) drawn by `decompose` and `reverify`: the
# acceptance sweep (2 <= n <= 4, d <= 8) minus the 4-variable shapes of
# degree 7 and 8, which take 2-10 s each and would dominate every pass.  The
# 3-variable shapes (1,2,4), (2,2,4) and (1,3,4) live in Q(zeta_15) and
# Q(zeta_20), where phi(N) = 8.
SWEEP_SHAPES = tuple(
    [(a, d - a) for d in range(2, 9) for a in range(1, d // 2 + 1)]
    + [s for d in range(3, 9) for s in product(range(1, 7), repeat=3)
       if sum(s) == d and list(s) == sorted(s)]
    + [(1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 1, 3), (1, 1, 2, 2)])
# Block shapes of the random coprime sums: every shape of degree 2..6 in at
# most three variables, grouped by degree into sums of up to three blocks,
# twice over.  The groupings are drawn once, with a fixed seed, so that every
# pass has the same sum shapes and its cost does not depend on the workload
# seed.
SUM_BLOCK_SHAPES = tuple(s for d in range(2, 7) for n in (1, 2, 3)
                         for s in product(range(1, d + 1), repeat=n)
                         if sum(s) == d and list(s) == sorted(s))
CERTIFY_REPEAT = 3
VARIABLES = tuple(f"x{i}" for i in range(1, 10)) + tuple("pqrstuvwyz")


def _variable_key(name):
    """The package's documented variable order: x1, x2, ... numerically,
    then bare letters."""
    m = re.fullmatch(r"x(\d+)", name)
    return (0, int(m.group(1)), name) if m else (1, 0, name)


@dataclass(frozen=True)
class Form:
    """A sum of pairwise coprime monomials, as blocks of
    (coefficient, ((variable, exponent), ...)) in input order."""

    blocks: tuple

    @property
    def degree(self):
        return sum(e for _, e in self.blocks[0][1])

    @property
    def variables(self):
        return tuple(sorted((v for _, m in self.blocks for v, _ in m),
                            key=_variable_key))

    def text(self):
        parts = []
        for coeff, mono in self.blocks:
            body = "*".join(v if e == 1 else f"{v}^{e}" for v, e in mono)
            mag = abs(coeff)
            piece = body if mag == 1 else f"{_q(mag)}*{body}"
            if not parts:
                parts.append(piece if coeff > 0 else f"-{piece}")
            else:
                parts.append(("+ " if coeff > 0 else "- ") + piece)
        return " ".join(parts)


@dataclass(frozen=True)
class Job:
    """One CLI call.  `argv` is what the program receives; `expect` is what
    the oracle needs to check the output (never passed to the program)."""

    kind: str
    argv: tuple
    expect: dict = field(default_factory=dict, compare=False, hash=False)
    json_bytes: int = 0      # size of the decomposition file a verify job reads


def _q(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _coefficient(rng, positive=False):
    """A small rational; the first term of a form is kept positive so that
    its text never starts with '-', which argparse would take for a flag."""
    return Fraction(rng.choice((1, 1, 2, 3, 5, 7)) * rng.choice((1, 1 if positive else -1)),
                    rng.choice((1, 1, 2, 3, 4)))


def _partitions(d, n):
    """Nondecreasing positive n-tuples summing to d."""
    if n == 1:
        return [(d,)]
    return [(a,) + rest for a in range(1, d // n + 1)
            for rest in _partitions(d - a, n - 1) if rest[0] >= a]


@lru_cache(maxsize=None)
def _exponent_order(shape):
    """A fixed order of a shape's exponents (shuffled once per shape)."""
    exps = list(shape)
    random.Random(str(shape)).shuffle(exps)
    return tuple(exps)


def _sum_form(rng, shapes):
    """A coprime sum with one block per shape.  The seed draws the variable
    names and the coefficients.  The exponents keep a fixed order per shape
    and take the drawn names in sorted order, because the order of the
    exponents alone changes a decompose job's time by up to 50 %."""
    names = sorted(rng.sample(VARIABLES, sum(map(len, shapes))), key=_variable_key)
    blocks = []
    for k, shape in enumerate(shapes):
        block, names = names[:len(shape)], names[len(shape):]
        blocks.append((_coefficient(rng, positive=not k),
                       tuple(zip(block, _exponent_order(shape)))))
    return Form(tuple(blocks))


def _random_sum(rng, d_max):
    """A random coprime sum in the style of the acceptance suite: degree
    2..d_max, one to three blocks of up to three variables."""
    d = rng.randint(2, d_max)
    return _sum_form(rng, [rng.choice(_partitions(d, rng.randint(1, min(3, d))))
                           for _ in range(rng.randint(1, 3))])


def _sum_shapes():
    """Per degree, the shuffled blocks cut into sums of 3, 1, 2, 3, ... blocks;
    two such groupings."""
    rng = random.Random("sum-shapes")
    sums = []
    for d in [d for _ in range(2) for d in range(2, 7)]:
        shapes = [s for s in SUM_BLOCK_SHAPES if sum(s) == d]
        rng.shuffle(shapes)
        while shapes:
            size = (3, 1, 2)[len(sums) % 3]
            sums.append(tuple(shapes[:size]))
            shapes = shapes[size:]
    return tuple(sums)


SUM_SHAPES = _sum_shapes()


def sweep_forms(rng):
    """One pass of the decompose/reverify population: every sweep shape and
    every sum shape once."""
    return [_sum_form(rng, shapes) for shapes in [(s,) for s in SWEEP_SHAPES] + list(SUM_SHAPES)]


# -- closed-form decompositions in Q(zeta_N) ----------------------------------

@lru_cache(maxsize=None)
def cyclotomic_poly(n):
    """Integer coefficients of Phi_n, constant term first."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            den = cyclotomic_poly(d)
            quot = [0] * (len(poly) - len(den) + 1)
            for i in range(len(quot) - 1, -1, -1):
                q = poly[i + len(den) - 1]   # Phi_d is monic
                quot[i] = q
                for j, c in enumerate(den):
                    poly[i + j] -= q * c
            poly = quot
    return tuple(poly)


@lru_cache(maxsize=None)
def zeta_power(n, k):
    """zeta_n^k in the power basis 1, zeta, ..., zeta^(phi(n)-1)."""
    phi = cyclotomic_poly(n)
    deg = len(phi) - 1
    row = [0] * (k % n + 1)
    row[-1] = 1
    for top in range(len(row) - 1, deg - 1, -1):
        c = row[top]
        if c:
            for i in range(deg + 1):
                row[top - deg + i] -= c * phi[i]
    return tuple(row[:deg] + [0] * (deg - len(row)))


def cyclo_json(order, coeffs):
    return {"order": order, "coeffs": [_q(c) for c in coeffs]}


def block_field_order(shape):
    """lcm of a_i + 1 over the non-minimal sorted exponents."""
    return lcm(*[a + 1 for a in sorted(shape)[1:]]) if len(shape) > 1 else 1


def closed_form_terms(coeff, mono):
    """The rank(M) terms of coeff * M as (N, gamma coordinates,
    {variable: k with coordinate zeta_N^k}), with
    M = x_0^a_0 ... x_n^a_n, a_0 minimal (ties broken by input position):
    gamma_eps = coeff * prod eps_i^(-a_i) / (multinomial(d; a) prod (a_i+1))
    on the linear forms x_0 + sum eps_i x_i, eps_i ranging over the
    (a_i+1)-th roots of unity.  Coordinates are powers of zeta_N."""
    items = sorted(mono, key=lambda ve: ve[1])   # stable: ties keep input order
    order = block_field_order([e for _, e in mono])
    d = sum(e for _, e in mono)
    scale = Fraction(coeff) / (factorial(d) // prod(factorial(e) for _, e in mono)
                               * prod(e + 1 for _, e in items[1:]))
    terms = []
    for ks in product(*[range(e + 1) for _, e in items[1:]]):
        steps = [order // (e + 1) * k for (_, e), k in zip(items[1:], ks)]
        # eps^(-a) = eps because eps^(a+1) = 1
        gamma = [scale * c for c in zeta_power(order, sum(steps))]
        coords = {items[0][0]: 0}
        coords.update((v, s) for (v, _), s in zip(items[1:], steps))
        terms.append((order, gamma, coords))
    return terms


def decomposition_json(form):
    """The closed-form minimal decomposition of `form` in the package's JSON
    schema (including the per-block `point` field)."""
    variables = form.variables
    terms = []
    for block, (coeff, mono) in enumerate(form.blocks):
        for order, gamma, coords in closed_form_terms(coeff, mono):
            deg = len(cyclotomic_poly(order)) - 1
            zero = cyclo_json(order, [0] * deg)
            point = [cyclo_json(order, zeta_power(order, coords[v])) for v, _ in mono]
            linear = [cyclo_json(order, zeta_power(order, coords[v]))
                      if v in coords else zero for v in variables]
            terms.append({"gamma": cyclo_json(order, gamma), "linear": linear,
                          "block": block, "point": point})
    return {"degree": form.degree, "variables": list(variables), "terms": terms}


def general_number(rng, order):
    """A random element of Q(zeta_N) with every power-basis coordinate a
    nonzero rational."""
    deg = len(cyclotomic_poly(order)) - 1
    return [Fraction(rng.choice((1, -1)) * rng.randint(1, 9), rng.randint(1, 5))
            for _ in range(deg)]


def tamper(dec, form, rng):
    """Change one gamma or one linear coefficient of one term to a general
    cyclotomic number, in a way that provably breaks the expansion:
    gamma -> gamma + delta (delta != 0) adds delta * L^d != 0; a linear
    coefficient is only replaced in a block of two or more variables, where
    L' = omega * L would force omega = 1 on an untouched coordinate."""
    j = rng.randrange(len(dec["terms"]))
    term = dec["terms"][j]
    order = term["gamma"]["order"]
    delta = general_number(rng, order)
    block_vars = [v for v, _ in form.blocks[term["block"]][1]]
    if len(block_vars) > 1 and rng.random() < 0.5:
        k = dec["variables"].index(rng.choice(block_vars))
        old = [Fraction(c) for c in term["linear"][k]["coeffs"]]
        if old == delta:
            delta = [c + 1 for c in delta]
        term["linear"][k] = cyclo_json(order, delta)
        return f"linear[{j}][{k}]"
    gamma = [Fraction(c) + x for c, x in zip(term["gamma"]["coeffs"], delta)]
    term["gamma"] = cyclo_json(order, gamma)
    return f"gamma[{j}]"


# -- job lists ---------------------------------------------------------------

def block_rank(mono):
    """Closed-form monomial rank: prod_{i>=2} (a_i + 1), exponents sorted."""
    return prod(a + 1 for a in sorted(e for _, e in mono)[1:])


def rank_of(form):
    """Closed-form rank of a coprime sum: the sum of its block ranks."""
    return 1 if form.degree == 1 else sum(block_rank(m) for _, m in form.blocks)


def decompose_jobs(seed):
    rng = random.Random(f"decompose:{seed}")
    jobs = [Job("decompose", ("decompose", f.text(), "--json"),
                {"form": f, "rank": rank_of(f)})
            for f in sweep_forms(rng)]
    rng.shuffle(jobs)
    return jobs


def reverify_jobs(seed, workdir):
    """Write one closed-form decomposition file per form into `workdir`; a
    seeded quarter of them are tampered and must FAIL (exit 2).  Exactly one
    form in each run of four consecutive shapes is tampered, so each pass
    tampers the same mix of sizes."""
    rng = random.Random(f"reverify:{seed}")
    forms = sweep_forms(rng)
    tampered = {i + rng.randrange(min(4, len(forms) - i))
                for i in range(0, len(forms), 4)}
    os.makedirs(workdir, exist_ok=True)
    jobs = []
    for i, f in enumerate(forms):
        dec = decomposition_json(f)
        change = tamper(dec, f, rng) if i in tampered else None
        path = os.path.join(workdir, f"dec{i:03d}.json")
        text = json.dumps(dec, indent=2, sort_keys=True)
        with open(path, "w") as fh:
            fh.write(text)
        jobs.append(Job("verify", ("verify", f.text(), path),
                        {"form": f, "pass": change is None, "tampered": change},
                        json_bytes=len(text)))
    rng.shuffle(jobs)
    return jobs


def certify_jobs(seed):
    """The apolarity/rank mix: bounds, Hilbert functions, claim identities,
    surveys and closed-form ranks, CERTIFY_REPEAT times over with fresh
    draws.  No job touches cyclotomic arithmetic.  Sizes that set a job's
    cost (shapes, degrees, variable counts, t_max, survey sizes to within
    one) are fixed per slot, so the 80th percentile falls on the same slots
    for every seed; the seed draws exponents, coefficients, names and output
    formats."""
    rng = random.Random(f"certify:{seed}")
    jobs = []

    def add(kind, argv, **expect):
        jobs.append(Job(kind, tuple(str(a) for a in argv if a is not None), expect))

    def fmt(name):
        return name if rng.random() < 0.5 else None

    for _ in range(CERTIFY_REPEAT):
        # catalecticant bounds on monomials, up to degree 24 in three
        # variables.  The (3, 12) and (4, 8) slots take about 12 ms each and
        # hold the 80th percentile, so its job does not change with the seed.
        for n, d, t in ((3, 6, None), (3, 9, 4), (3, 12, None), (3, 12, None),
                        (3, 12, None), (3, 15, 7), (3, 18, 9), (3, 24, 8),
                        (2, 7, None), (2, 12, None), (4, 8, None), (4, 8, None),
                        (4, 8, None), (4, 10, 5)):
            f = _sum_form(rng, [rng.choice(_partitions(d, n))])
            js = fmt("--json")
            add("bound", ("bound", f.text(), "--tmax" if t else None, t, js),
                form=f, t_max=t, json=bool(js))
        # ... on coprime sums
        for shapes, t in ((((1, 2), (3,), (1, 1, 1)), None), (((2, 2), (1, 3)), None),
                          (((1, 1, 3), (5,)), 2), (((1, 2, 3), (2, 4)), 3)):
            f = _sum_form(rng, shapes)
            js = fmt("--json")
            add("bound", ("bound", f.text(), "--tmax" if t else None, t, js),
                form=f, t_max=t, json=bool(js))
        # ... and on non-coprime homogeneous forms
        for d in (3, 4, 5, 6):
            terms = _non_coprime_terms(rng, d)
            js = fmt("--json")
            add("bound_general", ("bound", _poly_text(terms), js), terms=terms, json=bool(js))
        # Hilbert-function tables of monomial quotients
        for n, t_max in ((1, 6), (2, 8), (2, 12), (3, 8), (3, 10), (4, 8)):
            gens, names = _hf_generators(rng, n)
            js = fmt("--json")
            add("hf", ("hf", ",".join(_mono_text(names, g) for g in gens),
                       "--tmax", t_max, js),
                gens=gens, t_max=t_max, json=bool(js))
        # the intersection identity behind additivity
        for shapes, t in ((((1, 2), (3,)), None), (((1, 1, 2), (2, 2)), 4),
                          (((1, 2, 2), (2, 3), (1, 4)), None), (((2, 5), (1, 6)), 7)):
            f = _sum_form(rng, shapes)
            add("claim", ("hf", "--claim", f.text(), "--tmax" if t else None, t), form=f)
        add("claim_random", ("hf", "--claim-random", 2, "--seed", rng.randint(0, 999)),
            count=2)
        # extremal surveys against the generic rank
        for n, d in ((3, 20), (5, 12), (8, 16), (12, 10)):
            n, d = n + rng.randint(-1, 1), d + rng.randint(-1, 1)
            csv = fmt("--csv")
            add("survey", ("survey", n, d, csv), n=n, degrees=[d], csv=bool(csv))
        n, lo = rng.randint(3, 6), rng.randint(6, 9)
        csv = fmt("--csv")
        add("survey", ("survey", n, "--range", f"{lo}:{lo + 4}", csv),
            n=n, degrees=list(range(lo, lo + 5)), csv=bool(csv))
        # closed-form ranks
        for _ in range(5):
            f = _random_sum(rng, d_max=9)
            js = fmt("--json")
            add("rank", ("rank", f.text(), js), form=f, json=bool(js))
    rng.shuffle(jobs)
    return jobs


def _mono_text(names, exps):
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(names, exps) if e)


def _poly_text(terms):
    """Render {exponent tuple over x1..xn: coefficient}."""
    names = [f"x{i + 1}" for i in range(len(next(iter(terms))))]
    parts = []
    for exps, c in sorted(terms.items()):
        body = _mono_text(names, exps)
        piece = body if abs(c) == 1 else f"{_q(abs(c))}*{body}"
        parts.append((("-" if c < 0 else "") if not parts else
                      ("- " if c < 0 else "+ ")) + piece)
    return " ".join(parts)


def _non_coprime_terms(rng, d):
    """Two to four distinct degree-d monomials in three variables, at least
    two of which share a variable."""
    monos = _partitions(d, 3) + [(a, d - a) for a in range(1, d)]
    terms = {}
    target = rng.randint(2, 4)
    while len(terms) < target:
        exps = list(rng.choice(monos))
        exps += [0] * (3 - len(exps))
        rng.shuffle(exps)
        terms[tuple(exps)] = _coefficient(rng, positive=not terms)
    first = min(terms)           # _poly_text renders in sorted order
    terms[first] = abs(terms[first])
    return terms


def _hf_generators(rng, n):
    """Monomial generators in n variables: either pure powers (a complete
    intersection) or pure powers plus a few mixed monomials."""
    names = [f"x{i + 1}" for i in range(n)]
    gens = []
    for i in range(n):
        g = [0] * n
        g[i] = rng.randint(1, 5)
        gens.append(tuple(g))
    if n > 1 and rng.random() < 0.5:
        for _ in range(rng.randint(1, 3)):
            gens.append(tuple(rng.randint(0, 3) for _ in range(n)))
    gens = [g for g in dict.fromkeys(gens) if any(g)]
    return gens, names


def jobs_for(workload, seed, workdir):
    if workload == "decompose":
        return decompose_jobs(seed)
    if workload == "reverify":
        return reverify_jobs(seed, workdir)
    if workload == "certify":
        return certify_jobs(seed)
    raise ValueError(f"unknown workload {workload!r}")
