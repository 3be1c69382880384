"""Output checks that do not use the package under test.

Each check returns None when the CLI output is right, else a one-line reason.
The expected values come from closed forms (monomial ranks, divisor counts,
complete-intersection lengths, the three-variable survey formula) or from
brute force written here; decompositions are checked by their term count and
by evaluating both sides at a random complex point.
"""

from __future__ import annotations

import cmath
import json
import random
from fractions import Fraction
from math import comb, perm, prod

from workload import Form, block_rank, rank_of

_PRIME = (1 << 61) - 1


def _coeff_poly(exps):
    """prod_i (1 + z + ... + z^a_i): entry t counts the divisors of x^a of
    degree t."""
    out = [1]
    for a in exps:
        nxt = [0] * (len(out) + a)
        for i, c in enumerate(out):
            for j in range(a + 1):
                nxt[i + j] += c
        out = nxt
    return out


def catalecticant_bound(form: Form, t_max=None):
    """max_{1<=t<=t_max} rank Cat_t(F) for a coprime sum: each Cat_t with
    t < d is a scaled partial permutation matrix whose nonzeros are the
    degree-t divisors of the blocks; Cat_d has rank 1."""
    d = form.degree
    counts = [_coeff_poly([e for _, e in m]) for _, m in form.blocks]
    ranks = [1 if t == d else sum(c[t] for c in counts)
             for t in range(1, (t_max or d) + 1)]
    return max(ranks)


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _rank_mod_p(rows):
    """Rank over GF(2^61 - 1).  For these small integer matrices it equals
    the rank over Q unless the prime divides every maximal nonzero minor."""
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, _PRIME)
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] * inv % _PRIME
            if f:
                rows[i] = [(a - f * b) % _PRIME for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def general_catalecticant_bound(terms):
    """max_t rank Cat_t(F) for an arbitrary form {exponents: coefficient}."""
    n = len(next(iter(terms)))
    d = sum(next(iter(terms)))
    best = 0
    for t in range(1, d + 1):
        rows = []
        for alpha in _compositions(d - t, n):
            row = []
            for beta in _compositions(t, n):
                c = terms.get(tuple(a + b for a, b in zip(alpha, beta)), 0)
                if c:
                    c = Fraction(c) * prod(perm(a + b, b) for a, b in zip(alpha, beta))
                    c = c.numerator * pow(c.denominator, -1, _PRIME) % _PRIME
                row.append(c)
            rows.append(row)
        best = max(best, _rank_mod_p(rows))
    return best


def hf_values(gens, t_max):
    """HF(T/(gens), t) for t = 0..t_max, counting standard monomials."""
    n = len(gens[0])
    return [sum(1 for m in _compositions(t, n)
                if not any(all(a >= g for a, g in zip(m, gen)) for gen in gens))
            for t in range(t_max + 1)]


def max_monomial_rank(n, d):
    """max rank over degree-d monomials in at most n variables: the closed
    form for n = 3, brute force over partitions otherwise."""
    if n == 3 and d >= 3:
        return ((d + 1) // 2) ** 2 if d % 2 else (d // 2) * (d // 2 + 1)
    best = 0

    def rec(remaining, slots, minimum, acc):
        nonlocal best
        if remaining == 0:
            best = max(best, prod(a + 1 for a in acc[1:]))
            return
        if slots == 0:
            return
        for a in range(minimum, remaining + 1):
            if a == remaining or remaining - a >= a:
                rec(remaining - a, slots - 1, a, acc + [a])

    rec(d, min(n, d), 1, [])
    return best


def generic_rank(n, d):
    value = -(-comb(d + n - 1, d) // n)
    exceptional = (d == 2 and n >= 2) or (n, d) in {(3, 4), (4, 4), (5, 4), (5, 3)}
    return value, exceptional


def _monomial_rank_text(text):
    """Rank and degree of a printed monomial such as x1*x2^3."""
    exps = sorted(int(f.split("^")[1]) if "^" in f else 1 for f in text.split("*"))
    return prod(a + 1 for a in exps[1:]), sum(exps), len(exps)


def _complex(cyclo):
    w = cmath.exp(2j * cmath.pi / cyclo["order"])
    return sum(float(Fraction(c)) * w ** k for k, c in enumerate(cyclo["coeffs"]))


def expansion_error(form: Form, dec, rng):
    """Relative difference between sum gamma_j L_j(p)^d and F(p) at a random
    point p with coordinates in [0.5, 1.5]."""
    point = {v: rng.uniform(0.5, 1.5) for v in dec["variables"]}
    d = dec["degree"]
    total, scale = 0, 0.0
    for t in dec["terms"]:
        lin = sum(_complex(c) * point[v] for c, v in zip(t["linear"], dec["variables"]))
        value = _complex(t["gamma"]) * lin ** d
        total += value
        scale += abs(value)
    target = sum(float(c) * prod(point[v] ** e for v, e in m) for c, m in form.blocks)
    return abs(total - target) / (scale + abs(target))


# -- per-kind checks ------------------------------------------------------------

def _json(out):
    try:
        return json.loads(out)
    except ValueError:
        return None


def check_decompose(job, rc, out):
    form = job.expect["form"]
    if rc != 0:
        return f"exit {rc}"
    dec = _json(out)
    if dec is None:
        return "output is not JSON"
    if len(dec["terms"]) != job.expect["rank"]:
        return f"{len(dec['terms'])} terms, rank is {job.expect['rank']}"
    if dec["degree"] != form.degree or tuple(dec["variables"]) != form.variables:
        return "wrong degree or variables"
    err = expansion_error(form, dec, random.Random(" ".join(job.argv)))
    if err > 1e-9:
        return f"expansion differs from the form (relative error {err:.2e})"
    return None


def check_verify(job, rc, out):
    lines = out.splitlines()
    want = job.expect["pass"]
    if rc != (0 if want else 2) or not lines or lines[-1] != ("PASS" if want else "FAIL"):
        return (f"exit {rc}, last line {lines[-1] if lines else None!r}; expected "
                f"{'PASS' if want else 'FAIL'} ({job.expect['tampered'] or 'untouched'})")
    if f"expansion matches: {want}" not in lines:
        return "expansion verdict disagrees with the tampering"
    return None


def check_bound(job, rc, out):
    want = catalecticant_bound(job.expect["form"], job.expect["t_max"])
    return _check_bound_value(job, rc, out, want)


def check_bound_general(job, rc, out):
    want = general_catalecticant_bound(job.expect["terms"])
    return _check_bound_value(job, rc, out, want)


def _check_bound_value(job, rc, out, want):
    if rc != 0:
        return f"exit {rc}"
    if job.expect["json"]:
        data = _json(out)
        got = data.get("lower_bound") if isinstance(data, dict) else None
    else:
        got = out.strip()
        got = int(got) if got.isdigit() else got
    return None if got == want else f"bound {got!r}, expected {want}"


def check_hf(job, rc, out):
    gens, t_max = job.expect["gens"], job.expect["t_max"]
    if rc != 0:
        return f"exit {rc}"
    values = hf_values(gens, t_max)
    if job.expect["json"]:
        data = _json(out) or {}
        got, sums = data.get("values"), data.get("partial_sums")
        if got != values or sums != [sum(values[:i + 1]) for i in range(len(values))]:
            return f"HF {got}, expected {values}"
        total = sums[-1]
    else:
        lines = out.splitlines()
        want = [f"HF({t}) = {v}" for t, v in enumerate(values)] + [f"sum = {sum(values)}"]
        if lines != want:
            return f"HF table {lines}, expected {want}"
        total = sum(values)
    pure = [g for g in gens if sum(1 for e in g if e) == 1]
    if len(pure) == len(gens) == len(gens[0]) and t_max >= sum(sum(g) - 1 for g in gens):
        # complete intersection (X_i^e_i): the total length is prod e_i
        if total != prod(sum(g) for g in gens):
            return f"complete-intersection length {total}, expected {prod(sum(g) for g in gens)}"
    return None


def check_claim(job, rc, out):
    form = job.expect["form"]
    per = [block_rank(m) for _, m in form.blocks]
    r = len(per)
    total = sum(per) - (r - 1)
    want = [f"sum HF(T/intersection) = {total}",
            f"sum over blocks        = {' + '.join(map(str, per))} - {r - 1} = {total}",
            "PASS"]
    if rc != 0 or out.splitlines() != want:
        return f"exit {rc}, claim output {out.splitlines()}, expected {want}"
    return None


def check_claim_random(job, rc, out):
    lines = out.splitlines()
    if rc != 0 or len(lines) != job.expect["count"]:
        return f"exit {rc}, {len(lines)} lines for {job.expect['count']} configurations"
    for i, line in enumerate(lines):
        head, number, lhs, rhs, status = line.split()
        if ((head, number, status) != ("config", f"{i + 1}:", "pass")
                or lhs[4:] != rhs[4:] or int(lhs[4:]) < 1):
            return f"configuration {i + 1}: {line!r}"
    return None


def check_survey(job, rc, out):
    n = job.expect["n"]
    if rc != 0:
        return f"exit {rc}"
    lines = out.splitlines()
    rows = [line.split(",") if job.expect["csv"] else line.split() for line in lines]
    if not rows or rows[0] != ["d", "max_monomial_rank", "witness", "generic_rank",
                               "exceptional"]:
        return f"survey header {lines[:1]}"
    if [int(r[0]) for r in rows[1:]] != job.expect["degrees"]:
        return "survey rows do not match the requested degrees"
    for d_text, value, witness, generic, exceptional in rows[1:]:
        d = int(d_text)
        want = max_monomial_rank(n, d)
        w_rank, w_deg, w_vars = _monomial_rank_text(witness)
        g_value, g_exc = generic_rank(n, d)
        if (int(value) != want or (w_rank, w_deg) != (want, d) or w_vars > n
                or int(generic) != g_value or exceptional != ("yes" if g_exc else "no")):
            return f"survey row d={d}: {value} {witness} {generic} {exceptional}, expected {want}"
    return None


def check_rank(job, rc, out):
    form = job.expect["form"]
    per = [block_rank(m) for _, m in form.blocks]
    if rc != 0:
        return f"exit {rc}"
    if job.expect["json"]:
        data = _json(out) or {}
        got = (data.get("rank"), [e.get("rank") for e in data.get("per_monomial", [])])
    else:
        lines = out.splitlines()
        got = (int(lines[0]) if lines and lines[0].isdigit() else None,
               [int(line.rsplit("=", 1)[1]) for line in lines[1:]])
    return None if got == (rank_of(form), per) else f"rank {got}, expected {rank_of(form)} {per}"


CHECKS = {
    "decompose": check_decompose,
    "verify": check_verify,
    "bound": check_bound,
    "bound_general": check_bound_general,
    "hf": check_hf,
    "claim": check_claim,
    "claim_random": check_claim_random,
    "survey": check_survey,
    "rank": check_rank,
}


def check(job, rc, out):
    """None if the job's exit code and output are right, else a reason."""
    try:
        return CHECKS[job.kind](job, rc, out)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return f"unreadable output ({type(exc).__name__}: {exc})"
