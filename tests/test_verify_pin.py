"""A pin on everything `waring verify` prints: stdout, stderr and the exit
code over seeded, deterministically tampered `decompose_form` outputs, hashed
together, so any change in what it reports shows here.

The hash was first recorded before verification was changed to sum each
field run once, test only the pairs with a general form one by one and lift
each distinct number once.  It was re-recorded once, when each mismatch
came to be printed in the field of all the terms that reach its monomial,
whatever their order: 6 of the 224 mismatch lines then printed the same
number in a field twice as large (z18 as z36^2, z12 as z24^2, and a
Q(zeta_15) value as a multiple of z30^3), and every count stayed."""

import dataclasses
import hashlib
import random
from fractions import Fraction
from math import lcm

from waring.cli import main
from waring.cyclotomic import CyclotomicNumber, euler_phi
from waring.decompose import decompose_form
from waring.forms import parse_form
from waring.serialize import dumps

FORMS = ("x1*x2", "x1*x2^2", "x1^2*x2^3", "x1*x2*x3", "x1*x2^2 + x3^3",
         "2/3*x1^2*x2^2 - x3*x4^3", "x1 + 2*x2", "x1^3", "x1*x2^4*x3^2")
SEEDS = range(6)
TRANSCRIPT_SHA256 = "538511e3a59d91a50c07bc1ff60b184544d4dc9601b401661580e8135a0ffed3"


def _general(rng, order):
    return CyclotomicNumber(order, [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                                    for _ in range(euler_phi(order))])


def _root(rng, order):
    return CyclotomicNumber.zeta(order, rng.randrange(order)) * rng.choice((1, -1, 2))


def _tamper(rng, dec):
    """One to three seeded changes: a general number added to a gamma or put
    in a coordinate, a term re-expressed in a larger field or rescaled by a
    root of unity (value kept), a gamma zeroed, a term dropped, a dependent
    copy (cyclic or general multiple), or a cancelling pair."""
    d = dec.degree
    terms = list(dec.terms)
    for _ in range(rng.randint(1, 3)):
        j = rng.randrange(len(terms))
        t = terms[j]
        order = lcm(t.gamma.order, *(c.order for c in t.linear)) * rng.choice((1, 2, 3))
        kind = rng.choice(("gamma", "coordinate", "promote", "rescale", "zero",
                           "drop", "copy", "multiple", "pair"))
        if kind == "gamma":
            terms[j] = dataclasses.replace(t, gamma=t.gamma + _general(rng, order))
        elif kind == "coordinate":
            k = rng.randrange(len(t.linear))
            terms[j] = dataclasses.replace(
                t, linear=t.linear[:k] + (_general(rng, order),) + t.linear[k + 1:])
        elif kind == "promote":
            terms[j] = dataclasses.replace(
                t, gamma=t.gamma.promote(order),
                linear=tuple(c.promote(order) if c else c for c in t.linear))
        elif kind == "rescale":
            lam = _root(rng, order)
            terms[j] = dataclasses.replace(t, gamma=t.gamma / lam ** d,
                                           linear=tuple(c * lam for c in t.linear))
        elif kind == "zero":
            terms[j] = dataclasses.replace(t, gamma=t.gamma * 0)
        elif kind == "drop" and len(terms) > 1:
            del terms[j]
        elif kind in ("copy", "multiple"):
            lam = _root(rng, order) if kind == "copy" else _general(rng, order)
            if not lam:
                lam = CyclotomicNumber.from_rational(1, order)
            terms.insert(rng.randrange(len(terms) + 1), dataclasses.replace(
                t, linear=tuple(c * lam for c in t.linear)))
        elif kind == "pair":
            g = _general(rng, order) or _root(rng, order)
            terms[j + 1:j + 1] = [dataclasses.replace(t, gamma=g),
                                  dataclasses.replace(t, gamma=-g.promote(order * 2))]
    return dataclasses.replace(dec, terms=tuple(terms))


def transcript(capsys, tmp_path):
    """The verify transcript of every (form, seed): the form, the seed, the
    exit code, stdout and stderr."""
    pieces = []
    for text in FORMS:
        dec = decompose_form(parse_form(text))
        for seed in SEEDS:
            path = tmp_path / "dec.json"
            path.write_text(dumps(_tamper(random.Random(f"{text}:{seed}"), dec)))
            code = main(["verify", text, str(path)])
            out, err = capsys.readouterr()
            pieces.append(f"{text} {seed} exit {code}\n{out}--\n{err}==\n")
    return "".join(pieces)


def test_verify_reports_what_it_reported_before(capsys, tmp_path):
    text = transcript(capsys, tmp_path)
    assert text.count(" exit 2\n") == 45 and text.count("mismatch at ") == 224
    assert text.count("blocks linearly independent: False") == 24
    assert hashlib.sha256(text.encode()).hexdigest() == TRANSCRIPT_SHA256
