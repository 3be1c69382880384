"""Lossless JSON serialization for forms and decompositions.

Schema:
  rational            "p/q" or "p" (a JSON int is also read)
  CyclotomicNumber    {"order": N, "coeffs": ["p/q", ...]}
  linear form         ordered coefficient array aligned to a declared
                      variable list
  decomposition       {"degree": d, "variables": [...],
                       "terms": [{"gamma": ..., "linear": [...],
                                  "block": i, "point": [...]}]}

`dumps` writes a PowerSumDecomposition straight from its numbers, and its
bytes are those of `json.dumps(schema, indent=2, sort_keys=True)` for the
schema above, so `waring decompose --json` (README: "minimal decomposition")
prints what it always printed.  Each number object is rendered once per
indentation depth.  Every other object goes through that `json.dumps` call.

`decomposition_from_json` checks every field and parses each distinct
number and each distinct coefficient string once per file: a repeated
number is found in a per-file memo before its fields are checked again,
and an error names its field (`terms[j].linear`) only when it is raised.
A number with at most phi(N) coefficients takes them as its coordinates;
only a longer one is reduced modulo Phi_N.

A term's "point" repeats its linear form on its block's variables, in the
block's order (for a degree-1 form, the whole linear form).  `verify`
first compares a file with the closed form in `decompose --json`'s
canonical text, before loading it (`decompose._is_closed_form_json`);
that comparison reads each point and needs it to equal the term's linear
entries.  A file that differs from that text in a few terms is loaded here
at those terms alone, each by the reader that loads every term of any
other file (`term_from_json`), with the same checks and messages.  A
loaded point is only type-checked: no check reads it, so a file with
wrong points still PASSes.  A check of it, if one is added, belongs in
the verification report as a mismatch, not here as an exit-1 load error.
"""

from __future__ import annotations

import json
import re
import reprlib
from collections.abc import Sequence
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import lcm

from .cyclotomic import CyclotomicNumber, _normalised, euler_phi, fraction_text, reduce_mod_phi
from .decompose import MAX_FIELD_ORDER, DecompositionTerm, PowerSumDecomposition
from .polynomials import signed_sum
from .rank import ResourceLimitError


def fraction_to_str(q: Fraction) -> str:
    q = Fraction(q)
    return fraction_text(q.numerator, q.denominator)


def cyclo_to_json(x: CyclotomicNumber) -> dict:
    return json.loads(_number_text(x, ""))


def _field(obj, key, where, kind=None):
    """obj[key], after checking that obj is a JSON object holding key (of
    type kind, if given); a ValueError names the field."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected a JSON object")
    if key not in obj:
        raise ValueError(f"{where}: missing field {key!r}")
    if kind and type(obj[key]) is not kind:
        raise ValueError(f"{where}.{key}: expected {kind.__name__}, got {obj[key]!r}")
    return obj[key]


def _positive_int(obj, key, where):
    if _field(obj, key, where, int) < 1:
        raise ValueError(f"{where}.{key}: expected an int >= 1, got {obj[key]}")
    return obj[key]


_RATIONAL = re.compile(r"(-?\d+)(?:/(\d+))?")


def _rational(entry, seen) -> tuple:
    """A coefficient entry as (p, q) with q > 0: a JSON int (not a bool) or a
    "p" or "p/q" string.  Floats and exponent notation are refused, so every
    number loads exactly.  `seen` maps strings already read to their pair."""
    if type(entry) is int:
        return entry, 1
    if type(entry) is str and entry in seen:
        return seen[entry]
    match = type(entry) is str and _RATIONAL.fullmatch(entry)
    if not match or match[2] and not int(match[2]):
        raise ValueError(entry)
    pair = seen[entry] = int(match[1]), int(match[2] or 1)
    return pair


def cyclo_from_json(obj: dict, where: str = "number", seen=None) -> CyclotomicNumber:
    """Load one number.  `seen` is a per-file memo: it maps each coefficient
    string to its (p, q), and each (order, coeffs) already loaded to its
    number, so a file's repeated strings and numbers are parsed once.  A
    repeated number is looked up before any field is checked; the memo
    keeps only numbers with string entries, and a lookup needs an int order
    and a list of coeffs, so `true` or `1.0` never matches a key.  An order
    above MAX_FIELD_ORDER raises ResourceLimitError before its field is
    built."""
    if seen is None:
        seen = {}
    else:
        try:
            order, coeffs = obj["order"], obj["coeffs"]
            if type(order) is int and type(coeffs) is list:
                number = seen.get((order, tuple(coeffs)))
                if number is not None:
                    return number
        except (KeyError, TypeError):   # malformed, or unhashable coeffs: checked below
            pass
    order = _positive_int(obj, "order", where)
    coeffs = _field(obj, "coeffs", where, list)
    if order > MAX_FIELD_ORDER:
        raise ResourceLimitError(f"{where}.order: field order {order} is above "
                                 f"the verification cap {MAX_FIELD_ORDER}")
    try:
        pairs = [_rational(c, seen) for c in coeffs]
    except ValueError:
        raise ValueError(f"{where}.coeffs: expected rationals, got "
                         f"{reprlib.repr(coeffs)}") from None
    den = lcm(*(q for _, q in pairs))
    ints = [p * (den // q) for p, q in pairs]
    # at most phi(N) coefficients are already the coordinates
    phi = euler_phi(order)
    ints = ints + [0] * (phi - len(ints)) if len(ints) <= phi \
        else reduce_mod_phi(enumerate(ints), order)
    number = _normalised(order, den, ints)
    if int not in map(type, coeffs):
        seen[order, tuple(coeffs)] = number
    return number


def decomposition_to_json(d: PowerSumDecomposition) -> dict:
    return json.loads(dumps(d))


def decomposition_from_json(obj: dict, positions=None) -> PowerSumDecomposition:
    """Load a decomposition, validating the schema first: a malformed file
    raises a ValueError that names the offending field.  Each distinct
    number and coefficient string is parsed once per file.  `positions`,
    ascending, are where `decompose._is_closed_form_json` found the file to
    differ from the closed form: then only the terms there are read after
    the top-level checks, in file order, which raises the first error a
    full load would, as every other term equals the canonical text and is
    valid.  Reading any other term loads the whole file (`_Terms`)."""
    degree = _positive_int(obj, "degree", "decomposition")
    variables = _field(obj, "variables", "decomposition", list)
    if not all(type(v) is str for v in variables):
        raise ValueError("decomposition.variables: expected a list of names")
    if len(set(variables)) != len(variables):
        raise ValueError(f"decomposition.variables: repeated name in {variables}")
    items, n, seen = _field(obj, "terms", "decomposition", list), len(variables), {"0": (0, 1)}
    if positions is None:
        terms = tuple([term_from_json(t, j, n, seen) for j, t in enumerate(items)])
    else:
        terms = _Terms(obj, {j: term_from_json(items[j], j, n, seen) for j in positions})
    return PowerSumDecomposition(degree, tuple(variables), terms)


class _Terms(Sequence):
    """A file's terms: those read up front by position, and every term,
    through `decomposition_from_json`, once another one is read."""

    def __init__(self, obj, loaded):
        self._obj, self._loaded, self._all = obj, loaded, None

    def __len__(self):
        return len(self._obj["terms"])

    def __getitem__(self, j):
        if j in self._loaded:
            return self._loaded[j]
        if self._all is None:
            self._all = decomposition_from_json(self._obj).terms
        return self._all[j]


def term_from_json(t, j, n, seen) -> DecompositionTerm:
    """Load term j of a decomposition over n variables, with the per-file
    memo `seen` of `cyclo_from_json`; an error names its field from
    `terms[j]`."""
    try:        # the messages name fields relative to the term
        gamma = cyclo_from_json(_field(t, "gamma", ""), ".gamma", seen)
        linear = _field(t, "linear", "", list)
        if len(linear) != n:
            raise ValueError(f".linear: expected {n} entries, one per variable, "
                             f"got {len(linear)}")
        return DecompositionTerm(
            gamma=gamma,
            linear=tuple([cyclo_from_json(c, ".linear", seen) for c in linear]),
            block=_field(t, "block", "", int),
            point=tuple([cyclo_from_json(c, ".point", seen)
                         for c in _field(t, "point", "", list)]))
    except (ValueError, ResourceLimitError) as exc:
        raise type(exc)(f"terms[{j}]{exc}") from None


def dumps(obj) -> str:
    """obj as JSON with sorted keys, indented by 2."""
    if isinstance(obj, PowerSumDecomposition):
        return _decomposition_text(obj)
    return json.dumps(obj, indent=2, sort_keys=True)


def _number_text(x: CyclotomicNumber, pad: str) -> str:
    """The JSON object of one number, its closing brace indented by pad."""
    den, ints = x._ints
    return (f'{{\n{pad}  "coeffs": [\n{pad}    "'
            + f'",\n{pad}    "'.join([fraction_text(v, den) for v in ints])
            + f'"\n{pad}  ],\n{pad}  "order": {x.order}\n{pad}}}')


def _array(items, pad: str) -> str:
    """The JSON array of already written items, closed at indentation pad."""
    if not items:
        return "[]"
    return f"[\n{pad}  " + f",\n{pad}  ".join(items) + f"\n{pad}]"


def _decomposition_text(d: PowerSumDecomposition) -> str:
    """`dumps` of a decomposition: fields in sorted order, a term's fields
    indented by 6 and the numbers in its arrays by 8.  Each number object
    is written once per indentation, and its text found again by its id
    (`d` holds every number while the text is built)."""
    p6, p8 = " " * 6, " " * 8
    gammas, coords = {}, {}         # id(number) -> its text, indented by 6 / 8

    def text(x, memo, pad):
        memo[id(x)] = _number_text(x, pad)
        return memo[id(x)]

    def row(numbers):
        return _array([coords.get(id(x)) or text(x, coords, p8) for x in numbers], p6)

    terms = [f'{{\n{p6}"block": {t.block},\n'
             f'{p6}"gamma": {gammas.get(id(t.gamma)) or text(t.gamma, gammas, p6)},\n'
             f'{p6}"linear": {row(t.linear)},\n{p6}"point": {row(t.point)}\n    }}'
             for t in d.terms]
    names = [encode_basestring_ascii(v) for v in d.variables]
    return (f'{{\n  "degree": {d.degree},\n  "terms": {_array(terms, "  ")},\n'
            f'  "variables": {_array(names, "  ")}\n}}')


# -- pretty printing -------------------------------------------------------------


def pretty_linear(variables, coeffs) -> str:
    def piece(v, c):
        text = str(c)
        if text in ("1", "-1"):
            return text == "-1", v
        if any(op in text[1:] for op in "+-") or "/" in text or "*" in text:
            return False, f"({text})*{v}"
        return text.startswith("-"), f"{text.lstrip('-')}*{v}"

    return signed_sum(piece(v, c) for v, c in zip(variables, coeffs) if c)


def pretty_decomposition(d: PowerSumDecomposition) -> str:
    lines = []
    for t in d.terms:
        gamma = str(t.gamma)
        if any(op in gamma[1:] for op in "+-") or "*" in gamma:
            gamma = f"({gamma})"
        lines.append(f"{gamma} * ({pretty_linear(d.variables, t.linear)})^{d.degree}"
                     f"   [block {t.block}]")
    return "\n".join(lines)
