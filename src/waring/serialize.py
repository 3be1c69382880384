"""Lossless JSON serialization for forms and decompositions.

Schema:
  rational            "p/q" or "p" (a JSON int is also read)
  CyclotomicNumber    {"order": N, "coeffs": ["p/q", ...]}
  linear form         ordered coefficient array aligned to a declared
                      variable list
  decomposition       {"degree": d, "variables": [...],
                       "terms": [{"gamma": ..., "linear": [...],
                                  "block": i, "point": [...]}]}
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import lcm

from .cyclotomic import CyclotomicNumber, fraction_text, reduce_mod_phi
from .decompose import MAX_FIELD_ORDER, DecompositionTerm, PowerSumDecomposition
from .rank import ResourceLimitError


def fraction_to_str(q: Fraction) -> str:
    q = Fraction(q)
    return fraction_text(q.numerator, q.denominator)


def cyclo_to_json(x: CyclotomicNumber) -> dict:
    den, ints = x._integer_coords()
    return {"order": x.order, "coeffs": [fraction_text(v, den) for v in ints]}


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


def _rational(entry) -> tuple:
    """A coefficient entry as (p, q) with q > 0: a JSON int (not a bool) or a
    "p" or "p/q" string.  Floats and exponent notation are refused, so every
    number loads exactly."""
    if type(entry) is int:
        return entry, 1
    match = type(entry) is str and _RATIONAL.fullmatch(entry)
    if not match or match[2] and not int(match[2]):
        raise ValueError(entry)
    return int(match[1]), int(match[2] or 1)


def cyclo_from_json(obj: dict, where: str = "number", seen=None) -> CyclotomicNumber:
    """Load one number.  `seen` maps (order, coeffs) to numbers already
    loaded, so a file's repeated numbers are parsed and checked once; a
    number with JSON-int entries is left out, since `true` or `1.0` would
    match it as a key.  An order above MAX_FIELD_ORDER raises
    ResourceLimitError before its field is built."""
    order = _positive_int(obj, "order", where)
    coeffs = _field(obj, "coeffs", where, list)
    if order > MAX_FIELD_ORDER:
        raise ResourceLimitError(f"{where}.order: field order {order} is above "
                                 f"the verification cap {MAX_FIELD_ORDER}")
    seen = {} if seen is None else seen
    key = (order, tuple(coeffs))
    try:
        return seen[key]
    except (KeyError, TypeError):      # TypeError: an unhashable entry, refused below
        pass
    try:
        pairs = [_rational(c) for c in coeffs]
    except ValueError:
        raise ValueError(f"{where}.coeffs: expected rationals, got {coeffs}") from None
    den = lcm(*(q for _, q in pairs))
    number = CyclotomicNumber._normalised(order, den, reduce_mod_phi(
        ((k, p * (den // q)) for k, (p, q) in enumerate(pairs)), order))
    if int not in map(type, coeffs):
        seen[key] = number
    return number


def decomposition_to_json(d: PowerSumDecomposition) -> dict:
    return {
        "degree": d.degree,
        "variables": list(d.variables),
        "terms": [
            {
                "gamma": cyclo_to_json(t.gamma),
                "linear": [cyclo_to_json(c) for c in t.linear],
                "block": t.block,
                "point": [cyclo_to_json(c) for c in t.point],
            }
            for t in d.terms
        ],
    }


def decomposition_from_json(obj: dict) -> PowerSumDecomposition:
    """Load a decomposition, validating the schema first: a malformed file
    raises a ValueError that names the offending field."""
    degree = _positive_int(obj, "degree", "decomposition")
    variables = _field(obj, "variables", "decomposition", list)
    if not all(type(v) is str for v in variables):
        raise ValueError("decomposition.variables: expected a list of names")
    if len(set(variables)) != len(variables):
        raise ValueError(f"decomposition.variables: repeated name in {variables}")
    terms = []
    seen = {}
    for j, t in enumerate(_field(obj, "terms", "decomposition", list)):
        where = f"terms[{j}]"
        gamma = cyclo_from_json(_field(t, "gamma", where), f"{where}.gamma", seen)
        linear = _field(t, "linear", where, list)
        if len(linear) != len(variables):
            raise ValueError(f"{where}.linear: expected {len(variables)} entries, "
                             f"one per variable, got {len(linear)}")
        terms.append(DecompositionTerm(
            gamma=gamma,
            linear=tuple(cyclo_from_json(c, f"{where}.linear", seen) for c in linear),
            block=_field(t, "block", where, int),
            point=tuple(cyclo_from_json(c, f"{where}.point", seen)
                        for c in _field(t, "point", where, list))))
    return PowerSumDecomposition(degree, tuple(variables), tuple(terms))


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


# -- pretty printing -------------------------------------------------------------


def pretty_cyclo(x: CyclotomicNumber) -> str:
    """Human rendering: a plain rational for a rational number, zN^k tokens
    otherwise."""
    return str(x)


def pretty_linear(variables, coeffs) -> str:
    parts = []
    for v, c in zip(variables, coeffs):
        if not c:
            continue
        text = pretty_cyclo(c)
        if text == "1":
            piece, negative = v, False
        elif text == "-1":
            piece, negative = v, True
        elif any(op in text[1:] for op in "+-") or "/" in text or "*" in text:
            piece, negative = f"({text})*{v}", False
        else:
            negative = text.startswith("-")
            piece = f"{text.lstrip('-')}*{v}"
        if not parts:
            parts.append(("-" if negative else "") + piece)
        else:
            parts.append(("- " if negative else "+ ") + piece)
    return " ".join(parts) if parts else "0"


def pretty_decomposition(d: PowerSumDecomposition) -> str:
    lines = []
    for t in d.terms:
        gamma = pretty_cyclo(t.gamma)
        if any(op in gamma[1:] for op in "+-") or "*" in gamma:
            gamma = f"({gamma})"
        lines.append(f"{gamma} * ({pretty_linear(d.variables, t.linear)})^{d.degree}"
                     f"   [block {t.block}]")
    return "\n".join(lines)
