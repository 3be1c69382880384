"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are represented by their coordinates in the power basis
1, zeta, ..., zeta^(phi(N)-1) of Q[z]/Phi_N(z), where Phi_N is the N-th
cyclotomic polynomial.  All coefficients are `fractions.Fraction`, so no
rounding ever occurs.  Phi_N is irreducible over Q, hence this quotient is a
field and every nonzero element is invertible.

`cyclic_lift`, `cyclic_mul` and `reduce_mod_phi` compute with integer
coefficients in Z[t]/(t^N - 1) instead, which t -> zeta_N maps onto
Q(zeta_N); one reduction modulo Phi_N at the end gives the exact result.
`CyclotomicNumber.__mul__` also multiplies integers: it convolves the
coordinates scaled by den(a) and den(b), reduces once modulo Phi_N and
makes one Fraction per output coordinate.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


class DivisibilityError(ValueError):
    """A requested root order does not divide the ambient field order."""


def _trim(coeffs):
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return coeffs[:end]


def _poly_div_exact(num, den):
    """Divide integer polynomials (constant term first); division must be exact."""
    num = list(num)
    den = _trim(list(den))
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1]
        if c % den[-1] != 0:
            raise ArithmeticError("inexact polynomial division")
        q = c // den[-1]
        out[i] = q
        for j, d in enumerate(den):
            num[i + j] -= q * d
    if any(num):
        raise ArithmeticError("nonzero remainder in exact polynomial division")
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n (constant term first), via iterated exact division
    of x^n - 1 by Phi_d over the proper divisors d of n."""
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def euler_phi(n: int) -> int:
    return len(cyclotomic_polynomial(n)) - 1


@lru_cache(maxsize=None)
def _power_table(order: int) -> tuple[tuple[int, ...], ...]:
    """x^k mod Phi_order for k = 0 .. order-1, as integer rows of length
    phi(order) (Phi_order is monic with integer coefficients)."""
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    rows = []
    current = [1] + [0] * (deg - 1) if deg > 0 else []
    for _ in range(order):
        rows.append(tuple(current))
        # multiply by x, reduce the overflow term via x^deg = -(lower part)
        top = current[-1]
        current = [0] + current[:-1]
        if top:
            for i in range(deg):
                current[i] -= top * phi[i]
    return tuple(rows)


def reduce_mod_phi(terms, order):
    """Coordinates of sum(c * x^k for k, c in terms) modulo Phi_order, using
    x^order = 1.  Integer input gives integer output."""
    deg = euler_phi(order)
    table = _power_table(order)
    out = [0] * deg
    for k, c in terms:
        if not c:
            continue
        if k < deg:
            out[k] += c
        else:
            for i, r in enumerate(table[k % order]):
                if r:
                    out[i] += c * r
    return out


@lru_cache(maxsize=None)
def _root_rows(order: int) -> dict:
    """Each row zeta^k of the power table, with its sign fixed so the first
    nonzero entry is positive, mapped to (k, that sign); rows that agree up
    to sign keep the smaller k.  A row's entries have gcd 1, because
    zeta^k / m is not an algebraic integer for m > 1."""
    roots = {}
    for k, row in enumerate(_power_table(order)):
        sign = 1 if next(r for r in row if r) > 0 else -1
        roots.setdefault(tuple(sign * r for r in row), (k, sign))
    return roots


def cyclic_lift(x: "CyclotomicNumber", order: int, scale=1) -> dict:
    """scale * x as a sparse {exponent: int} map in Z[t]/(t^order - 1), a
    preimage under the ring map t -> zeta_order onto Q(zeta_order).

    order must be a multiple of x.order, and scale a multiple of
    x.denominator.  A rational multiple of a root of unity lifts to a single
    exponent, so multiplying by it is an index shift; for even x.order its
    integer is positive, as -zeta^k = zeta^(k + x.order/2).
    """
    if order % x.order != 0:
        raise DivisibilityError(
            f"cannot embed Q(zeta_{x.order}) into Q(zeta_{order})")
    step = order // x.order
    den, ints = x._integer_coords()
    g = gcd(*ints)
    if not g:
        return {}
    if next(v for v in ints if v) < 0:
        g = -g
    factor = scale // den
    root = _root_rows(x.order).get(tuple(v // g for v in ints))
    if root is not None:
        k, value = root[0], factor * g * root[1]
        if value < 0 and x.order % 2 == 0:
            k, value = (k + x.order // 2) % x.order, -value
        return {k * step: value}
    return {k * step: factor * v for k, v in enumerate(ints) if v}


def cyclic_mul(a: dict, b: dict, order: int) -> dict:
    """Product of two sparse {exponent: int} maps in Z[t]/(t^order - 1)."""
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            k = i + j
            if k >= order:
                k -= order
            out[k] = out.get(k, 0) + x * y
    return out


class CyclotomicNumber:
    """An element of Q(zeta_N), immutable after construction.

    Binary operations accept ints, Fractions and elements of other cyclotomic
    fields; mixed orders are promoted to the lcm field.  The integer
    coordinates are computed on first use and kept in `_ints`.
    """

    __slots__ = ("order", "coeffs", "_ints")

    def __init__(self, order: int, coeffs):
        deg = euler_phi(order)
        coeffs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        if len(coeffs) > deg:
            coeffs = [Fraction(c) for c in reduce_mod_phi(enumerate(coeffs), order)]
        else:
            coeffs += [Fraction(0)] * (deg - len(coeffs))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("CyclotomicNumber is immutable")

    @classmethod
    def from_rational(cls, value, order: int = 1) -> "CyclotomicNumber":
        return cls(order, [Fraction(value)])

    @classmethod
    def zeta(cls, order: int, power: int = 1, scale=1) -> "CyclotomicNumber":
        """scale * zeta_order^power, a rational multiple of one row of the
        power table."""
        return cls(order, [scale * r for r in _power_table(order)[power % order]])

    # -- field structure ---------------------------------------------------

    def promote(self, order: int) -> "CyclotomicNumber":
        """Embed into Q(zeta_order); self.order must divide order."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise DivisibilityError(
                f"cannot embed Q(zeta_{self.order}) into Q(zeta_{order})")
        step = order // self.order
        return CyclotomicNumber(order, reduce_mod_phi(
            ((k * step, c) for k, c in enumerate(self.coeffs)), order))

    def _coerce(self, other):
        if isinstance(other, CyclotomicNumber):
            if other.order == self.order:
                return self, other
            n = lcm(self.order, other.order)
            return self.promote(n), other.promote(n)
        if isinstance(other, (int, Fraction)):
            return self, CyclotomicNumber.from_rational(other, self.order)
        return self, NotImplemented

    def __add__(self, other):
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return CyclotomicNumber(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicNumber(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return CyclotomicNumber(a.order, [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return CyclotomicNumber(self.order, [c * q for c in self.coeffs])
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        da, xs = a._integer_coords()
        db, ys = b._integer_coords()
        conv = [0] * (2 * len(xs) - 1)
        for i, x in enumerate(xs):
            if x:
                for j, y in enumerate(ys):
                    if y:
                        conv[i + j] += x * y
        den = da * db
        return CyclotomicNumber(a.order, [
            Fraction(v, den) for v in reduce_mod_phi(enumerate(conv), a.order)])

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """Multiplicative inverse via the extended Euclidean algorithm against
        Phi_N in Q[x]."""
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        a = _trim(list(self.coeffs))
        # Bezout: u*a + v*phi = gcd; phi irreducible so gcd is a nonzero constant
        r0, r1 = phi, a
        u0, u1 = [Fraction(0)], [Fraction(1)]
        while len(_trim(r1)) > 1:
            q, rem = _poly_divmod_q(r0, r1)
            r0, r1 = r1, rem
            u0, u1 = u1, _poly_sub(u0, _poly_mul(q, u1))
        g = _trim(r1)[0]
        inv = [c / g for c in u1]
        return CyclotomicNumber(self.order, reduce_mod_phi(enumerate(inv), self.order))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return CyclotomicNumber(self.order, [c / q for c in self.coeffs])
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = CyclotomicNumber.from_rational(1, self.order)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    # -- predicates and conversions ----------------------------------------

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CyclotomicNumber.from_rational(other, 1)
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        a, b = self._coerce(other)
        return a.coeffs == b.coeffs

    def __hash__(self):
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.order, self.coeffs))

    @property
    def denominator(self) -> int:
        """lcm of the coordinate denominators."""
        return self._integer_coords()[0]

    def _integer_coords(self):
        """(D, the tuple of D * c over coeffs) with D the denominator, so
        the coordinates are integers; computed once per number."""
        try:
            return self._ints
        except AttributeError:
            den = lcm(*(c.denominator for c in self.coeffs))
            ints = den, tuple(c.numerator * (den // c.denominator) for c in self.coeffs)
            object.__setattr__(self, "_ints", ints)
            return ints

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def __repr__(self):
        return f"CyclotomicNumber(order={self.order}, {str(self)!r})"

    def __str__(self):
        if not self:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                sym = f"z{self.order}" if k == 1 else f"z{self.order}^{k}"
                if c == 1:
                    parts.append(sym)
                elif c == -1:
                    parts.append(f"-{sym}")
                else:
                    parts.append(f"{c}*{sym}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


def _poly_divmod_q(num, den):
    """Polynomial division over Q; returns (quotient, remainder)."""
    num = list(num)
    den = _trim(list(den))
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    if len(num) < len(den):
        return [Fraction(0)], num
    q = [Fraction(0)] * (len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1] / den[-1]
        q[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    return q, num[: len(den) - 1] or [Fraction(0)]


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [Fraction(0)] * (n - len(a))
    b = list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def cyclotomic_embed(root_order: int, power: int, field_order: int) -> CyclotomicNumber:
    """The root_order-th root of unity zeta_{root_order}^power, expressed as an
    element of Q(zeta_{field_order})."""
    if root_order < 1 or field_order < 1:
        raise ValueError("orders must be positive")
    if field_order % root_order != 0:
        raise DivisibilityError(
            f"root order {root_order} does not divide field order {field_order}")
    step = field_order // root_order
    return CyclotomicNumber.zeta(field_order, (step * power) % field_order)
