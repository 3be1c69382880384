"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are represented by their coordinates in the power basis
1, zeta, ..., zeta^(phi(N)-1) of Q[z]/Phi_N(z), where Phi_N is the N-th
cyclotomic polynomial, stored as integers over one positive denominator in
lowest terms, so no rounding ever occurs and every operation works on
integers.  Phi_N is irreducible over Q, hence this quotient is a field; the
inverse of x is the product of its other Galois conjugates divided by its
norm, a rational.

`cyclic_lift`, `cyclic_mul` and `reduce_mod_phi` compute with integer
coefficients in Z[t]/(t^N - 1) instead, which t -> zeta_N maps onto
Q(zeta_N); one reduction modulo Phi_N at the end gives the exact result.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .polynomials import signed_sum


class DivisibilityError(ValueError):
    """A requested root order does not divide the ambient field order."""


def _poly_div_exact(num, den):
    """Divide an integer polynomial by a monic one (constant terms first);
    the division must be exact."""
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        q = out[i] = num[i + len(den) - 1]
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


def _root_pair(order: int, power: int, q) -> tuple:
    """The stored pair (D, ints) of q * zeta_order^power, q a Fraction or an
    int: (den(q), num(q) * row), row the power-table row of zeta^power.  It
    is in lowest terms, as a row's entries have gcd 1 (see `_root_rows`)."""
    n = q.numerator
    return q.denominator, tuple([n * r for r in _power_table(order)[power % order]])


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
    if next(filter(None, ints)) < 0:
        g = -g
    factor = scale // den
    root = _root_rows(x.order).get(tuple([v // g for v in ints]))
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

    Stored once, as `_ints = (D, ints)`: the coordinates are ints / D with
    D > 0 and gcd(D, *ints) == 1, so equal numbers of one field have equal
    `_ints`.  Binary operations accept ints, Fractions and elements of other
    cyclotomic fields; mixed orders are promoted to the lcm field, while two
    numbers of one field work on their pairs directly.
    """

    __slots__ = ("order", "_ints")

    def __new__(cls, order: int, coeffs):
        coeffs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in coeffs))
        return _normalised(order, den, reduce_mod_phi(
            ((k, c.numerator * (den // c.denominator)) for k, c in enumerate(coeffs)), order))

    def __setattr__(self, name, value):
        raise AttributeError("CyclotomicNumber is immutable")

    def __reduce__(self):
        """Rebuild through `_normalised`, so copy, deepcopy and pickle work
        although __setattr__ refuses the default restore of the slots."""
        return _normalised, (self.order, *self._ints)

    @classmethod
    def from_rational(cls, value, order: int = 1) -> "CyclotomicNumber":
        return cls.zeta(order, 0, value)

    @classmethod
    def zeta(cls, order: int, power: int = 1, scale=1) -> "CyclotomicNumber":
        """scale * zeta_order^power, a rational multiple of one row of the
        power table (`_root_pair`); an int scale is passed as it is."""
        if not isinstance(scale, int):
            scale = Fraction(scale)
        return _normalised(order, *_root_pair(order, power, scale))

    # -- field structure ---------------------------------------------------

    def promote(self, order: int) -> "CyclotomicNumber":
        """Embed into Q(zeta_order); self.order must divide order."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise DivisibilityError(
                f"cannot embed Q(zeta_{self.order}) into Q(zeta_{order})")
        step = order // self.order
        den, ints = self._ints
        return _normalised(order, den, reduce_mod_phi(
            ((k * step, v) for k, v in enumerate(ints)), order))

    def _coerce(self, other):
        """(self, other) in one field: the lcm field for two numbers, self's
        for a rational, (self, NotImplemented) for anything else.  `*`, `+`,
        `-` and `==` skip this call for a number of self's own field."""
        if isinstance(other, CyclotomicNumber):
            n = lcm(self.order, other.order)
            return self.promote(n), other.promote(n)
        if isinstance(other, (int, Fraction)):
            return self, CyclotomicNumber.from_rational(other, self.order)
        return self, NotImplemented

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._add(other, -1)

    def _add(self, other, sign):
        a, b = self, other
        if not (type(b) is CyclotomicNumber and b.order == a.order):
            a, b = self._coerce(other)
            if b is NotImplemented:
                return NotImplemented
        (da, xs), (db, ys) = a._ints, b._ints
        if da == db:
            if sign > 0:
                return _normalised(a.order, da, [x + y for x, y in zip(xs, ys)])
            return _normalised(a.order, da, [x - y for x, y in zip(xs, ys)])
        den = lcm(da, db)
        ma, mb = den // da, sign * (den // db)
        return _normalised(a.order, den, [x * ma + y * mb for x, y in zip(xs, ys)])

    def __neg__(self):
        den, ints = self._ints
        return _normalised(self.order, den, [-v for v in ints])

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        a, b = self, other
        if not (type(b) is CyclotomicNumber and b.order == a.order):
            if isinstance(other, (int, Fraction)):
                den, ints = self._ints
                return _normalised(self.order, den * other.denominator,
                                   [v * other.numerator for v in ints])
            a, b = self._coerce(other)
            if b is NotImplemented:
                return NotImplemented
        (da, xs), (db, ys) = a._ints, b._ints
        return _normalised(a.order, da * db, _mul_mod_phi(xs, ys, a.order))

    __rmul__ = __mul__

    def inverse(self) -> "CyclotomicNumber":
        """Multiplicative inverse: for x = v / D, the product P of the other
        Galois conjugates sigma_k(v), k prime to N, has v * P = the norm of
        v, a nonzero integer, so 1 / x = D * P / norm(v)."""
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        n = self.order
        den, ints = self._ints
        rest = [1] + [0] * (len(ints) - 1)
        for k in range(2, n):
            if gcd(k, n) == 1:
                rest = _mul_mod_phi(rest, reduce_mod_phi(
                    ((i * k % n, v) for i, v in enumerate(ints)), n), n)
        norm = _mul_mod_phi(ints, rest, n)[0]
        sign = 1 if norm > 0 else -1
        return _normalised(n, sign * norm, [sign * den * v for v in rest])

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        a, b = self._coerce(other)
        if b is NotImplemented:
            return NotImplemented
        return a * b.inverse()

    def __rtruediv__(self, other):
        inverse = self.inverse()
        if isinstance(other, (int, Fraction)) and other == 1:
            return inverse
        return inverse * other

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
        return any(self._ints[1])

    def __eq__(self, other):
        if type(other) is CyclotomicNumber and other.order == self.order:
            return self._ints == other._ints
        a, b = self._coerce(other)
        return NotImplemented if b is NotImplemented else a._ints == b._ints

    def __hash__(self):
        """The hash of Tr(x) / phi(N), which promote leaves unchanged and which
        is x itself for a rational, so equal numbers hash equal in any field
        and a rational hashes like its Fraction."""
        den, ints = self._ints
        return hash(Fraction(sum(w * v for w, v in zip(_traces(self.order), ints)),
                             den * len(ints)))

    @property
    def coeffs(self) -> tuple:
        """The coordinates in the power basis, as Fractions."""
        den, ints = self._ints
        return tuple(Fraction(v, den) for v in ints)

    @property
    def denominator(self) -> int:
        """lcm of the coordinate denominators."""
        return self._ints[0]

    def _integer_coords(self):
        """(D, the tuple of D * c over the coordinates c), D the denominator."""
        return self._ints

    def is_rational(self) -> bool:
        return not any(self._ints[1][1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        den, ints = self._ints
        return Fraction(ints[0], den)

    def __repr__(self):
        return f"CyclotomicNumber(order={self.order}, {str(self)!r})"

    def __str__(self):
        den, ints = self._ints
        pieces = []
        for k, v in enumerate(ints):
            if v:
                text = fraction_text(abs(v), den)
                if k:
                    sym = f"z{self.order}" if k == 1 else f"z{self.order}^{k}"
                    text = sym if text == "1" else f"{text}*{sym}"
                pieces.append((v < 0, text))
        return signed_sum(pieces)


# the slots' own setters, which __setattr__ does not block
_set_order = CyclotomicNumber.order.__set__
_set_ints = CyclotomicNumber._ints.__set__
_new = object.__new__


def _normalised(order, den, ints) -> CyclotomicNumber:
    """The number ints / den of Q(zeta_order), den > 0, ints of length
    phi(order), reduced to lowest terms: every result is built here, so each
    is normalised once."""
    g = gcd(den, *ints)
    if g != 1:
        den, ints = den // g, [v // g for v in ints]
    x = _new(CyclotomicNumber)
    _set_order(x, order)
    _set_ints(x, (den, tuple(ints)))
    return x


def fraction_text(num: int, den: int) -> str:
    """num / den (den > 0) in lowest terms, as "p/q", or "p" when q is 1."""
    g = gcd(num, den)
    return str(num // g) if den == g else f"{num // g}/{den // g}"


def _mul_mod_phi(xs, ys, order):
    """The product of two coordinate vectors of Q(zeta_order), reduced modulo
    Phi_order: the convolution's top coefficients fold through `_folds`.
    Integer input gives integer output."""
    phi = len(xs)
    conv = [0] * (2 * phi - 1)
    nonzero = [(j, y) for j, y in enumerate(ys) if y]
    for i, x in enumerate(xs):
        if x:
            for j, y in nonzero:
                conv[i + j] += x * y
    out = conv[:phi]
    for c, fold in zip(conv[phi:], _folds(order)):
        if c:
            for i, r in fold:
                out[i] += c * r
    return out


@lru_cache(maxsize=None)
def _folds(order: int) -> tuple:
    """The nonzero entries (i, r) of the power-table rows zeta^k, k = phi
    .. 2 phi - 2, phi = phi(order): where a product's coefficient at k goes."""
    table = _power_table(order)
    phi = len(table[0])
    return tuple(tuple((i, r) for i, r in enumerate(table[k % order]) if r)
                 for k in range(phi, 2 * phi - 1))


@lru_cache(maxsize=None)
def _traces(order: int) -> tuple[int, ...]:
    """Tr(zeta_order^k) over Q for k < phi(order): mu(n) * phi(order) / phi(n)
    with n = order / gcd(order, k) and the Moebius function mu(n) = -Phi_n[-2]."""
    phi = euler_phi(order)
    return tuple(-cyclotomic_polynomial(n)[-2] * (phi // euler_phi(n))
                 for n in (order // gcd(order, k) for k in range(phi)))


def cyclotomic_embed(root_order: int, power: int, field_order: int) -> CyclotomicNumber:
    """The root_order-th root of unity zeta_{root_order}^power, expressed as an
    element of Q(zeta_{field_order})."""
    if root_order < 1 or field_order < 1:
        raise ValueError("orders must be positive")
    if field_order % root_order != 0:
        raise DivisibilityError(
            f"root order {root_order} does not divide field order {field_order}")
    power = field_order // root_order * power
    return _normalised(field_order, *_root_pair(field_order, power, 1))
