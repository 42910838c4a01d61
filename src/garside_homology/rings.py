"""Exact scalar arithmetic: rationals, prime fields, dense polynomials.

Dense polynomials over a field are tuples of coefficients, constant term
first, with no trailing zeros (the zero polynomial is the empty tuple).
Laurent polynomials are built on them in linalg.LaurentDomain.  A rational
is an int when integral and a Fraction only when it has a denominator; a
prime field's elements are the ints 0..p-1.  Primality of a field's
characteristic is decided by deterministic Miller-Rabin, so p is
bounded by MR_BOUND.  Everything is exact; no floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .gaussian import PreconditionError


def _rational(r):
    """r as an int when it is integral, else the Fraction itself."""
    return r.numerator if r.denominator == 1 else r


class Rationals:
    """The field of rational numbers.

    An element is an int when it is integral and a Fraction in lowest terms
    only when its denominator exceeds 1, so the integral coefficients that
    fill most boundary matrices cost int arithmetic, not a Fraction and a gcd
    per operation.  Both types have `numerator` and `denominator`.
    """

    name = "Q"
    zero = 0
    one = 1

    def from_int(self, n: int) -> int:
        return n

    def add(self, a, b):
        return _rational(a + b)

    def sub(self, a, b):
        return _rational(a - b)

    def mul(self, a, b):
        return _rational(a * b)

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 1 or a == -1:
            return a
        return _rational(Fraction(1, a))

    def scaled(self, coeffs) -> tuple:
        """(d, ints) with ints = d * coeffs, over the least common denominator d."""
        for c in coeffs:
            if type(c) is not int:
                d = lcm(*(c.denominator for c in coeffs))
                return d, [c.numerator * (d // c.denominator) for c in coeffs]
        return 1, coeffs

    def unscaled(self, ints, d: int) -> list:
        """The rationals ints / d: an int where integral, a Fraction only where not."""
        if d == 1:
            return ints
        out = []
        for x in ints:
            q, r = divmod(x, d)
            out.append(Fraction(x, d) if r else q)
        return out

    def is_zero(self, a) -> bool:
        return a == 0

    def fmt(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Rationals()"


# Miller-Rabin with the first thirteen primes as bases decides primality
# for every n below MR_BOUND (Sorenson and Webster, "Strong pseudoprimes to
# twelve prime bases", Math. Comp. 86 (2017)).
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for n < MR_BOUND."""
    if n < 2:
        return False
    for b in MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field with p elements, represented by the integers 0..p-1."""

    def __init__(self, p: int):
        if p >= MR_BOUND:
            raise PreconditionError(f"primes p >= {MR_BOUND} are not supported (primality is proven only below it)")
        if not _is_prime(p):
            raise PreconditionError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"
        self.zero = 0
        self.one = 1 % p

    def from_int(self, n: int) -> int:
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in a prime field")
        return pow(a, self.p - 2, self.p)

    def scaled(self, coeffs) -> tuple:
        """(1, coeffs): the elements are ints already."""
        return 1, coeffs

    def unscaled(self, ints, d: int) -> list:
        """The elements ints reduced mod p, once each (d is 1, as `scaled` gives)."""
        p = self.p
        return [x % p for x in ints]

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def fmt(self, a) -> str:
        return str(a % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


# -- dense polynomials ---------------------------------------------------------

Poly = tuple


def poly_trim(field, coeffs) -> Poly:
    coeffs = list(coeffs)
    while coeffs and field.is_zero(coeffs[-1]):
        coeffs.pop()
    return tuple(coeffs)


def poly_from_ints(field, ints) -> Poly:
    return poly_trim(field, [field.from_int(c) for c in ints])


def poly_neg(field, a: Poly) -> Poly:
    return tuple(field.neg(c) for c in a)


def mul_add(out: list, shift: int, a, b) -> None:
    """out[shift + i + j] += a[i] * b[j] for all i, j, in place.

    The one dense multiply-add loop: products and `LaurentDomain.sub_mul`
    run it on integer coefficients (`scaled`) and reduce once per output
    coefficient (`unscaled`), with no field call per product.
    """
    for i, x in enumerate(a, shift):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y


def poly_mul(field, a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    da, a = field.scaled(a)
    db, b = field.scaled(b)
    out = [0] * (len(a) + len(b) - 1)
    mul_add(out, 0, a, b)
    # the leading coefficients are nonzero, so over a field their product is
    return tuple(field.unscaled(out, da * db))


def poly_divmod(field, a: Poly, b: Poly) -> tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quot = [field.zero] * max(0, len(a) - len(b) + 1)
    inv_lead = field.inv(b[-1])
    for shift in range(len(a) - len(b), -1, -1):
        c = rem[shift + len(b) - 1]
        if field.is_zero(c):
            continue
        factor = field.mul(c, inv_lead)
        quot[shift] = factor
        for i, cb in enumerate(b):
            rem[shift + i] = field.sub(rem[shift + i], field.mul(factor, cb))
    return poly_trim(field, quot), poly_trim(field, rem)


def poly_monic(field, a: Poly) -> tuple:
    """(leading coefficient, monic polynomial) with a = lead * monic."""
    if not a:
        return field.one, ()
    lead = a[-1]
    inv = field.inv(lead)
    return lead, tuple(field.mul(c, inv) for c in a)


def poly_str(field, a: Poly) -> str:
    if not a:
        return "0"
    parts = []
    for e in range(len(a) - 1, -1, -1):
        c = a[e]
        if field.is_zero(c):
            continue
        coeff = field.fmt(c)
        if e == 0:
            term = coeff
        else:
            tpow = "t" if e == 1 else f"t^{e}"
            if coeff == "1":
                term = tpow
            elif coeff == "-1":
                term = f"-{tpow}"
            else:
                term = f"{coeff}*{tpow}"
        if parts and not term.startswith("-"):
            parts.append("+" + term)
        else:
            parts.append(term)
    return "".join(parts)
