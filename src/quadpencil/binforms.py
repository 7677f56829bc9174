"""Binary forms f(x,y) = f0 x^n + f1 x^(n-1) y + ... + fn y^n over Q."""

from fractions import Fraction

from .errors import DomainError
from .polys import Poly, discriminant


class BinaryForm:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = tuple(Fraction(c) for c in coeffs)
        if len(cs) < 2:
            raise DomainError("binary form needs degree >= 1")
        self.coeffs = cs

    @property
    def n(self):
        return len(self.coeffs) - 1

    @property
    def f0(self):
        return self.coeffs[0]

    def __eq__(self, other):
        if isinstance(other, BinaryForm):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __call__(self, x, y):
        x, y = Fraction(x), Fraction(y)
        n = self.n
        return sum(c * x ** (n - i) * y**i for i, c in enumerate(self.coeffs))

    def dehomogenized(self) -> Poly:
        """f(x, 1); degree drops below n exactly when f0 = 0."""
        return Poly(list(reversed(self.coeffs)))

    def monic_part(self) -> Poly:
        """g with f(x,1) = f0*g(x), g monic of degree n; needs f0 != 0."""
        if self.f0 == 0:
            raise DomainError("f0 = 0: form has no monic degree-n part")
        return self.dehomogenized().monic()

    def disc(self) -> Fraction:
        """(-1)^(n(n-1)/2) Res(p, p')/f0 for p = f(x,1); needs f0 != 0."""
        if self.f0 == 0:
            raise DomainError("disc undefined for f0 = 0")
        return discriminant(self.dehomogenized())

    @property
    def is_stable(self):
        return self.f0 != 0 and self.disc() != 0

    @property
    def is_integral(self):
        return all(c.denominator == 1 for c in self.coeffs)

    @classmethod
    def from_monic_part(cls, f0, g: Poly):
        """Form with given f0 whose dehomogenization is f0 * g, g monic."""
        f0 = Fraction(f0)
        if g.lc != 1:
            raise DomainError("g must be monic")
        return cls([f0 * g[g.degree - i] for i in range(g.degree + 1)])

    def __repr__(self):
        return "BinaryForm(%s)" % (tuple(str(c) for c in self.coeffs),)
