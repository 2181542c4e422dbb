"""Exact bivariate Laurent polynomials and Euler-form rational functions.

A Laurent polynomial is stored as a dict mapping (xExp, yExp) to a nonzero
integer coefficient.  An Euler form is a fraction N(X,Y) / prod (1 - X^a Y^b)
where the denominator is kept as a multiset of exponent pairs and never
expanded unless an operation needs it.  All arithmetic is exact; there is no
floating point anywhere in this module.
"""

from __future__ import annotations

from fractions import Fraction


class ResourceGuardError(RuntimeError):
    """Raised when an operation exceeds its documented size bound."""


class InputError(ValueError):
    """Raised when the input is outside what the program answers: a refusal,
    as opposed to a fault of the program itself.  The CLI maps it to exit 1."""


class DegenerateSpecializationError(InputError):
    """Raised when a specialization (e.g. X=1) kills a numerator."""


class Record:
    """Base of the immutable value types: the fields named in `_fields`,
    held in `__slots__` and set once, by each subclass's `__init__`, through
    `object.__setattr__`.

    It keeps what `@dataclass(frozen=True)` gave them: equality within one
    class, a hash over the fields, the dataclass repr and an AttributeError
    on assignment or deletion.  It replaces the decorator because importing
    `dataclasses` (which pulls in `inspect`, `ast` and `dis`) and exec'ing
    the generated methods took over half of `import zetaforge.cli`.
    """

    __slots__ = ()
    _fields = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self):
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        return self.__class__, self._values()

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


def _prune(terms):
    return {k: c for k, c in terms.items() if c != 0}


class LaurentPoly:
    """Bivariate Laurent polynomial with integer coefficients.

    Terms live in a dict {(xe, ye): coeff}; zero coefficients are never
    stored.  Instances are immutable by convention: no method mutates
    self.terms after construction.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = _prune(dict(terms or {}))

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def one(cls):
        return cls({(0, 0): 1})

    @classmethod
    def monomial(cls, coeff, xe=0, ye=0):
        return cls({(xe, ye): coeff})

    @classmethod
    def collect(cls, pairs):
        """The sum of the terms ((xe, ye), coeff) in `pairs`; coefficients of
        equal exponent pairs add up."""
        terms = {}
        for k, c in pairs:
            terms[k] = terms.get(k, 0) + c
        return cls(terms)

    # -- ring operations ---------------------------------------------

    def __add__(self, other):
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, 0) + c
        return LaurentPoly(terms)

    def __neg__(self):
        return LaurentPoly({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        terms = {}
        for (x1, y1), c1 in self.terms.items():
            for (x2, y2), c2 in other.terms.items():
                k = (x1 + x2, y1 + y2)
                terms[k] = terms.get(k, 0) + c1 * c2
        return LaurentPoly(terms)

    def __eq__(self, other):
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    # -- structural helpers ------------------------------------------

    def sorted_terms(self):
        """Terms as (coeff, xe, ye) sorted by (xe, ye)."""
        return [(self.terms[k], k[0], k[1]) for k in sorted(self.terms)]

    def lex_extremes(self):
        """((xe, ye) lexicographically smallest, largest) among the support."""
        if not self.terms:
            raise ValueError("zero polynomial has no extreme terms")
        keys = sorted(self.terms)
        return keys[0], keys[-1]

    # -- substitutions ------------------------------------------------

    def substitute_y_monomial(self, xshift, ypow):
        """Y -> X^xshift * Y^ypow (used to push a bookkeeping variable into X,Y)."""
        return LaurentPoly.collect(
            ((x + xshift * y, ypow * y), c) for (x, y), c in self.terms.items()
        )

    def invert(self):
        """X -> X^{-1}, Y -> Y^{-1}: every exponent pair is negated."""
        return LaurentPoly({(-x, -y): c for (x, y), c in self.terms.items()})

    def evaluate_x(self, xval):
        """Specialize X to an exact rational; returns {yExp: Fraction}."""
        xval = Fraction(xval)
        if xval == 0:
            raise ValueError("X must be specialized to a nonzero value")
        out = {}
        for (x, y), c in self.terms.items():
            out[y] = out.get(y, Fraction(0)) + c * xval**x
        return {y: c for y, c in out.items() if c != 0}

    # -- rendering ----------------------------------------------------

    def __str__(self):
        return render_poly(self, ascii_only=True)

    def __repr__(self):
        return f"LaurentPoly({self})"

    def latex(self):
        return render_poly(self, ascii_only=False)


def _render_monomial(xe, ye, ascii_only):
    parts = []
    for var, e in (("X", xe), ("Y", ye)):
        if e == 0:
            continue
        if e == 1:
            parts.append(var)
        elif ascii_only:
            parts.append(f"{var}^{e}")
        else:
            parts.append(f"{var}^{{{e}}}")
    if not parts:
        return "1"
    return "*".join(parts) if ascii_only else " ".join(parts)


def render_poly(p, ascii_only=True):
    if not p.terms:
        return "0"
    chunks = []
    for coeff, xe, ye in p.sorted_terms():
        mono = _render_monomial(xe, ye, ascii_only)
        if mono == "1":
            body = str(abs(coeff))
        elif abs(coeff) == 1:
            body = mono
        else:
            body = f"{abs(coeff)}{'*' if ascii_only else ' '}{mono}"
        sign = "-" if coeff < 0 else "+"
        chunks.append((sign, body))
    first_sign, first_body = chunks[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in chunks[1:]:
        out += f" {sign} {body}"
    return out


def _check_order(order):
    """A series order is an int >= 0: a bool or float is refused, never truncated."""
    if type(order) is not int:
        raise InputError(f"order must be an integer, got {order!r}")
    if order < 0:
        raise InputError("order must be >= 0")


def _divide_geometric(series, factors):
    """Divide a truncated power series, in place, by prod (1 - c t^b) over the
    pairs (c, b) in `factors`, each b >= 1: the recurrence s[e] += c * s[e-b]."""
    for c, b in factors:
        for e in range(b, len(series)):
            series[e] += c * series[e - b]


class TruncatedSeries(Record):
    """Power-series prefix: coefficients of Y^0 .. Y^N."""

    __slots__ = _fields = ("coefficients",)

    def __init__(self, coefficients):
        object.__setattr__(self, "coefficients", tuple(coefficients))

    @property
    def order(self):
        return len(self.coefficients) - 1

    def __getitem__(self, k):
        return self.coefficients[k]


class EulerForm:
    """Rational function N(X,Y) / prod_i (1 - X^{a_i} Y^{b_i}).

    The denominator is a multiset of pairs (a, b) with a >= 0 and b >= 1,
    stored sorted lexicographically.  No cancellation against the numerator
    is ever performed: the displayed formulas are kept verbatim.  The form
    is these two and nothing else; it keeps no record of how it was built.

    A *formal* form (``formal=True``) additionally admits factors with
    b <= 0.  Such a form is a perfectly good rational function — products,
    variable inversion, cross-multiplied equality, and serialization all
    work — but it has no power-series expansion in Y, so ``expand_series``
    and everything downstream of it refuse.  The only producers of formal
    forms are the descent-sum constructors, whose exponent tables can leave
    the series-expandable cone for large parameters.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator, denominator=(), formal=False):
        for a, b in denominator:
            if a < 0 or (b < 1 and not formal):
                raise ValueError(f"bad denominator factor (1 - X^{a} Y^{b})")
        self.numerator = numerator
        self.denominator = tuple(sorted(tuple(f) for f in denominator))

    @property
    def is_formal(self):
        """True when some denominator factor has Y-exponent <= 0.

        Formal forms support only exact rational-function algebra; series
        expansion (and hence Dirichlet coefficients and abscissae) is
        undefined for them.
        """
        return any(b < 1 for _, b in self.denominator)

    @classmethod
    def from_denominator(cls, pairs):
        """1 / prod (1 - X^a Y^b)."""
        return cls(LaurentPoly.one(), pairs)

    def __eq__(self, other):
        return (
            isinstance(other, EulerForm)
            and self.numerator == other.numerator
            and self.denominator == other.denominator
        )

    def __repr__(self):
        return f"EulerForm({self})"

    def __str__(self):
        den = "".join(f"(1 - {_render_monomial(a, b, True)})" for a, b in self.denominator)
        return f"({self.numerator}) / {den or '1'}"

    # -- operations from the contract ----------------------------------

    def invert_variables(self):
        """(sign, A, B) expressing W(X^{-1}, Y^{-1}) in terms of W(X, Y).

        Applying (1 - X^{-a}Y^{-b}) = -X^{-a}Y^{-b}(1 - X^a Y^b) to each of
        the k denominator factors gives

            W(X^{-1},Y^{-1}) = sign * X^A Y^B * N(X^{-1},Y^{-1})/N(X,Y) * W(X,Y)

        with sign = (-1)^k, A = sum a_i, B = sum b_i.
        """
        sign = -1 if len(self.denominator) % 2 else 1
        a_total = sum(a for a, _ in self.denominator)
        b_total = sum(b for _, b in self.denominator)
        return sign, a_total, b_total

    def expand_series(self, xval, order):
        """Coefficients of Y^0..Y^order of the power-series expansion at X=xval.

        The expansion runs in integers.  Only the numerator terms with
        Y-exponent <= order and the denominator factors with b <= order can
        reach the coefficients returned; the rest are skipped before any
        power of X is formed (so negative X-exponents are harmless too).
        With X = u/v in lowest terms, D = u^s v^top, for s the largest of 0
        and -x and top the largest of 0 and x over the kept terms, makes
        every kept term c X^x Y^y the integer c u^(x+s) v^(top-x).
        Coefficient e is carried further scaled by v^(r e), where r >= a/b
        for every kept factor (1 - X^a Y^b), so `_divide_geometric` divides
        each factor out with the integer multiplier u^a v^(r b - a).  The
        last step is one exact division per coefficient, by D v^(r e).  The
        numerator terms of negative Y-degree are refused unless they cancel
        at X.
        """
        _check_order(order)
        if self.is_formal:
            a, b = min(self.denominator, key=lambda f: f[1])
            raise InputError(
                f"series expansion undefined: denominator factor "
                f"(1 - X^{a} Y^{b}) does not vanish in positive Y-degree"
            )
        xval = Fraction(xval)
        if xval == 0:
            raise ValueError("X must be specialized to a nonzero value")
        u, v = xval.numerator, xval.denominator
        kept = [(x, y, c) for (x, y), c in self.numerator.terms.items() if y <= order]
        factors = [(a, b) for a, b in self.denominator if b <= order]
        s = max(0, -min((x for x, _, _ in kept), default=0))
        top = max(0, max((x for x, _, _ in kept), default=0))
        r = max((-(-a // b) for a, b in factors), default=0)
        vpow = [1]  # v^(r e), e = 0..order
        for _ in range(order):
            vpow.append(vpow[-1] * v**r)
        series = [0] * (order + 1)
        below = {}
        for x, y, c in kept:
            term = c * u ** (x + s) * v ** (top - x)
            if y >= 0:
                series[y] += term * vpow[y]
            else:
                below[y] = below.get(y, 0) + term
        if any(below.values()):
            raise ValueError("numerator has negative Y-exponents; series is not a power series")
        _divide_geometric(series, [(u**a * v ** (r * b - a), b) for a, b in factors])
        scale = u**s * v**top
        return TruncatedSeries([Fraction(c, scale * w) for c, w in zip(series, vpow)])

    def ratfunc_equal(self, other):
        """Exact equality as rational functions, by cross-multiplication."""
        mine = list(self.denominator)
        theirs = list(other.denominator)
        # Shared factors cancel: they are nonzero divisors in the Laurent ring.
        for f in list(mine):
            if f in theirs:
                mine.remove(f)
                theirs.remove(f)
        lhs = self.numerator
        for a, b in theirs:
            lhs = lhs * LaurentPoly({(0, 0): 1, (a, b): -1})
        rhs = other.numerator
        for a, b in mine:
            rhs = rhs * LaurentPoly({(0, 0): 1, (a, b): -1})
        return lhs == rhs

    # -- serialization -------------------------------------------------

    def to_json_dict(self):
        return {
            "numerator": [[str(c), xe, ye] for c, xe, ye in self.numerator.sorted_terms()],
            "denominator": [[a, b] for a, b in self.denominator],
        }

    def latex(self):
        num = self.numerator.latex()
        if not self.denominator:
            return num
        den = "".join(
            f"\\left(1 - {_render_monomial(a, b, False)}\\right)"
            for a, b in self.denominator
        )
        return f"\\frac{{{num}}}{{{den}}}"
