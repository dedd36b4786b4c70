"""Sparse integer polynomials in the 16 factorization variables a..p.

Exponent vectors are dense 16-tuples keyed in a dict; no zero
coefficient is ever stored, so structural equality is mathematical
equality.  Serialization is deterministic (lexicographic on exponent
vectors) and round-trips exactly.
"""
from __future__ import annotations

import hashlib
import re
from fractions import Fraction
from math import prod
from operator import add
from typing import Dict, Mapping, Sequence, Tuple

VARS = "abcdefghijklmnop"
NVARS = 16
ExpVec = Tuple[int, ...]

_ZERO_EXP: ExpVec = (0,) * NVARS


class Poly16:
    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[ExpVec, int] = ()):
        t: Dict[ExpVec, int] = {}
        for ev, c in dict(terms).items():
            if c:
                t[ev] = c
        self.terms = t

    @classmethod
    def _of(cls, terms: Dict[ExpVec, int]) -> "Poly16":
        """Wrap a dict that already holds no zero coefficient, without copying it."""
        out = object.__new__(cls)
        out.terms = terms
        return out

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Poly16":
        return Poly16()

    @staticmethod
    def constant(c: int) -> "Poly16":
        return Poly16({_ZERO_EXP: int(c)})

    @staticmethod
    def variable(name: str) -> "Poly16":
        i = VARS.index(name)
        ev = tuple(1 if t == i else 0 for t in range(NVARS))
        return Poly16({ev: 1})

    @staticmethod
    def monomial(word: str, coeff: int = 1) -> "Poly16":
        """Product of single-letter variables, e.g. 'bknp' -> b*k*n*p."""
        ev = [0] * NVARS
        for ch in word:
            ev[VARS.index(ch)] += 1
        return Poly16({tuple(ev): int(coeff)})

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "Poly16":
        other = self._coerce(other)
        t = dict(self.terms)
        for ev, c in other.terms.items():
            nc = t.get(ev, 0) + c
            if nc:
                t[ev] = nc
            elif ev in t:
                del t[ev]
        return Poly16._of(t)

    __radd__ = __add__

    def __neg__(self) -> "Poly16":
        return Poly16._of({ev: -c for ev, c in self.terms.items()})

    def __sub__(self, other) -> "Poly16":
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "Poly16":
        other = self._coerce(other)
        t: Dict[ExpVec, int] = {}
        get = t.get
        rhs = other.terms.items()
        for e1, c1 in self.terms.items():
            for e2, c2 in rhs:
                ev = tuple(map(add, e1, e2))
                nc = get(ev, 0) + c1 * c2
                if nc:
                    t[ev] = nc
                else:
                    # c1 * c2 != 0, so a zero sum means ev was already stored
                    del t[ev]
        return Poly16._of(t)

    __rmul__ = __mul__

    @staticmethod
    def _coerce(x) -> "Poly16":
        if isinstance(x, Poly16):
            return x
        if isinstance(x, int):
            return Poly16.constant(x)
        raise TypeError(f"cannot coerce {x!r} to Poly16")

    def __eq__(self, other):
        if isinstance(other, int):
            other = Poly16.constant(other)
        if not isinstance(other, Poly16):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def num_terms(self) -> int:
        return len(self.terms)

    def degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(ev) for ev in self.terms)

    # -- evaluation ---------------------------------------------------

    def eval(self, values: Sequence) -> Fraction:
        """Exact evaluation at 16 rational values (order a..p).

        With each value written p_i/q_i and M_i the largest exponent of
        variable i, the sum of c * prod p_i^e_i * q_i^(M_i - e_i) over the
        terms is an integer; it is divided once by prod q_i^M_i.
        """
        if len(values) != NVARS:
            raise ValueError(f"need {NVARS} values, got {len(values)}")
        vals = [Fraction(v) if not isinstance(v, Fraction) else v for v in values]
        active, tables, den = [], [], 1
        for i, top in enumerate(map(max, zip(*self.terms))):
            if top:
                num, q = vals[i].numerator, vals[i].denominator
                active.append(i)
                tables.append([num**e * q ** (top - e) for e in range(top + 1)])
                den *= q**top
        total = sum(
            c * prod([tab[ev[i]] for i, tab in zip(active, tables)])
            for ev, c in self.terms.items()
        )
        return Fraction(total, den)

    # -- serialization ------------------------------------------------

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), reverse=True)

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for idx, (ev, c) in enumerate(self.sorted_terms()):
            mono = "·".join(
                VARS[i] if e == 1 else f"{VARS[i]}^{e}"
                for i, e in enumerate(ev)
                if e
            )
            mag = abs(c)
            body = f"{mag}·{mono}" if mono else f"{mag}"
            if idx == 0:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    _TERM_RE = re.compile(r"^(\d+)(?:·(.+))?$")

    @classmethod
    def parse(cls, text: str) -> "Poly16":
        text = text.strip()
        if text == "0":
            return cls.zero()
        chunks = re.split(r"\s+(?=[+-]\s)", text)
        t: Dict[ExpVec, int] = {}
        for chunk in chunks:
            chunk = chunk.strip()
            sign = 1
            if chunk.startswith("+ "):
                chunk = chunk[2:]
            elif chunk.startswith("- "):
                sign, chunk = -1, chunk[2:]
            elif chunk.startswith("-"):
                sign, chunk = -1, chunk[1:]
            m = cls._TERM_RE.match(chunk)
            if not m:
                raise ValueError(f"bad term {chunk!r}")
            coeff = sign * int(m.group(1))
            ev = [0] * NVARS
            if m.group(2):
                for factor in m.group(2).split("·"):
                    var, caret, e = factor.partition("^")
                    if len(var) != 1 or var not in VARS or (caret and not e.isdecimal()):
                        raise ValueError(f"bad term {chunk!r}")
                    ev[VARS.index(var)] += int(e) if caret else 1
            key = tuple(ev)
            t[key] = t.get(key, 0) + coeff
        return cls(t)

    def content_hash(self) -> str:
        return hashlib.sha256(self.to_text().encode("utf-8")).hexdigest()

    def __repr__(self):
        return f"Poly16({self.to_text()})"


def poly_equal(p: Poly16, q: Poly16):
    """(equal?, difference).  Equal iff the difference is the zero polynomial."""
    diff = p - q
    return diff.is_zero(), diff
