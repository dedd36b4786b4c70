"""Symbolic certification of the discriminant decomposition D = m^2 n^2 (FG + H^2).

The discriminant is expanded from 2x2 minors of the symbolic factorization
product; that expansion is the authority.  The printed F, G, H are
transcribed verbatim and compared against it, equality or the exact
difference polynomial going into the certificate.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from .errors import InputError
from .poly import Poly16, poly_equal

#: Largest ``verify_identity`` spot count: each spot evaluates both sides
#: once, and ``verify-identity --spots 1000`` takes about a second on a
#: 2-CPU Linux VM.
MAX_SPOTS = 1000

#: Monomials of the printed F (two of them with coefficient 2).
_F_TERMS = (
    ("acehijmo", 1), ("acehilmo", 1), ("cdehijmo", 2), ("cdehilmo", 1),
    ("abhjmp", 1), ("abhlmp", 1), ("abklmp", 1),
    ("aehjmp", 1), ("aehlmp", 1), ("aeklmp", 1),
    ("cehino", 1), ("dehjmp", 1), ("dehlmp", 1), ("deklmp", 1),
    ("bhnp", 1), ("bknp", 2), ("ehnp", 1), ("eknp", 1),
)

_G_TERMS = (
    ("acehijmo", 1), ("acehilmo", 1), ("cdehilmo", 1),
    ("abhjmp", 1), ("abhlmp", 1), ("abklmp", 1),
    ("aehjmp", 1), ("aehlmp", 1), ("aeklmp", 1),
    ("cehino", 1), ("dehjmp", 1), ("dehlmp", 1), ("deklmp", 1),
    ("bhnp", 1), ("ehnp", 1), ("eknp", 1),
)

_H_TERMS = (("bknp", 1), ("cdehijmo", -1))


def _v(name: str) -> Poly16:
    return Poly16.variable(name)


def symbolic_X() -> list:
    """4x4 matrix of polynomials: the factorization product L * diag * U."""
    a, b, c, d, e, f, g, h, i, j, k, l, m, n, o, p = (_v(ch) for ch in "abcdefghijklmnop")
    one = Poly16.constant(1)
    zero = Poly16.zero()
    lower = [
        [one, zero, zero, zero],
        [g + j + l, one, zero, zero],
        [h * j + h * l + k * l, h + k, one, zero],
        [i * k * l, i * k, i, one],
    ]
    diag = [m, n, o, p]
    upper = [
        [one, f + d + a, a * b + a * e + d * e, a * b * c],
        [zero, one, b + e, b * c],
        [zero, zero, one, c],
        [zero, zero, zero, one],
    ]
    ld = [[lower[r][t] * diag[t] for t in range(4)] for r in range(4)]
    return [
        [sum((ld[r][t] * upper[t][s] for t in range(4)), Poly16.zero()) for s in range(4)]
        for r in range(4)
    ]


def _minor2(x, rows, cols) -> Poly16:
    r1, r2 = (r - 1 for r in rows)
    c1, c2 = (c - 1 for c in cols)
    return x[r1][c1] * x[r2][c2] - x[r1][c2] * x[r2][c1]


def symbolic_D() -> Poly16:
    """Discriminant formula expanded over the symbolic minors."""
    x = symbolic_X()
    d1312 = _minor2(x, (1, 3), (1, 2))
    d1412 = _minor2(x, (1, 4), (1, 2))
    d2312 = _minor2(x, (2, 3), (1, 2))
    d2412 = _minor2(x, (2, 4), (1, 2))
    d1334 = _minor2(x, (1, 3), (3, 4))
    d1434 = _minor2(x, (1, 4), (3, 4))
    d2334 = _minor2(x, (2, 3), (3, 4))
    d2434 = _minor2(x, (2, 4), (3, 4))
    bracket = d1312 * d2434 - d2412 * d1334 - d1412 * d2334 + d2312 * d1434
    return bracket * bracket - 4 * (d1312 * d1434 - d1412 * d1334) * (
        d2312 * d2434 - d2412 * d2334
    )


def printed_FGH() -> Tuple[Poly16, Poly16, Poly16]:
    """Verbatim transcriptions of the printed F, G and H."""
    def build(terms):
        out = Poly16.zero()
        for word, coeff in terms:
            out = out + Poly16.monomial(word, coeff)
        return out

    return build(_F_TERMS), build(_G_TERMS), build(_H_TERMS)


def rhs_poly() -> Poly16:
    """m^2 n^2 (F G + H^2) from the printed polynomials."""
    f, g, h = printed_FGH()
    m2n2 = Poly16.monomial("mmnn")
    return m2n2 * (f * g + h * h)


@dataclass(frozen=True)
class SpotEvaluation:
    point: Tuple[Fraction, ...]
    lhs: Fraction
    rhs: Fraction


@dataclass(frozen=True)
class IdentityCertificate:
    lhs: Poly16
    rhs: Poly16
    equal: bool
    difference: Poly16
    spot_evaluations: Tuple[SpotEvaluation, ...]

    def to_obj(self) -> dict:
        return {
            "equal": self.equal,
            "lhs": {
                "num_terms": self.lhs.num_terms(),
                "degree": self.lhs.degree(),
                "sha256": self.lhs.content_hash(),
            },
            "rhs": {
                "num_terms": self.rhs.num_terms(),
                "degree": self.rhs.degree(),
                "sha256": self.rhs.content_hash(),
            },
            "difference": self.difference.to_text(),
            "spot_evaluations": [
                {
                    "point": [str(v) for v in s.point],
                    "lhs": str(s.lhs),
                    "rhs": str(s.rhs),
                }
                for s in self.spot_evaluations
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), indent=2)


def verify_identity(spot_count: int = 5, seed: int = 0) -> IdentityCertificate:
    """Full symbolic comparison plus deterministic random spot evaluations.

    The all-ones point is always included as the first spot row.
    ``spot_count`` must lie in 1..MAX_SPOTS.
    """
    if not 1 <= spot_count <= MAX_SPOTS:
        raise InputError(f"spot count must lie in 1..{MAX_SPOTS}, got {spot_count}")
    lhs = symbolic_D()
    rhs = rhs_poly()
    equal, diff = poly_equal(lhs, rhs)
    rng = random.Random(seed)
    points = [tuple(Fraction(1) for _ in range(16))]
    for _ in range(spot_count - 1):
        points.append(
            tuple(Fraction(rng.randint(1, 20), rng.randint(1, 20)) for _ in range(16))
        )
    spots = tuple(
        SpotEvaluation(point=pt, lhs=lhs.eval(pt), rhs=rhs.eval(pt)) for pt in points
    )
    return IdentityCertificate(
        lhs=lhs, rhs=rhs, equal=equal, difference=diff, spot_evaluations=spots
    )
