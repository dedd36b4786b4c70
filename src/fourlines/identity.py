"""Symbolic certification of the discriminant decomposition D = m^2 n^2 (FG + H^2).

The left side is the discriminant chain of ``fourlines.chart`` (the chart
product, its bilinear forms, their resultant and B^2 - 4AC) run on
``Poly16`` variables instead of rationals; that expansion is the
authority.  The printed F, G, H are transcribed verbatim and compared
against it, equality or the exact difference polynomial going into the
certificate.

``verify-identity`` expands the link from the parameters to D through the
forms of ``chart.bilinear_forms``.  The solver runs the resultant and
B^2 - 4AC of the same chain, but reads the forms, X's 2x2 minors, from the
configuration's minor table through ``totalpos._xy_columns``
(``transversal._table_chart``); that link, table minors equal to
``chart.bilinear_forms`` of X, is covered by a Tier-1 differential test
(``tests/test_transversal.py::TestTableChart``), not expanded here.
"""
from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple, Tuple

from .chart import discriminant_of, lw_product
from .errors import InputError
from .poly import VARS, Poly16, poly_equal

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


def symbolic_X() -> tuple:
    """4x4 matrix of polynomials: the factorization product L * diag * U."""
    return lw_product([Poly16.variable(ch) for ch in VARS])


def symbolic_D() -> Poly16:
    """The solver's discriminant chain expanded over the symbolic X."""
    return discriminant_of(symbolic_X())


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


# NamedTuples rather than frozen dataclasses: ``dataclasses`` imports
# ``inspect``, about 10 ms of each verify-identity process.
class SpotEvaluation(NamedTuple):
    point: Tuple[Fraction, ...]
    lhs: Fraction
    rhs: Fraction


class IdentityCertificate(NamedTuple):
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
