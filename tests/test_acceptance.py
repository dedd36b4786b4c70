"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Each test is self-contained and exact; the per-criterion lines are
emitted in the terminal summary (see conftest) so they survive pytest's
output capture.
"""
import random
import time
from fractions import Fraction

from fourlines import (
    CurveSpec,
    MatQ,
    QuadNum,
    blocks_of_canonical,
    check_tp_square,
    discriminant_from_minors,
    epsilon_threshold,
    lemma_sample,
    lw_compose,
    lw_factor,
    oracle_plucker_solve,
    plucker_meet,
    printed_FGH,
    random_tp_instance,
    schubert_count,
    solve_transversals,
    tangent_config,
    verify_identity,
)
from fourlines import curves
from fourlines.chart import proportional

from conftest import ACCEPTANCE_LINES, X1_ENTRIES, frame_pairs, frenet_frames, rand_params, sample_constants


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}"
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def criterion(num: int):
    """Ensure a FAIL line is recorded even when an inner assertion trips."""

    def wrap(fn):
        def inner(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                prefix = f"criterion {num}:"
                if not any(l.startswith(prefix) for l in ACCEPTANCE_LINES):
                    ACCEPTANCE_LINES.append(f"{prefix} FAIL — {exc}")
                raise

        inner.__name__ = fn.__name__
        return inner

    return wrap


@criterion(1)
def test_criterion_1_identity_certificate():
    start = time.monotonic()
    cert = verify_identity(spot_count=5, seed=0)
    elapsed = time.monotonic() - start
    first = cert.spot_evaluations[0]
    f, g, h = printed_FGH()
    ones = [Fraction(1)] * 16
    fv, gv, hv = f.eval(ones), g.eval(ones), h.eval(ones)
    ok = (
        cert.equal
        and cert.difference.is_zero()
        and all(v == 1 for v in first.point)
        and first.lhs == first.rhs == 320
        and (fv, gv, hv) == (20, 16, 0)
        and 1 * 1 * (fv * gv + hv * hv) == 320
        and all(s.lhs == s.rhs for s in cert.spot_evaluations)
        and elapsed < 60
    )
    _report(1, ok, f"symbolic D == m²n²(FG+H²), all-ones spot 320=320, {elapsed:.2f}s")


@criterion(2)
def test_criterion_2_discriminant_positivity():
    rng = random.Random(2024)
    failures = 0
    for _ in range(1000):
        if discriminant_from_minors(lw_compose(rand_params(rng))) <= 0:
            failures += 1
    _report(2, failures == 0, f"D > 0 on 1000 random positive parameter vectors, {failures} failures")


@criterion(3)
def test_criterion_3_worked_instance():
    x1 = MatQ(X1_ENTRIES)
    blocks = blocks_of_canonical(x1)
    # independent oracle first
    oracle = oracle_plucker_solve(blocks)
    sol = solve_transversals(blocks)
    quad = sol.quadratic
    scale = Fraction(quad.a, 8)
    want_roots = {
        ((Fraction(-5, 2), Fraction(1, 2)), (Fraction(-3, 2), Fraction(-1, 2))),
        ((Fraction(-5, 2), Fraction(-1, 2)), (Fraction(-3, 2), Fraction(1, 2))),
    }
    got_roots = set()
    for xv, yv in sol.roots:
        gx = next(p for p in ((a, b) for a in (Fraction(-5, 2),) for b in (Fraction(1, 2), Fraction(-1, 2)))
                  if xv.same_value(QuadNum(p[0], p[1], Fraction(5))))
        gy = next(p for p in ((a, b) for a in (Fraction(-3, 2),) for b in (Fraction(1, 2), Fraction(-1, 2)))
                  if yv.same_value(QuadNum(p[0], p[1], Fraction(5))))
        got_roots.add((gx, gy))
    ok = (
        scale > 0
        and (quad.a, quad.b, quad.c) == (8 * scale, 40 * scale, 40 * scale)
        and quad.disc == 320 * scale * scale
        and got_roots == want_roots
        and len(sol.incidence) == 4
        and all(len(row) == 2 and all(v == 0 for v in row) for row in sol.incidence)
        and len(oracle) == 2
        and all(any(ln.same_line(o) for o in oracle) for ln in sol.lines)
    )
    _report(3, ok, "X₁ gives D = 320, roots (−5±√5)/2 and −(3±√5)/2, 8 zero incidence determinants")


@criterion(4)
def test_criterion_4_tangent_configurations():
    start = time.monotonic()
    rng = random.Random(4)
    curve = CurveSpec.moment()
    trials = 0
    while trials < 100:
        picks = sorted({Fraction(rng.randint(1, 62), 64) for _ in range(6)})
        if len(picks) < 4:
            continue
        ts = tuple(picks[:4])
        cfg = tangent_config(curve, ts)
        sol = solve_transversals(cfg)
        assert len(sol.lines) == schubert_count(1, 3) == 2
        assert not proportional(sol.lines[0].plucker, sol.lines[1].plucker)
        oracle = oracle_plucker_solve(cfg)
        assert len(oracle) == 2
        for ln in sol.lines:
            assert any(ln.same_line(o) for o in oracle)
        trials += 1
    elapsed = time.monotonic() - start
    _report(4, elapsed < 120, f"100 tangent configurations each gave 2 real transversals matching the oracle, {elapsed:.1f}s")


@criterion(5)
def test_criterion_5_oracle_equivalence():
    rng = random.Random(5)
    for trial in range(200):
        _, blocks = random_tp_instance(rng.randrange(10**9), bound=8)
        sol = solve_transversals(blocks)
        oracle = oracle_plucker_solve(blocks)
        assert sol.warnings == ()
        assert sol.quadratic.disc == discriminant_from_minors(sol.canonical.x) > 0
        assert len(sol.lines) == len(oracle) == 2
        for ln in sol.lines:
            assert plucker_meet(ln.plucker, ln.plucker) == 0
            assert any(ln.same_line(o) for o in oracle)
        assert sol.lines[0].conjugated().same_line(sol.lines[1])
        f, h = sol.forms
        for xv, yv in sol.roots:
            assert f.eval(xv, yv) == 0 and h.eval(xv, yv) == 0
    _report(5, True, "200 random TP instances: solver and Plücker oracle agree, invariants exact")


@criterion(6)
def test_criterion_6_sampling_lemma():
    curve = CurveSpec.moment()
    ts = (Fraction(1, 10), Fraction(3, 10), Fraction(5, 10), Fraction(7, 10))
    eps = epsilon_threshold(curve, ts)
    rep = lemma_sample(curve, ts, eps)
    half = lemma_sample(curve, ts, eps / 2)
    scaling_ok = True
    for (iset, m), (_, m2), kappa in zip(rep.minors, half.minors, rep.kappas):
        ratio = m2 / m
        target = Fraction(1, 2 ** kappa)
        if not Fraction(1, 2) <= ratio / target <= 2:
            scaling_ok = False
    # each minor is eps^kappa_I * P_I(eps); P_I(0) > 0 makes its eps-order exactly kappa_I
    pairs = frame_pairs(curves._frames(curve, ts))
    order_ok = all(c > 0 for c in sample_constants(frenet_frames(curve, pairs)))
    ok = rep.ok and all(v > 0 for _, v in rep.minors) and len(rep.minors) == 70 and scaling_ok and order_ok
    _report(6, ok, f"ε = {eps}: all 70 sample minors positive, of ε-order exactly κ, "
                   "halving ratios track 2^(−κ) within factor 2")


@criterion(7)
def test_criterion_7_round_trips():
    rng = random.Random(7)
    for _ in range(100):
        params = rand_params(rng)
        x = lw_compose(params)
        assert lw_factor(x) == params
        assert check_tp_square(x).ok
        assert lw_compose(lw_factor(x)) == x
    _report(7, True, "lw_factor∘lw_compose = id and lw_compose∘lw_factor = id on 100 random instances")


@criterion(8)
def test_criterion_8_schubert_counts():
    ok = (
        schubert_count(1, 3) == 2
        and all(schubert_count(0, n) == 1 for n in range(1, 7))
        and schubert_count(2, 5) == 42
        and all(
            schubert_count(k, n) == schubert_count(n - k - 1, n)
            for n in range(1, 9)
            for k in range(n)
        )
    )
    _report(8, ok, "♯(1,3)=2, ♯(0,n)=1, ♯(2,5)=42, duality ♯(k,n)=♯(n−k−1,n) for n ≤ 8")
