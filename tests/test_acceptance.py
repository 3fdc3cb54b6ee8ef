"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Expected values come from independent oracles (naive
floor-and-invert expansion, brute-force unimodular-word search, capped
iteration) computed in `oracles.py`, never from the code paths under test.
"""

import itertools
import random
import time
from fractions import Fraction

from twistlab.contfrac import (
    EventuallyPeriodicCF,
    canonical_rotation,
    convergents,
    expand_surd,
    is_primitive,
    value_of,
)
from twistlab.dimgroup import (
    DimGroupError,
    K0Element,
    from_cf_period,
    from_matrix,
    is_positive,
    rank2_morita_equivalent,
    rank2_slope,
)
from twistlab.elliptic import (
    EllipticCurve,
    SingularCurveError,
    TwistParameter,
    c_isomorphic,
    j_invariant,
    q_isomorphic,
    twist,
)
from twistlab.surd import QuadraticSurd
from twistlab.torus import (
    TorusParameter,
    UnimodularWitness,
    apply_mobius,
    isomorphic,
    morita_equivalent,
    morita_invariant,
)
from twistlab.dimgroup import Positivity

from oracles import (
    GENERATORS,
    IDENTITY,
    brute_force_equivalent,
    iteration_verdict,
    mat_mul,
    naive_cf_terms,
    squarefree_up_to,
)

S = QuadraticSurd.normalize


def report(n, ok, label):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {label}")
    assert ok, f"criterion {n} failed: {label}"


def random_irrational_surds(count, seed, max_coeff=50, max_d=200):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        x = S(
            rng.randint(-max_coeff, max_coeff),
            rng.choice([q for q in range(-max_coeff, max_coeff + 1) if q]),
            rng.randint(1, max_coeff),
            rng.randint(2, max_d),
        )
        if not x.is_rational:
            out.append(x)
    return out


CRITERION2_SURDS = random_irrational_surds(200, seed=20260823)


def test_criterion_1_cf_round_trip_squarefree_radicands():
    start = time.monotonic()
    for d in squarefree_up_to(1000):
        x = S(0, 1, 1, d)
        cf = expand_surd(x)
        assert value_of(cf) == x, d
        n = len(cf.period)
        for ell in range(1, n):
            if n % ell == 0:
                assert cf.period != cf.period[:ell] * (n // ell), d
    elapsed = time.monotonic() - start
    report(1, elapsed < 5.0, f"round trip for all squarefree d <= 1000 in {elapsed:.2f}s")


def test_criterion_2_state_recursion_matches_naive_oracle():
    mismatches = 0
    for x in CRITERION2_SURDS:
        stream = expand_surd(x).term_stream()
        fast = [next(stream) for _ in range(100)]
        if fast != naive_cf_terms(x, 100):
            mismatches += 1
    report(2, mismatches == 0, f"{mismatches} oracle mismatches over 200 surds x 100 terms")


def test_criterion_3_convergent_determinant_identity():
    violations = 0
    for x in CRITERION2_SURDS:
        convs = convergents(expand_surd(x), 51)
        for prev, cur in zip(convs, convs[1:]):
            if cur.p * prev.q - prev.p * cur.q != (-1) ** (cur.index - 1):
                violations += 1
    report(3, violations == 0, f"{violations} determinant violations for k <= 50")


def test_criterion_4_morita_invariance_under_unimodular_words():
    rng = random.Random(41)
    bases = [
        TorusParameter(S(0, 1, 1, 2)),
        TorusParameter(S(0, 1, 1, 3)),
        TorusParameter(S(1, 1, 2, 5)),
    ]
    violations = 0
    for base in bases:
        expected = morita_invariant(base)
        for _ in range(100):
            m = IDENTITY
            for _ in range(rng.randint(0, 12)):
                m = mat_mul(m, rng.choice(GENERATORS))
            if morita_invariant(apply_mobius(UnimodularWitness(*m), base)) != expected:
                violations += 1
    report(4, violations == 0, f"{violations} invariant changes over 300 random words")


def test_criterion_5_witness_soundness_and_brute_force_agreement():
    rng = random.Random(5)
    bases = [
        S(0, 1, 1, 2),
        S(0, 1, 1, 3),
        S(1, 1, 2, 5),
        S(0, 1, 1, 7),
    ]
    panel = []
    for base in bases:
        t = TorusParameter(base)
        for _ in range(3):
            m = IDENTITY
            for _ in range(rng.randint(1, 5)):
                m = mat_mul(m, rng.choice(GENERATORS))
            panel.append((t, apply_mobius(UnimodularWitness(*m), t)))
    # cross-class pairs (expected inequivalent)
    for a, b in itertools.combinations(bases, 2):
        panel.append((TorusParameter(a), TorusParameter(b)))
    panel.append((TorusParameter(bases[0]), TorusParameter(bases[0])))
    panel.append((TorusParameter(bases[2]), TorusParameter(bases[2])))
    panel = panel[:20]
    assert len(panel) == 20
    disagreements = 0
    for t1, t2 in panel:
        fast = morita_equivalent(t1, t2)
        if fast is not None:
            assert abs(fast.det) == 1
            assert apply_mobius(fast, t1).theta == t2.theta
        brute = brute_force_equivalent(t1, t2, length=12)
        if brute is not None and fast is None:
            disagreements += 1
    report(5, disagreements == 0, f"{disagreements} brute-force disagreements on 20-pair panel")


def test_criterion_6_isomorphism_vs_morita_dichotomy():
    t1 = TorusParameter(S(0, 1, 1, 2))
    t2 = TorusParameter(S(1, 1, 1, 2))
    ok = (not isomorphic(t1, t2)) and morita_equivalent(t1, t2) is not None
    report(6, ok, "sqrt(2) and 1+sqrt(2): not isomorphic, Morita equivalent")


def test_criterion_7_twist_preserves_j():
    rng = random.Random(7)
    curves = []
    while len(curves) < 44:
        try:
            curves.append(
                EllipticCurve(
                    Fraction(rng.randint(-20, 20), rng.randint(1, 6)),
                    Fraction(rng.randint(-20, 20), rng.randint(1, 6)),
                )
            )
        except SingularCurveError:
            continue
    # make sure all three twist branches appear
    curves += [EllipticCurve(1, 0), EllipticCurve(-4, 0), EllipticCurve(0, 1), EllipticCurve(0, 27)]
    curves += [EllipticCurve(1, 1), EllipticCurve(-2, 3)]
    params = [
        TwistParameter(Fraction(rng.randint(1, 30), rng.randint(1, 30)) * rng.choice([1, -1]))
        for _ in range(50)
    ]
    branches = set()
    violations = 0
    for e in curves[:50]:
        branch = "j0" if e.A == 0 else ("j1728" if e.B == 0 else "generic")
        branches.add(branch)
        for t in params:
            if j_invariant(twist(e, t)) != j_invariant(e):
                violations += 1
    ok = violations == 0 and branches == {"generic", "j0", "j1728"}
    report(7, ok, f"{violations} j changes over 50 curves x 50 twists, branches {sorted(branches)}")


def test_criterion_8_curve_dichotomy():
    e, quad, sext = EllipticCurve(1, 1), EllipticCurve(4, 8), EllipticCurve(16, 64)
    ok = (
        c_isomorphic(e, quad)
        and q_isomorphic(e, quad) == (False, None)
        and q_isomorphic(e, sext) == (True, Fraction(2))
    )
    report(8, ok, "E(1,1) vs E(4,8) C-only; E(1,1) vs E(16,64) with u = 2")


def _primitive_words(max_entry, max_len):
    for length in range(1, max_len + 1):
        for word in itertools.product(range(1, max_entry + 1), repeat=length):
            if is_primitive(word):
                yield word


def test_criterion_9_dimension_group_bridge():
    start = time.monotonic()
    words = list(_primitive_words(10, 4))
    for word in words:
        expected = value_of(EventuallyPeriodicCF((), word))
        assert rank2_slope(from_cf_period(word)) == expected, word
    # pairwise agreement with tail equivalence on a tractable panel
    rng = random.Random(9)
    panel_words = list(_primitive_words(4, 2))
    pairs = list(itertools.combinations(panel_words, 2))
    pairs += [tuple(rng.sample(words, 2)) for _ in range(100)]
    for w1, w2 in pairs:
        witness = rank2_morita_equivalent(from_cf_period(w1), from_cf_period(w2))
        same_tail = canonical_rotation(w1) == canonical_rotation(w2)
        assert (witness is not None) == same_tail, (w1, w2)
    elapsed = time.monotonic() - start
    report(9, elapsed < 10.0,
           f"slope = periodic value for {len(words)} words, {len(pairs)} pair verdicts, {elapsed:.2f}s")


def test_criterion_10_positivity_exact_vs_iteration():
    rng = random.Random(10)
    checked = disagreements = 0
    while checked < 500:
        phi = [[rng.randint(0, 9) for _ in range(2)] for _ in range(2)]
        try:
            g = from_matrix(phi)
        except DimGroupError:
            continue
        v = (rng.randint(-20, 20), rng.randint(-20, 20))
        e = K0Element(0, v)
        oracle = iteration_verdict(g, e, iteration_cap=64)
        if oracle is not Positivity.UNDECIDED:
            if is_positive(g, e) is not oracle:
                disagreements += 1
        checked += 1
    report(10, disagreements == 0, f"{disagreements} disagreements over 500 random systems")


def test_criterion_11_invariant_independent_of_preperiod_decoration():
    period = (1, 2)
    expected = canonical_rotation(period)
    decorations = [(k, 1) for k in range(10)] + [(k, 3, 1) for k in range(10)]
    results = set()
    for pre in decorations:
        theta = value_of(EventuallyPeriodicCF(pre, period))
        g = from_cf_period(expand_surd(theta).period)
        results.add(canonical_rotation(expand_surd(rank2_slope(g)).period))
    ok = results == {expected}
    report(11, ok, f"20 preperiod decorations all map to invariant {expected}")
