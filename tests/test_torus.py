import random

import pytest
from hypothesis import given, settings, strategies as st

from twistlab import contfrac, torus
from twistlab.cli import run_batch
from twistlab.surd import QuadraticSurd, parse_surd
from twistlab.torus import (
    TorusError,
    TorusParameter,
    UnimodularWitness,
    apply_mobius,
    isomorphic,
    morita_equivalent,
    morita_invariant,
    sl2_witness,
)

from oracles import (
    GEN_J,
    GEN_S,
    GENERATORS,
    IDENTITY,
    brute_force_equivalent,
    entries,
    long_periodic_words,
    mat_det,
    mat_inverse,
    mat_mul,
    mobius_by_operators,
    quad_equal,
    quad_floor_invert,
    quad_mobius,
    quad_of,
    squarefree_up_to,
    two_period_offsets,
    word_matrix,
)

S = QuadraticSurd.normalize
SQRT2 = TorusParameter(S(0, 1, 1, 2))
SQRT3 = TorusParameter(S(0, 1, 1, 3))
GOLDEN = TorusParameter(S(1, 1, 2, 5))


def random_word(rng, max_len=12) -> tuple[int, int, int, int]:
    m = IDENTITY
    for _ in range(rng.randint(0, max_len)):
        m = mat_mul(m, rng.choice(GENERATORS))
    return m


def big_word(rng, bound=10**40) -> tuple[int, int, int, int]:
    """A random word in T^k (0 < |k| <= 10^6), S and J, grown while its
    entries stay within bound."""
    m = IDENTITY
    while True:
        k = rng.choice((-1, 1)) * rng.randint(1, 10**6)
        letter = rng.choice(((1, k, 0, 1), GEN_S, GEN_J))
        grown = mat_mul(m, letter)
        if max(map(abs, grown)) > bound:
            return m
        m = grown


class TestWitnessMatrix:
    def test_rejects_non_unimodular(self):
        with pytest.raises(TorusError):
            UnimodularWitness(2, 0, 0, 1)
        with pytest.raises(TorusError):
            UnimodularWitness(0, 0, 0, 0)


class TestApplyMobius:
    def test_translation(self):
        assert apply_mobius(UnimodularWitness(1, 1, 0, 1), SQRT2).theta == S(1, 1, 1, 2)

    def test_identity(self):
        assert apply_mobius(UnimodularWitness(*IDENTITY), GOLDEN).theta == GOLDEN.theta

    def test_det_minus_one(self):
        # (sqrt2 + 1)/sqrt2 = (2 + sqrt2)/2
        got = apply_mobius(UnimodularWitness(1, 1, 1, 0), SQRT2)
        assert got.theta == S(2, 1, 2, 2)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**64), st.sampled_from((1, -1)),
           st.integers(-10**6, 10**6), st.integers(-10**6, 10**6).filter(bool),
           st.integers(1, 10**6), st.sampled_from((2, 3, 5, 6, 1003, 1000000007)))
    def test_one_integer_step_matches_oracle_core(self, seed, det, p, q, r, d):
        rng = random.Random(seed)
        theta = S(p, q, r, d)
        m = big_word(rng)
        if mat_det(m) != det:
            m = mat_mul(GEN_J, m)  # swaps the rows: same entries, the other determinant
        assert mat_det(m) == det and max(map(abs, m)) > 10**33
        got = apply_mobius(UnimodularWitness(*m), TorusParameter(theta)).theta
        assert quad_equal(quad_of(got), mobius_by_operators(m, theta))


class TestIsomorphic:
    def test_equal(self):
        assert isomorphic(SQRT2, TorusParameter(S(0, 1, 1, 2)))

    def test_translate_not_isomorphic(self):
        assert not isomorphic(SQRT2, TorusParameter(S(1, 1, 1, 2)))

    def test_same_real_after_normalization(self):
        assert isomorphic(TorusParameter(S(2, 2, 2, 2)), TorusParameter(S(1, 1, 1, 2)))

    def test_rational_parameter_rejected(self):
        with pytest.raises(TorusError):
            TorusParameter(S(1, 0, 2, 1))


class TestMoritaEquivalent:
    def test_translation_pair(self):
        w = morita_equivalent(SQRT2, TorusParameter(S(1, 1, 1, 2)))
        assert w is not None and abs(w.det) == 1
        assert apply_mobius(w, SQRT2).theta == S(1, 1, 1, 2)

    def test_offset_pair_det_reported(self):
        t2 = TorusParameter(S(2, 1, 2, 2))
        w = morita_equivalent(SQRT2, t2)
        assert w is not None
        assert apply_mobius(w, SQRT2).theta == t2.theta
        assert w.det in (1, -1)

    def test_distinct_tail_classes(self):
        assert morita_equivalent(SQRT2, GOLDEN) is None

    def test_reflexive_symmetric_transitive(self):
        rng = random.Random(11)
        params = [apply_mobius(UnimodularWitness(*random_word(rng, 6)), SQRT3) for _ in range(4)]
        for t in params:
            assert morita_equivalent(t, t) is not None
        for a in params:
            for b in params:
                wab = morita_equivalent(a, b)
                wba = morita_equivalent(b, a)
                assert wab is not None and wba is not None
        a, b, c = params[:3]
        wab = morita_equivalent(a, b)
        wbc = morita_equivalent(b, c)
        composed = UnimodularWitness(*mat_mul(entries(wbc), entries(wab)))
        assert apply_mobius(composed, a).theta == c.theta

    def test_isomorphic_implies_morita(self):
        w = morita_equivalent(SQRT2, TorusParameter(S(0, 1, 1, 2)))
        assert w is not None


class TestSL2Witness:
    def test_translation(self):
        w = sl2_witness(SQRT2, TorusParameter(S(1, 1, 1, 2)))
        assert w is not None and w.det == 1
        assert apply_mobius(w, SQRT2).theta == S(1, 1, 1, 2)

    def test_odd_period_parity_flip(self):
        t2 = TorusParameter(S(2, 1, 2, 2))
        w = sl2_witness(SQRT2, t2)
        assert w is not None and w.det == 1
        assert apply_mobius(w, SQRT2).theta == t2.theta

    def test_self_pair(self):
        w = sl2_witness(GOLDEN, GOLDEN)
        assert w is not None and w.det == 1
        assert apply_mobius(w, GOLDEN).theta == GOLDEN.theta

    def test_distinct_tail_classes(self):
        assert sl2_witness(SQRT2, SQRT3) is None
        assert sl2_witness(GOLDEN, SQRT2) is None


def witness_pairs(seed: int, count: int = 40):
    """Seeded (x1, x2, x3) in the oracle core: x1 an image of sqrt(d),
    x2 and x3 two other images of x1, unequal to each other."""
    rng = random.Random(seed)
    fields = squarefree_up_to(1000)
    for _ in range(count):
        x1 = quad_mobius(random_word(rng, 8), (0, 1, 1, rng.choice(fields)))
        x2 = quad_mobius(random_word(rng, 8), x1)
        x3 = x2
        while quad_equal(x3, x2):
            x3 = quad_mobius(random_word(rng, 8), x1)
        yield x1, x2, x3


def param(x: tuple) -> TorusParameter:
    return TorusParameter(S(*x))


def off_by_one(m: tuple, i: int) -> tuple[int, int, int, int]:
    """m with entry i moved by one, away from a zero bottom row."""
    moved = list(m)
    moved[i] += 1 if i < 2 or moved[2 + (i == 2)] or moved[i] != -1 else -1
    return tuple(moved)


class TestWitnessReapplication:
    """torus._verified re-applies each witness exactly: every witness the
    lookups return passes, and a wrong one raises TorusError.  Both sides
    are judged by the oracle core, never by the library."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_lookup_witnesses_pass(self, seed):
        for x1, x2, _ in witness_pairs(seed):
            t1, t2 = param(x1), param(x2)
            found = [w for w in (morita_equivalent(t1, t2), sl2_witness(t1, t2)) if w]
            assert found
            for w in found:
                m = entries(w)
                assert quad_equal(quad_mobius(m, x1), x2)
                assert torus._verified(w, t1, t2) is w
                # -m is the same map, and passes too
                minus = UnimodularWitness(*(-e for e in m))
                assert quad_equal(quad_mobius(entries(minus), x1), x2)
                assert torus._verified(minus, t1, t2) is minus

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_wrong_witnesses_raise(self, seed):
        for x1, x2, x3 in witness_pairs(seed):
            t1, t2 = param(x1), param(x2)
            a, b, c, d = m = entries(morita_equivalent(t1, t2))
            # an entry off by one is seldom unimodular: it is built past
            # the constructor's check, so that _verified alone judges it
            wrong = [UnimodularWitness._canonical(**dict(zip("abcd", off_by_one(m, i))))
                     for i in range(4)]
            wrong.append(UnimodularWitness(a, b, -c, -d))  # the sign flipped: x1 -> -x2
            wrong.append(morita_equivalent(t1, param(x3)))  # valid, aimed at x3 != x2
            for w in wrong:
                assert not quad_equal(quad_mobius(entries(w), x1), x2), entries(w)
                with pytest.raises(TorusError):
                    torus._verified(w, t1, t2)

    @pytest.mark.parametrize("x1, other", [
        ((0, 1, 1, 2), (0, 1, 1, 3)), ((13, -1, 6, 7), (13, -1, 6, 11)),
    ], ids=["sqrt(2)-sqrt(3)", "(13-sqrt(7))/6-(13-sqrt(11))/6"])
    def test_witness_into_another_field_raises(self, x1, other):
        # the same p, q, r over another radicand: both integer identities
        # hold for the identity matrix, so the radicands must be compared
        w = UnimodularWitness(*IDENTITY)
        assert not quad_equal(quad_mobius(IDENTITY, x1), other)
        with pytest.raises(TorusError):
            torus._verified(w, param(x1), param(other))

    def test_verbs_reapply_the_witness(self, monkeypatch):
        # a lookup whose words were wrong is caught before it answers
        def shifted(w1, w2):
            return mat_mul(GEN_S, contfrac._transfer(w1, w2))

        monkeypatch.setattr(torus, "_transfer", shifted)
        with pytest.raises(TorusError, match="re-application"):
            morita_equivalent(SQRT2, TorusParameter(S(1, 1, 1, 2)))
        entry = {"id": 0, "verb": "torus.morita", "args": {"theta1": "sqrt(2)", "theta2": "1+sqrt(2)"}}
        assert run_batch([entry])[0]["kind"] == "TorusError"


class TestMoritaInvariant:
    def test_sqrt2(self):
        assert morita_invariant(SQRT2) == (2,)

    def test_translate_same_class(self):
        assert morita_invariant(TorusParameter(S(1, 1, 1, 2))) == (2,)

    def test_golden(self):
        assert morita_invariant(GOLDEN) == (1,)

    @pytest.mark.parametrize("base", [SQRT2, SQRT3, GOLDEN])
    def test_invariant_under_random_words(self, base):
        rng = random.Random(hash(base.theta) & 0xFFFF)
        expected = morita_invariant(base)
        for _ in range(30):
            t = apply_mobius(UnimodularWitness(*random_word(rng)), base)
            assert morita_invariant(t) == expected

    def test_images_keep_the_least_radicand(self):
        # the least state's radicand is a class invariant
        rng = random.Random(25)
        ds = squarefree_up_to(200)
        for _ in range(500):
            q = rng.choice((-1, 1)) * rng.randint(2, 30)
            t = TorusParameter(S(rng.randint(-1000, 1000), q, rng.randint(1, 60), rng.choice(ds)))
            image = apply_mobius(UnimodularWitness(*random_word(rng)), t)
            assert image.reduced[3] == t.reduced[3], (t, image)


def counts(walks: dict) -> dict:
    return {name: len(args) for name, args in walks.items()}


class TestOneExpansionPerParameter:
    """Each parameter walks its preperiod at most once, however many of
    its verbs' steps read it.  Each cycle of reduced states is walked once
    and rotated once, right after its walk, for all the parameters and
    requests that enter it at the same state, while contfrac's memo keeps
    it (the memo starts each test empty).  A Morita lookup expands theta1
    only, runs theta2 to its first reduced quotient, or not at all in
    another field, and walks that quotient to theta1's, reading no cycle
    or rotation of theta2's."""

    @pytest.fixture
    def walks(self, monkeypatch):
        """One argument of each call of contfrac's walks and of
        least_rotation: the surd a preperiod or an expansion starts from,
        the radicand a cycle, or a walk to theta1's first reduced quotient,
        runs over, the word rotated.  They are patched where contfrac
        defines them and where torus imports them, so that a walk contfrac
        makes for itself counts too."""
        logged_arg = {"expand_surd": 0, "_reduced_state": 0, "_walk": 2, "least_rotation": 0}
        walks = {name: [] for name in [*logged_arg, "_walk to theta1"]}
        for name, i in logged_arg.items():
            original = getattr(contfrac, name)

            def logged(*args, _name=name, _original=original, _i=i):
                # a _walk whose target is not its start is a Morita lookup's
                to_theta1 = _name == "_walk" and args[3] != args[:2]
                walks["_walk to theta1" if to_theta1 else _name].append(args[_i])
                return _original(*args)

            for module in (contfrac, torus):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, logged)
        return walks

    @pytest.mark.parametrize(
        "theta2,preperiods,to_theta1",
        [
            # same field: theta1's and theta2's preperiods, and theta1's
            # period; theta2's first reduced quotient is theta1's, so
            # nothing more is walked
            pytest.param("1+sqrt(100003)", ["sqrt(100003)", "1+sqrt(100003)"], 0,
                         id="1+sqrt(100003)"),
            # theta2's quotient lies 171 steps before theta1's on its
            # cycle: it walks those steps, and nothing of theta2's is rotated
            pytest.param("(1+sqrt(100003))/2", ["sqrt(100003)", "(1+sqrt(100003))/2"], 1,
                         id="(1+sqrt(100003))/2"),
            # another field: theta2 is never walked
            pytest.param("sqrt(7)", ["sqrt(100003)"], 0, id="sqrt(7)"),
        ],
    )
    def test_morita_entry(self, walks, theta2, preperiods, to_theta1):
        entry = {"id": 1, "verb": "torus.morita",
                 "args": {"theta1": "sqrt(100003)", "theta2": theta2}}
        assert run_batch([entry])[0]["status"] == "ok"
        # one preperiod walk per parameter, the one inside theta1's expansion included
        assert walks["_reduced_state"] == [parse_surd(t) for t in preperiods]
        # theta1's cycle, walked once and rotated once for its invariant
        assert counts(walks) == {"expand_surd": 0, "_reduced_state": len(preperiods), "_walk": 1,
                                 "_walk to theta1": to_theta1, "least_rotation": 1}

    def test_other_field_over_budget_never_expands_theta2(self, walks):
        t1 = TorusParameter(S(0, 1, 1, 2))
        t2 = TorusParameter(parse_surd("sqrt(1000000000000000003)"))
        assert morita_equivalent(t1, t2) is None and sl2_witness(t1, t2) is None
        assert counts(walks) == {"expand_surd": 0, "_reduced_state": 0, "_walk": 0,
                                 "_walk to theta1": 0, "least_rotation": 0}
        assert "cycle" not in vars(t2) and "reduced" not in vars(t2)

    def test_large_conductor_walks_over_theta1s_radicand(self, walks):
        # theta2's least first reduced quotient lies over 10^600 * 100003, not
        # theta1's 100003, so no cycle is walked over its radicand
        t1 = TorusParameter(parse_surd("sqrt(100003)"))
        t2 = TorusParameter(parse_surd(f"{10**300}*sqrt(100003)"))
        assert morita_equivalent(t1, t2) is None
        assert t2.reduced[3] == 10**600 * 100003
        assert walks["_walk"] and set(walks["_walk"]) == {100003} and walks["_walk to theta1"] == []

    def test_invariant_entry(self, walks):
        entry = {"id": 1, "verb": "torus.invariant", "args": {"theta": "(1+sqrt(5))/2"}}
        assert run_batch([entry])[0]["result"] == {"invariant": [1]}
        assert counts(walks) == {"expand_surd": 0, "_reduced_state": 1, "_walk": 1,
                                 "_walk to theta1": 0, "least_rotation": 1}

    def test_verbs_share_the_expansions(self, walks):
        t1, t2 = TorusParameter(S(0, 1, 1, 19)), TorusParameter(S(3, 1, 2, 19))
        assert morita_equivalent(t1, t2) is not None
        sl2_witness(t1, t2)
        morita_invariant(t2)
        # theta1's cycle, read from the memo by the second lookup; each
        # lookup walks theta2's first reduced quotient to theta1's; theta2's
        # invariant walks the cycle again from that quotient, another state
        # of it: each cycle walk rotates what it walked
        assert counts(walks) == {"expand_surd": 0, "_reduced_state": 2, "_walk": 2,
                                 "_walk to theta1": 2, "least_rotation": 2}
        assert walks["_walk"] == walks["_walk to theta1"] == [19, 19]

    def test_a_cycle_is_rotated_once(self, walks):
        # the first cf.expand walks sqrt(19)'s cycle and rotates it; the
        # second reads it from the memo, and so does the invariant, which
        # rotates nothing more
        batch = [{"id": i, "verb": verb, "args": {"theta": "sqrt(19)"}}
                 for i, verb in enumerate(["cf.expand", "cf.expand", "torus.invariant"])]
        assert run_batch(batch[:1])[0]["status"] == "ok"
        assert counts(walks) == {"expand_surd": 1, "_reduced_state": 1, "_walk": 1,
                                 "_walk to theta1": 0, "least_rotation": 1}
        assert run_batch(batch[1:2])[0]["status"] == "ok"
        assert run_batch(batch[2:])[0]["result"] == {"invariant": [1, 2, 8, 2, 1, 3]}
        assert counts(walks) == {"expand_surd": 2, "_reduced_state": 3, "_walk": 1,
                                 "_walk to theta1": 0, "least_rotation": 1}

    def test_torus_verbs_build_no_expansion(self, monkeypatch):
        # the torus verbs read a parameter's reduced state and cycle; only
        # cf.expand builds an EventuallyPeriodicCF, here from the kept
        # cycle, through the constructor or past its checks
        built = []
        cls = contfrac.EventuallyPeriodicCF
        init, canonical = cls.__init__, cls._canonical

        def counted(self, *args):
            built.append(args)
            init(self, *args)

        def counted_canonical(cls, **fields):
            built.append(fields)
            return canonical(**fields)

        monkeypatch.setattr(cls, "__init__", counted)
        monkeypatch.setattr(cls, "_canonical", classmethod(counted_canonical))
        theta = "(1+sqrt(100003))/2"
        batch = [
            ("torus.invariant", {"theta": theta}),
            ("torus.morita", {"theta1": "sqrt(100003)", "theta2": theta}),
            ("torus.morita", {"theta1": "sqrt(100003)", "theta2": "sqrt(7)"}),
            ("torus.morita", {"theta1": "sqrt(100003)", "theta2": "2*sqrt(100003)"}),
        ]
        got = run_batch([{"id": i, "verb": v, "args": a} for i, (v, a) in enumerate(batch)])
        assert [r["status"] for r in got] == ["ok"] * len(batch) and built == []
        (got,) = run_batch([{"id": 0, "verb": "cf.expand", "args": {"theta": theta}}])
        assert got["status"] == "ok" and len(built) == 1

    def test_invariants_of_one_cycle_walk_it_once(self, walks):
        # 1+sqrt(100003) enters the cycle of sqrt(100003) at the same state
        entries = [{"id": i, "verb": "torus.invariant", "args": {"theta": theta}}
                   for i, theta in enumerate(["sqrt(100003)", "1+sqrt(100003)"])]
        first, second = run_batch(entries)
        assert first["result"] == second["result"] and len(first["result"]["invariant"]) == 342
        assert counts(walks) == {"expand_surd": 0, "_reduced_state": 2, "_walk": 1,
                                 "_walk to theta1": 0, "least_rotation": 1}


class TestAgainstBruteForce:
    @pytest.mark.parametrize(
        "x,y",
        [
            ((0, 1, 1, 2), (1, 1, 1, 2)),
            ((0, 1, 1, 2), (2, 1, 2, 2)),
            ((0, 1, 1, 3), (1, 1, 2, 3)),
            ((1, 1, 2, 5), (3, 1, 2, 5)),
        ],
    )
    def test_positive_pairs(self, x, y):
        t1, t2 = TorusParameter(S(*x)), TorusParameter(S(*y))
        fast = morita_equivalent(t1, t2)
        brute = brute_force_equivalent(t1, t2, length=8)
        assert fast is not None and brute is not None

    def test_negative_pair(self):
        assert morita_equivalent(SQRT2, GOLDEN) is None
        assert brute_force_equivalent(SQRT2, GOLDEN, length=8) is None


class TestLongWitnessWords:
    def test_witnesses_map_theta1_to_theta2(self, monkeypatch):
        # two preperiods of 28 to 150 terms before rotations of one period
        # of sqrt(d): both witness words run in leaves
        fed, product = [], contfrac._mobius_matrix

        def recorded(terms, *start):
            fed.append(len(terms))
            return product(terms, *start)

        rng = random.Random(28)
        for _, period in long_periodic_words(rng, 8):
            cfs = []
            for _ in range(2):
                k = rng.randrange(len(period))
                pre = [rng.randint(-50, 50)] + [rng.randint(1, 9) for _ in range(rng.randint(27, 149))]
                rotation = period[k:] + period[:k]
                pre[-1] += pre[-1] == rotation[-1]
                cfs.append(contfrac.EventuallyPeriodicCF(pre, rotation))
            t1, t2 = (TorusParameter(contfrac.value_of(cf)) for cf in cfs)
            fed.clear()
            monkeypatch.setattr(contfrac, "_mobius_matrix", recorded)
            witness = morita_equivalent(t1, t2)
            monkeypatch.undo()
            assert min(fed) >= contfrac._LEAVES_FROM
            assert quad_equal(quad_mobius(entries(witness), quad_of(t1.theta)), quad_of(t2.theta))


def lookup_branch(t1: TorusParameter, t2: TorusParameter) -> str:
    """Which test of the one-cycle lookup answers a pair with no tail in
    common, read off the parameters' least first reduced quotients."""
    if t1.theta.d != t2.theta.d:
        return "other field"
    return "other radicand" if t1.reduced[3] != t2.reduced[3] else "other cycle"


def transfer(w1, w2) -> tuple[int, int, int, int]:
    """M(w2) * M(w1)^-1 for the word matrices, on the oracle core."""
    return mat_mul(word_matrix(w2), mat_inverse(word_matrix(w1)))


class TestAgainstTwoPeriods:
    """The one-cycle lookup gives the witnesses of the rule of two
    periods (oracles.two_period_offsets) on 20000 seeded pairs, and every
    way of answering None is taken."""

    QS = (1, -1, 2, -2, 3, 5, -7, 12)
    DS = squarefree_up_to(30)

    def draw(self, rng, d) -> TorusParameter:
        return TorusParameter(S(rng.randint(-40, 40), rng.choice(self.QS), rng.randint(1, 40), d))

    def test_witnesses_agree(self):
        rng = random.Random(20000)
        branches = {}
        for _ in range(20000):
            d = rng.choice(self.DS)
            t1 = self.draw(rng, d)
            u = rng.random()
            if u < 0.5:
                t2 = apply_mobius(UnimodularWitness(*random_word(rng)), t1)
            elif u < 0.95:
                t2 = self.draw(rng, d)
            else:  # most of these lie in another field
                t2 = self.draw(rng, rng.choice(self.DS))
            found = two_period_offsets(t1, t2)
            if found is None:
                assert morita_equivalent(t1, t2) is None and sl2_witness(t1, t2) is None
                key = lookup_branch(t1, t2)
            else:
                w1, w2, period = found
                assert entries(morita_equivalent(t1, t2)) == transfer(w1, w2)
                if (len(w1) + len(w2)) % 2 and len(period) % 2 == 0:
                    assert sl2_witness(t1, t2) is None
                else:
                    if (len(w1) + len(w2)) % 2:
                        w2 += period
                    assert entries(sl2_witness(t1, t2)) == transfer(w1, w2)
                key = "equivalent"
            branches[key] = branches.get(key, 0) + 1
        assert set(branches) == {"equivalent", "other field", "other radicand", "other cycle"}, branches


class TestWalkToTheta1:
    """The lookup walks theta2's first reduced quotient to theta1's where
    no benchmark workload goes: from every state of one cycle of a few
    dozen terms, and on a pair over one radicand from two classes."""

    @pytest.mark.parametrize("d", [421, 571])  # L = 37 and 42
    def test_from_every_complete_quotient(self, d):
        t1 = TorusParameter(S(0, 1, 1, d))
        x1 = x = quad_of(t1.theta)
        for _ in range(len(t1.cycle.period) + 2):
            t2 = TorusParameter(S(*x))
            w1, w2, period = two_period_offsets(t1, t2)
            witnesses = [morita_equivalent(t1, t2), sl2_witness(t1, t2)]
            assert entries(witnesses[0]) == transfer(w1, w2)
            odd = (len(w1) + len(w2)) % 2
            if odd and len(period) % 2 == 0:  # no det +1 witness
                assert witnesses.pop() is None
            else:  # det +1: one more period when the first is det -1
                assert entries(witnesses[1]) == transfer(w1, w2 + period * odd)
            for witness in witnesses:
                assert quad_equal(quad_mobius(entries(witness), x1), x)
            x = quad_floor_invert(x)[1]

    def test_same_radicand_pair_of_another_class(self, alarm, monkeypatch):
        # theta1's period has L = 5314 terms; theta2's cycle, over the same
        # radicand, has 5534, so no walk of L steps reaches theta1's state
        walks, walk = [], torus._walk

        def logged(P, Q, D, to, cap):
            found = walk(P, Q, D, to, cap)
            walks.append((cap, found))
            return found

        monkeypatch.setattr(torus, "_walk", logged)
        entry = {"verb": "torus.morita",
                 "args": {"theta1": "sqrt(100000003)", "theta2": "(9992+sqrt(100000003))/13"}}
        t1, t2 = (TorusParameter(parse_surd(entry["args"][k])) for k in ("theta1", "theta2"))
        assert t1.reduced[3] == t2.reduced[3] and len(t1.cycle.period) == 5314
        got = run_batch([dict(entry, id=i) for i in range(3)])
        assert [r["result"]["equivalent"] for r in got] == [False] * 3
        # each request walks at most L steps, and is not kept
        assert walks == [(5314, None)] * 3


class TestPinnedWitnesses:
    """The witness is C_j(theta2) * C_i(theta1)^-1 at i = |pre1| and
    j = |pre2| + (k2 - k1) mod L from the least-rotation offsets k1, k2
    (plus L for a det +1 witness when L is odd); these rows were recorded
    from the earlier quadratic search over pairs of complete quotients."""

    @pytest.mark.parametrize(
        "theta1,theta2,morita,sl2",
        [
            # equal parameters
            ("(1+sqrt(5))/2", "(1+sqrt(5))/2", ((1, 0), (0, 1)), ((1, 0), (0, 1))),
            ("sqrt(2)", "sqrt(2)", ((1, 0), (0, 1)), ((1, 0), (0, 1))),
            # [3, 5; (2)] and [7, 3, 5; (2)] already agree inside the preperiods
            ("(46-sqrt(2))/14", "(1103+sqrt(2))/151",
             ((7, 1), (1, 0)), ((-329, 1104), (-45, 151))),
            ("(1103+sqrt(2))/151", "(46-sqrt(2))/14",
             ((0, 1), (1, -7)), ((151, -1102), (47, -343))),
            # odd L: det -1 first, a shift by one period flips it
            ("sqrt(2)", "(2+sqrt(2))/2", ((1, 1), (1, 0)), ((2, 3), (1, 2))),
            # even L: every alignment has det -1
            ("sqrt(3)", "sqrt(3)/3", ((0, 1), (1, 0)), None),
            ("sqrt(3)", "(1+sqrt(3))/2", ((0, 1), (1, -1)), None),
            ("sqrt(7)", "sqrt(7)/7", ((0, 1), (1, 0)), None),
            # L = 342
            ("sqrt(100003)", "1+sqrt(100003)", ((1, 1), (0, 1)), ((1, 1), (0, 1))),
            ("sqrt(100003)", "sqrt(100003)/100003", ((0, 1), (1, 0)), None),
        ],
    )
    def test_rows(self, theta1, theta2, morita, sl2):
        t1, t2 = TorusParameter(parse_surd(theta1)), TorusParameter(parse_surd(theta2))
        assert morita_equivalent(t1, t2).rows() == morita
        w = sl2_witness(t1, t2)
        assert (w.rows() if w else None) == sl2

    def test_long_period_witnesses_have_det_one_and_reapply(self):
        # L = 342: both witnesses of sqrt(100003) and 1 + sqrt(100003)
        t1 = TorusParameter(S(0, 1, 1, 100003))
        t2 = TorusParameter(S(1, 1, 1, 100003))
        for w in (morita_equivalent(t1, t2), sl2_witness(t1, t2)):
            assert w is not None and w.det == 1
            assert apply_mobius(w, t1).theta == t2.theta
