import random
import sys
import threading
import time
from fractions import Fraction
from math import gcd
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from twistlab import contfrac, dimgroup
from twistlab.contfrac import (
    CFError,
    Convergent,
    EventuallyPeriodicCF,
    FiniteCF,
    NotPrimitiveError,
    canonical_rotation,
    convergents,
    expand_rational,
    expand_surd,
    is_primitive,
    least_rotation,
    value_of,
)
from twistlab.surd import QuadraticSurd, parse_surd

from oracles import (
    IDENTITY,
    long_periodic_words,
    mat_mul,
    naive_cf_terms,
    primitive_discriminant,
    quad_floor_invert,
    quad_of,
    quad_sign,
    squarefree_up_to,
    word_matrix,
)

S = QuadraticSurd.normalize


def irrational_surds(max_coeff=50, max_d=200):
    nonsquare = [d for d in range(2, max_d + 1) if int(d**0.5) ** 2 != d]
    return st.builds(
        S,
        st.integers(-max_coeff, max_coeff),
        st.integers(-max_coeff, max_coeff).filter(lambda q: q != 0),
        st.integers(1, max_coeff),
        st.sampled_from(nonsquare),
    ).filter(lambda x: not x.is_rational)


def naive_split(x: QuadraticSurd):
    """(preperiod, period) by floor-and-invert on the oracle core, split at
    the first complete quotient that comes back.  The radicand stays x.d
    along the walk, so equal core tuples are equal quotients."""
    seen, terms = {}, []
    y = quad_of(x)
    while y not in seen:
        seen[y] = len(terms)
        a, y = quad_floor_invert(y)
        terms.append(a)
    start = seen[y]
    return tuple(terms[:start]), tuple(terms[start:])


def periodic_cfs():
    """a0 in [-50, 50] and up to six terms in 1..9 before a primitive
    period of at most 14 terms in 1..9, the preperiod minimal."""
    pre = st.tuples(st.integers(-50, 50), st.lists(st.integers(1, 9), max_size=6))
    period = st.lists(st.integers(1, 9), min_size=1, max_size=14).map(tuple).filter(is_primitive)
    return st.tuples(pre.map(lambda t: (t[0], *t[1])), period).filter(
        lambda t: t[0][-1] != t[1][-1]).map(lambda t: EventuallyPeriodicCF(*t))


def all_divisors_primitive(word) -> bool:
    n = len(word)
    return not any(n % ell == 0 and word == word[:ell] * (n // ell) for ell in range(1, n))


class TestCanonicalForms:
    def test_finite_rejects_trailing_one(self):
        with pytest.raises(CFError):
            FiniteCF((3, 7, 1))

    def test_finite_rejects_nonpositive_inner_terms(self):
        with pytest.raises(CFError):
            FiniteCF((3, 0, 2))

    def test_finite_single_negative_term_ok(self):
        assert FiniteCF((-3,)).terms == (-3,)

    def test_periodic_rejects_imprimitive_period(self):
        with pytest.raises(NotPrimitiveError, match=r"^period not primitive: \(1, 2, 1, 2\)$"):
            EventuallyPeriodicCF((), (1, 2, 1, 2))

    def test_imprimitive_message_quotes_a_prefix(self):
        # the word takes 1200000 characters to print
        word = (1, 2) * 200000
        for reject in (lambda: EventuallyPeriodicCF((), word), lambda: canonical_rotation(word)):
            with pytest.raises(NotPrimitiveError) as raised:
                reject()
            assert str(raised.value).endswith(f"{str(word)[:100]}... (1199900 more characters)")

    def test_periodic_rejects_absorbable_preperiod(self):
        with pytest.raises(CFError):
            EventuallyPeriodicCF((1, 2), (1, 2))

    def test_empty_period_rejected(self):
        with pytest.raises(CFError):
            EventuallyPeriodicCF((1,), ())


class TestExpandRational:
    def test_355_113(self):
        assert expand_rational(Fraction(355, 113)) == FiniteCF((3, 7, 16))

    def test_integer(self):
        assert expand_rational(7) == FiniteCF((7,))

    def test_negative(self):
        # -3 + 1/(1 + 1/2) = -7/3
        assert expand_rational(Fraction(-7, 3)) == FiniteCF((-3, 1, 2))

    @given(st.fractions())
    def test_round_trip(self, f):
        cf = expand_rational(f)
        assert value_of(cf).to_fraction() == f


class TestExpandSurd:
    def test_sqrt2(self):
        cf = expand_surd(S(0, 1, 1, 2))
        assert cf == EventuallyPeriodicCF((1,), (2,))

    def test_golden_ratio_purely_periodic(self):
        cf = expand_surd(S(1, 1, 2, 5))
        assert cf == EventuallyPeriodicCF((), (1,))

    def test_sqrt3(self):
        assert expand_surd(S(0, 1, 1, 3)) == EventuallyPeriodicCF((1,), (1, 2))

    def test_rational_rejected(self):
        with pytest.raises(CFError):
            expand_surd(S(3, 0, 2, 1))

    def test_negative_surd(self):
        x = S(0, -1, 1, 2)
        cf = expand_surd(x)
        assert value_of(cf) == x
        assert cf.preperiod[0] == -2

    @given(irrational_surds())
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, x):
        assert value_of(expand_surd(x)) == x

    @given(irrational_surds(max_coeff=20, max_d=60))
    @settings(max_examples=100, deadline=None)
    def test_matches_naive_oracle(self, x):
        cf = expand_surd(x)
        stream = cf.term_stream()
        got = [next(stream) for _ in range(60)]
        assert got == naive_cf_terms(x, 60)

    # r up to 1000 makes Q not divide D - P^2 for most draws, so D is scaled
    @given(st.builds(
        S,
        st.integers(-10**4, 10**4),
        st.integers(-9, 9).filter(lambda q: q != 0),
        st.integers(1, 1000),
        st.sampled_from([d for d in range(2, 61) if int(d**0.5) ** 2 != d]),
    ))
    @settings(max_examples=100, deadline=None)
    def test_split_matches_first_repeated_complete_quotient(self, x):
        cf = expand_surd(x)
        assert (cf.preperiod, cf.period) == naive_split(x)

    @given(periodic_cfs())
    @example(EventuallyPeriodicCF((1,), (2,)))
    @example(EventuallyPeriodicCF((), (1,)))
    @example(EventuallyPeriodicCF((0, 3), (2, 1)))
    @example(EventuallyPeriodicCF((-4, 1), (3, 5)))
    @settings(max_examples=100, deadline=None)
    def test_expansion_of_value_is_identity(self, cf):
        # the value is read off one integer matrix
        assert expand_surd(value_of(cf)) == cf

    def test_term_budget(self, monkeypatch):
        # sqrt(94) = [9; (1, 2, 3, 1, 1, 5, 1, 8, 1, 5, 1, 1, 3, 2, 1, 18)]
        monkeypatch.setattr(contfrac, "TERM_BUDGET", 17)
        assert len(expand_surd(S(0, 1, 1, 94)).period) == 16
        monkeypatch.setattr(contfrac, "TERM_BUDGET", 16)
        with pytest.raises(CFError, match="budget of 16 terms"):
            expand_surd(S(0, 1, 1, 94))
        # over budget within the preperiod
        x = value_of(EventuallyPeriodicCF((1, 2, 3, 4, 5, 6), (2,)))
        monkeypatch.setattr(contfrac, "TERM_BUDGET", 5)
        with pytest.raises(CFError, match="budget of 5 terms"):
            expand_surd(x)

    def test_budget_shrinks_with_the_radicand(self):
        # a term's cost grows with the bit size of D; the CLI's bounded-input
        # rows time the expansion of 10^4298*sqrt(10), D of 28559 bits
        budgets = [contfrac._term_budget(2**bits - 1) for bits in (1, 64, 65, 515, 28559)]
        assert budgets == [contfrac.TERM_BUDGET] * 2 + [999782, 694603, 727]

    def test_short_expansion_of_a_huge_radicand(self):
        # x^2 - 2q^2 = -1 makes q*sqrt(2) = sqrt(x^2 + 1) = [x; (2x)]
        x, q, digits = 1, 1, 10**3999
        while q < digits:
            x, q = 3 * x + 4 * q, 2 * x + 3 * q
        assert expand_surd(S(0, q, 1, 2)) == EventuallyPeriodicCF((x,), (2 * x,))


class TestLeastStates:
    """_reduced_state returns the least state (P + sqrt(D))/Q: content
    gcd(P, Q, (D - P^2)/Q) = 1, so D is the discriminant of the primitive
    form of theta when that is odd and a quarter of it when it is even."""

    def test_content_one_and_radicand_from_the_discriminant(self):
        rng = random.Random(25)
        ds = squarefree_up_to(200)
        for _ in range(3000):
            q = rng.choice((-1, 1)) * rng.randint(2, 30)
            p, r, d = rng.randint(-1000, 1000), rng.randint(1, 60), rng.choice(ds)
            x = S(p, q, r, d)
            _, P, Q, D = contfrac._reduced_state(x)
            disc = primitive_discriminant(x.p, x.q, x.r, x.d)
            assert gcd(gcd(P, Q), (D - P * P) // Q) == 1, x
            assert D == (disc if disc % 2 else disc // 4), x

    @pytest.mark.parametrize(
        "theta,state",
        [
            # scaled by r^2 = 16 and 36, these are states over 112 and 180 of content 2
            ("(1+sqrt(7))/4", (5, 1, 28)),
            ("(3+sqrt(5))/6", (5, 10, 45)),
        ],
    )
    def test_pinned_first_reduced_states(self, theta, state):
        assert contfrac._reduced_state(parse_surd(theta))[1:] == state


def held_words() -> int:
    """The machine words of the ints in the cycle memo, at least one each."""
    ints = [n for state, cycle in contfrac._cycles.items() for n in state + cycle.period]
    return sum(max(1, -(-n.bit_length() // 64)) for n in ints)


class TestCycleMemo:
    """contfrac keeps each walked cycle by its reduced state, within
    CYCLE_MEMO_WORDS; what it keeps never changes an answer."""

    SURDS = [S(0, 1, 1, d) for d in range(2, 400) if int(d**0.5) ** 2 != d]

    def test_words_held_never_pass_the_cap(self, monkeypatch):
        monkeypatch.setattr(contfrac, "CYCLE_MEMO_WORDS", 300)
        expansions, emptied = [], 0
        for x in self.SURDS:
            kept = len(contfrac._cycles)
            expansions.append(expand_surd(x))
            emptied += len(contfrac._cycles) < kept
            assert held_words() <= contfrac._cycle_words <= 300
        assert emptied > 1
        contfrac._clear_cycles()
        monkeypatch.setattr(contfrac, "CYCLE_MEMO_WORDS", 0)
        assert expansions == [expand_surd(x) for x in self.SURDS]

    def test_cycle_heavier_than_the_cap_is_answered_not_kept(self, monkeypatch):
        # 44 words for sqrt(2)'s cycle, 59 for sqrt(94)'s
        monkeypatch.setattr(contfrac, "CYCLE_MEMO_WORDS", 50)
        assert expand_surd(S(0, 1, 1, 2)).period == (2,)
        kept = dict(contfrac._cycles)
        assert len(kept) == 1
        # sqrt(94) = [9; (1, 2, 3, 1, 1, 5, 1, 8, 1, 5, 1, 1, 3, 2, 1, 18)]
        for _ in range(2):
            assert len(expand_surd(S(0, 1, 1, 94)).period) == 16
            assert contfrac._cycles == kept

    def test_long_one_term_cycles_stay_within_the_cap(self):
        # (n + sqrt(n^2 + 1))/1 is reduced, with the one-term period (2n);
        # each of these cycles counts about 460 words
        for k in range(200):
            n = 10**1999 + k
            found = contfrac._periodic(((), n, 1, n * n + 1))
            assert (found.period, found.offset) == ((2 * n,), 0)
            assert held_words() <= contfrac._cycle_words <= contfrac.CYCLE_MEMO_WORDS
        assert len(contfrac._cycles) < 200

    def test_threads_share_the_memo(self, monkeypatch):
        # more threads than cores, switching often, with the memo emptied
        # every few cycles: no answer changes, and under the lock the word
        # count is always that of the cycles held
        class Yielding(dict):
            def clear(self):
                super().clear()
                time.sleep(1e-4)  # another thread may run between the clear and the count

        def counted() -> int:
            total = 0
            for state, cycle in contfrac._cycles.items():
                ints = state + cycle.period
                total += contfrac._CYCLE_WORDS + len(ints) + sum(map(int.bit_length, ints)) // 64
            return total

        monkeypatch.setattr(contfrac, "CYCLE_MEMO_WORDS", 400)
        want = [expand_surd(x) for x in self.SURDS]
        monkeypatch.setattr(contfrac, "_cycles", Yielding())
        contfrac._clear_cycles()
        got, failures = {}, []

        def run(k):
            try:
                got[k] = []
                for x in self.SURDS[k % 3:] + self.SURDS[: k % 3]:
                    got[k].append(expand_surd(x))
                    with contfrac._cycle_lock:
                        assert contfrac._cycle_words == counted() <= 400
            except Exception as exc:  # reported below; a thread cannot fail the test
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and failures == []
        for k, expansions in got.items():
            assert expansions == want[k % 3:] + want[: k % 3]

    # sqrt(94) = [9; (1, 2, 3, 1, 1, 5, 1, 8, 1, 5, 1, 1, 3, 2, 1, 18)]; its
    # first reduced state (9, 13, 94) is (9 + sqrt(94))/13, which is also
    # reached after the two terms (0, 2) of LONGER
    STATE = (9, 13, 94)
    SHORTER = S(0, 1, 1, 94)
    LONGER = value_of(EventuallyPeriodicCF((0, 2), (1, 2, 3, 1, 1, 5, 1, 8, 1, 5, 1, 1, 3, 2, 1, 18)))

    @staticmethod
    def error(x) -> str:
        with pytest.raises(CFError) as raised:
            expand_surd(x)
        return str(raised.value)

    @pytest.fixture
    def walked(self, monkeypatch) -> list:
        """The start of each walk contfrac makes."""
        starts, walk = [], contfrac._walk

        def logged(P, Q, D, *rest):
            starts.append((P, Q, D))
            return walk(P, Q, D, *rest)

        monkeypatch.setattr(contfrac, "_walk", logged)
        return starts

    def test_over_budget_state_answers_alike_every_time(self, monkeypatch):
        for budget, kept in [(15, {}), (16, {self.STATE: 16})]:
            contfrac._clear_cycles()
            monkeypatch.setattr(contfrac, "TERM_BUDGET", budget)
            message = f"expansion longer than the budget of {budget} terms"
            assert self.error(self.SHORTER) == self.error(self.SHORTER) == message
            # a walk past the budget keeps nothing; a cycle within it is
            # kept, though longer than the budget left after the one-term
            # preperiod
            assert {state: len(c.period) for state, c in contfrac._cycles.items()} == kept
        # the state itself, with no preperiod, is within a budget of 16
        assert len(expand_surd(S(9, 1, 13, 94)).period) == 16
        assert self.error(self.SHORTER) == message

    def test_over_budget_state_is_walked_on_each_request(self, monkeypatch, walked):
        # 40 words, P, Q and D, and the 16 terms of a kept cycle
        for budget, walks, words in [(15, 2, 0), (16, 1, 59)]:
            contfrac._clear_cycles()
            walked.clear()
            monkeypatch.setattr(contfrac, "TERM_BUDGET", budget)
            message = f"expansion longer than the budget of {budget} terms"
            assert [self.error(self.SHORTER) for _ in range(2)] == [message] * 2
            assert walked == [self.STATE] * walks and contfrac._cycle_words == words
            assert len(contfrac._cycles) == (words > 0)

    def test_a_budget_error_is_not_kept(self, monkeypatch):
        # the error under a small budget leaves no record that answers
        # for the budget in force later
        monkeypatch.setattr(contfrac, "TERM_BUDGET", 10)
        assert self.error(self.SHORTER) == "expansion longer than the budget of 10 terms"
        monkeypatch.setattr(contfrac, "TERM_BUDGET", 10**6)
        got = expand_surd(parse_surd("sqrt(94)"))
        assert got.preperiod == (9,)
        assert got.period == (1, 2, 3, 1, 1, 5, 1, 8, 1, 5, 1, 1, 3, 2, 1, 18)

    def test_a_kept_record_is_complete(self, monkeypatch):
        # the walk's caller rotates the period before the memo keeps it:
        # reading the record rotates nothing, and no field can be written
        found = contfrac._periodic(((), *self.STATE))
        assert contfrac._cycles == {self.STATE: found}

        def refuse(word):
            raise AssertionError("rotated after the walk")

        monkeypatch.setattr(contfrac, "least_rotation", refuse)
        assert found.offset == 10
        assert found.period[found.offset:] + found.period[:found.offset] == (1, 1, 3, 2, 1, 18, 1, 2, 3, 1, 1, 5, 1, 8, 1, 5)
        for field in ("period", "offset"):
            with pytest.raises(AttributeError):
                setattr(found, field, getattr(found, field))

    @pytest.mark.parametrize("budget", [15, 16])
    @pytest.mark.parametrize("first", ["SHORTER", "LONGER"])
    def test_preperiods_of_either_length_share_the_record(self, monkeypatch, walked, budget, first):
        # each parameter is over budget, and each reaches the state after
        # its own preperiod; whichever comes first, a cycle within the
        # budget is walked once, and one past it on each request
        monkeypatch.setattr(contfrac, "TERM_BUDGET", budget)
        order = [first, "LONGER" if first == "SHORTER" else "SHORTER"]
        message = f"expansion longer than the budget of {budget} terms"
        for name in order * 2:
            assert contfrac._reduced_state(getattr(self, name))[1:] == self.STATE
            assert self.error(getattr(self, name)) == message
        assert walked == [self.STATE] * (4 if budget == 15 else 1)


class TestValueOf:
    def test_periodic_2_is_silver_ratio(self):
        assert value_of(EventuallyPeriodicCF((), (2,))) == S(1, 1, 1, 2)

    def test_periodic_1_is_golden_ratio(self):
        assert value_of(EventuallyPeriodicCF((), (1,))) == S(1, 1, 2, 5)

    def test_finite_back_substitution(self):
        assert value_of(FiniteCF((3, 7, 16))).to_fraction() == Fraction(355, 113)

    @given(periodic_cfs())
    @example(EventuallyPeriodicCF(tuple(i % 7 + 1 for i in range(300)), (2, 1, 3)))
    @example(EventuallyPeriodicCF((), (1,)))
    @settings(max_examples=100, deadline=None)
    def test_each_word_multiplied_once(self, cf):
        # M(pre + period) continues the product M(pre): a long preperiod
        # is multiplied out once, not twice
        fed = []
        mobius_matrix = contfrac._mobius_matrix

        def counting(terms, *start):
            terms = tuple(terms)
            fed.append(len(terms))
            return mobius_matrix(terms, *start)

        with patch.object(contfrac, "_mobius_matrix", counting):
            x = value_of(cf)
        assert sum(fed) == len(cf.preperiod) + len(cf.period)
        assert expand_surd(x) == cf

    def test_word_budget(self, alarm):
        # checked before the first multiplication, over every product a verb
        # runs and over the matrix a product continues
        message = f"^word exceeds the word budget of {contfrac.WORD_BUDGET}$"
        heavy = (10**4299,) * 199 + (10**4299 + 1,)
        pre, period = (10**4000,) * 24 + (3,), (10**4000,) * 24 + (10**4000 + 1,)
        for product in (lambda: value_of(FiniteCF((1,) * 199999 + (2,))),
                        lambda: value_of(EventuallyPeriodicCF((), heavy)),
                        lambda: value_of(EventuallyPeriodicCF(pre, period)),
                        lambda: contfrac._transfer((1,), heavy),
                        lambda: dimgroup.from_cf_period(heavy).phi):
            with pytest.raises(CFError, match=message):
                product()
        # within it: each of pre and period alone, 5 * 10^4 ones, and one
        # large term among small ones, which the quick bound from the sum of
        # the terms puts past the budget and the bits counted do not
        contfrac._mobius_matrix(pre)
        contfrac._mobius_matrix(period)
        assert contfrac._mobius_matrix((1,) * 50000)[1] > 10**10000
        for a0 in (10**4000, -10**4000):
            assert value_of(FiniteCF((a0,) + (1,) * 30000 + (2,))).r > 10**6000

    def test_long_words_round_trip(self):
        # rotations of periods of sqrt(d) of 20 to 400 terms after up to
        # 150 preperiod terms: both products run in leaves
        for pre, period in long_periodic_words(random.Random(28), 12):
            cf = EventuallyPeriodicCF(pre, period)
            assert expand_surd(value_of(cf)) == cf


class TestWordProduct:
    """_mobius_matrix against the plain product of oracles.word_matrix, on
    both sides of the length at which leaves start and across every leaf
    boundary."""

    MS = (1, 2, 10, 30)
    STARTS = (IDENTITY, contfrac._mobius_matrix((-(2**30 - 1), 3, 1, 2)))

    def check(self, word, start):
        assert contfrac._mobius_matrix(word, start) == mat_mul(start, word_matrix(word))

    def test_every_length(self):
        rng = random.Random(28)
        for m in self.MS:
            a = 2**m - 1
            for n in range(3 * contfrac._LEAF + 2):
                a0 = rng.choice((-a, 0, 1, a))
                word = ((a0,) + tuple(rng.choice((1, a)) for _ in range(n - 1)))[:n]
                self.check(word, rng.choice(self.STARTS))

    def test_heavy_terms(self):
        # -10^4299 as a0, and 10^4299 last and on either side of each leaf
        # boundary, among ones: its leaf runs term by term, the others in lanes
        leaf, big = contfrac._LEAF, 10**4299
        for n in (contfrac._LEAVES_FROM, leaf, leaf + 1, 3 * leaf + 1):
            for i in {0, leaf - 1, leaf, 2 * leaf - 1, 2 * leaf, n - 1}:
                if i < n:
                    word = [1] * n
                    word[i] = big if i else -big
                    for start in self.STARTS:
                        self.check(tuple(word), start)

    def test_words_that_fill_the_low_lane(self):
        # (0, a, ..., a): for m = 10 an entry of the first leaf's second row
        # has W bits, more than lanes of W bits hold with a sign (terms of
        # m = 30 bits run term by term)
        leaf = contfrac._LEAF
        for m in self.MS:
            for n in (contfrac._LEAVES_FROM, leaf - 1, leaf, leaf + 1, 3 * leaf + 1):
                word = (0,) + (2**m - 1,) * (n - 1)
                for start in self.STARTS:
                    self.check(word, start)


class TestConvergents:
    def test_sqrt2_convergents(self):
        out = convergents(FiniteCF((1, 2, 2, 2)), 4)
        assert [(c.p, c.q) for c in out] == [(1, 1), (3, 2), (7, 5), (17, 12)]

    def test_count_one(self):
        assert convergents(FiniteCF((5,)), 1) == [Convergent(5, 1, 0)]

    def test_zero_leading_term(self):
        out = convergents(FiniteCF((0, 1, 2)), 3)
        assert [(c.p, c.q) for c in out] == [(0, 1), (1, 1), (2, 3)]

    def test_count_exceeding_finite_length(self):
        with pytest.raises(CFError):
            convergents(FiniteCF((1, 2)), 3)

    @given(irrational_surds(max_coeff=20, max_d=60), st.integers(2, 40))
    @settings(max_examples=100, deadline=None)
    def test_determinant_identity(self, x, count):
        out = convergents(expand_surd(x), count)
        for prev, cur in zip(out, out[1:]):
            det = cur.p * prev.q - prev.p * cur.q
            assert det == (-1) ** (cur.index - 1)

    @given(irrational_surds(max_coeff=20, max_d=60))
    @settings(max_examples=60, deadline=None)
    def test_convergents_alternate_around_value(self, x):
        out = convergents(expand_surd(x), 12)
        a, b, r, d = quad_of(x)
        for c in out:
            # the sign of x - p/q = (a*q - p*r + b*q*sqrt(d)) / (r*q)
            side = quad_sign((a * c.q - c.p * r, b * c.q, r * c.q, d))
            assert side != 0
            expected = 1 if c.index % 2 == 0 else -1
            assert side == expected

    @given(irrational_surds(max_coeff=20, max_d=60), st.integers(2, 30))
    @settings(max_examples=60, deadline=None)
    def test_coprime(self, x, count):
        from math import gcd
        for c in convergents(expand_surd(x), count):
            assert gcd(c.p, c.q) == 1
            assert c.q >= 1


class TestCanonicalRotation:
    def test_least_rotation(self):
        assert canonical_rotation((2, 1, 1)) == (1, 1, 2)

    def test_singleton(self):
        assert canonical_rotation((5,)) == (5,)

    def test_rejects_imprimitive(self):
        with pytest.raises(NotPrimitiveError):
            canonical_rotation((1, 2, 1, 2))

    def test_rejects_empty(self):
        with pytest.raises(CFError, match="^empty period$"):
            canonical_rotation(())

    @given(st.lists(st.integers(1, 9), min_size=1, max_size=8))
    def test_rotation_invariant(self, word):
        word = tuple(word)
        if not is_primitive(word):
            return
        base = canonical_rotation(word)
        assert base == min(word[i:] + word[:i] for i in range(len(word)))
        for i in range(len(word)):
            assert canonical_rotation(word[i:] + word[:i]) == base


class TestLeastRotation:
    # e > 1 draws imprimitive words, whose least rotation occurs e times
    @given(st.lists(st.integers(1, 3), max_size=40), st.integers(1, 4))
    @settings(max_examples=300)
    def test_first_least_offset(self, word, e):
        w = tuple(word[: 40 // e]) * e
        expected = min(range(len(w)), key=lambda i: w[i:] + w[:i]) if w else 0
        assert least_rotation(w) == expected

    def test_linear_time(self):
        # one late minimum after a long run of equal terms: a quadratic scan
        # takes 100x longer on the 10x longer word
        def best_time(n):
            word = (1,) * (n - 1) + (2,)
            best = float("inf")
            for _ in range(5):
                t0 = time.perf_counter()
                assert least_rotation(word) == 0
                best = min(best, time.perf_counter() - t0)
            return best

        assert best_time(34200) < 20 * best_time(3420)


class TestIsPrimitive:
    @given(st.lists(st.integers(1, 2), max_size=24), st.integers(1, 6))
    @settings(max_examples=300)
    def test_matches_all_divisors(self, word, e):
        w = tuple(word[: 24 // e]) * e
        assert is_primitive(w) == all_divisors_primitive(w)

    def test_empty_and_single_words_are_primitive(self):
        assert is_primitive(()) and is_primitive((7,))


class TestPeriodMinimality:
    @given(irrational_surds(max_coeff=15, max_d=50))
    @settings(max_examples=60, deadline=None)
    def test_no_shorter_rotation_reproduces_period(self, x):
        period = expand_surd(x).period
        n = len(period)
        for ell in range(1, n):
            if n % ell == 0:
                assert period != period[:ell] * (n // ell)
