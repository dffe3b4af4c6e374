"""Brute-force decodability checks, the radius swap, and region harnesses."""

import itertools
import random
from fractions import Fraction

import pytest

from insdel_lab import verify, words
from insdel_lab.acceptance import RANDOM_CODE_SEED, _random_binary_code
from insdel_lab.codes import Code, helberg, vt_binary
from insdel_lab.verify import (
    Verdict,
    Witness,
    bound_region_pairs,
    check_ball_containment,
    check_bound_region,
    decoder_ball_matches_channel,
    list_decodable,
    min_levenshtein_distance,
)
from insdel_lab.words import (
    BallSizeError,
    Word,
    all_words,
    in_insdel_ball,
    insdel_ball,
    levenshtein_distance,
    word,
    words_up_to,
)


def cube(n: int) -> Code:
    return Code(q=2, n=n, codewords=frozenset(all_words(2, n)))


class TestMinDistance:
    def test_frozen_values(self):
        assert min_levenshtein_distance(vt_binary(4, 0)) == 4
        assert min_levenshtein_distance(cube(3)) == 2
        two_words = Code(
            q=2, n=4, codewords=frozenset({word([0] * 4, 2), word([1] * 4, 2)})
        )
        assert min_levenshtein_distance(two_words) == 8

    def test_early_stop_matches_full_scan(self):
        # the random binary subjects of acceptance criterion 8
        rng = random.Random(RANDOM_CODE_SEED)
        for _ in range(50):
            n = rng.choice([5, 6, 7])
            code = _random_binary_code(rng, n, rng.randint(4, 16))
            full = min(
                levenshtein_distance(a, b)
                for a, b in itertools.combinations(code.sorted_words(), 2)
            )
            assert min_levenshtein_distance(code) == full

    def test_singleton_rejected(self):
        with pytest.raises(ValueError):
            min_levenshtein_distance(
                Code(q=2, n=2, codewords=frozenset({word([0, 0], 2)}))
            )


class TestListDecodable:
    def test_trivial_radius_zero(self):
        verdict = list_decodable(cube(3), 0, 0, 1)
        assert verdict.decodable

    def test_cube_fails_under_one_insertion(self):
        verdict = list_decodable(cube(3), 1, 0, 1, want_witness=True)
        assert not verdict.decodable
        assert verdict.witness is not None
        assert verdict.witness.received == word([0, 0, 0, 1], 2)
        assert verdict.witness.codewords == (
            word([0, 0, 0], 2),
            word([0, 0, 1], 2),
        )

    def test_witness_members_verified_independently(self):
        verdict = list_decodable(vt_binary(6, 0), 1, 1, 2, want_witness=True)
        assert not verdict.decodable
        witness = verdict.witness
        assert witness is not None
        assert len(witness.codewords) > 2
        # each claimed codeword really reaches the received word
        for c in witness.codewords:
            assert in_insdel_ball(witness.received, c, 1, 1)
        # and no other codeword does
        others = set(vt_binary(6, 0).codewords) - set(witness.codewords)
        for c in others:
            assert not in_insdel_ball(witness.received, c, 1, 1)

    def test_monotone_in_radii_and_list_size(self):
        code = vt_binary(5, 0)
        verdicts = {
            (ti, td, ls): list_decodable(code, ti, td, ls).decodable
            for ti in range(3)
            for td in range(3)
            for ls in range(1, 4)
        }
        for (ti, td, ls), ok in verdicts.items():
            if ok:
                for ti2 in range(ti + 1):
                    for td2 in range(td + 1):
                        for ls2 in range(ls, 4):
                            assert verdicts[(ti2, td2, ls2)]

    def test_early_exit_and_census_verdicts_agree(self):
        code = cube(3)
        fast = list_decodable(code, 1, 0, 1)
        full = list_decodable(code, 1, 0, 1, want_witness=True)
        assert fast.decodable == full.decodable is False
        assert fast.witness is None and full.witness is not None

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            list_decodable(cube(2), 0, 0, 0)
        with pytest.raises(ValueError):
            list_decodable(cube(2), -1, 0, 1)
        with pytest.raises(ValueError):
            list_decodable(cube(2), 0, 3, 1)

    def test_cap_checked_before_enumerating(self):
        # VT_0(6) at (1, 1): the size bound is 7 * 9 = 63
        code = vt_binary(6, 0)
        for want_witness in (False, True):
            with pytest.raises(BallSizeError) as excinfo:
                list_decodable(code, 1, 1, 2, want_witness=want_witness, cap=62)
            assert excinfo.value.estimate == 63
        assert list_decodable(code, 1, 1, 2, cap=63).decodable is False

    def test_decodable_verdict_never_carries_witness(self):
        with pytest.raises(ValueError):
            Verdict(
                True,
                0,
                0,
                1,
                witness=Witness(word([0], 2), (word([0], 2),)),
            )


# perfbench/frozen/greedy_seed0_0.code: q=5, n=5, distance 8
GREEDY = Code(
    q=5,
    n=5,
    codewords=frozenset(
        word(symbols, 5)
        for symbols in [(0, 0, 0, 0, 4), (0, 2, 2, 2, 3), (1, 2, 4, 4, 4), (3, 2, 0, 1, 1)]
    ),
)


class TestEngines:
    """The clique alignment DP against the enumerator, and the choice between them."""

    def test_dp_matches_enumerator(self):
        rng = random.Random(RANDOM_CODE_SEED)
        for _ in range(300):
            q, n = rng.randint(2, 4), rng.randint(2, 5)
            size = rng.randint(2, min(8, q**n))
            symbols = rng.sample(sorted(itertools.product(range(q), repeat=n)), size)
            list_size = rng.randint(1, 3)
            t_ins, t_del = rng.randint(0, 3), rng.randint(0, min(3, n))
            tally = verify._channel_tally(symbols, q, t_ins, t_del, list_size)
            enumerated = max(tally.values()) <= list_size
            dp = verify._no_shared_output(symbols, t_ins, t_del, list_size, 10**18)
            assert dp == enumerated, (symbols, t_ins, t_del, list_size)

    def test_pairs_share_an_output_iff_lcs_is_long_enough(self):
        # the DP joins pairs by n - LCS <= t_ins + t_del instead of the kernel
        rng = random.Random(RANDOM_CODE_SEED)
        for _ in range(300):
            q, n = rng.randint(2, 4), rng.randint(1, 5)
            a, b = (tuple(rng.randrange(q) for _ in range(n)) for _ in range(2))
            t_ins, t_del = rng.randint(0, 3), rng.randint(0, n)
            joined = n - words._lcs(a, b) <= t_ins + t_del
            assert words._common_output([a, b], t_ins, t_del) == joined

    def test_routing(self, monkeypatch):
        real = verify._channel_tally
        tallies = []

        def spy(*args):
            tallies.append(args)
            return real(*args)

        monkeypatch.setattr(verify, "_channel_tally", spy)
        assert list_decodable(GREEDY, 4, 0, 2).decodable
        assert not tallies  # the DP decided
        assert not list_decodable(vt_binary(6, 0), 1, 1, 2).decodable
        assert len(tallies) == 1
        assert not list_decodable(vt_binary(10, 0), 2, 1, 2).decodable
        assert len(tallies) == 2

    def test_dp_decides_past_the_cap(self):
        # from t_ins = 3 on, one ball (4456 words at t_ins = 3) is over the cap
        for t_ins in range(7):
            assert list_decodable(GREEDY, t_ins, 0, 2, cap=1000).decodable
        assert list_decodable(GREEDY, 7, 0, 2, cap=1000) == Verdict(False, 7, 0, 2)
        # a witness needs the enumerator, and its ball is over the cap
        with pytest.raises(BallSizeError):
            list_decodable(GREEDY, 7, 0, 2, want_witness=True, cap=1000)

    def test_dp_failure_gets_the_enumerator_witness(self, monkeypatch):
        a, b = word([0, 1, 2], 5), word([3, 4, 0], 5)
        code = Code(q=5, n=3, codewords=frozenset({a, b}))
        real = verify._no_shared_output
        decided = []

        def spy(*args):
            decided.append(real(*args))
            return decided[-1]

        monkeypatch.setattr(verify, "_no_shared_output", spy)
        verdict = list_decodable(code, 2, 0, 1, want_witness=True)
        assert decided == [False]  # the DP decided, the enumerator found the witness
        shared = insdel_ball(a, 2, 0) & insdel_ball(b, 2, 0)
        assert verdict.witness == Witness(min(shared, key=Word.sort_key), (a, b))


class TestRadiusSwap:
    def test_equivalence_on_samples(self):
        for symbols in [(0, 1, 0), (1, 1, 1), (0, 0, 1, 1)]:
            w = word(list(symbols), 2)
            for t_ins in range(3):
                for t_del in range(min(2, len(w)) + 1):
                    assert decoder_ball_matches_channel(w, t_ins, t_del)

    def test_membership_swap_identity(self):
        words = list(words_up_to(2, 3))
        for a in words:
            for b in words:
                for ti in range(2):
                    for td in range(2):
                        assert in_insdel_ball(a, b, ti, td) == in_insdel_ball(
                            b, a, td, ti
                        )


class TestUniqueVsList:
    """List size 1 of the region sweep is unique decoding within half the distance."""

    def test_two_deletion_code(self):
        report = check_bound_region(helberg(2, 5, 2, 0), 1)
        assert report.distance == 6
        assert report.ok
        assert report.checked == ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2))
        assert report.beats_unique_decoding is False

    def test_repetition_pair(self):
        # relative distance 1: outside the bound's domain at L >= 2, checked at L = 1
        two_words = Code(
            q=2, n=4, codewords=frozenset({word([0] * 4, 2), word([1] * 4, 2)})
        )
        report = check_bound_region(two_words, 1)
        assert report.delta == 1
        assert report.ok
        assert len(report.checked) == 10
        assert report.beats_unique_decoding is False

    def test_distance_two_checks_only_origin(self):
        report = check_bound_region(cube(3), 1)
        assert report.checked == ((0, 0),)
        assert report.ok

    def test_pairs_are_the_half_distance_splits(self):
        # d = 2n is relative distance 1, where only list size 1 is defined
        for n in range(1, 9):
            for d in range(2, 2 * n + 1):
                radius = (d - 1) // 2
                expected = [
                    (t_ins, t_del)
                    for t_del in range(radius + 1)
                    for t_ins in range(radius - t_del + 1)
                ]
                assert bound_region_pairs(n, Fraction(d, 2 * n), 1) == expected


class TestBoundRegion:
    def test_frozen_pairs_vt6_list2(self):
        pairs = bound_region_pairs(6, Fraction(1, 3), 2)
        assert pairs == [(0, 0), (1, 0), (0, 1)]

    def test_frozen_pairs_helberg_list3(self):
        pairs = bound_region_pairs(5, Fraction(3, 5), 3)
        assert pairs == [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (1, 1), (0, 2)]

    def test_region_check_vt6(self):
        report = check_bound_region(vt_binary(6, 0), 2)
        assert report.delta == Fraction(1, 3)
        assert report.ok
        assert not report.skipped
        assert report.checked == ((0, 0), (1, 0), (0, 1))
        assert not report.beats_unique_decoding  # 1/3 < 2/3

    def test_region_check_skips_pairs_over_cap(self):
        # size bounds for n=6, q=2: 1 at (0,0), 9 at (1,0), 7 at (0,1)
        report = check_bound_region(vt_binary(6, 0), 2, cap=8)
        assert report.ok
        assert report.checked == ((0, 0), (0, 1))
        assert report.skipped == ((1, 0),)

    def test_region_check_vt8_list3(self):
        report = check_bound_region(vt_binary(8, 0), 3)
        assert report.delta == Fraction(1, 4)
        assert report.ok
        assert report.checked == ((0, 0), (1, 0), (0, 1))

    def test_region_check_beats_unique(self):
        report = check_bound_region(helberg(2, 5, 2, 0), 3)
        assert report.ok
        assert report.beats_unique_decoding  # 3/5 > 2/4
        assert len(report.checked) == 7

    def test_violation_carries_its_witness(self, monkeypatch):
        # (1, 1) lies outside VT_0(6)'s region; inject it to reach the violation path
        monkeypatch.setattr(verify, "bound_region_pairs", lambda n, delta, L: [(1, 1)])
        report = check_bound_region(vt_binary(6, 0), 2)
        assert not report.ok
        assert report.checked == ((1, 1),) and not report.skipped
        (violation,) = report.violations
        assert violation == list_decodable(vt_binary(6, 0), 1, 1, 2, want_witness=True)
        assert violation.witness.received.to_text() == "0,0,0,0,1,0"

    def test_dp_violation_over_the_cap_has_no_witness(self, monkeypatch):
        # the DP decides (7, 0), but the witness census needs a ball over the cap
        monkeypatch.setattr(verify, "bound_region_pairs", lambda n, delta, L: [(7, 0)])
        report = check_bound_region(GREEDY, 2, cap=1000)
        assert report.checked == ((7, 0),) and not report.skipped
        assert report.violations == (Verdict(False, 7, 0, 2),)

    @pytest.mark.parametrize("list_size", [0, -3])
    def test_list_size_below_one_rejected(self, list_size, monkeypatch):
        def no_distance(code):
            raise AssertionError("a bad list size must be rejected first")

        monkeypatch.setattr(verify, "min_levenshtein_distance", no_distance)
        with pytest.raises(ValueError, match="list size must be at least 1"):
            check_bound_region(vt_binary(6, 0), list_size)

    def test_full_distance_rejected(self):
        two_words = Code(
            q=2, n=2, codewords=frozenset({word([0, 0], 2), word([1, 1], 2)})
        )
        with pytest.raises(ValueError):
            check_bound_region(two_words, 2)


class TestBallContainment:
    def test_holds_on_small_samples(self):
        samples = list(words_up_to(2, 3))
        radii = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)]
        assert check_ball_containment(samples, radii) == []

    def test_reports_a_ball_outside_the_levenshtein_ball(self, monkeypatch):
        real_ball = words._ball

        def wide_ball(symbols, t_ins, t_del, q):
            # one extra word, t_ins + t_del + 2 insertions away from the centre
            return real_ball(symbols, t_ins, t_del, q) | {
                symbols + (0,) * (t_ins + t_del + 2)
            }

        monkeypatch.setattr(words, "_ball", wide_ball)
        y = word([0, 1], 2)
        assert check_ball_containment([y], [(1, 0), (0, 1)]) == [(y, 1, 0), (y, 0, 1)]
