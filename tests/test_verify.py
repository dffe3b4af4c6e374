"""Brute-force decodability checks, the radius swap, and region harnesses."""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from insdel_lab import verify, words
from insdel_lab.acceptance import (
    ALL_CRITERIA,
    GREEDY_CODE,
    RANDOM_CODE_SEED,
    RS_ALPHA,
    _random_binary_code,
    criterion_direction_equivalence,
    run_criterion,
)
from insdel_lab.bounds import insertion_bound, unique_decoding_bound
from insdel_lab.codes import Code, PrimeField, helberg, rs_code, vt_binary, vt_qary
from insdel_lab.verify import (
    RegionReport,
    Verdict,
    Witness,
    bound_region_pairs,
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


def whole_ball(symbols: tuple[int, ...], t_ins: int, t_del: int, q: int) -> set:
    """Oracle: every channel output of `symbols` at once, by at most t_del
    deletions followed by rounds of single-symbol insertions."""
    n = len(symbols)
    out = {
        tuple(symbols[i] for i in keep)
        for dels in range(min(t_del, n) + 1)
        for keep in itertools.combinations(range(n), n - dels)
    }
    frontier = out
    for _ in range(t_ins):
        grown = set()
        for w in frontier:
            for i in range(len(w) + 1):
                for s in range(q):
                    grown.add(w[:i] + (s,) + w[i:])
        grown -= out
        out |= grown
        frontier = grown
    return out


def whole_ball_census(symbols, q, t_ins, t_del, list_size):
    """Oracle: tally every channel output of every codeword, at every length,
    then take the shortlex-smallest received word reached by more than
    list_size codewords; (offender, count), or None when there is none."""
    tally = {}
    for w in symbols:
        for y in whole_ball(w, t_ins, t_del, q):
            tally[y] = tally.get(y, 0) + 1
    offender = min(
        (key for key, count in tally.items() if count > list_size),
        key=lambda y: (len(y), y),
        default=None,
    )
    return None if offender is None else (offender, tally[offender])


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

    def test_witness_members_match_the_membership_predicate(self):
        # the members come from one LCS pass against the offender's match
        # masks; the Word-level predicate, radii swapped, must agree
        rng = random.Random(RANDOM_CODE_SEED)
        witnesses = 0
        for _ in range(200):
            q, n = rng.randint(2, 4), rng.randint(1, 6)
            size = rng.randint(2, min(10, q**n))
            chosen = rng.sample(sorted(itertools.product(range(q), repeat=n)), size)
            code = Code(q=q, n=n, codewords=frozenset(Word(w, q) for w in chosen))
            t_ins, t_del = rng.randint(0, 2), rng.randint(0, min(2, n))
            list_size = rng.randint(1, 3)
            verdict = list_decodable(code, t_ins, t_del, list_size, want_witness=True)
            if verdict.witness is None:
                continue
            witnesses += 1
            received = verdict.witness.received
            expected = tuple(
                c for c in code.sorted_words() if in_insdel_ball(c, received, t_del, t_ins)
            )
            assert verdict.witness.codewords == expected, (chosen, t_ins, t_del)
        assert witnesses >= 50

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

    @pytest.mark.parametrize(
        "radii, list_size, message",
        [
            # "more than 2.5" is "more than 2", which fails at (7, 0), but the
            # DP stops only at exactly list_size + 1 words, so it would pass
            ((7, 0), 2.5, "list size must be an int, got 2.5"),
            ((0, 0), True, "list size must be an int, got True"),
            ((1.0, 0), 2, "insertion radius must be an int, got 1.0"),
            ((0, True), 2, "deletion radius must be an int, got True"),
        ],
    )
    def test_list_size_and_radii_must_be_ints(self, radii, list_size, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            list_decodable(GREEDY, *radii, list_size)

    @pytest.mark.parametrize(
        "cap, message",
        [(2.5, "cap must be an int, got 2.5"), (-1, "cap must be nonnegative, got -1")],
    )
    def test_cap_must_be_a_nonnegative_int(self, cap, message):
        # a float or negative cap compares like any bound, so it would reach a verdict
        with pytest.raises(ValueError, match=f"^{message}$"):
            list_decodable(vt_binary(6, 0), 1, 0, 2, cap=cap)

    def test_cap_checked_before_enumerating(self):
        # VT_0(8) at (1, 1), L = 3: the size bound is 9 * 11 = 99, and the DP
        # gives up within its budget floor
        code = vt_binary(8, 0)
        for want_witness in (False, True):
            with pytest.raises(BallSizeError) as excinfo:
                list_decodable(code, 1, 1, 3, want_witness=want_witness, cap=98)
            assert excinfo.value.size == 99
            assert not excinfo.value.counted
        # a cap that holds every ball at once lets the enumerator decide
        assert list_decodable(code, 1, 1, 3, cap=99 * code.size).decodable is False

    def test_cap_bounds_the_tally(self):
        # RS(7,5,2) at (3, 0): each ball's estimate, 13,990, fits the cap, but
        # the full census counts 664,006 received words; the cap is checked
        # after each codeword's layer, and a layer is at most one ball
        code = rs_code(PrimeField(7), 5, 2, RS_ALPHA)
        symbols = [w.symbols for w in code.sorted_words()]
        with pytest.raises(BallSizeError) as excinfo:
            verify._witness_census(symbols, 7, 3, 0, code.size, 10**5)
        assert excinfo.value.counted
        assert 10**5 < excinfo.value.size <= 10**5 + 13_990
        assert str(excinfo.value).startswith(
            f"channel tally holds {excinfo.value.size} received words, over cap 100000"
        )

    def test_tally_over_the_cap(self):
        # VT_0(8) at (1, 1), L = 3: neither engine decides, so the tally's
        # raise propagates
        with pytest.raises(BallSizeError) as excinfo:
            list_decodable(vt_binary(8, 0), 1, 1, 3, want_witness=True, cap=99)
        assert excinfo.value.counted
        # VT_0(10) at (2, 0), L = 2: the DP decides, the cap is the ball
        # estimate, 92, and only the witness census outgrows it, so the
        # verdict stands bare
        verdict = list_decodable(vt_binary(10, 0), 2, 0, 2, want_witness=True, cap=92)
        assert verdict == Verdict(False, 2, 0, 2)

    def test_cap_counts_only_the_lengths_scanned(self):
        # VT_0(10) at (3, 0), L = 2: the witness lies at length 12 of 10-13;
        # lengths 10 and 11 count 94 + 1,128 received words, and the 8
        # layers length 12 builds bring that to 1,762 of the full census's
        # 13,038, so a cap of 1,762 is enough for the witness
        code = vt_binary(10, 0)
        full = list_decodable(code, 3, 0, 2, want_witness=True)
        assert len(full.witness.received) == 12
        assert list_decodable(code, 3, 0, 2, want_witness=True, cap=1762) == full
        bare = list_decodable(code, 3, 0, 2, want_witness=True, cap=1761)
        assert bare == Verdict(False, 3, 0, 2)

    def test_witnesses_of_long_censuses(self):
        # the offenders lie at the shortest lengths, so the census stops
        # long before the longest layers
        verdict = list_decodable(vt_binary(12, 0), 3, 1, 2, want_witness=True)
        assert verdict.witness.received.to_text() == "0,0,0,0,0,0,0,0,0,0,1,0"
        assert [c.to_text() for c in verdict.witness.codewords] == [
            "0,0,0,0,0,0,0,0,0,0,0,0",
            "0,1,0,0,0,0,0,0,0,0,1,0",
            "1,0,0,0,0,0,0,0,0,0,0,1",
        ]
        verdict = list_decodable(vt_binary(14, 0), 2, 2, 2, want_witness=True)
        assert verdict.witness.received.to_text() == ",".join("0" * 12)
        assert [c.to_text() for c in verdict.witness.codewords] == [
            "0,0,0,0,0,0,0,0,0,0,0,0,0,0",
            "0,0,0,0,0,0,1,1,0,0,0,0,0,0",
            "0,0,0,0,0,1,0,0,1,0,0,0,0,0",
            "0,0,0,0,1,0,0,0,0,1,0,0,0,0",
            "0,0,0,1,0,0,0,0,0,0,1,0,0,0",
            "0,0,1,0,0,0,0,0,0,0,0,1,0,0",
            "0,1,0,0,0,0,0,0,0,0,0,0,1,0",
            "1,0,0,0,0,0,0,0,0,0,0,0,0,1",
        ]

    def test_decodable_verdict_never_carries_witness(self):
        with pytest.raises(ValueError):
            Verdict(
                True,
                0,
                0,
                1,
                witness=Witness(word([0], 2), (word([0], 2),)),
            )

    def test_witness_lists_more_than_the_list_size(self):
        received, a, b = word([0, 1], 2), word([0], 2), word([1], 2)
        with pytest.raises(ValueError, match="^a witness must list more than 1 codewords, not 1$"):
            Verdict(False, 1, 0, 1, witness=Witness(received, (a,)))
        with pytest.raises(ValueError):
            Verdict(False, 1, 0, 2, witness=Witness(received, (a, b)))
        assert Verdict(False, 1, 0, 1, witness=Witness(received, (a, b))).witness


def census_cases():
    """Seeded random codes with radii and a list size for the census tests:
    (symbols, q, t_ins, t_del, list_size)."""
    rng = random.Random(RANDOM_CODE_SEED)
    for _ in range(400):
        q, n = rng.randint(2, 4), rng.randint(1, 6)
        size = rng.randint(2, min(8, q**n))
        symbols = rng.sample(sorted(itertools.product(range(q), repeat=n)), size)
        t_ins, t_del = rng.randint(0, 2), rng.randint(0, min(3, n))
        yield symbols, q, t_ins, t_del, rng.randint(1, 4)


def lcs_positions(a: tuple[int, ...], y: tuple[int, ...]) -> set[int]:
    """The positions of y used by one longest common subsequence with a, by
    traceback through the suffix LCS table."""
    table = [[0] * (len(y) + 1) for _ in range(len(a) + 1)]
    for i in reversed(range(len(a))):
        for j in reversed(range(len(y))):
            if a[i] == y[j]:
                table[i][j] = table[i + 1][j + 1] + 1
            else:
                table[i][j] = max(table[i + 1][j], table[i][j + 1])
    positions, i, j = set(), 0, 0
    while i < len(a) and j < len(y):
        if a[i] == y[j]:
            positions.add(j)
            i, j = i + 1, j + 1
        elif table[i + 1][j] == table[i][j]:
            i += 1
        else:
            j += 1
    return positions


class TestCensus:
    """The length-ordered census against the whole-ball oracle."""

    def test_matches_the_whole_ball_census(self):
        everything_deleted = 0
        for symbols, q, t_ins, t_del, list_size in census_cases():
            everything_deleted += t_del == len(symbols[0])
            args = (symbols, q, t_ins, t_del, list_size, 10**18)
            expected = whole_ball_census(symbols, q, t_ins, t_del, list_size)
            assert verify._witness_census(*args) == expected, args
            assert verify._verdict_census(*args) is (expected is not None), args
        assert everything_deleted >= 30  # the shortest layer is the empty word

    def test_witness_alignments_obey_the_degree_two_count(self):
        # on each census witness y, one LCS alignment A_i per listed codeword
        # c_i: A_i & A_j spells a common subsequence of c_i and c_j, and y
        # holds the union, so |y| >= sum |A_i| - sum |A_i & A_j|, the
        # inequality behind the sharing search's count
        larger = 0
        for symbols, q, t_ins, t_del, list_size in census_cases():
            found = verify._witness_census(symbols, q, t_ins, t_del, list_size, 10**18)
            if found is None:
                continue
            y, count = found
            n = len(symbols[0])
            listed = [c for c in symbols if words._lcs(c, y) >= max(n - t_del, len(y) - t_ins)]
            assert len(listed) == count
            aligned = [lcs_positions(c, y) for c in listed]
            assert [len(a) for a in aligned] == [words._lcs(c, y) for c in listed]
            overlaps = sigma = 0
            for (a, a_pos), (b, b_pos) in itertools.combinations(zip(listed, aligned), 2):
                ell = words._lcs(a, b)
                assert len(a_pos & b_pos) <= ell, (a, b, y)
                overlaps += len(a_pos & b_pos)
                sigma += ell
            assert len(y) >= sum(map(len, aligned)) - overlaps, (listed, y)
            assert verify._may_share(len(listed), sigma, n, t_ins, t_del)
            larger += len(listed) >= 3
        assert larger >= 150  # 162 of the 203 witnesses list three or more

    def test_verdict_census_stops_at_the_first_offending_codeword(self, monkeypatch):
        # VT_0(12) at (1, 1), L = 1: two codewords share an output iff
        # 12 - LCS <= 2, so the verdict census merges whole balls up to the
        # first codeword that shares one with an earlier codeword, and no
        # further
        symbols = [w.symbols for w in vt_binary(12, 0).sorted_words()]
        first = next(
            j
            for j, b in enumerate(symbols)
            if any(12 - words._lcs(a, b) <= 2 for a in symbols[:j])
        )
        balls = []
        real = verify._layer

        def spy(word, *args):
            if not balls or balls[-1] != word:
                balls.append(word)
            return real(word, *args)

        monkeypatch.setattr(verify, "_layer", spy)
        assert verify._verdict_census(symbols, 2, 1, 1, 1, 10**6) is True
        assert balls == symbols[: first + 1]
        assert first < 10 < len(symbols)

    def test_witness_census_stops_above_the_least_offender(self, monkeypatch):
        # VT_0(12) at (2, 1), L = 2: length 11 has no offender, so every
        # layer is built; at length 12 only the codewords whose least word
        # is not above the least offender are
        built = Counter()
        real = verify._layer

        def spy(word, m, *args):
            built[m] += 1
            return real(word, m, *args)

        monkeypatch.setattr(verify, "_layer", spy)
        verdict = list_decodable(vt_binary(12, 0), 2, 1, 2, want_witness=True)
        assert built == {11: 316, 12: 6}
        assert verdict.witness.received.to_text() == "0,0,0,0,0,0,0,0,0,0,1,0"
        assert [c.to_text() for c in verdict.witness.codewords] == [
            "0,0,0,0,0,0,0,0,0,0,0,0",
            "0,1,0,0,0,0,0,0,0,0,1,0",
            "1,0,0,0,0,0,0,0,0,0,0,1",
        ]

    def test_verdict_census_checks_the_cap_after_each_codeword(self):
        # VT_0(8) at (1, 1): each ball holds at most 9 * 11 = 99 words; with
        # a list size no output exceeds, only the cap stops the census
        symbols = [w.symbols for w in vt_binary(8, 0).sorted_words()]
        with pytest.raises(BallSizeError) as excinfo:
            verify._verdict_census(symbols, 2, 1, 1, len(symbols), 150)
        assert excinfo.value.counted
        assert 150 < excinfo.value.size <= 150 + 99
        assert verify._verdict_census(symbols, 2, 1, 1, len(symbols), 10**6) is False

    def test_layers_are_the_oracle_ball_by_length(self):
        rng = random.Random(RANDOM_CODE_SEED)
        for _ in range(300):
            q, n = rng.randint(2, 4), rng.randint(0, 6)
            symbols = tuple(rng.randrange(q) for _ in range(n))
            t_ins, t_del = rng.randint(0, 3), rng.randint(0, min(3, n))
            ball = whole_ball(symbols, t_ins, t_del, q)
            layers = list(words._checked_ball_layers(symbols, t_ins, t_del, q, 10**18))
            assert len(layers) == t_del + t_ins + 1
            for m, layer in enumerate(layers, start=n - t_del):
                assert layer == {y for y in ball if len(y) == m}, (symbols, m)


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
    """The sharing-set DP against the enumerator, and the choice between them."""

    def test_dp_matches_enumerator(self):
        rng = random.Random(RANDOM_CODE_SEED)
        for _ in range(300):
            q, n = rng.randint(2, 4), rng.randint(2, 5)
            size = rng.randint(2, min(10, q**n))
            symbols = rng.sample(sorted(itertools.product(range(q), repeat=n)), size)
            list_size = rng.randint(1, 5)
            # the unbudgeted DP's states grow like (t_del + 1)^(L+1)
            max_del = 3 if list_size <= 3 else 1
            t_ins, t_del = rng.randint(0, 3), rng.randint(0, min(max_del, n))
            enumerated = not verify._verdict_census(
                symbols, q, t_ins, t_del, list_size, 10**18
            )
            dp = verify._no_shared_output(symbols, t_ins, t_del, list_size, 10**18)
            assert dp == enumerated, (symbols, t_ins, t_del, list_size)

    def test_a_budget_cut_never_gives_a_wrong_verdict(self):
        # cut between sets or inside a DP call, the search returns None
        rng = random.Random(RANDOM_CODE_SEED)
        straddled = 0
        for _ in range(25):
            q, n = rng.randint(2, 3), rng.randint(3, 4)
            size = rng.randint(4, 8)
            symbols = rng.sample(sorted(itertools.product(range(q), repeat=n)), size)
            list_size, t_ins, t_del = rng.randint(2, 3), rng.randint(1, 2), rng.randint(0, 1)
            args = (symbols, t_ins, t_del, list_size)
            truth = verify._no_shared_output(*args, 10**18)
            join = math.comb(size, 2) * (n + 1)
            cut = {verify._no_shared_output(*args, join + b) for b in range(0, 300, 6)}
            assert cut <= {None, truth}, args
            straddled += cut == {None, truth}
        assert straddled >= 20  # most cases are cut short at some budget

    def test_sets_that_cannot_grow_are_not_decided(self, monkeypatch):
        # three pairwise confusable words and one confusable with none: no
        # four of them can share an output, so no set reaches the DP at L = 3
        real = verify._common_output
        asked = []

        def spy(subset, *args):
            asked.append(subset)
            return real(subset, *args)

        monkeypatch.setattr(verify, "_common_output", spy)
        triangle = [(0, 0, 0), (0, 0, 1), (0, 1, 1)]
        assert verify._no_shared_output(triangle + [(2, 2, 2)], 1, 1, 3, 10**18) is True
        assert asked == []
        # at list size 2 the triangle is asked, and shares 0,0,1
        assert verify._no_shared_output(triangle + [(2, 2, 2)], 1, 1, 2, 10**18) is False
        assert asked == [triangle]
        # 001, 010, 100 and 101 at (1, 0) are pairwise confusable, but the
        # first three share no output, so no set of four is ever asked
        asked.clear()
        square = [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 0, 1)]
        assert verify._no_shared_output(square, 1, 0, 3, 10**18) is True
        assert asked and all(len(subset) == 3 for subset in asked)

    def test_pairs_share_an_output_iff_lcs_is_long_enough(self):
        # the search joins pairs by its count at s = 2, n - LCS <= t_ins +
        # t_del, instead of the DP
        rng = random.Random(RANDOM_CODE_SEED)
        for _ in range(300):
            q, n = rng.randint(2, 4), rng.randint(1, 5)
            a, b = (tuple(rng.randrange(q) for _ in range(n)) for _ in range(2))
            t_ins, t_del = rng.randint(0, 3), rng.randint(0, n)
            ell = words._lcs(a, b)
            joined = n - ell <= t_ins + t_del
            assert verify._may_share(2, ell, n, t_ins, t_del) is joined
            assert words._common_output([a, b], t_ins, t_del, 10**18)[0] is joined

    def test_sets_the_count_refutes_share_no_output(self):
        # the count is sound: every set of three or more it refutes is
        # refuted by the unbudgeted DP and by the whole-ball census too
        rng = random.Random(RANDOM_CODE_SEED)
        refuted = 0
        for _ in range(2000):
            q, n, s = rng.randint(2, 5), rng.randint(2, 6), rng.randint(3, 5)
            subset = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(s)]
            t_ins, t_del = rng.randint(0, 2), rng.randint(0, min(2, n))
            sigma = sum(words._lcs(a, b) for a, b in itertools.combinations(subset, 2))
            if verify._may_share(s, sigma, n, t_ins, t_del):
                continue
            refuted += 1
            assert words._common_output(subset, t_ins, t_del, 10**18)[0] is False, subset
            assert whole_ball_census(subset, q, t_ins, t_del, s - 1) is None, subset
        assert refuted >= 200  # 295 of the 2,000 sets fail the count

    def test_the_count_settles_the_greedy_region(self, monkeypatch):
        # every set of three that criterion 8's greedy code grows in its
        # L = 2 region fails the count, so the DP never runs (without the
        # count it ran 8 times), and the report is the one the DP gave
        asked = []
        real = verify._common_output

        def spy(*args):
            asked.append(args)
            return real(*args)

        monkeypatch.setattr(verify, "_common_output", spy)
        report = check_bound_region(GREEDY_CODE, 2)
        assert asked == []
        assert report == RegionReport(
            n=5,
            distance=8,
            delta=Fraction(4, 5),
            list_size=2,
            checked=(
                (0, 0), (1, 0), (2, 0), (3, 0), (4, 0),
                (0, 1), (1, 1), (2, 1), (3, 1),
                (0, 2), (1, 2),
                (0, 3),
            ),
            violations=(),
            skipped=(),
            beats_unique_decoding=True,
        )

    def test_routing(self, monkeypatch):
        tallies = []
        for name in ("_verdict_census", "_witness_census"):
            real = getattr(verify, name)

            def spy(*args, real=real):
                tallies.append(args)
                return real(*args)

            monkeypatch.setattr(verify, name, spy)
        assert list_decodable(GREEDY, 4, 0, 2).decodable
        assert not tallies  # the DP decided
        assert not list_decodable(vt_binary(8, 0), 1, 1, 3).decodable
        assert len(tallies) == 1
        assert not list_decodable(vt_binary(10, 0), 1, 1, 3).decodable
        assert len(tallies) == 2
        # sets that share an output are found without a tally
        assert not list_decodable(vt_binary(10, 0), 2, 1, 2).decodable
        assert not list_decodable(vt_binary(8, 0), 2, 1, 3).decodable
        assert len(tallies) == 2

    def test_dp_decides_past_the_cap(self):
        # from t_ins = 3 on, one ball (4456 words at t_ins = 3) is over the cap
        for t_ins in range(7):
            assert list_decodable(GREEDY, t_ins, 0, 2, cap=1000).decodable
        assert list_decodable(GREEDY, 7, 0, 2, cap=1000) == Verdict(False, 7, 0, 2)
        # a witness needs the enumerator, and its ball is over the cap: the
        # DP's verdict stands without one
        verdict = list_decodable(GREEDY, 7, 0, 2, want_witness=True, cap=1000)
        assert verdict == Verdict(False, 7, 0, 2)

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

    @pytest.mark.parametrize(
        "texts, q, radii",
        [
            (("121201", "110122", "102122", "100021"), 3, (2, 1, 3)),
            (("64615", "26206", "20655", "05003"), 7, (2, 2, 3)),
        ],
    )
    def test_dp_keeps_states_reached_by_deletion(self, texts, q, radii):
        # all four codewords share an output, which the DP finds only if a
        # state an emission enters at |y| + 1 is kept at |y| when a deletion
        # of layer |y| reaches it later
        symbols = sorted(tuple(map(int, text)) for text in texts)
        code = Code(q=q, n=len(texts[0]), codewords=frozenset(Word(s, q) for s in symbols))
        offender, count = whole_ball_census(symbols, q, *radii)
        verdict = list_decodable(code, *radii, want_witness=True)
        assert not verdict.decodable
        assert verdict.witness.received == Word(offender, q)
        assert len(verdict.witness.codewords) == count == 4

    def test_dp_and_census_disagreeing_is_caught(self, monkeypatch):
        # VT_0(6) is uniquely decodable at (0, 0), so a DP claiming that
        # three codewords share an output contradicts the census
        code = vt_binary(6, 0)
        assert list_decodable(code, 0, 0, 2, want_witness=True).decodable
        monkeypatch.setattr(verify, "_no_shared_output", lambda *args: False)
        with pytest.raises(AssertionError, match="^sharing-set DP and channel census disagree$"):
            list_decodable(code, 0, 0, 2, want_witness=True)

    def test_tally_and_decoder_ball_disagreeing_is_caught(self, monkeypatch):
        # the cube's first witness, 0001, reaches two codewords; a tally that
        # counts three contradicts the decoder-ball view
        code = Code(q=2, n=3, codewords=frozenset(words.all_words(2, 3)))
        real = verify._witness_census

        def overcounted(*args):
            offender, count = real(*args)
            return offender, count + 1

        monkeypatch.setattr(verify, "_witness_census", overcounted)
        message = "^channel tally and decoder-ball membership disagree; the radius swap is broken$"
        with pytest.raises(AssertionError, match=message):
            list_decodable(code, 1, 0, 1, want_witness=True)


class TestRadiusSwap:
    def test_equivalence_on_samples(self):
        for symbols in [(0, 1, 0), (1, 1, 1), (0, 0, 1, 1)]:
            w = word(list(symbols), 2)
            for t_ins in range(3):
                for t_del in range(min(2, len(w)) + 1):
                    assert decoder_ball_matches_channel(w, t_ins, t_del)

    def test_equivalence_over_three_symbols(self):
        for w in words_up_to(3, 3):
            for t_ins in range(3):
                for t_del in range(min(2, len(w)) + 1):
                    assert decoder_ball_matches_channel(w, t_ins, t_del)

    @pytest.mark.parametrize("fault", [None, (1, 1), (2, 0)], ids=["sound", "at-1-1", "at-2-0"])
    def test_every_pair_up_to_the_radii_is_checked(self, monkeypatch, fault):
        # the check at (T, D) is the conjunction of a per-pair oracle over
        # every pair <= (T, D): insdel_ball against the words whose LCS with
        # the centre, by the quadratic DP, reaches max(n - t_del, |y| - t_ins).
        # A fault drops the centre from the channel side at one pair only.
        real = verify._checked_ball_layers

        def layers(symbols, t_ins, t_del, q, cap):
            out = [set(layer) for layer in real(symbols, t_ins, t_del, q, cap)]
            if (t_ins, t_del) == fault:
                out[t_del].discard(symbols)  # the length-n layer
            return out

        def agrees(w, t_ins, t_del):
            x, n = w.symbols, len(w)
            channel = {y.symbols for y in insdel_ball(w, t_ins, t_del)}
            if (t_ins, t_del) == fault:
                channel.discard(x)
            decoder = {
                y
                for m in range(n - t_del, n + t_ins + 1)
                for y in itertools.product(range(w.q), repeat=m)
                if len(lcs_positions(x, y)) >= max(n - t_del, m - t_ins)
            }
            return channel == decoder

        monkeypatch.setattr(verify, "_checked_ball_layers", layers)
        failures = 0
        for w in words_up_to(3, 3):
            top = min(2, len(w))
            oracle = {(ti, td): agrees(w, ti, td) for ti in range(3) for td in range(top + 1)}
            for big_t, big_d in oracle:
                expected = all(ok for (ti, td), ok in oracle.items() if ti <= big_t and td <= big_d)
                assert decoder_ball_matches_channel(w, big_t, big_d) == expected, (w, big_t, big_d)
                failures += not expected
        # a fault fails every pair at or above it: 150 and 115 of the 345 checks
        assert failures == {None: 0, (1, 1): 150, (2, 0): 115}[fault]

    def test_a_broken_channel_is_caught(self, monkeypatch):
        # the two views are computed independently: drop one channel output,
        # or add one, and the check fails
        real = verify._checked_ball_layers
        centre = word([0, 1, 1, 0], 2)

        def short(*args):
            layers = [set(layer) for layer in real(*args)]
            layers[-1].pop()
            return layers

        def padded(*args):
            layers = [set(layer) for layer in real(*args)]
            layers[0].add((1,) * len(next(iter(layers[0]))))
            return layers

        assert decoder_ball_matches_channel(centre, 1, 1)
        monkeypatch.setattr(verify, "_checked_ball_layers", short)
        assert not decoder_ball_matches_channel(centre, 1, 1)
        monkeypatch.setattr(verify, "_checked_ball_layers", padded)
        assert not decoder_ball_matches_channel(centre, 1, 1)

    def test_a_widened_ball_is_caught(self, monkeypatch):
        # a ball with one layer t_ins + t_del + 2 insertions out leaves the
        # Levenshtein ball of radius t_ins + t_del; the radius swap catches it,
        # so that containment needs no check of its own
        real_layers = verify._checked_ball_layers

        def wide_layers(symbols, t_ins, t_del, q, cap):
            yield from real_layers(symbols, t_ins, t_del, q, cap)
            yield {symbols + (0,) * (t_ins + t_del + 2)}

        monkeypatch.setattr(verify, "_checked_ball_layers", wide_layers)
        for t_ins, t_del in [(1, 0), (0, 1)]:
            assert not decoder_ball_matches_channel(word([0, 1], 2), t_ins, t_del)
        number = 1 + [check for _, check in ALL_CRITERIA].index(
            criterion_direction_equivalence
        )
        result = run_criterion(number)
        assert not result.ok
        assert result.detail == "mismatch at centre=empty, t_ins=0, t_del=0"

    def test_radii_are_checked(self):
        centre = word([0, 1], 2)
        with pytest.raises(ValueError, match="^radii must be nonnegative$"):
            decoder_ball_matches_channel(centre, -1, 0)
        with pytest.raises(ValueError, match="^deletion radius 3 exceeds word length 2$"):
            decoder_ball_matches_channel(centre, 0, 3)

    def test_the_decoder_window_is_capped(self, monkeypatch):
        # lengths 6 and 7 hold 2^6 + 2^7 = 192 words, over the cap, though
        # the channel ball's estimate (9) is under it
        monkeypatch.setattr(verify, "DEFAULT_BALL_CAP", 100)
        with pytest.raises(BallSizeError) as excinfo:
            decoder_ball_matches_channel(word([0, 1] * 3, 2), 1, 0)
        assert (excinfo.value.size, excinfo.value.cap) == (192, 100)
        assert not excinfo.value.counted

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


def _looped_region_pairs(n, delta, list_size):
    """bound_region_pairs counting each row up one t_ins at a time.

    t_ins / n < limit is compared as t_ins * den < num * n, exact because n
    and den are positive, and far cheaper than a Fraction per step.  Row 0
    is always evaluated, so the bound functions refuse a delta <= 0.
    """
    pairs = []
    for t_del in range(n):
        tau = Fraction(t_del, n)
        if t_del and tau >= delta:
            break
        if list_size == 1:
            limit = unique_decoding_bound(delta, tau)
        else:
            limit = insertion_bound(delta, list_size, 1 - tau)
        num, den = limit.numerator, limit.denominator
        t_ins = 0
        while t_ins * den < num * n:
            pairs.append((t_ins, t_del))
            t_ins += 1
    return pairs


def _outcome(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


class TestBoundRegion:
    def test_rows_match_the_counting_loop(self):
        # a set: dn/dd and its multiples are one delta
        cases = {
            (n, Fraction(dn, dd), list_size)
            for n in range(1, 25)
            for dd in range(1, 2 * n + 3)
            for dn in range(-1, dd + 2)
            for list_size in (0, 1, 2, 3, 5)
        }
        rng = random.Random(0)
        for _ in range(900):
            n = rng.choice((40, 64, 100))
            dd = rng.randint(1, 2 * n + 2)
            delta = Fraction(rng.randint(-1, dd + 1), dd)
            cases.add((n, delta, rng.choice((0, 1, 2, 3, 5))))
        for case in cases:
            assert _outcome(bound_region_pairs, *case) == _outcome(_looped_region_pairs, *case)

    @pytest.mark.parametrize(
        "n, delta, exact, list_size",
        [
            (6, 0.5, Fraction(1, 2), 2),
            (10, 0.1, Fraction(1, 10), 1),
            (6, "1/2", Fraction(1, 2), 3),
        ],
    )
    def test_delta_is_read_as_a_fraction(self, n, delta, exact, list_size):
        # floats go through their decimal repr, as in every bound function
        assert bound_region_pairs(n, delta, list_size) == bound_region_pairs(n, exact, list_size)

    def test_unreadable_delta_is_rejected(self):
        with pytest.raises(ValueError):
            bound_region_pairs(6, "abc", 2)

    def test_block_length_and_list_size_must_be_ints(self):
        # True would pass as list size 1, and 6.0 would fail later, in range
        with pytest.raises(ValueError, match="^list size must be an int, got True$"):
            bound_region_pairs(6, Fraction(1, 2), True)
        with pytest.raises(ValueError, match="^block length must be an int, got 6.0$"):
            bound_region_pairs(6.0, Fraction(1, 2), 2)
        unique = [(t_ins, t_del) for t_del in range(3) for t_ins in range(3 - t_del)]
        assert bound_region_pairs(6, Fraction(1, 2), 1) == unique

    def test_delta_and_block_length_out_of_range_are_refused(self):
        # out-of-range input is refused, not answered with no pairs
        with pytest.raises(ValueError, match="^relative distance must satisfy 0 < delta < 1"):
            bound_region_pairs(5, Fraction(-1, 2), 2)
        with pytest.raises(ValueError, match="^relative distance must satisfy 0 < delta <= 1"):
            bound_region_pairs(5, 0, 1)
        with pytest.raises(ValueError, match="^block length must be positive, got 0$"):
            bound_region_pairs(0, Fraction(1, 2), 2)

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

    @pytest.mark.parametrize("cap", [True, 2.5, -1])
    def test_region_check_cap_must_be_a_nonnegative_int(self, monkeypatch, cap):
        # refused before the distance is computed
        monkeypatch.setattr(verify, "min_levenshtein_distance", None)
        with pytest.raises(ValueError, match="^cap must be (an int|nonnegative), got "):
            check_bound_region(vt_binary(6, 0), 2, cap=cap)

    def test_region_check_skips_pairs_over_cap(self):
        # size bounds for n=8, q=2: 1 at (0,0), 11 at (1,0), 9 at (0,1) and
        # 67 at (2,0), where the DP gives up and the cap refuses the ball
        report = check_bound_region(vt_binary(8, 0), 8, cap=8)
        assert report.ok
        assert report.checked == ((0, 0), (1, 0), (0, 1))
        assert report.skipped == ((2, 0),)

    def test_region_check_asks_one_verdict_per_pair(self, monkeypatch):
        real = verify.list_decodable
        asked = []

        def spy(code, t_ins, t_del, list_size, **kwargs):
            asked.append(((t_ins, t_del), kwargs))
            return real(code, t_ins, t_del, list_size, **kwargs)

        monkeypatch.setattr(verify, "list_decodable", spy)
        # the sweep checks some pairs and skips one
        report = check_bound_region(vt_binary(8, 0), 8, cap=8)
        assert report.checked and report.skipped
        pairs = bound_region_pairs(8, report.delta, 8)
        assert asked == [(pair, {"want_witness": True, "cap": 8}) for pair in pairs]

    @pytest.mark.parametrize("cap", [0, 8, 100])
    @pytest.mark.parametrize(
        "code, list_size",
        [(vt_binary(8, 0), 8), (vt_qary(5, 3, 0, 0), 5)],
        ids=["vt8-L8", "vtq5-L5"],
    )
    def test_skipped_exactly_when_the_verdict_raises(self, code, list_size, cap):
        report = check_bound_region(code, list_size, cap=cap)
        for pair in bound_region_pairs(code.n, report.delta, list_size):
            try:
                list_decodable(code, *pair, list_size, want_witness=True, cap=cap)
                raised = False
            except BallSizeError:
                raised = True
            assert (pair in report.skipped) == raised
            assert (pair in report.checked) != raised

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

    @pytest.mark.parametrize("list_size", [True, 2.5])
    def test_list_size_must_be_an_int(self, list_size, monkeypatch):
        def no_distance(code):
            raise AssertionError("a bad list size must be rejected first")

        monkeypatch.setattr(verify, "min_levenshtein_distance", no_distance)
        with pytest.raises(ValueError, match=f"^list size must be an int, got {list_size}$"):
            check_bound_region(vt_binary(6, 0), list_size)

    def test_full_distance_rejected(self):
        two_words = Code(
            q=2, n=2, codewords=frozenset({word([0, 0], 2), word([1, 1], 2)})
        )
        with pytest.raises(ValueError):
            check_bound_region(two_words, 2)
