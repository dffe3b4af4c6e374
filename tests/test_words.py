"""Word metrics and ball enumeration, checked against brute-force oracles."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from insdel_lab import words as words_module
from insdel_lab.codes import (
    PrimeField,
    helberg,
    helberg_weights,
    rs_code,
    vt_binary,
    vt_qary,
)
from insdel_lab.words import (
    AlphabetMismatchError,
    BallSizeError,
    Word,
    _checked_ball_layers,
    _common_output,
    _layer,
    _least_output,
    _min_distance,
    all_words,
    in_insdel_ball,
    insdel_ball,
    insdel_ball_size_bound,
    insertion_ball_size,
    lcs_length,
    levenshtein_distance,
    word,
    words_up_to,
)


def subsequence_set(symbols: tuple[int, ...]) -> set[tuple[int, ...]]:
    """Oracle: every subsequence, by explicit position-subset enumeration."""
    out = set()
    for count in range(len(symbols) + 1):
        for keep in itertools.combinations(range(len(symbols)), count):
            out.add(tuple(symbols[i] for i in keep))
    return out


def brute_lcs(a: Word, b: Word) -> int:
    """Oracle: longest common subsequence via full subsequence-set intersection."""
    common = subsequence_set(a.symbols) & subsequence_set(b.symbols)
    return max(len(s) for s in common)


def dp_lcs(s: tuple[int, ...], t: tuple[int, ...]) -> int:
    """Oracle: longest common subsequence by the quadratic DP."""
    prev = [0] * (len(t) + 1)
    for x in s:
        curr = [0]
        for j, y in enumerate(t, start=1):
            curr.append(prev[j - 1] + 1 if x == y else max(prev[j], curr[-1]))
        prev = curr
    return prev[-1]


def dp_min_distance(words: list[tuple[int, ...]], stop_at: int = 0) -> int:
    """Oracle: a pairwise scan with the DP for each pair.

    Returns the first running minimum within stop_at, which is the minimum
    whenever no pair can be closer than stop_at; the default scans every pair
    of distinct words.
    """
    best = None
    for i, a in enumerate(words):
        for b in words[i + 1 :]:
            d = len(a) + len(b) - 2 * dp_lcs(a, b)
            if best is None or d < best:
                best = d
                if best <= stop_at:
                    return best
    return best


def random_tuple(rng: random.Random, q: int, length: int) -> tuple[int, ...]:
    return tuple(rng.randrange(q) for _ in range(length))


class TestLcsAndDistance:
    def test_frozen_example(self):
        a, b = word([1, 0, 0, 1], 2), word([0, 1, 1, 0], 2)
        assert brute_lcs(a, b) == 2
        assert lcs_length(a, b) == 2
        assert levenshtein_distance(a, b) == 4

    def test_dp_matches_brute_force_exhaustively(self):
        vocabulary = list(words_up_to(2, 3))
        for a in vocabulary:
            for b in vocabulary:
                assert lcs_length(a, b) == brute_lcs(a, b)

    def test_matches_dp_oracle_on_random_pairs(self):
        # lengths straddle the 64-bit boundary; equal and unequal lengths
        rng = random.Random(20220)
        lengths = [0, 1, 2, 7, 31, 63, 64, 65, 100, 127, 128, 129, 130]
        for q in range(2, 8):
            for _ in range(12):
                la = rng.choice(lengths)
                lb = la if rng.random() < 0.5 else rng.choice(lengths)
                a = word(random_tuple(rng, q, la), q)
                b = word(random_tuple(rng, q, lb), q)
                expected = dp_lcs(a.symbols, b.symbols)
                assert lcs_length(a, b) == expected
                assert lcs_length(b, a) == expected

    def test_min_distance_matches_dp_oracle(self):
        # distinct words of one length; unequal-length LCS is covered by
        # test_matches_dp_oracle_on_random_pairs
        rng = random.Random(4)
        for q in range(2, 8):
            for _ in range(4):
                n = rng.randint(1, 70)
                words = list(
                    dict.fromkeys(random_tuple(rng, q, n) for _ in range(rng.randint(2, 6)))
                )
                true_min = min(
                    len(a) + len(b) - 2 * dp_lcs(a, b)
                    for a, b in itertools.combinations(words, 2)
                )
                assert _min_distance(words) == true_min

    def test_empty_word_cases(self):
        empty = word([], 2)
        assert lcs_length(empty, empty) == 0
        assert levenshtein_distance(empty, word([1, 0], 2)) == 2

    def test_metric_axioms_exhaustive(self):
        vocabulary = list(words_up_to(2, 4))
        table = {
            (a.symbols, b.symbols): levenshtein_distance(a, b)
            for a in vocabulary
            for b in vocabulary
        }
        for a in vocabulary:
            for b in vocabulary:
                d = table[(a.symbols, b.symbols)]
                assert d == table[(b.symbols, a.symbols)]
                assert (d == 0) == (a == b)
        keys = [w.symbols for w in vocabulary]
        for a in keys:
            for b in keys:
                ab = table[(a, b)]
                for c in keys:
                    assert ab <= table[(a, c)] + table[(c, b)]

    @given(
        st.integers(min_value=2, max_value=3).flatmap(
            lambda q: st.tuples(
                st.just(q),
                st.lists(st.integers(0, q - 1), max_size=6),
                st.lists(st.integers(0, q - 1), max_size=6),
            )
        )
    )
    def test_length_bounds_and_parity(self, data):
        q, xs, ys = data
        a, b = word(xs, q), word(ys, q)
        d = levenshtein_distance(a, b)
        assert abs(len(a) - len(b)) <= d <= len(a) + len(b)
        if len(a) == len(b):
            assert d % 2 == 0

    def test_alphabet_mismatch_rejected(self):
        with pytest.raises(AlphabetMismatchError):
            lcs_length(word([0], 2), word([0], 3))


def plant_pair(rng: random.Random, x: tuple[int, ...], q: int, edits: int) -> tuple[int, ...]:
    """A word of len(x) that `edits` deletions and insertions make from x."""
    y = list(x)
    for _ in range(edits):
        del y[rng.randrange(len(y))]
        y.insert(rng.randrange(len(y) + 1), rng.randrange(q))
    return tuple(y)


def greedy_code(rng: random.Random, q: int, n: int, size: int, floor: int) -> list[tuple[int, ...]]:
    """`size` distinct random q-ary words of length n, pairwise at least `floor` apart."""
    words: list[tuple[int, ...]] = []
    while len(words) < size:
        w = random_tuple(rng, q, n)
        if all(2 * (n - dp_lcs(w, v)) >= floor for v in words):
            words.append(w)
    return words


def spy_pair_scan(monkeypatch) -> list[int]:
    """Record the stop value of each handover from the levels to the pair scan."""
    stops: list[int] = []
    scan = words_module._pair_scan

    def spy(words, stop_at):
        stops.append(stop_at)
        return scan(words, stop_at)

    monkeypatch.setattr(words_module, "_pair_scan", spy)
    return stops


class TestMinDistanceLevels:
    """The shared-subsequence levels of _min_distance against the DP oracle."""

    def test_random_equal_length_codes(self):
        # greedy codes with pairwise distance >= 2, 4 or 6, so that levels
        # past the first decide some of them
        rng = random.Random(13)
        for q in range(2, 7):
            for _ in range(12):
                n, size = rng.randint(1, 10), rng.randint(2, 60)
                floor = rng.choice([2, 4, 6])
                words: list[tuple[int, ...]] = []
                for _ in range(2 * size):
                    w = random_tuple(rng, q, n)
                    if all(2 * (n - dp_lcs(w, v)) >= floor for v in words):
                        words.append(w)
                        if len(words) == size:
                            break
                if rng.random() < 0.5:
                    words.append(plant_pair(rng, words[0], q, rng.choice([1, 2])))
                    words = list(dict.fromkeys(words))
                    rng.shuffle(words)
                if len(words) >= 2:
                    assert _min_distance(words) == dp_min_distance(words)

    def test_code_families(self):
        # Each family's proven floor (4 for single-deletion VT codes, 6 for
        # Helberg codes with s = 2) lets the oracle stop at the first pair
        # there; VT_a(12) holds ~300 words, too many for a full DP scan.
        families = [(vt_binary(n, a), 4) for n in range(1, 13) for a in range(n + 1)]
        for n in range(1, 7):
            for a in range(n):
                for b in range(3):
                    try:
                        families.append((vt_qary(n, 3, a, b), 4))
                    except ValueError:
                        pass  # empty residue class
        for n in range(1, 9):
            for a in range(helberg_weights(2, 2, n + 1)[n]):
                try:
                    families.append((helberg(2, n, 2, a), 6))
                except ValueError:
                    pass  # empty residue class
        checked = 0
        for code, floor in families:
            if code.size < 2:
                continue
            words = [w.symbols for w in code.sorted_words()]
            assert _min_distance(words) == dp_min_distance(words, floor)
            checked += 1
        assert checked > 100

    def test_reed_solomon_codes(self):
        # the evaluation-point search's codes: 49 words of length 5 at
        # distance 2 or 4, decided inside level 1 or 2
        rng = random.Random(16)
        field = PrimeField(7)
        for _ in range(50):
            alpha = tuple(rng.sample(range(7), 5))
            words = [w.symbols for w in rs_code(field, 5, 2, alpha).sorted_words()]
            assert _min_distance(words) == dp_min_distance(words)

    @pytest.mark.parametrize("level", [1, 2, 3])
    def test_levels_decide_without_the_pair_scan(self, monkeypatch, level):
        # 60 7-ary words of length 8, pairwise at least 2 * level apart, and
        # one more planted at exactly 2 * level from the first, next to it.
        # The budget is 1830 * (8 + 12) // 6 = 6100 subsequences; levels 1
        # and 2 build at most 61 * 8 + 61 * 8 * 7 = 3904, and the planted
        # pair's level-3 subsequences are among the first 2 * 28 * 6 built.
        rng = random.Random(level)
        words = greedy_code(rng, 7, 8, 60, 2 * level)
        while True:
            planted = plant_pair(rng, words[0], 7, level)
            if dp_lcs(planted, words[0]) == 8 - level and all(
                2 * (8 - dp_lcs(planted, w)) >= 2 * level for w in words[1:]
            ):
                break
        words.insert(1, planted)
        stops = spy_pair_scan(monkeypatch)
        assert _min_distance(words) == 2 * level == dp_min_distance(words)
        assert stops == []

    def test_guard_trips_inside_level_three(self, monkeypatch):
        # 60 7-ary words of length 8, pairwise at least 8 apart: the budget is
        # 1770 * (8 + 12) // 6 = 5900.  Level 1 builds 60 * 8 = 480 and level
        # 2 builds 7 per distinct single deletion, so both run in full; level
        # 3 would build 6 per distinct double deletion, more than is left, so
        # the pair scan takes over at stop value 6.
        rng = random.Random(8)
        words = greedy_code(rng, 7, 8, 60, 8)
        singles = {d for w in words for d in itertools.combinations(w, 7)}
        doubles = {d for w in words for d in itertools.combinations(w, 6)}
        assert 480 + 7 * len(singles) <= 5900 < 480 + 7 * len(singles) + 6 * len(doubles)
        stops = spy_pair_scan(monkeypatch)
        assert _min_distance(words) == dp_min_distance(words) == 8
        assert stops == [6]

    def test_guard_hands_long_words_to_the_pair_scan(self, monkeypatch):
        # unguarded, the levels of three length-48 words would hold C(48, s)
        # subsequences each
        rng = random.Random(48)
        words = [random_tuple(rng, 4, 48) for _ in range(3)]
        stops = spy_pair_scan(monkeypatch)
        assert _min_distance(words) == dp_min_distance(words)
        assert stops == [2]

    def test_guard_trips_partway_through_a_level(self, monkeypatch):
        # 25 4-ary words of length 12, a pair planted at distance 4 and none
        # at 2: the budget is 300 * (12 + 12) // 6 = 1200
        rng = random.Random(7)
        while True:
            words = [random_tuple(rng, 4, 12) for _ in range(24)]
            words.append(plant_pair(rng, words[0], 4, 2))
            if dp_min_distance(words) == 4:
                break
        # A word's distinct single deletions number its runs.  Level 1
        # builds 25 * 12 = 300 subsequences and level 2 builds 11 per run, in
        # word order; the budget runs out before the planted word's turn, so
        # a handover at stop value 4 comes from inside level 2.
        runs = [1 + sum(a != b for a, b in zip(w, w[1:])) for w in words]
        assert 300 + 11 * runs[0] <= 1200 < 300 + 11 * sum(runs[:-1])
        stops = spy_pair_scan(monkeypatch)
        assert _min_distance(words) == 4
        assert stops == [4]


class TestInsdelBall:
    def test_frozen_single_zero_examples(self):
        centre = word([0], 2)
        assert {w.symbols for w in insdel_ball(centre, 1, 0)} == {
            (0,),
            (0, 0),
            (0, 1),
            (1, 0),
        }
        assert {w.symbols for w in insdel_ball(centre, 0, 1)} == {(0,), ()}
        assert insdel_ball(centre, 0, 0) == {centre}

    def test_matches_membership_predicate(self):
        for centre in words_up_to(2, 3):
            for t_ins in range(3):
                for t_del in range(min(2, len(centre)) + 1):
                    ball = insdel_ball(centre, t_ins, t_del)
                    window = [
                        y
                        for length in range(len(centre) + t_ins + 1)
                        for y in all_words(2, length)
                    ]
                    predicate = {
                        y for y in window if in_insdel_ball(y, centre, t_ins, t_del)
                    }
                    assert ball == predicate

    def test_insertion_ball_size_center_independent(self):
        for q in (2, 3):
            for length in range(6):
                for t_ins in (1, 2):
                    if q == 3 and length == 5 and t_ins == 2:
                        continue  # keep runtime small; covered at t_ins = 1
                    expected = insertion_ball_size(length, t_ins, q)
                    sizes = {
                        len(insdel_ball(centre, t_ins, 0))
                        for centre in all_words(q, length)
                    }
                    assert sizes == {expected}

    def test_insertion_ball_size_arguments_must_be_ints(self):
        # a float would fail later, in range, and True would count as radius 1
        cases = [
            ((3, 1.0, 2), "^insertion radius must be an int, got 1.0$"),
            ((3, True, 2), "^insertion radius must be an int, got True$"),
            ((3.0, 1, 2), "^word length must be an int, got 3.0$"),
            ((3, 1, 2.0), "^alphabet size must be an int, got 2.0$"),
        ]
        for args, message in cases:
            with pytest.raises(ValueError, match=message):
                insertion_ball_size(*args)
        with pytest.raises(ValueError, match="^need length >= 0, t_ins >= 0, q >= 2$"):
            insertion_ball_size(3, -1, 2)

    def test_deletion_ball_depends_on_center(self):
        # unlike insertion balls, deletion balls vary with the centre's runs
        runs = word([0, 0, 0, 0, 0], 2)
        alternating = word([0, 1, 0, 1, 0], 2)
        one_shorter = lambda ball: {w for w in ball if len(w) == 4}
        assert len(one_shorter(insdel_ball(runs, 0, 1))) == 1
        assert len(one_shorter(insdel_ball(alternating, 0, 1))) == 5

    def test_deletion_radius_larger_than_word_rejected(self):
        with pytest.raises(ValueError):
            insdel_ball(word([0], 2), 0, 2)

    def test_radii_must_be_ints(self):
        # a float radius used to reach range() and raise TypeError there
        with pytest.raises(ValueError, match="^insertion radius must be an int, got 1.0$"):
            insdel_ball(word([0, 1], 2), 1.0, 0)
        with pytest.raises(ValueError, match="^deletion radius must be an int, got True$"):
            insdel_ball(word([0, 1], 2), 0, True)

    @pytest.mark.parametrize(
        "radii, message",
        [
            ((0, -1), "radii must be nonnegative"),
            ((-1, 0), "radii must be nonnegative"),
            ((0.5, 1.5), "insertion radius must be an int, got 0.5"),
            ((True, True), "insertion radius must be an int, got True"),
            ((1, 1.0), "deletion radius must be an int, got 1.0"),
        ],
    )
    def test_membership_radii_must_be_nonnegative_ints(self, radii, message):
        # the membership test compared any radius with its LCS counts: (0, -1)
        # answered False, (0.5, 1.5) and (True, True) answered True
        with pytest.raises(ValueError, match=f"^{message}$"):
            in_insdel_ball(word([0, 1], 2), word([0, 1, 0], 2), *radii)

    @pytest.mark.parametrize(
        "cap, message",
        [(5.5, "cap must be an int, got 5.5"), (-1, "cap must be nonnegative, got -1")],
    )
    def test_cap_must_be_a_nonnegative_int(self, cap, message):
        # a float cap compares like any bound, so the ball would be built
        with pytest.raises(ValueError, match=f"^{message}$"):
            insdel_ball(word([0, 1], 2), 1, 0, cap=cap)

    def test_cap_triggers_estimate_error(self):
        with pytest.raises(BallSizeError) as info:
            insdel_ball(word([0, 1] * 4, 2), 3, 3, cap=10)
        assert info.value.size > 10
        assert info.value.cap == 10
        assert not info.value.counted
        assert str(info.value).startswith(f"estimated ball size {info.value.size} ")

    def test_least_word_of_a_layer(self):
        # the witness census orders codewords by their layer's least word:
        # zeros, then the least length-l subsequence (the shortest layer,
        # m = n - t_del, checks the greedy stack on its own, since that layer
        # is the subsequences)
        rng = random.Random(20_221)
        cases = 0
        while cases < 1000:
            q, n = rng.randint(2, 5), rng.randint(1, 7)
            symbols = tuple(rng.randrange(q) for _ in range(n))
            for t_del in range(n + 1):
                for t_ins in range(4):
                    for m in range(n - t_del, n + t_ins + 1):
                        least = _least_output(symbols, m, t_ins, t_del)
                        layer = _layer(symbols, m, t_ins, t_del, q)
                        assert min(layer) == least, (symbols, m, t_ins, t_del)
                        cases += 1

    def test_size_bound_dominates_actual_size(self):
        for centre in [word([0, 1, 0], 2), word([1, 1, 1, 0], 2)]:
            for t_ins in range(3):
                for t_del in range(len(centre) + 1):
                    bound = insdel_ball_size_bound(len(centre), t_ins, t_del, centre.q)
                    assert len(insdel_ball(centre, t_ins, t_del)) <= bound


def shares(words, t_ins, t_del):
    """The verdict of `_common_output`, once its state count is within the
    documented bound (a tuple is always truthy, so tests compare this part)."""
    verdict, visited = _common_output(words, t_ins, t_del, 10**18)
    k, n = len(words), len(words[0])
    assert 1 <= visited <= k * (n + 1) * (min(t_ins, n) + 1) ** (k - 1) * (t_del + 1) ** k
    return verdict


class TestCommonOutput:
    """`_common_output`: do k equal-length words share one channel output?"""

    def test_one_word_reaches_itself(self):
        for t_ins, t_del in [(0, 0), (2, 0), (0, 2), (1, 1)]:
            assert shares([(0, 1, 2)], t_ins, t_del) is True

    def test_two_words(self):
        a, b = (0, 0), (1, 1)
        assert shares([a, b], 0, 0) is False
        assert shares([a, b], 1, 0) is False  # 00 and 11 need length 4
        assert shares([a, b], 2, 0) is True  # 0011
        assert shares([a, b], 0, 1) is False  # no common symbol
        assert shares([a, b], 1, 1) is True  # 01
        assert shares([a, b], 0, 2) is True  # the empty word

    def test_three_words(self):
        assert shares([(0, 1), (1, 0), (1, 1)], 0, 0) is False
        assert shares([(0, 1), (1, 0), (1, 1)], 1, 0) is True  # 101
        assert shares([(0, 1), (1, 0), (1, 1)], 0, 1) is True  # 1
        assert shares([(0, 0), (1, 1), (0, 1)], 1, 0) is False

    def test_a_state_is_kept_at_its_least_output_length(self):
        # every word reaches 1012021, and every word of the second set
        # reaches 60650, through states that an emission enters at |y| + 1
        # before a deletion of layer |y| reaches them
        ternary = [(1, 2, 1, 2, 0, 1), (1, 1, 0, 1, 2, 2), (1, 0, 2, 1, 2, 2), (1, 0, 0, 0, 2, 1)]
        assert shares(ternary, 2, 1) is True
        septenary = [(6, 4, 6, 1, 5), (2, 6, 2, 0, 6), (2, 0, 6, 5, 5), (0, 5, 0, 0, 3)]
        assert shares(septenary, 2, 2) is True
        # the balls of these four share exactly 021320 and 023120
        quaternary = [(1, 2, 1, 2, 0), (0, 2, 0, 3, 2), (0, 3, 2, 3, 2), (2, 2, 1, 2, 0)]
        assert shares(quaternary, 2, 1) is True

    def test_matches_ball_intersection(self):
        rng = random.Random(7)
        for _ in range(200):
            q, n, k = rng.randint(2, 3), rng.randint(1, 6), rng.randint(1, 4)
            words = [random_tuple(rng, q, n) for _ in range(k)]
            t_ins, t_del = rng.randint(0, 2), rng.randint(0, min(2, n))
            balls = (set().union(*_checked_ball_layers(w, t_ins, t_del, q, 10**6)) for w in words)
            shared = set.intersection(*balls)
            assert shares(words, t_ins, t_del) == bool(shared)

    def test_visited_states_are_counted(self):
        # 00 and 11 at (0, 0): each emission costs the other word an
        # insertion over budget, so only the start state is visited
        assert _common_output([(0, 0), (1, 1)], 0, 0, 10) == (False, 1)
        # a word with itself at (0, 0): the diagonal states (0,0,0,0), (1,1,0,0), (2,2,0,0)
        assert _common_output([(0, 1), (0, 1)], 0, 0, 10) == (True, 3)

    def test_gives_up_past_its_limit(self):
        # the pair above visits 3 states, one per layer, and the limit is
        # checked before each state is expanded
        assert _common_output([(0, 1), (0, 1)], 0, 0, 3) == (True, 3)
        for limit in range(3):
            assert _common_output([(0, 1), (0, 1)], 0, 0, limit) == (None, limit + 1)


def split_union(centre, radius):
    """Union of the insdel balls over the budget splits (radius - j, j)."""
    return set().union(
        *(
            insdel_ball(centre, radius - t_del, t_del)
            for t_del in range(min(radius, len(centre)) + 1)
        )
    )


class TestLevenshteinBall:
    """The words within Levenshtein distance r are the union of the split balls."""

    def test_radius_zero(self):
        centre = word([0], 2)
        assert split_union(centre, 0) == {centre}

    def test_equals_distance_filter(self):
        for centre in [word([0, 1], 2), word([1, 1, 0], 2)]:
            for radius in range(3):
                window = [
                    y
                    for length in range(len(centre) + radius + 1)
                    for y in all_words(2, length)
                ]
                expected = {
                    y for y in window if levenshtein_distance(centre, y) <= radius
                }
                assert split_union(centre, radius) == expected

    def test_union_of_budget_splits(self):
        centre = word([1, 0, 1], 2)
        radius = 2
        every_budget = set()
        for t_del in range(min(radius, len(centre)) + 1):
            for t_ins in range(radius - t_del + 1):
                every_budget |= insdel_ball(centre, t_ins, t_del)
        expected = {
            y
            for y in words_up_to(2, len(centre) + radius)
            if levenshtein_distance(centre, y) <= radius
        }
        assert split_union(centre, radius) == every_budget == expected


class TestSerializationAndValidation:
    def test_round_trip(self):
        for w in [word([], 2), word([0], 2), word([1, 0, 1], 2), word([10, 0], 11)]:
            assert Word.from_text(w.to_text(), w.q) == w

    def test_empty_string_is_empty_word(self):
        assert Word.from_text("", 5) == word([], 5)
        assert word([], 5).to_text() == ""

    def test_symbol_outside_alphabet_rejected(self):
        with pytest.raises(ValueError):
            word([2], 2)
        with pytest.raises(ValueError):
            Word.from_text("0,3", 3)

    def test_tiny_alphabet_rejected(self):
        with pytest.raises(ValueError):
            word([0], 1)

    def test_alphabet_size_must_be_an_int(self):
        with pytest.raises(ValueError, match="^alphabet size must be an int, got 2.0$"):
            Word((0, 1), 2.0)
        with pytest.raises(ValueError, match="^alphabet size must be an int, got True$"):
            Word((), True)

    @settings(max_examples=50)
    @given(st.lists(st.integers(0, 2), max_size=8))
    def test_round_trip_property(self, xs):
        w = word(xs, 3)
        assert Word.from_text(w.to_text(), 3) == w
