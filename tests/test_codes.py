"""Code constructions: prime fields, RS, VT variants, Helberg, file I/O."""

import itertools
import random
import re
import tracemalloc
from math import perm

import pytest

import insdel_lab.codes as codes_module
from insdel_lab.codes import (
    Code,
    CodeSizeError,
    EvalPointSearchResult,
    PrimeField,
    _helberg_spec,
    _rs_symbols,
    _syndrome_classes,
    _vt_binary_spec,
    _vt_qary_spec,
    helberg,
    helberg_weights,
    is_prime,
    read_code,
    rs_code,
    rs_search_eval_points,
    vt_binary,
    vt_qary,
    write_code,
)
from insdel_lab.verify import min_levenshtein_distance
from insdel_lab.words import Word, _min_distance, word


def hamming(a: Word, b: Word) -> int:
    return sum(x != y for x, y in zip(a.symbols, b.symbols))


# Oracles: the member predicates the constructors used to apply to each word,
# one Python call per word.


def vt_member(n: int, a: int):
    return lambda c: sum(i * ci for i, ci in enumerate(c, start=1)) % (n + 1) == a


def vt_qary_member(n: int, q: int, a: int, b: int):
    def member(s: tuple[int, ...]) -> bool:
        steps = sum(i for i in range(1, n) if s[i] >= s[i - 1])
        return steps % n == a and sum(s) % q == b

    return member


def helberg_member(weights: tuple[int, ...], modulus: int, a: int):
    return lambda x: sum(v * xi for v, xi in zip(weights, x)) % modulus == a


def assert_built_as_filtered(make, q: int, n: int, member, empty: str) -> None:
    """`make()` holds exactly the q-ary length-n words that satisfy `member`,
    or raises ValueError with the exact message `empty` when none does."""
    expected = set(filter(member, itertools.product(range(q), repeat=n)))
    if not expected:
        with pytest.raises(ValueError, match=f"^{re.escape(empty)}$"):
            make()
        return
    code = make()
    assert (code.q, code.n) == (q, n)
    assert {w.symbols for w in code.codewords} == expected


def horner_codewords(field: PrimeField, k: int, alpha, count: int | None = None):
    """The first `count` codewords of RS order, one poly_eval call per symbol."""
    coefficients = itertools.islice(itertools.product(field.elements(), repeat=k), count)
    return [tuple(field.poly_eval(c, a) for a in alpha) for c in coefficients]


class TestPrimeField:
    def test_primality(self):
        assert [p for p in range(30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        for bad in (1, 4, 6, 9):
            with pytest.raises(ValueError):
                PrimeField(bad)

    def test_field_size_must_be_an_int(self):
        # 7.0 would pass the primality test and fail later, in pow
        for bad in (7.0, True):
            with pytest.raises(ValueError, match=f"^field size must be an int, got {bad}$"):
                PrimeField(bad)

    def test_poly_eval_matches_power_sum(self):
        field = PrimeField(11)
        coeffs = (3, 0, 7, 1)
        for x in range(11):
            direct = sum(c * x**i for i, c in enumerate(coeffs)) % 11
            assert field.poly_eval(coeffs, x) == direct


class TestReedSolomon:
    def test_degree_zero_code_is_constants(self):
        code = rs_code(PrimeField(5), 4, 1)
        assert code.size == 5
        assert code.codewords == frozenset(word([c] * 4, 5) for c in range(5))

    def test_full_degree_code_is_everything(self):
        code = rs_code(PrimeField(3), 3, 3)
        assert code.size == 27
        assert code.codewords == frozenset(
            word(w, 3) for w in itertools.product(range(3), repeat=3)
        )

    def test_size_is_p_to_the_k(self):
        for p, n, k in [(5, 4, 2), (7, 5, 2), (3, 2, 1)]:
            assert rs_code(PrimeField(p), n, k).size == p**k

    def test_min_hamming_distance(self):
        code = rs_code(PrimeField(5), 4, 2)
        words = code.sorted_words()
        distances = [
            hamming(a, b) for a, b in itertools.combinations(words, 2)
        ]
        assert min(distances) == 4 - 2 + 1

    def test_cyclic_eval_points_collapse_insdel_distance(self):
        # powers of a generator: rotations stay in the code, distance drops to 2
        code = rs_code(PrimeField(5), 4, 2, alpha=(1, 2, 4, 3))
        assert min_levenshtein_distance(code) == 2

    def test_default_alpha_is_initial_range(self):
        explicit = rs_code(PrimeField(7), 5, 2, alpha=range(5))
        assert rs_code(PrimeField(7), 5, 2).codewords == explicit.codewords

    def test_streaming_matches_materialized(self):
        field = PrimeField(5)
        streamed = [word(s, 5) for s in _rs_symbols(field, 2, (0, 1, 2), {})]
        assert len(streamed) == 25  # duplicates would collapse in the set
        assert frozenset(streamed) == rs_code(field, 3, 2).codewords
        assert streamed[0] == word([0, 0, 0], 5)

    def test_stream_order_matches_horner(self):
        # every shape with p in {2, 3, 5, 7} and k <= 3, at evaluation points
        # with and without 0, which the leading coefficient does not reach
        rng = random.Random(16)
        for p in (2, 3, 5, 7):
            field = PrimeField(p)
            for n in range(1, p + 1):
                for k in range(1, min(n, 3) + 1):
                    tuples = [tuple(range(n)), tuple(range(p - n, p))]
                    tuples += [tuple(rng.sample(range(p), n)) for _ in range(3)]
                    for alpha in tuples:
                        streamed = list(_rs_symbols(field, k, alpha, {}))
                        assert streamed == horner_codewords(field, k, alpha), (p, n, k, alpha)

    def test_stream_is_lazy(self):
        # p^k = 104,060,401 codewords; the first 1000 come from the first
        # block prefixes, and drawing them holds only the per-point tables
        field = PrimeField(101)
        tracemalloc.start()
        try:
            head = list(itertools.islice(_rs_symbols(field, 4, (0, 1, 2, 3), {}), 1000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert head == horner_codewords(field, 4, range(4), 1000)
        assert peak < 2**20

    def test_parameter_validation(self):
        field = PrimeField(5)
        with pytest.raises(ValueError):
            rs_code(field, 2, 3)  # k > n
        with pytest.raises(ValueError):
            rs_code(field, 6, 2)  # n > p
        with pytest.raises(ValueError):
            rs_code(field, 4, 2, alpha=(0, 0, 1, 2))
        with pytest.raises(ValueError):
            rs_code(field, 4, 2, alpha=(0, 1, 2, 7))
        # a non-integer point is named before any power of it is taken
        with pytest.raises(ValueError, match=r"^evaluation point 1\.0 is not an integer$"):
            rs_code(PrimeField(7), 3, 2, (0, 1.0, 2))
        with pytest.raises(ValueError, match="^evaluation point False is not an integer$"):
            rs_code(field, 2, 1, (False, True))
        message = r"^p\^k = 104060401 codewords exceed cap 1000000$"
        with pytest.raises(CodeSizeError, match=message):
            rs_code(PrimeField(101), 4, 4)  # raises before building a codeword
        # the search checks the shape before it looks at any tuple
        for n, k in ((7, 1), (3, 4), (3, 0)):
            message = f"need 1 <= k <= n <= p, got k={k}, n={n}, p=5"
            with pytest.raises(ValueError, match=message):
                rs_search_eval_points(field, n, k)

    def test_block_length_and_dimension_must_be_ints(self):
        # a float would fail later, in range, and True would pass as k = 1
        field = PrimeField(7)
        cases = [
            ((5.0, 2), "^block length must be an int, got 5.0$"),
            ((5, 2.0), "^dimension must be an int, got 2.0$"),
            ((5, True), "^dimension must be an int, got True$"),
        ]
        for (n, k), message in cases:
            with pytest.raises(ValueError, match=message):
                rs_code(field, n, k)
            with pytest.raises(ValueError, match=message):
                rs_search_eval_points(field, n, k)

    def test_eval_points_must_be_ints(self):
        # True passed as the point 1
        with pytest.raises(ValueError, match="^evaluation point True is not an integer$"):
            rs_code(PrimeField(7), 2, 1, (True, 0))

    def test_search_budget_and_target_must_be_ints(self):
        # True ran as a budget of 1, 2.5 failed later in range, and 1.5 was
        # accepted as a target
        field = PrimeField(7)
        cases = [
            ({"budget": True}, "^budget must be an int, got True$"),
            ({"budget": 2.5}, "^budget must be an int, got 2.5$"),
            ({"target": 1.5}, "^target must be an int, got 1.5$"),
        ]
        for kwargs, message in cases:
            with pytest.raises(ValueError, match=message):
                rs_search_eval_points(field, 5, 2, **kwargs)

    def test_search_seed_must_be_a_nonnegative_int(self):
        # random.Random reads -3 as 3 and True as 1, so these searches
        # silently repeated another seed's; 1.5 was hashed
        field = PrimeField(7)
        cases = [
            (-3, "^seed must be nonnegative, got -3$"),
            (True, "^seed must be an int, got True$"),
            (1.5, "^seed must be an int, got 1.5$"),
        ]
        for seed, message in cases:
            with pytest.raises(ValueError, match=message):
                rs_search_eval_points(field, 5, 2, budget=8, seed=seed)

    def test_search_applies_the_codeword_cap(self, monkeypatch):
        # every class builds all p^k codewords, so the cap is checked first
        monkeypatch.setattr(codes_module, "DEFAULT_CODE_CAP", 10)
        with pytest.raises(CodeSizeError, match=r"^p\^k = 25 codewords exceed cap 10$"):
            rs_search_eval_points(PrimeField(5), 3, 2, budget=1)

    def test_shape_is_checked_before_the_cap(self):
        message = "need 1 <= k <= n <= p, got k=4, n=3, p=101"
        for call in (rs_code, rs_search_eval_points):
            with pytest.raises(ValueError, match=message):
                call(PrimeField(101), 3, 4)

    def test_eval_point_search_degree_zero(self):
        result = rs_search_eval_points(PrimeField(5), 4, 1)
        assert result.achieved == 8
        assert result.target == 8
        assert result.met_target
        assert result.exhaustive
        assert result.examined == 1  # the very first tuple already meets 2n
        assert result.alpha == (0, 1, 2, 3)

    def test_eval_point_search_reports_shortfall(self):
        # tiny budget cannot be exhaustive; shortfalls must not raise
        result = rs_search_eval_points(PrimeField(7), 5, 2, budget=5, seed=1)
        assert not result.exhaustive
        assert result.examined == 5 or result.met_target
        assert result.achieved >= 2

    def test_eval_point_search_is_seed_deterministic(self):
        first = rs_search_eval_points(PrimeField(7), 5, 2, budget=8, seed=3)
        second = rs_search_eval_points(PrimeField(7), 5, 2, budget=8, seed=3)
        assert first == second

    @pytest.mark.parametrize(
        "seed, alpha",
        [(0, (6, 3, 5, 0, 1)), (1, (1, 4, 0, 2, 5)), (2, (6, 0, 5, 4, 1))],
    )
    def test_eval_point_search_pinned(self, seed, alpha):
        # the winner depends on the exact stop value of each pairwise scan, so
        # any LCS kernel must reproduce these tuples, recorded with the DP
        result = rs_search_eval_points(PrimeField(7), 5, 2, budget=300, seed=seed)
        assert result == EvalPointSearchResult(
            alpha=alpha,
            achieved=4,
            target=6,
            met_target=False,
            examined=300,
            exhaustive=False,
        )


def memo_free_search(field, n, k, target=None, budget=2000, seed=0):
    """The evaluation-point search as it was before its per-class memo: one
    `_min_distance` per examined tuple, on codewords by Horner's rule."""
    if target is None:
        target = min(2 * n, 2 * n - 4 * k + 4)
    exhaustive = perm(field.p, n) <= budget
    if exhaustive:
        candidates = itertools.permutations(field.elements(), n)
    else:
        rng = random.Random(seed)
        candidates = (tuple(rng.sample(field.elements(), n)) for _ in range(budget))
    best_alpha, best_distance, examined = None, -1, 0
    for alpha in candidates:
        examined += 1
        d = _min_distance(horner_codewords(field, k, alpha))
        if d > best_distance:
            best_alpha, best_distance = alpha, d
            if best_distance >= target:
                break
    return EvalPointSearchResult(
        alpha=best_alpha,
        achieved=best_distance,
        target=target,
        met_target=best_distance >= target,
        examined=examined,
        exhaustive=exhaustive,
    )


class TestEvalPointClasses:
    """The search computes one minimum distance per class of evaluation
    tuples under x -> cx + b (c != 0) and reversal."""

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_codes_are_invariant_on_classes(self, p):
        # x -> x + 1 and x -> g x, for g a generator of the nonzero elements,
        # generate every affine map, so checking both on every tuple shows
        # that each tuple's code equals the code of all its affine images.
        # Reversal commutes with the affine maps, so it is enough to check
        # it on the tuples that start with (0, 1), one per affine class.  The
        # codes are compared as the symbol tuples `rs_code` wraps in Words,
        # which hash far faster than 2,520 codes of 343 Words.
        field = PrimeField(p)
        g = next(g for g in range(2, p) if len({pow(g, e, p) for e in range(p - 1)}) == p - 1)
        for n in range(1, min(p, 5) + 1):
            for k in range(1, n + 1):
                if p**k > 343:
                    continue
                codes = {
                    alpha: frozenset(codes_module._rs_symbols(field, k, alpha, {}))
                    for alpha in itertools.permutations(range(p), n)
                }
                for alpha, words in codes.items():
                    for c, b in ((1, 1), (g, 0)):
                        image = tuple((c * a + b) % p for a in alpha)
                        assert codes[image] == words, (alpha, image, k)
                    if n == 1 or alpha[:2] == (0, 1):
                        assert codes[alpha[::-1]] == {w[::-1] for w in words}, (alpha, k)
                        assert {w.symbols for w in rs_code(field, n, k, alpha).codewords} == words

    @pytest.mark.parametrize(
        "p, n, k, kwargs",
        [
            (5, 4, 1, {}),  # the first tuple meets the target
            (7, 5, 2, {"target": 4}),  # a sampled run stopped at the target
            (5, 5, 2, {}),  # exhaustive
            (7, 5, 2, {"budget": 3000}),  # exhaustive over 2,520 tuples
            (3, 3, 2, {"budget": 4, "seed": 5}),  # sampled, budget below P(3, 3)
            (7, 5, 2, {"budget": 300, "seed": 7}),
            (11, 4, 2, {"budget": 150, "seed": 4}),
            (7, 3, 3, {"target": 99}),  # k = n, exhaustive
            (5, 4, 4, {"target": 99, "budget": 30, "seed": 2}),  # k = n, sampled
            (5, 1, 1, {"target": 99}),  # n = 1: one class
            (7, 1, 1, {"target": 99, "budget": 3, "seed": 1}),
            (5, 2, 1, {"target": 99}),  # n = 2: one class
        ],
    )
    def test_search_matches_the_memo_free_loop(self, p, n, k, kwargs):
        field = PrimeField(p)
        assert rs_search_eval_points(field, n, k, **kwargs) == memo_free_search(
            field, n, k, **kwargs
        )

    @pytest.mark.parametrize("budget, examined", [(300, 300), (3000, 2520)])
    def test_min_distance_runs_once_per_class(self, monkeypatch, budget, examined):
        # the 2,520 ordered 5-tuples over F_7 fall into 32 classes, and the
        # 300 tuples sampled at seed 0 reach all of them
        calls = []

        def spy(words):
            calls.append(len(words))
            return _min_distance(words)

        monkeypatch.setattr(codes_module, "_min_distance", spy)
        result = rs_search_eval_points(PrimeField(7), 5, 2, budget=budget, seed=0)
        assert result.examined == examined
        assert calls == [49] * 32


class TestVarshamovTenengolts:
    def test_frozen_vt_zero_four(self):
        code = vt_binary(4, 0)
        expected = {(0, 0, 0, 0), (1, 0, 0, 1), (0, 1, 1, 0), (1, 1, 1, 1)}
        assert {w.symbols for w in code.codewords} == expected

    def test_syndrome_filter_equality(self):
        n = 5
        for a in range(n + 1):
            code = vt_binary(n, a)
            recomputed = {
                c
                for c in itertools.product((0, 1), repeat=n)
                if sum(i * ci for i, ci in enumerate(c, start=1)) % (n + 1) == a
            }
            assert {w.symbols for w in code.codewords} == recomputed

    def test_residue_classes_partition_the_cube(self):
        for n in range(2, 9):
            total = sum(vt_binary(n, a).size for a in range(n + 1))
            assert total == 2**n

    def test_min_distance_at_least_four(self):
        for n in (4, 5, 6):
            for a in range(n + 1):
                code = vt_binary(n, a)
                if code.size >= 2:
                    assert min_levenshtein_distance(code) >= 4

    def test_matches_the_member_predicate(self):
        for n in range(1, 13):
            for a in range(n + 1):
                assert_built_as_filtered(
                    lambda: vt_binary(n, a), 2, n, vt_member(n, a), f"VT_{a}({n}) is empty"
                )

    def test_validation(self):
        with pytest.raises(ValueError):
            vt_binary(0, 0)
        with pytest.raises(ValueError):
            vt_binary(4, 5)
        with pytest.raises(CodeSizeError, match=r"^2\^21 words exceed cap 1000000$"):
            vt_binary(21, 0)
        with pytest.raises(CodeSizeError, match=r"^2\^20 words exceed cap 1000000$"):
            vt_binary(20, 0)  # one over the cap

    def test_arguments_must_be_ints(self):
        # True built VT_1(6), and a float failed later with TypeError
        with pytest.raises(ValueError, match="^residue a must be an int, got True$"):
            vt_binary(6, True)
        with pytest.raises(ValueError, match="^block length must be an int, got 6.0$"):
            vt_binary(6.0, 0)


class TestQaryVarshamovTenengolts:
    def test_frozen_tiny_example(self):
        code = vt_qary(2, 3, 0, 0)
        assert {w.symbols for w in code.codewords} == {(2, 1)}

    def test_congruence_filter_equality(self):
        n, q = 3, 3
        seen = 0
        for a in range(n):
            for b in range(q):
                try:
                    code = vt_qary(n, q, a, b)
                except ValueError:
                    continue
                seen += code.size
                for w in code.codewords:
                    s = w.symbols
                    steps = sum(i for i in range(1, n) if s[i] >= s[i - 1])
                    assert steps % n == a
                    assert sum(s) % q == b
        assert seen == q**n  # classes partition the cube

    def test_min_distance_at_least_four(self):
        for a in range(4):
            for b in range(3):
                try:
                    code = vt_qary(4, 3, a, b)
                except ValueError:
                    continue
                if code.size >= 2:
                    assert min_levenshtein_distance(code) >= 4

    def test_matches_the_member_predicate(self):
        # every class is nonempty here; Helberg codes cover the empty message
        for q in (3, 4):
            for n in range(1, 7):
                for a in range(n):
                    for b in range(q):
                        message = f"q-ary VT code (n={n}, q={q}, a={a}, b={b}) is empty"
                        assert_built_as_filtered(
                            lambda: vt_qary(n, q, a, b), q, n, vt_qary_member(n, q, a, b), message
                        )

    def test_validation(self):
        with pytest.raises(ValueError):
            vt_qary(3, 2, 0, 0)  # binary alphabet has its own construction
        with pytest.raises(ValueError):
            vt_qary(3, 3, 3, 0)
        with pytest.raises(ValueError):
            vt_qary(3, 3, 0, 3)
        with pytest.raises(CodeSizeError, match=r"^3\^13 words exceed cap 1000000$"):
            vt_qary(13, 3, 0, 0)
        # before any table is built: the step tables alone would hold q^2
        # entries per position
        with pytest.raises(CodeSizeError, match=r"^100000\^3 words exceed cap 1000000$"):
            vt_qary(3, 100_000, 0, 0)

    def test_arguments_must_be_ints(self):
        with pytest.raises(ValueError, match="^alphabet size must be an int, got 3.0$"):
            vt_qary(4, 3.0, 0, 0)


class TestHelberg:
    def test_weight_recursions(self):
        assert helberg_weights(2, 2, 5) == (1, 2, 4, 7, 12)
        assert helberg_weights(2, 1, 5) == (1, 2, 3, 4, 5)  # single-step window
        assert helberg_weights(3, 2, 4) == (1, 3, 9, 25)

    def test_weights_validation(self):
        with pytest.raises(ValueError):
            helberg_weights(1, 2, 3)

    def test_frozen_two_deletion_code(self):
        code = helberg(2, 5, 2, 0)
        assert {w.symbols for w in code.codewords} == {
            (0, 0, 0, 0, 0),
            (1, 0, 0, 1, 1),
        }
        assert min_levenshtein_distance(code) == 6

    def test_congruence_filter_equality(self):
        weights = helberg_weights(2, 2, 6)
        modulus = weights[5]
        code = helberg(2, 5, 2, 3)
        for w in code.codewords:
            assert sum(v * x for v, x in zip(weights, w.symbols)) % modulus == 3

    def test_residue_classes_partition_the_cube(self):
        weights = helberg_weights(2, 2, 6)
        modulus = weights[5]
        sizes = 0
        for a in range(modulus):
            try:
                sizes += helberg(2, 5, 2, a).size
            except ValueError:
                continue
        assert sizes == 2**5

    def test_distance_guarantee_across_residues(self):
        for n in (5, 6):
            for a in range(helberg_weights(2, 2, n + 1)[n]):
                try:
                    code = helberg(2, n, 2, a)
                except ValueError:
                    continue
                if code.size >= 2:
                    assert min_levenshtein_distance(code) >= 6

    def test_ternary_members_satisfy_congruence(self):
        code = helberg(3, 4, 2, 0)
        weights = helberg_weights(3, 2, 5)
        for w in code.codewords:
            assert sum(v * x for v, x in zip(weights, w.symbols)) % weights[4] == 0

    def test_matches_the_member_predicate(self):
        # every residue where that costs at most 5,000 predicate calls, and
        # otherwise a seeded sample that holds both ends
        rng = random.Random(16)
        for q in (2, 3):
            for s in (1, 2):
                for n in range(s + 1, 10):
                    weights = helberg_weights(q, s, n + 1)
                    modulus = weights[n]
                    residues = range(modulus)
                    if modulus * q**n > 5_000:
                        residues = [0, modulus - 1, *rng.sample(range(1, modulus - 1), 4)]
                    for a in residues:
                        assert_built_as_filtered(
                            lambda: helberg(q, n, s, a),
                            q,
                            n,
                            helberg_member(weights[:n], modulus, a),
                            f"Helberg code (q={q}, n={n}, s={s}, a={a}) is empty",
                        )

    def test_custom_modulus_matches_the_member_predicate(self):
        # sums of the weights reach 0..46 only, so the largest modulus leaves
        # residues empty
        weights = helberg_weights(2, 2, 7)
        empties = 0
        for m in (weights[6], weights[6] + 5, 3 * weights[6]):
            for a in range(m):
                member = helberg_member(weights[:6], m, a)
                empties += not any(map(member, itertools.product(range(2), repeat=6)))
                assert_built_as_filtered(
                    lambda: helberg(2, 6, 2, a, m=m),
                    2,
                    6,
                    member,
                    f"Helberg code (q=2, n=6, s=2, a={a}) is empty",
                )
        assert empties > 0

    def test_custom_modulus_can_leave_residue_empty(self):
        # weights (1, 2, 4) reach sums 0..7 only, so residue 8 mod 9 is empty
        with pytest.raises(ValueError, match=r"^Helberg code \(q=2, n=3, s=2, a=8\) is empty$"):
            helberg(2, 3, 2, 8, m=9)

    def test_validation(self):
        with pytest.raises(ValueError):
            helberg(2, 3, 3, 0)  # s must stay below n
        with pytest.raises(ValueError):
            helberg(2, 5, 2, 20)  # residue beyond the default modulus
        with pytest.raises(ValueError):
            helberg(2, 5, 2, 0, m=5)  # modulus below v_6
        with pytest.raises(CodeSizeError, match=r"^3\^13 words exceed cap 1000000$"):
            helberg(3, 13, 2, 0)

    def test_arguments_must_be_ints(self):
        # floats failed later with TypeError, and True passed as s = 1
        with pytest.raises(ValueError, match="^block length must be an int, got 5.0$"):
            helberg(2, 5.0, 2, 0)
        with pytest.raises(ValueError, match="^modulus must be an int, got 100.0$"):
            helberg(2, 5, 2, 0, m=100.0)
        with pytest.raises(ValueError, match="^s must be an int, got True$"):
            helberg_weights(2, True, 3)


# the 22 code shapes of acceptance criterion 7: family -> (spec, constructor)
CLASS_FAMILIES = {
    "VT": (_vt_binary_spec, vt_binary),
    "VT3": (lambda n: _vt_qary_spec(n, 3), lambda n, a, b: vt_qary(n, 3, a, b)),
    "Helberg": (lambda n: _helberg_spec(2, n, 2), lambda n, a: helberg(2, n, 2, a)),
}
CRITERION_7_SHAPES = (
    [("VT", n) for n in range(1, 11)]
    + [("VT3", n) for n in range(1, 7)]
    + [("Helberg", n) for n in range(3, 9)]
)


class TestSyndromeClasses:
    """All residue classes of one code shape from one syndrome table."""

    @pytest.mark.parametrize("family, n", CRITERION_7_SHAPES)
    def test_classes_are_the_constructors_codes(self, family, n):
        spec, construct = CLASS_FAMILIES[family]
        q, _, syndromes = spec(n)
        moduli = [modulus for _, modulus in syndromes]
        classes = list(_syndrome_classes(*spec(n)))
        assert [residues for residues, _ in classes] == sorted(residues for residues, _ in classes)
        built = dict(classes)
        for residues in itertools.product(*map(range, moduli)):
            try:
                expected = construct(n, *residues)
            except ValueError as exc:
                assert str(exc).endswith("is empty")
                assert residues not in built
            else:
                assert set(built[residues]) == {w.symbols for w in expected.codewords}
        # each class in product order, and together every word once
        assert all(members == sorted(members) for _, members in classes)
        members = [w for _, class_members in classes for w in class_members]
        assert sorted(members) == list(itertools.product(range(q), repeat=n))

    @pytest.mark.parametrize(
        "spec, message",
        [
            (lambda: _vt_binary_spec(20), r"^2\^20 words"),
            (lambda: _vt_qary_spec(13, 3), r"^3\^13 words"),
            (lambda: _helberg_spec(3, 13, 2), r"^3\^13 words"),
        ],
        ids=["VT", "VT3", "Helberg"],
    )
    def test_an_over_cap_shape_is_refused_before_any_table(self, spec, message):
        q, n, syndromes = spec()
        with pytest.raises(CodeSizeError, match=message):
            _syndrome_classes(q, n, syndromes)
        # no position's table was read, so none was built
        assert [len(list(terms)) for terms, _ in syndromes] == [n] * len(syndromes)


class TestCodeFiles:
    def test_round_trip(self, tmp_path):
        original = vt_binary(4, 0)
        path = tmp_path / "vt.code"
        write_code(original, path)
        assert read_code(path) == original

    def test_round_trip_two_digit_symbols(self, tmp_path):
        code = Code(
            q=11, n=3, codewords=frozenset({word([10, 0, 7], 11), word([0, 10, 1], 11)})
        )
        path = tmp_path / "wide.code"
        write_code(code, path)
        assert read_code(path) == code

    def test_bool_symbols_never_reach_a_code_file(self, tmp_path):
        # a bool symbol would be written as "True", which read_code rejects
        with pytest.raises(ValueError, match="^symbol True outside alphabet of size 2$"):
            Word((True, 0), 2)
        code = Code(q=2, n=2, codewords=frozenset({Word((1, 0), 2), Word((0, 0), 2)}))
        path = tmp_path / "ints.code"
        write_code(code, path)
        assert path.read_text() == "q=2 n=2\n0,0\n1,0\n"
        assert read_code(path) == code

    def test_output_is_sorted_and_deterministic(self, tmp_path):
        code = vt_binary(6, 0)
        first, second = tmp_path / "a.code", tmp_path / "b.code"
        write_code(code, first)
        write_code(code, second)
        assert first.read_bytes() == second.read_bytes()
        body = first.read_text().splitlines()
        assert body[0] == "q=2 n=6"
        assert body[1:] == sorted(body[1:], key=lambda line: Word.from_text(line, 2).symbols)

    def test_malformed_inputs(self, tmp_path):
        empty = tmp_path / "empty.code"
        empty.write_text("")
        with pytest.raises(ValueError):
            read_code(empty)

        bad_header = tmp_path / "bad.code"
        bad_header.write_text("q2 n=4\n0,0,0,0\n")
        with pytest.raises(ValueError):
            read_code(bad_header)

        headless = tmp_path / "headless.code"
        headless.write_text("q=2 n=4\n")
        with pytest.raises(ValueError):
            read_code(headless)

        duplicated = tmp_path / "duplicated.code"
        duplicated.write_text("q=2 n=4\n0,0,0,0\n1,1,1,1\n0,0,0,0\n")
        with pytest.raises(ValueError):
            read_code(duplicated)

    @pytest.mark.parametrize("header", ["q=2 n=3 q=5", "q=2 n=3 extra=7", "q=2 q=2 n=3", "n=3"])
    def test_header_keys_are_never_merged(self, tmp_path, header):
        path = tmp_path / "header.code"
        path.write_text(header + "\n0,0,0\n")
        with pytest.raises(ValueError, match="malformed header"):
            read_code(path)
        path.write_text("n=3 q=2\n0,0,0\n")
        assert read_code(path) == Code(q=2, n=3, codewords=frozenset({word([0, 0, 0], 2)}))

    def test_codewords_must_be_a_frozenset(self):
        w, v = word([0, 0, 0], 2), word([1, 1, 1], 2)
        for codewords in ([w, w, v], {w, v}, (w, v)):
            with pytest.raises(TypeError, match="codewords must be a frozenset"):
                Code(q=2, n=3, codewords=codewords)

    def test_code_constructor_validation(self):
        with pytest.raises(ValueError):
            Code(q=2, n=3, codewords=frozenset({word([0, 1], 2)}))
        with pytest.raises(ValueError):
            Code(q=2, n=1, codewords=frozenset({word([0], 3)}))
        with pytest.raises(ValueError):
            Code(q=2, n=1, codewords=frozenset())

    def test_alphabet_size_and_block_length_must_be_ints(self):
        codewords = frozenset({word([0, 1], 2)})
        with pytest.raises(ValueError, match="^alphabet size must be an int, got 2.0$"):
            Code(q=2.0, n=2, codewords=codewords)
        with pytest.raises(ValueError, match="^block length must be an int, got 2.0$"):
            Code(q=2, n=2.0, codewords=codewords)
        with pytest.raises(ValueError, match="^block length must be an int, got True$"):
            Code(q=2, n=True, codewords=frozenset({word([0], 2)}))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: rs_search_eval_points(PrimeField(7), 5, 2, budget=0), "budget must be positive"),
        (lambda: rs_code(PrimeField(7), 5, 2, (0, 1, 2, 3)), "expected 5 evaluation points, got 4"),
        (lambda: Code(q=1, n=2, codewords=frozenset({word([0, 1], 2)})), "need q >= 2 and n >= 1"),
        (lambda: vt_qary(0, 3, 0, 0), "need n >= 1"),
    ],
    ids=["search-budget", "rs-point-count", "code-alphabet", "vt-qary-length"],
)
def test_out_of_range_parameters_are_refused(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
