"""Code constructions: prime fields, RS, VT variants, Helberg, file I/O."""

import itertools

import pytest

from insdel_lab.codes import (
    Code,
    CodeSizeError,
    EvalPointSearchResult,
    PrimeField,
    helberg,
    helberg_weights,
    is_prime,
    read_code,
    rs_code,
    rs_codewords,
    rs_search_eval_points,
    vt_binary,
    vt_qary,
    write_code,
)
from insdel_lab.verify import min_levenshtein_distance
from insdel_lab.words import Word, word


def hamming(a: Word, b: Word) -> int:
    return sum(x != y for x, y in zip(a.symbols, b.symbols))


class TestPrimeField:
    def test_primality(self):
        assert [p for p in range(30) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        for bad in (1, 4, 6, 9):
            with pytest.raises(ValueError):
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
        streamed = list(rs_codewords(field, 3, 2, (0, 1, 2)))
        assert len(streamed) == 25  # duplicates would collapse in the set
        assert frozenset(streamed) == rs_code(field, 3, 2).codewords
        assert streamed[0] == word([0, 0, 0], 5)

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
        with pytest.raises(CodeSizeError):
            rs_code(PrimeField(3), 3, 3, cap=10)
        # the search checks the shape before it looks at any tuple
        for n, k in ((7, 1), (3, 4), (3, 0)):
            message = f"need 1 <= k <= n <= p, got k={k}, n={n}, p=5"
            with pytest.raises(ValueError, match=message):
                rs_search_eval_points(field, n, k)

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

    def test_validation(self):
        with pytest.raises(ValueError):
            vt_binary(0, 0)
        with pytest.raises(ValueError):
            vt_binary(4, 5)
        with pytest.raises(CodeSizeError, match=r"^2\^21 words exceed cap 1000000$"):
            vt_binary(21, 0, cap=10**6)


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

    def test_validation(self):
        with pytest.raises(ValueError):
            vt_qary(3, 2, 0, 0)  # binary alphabet has its own construction
        with pytest.raises(ValueError):
            vt_qary(3, 3, 3, 0)
        with pytest.raises(ValueError):
            vt_qary(3, 3, 0, 3)
        with pytest.raises(CodeSizeError, match=r"^3\^13 words exceed cap 1000000$"):
            vt_qary(13, 3, 0, 0)


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

    def test_code_constructor_validation(self):
        with pytest.raises(ValueError):
            Code(q=2, n=3, codewords=frozenset({word([0, 1], 2)}))
        with pytest.raises(ValueError):
            Code(q=2, n=1, codewords=frozenset({word([0], 3)}))
        with pytest.raises(ValueError):
            Code(q=2, n=1, codewords=frozenset())
