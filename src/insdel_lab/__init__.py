"""Insdel code laboratory.

A small exact-arithmetic library for insertion/deletion codes: Levenshtein
geometry over finite alphabets, list-decodability bounds and their
comparison, classic code constructions, and brute-force verification
harnesses that seal the bounds' guarantees on concrete codes.
"""

from .bounds import (
    ComparisonReport,
    LinearPiece,
    PiecewiseBound,
    as_fraction,
    comparison_report,
    hy_crossover_delta,
    hy_list_size,
    hy_quadratic1,
    hy_quadratic2,
    insertion_bound,
    insertion_bound_piecewise,
    unique_decoding_bound,
)
from .codes import (
    Code,
    CodeSizeError,
    EvalPointSearchResult,
    PrimeField,
    helberg,
    helberg_weights,
    read_code,
    rs_code,
    rs_search_eval_points,
    vt_binary,
    vt_qary,
    write_code,
)
from .combinatorics import (
    EliminationRow,
    EnumerationCapError,
    alternating_binomial_sum,
    count_v_covers,
    elimination_row,
    elimination_tail_term,
    enumerate_v_covers,
    inclusion_exclusion_coefficient,
    signed_cover_sum,
)
from .verify import (
    RegionReport,
    Verdict,
    Witness,
    bound_region_pairs,
    check_bound_region,
    decoder_ball_matches_channel,
    list_decodable,
    min_levenshtein_distance,
)
from .words import (
    AlphabetMismatchError,
    BallSizeError,
    Word,
    all_words,
    in_insdel_ball,
    insdel_ball,
    insertion_ball_size,
    lcs_length,
    levenshtein_distance,
    word,
    words_up_to,
)

__version__ = "0.1.0"
