"""Words, the insdel metric, and error balls.

Walks through the basic objects everything else builds on: the Levenshtein
distance via longest common subsequences, the minimal insertion/deletion pair
between two words, and the balls swept out by bounded numbers of insertions
and deletions.  Run directly: python demos/01_words_and_balls.py
"""

from insdel_lab import (
    insdel_ball,
    insertion_ball_size,
    lcs_length,
    levenshtein_distance,
    minimal_insdel_pair,
    word,
    all_words,
    words_up_to,
)

a = word([1, 0, 0, 1], 2)
b = word([0, 1, 1, 0], 2)

print("== distances ==")
print(f"a = {a.to_text()}   b = {b.to_text()}")
print(f"LCS length        : {lcs_length(a, b)}")
print(f"insdel distance   : {levenshtein_distance(a, b)}")

pair = minimal_insdel_pair(a, b)
print(f"minimal pair a->b : {pair.insertions} insertions, {pair.deletions} deletions")
print(f"sum equals d      : {pair.total == levenshtein_distance(a, b)}")
print()

# Insertion balls have a center-independent size with a closed form; deletion
# balls do not.  Compare a constant word against an alternating one.
print("== ball sizes, length 5 ==")
runs = word([0, 0, 0, 0, 0], 2)
alternating = word([0, 1, 0, 1, 0], 2)
for t_ins in (1, 2):
    sizes = {
        centre.to_text(): len(insdel_ball(centre, t_ins, 0))
        for centre in (runs, alternating)
    }
    formula = insertion_ball_size(5, t_ins, 2)
    print(f"t_ins={t_ins}: sizes {sizes} closed form {formula}")

for t_del in (1, 2):
    shrunk = lambda c: {w for w in insdel_ball(c, 0, t_del) if len(w) == 5 - t_del}
    print(
        f"t_del={t_del}: exactly-t-deletions layer sizes "
        f"{{runs: {len(shrunk(runs))}, alternating: {len(shrunk(alternating))}}}"
    )
print()

print("== mixed-radius ball around 0,1 ==")
centre = word([0, 1], 2)
ball = insdel_ball(centre, 1, 1)
for w in sorted(ball, key=lambda w: w.sort_key()):
    d = levenshtein_distance(centre, w)
    print(f"  {w.to_text() or '(empty)':7s} distance {d}")
print(f"ball size {len(ball)}")

# The distance-2 Levenshtein ball is the union of the (2,0), (1,1), (0,2)
# split-budget balls; verify against every word within distance 2.
union = insdel_ball(centre, 2, 0) | insdel_ball(centre, 1, 1) | insdel_ball(centre, 0, 2)
within_two = {
    y for y in words_up_to(2, len(centre) + 2) if levenshtein_distance(centre, y) <= 2
}
print(f"distance-2 words == union of splits: {within_two == union}")
print()

print("== membership without enumeration ==")
from insdel_lab import in_insdel_ball

for target in (word([0, 0, 1], 2), word([0, 0, 1, 1], 2)):
    # the second needs two insertions, one more than the budget allows
    print(
        f"{target.to_text()} within 1 ins + 1 del of {centre.to_text()}: "
        f"{in_insdel_ball(target, centre, 1, 1)}"
    )
total = sum(
    1
    for length in range(5)
    for cand in all_words(2, length)
    if in_insdel_ball(cand, centre, 1, 1)
)
print(f"predicate count over the length window: {total} (matches ball: {total == len(ball)})")
