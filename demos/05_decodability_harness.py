"""Brute-force list-decodability: witnesses, unique decoding, and the region check.

The channel applies up to t_ins insertions and t_del deletions.  A code is
(t_ins, t_del, L)-list-decodable when no received word can have come from
more than L codewords; the harness tallies every channel output to decide
this exactly, and the region check sweeps every integer radius pair that the
piecewise-linear bound guarantees.  At list size 1 that region is unique
decoding: every split with t_ins + t_del below half the distance.
"""

from insdel_lab import (
    Code,
    all_words,
    check_bound_region,
    helberg,
    list_decodable,
    vt_binary,
)

print("== a witness: the full cube is not even 1-list-decodable ==")
cube = Code(q=2, n=3, codewords=frozenset(all_words(2, 3)))
verdict = list_decodable(cube, 1, 0, 1, want_witness=True)
witness = verdict.witness
print(f"  decodable: {verdict.decodable}")
print(f"  received {witness.received.to_text()} is explained by:")
for c in witness.codewords:
    print(f"    codeword {c.to_text()}")
print()

print("== unique decoding inside half the distance ==")
code = helberg(2, 5, 2, 0)
report = check_bound_region(code, 1)
print(f"  Helberg q=2 n=5 s=2: distance {report.distance}, radius {(report.distance - 1) // 2}")
print(f"  radius splits checked: {report.checked}")
print(f"  all uniquely decodable: {report.ok}")
print()

print("== region check: VT_0(6) at list size 2 ==")
region = check_bound_region(vt_binary(6, 0), 2)
print(f"  delta = {region.delta}, pairs checked = {region.checked}")
print(f"  violations: {len(region.violations)} (ok: {region.ok})")
print(f"  beats unique decoding: {region.beats_unique_decoding}")
print()

print("== region check: Helberg at list size 3 beats unique decoding ==")
region = check_bound_region(code, 3)
print(f"  delta = {region.delta} > 2/(L+1) = 1/2: {region.beats_unique_decoding}")
print(f"  pairs checked = {region.checked}")
print(f"  ok: {region.ok}")
print()

# Outside the guaranteed region decodability can genuinely fail; the bound
# is about the region it promises, nothing more.
print("== just outside the region ==")
verdict = list_decodable(vt_binary(6, 0), 1, 1, 2, want_witness=True)
print(f"  VT_0(6) at (t_ins=1, t_del=1, L=2): decodable = {verdict.decodable}")
if verdict.witness:
    received = verdict.witness.received.to_text()
    count = len(verdict.witness.codewords)
    print(f"  received {received} decodes to {count} codewords")
