"""Pair orderings: which sequences of crossings can a real arrangement show?

The crossings of a simple arrangement, read by decreasing x, list all line
pairs exactly once.  Not every arrangement lists (i,j) before (i,k) when
j < k: the classical lantern of demo 01 reads ((2,3), (1,3), (1,2)).  The
realizer targets the admissible sequences, those that do.  Admissible is
not enough: for any slopes, the crossing of lines i and k projects strictly
between the crossings (i,j) and (j,k) for every middle line j, so some
admissible sequences are geometrically impossible.  The realizer searches
exactly and reports honestly.
"""

import lanterns as L

print("the lexicographic ordering is always realizable:")
for n in (3, 4, 5):
    arr = L.realize_wajnryb(n)
    ordering = L.extract_pair_ordering(arr)
    print(f"  n={n}: {ordering.pairs}")
    print(f"        admissible: {L.validate_ordering(ordering)}, "
          f"verified: {L.verify_relation(L.lantern_relation(arr)).verified}")

print("\na non-lexicographic but realizable target (line 4 crosses far left):")
target = L.PairOrdering(4, ((1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)))
result = L.realize_ordering(target)
print("  realized:", L.extract_pair_ordering(result).pairs)
print("  intercepts:", [str(line.intercept) for line in result.lines])

print("\nan admissible but impossible target:")
impossible = L.PairOrdering(3, ((1, 2), (2, 3), (1, 3)))
print("  admissible:", L.validate_ordering(impossible))
outcome = L.realize_ordering(impossible)
print("  realizer says:", outcome.message)
print("  best candidate realizes:", outcome.realized.pairs)
print("  first mismatch at position:", outcome.first_mismatch)
