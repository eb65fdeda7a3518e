"""
Two independent oracles for the spectrum of T_n
===============================================

The partition formula says what the spectrum should be.  For small n we can
also work with the Cayley graph itself: multiply real permutations by
transpositions and certify its eigenvalues in exact integers.  The two
answers must agree exactly — that cross-check is what makes the rest of
the library trustworthy.
"""

from tnspec import (
    EnumerationConstraints,
    cayley_spectrum,
    enumerate_partitions,
    partition_count,
    spectrum,
)

# Enumerate all partitions of 6 in reverse lexicographic order and count
# them against the pentagonal-number recurrence.
partitions = list(enumerate_partitions(6))
print(f"p(6) = {len(partitions)} (recurrence says {partition_count(6)})")
print("first five:", ", ".join(str(p) for p in partitions[:5]))

# The spectrum is the set of distinct eigenvalues over all partitions.
# spectrum() reads it from a table of bitsets built by splitting off the
# leading part, without visiting the p(n) partitions one by one.
# T_4 already shows a hole at +-1 and +-3: not every integer in the range
# is hit.
print("Spec(T_4) =", spectrum(4).values)

# Each value's witness is the first partition in the enumeration order
# above that produces it; the oracle finds it by walking its table back.
full = spectrum(6)
for value in (15, 5, 0, -9):
    print(f"  {value:3d} witnessed by {full.witness(value)}")

# Now the graph side: the Cayley graph of Sym(4) under all 6
# transpositions.  Its adjacency operator maps class functions to class
# functions, so it acts on one number per cycle type.  Applying
# prod_{e=-6..6} (A - e) to the indicator of the identity gives zero, which
# certifies that every eigenvalue is an integer in [-6, 6]; dropping one
# factor e leaves a nonzero identity entry exactly when e is an eigenvalue.
# No floats and no partition formula are involved, yet the two agree.
print("Cayley   :", cayley_spectrum(4).values)
print("partition:", spectrum(4).values)

# The spectrum also accepts a cap on the parts, which is how restricted
# tails are searched later.
narrow = spectrum(6, EnumerationConstraints(max_first_part=2))
print("Spec restricted to parts <= 2:", narrow.values)

# Spectra for larger n reveal genuine gaps inside [-n, n]: T_18 misses 4.
print("4 in Spec(T_18):", 4 in spectrum(18))
print("5 in Spec(T_18):", 5 in spectrum(18))
