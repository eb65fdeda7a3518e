"""
Closed-form witness families
============================

Coverage proofs need an explicit partition for every target eigenvalue, not
an existence argument.  The library ships parametric families — each one a
recipe turning (n, target) into a partition — organized by which stretch of
targets they serve.  This script builds a few of each and checks them
against the oracle's spectrum table.
"""

from tnspec import (
    FAMILY_REGISTRY,
    FamilyId,
    build_family,
    eigenvalue,
    expand,
    family_targets,
    linear_segment_witness,
    spectrum,
    zero_witness,
)

# Zero first: a self-conjugate shape exists for every n except 2.
for n in (9, 10, 31):
    print(f"zero witness for n={n}: {zero_witness(n)}")

# Small targets (up to about n/2) come from hook-like shapes with long
# tails of ones; the family switches recipe at a crossover target.  The
# linear driver picks, for each target, the first registry family that
# covers it.
for lam in (0, 3, 6, 9, 12, 15):
    record = linear_segment_witness(31, lam)
    print(f"  n=31 target {lam:2d}: {record.partition}   [{record.family}]")

# Any family can also be built directly, below n = 31 too, as long as
# (n, target) is in its admissible set.  Mid-range targets use two-row
# heads over tails of twos.
shape = expand(build_family(FamilyId.S2_CASE1, 21, 13))
print(f"S2_case1 at n=21 target 13: {shape}")


def group_targets(group: str, n: int) -> list[tuple[int, str]]:
    """(target, family) for every family of one group at n."""
    return sorted(
        (lam, family.value)
        for family, spec in FAMILY_REGISTRY.items()
        if spec.group == group
        for lam in family_targets(family, n)
    )


# Near-top targets come in two sets: three values around n/2 ...
print(f"A1 rows at n=31: {group_targets('A1', 31)}")
print(f"  16 -> {linear_segment_witness(31, 16).partition}")

# ... and the last seven values n-6..n, each its own polynomial row.
print(f"A2 rows at n=31 serve {[lam for lam, _ in group_targets('A2', 31)]}")
for lam in (25, 26, 27):
    print(f"  {lam} -> {linear_segment_witness(31, lam).partition}")

# Every family re-verifies its output on construction (sum and eigenvalue),
# and each registry entry knows its own admissible targets, so sweeping the
# whole registry against the oracle is a few lines.
n = 24
full = spectrum(n)
built = 0
for family in FamilyId:
    for lam in family_targets(family, n):
        assert lam in full, (family, lam)
        built += 1
print(f"all {built} family instances at n={n} verified and present "
      f"in Spec(T_{n})")

# Records carry their lineage, and conjugating a record flips its target.
record = linear_segment_witness(31, 30)
mirror = record.conjugated()
print(f"{record.partition} covers +30; {mirror.partition} covers "
      f"{eigenvalue(mirror.partition)}  [{mirror.family}]")
