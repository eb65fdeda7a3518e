"""
Covering whole segments of the spectrum
=======================================

With the families in place, two drivers stitch them into interval coverage:
a linear segment [-n, n] for every n >= 31, and a quadratic-length segment
[y1, y2] (plus its mirror) for every n >= 48.  Both return witnesses that
re-verify on construction, so a "cover" is a finished, checkable object.
"""

from tnspec import (
    FAMILY_REGISTRY,
    FamilyId,
    conjecture_scan,
    head_interval,
    head_range,
    linear_segment_cover,
    linear_segment_witness,
    quadratic_segment_bounds,
    quadratic_segment_cover,
    quadratic_segment_witness,
)

# The linear driver gives each target in [0, n] to the first registry
# family that covers it; the groups S1, A1, S2, A2 then tile [0, n] in four
# runs.  Negative targets are reached by conjugation.
groups: dict[str, list[int]] = {}
for k in range(0, 32):
    family = linear_segment_witness(31, k).family_chain[0]
    groups.setdefault(FAMILY_REGISTRY[FamilyId(family)].group, []).append(k)
print("groups at n=31:", {group: (ks[0], ks[-1]) for group, ks in groups.items()})
for k in (0, -15, 31):
    record = linear_segment_witness(31, k)
    print(f"  k={k:3d}: {record.partition}   [{record.family}]")

# Below n = 31 the families carry no guarantee, so the linear driver reads
# the witness from the oracle's spectrum table instead.
record = linear_segment_witness(18, 5)
print(f"  n=18 k=5: {record.partition}   [{record.family}]")

# A full cover of [-31, 31]: 63 targets, no failures, and no witness ever
# needs a first part beyond (n+3)/2.
report = linear_segment_cover(31)
print(f"n=31: covered {report.covered}, failures {len(report.failures)}, "
      f"max first part {report.max_first_part}")

# The quadratic segment ends at the triangular number of the largest head
# that still leaves room for a tail.
bounds = quadratic_segment_bounds(48)
print(f"n=48: y1={bounds.y1}, y2={bounds.y2}, heads {head_range(48)}")

# Each head n1 owns a bracket of targets around its triangular number;
# consecutive brackets overlap, which is what makes the segment gap-free.
for n1 in (17, 18, 31, 32):
    low, high = head_interval(48, n1)
    print(f"  head {n1:2d} brackets [{low}, {high}]")

# A target deep inside the segment: peel off the bracketing head (the
# smallest n1 with C(n1, 2) >= k, in closed form), then take the residual
# from the linear driver, or from the oracle's table when it is below 31.
for k in (90, 496, -90):
    record = quadratic_segment_witness(48, k)
    print(f"  k={k:4d}: {record.partition}   [{record.family}]")

# The bracketing head is not always usable: k=413 brackets to head 30,
# whose residual target -4 simply does not occur in Spec(T_18).  The
# driver then tries the other admissible heads until one works.
record = quadratic_segment_witness(48, 413)
print(f"  k= 413: {record.partition}   [{record.family}]  (rescued)")

# Sweeping the whole segment at n=48: every target in [74, 496] covered.
report = quadratic_segment_cover(48)
print(f"n=48 segment: covered {report.covered}, "
      f"failures {len(report.failures)}")

# Between the two proven segments sits an open strip (n, y1).  The scan
# reports what the oracle's spectrum table holds there — at n=48 every
# value in [49, 73] is present, it just lacks a closed-form construction.
gap = conjecture_scan(48)
print(f"gap scan n=48: window {gap.segment}, present {gap.covered}, "
      f"absent {len(gap.failures)}")
