"""Exact integer spectra of transposition graphs via partition combinatorics.

T_n is the Cayley graph of Sym(n) generated by all transpositions.  This
package computes its eigenvalues exactly from integer partitions, builds
explicit witness partitions for whole segments of eigenvalues, and
re-verifies everything against an exact spectrum table, brute-force
enumeration and, for n <= 6, the exact spectrum of the Cayley graph itself.
"""

from .errors import (
    BelowConstructiveRangeError,
    FormulaOverflowError,
    HeadTooSmallError,
    IntegerRoundingError,
    InvalidArgumentError,
    NoHeadFitsError,
    NonPositivePartError,
    NotNonincreasingError,
    OutOfFamilyRangeError,
    ParityViolationError,
    PartitionError,
    SizeLimitError,
    SumMismatchError,
    TargetOutOfSegmentError,
    TnSpecError,
    WitnessNotFoundError,
    WitnessVerificationError,
)
from .families import (
    FAMILY_REGISTRY,
    FamilyId,
    FamilySpec,
    WitnessRecord,
    build_family,
    family_targets,
    zero_witness,
)
from .oracle import (
    EnumerationConstraints,
    SpectrumSet,
    cayley_spectrum,
    contains,
    enumerate_partitions,
    partition_count,
    spectrum,
)
from .partitions import (
    EMPTY_PARTITION,
    MAX_FORMULA_N,
    CompactPartition,
    Partition,
    choose2,
    compact_eigenvalue,
    conjugate,
    eigenvalue,
    eigenvalue_via_head,
    expand,
    make_partition,
)
from .segments import (
    LINEAR_MIN_N,
    QUADRATIC_MIN_N,
    CoverageReport,
    SegmentBounds,
    conjecture_scan,
    head_interval,
    head_range,
    linear_segment_cover,
    linear_segment_witness,
    quadratic_segment_bounds,
    quadratic_segment_cover,
    quadratic_segment_witness,
)
from .verify import (
    DEFAULT_CHECKS,
    FailureSample,
    VerificationReport,
    cross_check_oracle,
    format_table,
    run_checks,
    summary_dict,
    verify_family,
    verify_first_part_bounds,
    verify_linear_segment,
    verify_quadratic_segment,
)

__version__ = "0.1.0"
