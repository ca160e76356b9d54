"""Exact configuration counting and VC-dimension audits in the plane over
a prime field, with spectral cross-checks."""

from .bounds import (
    check_par_mean,
    check_par_pair,
    check_rhom_lower,
    check_rhom_relation,
    check_unit_distance,
)
from .counting import (
    CountResult,
    FourierSplit,
    count_degenerate_rhom,
    count_par_all,
    count_par_t,
    count_rhom_t,
    count_unit_distances,
    par_t_fourier,
)
from .errors import (
    FFPlaneError,
    InvalidPair,
    InvalidRadius,
    ModulusMismatch,
    NotSubset,
    PointSetFormatError,
    ToleranceExceeded,
    ZeroInverse,
)
from .field import PrimeFieldCtx
from .fourier import check_circle_decay, circle_spectrum_closed, inverse, transform
from .geometry import (
    DifferenceTable,
    PointSet,
    circle,
    difference_table,
    full_plane,
    gen_example_line_ap,
    gen_random_set,
    intersect_shift,
    load_point_set,
    norm,
    save_point_set,
)
from .report import BoundReport
from .vc import (
    DistanceSystem,
    FailureReason,
    Witness,
    build_system,
    find_shattered,
    find_witness,
    shatters,
    vc_dimension,
    verify_witness,
)

__version__ = "0.1.0"
