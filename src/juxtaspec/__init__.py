"""juxtaspec: specifications of permutation classes, their monotone
juxtapositions, exact enumeration, and a permutation-counting oracle.

All values are immutable after construction and every operation is a pure
function, so the library is safe for concurrent use.
"""

from .expr import (
    ATOM_KINDS,
    AtomRef,
    ClassRef,
    EMPTY,
    Expr,
    Product,
    Seq,
    SpecError,
    Sum,
    Z,
    ZERO,
    ZL,
    ZLR,
    ZR,
    ZeroExpr,
    canonicalize,
)
from .spec import (
    Classification,
    Equation,
    Specification,
    SZ_NAME,
    TrackingError,
    TrackingKind,
    classify,
    inline_seq,
    make_spec,
)
from .dsl import (
    ParseError,
    parse_spec,
    render_expr,
    render_spec,
    spec_from_dict,
    spec_from_json,
    spec_to_dict,
    spec_to_json,
)
from .operators import (
    INSERTION_TAGS,
    apply_atom,
    apply_expr,
    complement,
    expand,
    expr_tracks_r,
    forget_left,
    reverse,
)
from .juxtapose import (
    TRACK_BOTH,
    TRACK_MODES,
    TRACK_NONE,
    TRACK_RIGHT,
    build_grid,
    juxtapose,
    parse_grid_pattern,
)
from .series import (
    EnumerationError,
    ProductivityReport,
    SeriesComparison,
    compare_series,
    count_series,
    format_series,
    productivity_check,
)
from .oracle import (
    Basis,
    DEC,
    INC,
    MAX_LENGTH,
    avoids_cell,
    class_counts,
    contains,
    count_class,
    greedy_cut,
    greedy_unique,
    juxt_membership,
    parse_cells,
)
from .builtins import BUILTIN_BASES, BUILTIN_SPECS, builtin_names, builtin_spec, builtin_text

__version__ = "0.1.0"
