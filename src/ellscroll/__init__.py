"""Exact engine for elliptic ruled surfaces and the scrolls they map to.

The package models the three normalized ruled-surface families over a
genus-1 curve with a finite abelian group standing in for the curve's point
group.  On top of that it provides exact linear-system analysis, an
elementary-transformation rule engine, scroll classification with
per-ambient-space tables, minimal construction plans, and a small CLI.
"""

from .errors import (
    DegenerateModel,
    EngineError,
    GroupTooLarge,
    InvalidArgument,
    InvalidPointSpec,
    InvalidSecancy,
    InvalidSurface,
    MixedGroups,
    NonNormalizedInput,
    NotBasePointFree,
    ParseError,
    SemanticError,
    UnreachableTarget,
    UnsupportedSecancy,
)
from .groups import (
    CurveGroup,
    GroupElement,
    TorusGroup,
    WeierstrassGroup,
    default_group,
)
from .picard import DivisorClass, class_of, h0, h1, point_class, trivial_class
from .surface import (
    Decomposable,
    Indec0,
    IndecMinus1,
    MinCurve,
    SurfaceDivisorClass,
    SurfaceModel,
    SurfacePointDescriptor,
    genus_adjunction,
    intersect,
    min_curves_through,
    ramification_points,
    tau,
)
from .linsys import SystemAnalysis, analyze, h0_surface, is_bpf
from .elmtrans import (
    ALL_RULES,
    ElmResult,
    Generic,
    OnX0,
    OnX1,
    Pair,
    PointSpec,
    WalkResult,
    elm,
    walk,
)
from .classify import (
    NagataPlan,
    ScrollModel,
    UnisecantFamily,
    classify_scroll,
    emit_table,
    minimality_check,
    nagata_plan,
    render_table,
    verify_plan,
)

__version__ = "1.0.0"

__all__ = [name for name in dir() if not name.startswith("_")]
