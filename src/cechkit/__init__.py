"""Well-separated simplicial decompositions, approximate Cech filtrations,
minimum-enclosing-ball coresets, and GF(2) persistent homology."""

from .errors import CechkitError, DegenerateInput, InvalidInput, ParseError
from .geometry import Ball, MebResult, diam, expand, meb, meb_of_cells
from .quadtree import Cell, NormalizedCloud, Quadtree, build, normalize, qcell
from .wspd import WSPD, WSPair, build_wspd, is_well_separated
from .wssd import (
    WSSD,
    WST,
    build_wssd,
    grid_height_for,
    simplices_of,
    wst_ball_property_check,
)
from .complexes import (
    Filtration,
    cech_filtration,
    check_completion_sandwich,
    completion,
    rips_filtration,
)
from .homology import (
    PersistenceDiagram,
    SComplex,
    Tower,
    VertexMap,
    check_contiguous,
    filtration_tower,
    persist_filtration,
    tower_diagram,
)
from .diagram import bottleneck_log, is_c_approximation
from .coreset import (
    delta,
    jung_check,
    meb_coreset,
    r_k,
    radius_coreset_greedy,
    radius_coreset_min,
)
from .approx import (
    ScaleParams,
    build_A,
    build_tower,
    map_g,
    map_phi,
    map_psi,
    scale_params,
    tower_scale_range,
)

__version__ = "0.1.0"
