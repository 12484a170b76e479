"""Frieze patterns from diamond arrays, Dyck paths, and triangulations.

The three carriers are connected by exact bijections: rank-n diamond
vectors map to Dyck paths of length 2(n+1) via greedy coordinate
reduction, paths map to triangulations of the (n+3)-gon via their descent
encoding, and coupling cycles of diamonds generate closed positive
integral frieze patterns whose quiddity row counts triangle incidences.
Everything is exact integer arithmetic; no floats, no tolerances.
"""

from .diamond import (
    Cycle,
    Diamond,
    check_head_form,
    complete_diamond,
    couple_next,
    cycle_heads,
    minimal_cycle,
)
from .dyck import (
    DyckPath,
    all_paths,
    catalan,
    from_v_vector,
    parse_path,
    path_rank,
    path_to_vector,
    peaks,
    reduce_coordinate,
    support,
    to_lambda,
    to_v_vector,
    unitary_shift,
    vector_to_path,
)
from .enumeration import (
    ballot_count,
    companion_vector,
    cycle_paths,
    enumerate_all,
    expand,
    seed_vector,
)
from .errors import InputError, InvariantViolation
from .frieze import (
    FriezePattern,
    frieze_of_vector,
    from_cycle,
    from_quiddity,
    period,
    render_ascii,
    to_json_dict,
    verify,
    violations,
)
from .triangulation import (
    Triangulation,
    path_to_triangulation,
    quiddity,
    realize,
    rotate,
    rotation_orbit,
    same_rotation_orbit,
    triangles,
    vector_to_triangulation,
)
from .checks import CheckResult, run_checks

__all__ = [
    "CheckResult",
    "Cycle",
    "Diamond",
    "DyckPath",
    "FriezePattern",
    "InputError",
    "InvariantViolation",
    "Triangulation",
    "all_paths",
    "ballot_count",
    "catalan",
    "check_head_form",
    "companion_vector",
    "complete_diamond",
    "couple_next",
    "cycle_heads",
    "cycle_paths",
    "enumerate_all",
    "expand",
    "frieze_of_vector",
    "from_cycle",
    "from_quiddity",
    "from_v_vector",
    "minimal_cycle",
    "parse_path",
    "path_rank",
    "path_to_triangulation",
    "path_to_vector",
    "peaks",
    "period",
    "quiddity",
    "realize",
    "reduce_coordinate",
    "render_ascii",
    "rotate",
    "rotation_orbit",
    "run_checks",
    "same_rotation_orbit",
    "seed_vector",
    "support",
    "to_json_dict",
    "to_lambda",
    "to_v_vector",
    "triangles",
    "unitary_shift",
    "vector_to_path",
    "vector_to_triangulation",
    "verify",
    "violations",
]
