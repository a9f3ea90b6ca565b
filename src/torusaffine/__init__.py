"""Exact rational geometry on tori: lattices, lines, subtori, and the
reconstruction of affine maps from finite grid data.

The names below are loaded on first use (PEP 562), so importing the package
or one of its modules does not import the rest of it.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    name: module
    for module, names in (
        ("affine", "AffineTorusAuto"),
        (
            "collineation",
            "BudgetExceededError GroupSummary affine_group_order build_incidence "
            "collineation_group",
        ),
        ("fileformat", "TorusMapFormatError emit_torusmap parse_torusmap"),
        (
            "geometry",
            "IntersectionCount RationalLine RationalSubtorus are_parallel "
            "block_criterion contains_point grid_oracle_count "
            "intersection_count_2d intersection_points is_block "
            "line_grid_points line_hyperplane_count line_through",
        ),
        (
            "grid",
            "DiscreteLine GridMap canonical_generator enumerate_discrete_lines "
            "is_affine_perm line_points lines_through primitive_lift",
        ),
        (
            "lattice",
            "LatticeBasis hnf is_primitive is_unimodular primitive_part "
            "saturate smith_invariants snf_decomposition",
        ),
        ("properties", "PropertyReport check_paper_properties"),
        ("ratpoint", "RatPoint origin point"),
        (
            "reconstruction",
            "NonaffineCollineationError Witness infer_affine verify_line_preserving",
        ),
        (
            "subtorus",
            "ComponentDecomposition image_subtorus intersect_subtori "
            "line_as_subtorus line_subtorus_count quotient_project "
            "subtorus_span",
        ),
        ("svgfig", "SceneError render_scene"),
    )
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    # An unknown name raises AttributeError, which is also what lets
    # ``from torusaffine import geometry`` fall through to the submodule.
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
