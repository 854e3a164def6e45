"""Graded homotopy of the mod-2 equivariant Eilenberg-MacLane spectrum
over cyclic 2-groups: a closed-form basis engine, Tate-row closed forms,
and a Bredon-cohomology brute-force oracle for differential testing.

Importing the package loads no submodule: each exported name, and each
submodule named in `__all__`, is imported on first access (PEP 562), so a
caller pays only for the modules it uses.
"""

# the names each submodule exports at package level; gf2 exports only itself
_EXPORTS = {
    "reps": ("Degree", "DegreeError", "make_degree", "underlying_dim", "fixed_dim",
             "restrict", "pullback_eps", "parse_degree", "format_degree"),
    "monomial": ("Monomial", "MonomialError", "degree_of", "multiply", "is_gold_zero",
                 "positive_cone_basis", "parse_monomial", "format_monomial"),
    "engine": ("AnswerBasis", "BasisElement", "basis", "dimension", "part2", "part2_closed",
               "part3", "part4", "part_pos", "d_divisible", "summand_count", "summand_audit"),
    "tate": ("group_cohomology_dim", "hh_basis", "ht_basis", "hb_basis", "perp_hb_basis"),
    "duality": ("dual_degree", "dual_monomial", "duality_scan", "lambda_class"),
    "oracle": ("BudgetExceededError", "MackeyAnswer", "oracle_pi", "oracle_top_dim",
               "verify_lemma_kernel"),
    "gf2": (),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's own hook (unlike importlib.import_module), so
    # `python -X importtime` lists the submodule; it binds it in globals()
    __import__(f"{__name__}.{module}")
    value = globals()[module]
    if name != module:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
