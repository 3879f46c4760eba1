"""Integer group determinants of finite abelian groups.

Exact evaluation (fraction-free elimination over Z, or one rational norm
factor per Galois orbit of characters), character-product factorizations over
rings of cyclotomic integers, 2-adic divisibility checks, and exhaustive value
searches over bounded boxes.

Each exported name is imported from its module on first use (PEP 562), so
``import groupdet`` loads no submodule and a command loads only the modules
it runs.
"""

__version__ = "0.1.0"

_EXPORTS = {
    "boxes": ("box_size", "iter_box"),
    "characters": (
        "Character", "char_exponent", "char_sign", "char_value", "enumerate_characters",
    ),
    "cyclotomic": (
        "CyclotomicInt", "LevelMismatchError", "NotRationalError", "cyclotomic_polynomial",
        "euler_phi", "root_power",
    ),
    "determinant": (
        "DEFAULT_BUDGET", "BudgetExceededError", "bareiss_det", "build_group_matrix",
        "circulant_det", "convolve", "group_determinant", "two_adic_valuation",
    ),
    "divisibility": (
        "BoundCheck", "CongruenceCheck", "ExponentFact", "bound_exponent", "check_even_bound",
        "check_factor_congruence", "even_divisibility_bound", "known_even_exponent",
        "run_divisibility_suite",
    ),
    "factorization": (
        "FactorizationReport", "character_sums", "crt_transport", "dedekind_product",
        "direct_product_factors", "integer_split_factors", "laquer_agrees_with_split",
        "laquer_factors",
    ),
    "groups": (
        "AbelianGroup", "crt_decompose", "direct_product", "element_at", "enumerate_elements",
        "format_group_spec", "group_inv", "group_op", "index_of", "make_group",
        "parse_group_spec", "split_factors",
    ),
    "norms": ("norm_factors",),
    "search": (
        "CheckResult", "MembershipSpec", "SearchReport", "check_even_divisibility",
        "check_membership", "find_witness", "membership_spec", "search_values",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _MODULE_OF.keys())
