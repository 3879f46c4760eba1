"""Integer group determinants of finite abelian groups.

Exact evaluation (fraction-free elimination over Z, or one rational norm
factor per Galois orbit of characters), character-product factorizations over
rings of cyclotomic integers, 2-adic divisibility checks, and exhaustive value
searches over bounded boxes.
"""

from .boxes import DEFAULT_BUDGET, BudgetExceededError, box_size, iter_box
from .characters import Character, char_exponent, char_sign, char_value, enumerate_characters
from .cyclotomic import (
    CyclotomicInt,
    LevelMismatchError,
    NotRationalError,
    cyclotomic_polynomial,
    euler_phi,
    root_power,
)
from .determinant import (
    bareiss_det,
    build_group_matrix,
    circulant_det,
    convolve,
    group_determinant,
)
from .divisibility import (
    BoundCheck,
    CongruenceCheck,
    ExponentFact,
    bound_exponent,
    check_even_bound,
    check_factor_congruence,
    even_divisibility_bound,
    known_even_exponent,
    run_divisibility_suite,
    two_adic_valuation,
)
from .factorization import (
    FactorizationReport,
    character_sums,
    crt_transport,
    dedekind_product,
    direct_product_factors,
    integer_split_factors,
    laquer_agrees_with_split,
    laquer_factors,
)
from .groups import (
    AbelianGroup,
    crt_decompose,
    direct_product,
    element_at,
    enumerate_elements,
    format_group_spec,
    group_inv,
    group_op,
    index_of,
    make_group,
    parse_group_spec,
    split_factors,
)
from .norms import norm_factors
from .search import (
    CheckResult,
    MembershipSpec,
    SearchReport,
    check_even_divisibility,
    check_membership,
    find_witness,
    membership_spec,
    search_values,
)

__version__ = "0.1.0"
