"""chamberflow: numerical Bruhat-Hopf coordinate machinery for SL(n, R).

Matrix decompositions, the full flag variety with transversality and
Bruhat cells, signed AM-cocycles, loxodromic calculus, Schottky
semigroups with limit cones and sign groups, and toral density
certificates, exposed as a library and the `chamberflow` CLI.
"""

from .linalg_core import (
    AMElement,
    CartanVector,
    Config,
    DEFAULT_CONFIG,
    GroupElement,
    IwasawaTriple,
    SignVector,
    am_distance,
    bruhat_lu,
    cartan_kak,
    iwasawa_kan,
    iwasawa_kan_minus,
    jordan_projection,
    project_to_sl,
)
from .flag_boundary import (
    Flag,
    act,
    cell_margin,
    flag_distance,
    flag_of,
    flags_equal,
    is_transverse,
    k_iota,
    opposite_flag,
    standard_flag,
)
from .sections_cocycles import (
    BHCoordinates,
    Section,
    best_section,
    cocycle,
    compact_section,
    covering_family,
    eval_section,
    from_bh,
    iwasawa_cocycle,
    to_bh,
    transition,
    unipotent_section,
)
from .loxodromy import (
    EstimateReport,
    LoxodromicData,
    REpsCertificate,
    certify_r_eps,
    classify,
    cocycle_via_jordan,
    delta_r_eps,
    extended_jordan,
    power,
    product_estimate,
    ratio,
)
from .schottky_dynamics import (
    ConeEstimate,
    SchottkyFamily,
    SignGroupReport,
    build_schottky,
    component_label_transport,
    decorrelation_discret_check,
    jordan_line_density_probe,
    limit_cone,
    sign_group,
)
from .torus_density import (
    DensityCertificate,
    TorusPoint,
    select_dense_subgroup_generators,
    semigroup_cone_density,
    verify_certificate,
)

__version__ = "0.1.0"
