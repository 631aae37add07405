"""Bit-packed bipartite digraphs, girth machinery, extremal constructions,
frontier classification, exhaustive search, and an inequality lab."""

from .digraph import (
    A,
    B,
    BipartiteDigraph,
    GeneralDigraph,
    Girth,
    Side,
    VertexRef,
    backward_layers,
    compliance_profile,
    distance_power,
    forward_layers,
    from_edges,
    general_from_edges,
    girth,
    is_compliant,
    star_union,
)
from .constructions import (
    ch_reduce,
    circulant,
    layered_cycle,
    offset_circulant,
    random_compliant,
    required_degrees,
)
from .frontier import (
    BadWitness,
    Status,
    Verdict,
    bad_pairs,
    classify,
    region_csv,
    region_grid,
    region_svg,
)
from .search import (
    SearchConfig,
    SearchReport,
    SearchStatus,
    automorphism_count,
    canonical_code,
    find_counterexample,
    verify_conjecture_small,
    verify_eulerian_small,
)
from .lemmas import (
    CheckReport,
    DeltaEntry,
    FactReport,
    IneqParams,
    NewineqInstance,
    appliedineq_check,
    bellsandwhistles_check,
    bigk_simplify_check,
    check_newineq,
    delta_table,
    f_value,
    fact_scan,
    newineq_bound,
    newineq_min_oracle,
    threshold_k,
)
from .audit import (AuditEntry, AuditReport, BigsetEntry, audit_bells, audit_bigindeg,
                    audit_bigset)
from .io import parse_edge_list, to_dot, to_edge_list

__version__ = "0.1.0"
