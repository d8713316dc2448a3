"""Exact learning of d-monotone Boolean functions over finite lattices."""

from .boolfn import (
    ComposedTarget,
    DenseFunction,
    MonotoneDNF,
    XorHypothesis,
    chain_alternations,
    nested_disjoint_violation,
    strict_decompose,
)
from .consistent import DenseState, consistent
from .families import (
    chain_witness_check,
    parity_table,
    prefix_levels,
    random_composed,
    takimoto_family,
    tightness_family,
)
from .fileio import dumps_function, load_function, load_lattice, loads_function, save_function
from .lattice import CubeLattice, ExplicitLattice, Lattice, parse_lattice
from .learner import (
    DescentResult,
    EquivalenceOracle,
    MembershipOracle,
    QueryStats,
    counterexample_bound,
    descend_to_local_min,
    learn,
)

__version__ = "0.1.0"

__all__ = [
    "ComposedTarget",
    "CubeLattice",
    "DenseFunction",
    "DenseState",
    "DescentResult",
    "EquivalenceOracle",
    "ExplicitLattice",
    "Lattice",
    "MembershipOracle",
    "MonotoneDNF",
    "QueryStats",
    "XorHypothesis",
    "chain_alternations",
    "chain_witness_check",
    "consistent",
    "counterexample_bound",
    "descend_to_local_min",
    "dumps_function",
    "learn",
    "load_function",
    "load_lattice",
    "loads_function",
    "nested_disjoint_violation",
    "parity_table",
    "parse_lattice",
    "prefix_levels",
    "random_composed",
    "save_function",
    "strict_decompose",
    "takimoto_family",
    "tightness_family",
]
