"""Exact classification and representation theory of finite Coxeter groups.

Classifies Coxeter graphs against the full finite catalog and constructs,
for the infinite families A_n, B_n, D_n and I2(m), concrete groups together
with complete sets of irreducible characters, all in exact arithmetic.

Importing the package loads only ``classify`` and ``errors``.  Every other
name in ``__all__`` is loaded from its module on first access (PEP 562), so
a process pays only for the modules it uses: ``classify`` itself loads the
classifier (``catalog``) and its graph and arithmetic modules on its first
call.  ``classify`` stays eager, and light, since a later ``import
coxeterkit.classify`` would otherwise rebind the package's ``classify``
name to the submodule.
"""

import importlib

from .classify import TypeLabel, classify, coxeter_group_order, parse_type_label, partitions_of
from .errors import (
    CoxeterKitError,
    GuardError,
    InternalInconsistencyError,
    UnsupportedTypeError,
    ValidationError,
)

_LAZY = {
    "catalog": ("ClassificationResult", "affine_catalog", "catalog_graph", "is_positive_definite"),
    "classes": ("ClassFunction", "irreducible_characters"),
    "cyclotomic": ("Cyclotomic", "Rational", "cyclotomic_polynomial", "real_cos_pi_over"),
    "dihedral": ("DihedralElement", "dihedral_irreducibles"),
    "families": (
        "bn_conjugacy_parametrization",
        "dn_irreducibles",
        "hyperoctahedral_irreducibles",
        "symmetric_character_table",
    ),
    "groups": ("RealizedGroup", "realize", "verify_presentation"),
    "permutations": ("Permutation", "SignedPermutation", "cycle_type"),
    "reps": (
        "GroupAlgebraElement",
        "Representation",
        "Subgroup",
        "decompose",
        "direct_sum",
        "induce_character",
        "inner_product",
        "is_irreducible",
        "multiplicity",
        "natural_representation",
        "regular_representation",
        "restrict_character",
        "tensor_decompose",
        "trivial_character",
    ),
    "graphs": (
        "INFINITY",
        "CoxeterGraph",
        "CoxeterMatrix",
        "connected_components",
        "gram_matrix",
        "graph_from_matrix",
        "graph_to_json",
        "matrix_from_graph",
        "parse_graph_json",
        "subgraph",
    ),
    "linalg": ("Matrix", "determinant", "rank"),
    "roots": ("RootSystem", "compute_base", "geometric_rep", "reflect", "root_system"),
    "specht": ("row_column_groups", "specht_module", "young_symmetrizer"),
    "tableaux": (
        "BipartitionLabel",
        "DnLabel",
        "bipartitions",
        "hook_dimension",
        "partition_text",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [
    "TypeLabel",
    "classify",
    "coxeter_group_order",
    "parse_type_label",
    "partitions_of",
    "CoxeterKitError",
    "GuardError",
    "InternalInconsistencyError",
    "UnsupportedTypeError",
    "ValidationError",
    *_HOME,
]

__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
