"""Exact partition calculus: fusions, tree spaces, and layer homology.

The exported names load on first use (PEP 562), so importing the
package, or its command line front end, does not load the compute
modules.
"""

import sys
import types

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    "CapExceededError": "errors",
    "NotAFusionError": "errors",
    "SupportMismatchError": "errors",
    "ValidationError": "errors",
    "Partition": "partitions",
    "SetMap": "partitions",
    "all_partitions": "partitions",
    "canonicalize": "partitions",
    "image_partition": "partitions",
    "join": "partitions",
    "make_partition": "partitions",
    "meet": "partitions",
    "refinement_poset": "partitions",
    "PartitionMorphism": "fusion",
    "decompose_elementary": "fusion",
    "goodness_via_graph": "fusion",
    "is_good": "fusion",
    "is_strict_fusion": "fusion",
    "strictness_via_h1": "fusion",
    "CategoryTable": "category",
    "automorphism_group": "category",
    "aut_order_formula": "category",
    "enumerate_en": "category",
    "strict_fusions": "category",
    "verify_essentially_cofibrant": "category",
    "verify_nice_filtration": "category",
    "SimplicialMap": "simplicial",
    "SimplicialObject": "simplicial",
    "model_circle": "simplicial",
    "model_from_json": "simplicial",
    "model_interval": "simplicial",
    "model_points": "simplicial",
    "model_wedge_of_circles": "simplicial",
    "nerve": "simplicial",
    "power": "simplicial",
    "product": "simplicial",
    "quotient": "simplicial",
    "smash": "simplicial",
    "t_space": "simplicial",
    "t_space_suspension_model": "simplicial",
    "ChainComplex": "homology",
    "HomologyGroup": "homology",
    "HomologyResult": "homology",
    "chain_complex": "homology",
    "cover_acyclicity": "homology",
    "homology": "homology",
    "smith_normal_form": "homology",
    "suspension_homology": "homology",
    "bad_diagonal_cells": "powers",
    "fat_diagonal_cells": "powers",
    "power_pair": "powers",
    "CoendAssembly": "layers",
    "StratumResult": "layers",
    "coend": "layers",
    "coend_over_filtration": "layers",
    "derivative_report": "layers",
    "stratum": "layers",
    "run_checks": "verify",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    """The import system binds a submodule as an attribute of its package
    when it first loads.  The submodule `homology` shares its name with
    the exported function, so such a binding is ignored: the exported
    name stays the function in every import order."""

    def __setattr__(self, name, value):
        if name in _EXPORTS and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
