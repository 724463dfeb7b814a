"""gptkit: generalized probabilistic theories at desk scale.

State spaces, effects and measurements, distinguishability and capacity,
minimal/maximal tensor products, the (2,2,2) Bell scenario, the Sorkin
interference hierarchy, and the Bloch-ball qubit, all backed by a small
deterministic LP solver.

Submodules and the names re-exported here are imported on first access
(PEP 562), so ``import gptkit`` loads neither numpy nor any submodule.
"""

from importlib import import_module as _import_module

_SUBMODULES = ("bell", "bloch", "composites", "distinguish", "errors",
               "geometry", "interference", "lp", "operators", "spaces")
_EXPORTS = {
    "bell": ("ProbTable222", "chsh", "classical_membership",
             "deterministic_tables", "expectation", "is_nonsignalling",
             "maximize_chsh_quantum", "pr_box", "quantum_table",
             "singlet_setup", "table_from_composite_state"),
    "composites": ("effect_cone_generators", "enumerate_vertices",
                   "max_tensor", "min_tensor", "product_state",
                   "reduced_state"),
    "distinguish": ("capacity", "perfectly_distinguishable"),
    "spaces": ("Effect", "LinearMap", "Measurement", "StateSpace",
               "are_equivalent", "contains_state", "is_effect", "is_pure",
               "is_reversible_transformation", "is_transformation",
               "make_ball", "make_classical", "make_gbit", "make_polytopic",
               "make_quantum"),
}
_HOME = {name: home for home, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SUBMODULES + tuple(_HOME))
__version__ = "0.1.0"


def __getattr__(name):
    # not cached here: a re-exported name is always its home module's
    # current attribute
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
