"""twistlab: exact computable invariants.

Periodic continued fractions of real quadratic numbers, Morita
equivalence and isomorphism of noncommutative-torus parameters,
stationary dimension groups with decidable positivity, and
elliptic-curve twists over Q with the two-level isomorphism dichotomy.

The five layers load on first use.  Importing the package registers
each of them in sys.modules and as an attribute through
importlib.util.LazyLoader, and a layer's body runs when one of its
attributes is first read; the names in __all__ resolve the same way,
through the module __getattr__ (PEP 562).  The domain errors of every
layer live in twistlab.errors, which loads no layer.
"""

import importlib.util
import sys

__version__ = "0.1.0"

_EXPORTS = {
    "surd": ("QuadraticSurd", "parse_surd", "format_surd"),
    "contfrac": ("FiniteCF", "EventuallyPeriodicCF", "expand_rational", "expand_surd",
                 "value_of", "convergents", "canonical_rotation"),
    "torus": ("TorusParameter", "UnimodularWitness", "apply_mobius", "isomorphic",
              "morita_equivalent", "sl2_witness", "morita_invariant"),
    "dimgroup": ("StationaryDimensionGroup", "K0Element", "Positivity", "from_matrix",
                 "from_cf_period", "is_positive", "rank2_slope", "rank2_morita_equivalent"),
    "elliptic": ("EllipticCurve", "TwistParameter", "j_invariant", "twist",
                 "c_isomorphic", "q_isomorphic", "twist_between"),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = list(_LAYER_OF)


def _lazy(layer: str):
    """The layer's module, registered in sys.modules with its body not yet run."""
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


surd, contfrac, torus, dimgroup, elliptic = map(_lazy, _EXPORTS)


def __getattr__(name: str):
    if name not in _LAYER_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(globals()[_LAYER_OF[name]], name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
