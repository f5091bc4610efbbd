"""wildcycle: exact formal-local invariants of meromorphic lambda-connections.

The package computes, for germs of meromorphic connections in the twistor
parameter family (Higgs field at z = 0, flat connection at z != 0), the
formal decomposition into exponential factors, nearby cycles with monodromy
weight data, Deligne's irregular nearby-cycle table, regularity tests, and
the Mellin-pole bookkeeping of model pairing terms -- all in exact
cyclotomic-rational arithmetic.

The public names below are resolved on first use (PEP 562), so importing
one submodule, such as ``wildcycle.cli``, does not load the others.
"""

from importlib import import_module

_EXPORTS = {
    "connection": ("ExpFactor", "LambdaConnection"),
    "cyclotomic": ("Cyc",),
    "document": ("InputDocument",),
    "exponents": ("ComplexExponent", "ell", "exponent_from_eigenvalue",
                  "star"),
    "matrices": ("LaurentMatrix",),
    "mellin": ("ExpansionTerm", "MellinPole", "mellin_poles",
               "model_orthonormal_block"),
    "nearby": ("DeligneTable", "deligne_nearby_cycles", "is_t_irreducible",
               "ramification_transport"),
    "params": ("LPoly", "ParamScalar"),
    "regular": ("NearbyCycleDatum", "RegularModel", "bernstein_product",
                "monodromy_filtration", "psi_beta", "reduce_to_constant",
                "regularity_test", "v0_lattice_fiber_dim"),
    "series": ("LaurentSeries", "ramify_series"),
    "turrittin": ("FormalDecomposition", "NewtonPolygon", "formal_decompose",
                  "leading_split", "newton_polygon", "shear",
                  "verify_decomposition"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
