"""Asymmetric quantum cyclic codes: build, derive, verify.

Classical cyclic codes over GF(q) are identified by defining sets (unions
of cyclotomic cosets); nested pairs yield asymmetric CSS codes
[[n, k, dz/dx]]_q and asymmetric subsystem codes [[n, k, r, dz/dx]]_q, with
the two distances established by exhaustive minimum-weight search over
codeword set differences at desk scale, and by designed-distance bounds
beyond it.

Importing the package loads none of its modules: each name in `__all__` is
imported from its module on first use (PEP 562), so a CLI command compiles
only the modules it runs. The three defaults below live here, where the
parser reads them without the engine.
"""

import sys as _sys

__version__ = "0.1.0"

#: codeword enumerations allowed per minimum-weight search (also weights.DEFAULT_BUDGET)
DEFAULT_BUDGET = 1 << 28
#: the derivation routes, in search order (also search.ROUTES)
ROUTES = ("css", "extend-poly", "extend-set", "subsystem")
#: cap on the defining sets a family search enumerates (also search.DEFAULT_MAX_CODES)
DEFAULT_MAX_CODES = 4096

_HOMES = {
    "aqec": "AqecParams CorrectionCapability SubsystemParams aqec_to_subsystem "
            "build_stabilizer_matrix check_css_commutativity correction_capability css_aqec "
            "extend_by_defining_set extend_by_polynomial subsystem_euclidean "
            "subsystem_to_stabilizer trade_dimension",
    "audit": "REFERENCE_TABLE RowAudit audit_rows",
    "cyclic": "CheckMatrix CyclicCode DefiningSet bch code_sum contains from_defining_set "
              "full_space generator_matrix hamming intersect parity_check_matrix parse_code "
              "repetition rs zero_code",
    "errors": "BudgetExceeded InternalConsistencyError NotNested",
    "galois": "Field FieldElement field_of_size load_modulus_table make_field nth_root_field "
              "set_modulus_override subfield_embedding",
    "polyring": "CyclotomicCoset Polynomial cyclotomic_cosets factor_xn_minus_1 "
                "minimal_polynomial parse_poly poly_gcd render_poly",
    "search": "all_cyclic_codes search",
    "weights": "WeightReport macwilliams_transform min_weight min_weight_difference "
               "symplectic_weight weight_distribution",
}
_MODULE_OF = {name: module for module, names in _HOMES.items() for name in names.split()}
__all__ = sorted([*_MODULE_OF, "DEFAULT_BUDGET", "DEFAULT_MAX_CODES", "ROUTES"])


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})


class _Package(type(_sys)):
    """Keeps a public name bound to its value when a submodule of the same
    name (`search`) is imported, which would set the attribute to the module."""

    def __setattr__(self, name, value):
        if not (name in _MODULE_OF and isinstance(value, type(_sys))):
            super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package
