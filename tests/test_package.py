"""The package namespace: every public name resolves on first use, from its
module, and the function `search` is never shadowed by its submodule."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import asymqec

SRC = Path(__file__).resolve().parent.parent / "src"

#: the names the package exported when it imported every module eagerly, by module
PUBLIC = {
    "aqec": ["AqecParams", "CorrectionCapability", "SubsystemParams", "aqec_to_subsystem",
             "build_stabilizer_matrix", "check_css_commutativity", "correction_capability",
             "css_aqec", "extend_by_defining_set", "extend_by_polynomial",
             "subsystem_euclidean", "subsystem_to_stabilizer", "trade_dimension"],
    "audit": ["REFERENCE_TABLE", "RowAudit", "audit_rows"],
    "cyclic": ["CheckMatrix", "CyclicCode", "DefiningSet", "bch", "code_sum", "contains",
               "from_defining_set", "full_space", "generator_matrix", "hamming", "intersect",
               "parity_check_matrix", "parse_code", "repetition", "rs", "zero_code"],
    "errors": ["BudgetExceeded", "InternalConsistencyError", "NotNested"],
    "galois": ["Field", "FieldElement", "field_of_size", "load_modulus_table", "make_field",
               "nth_root_field", "set_modulus_override", "subfield_embedding"],
    "polyring": ["CyclotomicCoset", "Polynomial", "cyclotomic_cosets", "factor_xn_minus_1",
                 "minimal_polynomial", "parse_poly", "poly_gcd", "render_poly"],
    "search": ["all_cyclic_codes", "search"],
    "weights": ["DEFAULT_BUDGET", "WeightReport", "macwilliams_transform", "min_weight",
                "min_weight_difference", "symplectic_weight", "weight_distribution"],
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names]


@pytest.mark.parametrize("module,name", NAMES, ids=[name for _, name in NAMES])
def test_each_public_name_is_its_modules_object(module, name):
    defining = importlib.import_module(f"asymqec.{module}")
    assert getattr(asymqec, name) is getattr(defining, name)
    assert name in asymqec.__all__
    assert name in dir(asymqec)


def test_the_defaults_are_one_object_each():
    """The parser reads the defaults from the package; the engine modules
    hold the same objects."""
    search_module = importlib.import_module("asymqec.search")
    weights = importlib.import_module("asymqec.weights")
    assert search_module.ROUTES is asymqec.ROUTES == ("css", "extend-poly", "extend-set",
                                                      "subsystem")
    assert search_module.DEFAULT_MAX_CODES is asymqec.DEFAULT_MAX_CODES == 4096
    assert weights.DEFAULT_BUDGET is asymqec.DEFAULT_BUDGET == 1 << 28
    assert {"DEFAULT_MAX_CODES", "ROUTES"} <= set(asymqec.__all__)


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from asymqec import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(asymqec.__all__)
    assert all(namespace[name] is getattr(asymqec, name) for name in asymqec.__all__)
    assert asymqec.__version__ == "0.1.0"


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        asymqec.frobnicate
    assert not hasattr(asymqec, "_MIN_CACHE")
    with pytest.raises(ImportError):
        exec("from asymqec import frobnicate", {})


@pytest.mark.parametrize("first", [
    "import asymqec.search",
    "from asymqec.search import ROUTES",
    "from asymqec import cli; cli.main(['search', '--n', '7', '--q', '2', '--max-results', '1'])",
    "import asymqec; asymqec.search; import asymqec.search",
])
def test_search_is_the_function_in_every_import_order(first):
    """Importing the submodule `asymqec.search` sets the package attribute of
    that name; in a fresh interpreter, before or after the function is first
    looked up, the function must still win."""
    probe = (f"{first}\n"
             "import asymqec, importlib\n"
             "from asymqec import search\n"
             "module = importlib.import_module('asymqec.search')\n"
             "print(type(asymqec.search).__name__, search is asymqec.search is module.search,"
             " type(module).__name__)\n")
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "function True module"
