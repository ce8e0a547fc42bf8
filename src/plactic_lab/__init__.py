"""Insertion algorithms and identity checking for five word-combinatorial monoids.

The package realizes the stalactic, taiga, sylvester, #-sylvester, and Baxter
monoids through their canonical objects (tableaux, binary search trees with
multiplicities, strict binary search trees, and pairs of trees), decides word
equivalence and identity satisfaction exactly, produces explicit derivations
over the finite identity bases, and cross-checks everything against brute
force substitution oracles.

Public names load on first use (PEP 562): _SOURCES names the submodule of
each, and importing the package alone loads none of them.  Submodules resolve
as attributes too; building an object never loads identities.py.
"""
import sys

__version__ = "0.1.0"

_SOURCES = {
    "words": ("MonoidFamily", "RankViolationError", "Word", "con", "ev", "fp", "ip", "mix"),
    "tableaux": ("StalacticTableau", "TaigaTree", "p_stal", "p_taig"),
    "bst": ("BaxterObject", "LeftStrictBST", "RightStrictBST", "p_baxt", "p_sylv",
            "p_sylv_sharp"),
    "monoids": ("alphabet_cap", "canonical", "check_rank", "equivalent"),
    "identities": ("CounterExample", "DecisionMismatchError", "Derivation", "DerivationError",
                   "DerivationStep", "Exhaustive", "HoldsWithinBound", "Identity",
                   "RandomSearch", "UnboundVariableError", "apply_substitution", "basis",
                   "derivation_certificate", "derivation_from_json", "derivation_to_json",
                   "derive_search", "find_counterexample", "invert_steps",
                   "load_identity_system", "normal_form", "normalize_derivation", "oracle",
                   "satisfies", "verdict_to_json", "verify_derivation"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = name if name in _SOURCES else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, shows in python -X importtime;
    # it binds the submodule in this module's globals
    __import__(f"{__name__}.{module}")
    source = sys.modules[f"{__name__}.{module}"]
    if name == module:
        return source
    value = globals()[name] = getattr(source, name)
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__, *_SOURCES})
