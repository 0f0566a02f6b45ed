"""The package's re-exports: every name resolves, from a fresh interpreter
too, to the object its defining module binds."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gsp4hodge

#: The names the package exports, by module: those of its first release but
#: the character API listed in REMOVED.
EXPORTED = {
    "errors": "ConstraintViolated DegenerateIntersection DivisionByZero GSp4Error InconsistentData"
    " InvalidData InvalidIndexSet LedgerInconsistent NotALine NotSymplectic ParseError",
    "extledger": "AddChar Constituent all_constituents check_ledger constituent_of constituents"
    " ell_map hom_space hom_space_dim socle_constituents socle_diagram",
    "hecke": "FrobeniusData HeckeData classicality_classify hecke_charpoly ideal_generators",
    "kernel": "EigenlineGrid eigenline_grid glue_subspace jbar_matrix jbar_rank kernel_basis"
    " l_invariant_plane matrix_suite nu_operator recover_parameters",
    "phimodule": "HodgeFlag PhiModuleData admissible_refinements general_position"
    " standard_filtration validate weak_admissibility",
    "scalars": "Poly2 RatFunc is_zero padic_val parse_scalar scalar_str",
    "symplectic": "J Flag Subspace adjoint flag_anisotropy_check lie_membership s_involution similitude",
    "weyl": "S0 S1 S2 W_ALL W_ID CocharTuple L_map Weight WeylElem"
    " check_involution from_oneline from_word pairing weyl_act",
}
#: Names of the first release that no command used, with the module that defined them.
REMOVED = {
    "errors": "VariantMismatch",
    "phimodule": "refinement_parameters",
    "scalars": "field_arith",
    "weyl": "QpChar TChar build_char dot_action",
}
NAMES = [(module, name) for module, names in EXPORTED.items() for name in names.split()]
SRC = str(Path(gsp4hodge.__file__).resolve().parent.parent)


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_name_resolves_to_its_definition(module, name):
    defined = getattr(importlib.import_module(f"gsp4hodge.{module}"), name)
    assert getattr(gsp4hodge, name) is defined
    namespace = {}
    exec(f"from gsp4hodge import {name}", namespace)
    assert namespace[name] is defined


def test_all_lists_every_name():
    assert sorted(gsp4hodge.__all__) == sorted(name for _, name in NAMES)
    assert set(gsp4hodge.__all__) <= set(dir(gsp4hodge))


def test_fresh_interpreter_imports_lazily():
    """In a new process, importing the package loads no module of it, and
    each `from gsp4hodge import name` then gives the defining module's object."""
    script = (
        "import importlib, json, sys\n"
        "import gsp4hodge\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('gsp4hodge.'))\n"
        "same = []\n"
        "for module, name in json.loads(sys.argv[1]):\n"
        "    exec(f'from gsp4hodge import {name}')\n"
        "    same.append(eval(name) is getattr(importlib.import_module('gsp4hodge.' + module), name))\n"
        "print(json.dumps([loaded, all(same), len(same)]))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", script, json.dumps(NAMES)], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == [[], True, len(NAMES)]


def test_removed_names_are_gone():
    for module, names in REMOVED.items():
        for name in names.split():
            with pytest.raises(AttributeError, match=name):
                getattr(gsp4hodge, name)
            with pytest.raises(ImportError):
                exec(f"from gsp4hodge import {name}", {})
            assert not hasattr(importlib.import_module(f"gsp4hodge.{module}"), name)
            assert name not in gsp4hodge.__all__


def test_unknown_name():
    with pytest.raises(AttributeError, match="no_such_name"):
        gsp4hodge.no_such_name
    with pytest.raises(ImportError):
        exec("from gsp4hodge import no_such_name", {})


def test_version():
    assert gsp4hodge.__version__ == "0.1.0"


def test_annotations_resolve():
    """typing.get_type_hints resolves the annotations of every function,
    class and method each module defines, with the names a module imports
    only for type checkers bound as a type checker binds them.  The package
    is imported twice in a fresh interpreter: first to load the standard
    library as usual, then anew with typing.TYPE_CHECKING set."""
    script = (
        "import inspect, json, pkgutil, sys, typing\n"
        "import gsp4hodge\n"
        "names = [m.name for m in pkgutil.iter_modules(gsp4hodge.__path__)]\n"
        "for name in names:\n"
        "    __import__('gsp4hodge.' + name)\n"
        "for name in [m for m in sys.modules if m.startswith('gsp4hodge')]:\n"
        "    del sys.modules[name]\n"
        "typing.TYPE_CHECKING = True\n"
        "checked, failed = 0, []\n"
        "def check(label, obj):\n"
        "    global checked\n"
        "    checked += 1\n"
        "    try:\n"
        "        typing.get_type_hints(obj)\n"
        "    except Exception as err:\n"
        "        failed.append(f'{label}: {type(err).__name__}: {err}')\n"
        "def members(cls):\n"
        "    for key, attr in vars(cls).items():\n"
        "        if isinstance(attr, (staticmethod, classmethod)):\n"
        "            attr = attr.__func__\n"
        "        if isinstance(attr, property):\n"
        "            attr = attr.fget\n"
        "        if inspect.isfunction(inspect.unwrap(attr)):\n"
        "            yield key, attr\n"
        "for name in names:\n"
        "    module = __import__('gsp4hodge.' + name, fromlist=['_'])\n"
        "    for key, obj in vars(module).items():\n"
        "        if getattr(obj, '__module__', None) != module.__name__:\n"
        "            continue\n"
        "        if inspect.isclass(obj):\n"
        "            check(f'{name}.{key}', obj)\n"
        "            for attr, fn in members(obj):\n"
        "                check(f'{name}.{key}.{attr}', fn)\n"
        "        elif inspect.isfunction(inspect.unwrap(obj)):\n"
        "            check(f'{name}.{key}', obj)\n"
        "print(json.dumps([checked, failed]))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    checked, failed = json.loads(out.stdout)
    assert checked > 200 and failed == []
