"""The package's re-exports: every name resolves, from a fresh interpreter
too, to the object its defining module binds; every callable among them
meets a wrong-typed argument with a TypeError or a library error, and
every TypeError of the package is raised by its one type gate."""

import ast
import importlib
import inspect
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gsp4hodge
from gsp4hodge.errors import GSp4Error

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


CALLABLES = [name for name in gsp4hodge.__all__ if callable(getattr(gsp4hodge, name))]
_P = st.sampled_from((-2, 0, 1, 4))  # p that is negative, zero, a unit and not prime
_LEAF = st.one_of(st.floats(), st.booleans(), st.none(), st.text(max_size=3), _P)
_KEY = st.one_of(_P, st.text(max_size=2), st.none(), st.lists(_P, max_size=3).map(tuple))
_ARG = st.recursive(
    _LEAF,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple), st.dictionaries(_KEY, inner, max_size=2)
    ),
    max_leaves=12,
)
CALL_SECONDS = 5


def _arity_range(f) -> range:
    """The positional argument counts f takes: a record's fields, with or
    without their defaults, or its signature's parameters."""
    defaults = getattr(f, "_defaults", None)
    if defaults is not None:
        return range(len(f.__slots__) - len(defaults), len(f.__slots__) + 1)
    try:
        params = inspect.signature(f).parameters.values()
    except ValueError:  # an exception class: any few arguments
        return range(3)
    return range(sum(p.default is p.empty for p in params), len(params) + 1)


class _Expired(BaseException):
    pass


def _expire(signum, frame):
    raise _Expired


@pytest.mark.parametrize("name", CALLABLES)
def test_wrong_arguments_meet_a_library_error(name):
    """Drawn floats, bools, None, str, lists, tuples, dicts and p in
    {-2, 0, 1, 4}: each call returns, or raises a TypeError or a GSp4Error,
    within its time bound.  Before every record argument was gated,
    pairing, L_map, ell_map, general_position and flag_anisotropy_check
    raised AttributeError, similitude, lie_membership, adjoint,
    s_involution and CocharTuple IndexError, and nu_operator ValueError."""
    f = getattr(gsp4hodge, name)
    arities = _arity_range(f)

    @settings(max_examples=30, derandomize=True, deadline=None, database=None)
    @given(st.sampled_from(arities).flatmap(lambda n: st.lists(_ARG, min_size=n, max_size=n)))
    def call(args):
        previous = signal.signal(signal.SIGALRM, _expire)
        signal.setitimer(signal.ITIMER_REAL, CALL_SECONDS)
        try:
            f(*args)
        except (TypeError, GSp4Error):
            pass
        except _Expired:
            raise AssertionError(f"{name}{tuple(args)!r} ran past {CALL_SECONDS} s") from None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    call()


def _type_error_raisers(tree, scope) -> list:
    """The qualified names of the functions in tree that raise TypeError."""
    found = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found += _type_error_raisers(node, f"{scope}.{node.name}")
            continue
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "TypeError":
                found.append(scope)
        found += _type_error_raisers(node, scope)
    return found


def test_one_type_gate():
    """scalars.require_type raises every TypeError of a wrong-typed value,
    naming the types from the tuple it is given, and Value.__init__ keeps
    its arity error; no registry of kinds comes back."""
    raisers, registry = [], []
    for path in sorted(Path(SRC, "gsp4hodge").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        raisers += _type_error_raisers(tree, path.stem)
        names = ({getattr(n, "id", None), getattr(n, "attr", None), getattr(n, "name", None)} for n in ast.walk(tree))
        registry += [path.name for found in names if "_KINDS" in found]
    assert sorted(raisers) == ["_value.Value.__init__", "scalars.require_type"]
    assert registry == []
