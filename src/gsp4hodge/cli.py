"""Command-line front end.

Every command reads an optional JSON document (``--input path`` or ``-``
for stdin), dispatches to the library, and emits a deterministic report:

    {"command": ..., "status": "ok"|"invalid"|"degenerate",
     "payload": {...}, "citations": [...]}

as JSON (default), plain text, or DOT where a graph makes sense.  Exit
codes: 0 ok, 2 invalid input, 3 degenerate parameters.  Bad arguments and
an input that cannot be read or decoded print the same report as JSON,
with status invalid.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction as Q

from .errors import (
    DegenerateIntersection,
    DegreeCapExceeded,
    InconsistentData,
    InvalidData,
    LedgerInconsistent,
    NotALine,
    ParseError,
)
from .scalars import parse_boolean, parse_integer, parse_list, parse_scalar, required_field, scalar_str

EXIT_OK, EXIT_INVALID, EXIT_DEGENERATE = 0, 2, 3

#: The most points one recover sweep round-trips (about 0.25 ms each on 2 shared CPUs).
MAX_RECOVER_COUNT = 10_000

_STATUS_EXIT = {"ok": EXIT_OK, "invalid": EXIT_INVALID, "degenerate": EXIT_DEGENERATE}


def _rows_strs(rows):
    return [[scalar_str(x) for x in row] for row in rows]


def _finite_number(text: str) -> float:
    """A JSON number as a float; NaN, Infinity and overflowing literals are rejected."""
    value = float(text)
    if not math.isfinite(value):
        raise ParseError(f"non-finite number {text}")
    return value


def _parse_json(raw: str, what: str):
    """JSON text as a value; anything unreadable is a ParseError naming what."""
    try:
        return json.loads(raw, parse_float=_finite_number, parse_constant=_finite_number)
    except ParseError:
        raise  # a non-finite number, rejected by _finite_number
    except ValueError as exc:  # malformed JSON, or an integer past Python's digit limit
        raise ParseError(f"{what} is not JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError(f"{what} nests too deeply") from exc


def _load_document(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        if path == "-":
            raw = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                raw = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read input: {exc}") from exc
    doc = _parse_json(raw, "input")
    if isinstance(doc, dict) and doc.get("schema", 1) != 1:
        raise ParseError(f"unsupported schema version {doc.get('schema')}")
    return doc


def _is_symbolic(doc: dict, args) -> bool:
    """Whether a document's scalars live in Q(a,b): its symbolic field or --symbolic."""
    return parse_boolean(doc.get("symbolic", False)) or args.symbolic


def _report(command: str | None, status: str, payload) -> dict:
    """A report; command is None only for argv that names no command."""
    return {
        "command": command,
        "status": status,
        "payload": payload,
        "citations": COMMANDS[command][1] if command else [],
    }


# ---------------------------------------------------------------------------
# Command handlers: each returns a report dict.  A handler imports the
# library modules it uses when it runs, so a cold process loads only those.
# ---------------------------------------------------------------------------


def run_validate(doc, args):
    from .phimodule import phi_module_from_json, validate
    d = phi_module_from_json(doc, _is_symbolic(doc, args))
    report = validate(d)
    return _report("validate", "ok" if report.ok else "invalid", report.as_dict())


def run_flag(doc, args):
    from .phimodule import phi_module_from_json, standard_filtration
    d = phi_module_from_json(doc, _is_symbolic(doc, args))
    hf = standard_filtration(d)
    # Both facts hold at every point standard_filtration accepts, certified over
    # Q(a, b) by test_standard_flag_is_anisotropic and
    # test_hodge_flag_in_general_position (tests/test_kernel.py, TestCertificate).
    payload = {
        "members": {str(i): _rows_strs(hf.member(i).rows) for i in (1, 2, 3)},
        "jumps": list(hf.jumps),
        "anisotropic": True,
        "general_position": True,
    }
    return _report("flag", "ok", payload)


def run_kernel(doc, args):
    from .kernel import kernel_basis
    from .phimodule import hodge_parameters
    a, b = hodge_parameters(doc, _is_symbolic(doc, args))
    K = kernel_basis(a, b)
    payload = {
        "a": scalar_str(a),
        "b": scalar_str(b),
        "rank": K.ambient - K.dim,
        "dim": K.dim,
        "basis": _rows_strs(K.rows),
    }
    return _report("kernel", "ok", payload)


def _kernel_from_doc(doc, args):
    from .symplectic import Subspace
    symbolic = _is_symbolic(doc, args)
    rows = tuple(
        tuple(parse_scalar(str(x), symbolic) for x in parse_list(row))
        for row in parse_list(doc["kernel"])
    )
    if any(len(r) != 24 for r in rows):
        raise ParseError("kernel rows must have 24 entries")
    return Subspace(rows=rows, ambient=24)


def _round_trip(a, b):
    """(a, b) read back from a new tuple of the kernel rows there, so that
    recovery reads the point off and compares every cell."""
    from .kernel import kernel_basis, recover_parameters
    from .symplectic import Subspace
    return recover_parameters(Subspace(rows=(*kernel_basis(a, b).rows,), ambient=24))


def run_recover(doc, args):
    from .kernel import recover_parameters
    from .phimodule import hodge_parameters, vanishing_factor
    if "count" in doc or args.random:
        import random
        count = parse_integer(doc.get("count", args.random))
        if count < 0:
            raise InvalidData(f"recover count must be nonnegative, got {count}")
        if count > MAX_RECOVER_COUNT:
            raise InvalidData(f"recover count must be at most {MAX_RECOVER_COUNT}, got {count}")
        rng = random.Random(args.seed)
        results = []
        for _ in range(count):
            while True:
                a = Q(rng.randint(-9, 9), rng.randint(1, 5))
                b = Q(rng.randint(-9, 9), rng.randint(1, 5))
                if vanishing_factor(a, b) is None:
                    break
            got = _round_trip(a, b)
            results.append(
                {"a": scalar_str(a), "b": scalar_str(b), "round_trip": got == (a, b)}
            )
        all_ok = all(r["round_trip"] for r in results)
        payload = {"count": count, "seed": args.seed, "all_ok": all_ok, "results": results}
        return _report("recover", "ok" if all_ok else "degenerate", payload)

    if "kernel" in doc:
        K = _kernel_from_doc(doc, args)
        a, b = recover_parameters(K)
        payload = {"a": scalar_str(a), "b": scalar_str(b), "source": "kernel-basis"}
        return _report("recover", "ok", payload)

    a, b = hodge_parameters(doc, _is_symbolic(doc, args))
    got_a, got_b = _round_trip(a, b)
    round_trip = (got_a, got_b) == (a, b)
    payload = {
        "a": scalar_str(got_a),
        "b": scalar_str(got_b),
        "round_trip": round_trip,
        "source": "parameters",
    }
    return _report("recover", "ok" if round_trip else "degenerate", payload)


def run_glue(doc, args):
    from .kernel import glue_generators, glue_subspace
    glue = glue_subspace()
    payload = {
        "generator_count": len(glue_generators()),
        "dim": glue.dim,
        "basis": _rows_strs(glue.rows),
    }
    return _report("glue", "ok", payload)


def run_matrices(doc, args):
    from .kernel import matrix_suite
    from .phimodule import hodge_parameters
    a, b = hodge_parameters(doc, _is_symbolic(doc, args))
    suite = matrix_suite(a, b)
    payload = {name: _rows_strs(M) for name, M in suite.items()}
    payload["basis"] = "filtration basis (v1, v2, v3, v4)"
    return _report("matrices", "ok", payload)


def run_ledger(doc, args):
    from .extledger import check_ledger
    try:
        report = check_ledger()
    except LedgerInconsistent as exc:
        return _report("ledger", "invalid", exc.report.as_dict())
    return _report("ledger", "ok", report.as_dict())


def run_socle(doc, args):
    from .extledger import socle_diagram
    from .weyl import from_oneline, from_word
    kind = doc.get("kind", getattr(args, "kind", None))
    if kind is None:
        raise ParseError("socle needs a diagram kind: PS1, pi1 or pimin")
    w = None
    w_text = doc.get("w", getattr(args, "w", None))
    if w_text:
        w_text = str(w_text)
        if w_text.startswith("["):
            perm = _parse_json(w_text, "one-line Weyl element")  # a list: the text starts with "["
            w = from_oneline([parse_integer(x) for x in perm])
        else:
            w = from_word(w_text)
    diagram = socle_diagram(kind, w)
    return _report("socle", "ok", {"kind": diagram.kind, "layers": diagram.layer_labels()})


def run_hecke(doc, args):
    from .hecke import FrobeniusData, HeckeData, hecke_charpoly, ideal_generators
    if "c0" in doc:
        d = HeckeData(
            l=parse_integer(required_field(doc, "l")),
            c0=parse_scalar(str(doc["c0"])),
            c1=parse_scalar(str(required_field(doc, "c1"))),
            c2=parse_scalar(str(required_field(doc, "c2"))),
        )
        f = hecke_charpoly(d)
        back = ideal_generators(f, d.l)
        payload = {
            "charpoly": [scalar_str(x) for x in (Q(1),) + f.coeffs],
            "sim": scalar_str(f.sim),
            "round_trip": back == d,
        }
        return _report("hecke", "ok", payload)
    if "coeffs" in doc:
        f = FrobeniusData(
            coeffs=tuple(parse_scalar(str(x)) for x in parse_list(doc["coeffs"])),
            sim=parse_scalar(str(required_field(doc, "sim"))),
        )
        d = ideal_generators(f, parse_integer(required_field(doc, "l")))
        payload = {
            "c0": scalar_str(d.c0),
            "c1": scalar_str(d.c1),
            "c2": scalar_str(d.c2),
            "round_trip": hecke_charpoly(d) == f,
        }
        return _report("hecke", "ok", payload)
    raise ParseError("hecke document needs either c0/c1/c2 or coeffs/sim")


def run_classify(doc, args):
    from .hecke import classicality_classify
    report = classicality_classify(
        alphas=[parse_scalar(str(x)) for x in parse_list(required_field(doc, "alphas"))],
        weights=[parse_integer(x) for x in parse_list(required_field(doc, "weights"))],
        p=parse_integer(required_field(doc, "p")),
        C=parse_scalar(str(required_field(doc, "C"))),
    )
    return _report("classify", "ok", report.as_dict())


#: Each command's handler and the stable anchor names for what it
#: exercises.  batch has no handler here: it dispatches the other commands.
COMMANDS = {
    "validate": (run_validate, ["structural-invariants", "nondegeneracy-polynomial"]),
    "flag": (run_flag, ["standard-filtration", "flag-anisotropy"]),
    "kernel": (run_kernel, ["tangent-map-kernel", "borel-rank"]),
    "recover": (run_recover, ["hodge-parameter-recovery", "tangent-map-kernel"]),
    "glue": (run_glue, ["parabolic-gluing"]),
    "matrices": (run_matrices, ["generator-matrix-suite"]),
    "ledger": (run_ledger, ["dimension-ledger"]),
    "socle": (run_socle, ["socle-layers", "constituent-combinatorics"]),
    "hecke": (run_hecke, ["frobenius-charpoly", "hecke-ideal-generators"]),
    "classify": (run_classify, ["classicality-bounds", "refinement-partial-sums"]),
    "batch": (None, ["batch-dispatch"]),
}


def dispatch(command: str, doc: dict, args) -> tuple[dict, int]:
    """Run one command; returns (report, exit_code)."""
    try:
        if not isinstance(doc, dict):
            raise ParseError(f"{command} needs a JSON object, not {type(doc).__name__}")
        report = COMMANDS[command][0](doc, args)
    except (ParseError, InvalidData, InconsistentData, DegreeCapExceeded) as exc:
        report = _report(command, "invalid", {"error": str(exc) or repr(exc)})
    except (DegenerateIntersection, NotALine) as exc:
        report = _report(command, "degenerate", {"error": str(exc)})
    return report, _STATUS_EXIT[report["status"]]


def run_batch(doc, args) -> tuple[dict, int]:
    if not isinstance(doc, list):
        raise ParseError("batch input must be a JSON list of documents")
    results = []
    worst = EXIT_OK
    for item in doc:
        if not isinstance(item, dict) or "command" not in item:
            results.append(_report("batch", "invalid", {"error": "missing command"}))
            worst = max(worst, EXIT_INVALID)
            continue
        command = item["command"]
        if not isinstance(command, str) or COMMANDS.get(command, (None,))[0] is None:
            results.append(_report("batch", "invalid", {"error": f"unknown command {command!r}"}))
            worst = max(worst, EXIT_INVALID)
            continue
        sub, code = dispatch(command, item.get("doc", {}), args)
        results.append(sub)
        worst = max(worst, code)
    return _report("batch", "ok" if worst == EXIT_OK else ("invalid" if worst == EXIT_INVALID else "degenerate"), {"results": results}), worst


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def render(report: dict, fmt: str) -> str:
    socle = report["payload"] if report["command"] == "socle" and report["status"] == "ok" else None
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2)
    if fmt == "dot":
        if socle is None:
            raise ParseError("dot output is only available for socle diagrams")
        return _socle_dot(socle)
    # text
    lines = [f"command: {report['command']}", f"status: {report['status']}"]
    if socle is not None:
        lines.append(f"socle diagram: {socle['kind']}")
        lines.extend(f"  layer {depth}: " + " | ".join(layer) for depth, layer in enumerate(socle["layers"]))
    else:
        lines.extend(_text_lines(report["payload"], indent="  "))
    lines.append("citations: " + ", ".join(report["citations"]))
    return "\n".join(lines)


def _socle_dot(payload: dict) -> str:
    """A socle report's layers of labels as a DOT graph, socle at the
    bottom, with an edge from each node to every node one layer up."""
    kind, layers = payload["kind"], payload["layers"]
    lines = [f'digraph "{kind}" {{', "  rankdir=BT;"]
    lines.extend(f'  n{d}_{k} [label="{label}"];' for d, layer in enumerate(layers) for k, label in enumerate(layer))
    lines.extend(
        f"  n{d}_{i} -> n{d + 1}_{j};"
        for d in range(len(layers) - 1)
        for i in range(len(layers[d]))
        for j in range(len(layers[d + 1]))
    )
    lines.append("}")
    return "\n".join(lines)


def _text_lines(value, indent=""):
    out = []
    if isinstance(value, dict):
        for key in sorted(value):
            sub = value[key]
            if isinstance(sub, (dict, list, tuple)):
                out.append(f"{indent}{key}:")
                out.extend(_text_lines(sub, indent + "  "))
            else:
                out.append(f"{indent}{key}: {sub}")
    elif isinstance(value, (list, tuple)):
        simple = all(not isinstance(x, (dict, list, tuple)) for x in value)
        if simple:
            out.append(f"{indent}[" + ", ".join(str(x) for x in value) + "]")
        else:
            for x in value:
                out.extend(_text_lines(x, indent + "  "))
    else:
        out.append(f"{indent}{value}")
    return out


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors raise ParseError, so that main
    reports them like any other invalid input."""

    def error(self, message):
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="gsp4hodge",
        description="Exact computations around symplectic Hodge parameters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)  # each an _ArgumentParser too
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--format", choices=("json", "text", "dot"), default="json")
        p.add_argument("--input", default=None, help="JSON document path or - for stdin")
        p.add_argument("--symbolic", action="store_true", help="work over Q(a,b)")
        p.add_argument("--seed", type=int, default=0, help="seed for random sweeps")
        if name == "socle":
            p.add_argument("kind", nargs="?", choices=("PS1", "pi1", "pimin"))
            p.add_argument("--w", default=None, help="Weyl word like s1s2 or one-line [2,1,4,3]")
        if name == "recover":
            p.add_argument("--random", type=int, default=0, help="round-trip this many random points")
    parser.set_defaults(random=0)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the command a report on bad argv names: the first argument, if it is one
    command = argv[0] if argv and argv[0] in COMMANDS else None
    try:
        args = build_parser().parse_args(argv)
        command = args.command
        doc = _load_document(args.input)
        if command == "batch":
            report, code = run_batch(doc, args)
        else:
            report, code = dispatch(command, doc, args)
        text = render(report, args.format)
    except ParseError as exc:
        # bad argv, an unreadable document, or a format the report lacks
        report = _report(command, "invalid", {"error": str(exc)})
        text, code = render(report, "json"), EXIT_INVALID
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # The reader closed stdout early.  Point stdout at devnull so the
        # flush at exit does not raise again (see the SIGPIPE note in the
        # signal module's documentation).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
