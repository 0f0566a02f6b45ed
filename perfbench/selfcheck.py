"""Prove that the benchmark's oracles count failures.

    python3 perfbench/selfcheck.py

Run from a checkout root.  Takes real outputs of the program, checks that
the oracle accepts them, then corrupts them and checks that the oracle
scores each corruption as failed:

  * a perturbed kernel row (numeric-sweep and symbolic-generic);
  * a wrong recovered pair (numeric-sweep and symbolic-generic);
  * a wrong exit code, stdout that is not JSON, stdout that differs from
    the recorded bytes, and a traceback (cli-mix).

Exits 0 when every clean output passes and every corruption fails.
"""

import os
import sys

import oracle
import procs
from run import load_catalog


def main():
    src, work = procs.checkout_paths(os.getcwd())
    sys.path.insert(0, src)
    from fractions import Fraction as Q

    import gsp4hodge.kernel as lib
    from gsp4hodge.scalars import RatFunc

    cases = []  # (name, verdict, should_fail)

    point = (Q(-7, 3), Q(5, 2))
    K = lib.kernel_basis(*point)
    rank = lib.jbar_rank(*point)
    M = lib.jbar_matrix(*point)
    got = lib.recover_parameters(K)
    cases.append(("numeric: clean op", oracle.check_numeric(point, K.rows, rank, got, M), False))
    for i in range(K.dim):
        rows = [list(r) for r in K.rows]
        rows[i][i % 24] += 1
        cases.append((f"numeric: perturbed kernel row {i}",
                      oracle.check_numeric(point, rows, rank, got, M), True))
    wrong = (point[0] + 1, point[1])
    cases.append(("numeric: wrong recovered pair", oracle.check_numeric(point, K.rows, rank, wrong, M), True))

    one = RatFunc.const(1)
    sym = (RatFunc.var("a") + RatFunc.const(Q(1, 2)), RatFunc.var("b") * RatFunc.const(2))
    Ks = lib.kernel_basis(*sym)
    got_sym = lib.recover_parameters(Ks)
    suite = lib.matrix_suite(*sym)
    a0, b0 = oracle.EVAL_POINT
    M_eval = lib.jbar_matrix(sym[0].evaluate(a0, b0), sym[1].evaluate(a0, b0))
    cases.append(("symbolic: clean op",
                  oracle.check_symbolic(sym, one, Ks.rows, got_sym, suite, M_eval), False))
    rows = [list(r) for r in Ks.rows]
    rows[3][7] = rows[3][7] + one
    cases.append(("symbolic: perturbed kernel row 3",
                  oracle.check_symbolic(sym, one, rows, got_sym, suite, M_eval), True))
    cases.append(("symbolic: wrong recovered pair",
                  oracle.check_symbolic(sym, one, Ks.rows, (sym[0], sym[1] + one), suite, M_eval), True))

    catalog = load_catalog()
    for key in ("validate:P0", "reject-invalid:I0"):
        entry = catalog[key]
        code, out, err = procs.run_entry(entry, src, work)[:3]
        cases.append((f"cli {key}: clean output", oracle.check_cli(entry, code, out, err), False))
        cases.append((f"cli {key}: wrong exit code", oracle.check_cli(entry, code + 1, out, err), True))
        cases.append((f"cli {key}: stdout not JSON", oracle.check_cli(entry, code, out[:-2], err), True))
        cases.append((f"cli {key}: traceback", oracle.check_cli(
            entry, code, out, err + b"Traceback (most recent call last):\n"), True))
    entry = catalog["validate:P0"]
    code, out, err = procs.run_entry(entry, src, work)[:3]
    changed = out.replace(b'"ok"', b'"OK"', 1)
    cases.append(("cli validate:P0: stdout differs from the recorded bytes",
                  oracle.check_cli(entry, code, changed, err), True))

    bad = 0
    for name, why, should_fail in cases:
        good = bool(why) == should_fail
        bad += not good
        verdict = f"failed ({why})" if why else "passed"
        print(f"{'ok  ' if good else 'BAD '} {name}: scored {verdict}")
    print(f"{len(cases) - bad} of {len(cases)} self-check cases behave as expected")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
