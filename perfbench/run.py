"""gsp4hodge benchmark: three seeded workloads, checked outputs, and a
traced run with per-module layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Workloads (see perfbench/README.md for why each was chosen):

  numeric-sweep     kernel_basis -> jbar_rank -> recover_parameters at
                    rational points, half of low height, half tall
  symbolic-generic  kernel_basis -> recover_parameters -> matrix_suite at
                    generic points (a + c1, c2*b + c3) over Q(a, b)
  cli-mix           one cold ``gsp4hodge`` process per op over all eleven
                    commands and the inputs that must be rejected

One client, closed loop, no threads: every child process runs alone.
Human-readable lines come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
--trace 0 the metrics are the end-to-end ones, measured untraced; with
--trace 1 they are the per-layer ones from a separate traced run.
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time

import calib
import inputs
import oracle
import procs
import tracer

WORKLOADS = ("numeric-sweep", "symbolic-generic", "cli-mix")

#: Fresh interpreters per run: each measures set-up once; `setup_s` is
#: their median.  In-process workloads split the timed seconds among them.
#: A symbolic set-up holds a 4-s warm-up op, so that workload affords
#: only three; a numeric set-up or a cold import costs under 0.5 s.
SETUP_REPEATS = {"numeric-sweep": 9, "symbolic-generic": 3, "cli-mix": 9}

# Times reported as metrics are CPU seconds of the process doing the work,
# rescaled to a nominal machine speed (calib.py).  The program is
# single-threaded, so on an idle machine CPU time equals its wall time; on
# a shared virtual machine wall time also holds the time the hypervisor
# gives the CPU to others, which is not the program's cost.  Raw CPU and
# wall figures are printed on the report lines.


# ---------------------------------------------------------------------------
# Running the workloads
# ---------------------------------------------------------------------------


def run_inprocess(workload, seed, seconds, trace, src, work):
    """Run the workload's SETUP_REPEATS worker processes one after another."""
    setups, setups_wall, ops, peaks, snap = [], [], [], [], {}
    workers = SETUP_REPEATS[workload]
    for part in range(workers):
        argv = [os.path.join(procs.BENCH_DIR, "worker.py"), workload, str(seed), str(part),
                repr(seconds / workers), "1" if trace else "0"]
        ref_before = calib.reference_cpu()
        spawned = time.monotonic()
        child = procs.run_child(argv, src, work)
        if child.code != 0:
            sys.stderr.write(child.err.decode("utf-8", "replace"))
            raise SystemExit(f"perfbench: {workload} worker exited with {child.code}")
        res = json.loads(child.out.decode("utf-8").splitlines()[-1])
        peaks.append(child.peak_kb)
        if not os.path.realpath(res["program"]).startswith(os.path.realpath(src)):
            raise SystemExit(f"perfbench: worker imported {res['program']}, not the checkout")
        if res["warmup_failed"]:  # counted as a failed op that took no timed time
            ops.append({"cls": "warmup", "s": 0.0, "cpu": 0.0, "ref": [calib.REFERENCE_S] * 2,
                        "traced": False, "failed": res["warmup_failed"]})
        setups.append({"cpu": res["first_op_cpu"], "ref": [ref_before, res["setup_ref"]]})
        setups_wall.append(res["first_op_at"] - spawned)
        ops.extend(res["ops"])
        if trace:
            tracer.merge(snap, res["trace"])
    return {"setups": setups, "setups_wall": setups_wall, "ops": ops, "peaks": peaks,
            "trace": snap, "probe": None}


def _bare_import(src, work):
    """(CPU s, wall s) of one cold interpreter that only imports
    ``gsp4hodge.cli``."""
    child = procs.run_child(["-c", "import gsp4hodge.cli"], src, work)
    if child.code != 0:
        sys.stderr.write(child.err.decode("utf-8", "replace"))
        raise SystemExit("perfbench: importing gsp4hodge.cli failed")
    return child.cpu, child.wall


def load_catalog():
    with open(os.path.join(procs.BENCH_DIR, "catalog.json"), encoding="utf-8") as fh:
        return json.load(fh)["entries"]


def run_cli_mix(seed, seconds, trace, src, work):
    catalog = load_catalog()
    setups, setups_wall = [], []
    ref = calib.reference_cpu()
    for _ in range(SETUP_REPEATS["cli-mix"]):
        cpu, wall = _bare_import(src, work)
        ref_before, ref = ref, calib.reference_cpu()
        setups.append({"cpu": cpu, "ref": [ref_before, ref]})
        setups_wall.append(wall)
    ops, peaks, snap, cli = [], [], {}, []
    trace_out = os.path.join(work, "cli-trace.json")
    rounds = inputs.cli_rounds(catalog, seed)
    started = time.monotonic()
    while time.monotonic() - started < seconds:
        for key in next(rounds):  # whole rounds keep the class mix fixed
            entry = catalog[key]
            # A traced run follows each untraced child with a traced one on
            # the same entry: every child is a fresh process, so the first
            # cannot warm the second.
            for traced in (False, True) if trace else (False,):
                child = procs.run_entry(entry, src, work, trace_out if traced else None)
                ref_before, ref = ref, calib.reference_cpu()
                if traced:
                    with open(trace_out, encoding="utf-8") as fh:
                        spans = json.load(fh)
                    os.remove(trace_out)
                    tracer.merge(snap, spans["trace"])
                    cli.append((spans["import_s"], spans["main_s"], child.wall, len(child.out)))
                else:
                    peaks.append(child.peak_kb)
                ops.append({"cls": entry["cls"], "s": child.wall, "cpu": child.cpu,
                            "ref": [ref_before, ref], "traced": traced,
                            "failed": oracle.check_cli(entry, child.code, child.out, child.err)})
    probe = []
    for key in inputs.probe_ids(catalog):
        entry = catalog[key]
        child = procs.run_entry(entry, src, work)
        probe.append((entry["cls"], key, oracle.check_cli(entry, child.code, child.out, child.err)))
    return {"setups": setups, "setups_wall": setups_wall, "ops": ops, "peaks": peaks,
            "trace": snap, "cli": cli, "probe": probe}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def scaled(sample):
    """A sample's CPU seconds at the nominal machine speed, from the
    reference times measured just before and just after it."""
    return sample["cpu"] * calib.speed_factor(sample["ref"])


def untraced(ops):
    return [op for op in ops if not op["traced"]]


def end_to_end(res):
    ops = untraced(res["ops"])
    ok_s = [scaled(op) for op in ops if not op["failed"]]
    timed = sum(scaled(op) for op in ops)
    if None in res["peaks"]:
        raise SystemExit("perfbench: a child did not report its peak RSS")
    return {
        "setup_s": (statistics.median(scaled(s) for s in res["setups"]), "s"),
        "ops_per_s": (len(ok_s) / timed, "1/s"),
        "op_p50_ms": (statistics.median(ok_s) * 1e3 if ok_s else 0.0, "ms"),
        "peak_rss_mb": (max(res["peaks"]) / 1024, "MB"),
    }


#: Traced spans and the per-op figures reported for each, in module order.
#: perfbench/README.md maps each to the end-to-end metric it should move.
LAYER_SPANS = (
    ("scalars.poly_gcd", ("calls", "self_s")),
    ("scalars.poly_divexact", ("calls", "self_s")),
    ("scalars.ratfunc_arith", ("calls", "self_s")),
    ("scalars.parse_scalar", ("self_s",)),
    ("scalars.scalar_str", ("self_s",)),
    ("linalg.rref", ("calls", "self_s")),
    ("linalg.nullspace", ("calls",)),
    ("linalg.inverse", ("calls", "self_s")),
    ("linalg.mat_mul", ("self_s",)),
    ("linalg.intersect_row_spaces", ("calls",)),
    ("symplectic.subspace_intersect", ("calls", "self_s")),
    ("symplectic.gsp4_coordinates", ("self_s",)),
    ("phimodule.validate", ("calls", "self_s")),
    ("phimodule.standard_filtration", ("calls",)),
    ("kernel.eigenline_grid", ("calls", "self_s")),
    ("kernel.nu_operator", ("calls", "self_s")),
    ("kernel.jbar_matrix", ("calls", "self_s")),
    ("kernel.kernel_basis", ("self_s",)),
    ("kernel.jbar_rank", ("self_s",)),
    ("kernel.recover_parameters", ("self_s",)),
    ("kernel.matrix_suite", ("self_s",)),
    ("kernel.glue_subspace", ("self_s",)),
    ("weyl", ("calls", "self_s")),
    ("extledger.check_ledger", ("self_s",)),
    ("extledger.hom_space", ("calls",)),
    ("hecke", ("self_s",)),
)


def per_layer(res):
    """Per-layer metrics of a traced run, each per traced op."""
    traced = [scaled(op) for op in res["ops"] if op["traced"]]
    n = len(traced)
    spans = res["trace"].get("spans", {})
    counts = res["trace"].get("counts", {})
    m = {}
    for name, fields in LAYER_SPANS:
        calls, _, self_ns = spans.get(name, (0, 0, 0))
        if "calls" in fields:
            m[name + ".calls"] = (calls / n, "1/op")
        if "self_s" in fields:
            m[name + ".self_s"] = (self_ns / 1e9 / n, "s/op")
    gcd_calls = spans.get("scalars.poly_gcd", (0,))[0]
    m["scalars.poly_gcd.trivial_ratio"] = (
        counts.get("poly_gcd_trivial", 0) / gcd_calls if gcd_calls else 0.0, "ratio")
    m["scalars.poly2_new.calls"] = (counts.get("poly2_new", 0) / n, "1/op")
    m["linalg.rref.cells"] = (counts.get("rref_cells", 0) / n, "1/op")
    # jbar matrices built per op; the same figure as kernel.jbar_matrix.calls
    m["kernel.jbar_matrix.per_op"] = m["kernel.jbar_matrix.calls"]
    cli = res.get("cli") or [(0.0, 0.0, 0.0, 0)]
    m["cli.import_s"] = (statistics.fmean(c[0] for c in cli), "s")
    m["cli.main_s"] = (statistics.fmean(c[1] for c in cli), "s")
    m["cli.startup_s"] = (statistics.fmean(c[2] - c[1] for c in cli), "s")
    m["cli.stdout_bytes"] = (statistics.fmean(c[3] for c in cli), "bytes")
    m["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(scaled(op) for op in untraced(res["ops"])),
        "ratio")
    return m


def top_self_span(res):
    spans = {k: v for k, v in res["trace"].get("spans", {}).items() if k != "op"}
    return max(spans, key=lambda k: spans[k][2]) if spans else None


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------


def report_lines(workload, seed, res, trace):
    ops = res["ops"]
    failed = [op for op in ops if op["failed"]]
    refs = [r for sample in ops + res["setups"] for r in sample["ref"]]
    ok = [op for op in untraced(ops) if not op["failed"]]
    ok_s = sorted(scaled(op) for op in ok)
    ok_cpu = [op["cpu"] for op in ok]
    ok_wall = [op["s"] for op in ok]
    yield f"workload {workload}  seed {seed}  {'traced' if trace else 'untraced'}"
    yield (f"  machine: {os.cpu_count()} CPUs, {platform.machine()}, "
           f"Python {platform.python_version()}")
    yield f"  ops attempted {len(ops)}, failed {len(failed)}, ops_failed_ratio {len(failed) / len(ops):.4f}"
    for op in failed[:5]:
        yield f"    failed {op['cls']}: {op['failed']}"
    shares = {}
    for op in ops:
        shares[op["cls"]] = shares.get(op["cls"], 0) + 1
    yield "  input classes: " + ", ".join(f"{k} {v / len(ops):.0%}" for k, v in sorted(shares.items()))
    yield (f"  machine speed: reference workload median {statistics.median(refs) * 1e3:.3f} ms "
           f"CPU, IQR {statistics.quantiles(refs, n=4)[0] * 1e3:.3f}-"
           f"{statistics.quantiles(refs, n=4)[2] * 1e3:.3f} ms, nominal {calib.REFERENCE_S * 1e3:.3f} ms")
    if ok_wall:
        yield (f"  unscaled: op p50 {statistics.median(ok_cpu) * 1e3:.4f} ms CPU, "
               f"{statistics.median(ok_wall) * 1e3:.4f} ms wall; set-up median "
               f"{statistics.median(s['cpu'] for s in res['setups']):.4f} s CPU, "
               f"{statistics.median(res['setups_wall']):.4f} s wall")
    if len(ok_s) >= 10:
        p90 = statistics.quantiles(ok_s, n=10)[8]
        beyond = sum(1 for s in ok_s if s > p90)
        if beyond >= 10:
            yield f"  op_p90_ms {p90 * 1e3:.4f} ms ({beyond} of {len(ok_s)} samples beyond it)"
        else:
            yield f"  op_p90_ms not reported: {beyond} of {len(ok_s)} samples beyond it, fewer than 10"
    if res["probe"] is not None:
        bad = [(cls, key, why) for cls, key, why in res["probe"] if why]
        yield (f"  ROADMAP item 4 probe (outside the timed mix): {len(res['probe'])} inputs, "
               f"{len(bad)} fail the exit-code/JSON contract")
        for _, key, why in bad:
            yield f"    {key}: {why}"
        # a probe class counts as failing when any of its entries fails
        failing = len({cls for cls, _, _ in bad})
        yield (f"  with one probe op per failing class in each round, ops_failed_ratio would be "
               f"{failing}/{len(inputs.MIX_CLASSES) + failing} = "
               f"{failing / (len(inputs.MIX_CLASSES) + failing):.4f}")
    if trace:
        top = top_self_span(res)
        yield f"  largest self time among traced spans: {top}"
        if workload == "symbolic-generic":
            yield f"  poly_gcd leads on symbolic-generic: {'yes' if top == 'scalars.poly_gcd' else 'no'}"
    yield "  set-up samples, scaled s: " + ", ".join(f"{scaled(s):.4f}" for s in res["setups"])


def main(argv=None):
    ap = argparse.ArgumentParser(description="gsp4hodge benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src, work = procs.checkout_paths(os.getcwd())
    if args.workload == "cli-mix":
        res = run_cli_mix(args.seed, args.seconds, args.trace, src, work)
    else:
        res = run_inprocess(args.workload, args.seed, args.seconds, args.trace, src, work)
    if not res["ops"]:
        raise SystemExit("perfbench: no op completed")

    metrics = per_layer(res) if args.trace else end_to_end(res)
    if args.trace:
        tracer.dump(os.path.join(work, f"trace-{args.workload}-{args.seed}.json"), res["trace"],
                    {"workload": args.workload, "seed": args.seed, "traced_ops": sum(op["traced"] for op in res["ops"])})
    for line in report_lines(args.workload, args.seed, res, args.trace):
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    failed = sum(1 for op in res["ops"] if op["failed"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(res["ops"]),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
