"""Seeded input generators for the three workloads.

The benchmark passes the program only what these functions return.  The
same seed gives the same inputs; nothing here imports the program, so the
generators cannot be steered by it.
"""

import json
import random
from fractions import Fraction as Q


def nondegenerate(a, b) -> bool:
    """The nondegeneracy polynomial a*b*(b+1)*(a+b)*(a*b+a+b) is nonzero."""
    return a * b * (b + 1) * (a + b) * (a * b + a + b) != 0


# ---------------------------------------------------------------------------
# numeric-sweep
# ---------------------------------------------------------------------------

TALL = 2**64


def numeric_point(rng: random.Random, tall: bool):
    """A nondegenerate rational point.  Low points are drawn like
    ``recover --random`` (numerator in [-9, 9], denominator in [1, 5]);
    tall points have numerator and denominator up to 2^64."""
    while True:
        if tall:
            a = Q(rng.randint(-TALL, TALL), rng.randint(1, TALL))
            b = Q(rng.randint(-TALL, TALL), rng.randint(1, TALL))
        else:
            a = Q(rng.randint(-9, 9), rng.randint(1, 5))
            b = Q(rng.randint(-9, 9), rng.randint(1, 5))
        if nondegenerate(a, b):
            return a, b


#: Fixed warm-up point, so set-up time does not vary with the seed; it
#: is never a timed point.
NUMERIC_WARMUP = (Q(2), Q(3))


def numeric_stream(seed: int, part: int):
    """Batches of (class, input): the warm-up point, then one low and one
    tall point per batch, so that every run has the same height mix."""
    rng = random.Random(f"numeric-sweep:{seed}:{part}")
    yield [("warmup", NUMERIC_WARMUP)]
    while True:
        batch = [("low", numeric_point(rng, False)), ("tall", numeric_point(rng, True))]
        if NUMERIC_WARMUP not in (x for _, x in batch):
            yield batch


# ---------------------------------------------------------------------------
# symbolic-generic
# ---------------------------------------------------------------------------


def _small_rational(rng: random.Random, nonzero: bool = False):
    while True:
        c = Q(rng.randint(-3, 3), rng.randint(1, 3))
        if c or not nonzero:
            return c


def symbolic_constants(rng: random.Random):
    """(c1, c2, c3) for the generic point (a + c1, c2*b + c3), c2 != 0."""
    return _small_rational(rng), _small_rational(rng, nonzero=True), _small_rational(rng)


IDENTITY = (Q(0), Q(1), Q(0))
#: Fixed warm-up constants, (a + 1, 2b - 1), for the same reason.
SYMBOLIC_WARMUP = (Q(1), Q(2), Q(-1))


def symbolic_stream(seed: int, part: int):
    """Batches of (class, constants): the warm-up, then one op per batch.
    The identity point (a, b) is the first timed op of part 0, so every
    run includes it once."""
    rng = random.Random(f"symbolic-generic:{seed}:{part}")
    yield [("warmup", SYMBOLIC_WARMUP)]
    if part == 0:
        yield [("identity", IDENTITY)]
    while True:
        c = symbolic_constants(rng)
        if c != SYMBOLIC_WARMUP:
            yield [("identity" if c == IDENTITY else "shifted", c)]


# ---------------------------------------------------------------------------
# cli-mix
# ---------------------------------------------------------------------------

#: Timed classes: one op of each per round.  The first group must answer
#: exit 0 with the recorded bytes; the second group must be rejected.
OK_CLASSES = (
    "validate", "flag", "kernel", "recover-params", "recover-kernel",
    "recover-random", "glue", "matrices", "ledger", "socle-json",
    "socle-text", "socle-dot", "hecke-fwd", "hecke-inv", "classify", "batch",
)
REJECT_CLASSES = ("reject-degenerate-params", "reject-degenerate-kernel", "reject-invalid")
MIX_CLASSES = OK_CLASSES + REJECT_CLASSES

#: Inputs from ROADMAP open item 4 that end in a traceback at the commit
#: catalog.json names.
#: They are run once per cli-mix run as a probe, outside the timed mix.
PROBE_CLASSES = ("probe-missing-file", "probe-list-doc", "probe-three-weights", "probe-degree-cap")

GOOD = {"p": 3, "alphas": ["1", "9", "81", "729"], "weights": [0, -2, -4, -6]}

#: Fixed seed of the catalog of cli-mix inputs.  The run seed chooses
#: which catalog entries run and in what order; the catalog itself is
#: fixed, so every ok entry has stdout bytes recorded at the commit that
#: catalog.json names.
CATALOG_SEED = 1


def catalog_points(n: int = 6):
    rng = random.Random(CATALOG_SEED)
    points = []
    while len(points) < n:
        a, b = numeric_point(rng, tall=False)
        if (a, b) not in points:
            points.append((a, b))
    return points


def _module_doc(a, b, **extra):
    return dict(GOOD, a=str(a), b=str(b), **extra)


def _entry(cls, argv, doc=None, expect=(0,), env=None, stdin=None):
    """One cli-mix input.  `doc` is sent as JSON on stdin via ``--input -``;
    `stdin` sends raw text instead."""
    if doc is not None:
        stdin = json.dumps(doc, sort_keys=True)
    if stdin is not None:
        argv = list(argv) + ["--input", "-"]
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
    return {
        "cls": cls,
        "argv": list(argv),
        "stdin": stdin,
        "env": env or {},
        "expect": list(expect),
        "json": fmt == "json",
    }


def catalog_templates():
    """Every cli-mix input, keyed by id.  Entries marked ``needs`` take
    data from another entry's recorded output (a serialized kernel, a
    charpoly) and are completed by ``record.py``."""
    pts = catalog_points()
    out = {}
    for i, (a, b) in enumerate(pts):
        doc = _module_doc(a, b)
        out[f"validate:P{i}"] = _entry("validate", ["validate"], doc)
        out[f"flag:P{i}"] = _entry("flag", ["flag"], doc)
        out[f"kernel:P{i}"] = _entry("kernel", ["kernel"], doc)
        out[f"recover-params:P{i}"] = _entry("recover-params", ["recover"], doc)
        out[f"matrices:P{i}"] = _entry("matrices", ["matrices"], doc)
        if i < 4:
            e = _entry("recover-kernel", ["recover"], {})
            e["needs"] = f"kernel:P{i}"
            out[f"recover-kernel:P{i}"] = e
    for s in range(4):
        out[f"recover-random:s{s}"] = _entry(
            "recover-random", ["recover", "--random", "3", "--seed", str(s)]
        )
    out["glue"] = _entry("glue", ["glue"])
    out["ledger"] = _entry("ledger", ["ledger"])
    socle_kinds = {"pi1": ["pi1"], "pimin": ["pimin"], "PS1-s1s2": ["PS1", "--w", "s1s2"],
                   "PS1-2143": ["PS1", "--w", "[2,1,4,3]"]}
    for fmt in ("json", "text", "dot"):
        for name, args in socle_kinds.items():
            out[f"socle-{fmt}:{name}"] = _entry(f"socle-{fmt}", ["socle", *args, "--format", fmt])
    hecke_docs = [
        {"l": 2, "c0": "1", "c1": "0", "c2": "0"},
        {"l": 3, "c0": "2", "c1": "-1", "c2": "5"},
        {"l": 5, "c0": "1/3", "c1": "7", "c2": "-2/5"},
        {"l": 7, "c0": "-4", "c1": "3/2", "c2": "1"},
    ]
    for i, doc in enumerate(hecke_docs):
        out[f"hecke-fwd:H{i}"] = _entry("hecke-fwd", ["hecke"], doc)
        e = _entry("hecke-inv", ["hecke"], {})
        e["needs"] = f"hecke-fwd:H{i}"
        out[f"hecke-inv:H{i}"] = e
    for i, (C, alphas) in enumerate(
        [("10", GOOD["alphas"]), ("1", GOOD["alphas"]), ("1/2", ["3", "9", "27", "81"])]
    ):
        doc = {"alphas": alphas, "weights": GOOD["weights"], "p": 3, "C": C}
        out[f"classify:C{i}"] = _entry("classify", ["classify"], doc)
    a0, b0 = pts[0]
    a1, b1 = pts[1]
    out["batch:B0"] = _entry("batch", ["batch"], [
        {"command": "validate", "doc": _module_doc(a0, b0)},
        {"command": "socle", "doc": {"kind": "pimin"}},
        {"command": "hecke", "doc": hecke_docs[1]},
    ])
    out["batch:B1"] = _entry("batch", ["batch"], [
        {"command": "kernel", "doc": _module_doc(a1, b1)},
        {"command": "classify", "doc": {"alphas": GOOD["alphas"], "weights": GOOD["weights"], "p": 3, "C": "10"}},
        {"command": "glue", "doc": {}},
    ])

    # Rejected inputs: degenerate parameters answer 2 (the nondegeneracy
    # polynomial fails validation) or 3; a kernel that misses the
    # generator span answers 3; malformed data answers 2.
    for i, (cmd, a, b) in enumerate([("kernel", 1, -1), ("recover", 0, 2), ("validate", 2, -2), ("matrices", 3, -1)]):
        out[f"reject-degenerate-params:D{i}"] = _entry(
            "reject-degenerate-params", [cmd], _module_doc(a, b), expect=(2, 3)
        )
    zero_row = ["0"] * 24
    out["reject-degenerate-kernel:Z0"] = _entry(
        "reject-degenerate-kernel", ["recover"], {"kernel": [zero_row]}, expect=(3,)
    )
    e = _entry("reject-degenerate-kernel", ["recover"], {}, expect=(3,))
    e["needs"] = "kernel:P2"
    out["reject-degenerate-kernel:Z1"] = e
    out["reject-invalid:I0"] = _entry("reject-invalid", ["validate"], _module_doc("q + 1", 2), expect=(2,))
    out["reject-invalid:I1"] = _entry("reject-invalid", ["kernel"], stdin="{not json", expect=(2,))
    out["reject-invalid:I2"] = _entry(
        "reject-invalid", ["classify"],
        {"alphas": GOOD["alphas"], "weights": [0, -2, -4, -5], "p": 3, "C": "1"}, expect=(2,)
    )
    out["reject-invalid:I3"] = _entry("reject-invalid", ["hecke"], {"l": 4, "c0": "1", "c1": "0", "c2": "0"}, expect=(2,))

    # ROADMAP open item 4: every input should map to exit 2 or 3 with JSON
    # on stdout; at the seed these end in a traceback.
    out["probe-missing-file:M0"] = _entry(
        "probe-missing-file", ["validate", "--input", "missing-input.json"], expect=(2, 3)
    )
    for cmd in ("kernel", "recover", "socle"):
        out[f"probe-list-doc:{cmd}"] = _entry("probe-list-doc", [cmd], [1, 2], expect=(2, 3))
    out["probe-three-weights:W0"] = _entry(
        "probe-three-weights", ["validate"], dict(_module_doc(2, 3), weights=[0, -2, -4]), expect=(2, 3)
    )
    out["probe-degree-cap:G0"] = _entry(
        "probe-degree-cap", ["kernel"], {"a": "a**30", "b": "3", "symbolic": True},
        expect=(2, 3), env={"GSP4H_MAX_DEGREE": "5"},
    )
    return out


def complete_entry(entry, source, source_stdout: str):
    """Fill an entry that takes its input from the recorded output of the
    `source` entry it names in ``needs``."""
    payload = json.loads(source_stdout)["payload"]
    if entry["cls"] == "hecke-inv":
        l = json.loads(source["stdin"])["l"]
        doc = {"l": l, "coeffs": payload["charpoly"][1:], "sim": payload["sim"]}
    elif entry["cls"] == "reject-degenerate-kernel":
        # two rows of a real kernel span too little to hold the lines
        doc = {"kernel": payload["basis"][:2]}
    else:
        doc = {"kernel": payload["basis"]}
    entry = dict(entry)
    entry.pop("needs")
    entry["stdin"] = json.dumps(doc, sort_keys=True)
    return entry


def cli_rounds(catalog: dict, seed: int):
    """Endless seeded rounds of catalog ids: each round runs one entry of
    every mix class, chosen and ordered by the seed."""
    rng = random.Random(f"cli-mix:{seed}")
    by_class = {}
    for key in sorted(catalog):
        by_class.setdefault(catalog[key]["cls"], []).append(key)
    while True:
        picks = [rng.choice(by_class[cls]) for cls in MIX_CLASSES]
        rng.shuffle(picks)
        yield picks


def probe_ids(catalog: dict):
    return sorted(k for k, e in catalog.items() if e["cls"] in PROBE_CLASSES)
