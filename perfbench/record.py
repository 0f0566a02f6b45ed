"""Record the cli-mix catalog and the stdout bytes of its ok entries.

    python3 perfbench/record.py

Run from the root of a git checkout of the commit whose outputs are the
reference; its short HEAD is stored as the catalog's commit.
Every catalog entry runs once through ``python3 -m gsp4hodge.cli``; entries
whose input is another entry's output (a serialized kernel, a charpoly)
are completed from that output.  Writes ``perfbench/catalog.json``: each
entry's argv, stdin, environment, accepted exit codes and, for ok entries,
the SHA-256 of its stdout.  Refuses to write when an entry other than a
probe answers outside its accepted exit codes.
"""

import hashlib
import json
import os
import subprocess
import sys

import inputs
import procs

CATALOG = os.path.join(procs.BENCH_DIR, "catalog.json")


def main():
    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True,
                            text=True, check=True).stdout.strip()
    src, work = procs.checkout_paths(os.getcwd())
    templates = inputs.catalog_templates()
    done, outputs, bad = {}, {}, []
    order = sorted(templates, key=lambda k: ("needs" in templates[k], k))
    for key in order:
        entry = templates[key]
        if "needs" in entry:
            entry = inputs.complete_entry(entry, done[entry["needs"]], outputs[entry["needs"]])
        code, out, err = procs.run_entry(entry, src, work)[:3]
        outputs[key] = out.decode("utf-8")
        entry = dict(entry, recorded_exit=code)
        if entry["expect"] == [0]:
            entry["sha256"] = hashlib.sha256(out).hexdigest()
        done[key] = entry
        probe = entry["cls"] in inputs.PROBE_CLASSES
        ok = code in entry["expect"] and b"Traceback" not in err
        print(f"{key:36s} exit={code} bytes={len(out)}{'' if ok else '  <- outside contract'}")
        if not ok and not probe:
            bad.append(key)
    if bad:
        sys.exit(f"record: entries outside their accepted exit codes: {bad}")
    with open(CATALOG, "w", encoding="utf-8") as fh:
        json.dump({"commit": commit, "entries": done}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(done)} entries to {CATALOG}")


if __name__ == "__main__":
    main()
