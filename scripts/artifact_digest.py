"""Write the command-line artifact matrix into a directory and hash it.

Runs a fixed set of ``ofdma-underlay`` invocations (both presets, two
primaries, a short imperfect band, a wideband discrete solve, zero power
in both modes, a power jump across the window at mu's root, twelve dual
iterations, the I_th and epsilon sweeps, four SINR tables, ``validate``
and ``selftest``), each in a fresh single-threaded process, and prints
one ``sha256  path`` line per written file, sorted by path.  Every
command writes its standard output to ``<name>/stdout.txt`` and its exit
code to ``<name>/exit.txt``; commands run inside the output directory
with relative ``--out`` paths, so nothing machine-specific lands in them.
The lines are in ``sha256sum`` format, so two source trees are compared
by diffing the script's output on each (see the README).

Usage:
    python3 scripts/artifact_digest.py OUT_DIR [--src SRC_DIR]
    python3 scripts/artifact_digest.py --compare OLD_DIR NEW_DIR

``--src`` is the directory that holds the ``ofdma_underlay`` package;
it defaults to ``src/`` next to this script.  Takes about 3 s on two
cores.  ``--compare`` reads two such directories and, for each file
whose bytes differ, prints the largest relative change
|new - old| / max(|old|, |new|) of each numeric field that moved.  A
field is a key path in JSON (list entries pooled), a column in CSV, and
a line pattern plus the position of the number in it in other text;
a field whose text or number of values changed reads ``changed``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import re
import subprocess
import sys

IMP_M2 = ["--set", "num_primaries=2", "--set", "interference_limit_w=4,6",
          "--set", "collision_limit=0.05,0.2"]
WIDE = ["--set", "num_users=8", "--set", "num_subcarriers=256",
        "--set", "num_primaries=2", "--set", "interference_limit_w=10,10",
        "--rate", "discrete"]

# (name, arguments); "{out}" becomes the command's own directory
MATRIX = [
    ("run-det", ["run", "--preset", "deterministic", "--states", "300",
                 "--out", "{out}"]),
    ("run-imp", ["run", "--preset", "imperfect", "--states", "300",
                 "--out", "{out}"]),
    ("run-imp-m2", ["run", "--preset", "imperfect", *IMP_M2,
                    "--states", "200", "--out", "{out}"]),
    ("run-imp-k8", ["run", "--preset", "imperfect", "--set", "num_subcarriers=8",
                    "--set", "correlation=0.3", "--states", "300",
                    "--out", "{out}"]),
    ("run-wide-m2", ["run", "--preset", "deterministic", *WIDE,
                     "--states", "40", "--out", "{out}"]),
    ("run-det-zero", ["run", "--preset", "deterministic",
                      "--set", "total_power_w=0", "--out", "{out}"]),
    ("run-imp-zero", ["run", "--preset", "imperfect",
                      "--set", "total_power_w=0", "--out", "{out}"]),
    # one state's winner switch carries the power across the window: the
    # search keeps the feasible end of the jump
    ("run-jump", ["run", "--preset", "deterministic", "--set", "num_subcarriers=2",
                  "--set", "num_users=2", "--set", "interference_limit_w=2.762",
                  "--seed", "112", "--states", "30", "--out", "{out}"]),
    # eleven projected subgradient steps after the settled mu: the trace rows
    ("run-forced", ["run", "--preset", "deterministic", "--states", "100",
                    "--iterations", "12", "--out", "{out}"]),
    ("sweep-ith", ["sweep", "--preset", "deterministic", "--axis", "ith",
                   "--values", "1,2,5,10,20", "--states", "100",
                   "--threads", "1", "--out", "{out}"]),
    ("sweep-eps", ["sweep", "--preset", "imperfect", "--axis", "epsilon",
                   "--values", "0.05,0.1,0.2", "--states", "200",
                   "--threads", "1", "--out", "{out}"]),
    ("dist-det", ["dist-table", "--preset", "deterministic", "--points", "60",
                  "--mc-samples", "20000"]),
    ("dist-capped", ["dist-table", "--preset", "deterministic",
                     "--set", "interference_limit_w=2", "--points", "60",
                     "--mc-samples", "20000"]),
    ("dist-degenerate", ["dist-table", "--preset", "imperfect",
                         "--set", "cross_var=1e-30", "--set", "error_var=1e-30",
                         "--points", "60", "--out", "{out}"]),
    # agg_var underflows to 0 here: the point-mass law
    ("dist-point-mass", ["dist-table", "--preset", "imperfect",
                         "--set", "cross_var=1e-200", "--set", "error_var=1e-200",
                         "--points", "60", "--out", "{out}"]),
    ("validate", ["validate", "--preset", "imperfect", *IMP_M2]),
    ("selftest", ["selftest"]),
]


def run_matrix(out_dir: str, src_dir: str) -> None:
    env = dict(os.environ, PYTHONPATH=src_dir, OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    for name, args in MATRIX:
        os.makedirs(os.path.join(out_dir, name), exist_ok=True)
        argv = [a.replace("{out}", name) for a in args]
        proc = subprocess.run(
            [sys.executable, "-m", "ofdma_underlay.cli", *argv], cwd=out_dir,
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        with open(os.path.join(out_dir, name, "stdout.txt"), "wb") as fh:
            fh.write(proc.stdout)
        with open(os.path.join(out_dir, name, "exit.txt"), "w") as fh:
            fh.write("%d\n" % proc.returncode)


def digests(out_dir: str) -> list:
    lines = []
    for root, _, files in os.walk(out_dir):
        for fname in files:
            path = os.path.join(root, fname)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            lines.append("%s  %s" % (digest, os.path.relpath(path, out_dir)))
    return sorted(lines, key=lambda line: line.split("  ", 1)[1])


NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _flatten(value, key: str, out: dict) -> None:
    if isinstance(value, dict):
        for name, item in value.items():
            _flatten(item, "%s.%s" % (key, name) if key else name, out)
    elif isinstance(value, list):
        for item in value:
            _flatten(item, key + "[]", out)
    else:
        out.setdefault(key, []).append(value)


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def fields(path: str) -> dict:
    """Map each field of an artifact to its values in file order."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        if path.endswith(".json"):
            _flatten(json.load(fh), "", out)
        elif path.endswith(".csv"):
            for row in csv.DictReader(fh):
                for name, cell in row.items():
                    out.setdefault(name, []).append(_number(cell))
        else:
            for line in fh:
                pattern = NUMBER.sub("#", line.rstrip("\n"))
                out.setdefault(pattern, [])
                for pos, text in enumerate(NUMBER.findall(line)):
                    out.setdefault("%s  [%d]" % (pattern, pos), []).append(float(text))
    return out


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def compare(old_dir: str, new_dir: str) -> list:
    """Report lines for every file that differs between two artifact dirs."""
    old_files = {line.split("  ", 1)[1]: line for line in digests(old_dir)}
    new_files = {line.split("  ", 1)[1]: line for line in digests(new_dir)}
    lines = []
    for name in sorted(set(old_files) | set(new_files)):
        if old_files.get(name) == new_files.get(name):
            continue
        if name not in old_files or name not in new_files:
            lines.append("%s: only in %s" % (name, "new" if name in new_files else "old"))
            continue
        lines.append(name)
        old, new = fields(os.path.join(old_dir, name)), fields(os.path.join(new_dir, name))
        for key in sorted(set(old) | set(new)):
            a, b = old.get(key), new.get(key)
            if a == b:
                continue
            pairs = list(zip(a, b)) if a is not None and b is not None else []
            if not pairs or len(a) != len(b) or not all(
                    _is_number(x) and _is_number(y) for x, y in pairs):
                lines.append("  %-60s changed" % key)
                continue
            worst = max(abs(y - x) / max(abs(x), abs(y)) for x, y in pairs if x != y)
            lines.append("  %-60s %.3g" % (key, worst))
    return lines


def main(argv=None) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", nargs="?", help="directory for the artifacts (created)")
    parser.add_argument("--src", default=os.path.join(here, os.pardir, "src"),
                        help="directory holding the ofdma_underlay package")
    parser.add_argument("--compare", nargs=2, metavar=("OLD_DIR", "NEW_DIR"),
                        help="print the numeric changes between two artifact dirs")
    args = parser.parse_args(argv)
    if args.compare:
        print("\n".join(compare(*args.compare)))
        return 0
    if args.out_dir is None:
        parser.error("give OUT_DIR or --compare OLD_DIR NEW_DIR")
    out_dir = os.path.abspath(args.out_dir)
    os.makedirs(out_dir, exist_ok=True)
    run_matrix(out_dir, os.path.abspath(args.src))
    print("\n".join(digests(out_dir)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
