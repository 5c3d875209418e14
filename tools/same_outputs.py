"""Run lieseek CLI commands from two source trees and compare what they leave.

Each tree's ``src`` goes first on ``PYTHONPATH``, and a command runs as
``python3 -m lieseek ARGS --out out/0`` in a fresh temporary directory of
its own.  A chain of commands runs in one directory, command k with
``--out out/k``, so that a later command reads what an earlier one
wrote.  An ``--out`` may be a directory or a file.  The two runs must
agree byte for byte in every file under ``out``, in stdout and stderr and
in the exit codes, with the temporary directory's path replaced by
``<tmp>`` wherever it appears::

    python3 tools/same_outputs.py OLD_TREE NEW_TREE -- run case1 --mode both
    python3 tools/same_outputs.py OLD_TREE NEW_TREE --standard

One command prints one line per difference, or ``same`` and the number
of files.  A CSV that differs but keeps its header and row count is
reported by how far it moved: the largest ``|new - old|`` of a column
over the largest ``|old|`` of that column, the scale by which
``perfbench/check.py`` judges a value, and the column where that ratio
is largest.  ``--standard`` runs the byte-identity set below, one
verdict line per command and then one line per difference; a change
that must keep the outputs runs it against its parent tree:

* ``run case1 --mode both``
* ``run case2 --mode both --horizon 20``
* ``run case3 --mode both --horizon 10``
* ``run case1 --mode lbs``
* ``run case3 --mode lbs --horizon 10``
* the benchmark's ``omega-sweep`` and ``lambda-sweep`` commands at seed 0
* ``sweep case1 --mode both --omega 50,100,200 --horizon 3``
* ``sweep case2 --mode proposed --horizon 1.5 --lambda 0.1,1e4,0.2,1e5``
  and ``sweep case3 --mode proposed --omega 20,30 --horizon 3``, which
  fail with exit code 3
* ``check-b2 case1`` and ``check-b2 case3``, which exit 1: each preset
  has a contradicting element
* the chain ``run case1 --mode both``, then ``check-bound`` on its
  proposed CSV, estimate and oracle, and ``compare`` on its two CSVs

Exits 0 when all outputs are the same, 1 when any differ and 2 on a
usage error.  Uses the standard library alone.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import tempfile


def run(tree: str, chain: list[list[str]], tmp: str) -> dict:
    """The files, stdout, stderr and exit codes of the commands ``chain``
    run in order from ``tree`` in the directory ``tmp``."""
    env = dict(os.environ)
    src = os.path.join(os.path.abspath(tree), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    here = os.fsencode(os.path.realpath(tmp))

    def factored(data: bytes) -> bytes:
        return data.replace(here, b"<tmp>")

    result = {"files": {}, "code": [], "stdout": b"", "stderr": b""}
    for k, args in enumerate(chain):
        proc = subprocess.run([sys.executable, "-m", "lieseek", *args,
                               "--out", f"out/{k}"], cwd=tmp, env=env,
                              capture_output=True, check=False)
        result["code"].append(proc.returncode)
        result["stdout"] += factored(proc.stdout)
        result["stderr"] += factored(proc.stderr)
    out = os.path.join(tmp, "out")
    for root, _, names in os.walk(out):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                result["files"][os.path.relpath(path, out)] = factored(fh.read())
    return result


def first_difference(a: bytes, b: bytes) -> str:
    """Where two byte strings first differ, as a line number and the two
    lines."""
    lines_a, lines_b = a.splitlines(), b.splitlines()
    for number, (x, y) in enumerate(zip(lines_a, lines_b), start=1):
        if x != y:
            return f"line {number}: {x[:120]!r} != {y[:120]!r}"
    return f"{len(lines_a)} lines != {len(lines_b)} lines"


def _cells(data: bytes) -> tuple[str, list[list[float]]]:
    """The header and the rows of a CSV, an empty cell read as NaN."""
    header, *lines = data.decode("utf-8").splitlines()
    return header, [[float(c) if c else math.nan for c in line.split(",")]
                    for line in lines if line]


def _gap(x: float, y: float) -> float:
    """``|y - x|``: 0 for two NaNs, infinite where only one is finite."""
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    return abs(y - x) if math.isfinite(x) and math.isfinite(y) else math.inf


def csv_move(a: bytes, b: bytes) -> str:
    """How far the CSV ``b`` moved from ``a``: the largest ratio, over the
    columns, of the largest ``|new - old|`` to the largest finite
    ``|old|``, and its column; where the header or the row count differ,
    the first difference."""
    try:
        (head_a, rows_a), (head_b, rows_b) = _cells(a), _cells(b)
    except ValueError:   # not a numeric CSV
        return first_difference(a, b)
    if head_a != head_b or len(rows_a) != len(rows_b):
        return first_difference(a, b)
    worst, where = 0.0, None
    for j, name in enumerate(head_a.split(",")):
        pairs = [(r[j], s[j]) for r, s in zip(rows_a, rows_b)]
        scale = max((abs(x) for x, _ in pairs if math.isfinite(x)),
                    default=0.0)
        delta = max(_gap(x, y) for x, y in pairs)
        ratio = delta / scale if scale else (math.inf if delta else 0.0)
        if ratio > worst:
            worst, where = ratio, name
    return (f"largest |new - old| / max |old| {worst:.3g} in column {where}"
            if where is not None else first_difference(a, b))


def differences(old: dict, new: dict) -> list[str]:
    out = []
    if old["code"] != new["code"]:
        out.append(f"exit code: {old['code']} != {new['code']}")
    for stream in ("stdout", "stderr"):
        if old[stream] != new[stream]:
            out.append(f"{stream}: "
                       + first_difference(old[stream], new[stream]))
    for name in sorted(set(old["files"]) | set(new["files"])):
        a, b = old["files"].get(name), new["files"].get(name)
        if a is None or b is None:
            out.append(f"{name}: only in the "
                       + ("new" if a is None else "old") + " tree")
        elif a != b:
            out.append(f"{name}: " + (csv_move(a, b) if name.endswith(".csv")
                                      else first_difference(a, b)))
    return out


STANDARD = (
    ["run", "case1", "--mode", "both"],
    ["run", "case2", "--mode", "both", "--horizon", "20"],
    ["run", "case3", "--mode", "both", "--horizon", "10"],
    ["run", "case1", "--mode", "lbs"],
    ["run", "case3", "--mode", "lbs", "--horizon", "10"],
    ["sweep", "case1", "--mode", "baseline", "--omega", "50,100,200",
     "--horizon", "5", "--jobs", "1", "--seed", "0"],
    ["sweep", "case2", "--mode", "proposed", "--lambda", "0.05,0.1,0.2,0.4",
     "--horizon", "6", "--jobs", "2", "--seed", "0"],
    ["sweep", "case1", "--mode", "both", "--omega", "50,100,200",
     "--horizon", "3"],
    ["sweep", "case2", "--mode", "proposed", "--horizon", "1.5",
     "--lambda", "0.1,1e4,0.2,1e5"],
    ["sweep", "case3", "--mode", "proposed", "--omega", "20,30",
     "--horizon", "3"],
    ["check-b2", "case1"],
    ["check-b2", "case3"],
    (["run", "case1", "--mode", "both"],
     ["check-bound", "out/0/case1_main_proposed.csv", "--p", "1.05"],
     ["check-bound", "out/0/case1_main_proposed.csv", "--p", "1.05",
      "--oracle"],
     ["compare", "out/0/case1_main_baseline.csv",
      "out/0/case1_main_proposed.csv", "--x-star", "1",
      "--period", "0.7853981633974483"]),
)


def compare(old_tree: str, new_tree: str, chain: list[list[str]]) -> tuple:
    """The differences between the commands ``chain`` run from the two
    trees, and the old tree's result."""
    results = []
    for tree in (old_tree, new_tree):
        with tempfile.TemporaryDirectory() as tmp:
            results.append(run(tree, chain, tmp))
    return differences(*results), results[0]


def main(argv: list[str]) -> int:
    if argv[2:] == ["--standard"]:
        commands = STANDARD
    elif len(argv) >= 4 and argv[2] == "--":
        commands = [argv[3:]]
    else:
        print(__doc__, file=sys.stderr)
        return 2
    for tree in argv[:2]:
        if not os.path.isdir(os.path.join(tree, "src", "lieseek")):
            print(f"error: {tree} has no src/lieseek", file=sys.stderr)
            return 2
    failed = False
    for command in commands:
        # a command is one argument list, or a tuple of them: a chain
        chain = list(command) if isinstance(command, tuple) else [command]
        found, old = compare(argv[0], argv[1], chain)
        failed = failed or bool(found)
        codes = " ".join(map(str, old["code"]))
        same = f"same: exit code {codes}, {len(old['files'])} files"
        if commands is STANDARD:
            verdict = f"{len(found)} differences" if found else same
            print(f"{' && '.join(map(' '.join, chain))}: {verdict}", flush=True)
            for line in found:
                print(f"  {line}", flush=True)
        else:
            print("\n".join(found) if found else same)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
