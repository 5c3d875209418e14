"""Run one lieseek CLI command from two source trees and compare what it leaves.

Each tree's ``src`` goes first on ``PYTHONPATH``, and the command runs as
``python3 -m lieseek ARGS --out out`` in a fresh temporary directory of
its own.  The two runs must agree byte for byte in every file under
``out``, in stdout and stderr and in the exit code, with the temporary
directory's path replaced by ``<tmp>`` wherever it appears::

    python3 tools/same_outputs.py OLD_TREE NEW_TREE -- run case1 --mode both

Prints one line per difference, or ``same`` and the number of files.
Exits 0 when the outputs are the same, 1 when they differ and 2 on a
usage error.  Uses the standard library alone.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile


def run(tree: str, args: list[str], tmp: str) -> dict:
    """The files, stdout, stderr and exit code of ``args`` run from
    ``tree`` in the directory ``tmp``."""
    env = dict(os.environ)
    src = os.path.join(os.path.abspath(tree), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "lieseek", *args,
                           "--out", "out"], cwd=tmp, env=env,
                          capture_output=True, check=False)
    here = os.fsencode(os.path.realpath(tmp))

    def factored(data: bytes) -> bytes:
        return data.replace(here, b"<tmp>")

    out = os.path.join(tmp, "out")
    files = {}
    for root, _, names in os.walk(out):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, out)] = factored(fh.read())
    return {"files": files, "code": proc.returncode,
            "stdout": factored(proc.stdout), "stderr": factored(proc.stderr)}


def first_difference(a: bytes, b: bytes) -> str:
    """Where two byte strings first differ, as a line number and the two
    lines."""
    lines_a, lines_b = a.splitlines(), b.splitlines()
    for number, (x, y) in enumerate(zip(lines_a, lines_b), start=1):
        if x != y:
            return f"line {number}: {x[:120]!r} != {y[:120]!r}"
    return f"{len(lines_a)} lines != {len(lines_b)} lines"


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
            out.append(f"{name}: " + first_difference(a, b))
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    old_tree, new_tree, args = argv[0], argv[1], argv[3:]
    results = []
    for tree in (old_tree, new_tree):
        if not os.path.isdir(os.path.join(tree, "src", "lieseek")):
            print(f"error: {tree} has no src/lieseek", file=sys.stderr)
            return 2
        with tempfile.TemporaryDirectory() as tmp:
            results.append(run(tree, args, tmp))
    found = differences(*results)
    for line in found:
        print(line)
    if not found:
        print(f"same: exit code {results[0]['code']}, "
              f"{len(results[0]['files'])} files")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
