"""Compare the peak memory of one lieseek CLI command run from two source trees.

Usage::

    python3 tools/peak_rss.py OLD_TREE NEW_TREE [PAIRS] -- ARGS
    python3 tools/peak_rss.py OLD_TREE NEW_TREE 5 -- sweep case2 --mode proposed \\
        --lambda 0.05,0.1,0.2,0.4 --horizon 6 --jobs 2 --seed 0

Each run is ``python3 -m lieseek ARGS`` in a fresh temporary directory,
with the tree's ``src`` first on ``PYTHONPATH``; the default ``--out``
lands there.  The trees alternate, the first of each pair alternating
too, for ``PAIRS`` pairs (default 5).  The peak is the ``ru_maxrss`` that
``os.wait4`` returns for that child, in MB of 1024 KiB.  One line per
tree gives the median and quartiles of its peaks and its exit codes, and
a last line the median new - old difference and in how many pairs the
new tree peaked lower.

Why not perfbench's ``peak_rss_mb``: a child's ``ru_maxrss`` starts from
the high-water mark that its parent had when it forked and exec'ed, so a
large parent floors the number.  This parent imports the standard library
alone and stays near 10 MB, so the child's own peak shows.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile


def peak(tree: str, args: list[str]) -> tuple[float, int]:
    """The peak RSS in MB and the exit code of ``args`` run from ``tree``."""
    env = dict(os.environ)
    src = os.path.join(os.path.abspath(tree), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.Popen([sys.executable, "-m", "lieseek", *args],
                                cwd=tmp, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0, proc.returncode


def summary(name: str, runs: list[tuple[float, int]]) -> str:
    peaks = [mb for mb, _ in runs]
    q1, _, q3 = (statistics.quantiles(peaks, n=4) if len(peaks) > 1
                 else peaks * 3)
    codes = sorted({code for _, code in runs})
    return (f"{name}: median {statistics.median(peaks):.2f} MB "
            f"[{q1:.2f}, {q3:.2f}] of {len(peaks)} runs, exit {codes}")


def main(argv: list[str]) -> int:
    if "--" not in argv or len(argv) - argv.index("--") < 2:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    head, args = argv[:split], argv[split + 1:]
    trees, pairs = head[:2], head[2] if len(head) == 3 else "5"
    if len(head) not in (2, 3) or not pairs.isdigit() or int(pairs) < 1:
        print(__doc__, file=sys.stderr)
        return 2
    pairs = int(pairs)
    for tree in trees:
        if not os.path.isdir(os.path.join(tree, "src", "lieseek")):
            print(f"error: {tree} has no src/lieseek", file=sys.stderr)
            return 2
    runs: tuple[list, list] = ([], [])
    for k in range(pairs):
        for side in ((0, 1) if k % 2 == 0 else (1, 0)):
            runs[side].append(peak(trees[side], args))
    for name, side in zip(("old", "new"), runs):
        print(summary(name, side))
    diffs = [new[0] - old[0] for old, new in zip(*runs)]
    lower = sum(d < 0 for d in diffs)
    print(f"new - old: median {statistics.median(diffs):+.2f} MB; "
          f"new lower in {lower} of {pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
