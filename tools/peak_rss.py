"""Compare the peak memory and CPU time of one lieseek CLI command run from
two source trees.

Usage::

    python3 tools/peak_rss.py OLD_TREE NEW_TREE [PAIRS] -- ARGS
    python3 tools/peak_rss.py OLD_TREE NEW_TREE 5 -- sweep case2 --mode proposed \\
        --lambda 0.05,0.1,0.2,0.4 --horizon 6 --jobs 2 --seed 0

Each run is ``python3 -m lieseek ARGS`` in a fresh temporary directory,
with the tree's ``src`` first on ``PYTHONPATH``; the default ``--out``
lands there.  The trees alternate, the first of each pair alternating
too, for ``PAIRS`` pairs (default 5).  The peak is the ``ru_maxrss`` that
``os.wait4`` returns for that child, in MB of 1024 KiB, and its CPU time
the user plus system seconds of the same rusage, start-up included.  Per
measure, one line per tree gives the median and quartiles and the exit
codes, and one line the median new - old difference and in how many
pairs the new tree used less.

Why not perfbench's ``peak_rss_mb``: a child's ``ru_maxrss`` starts from
the high-water mark that its parent had when it forked and exec'ed, so a
large parent floors the number.  This parent imports the standard library
alone and stays near 10 MB, so the child's own peak shows.  Why not
``tools/loop_ab.py`` for CPU: it times loops inside one interpreter that
has already started, so it cannot see a cost paid at start-up.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile


def measure(tree: str, args: list[str]) -> tuple[float, float, int]:
    """The peak RSS in MB, the CPU seconds and the exit code of ``args``
    run from ``tree``."""
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
    return (usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime,
            proc.returncode)


def summary(name: str, values: list[float], unit: str, codes: list[int]) -> str:
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    return (f"{name}: median {statistics.median(values):.2f} {unit} "
            f"[{q1:.2f}, {q3:.2f}] of {len(values)} runs, "
            f"exit {sorted(set(codes))}")


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
            runs[side].append(measure(trees[side], args))
    codes = [[code for _, _, code in side] for side in runs]
    for field, (label, unit) in enumerate((("peak", "MB"), ("CPU", "s"))):
        values = [[run[field] for run in side] for side in runs]
        for name, side, side_codes in zip(("old", "new"), values, codes):
            print(summary(f"{name} {label}", side, unit, side_codes))
        diffs = [new - old for old, new in zip(*values)]
        lower = sum(d < 0 for d in diffs)
        print(f"new - old {label}: median {statistics.median(diffs):+.2f} "
              f"{unit}; new lower in {lower} of {pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
