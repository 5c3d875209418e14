"""Time the lockstep loops of two source trees against each other in one process.

Usage::

    python3 tools/loop_ab.py OLD_TREE NEW_TREE [PAIRS [LOOP ...]]
    python3 tools/loop_ab.py OLD_TREE NEW_TREE 30 lambda-sweep

Each tree's ``src/lieseek`` is imported under a package name of its own
(``lieseek_old`` and ``lieseek_new``), so both run in one interpreter on
one NumPy.  The loops are those of the benchmark's three workloads,
called through ``sim.run_batch`` as the CLI calls it, and case1's
averaged system through ``sim.lbs_batch``:

* ``case1-both``: case1's baseline and proposed runs;
* ``omega-sweep``: case1 baseline at omega 50, 100 and 200, horizon 5;
* ``lambda-sweep``: case2 proposed at lambda 0.05, 0.1, 0.2 and 0.4,
  horizon 6;
* ``case1-noisy``: eight case1 proposed members, seeds 0 to 7, with
  measurement noise of standard deviation 0.0173 (``sqrt(r)``), horizon 8;
* ``lbs``: ``run case1 --mode lbs``;
* ``failing``: batches whose members fail, horizon 2 unless noted:
  case1 proposed at ``gekf.p0 = 1e307`` with a0 1, 1e-3 and 0.5 (the
  second member's filter fails after its first update), case1 proposed
  at ``gekf.p0 = 8.98e307`` with omega 8, 2 and 6 (the second member's
  filter fails after its first propagation), case1 at omega 50, 2
  and 6, horizon 1.5, proposed and then baseline (the second member
  leaves the domain box), and case1 proposed at omega 8, 16 and 32 with
  horizons 0.3, 2 and 2 and lambda 0.1, 456 and 0.1 (the second member,
  whose amplitude grows in each step, leaves the domain box in its 40th
  step, after the first member has left the loop: a failure in a loop
  whose remaining rows differ in step size).

With loop names after ``PAIRS``, only those loops run; an unknown name
prints this text and the loop names, and exits 2.

First each loop runs once per tree, and the two trees' logs must agree
bit for bit, every array, the diagnostics and the meta, and so must
their errors, in type, message, ``t`` and ``t_exit`` (else the tool
exits 1).  Each log array or diagnostic that differs gets a line of its
own with how far it moved: the largest ``|new - old|`` of a column over
the largest ``|old|`` of that column, the scale by which
``perfbench/check.py`` judges a value, and the column where that ratio
is largest.  When logs move, one more line per loop gives, over all its
members, the largest move of each log array and of each diagnostic that
moved.  Then each loop, the same or not, runs ``PAIRS`` times per
tree (default 10), interleaved, the first of each pair alternating
between the trees.  One line per loop gives the median of the new/old
ratios of CPU time (``time.process_time``), the median times, and in how
many pairs the new tree was faster.

Why in one process: on a shared 2-core host the same command's time
drifted by about +-15% from one process to the next, and a perfbench
series of 10 pairs takes minutes per workload.  Interleaved
pairs in one interpreter see the same drift on both sides, so a few
percent shows within a minute.  It is a screen, not the benchmark: a
claim still needs perfbench's own pairs.  Uses the standard library and
NumPy alone.
"""

from __future__ import annotations

import importlib
import importlib.util
import math
import os
import statistics
import sys
import time

import numpy as np

LOG_ARRAYS = ("t", "x", "f", "a", "j_est", "j_exact", "z_ref")


def load(tree: str, name: str) -> dict:
    """The ``sim``, ``scenarios`` and ``cli`` modules of ``tree``'s
    ``src/lieseek``, imported as the package ``name``."""
    root = os.path.join(os.path.abspath(tree), "src", "lieseek")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(root, "__init__.py"),
        submodule_search_locations=[root])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {sub: importlib.import_module(f"{name}.{sub}")
            for sub in ("sim", "scenarios", "cli")}


def edited(scenarios, gekf: dict, **system) -> tuple:
    """case1's primary system and filter configuration, built by the
    package's ``scenarios``, with settings of that system and of the
    ``gekf`` section replaced."""
    cfg = scenarios.preset("case1").config
    cfg["systems"][cfg["primary"]].update(system)
    cfg["gekf"].update(gekf)
    sc = scenarios.Scenario(cfg)
    return sc.primary_system, sc.gekf_config()


def loops(mods: dict) -> dict:
    """Each loop's call, with its specs built by ``mods``' own package."""
    sim, cli, preset = mods["sim"], mods["cli"], mods["scenarios"].preset
    case1, case2 = preset("case1"), preset("case2")
    both = case1.primary_system
    omegas = [cli._apply_overrides(case1, omega=w, horizon=5.0).primary_system
              for w in (50.0, 100.0, 200.0)]
    lams = [cli._apply_overrides(case2, lam=lam, horizon=6.0)
            for lam in (0.05, 0.1, 0.2, 0.4)]
    noisy = cli._apply_overrides(case1, horizon=8.0)
    batches = [[edited(mods["scenarios"], {"p0": 1e307}, horizon=2.0, a0=[a0])
                for a0 in (1.0, 1e-3, 0.5)],
               [edited(mods["scenarios"], {"p0": 8.98e307}, horizon=2.0, omega=w)
                for w in (8.0, 2.0, 6.0)]]
    leaving = [edited(mods["scenarios"], {}, horizon=1.5, omega=w)
               for w in (50.0, 2.0, 6.0)]
    mixed = [edited(mods["scenarios"], {}, horizon=h, omega=w, **{"lambda": [lam]})
             for h, w, lam in ((0.3, 8.0, 0.1), (2.0, 16.0, 456.0),
                               (2.0, 32.0, 0.1))]

    def failing() -> list:
        out = []
        for members in batches + [leaving, mixed]:
            out += sim.run_batch([spec for spec, _ in members],
                                 [gcfg for _, gcfg in members])
        return out + sim.run_batch([spec for spec, _ in leaving])

    return {
        "case1-both": lambda: sim.run_batch(
            [both, both], [None, case1.gekf_config()], [0, 0]),
        "omega-sweep": lambda: sim.run_batch(omegas),
        "lambda-sweep": lambda: sim.run_batch(
            [sc.primary_system for sc in lams],
            [sc.gekf_config() for sc in lams], [0] * len(lams)),
        "case1-noisy": lambda: sim.run_batch(
            [noisy.primary_system] * 8, [noisy.gekf_config()] * 8,
            list(range(8)), noise_std=0.0173),
        "lbs": lambda: sim.lbs_batch([both]),
        "failing": failing,
    }


def move(a: np.ndarray, b: np.ndarray) -> tuple[float, int]:
    """How far ``b`` moved from ``a``: the largest ratio, over the columns
    of a ``(steps, ...)`` array, of the largest ``|b - a|`` to the largest
    finite ``|a|``, and its column; a NaN against a number, or a move of a
    column that is 0 throughout, is infinite, and so is a change of
    shape, in column -1."""
    if a.shape != b.shape:
        return math.inf, -1
    a, b = a.reshape(len(a), -1), b.reshape(len(b), -1)
    with np.errstate(invalid="ignore"):
        gap = np.where((a == b) | (np.isnan(a) & np.isnan(b)), 0.0,
                       np.abs(b - a))
    gap[np.isnan(gap)] = np.inf
    scale = np.where(np.isfinite(a), np.abs(a), 0.0).max(axis=0)
    delta = gap.max(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(delta == 0.0, 0.0, delta / scale)
    column = int(np.argmax(ratio))
    return float(ratio[column]), column


def outcome(result):
    """An error as its type's name, message, ``t`` and ``t_exit``; a log
    as its repr."""
    if not isinstance(result, Exception):
        return repr(result)
    return (type(result).__name__, str(result), getattr(result, "t", None),
            getattr(result, "t_exit", None))


def differences(old: list, new: list) -> tuple[list[str], dict]:
    """Where two loops' results differ: per member, the log array, the
    diagnostic or the meta, or the error; and the largest move of each
    log array and diagnostic that moved, over all members."""
    out, largest = [], {}
    for k, (a, b) in enumerate(zip(old, new)):
        if isinstance(a, Exception) or isinstance(b, Exception):
            if outcome(a) != outcome(b):
                out.append(f"member {k}: {outcome(a)} != {outcome(b)}")
            continue
        pairs = [(name, getattr(a, name), getattr(b, name))
                 for name in LOG_ARRAYS]
        diag_a, diag_b = a.diag or {}, b.diag or {}
        if list(diag_a) != list(diag_b):
            out.append(f"member {k}: diagnostic names")
        pairs += [(f"diag {key}", diag_a[key], diag_b[key]) for key in diag_a
                  if key in diag_b]
        for name, x, y in pairs:
            if x.shape == y.shape and x.tobytes() == y.tobytes():
                continue
            ratio, column = move(x, y)
            largest[name] = max(largest.get(name, 0.0), ratio)
            out.append(f"member {k}: {name}: largest |new - old| / max |old| "
                       f"{ratio:.3g} in column {column}")
        if a.meta != b.meta:
            out.append(f"member {k}: meta")
    if len(old) != len(new):
        out.append(f"{len(old)} members != {len(new)}")
    return out, largest


def cpu_time(call) -> float:
    start = time.process_time()
    call()
    return time.process_time() - start


def main(argv: list[str]) -> int:
    pairs = argv[2] if len(argv) > 2 else "10"
    if len(argv) < 2 or not pairs.isdigit() or int(pairs) < 1 or not all(
            os.path.isdir(os.path.join(tree, "src", "lieseek"))
            for tree in argv[:2]):
        print(__doc__, file=sys.stderr)
        return 2
    pairs = int(pairs)
    old, new = (loops(load(tree, name))
                for tree, name in zip(argv, ("lieseek_old", "lieseek_new")))
    names = argv[3:] or list(old)
    if any(name not in old for name in names):
        print(__doc__, file=sys.stderr)
        print(f"loops: {', '.join(old)}", file=sys.stderr)
        return 2
    failed = False
    with np.errstate(all="ignore"):
        for name in names:
            found, largest = differences(old[name](), new[name]())
            failed = failed or bool(found)
            for line in found:
                print(f"{name}: {line}", flush=True)
            if largest:
                print(f"{name}: largest move over all members: " + ", ".join(
                    f"{key} {ratio:.3g}" for key, ratio in largest.items()),
                      flush=True)
            times = {"old": [], "new": []}
            for pair in range(pairs):
                order = ("old", "new") if pair % 2 == 0 else ("new", "old")
                for side in order:
                    times[side].append(cpu_time((old if side == "old"
                                                 else new)[name]))
            ratios = [b / a for a, b in zip(times["old"], times["new"])]
            wins = sum(b < a for a, b in zip(times["old"], times["new"]))
            verdict = f"{len(found)} differences" if found else "identical logs"
            print(f"{name}: {verdict}; new/old CPU median "
                  f"{statistics.median(ratios):.3f}, "
                  f"old {statistics.median(times['old']):.3f} s, "
                  f"new {statistics.median(times['new']):.3f} s, "
                  f"new faster in {wins} of {pairs} pairs", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
