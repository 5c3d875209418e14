"""Run one lieseek CLI command in a fresh interpreter and record clock marks.

Usage::

    python3 perfbench/child.py ROOT MARKS_JSON plain|trace -- CLI_ARGS...

``lieseek`` is imported from ``ROOT/src``.  The marks file receives
monotonic clock readings (``time.perf_counter``, comparable across
processes): ``imported`` after ``import lieseek.cli``, ``first_step`` at
the first RK4 step of the first run (set-up is over), and ``main_end``
when the CLI returns.  ``trace`` traces the run (see ``tracer.py``): the
spans go to ``spans_file(MARKS_JSON)`` and the rest of the trace into
the marks file.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

MODES = ("plain", "trace")


def spans_file(marks_path: str) -> str:
    return os.path.splitext(marks_path)[0] + "_spans.npy"


def mark_first_step(sim, marks: dict) -> None:
    """Record when the first integration step starts, then step aside."""
    inner = sim.rk4_step

    def first_step(*args, **kwargs):
        marks.setdefault("first_step", time.perf_counter())
        sim.rk4_step = inner
        return inner(*args, **kwargs)

    sim.rk4_step = first_step


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[3] != "--" or argv[2] not in MODES:
        print(__doc__, file=sys.stderr)
        return 2
    root, marks_path, mode = argv[:3]
    cli_args = argv[4:]
    src = os.path.join(os.path.abspath(root), "src")
    sys.path.insert(0, src)
    marks = {"start": START}
    tracer = None
    try:
        import lieseek.cli
        import lieseek.sim
        marks["imported"] = time.perf_counter()
        if not os.path.abspath(lieseek.__file__).startswith(src + os.sep):
            print(f"lieseek imported from {lieseek.__file__}, not {src}",
                  file=sys.stderr)
            return 2
        if mode == "trace":
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        mark_first_step(lieseek.sim, marks)
        return lieseek.cli.main(cli_args)
    finally:
        marks["main_end"] = time.perf_counter()
        if tracer is not None:
            import numpy as np
            meta, rows = tracer.dump()
            marks["trace"] = meta
            np.save(spans_file(marks_path),
                    np.asarray(rows, dtype=float).reshape(-1, 6))
        with open(marks_path, "w", encoding="utf-8") as fh:
            json.dump(marks, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
