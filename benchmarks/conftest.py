"""Benchmark harness configuration.

Each shape benchmark regenerates one of the paper's tables/figures,
asserts the reproduced shape, and appends the rendered table to
``bench_report.txt`` next to this repo's other outputs (pytest's
fd-level capture would otherwise swallow stdout). ``REPRO_BENCH_SCALE``
(default 1.0) scales simulated durations.
"""

import os

import pytest

#: The reproduction report, written next to the repository root.
REPORT_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "bench_report.txt")

#: Whether this session has started the report. The first table a
#: session emits truncates it, so a session that renders no table (one
#: that only records ``BENCH_engine.json`` figures) leaves it as it was.
_REPORT = {"started": False}


@pytest.fixture
def once(benchmark):
    """Run an experiment exactly once under the benchmark timer (the
    experiment is deterministic; repeated rounds would only re-measure
    wall clock)."""
    def _runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return _runner


def emit(text):
    """Print a reproduction table (visible with ``-s``) and append it to
    the persistent report file, which the session's first table
    truncates."""
    print("\n" + text + "\n")
    with open(REPORT_PATH, "a" if _REPORT["started"] else "w") as report:
        if not _REPORT["started"]:
            report.write("Reproduction report (regenerated by pytest benchmarks/)\n")
            report.write("=" * 60 + "\n")
            _REPORT["started"] = True
        report.write("\n" + text + "\n")
