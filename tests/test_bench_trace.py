"""The traced benchmark still finds every library name it wraps.

``bench/tracing.py`` patches hvisolve functions by module and attribute name;
a rename, or a step that stops calling a wrapped name, would otherwise only
show up when the benchmark runs traced.
"""

from pathlib import Path

from hvisolve import rothe
from hvisolve.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_traced_selftest_workload_records_steps(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    import workloads

    # the step operator is cached per (n, dx, tau); a cached one would skip
    # the assembly and solve spans it records when built
    rothe._schur_operator.cache_clear()
    monkeypatch.setenv("HVI_OUT", str(tmp_path))
    tracer = tracing.Tracer().install()
    try:
        rc = main(list(workloads.SELFTEST.argv))
    finally:
        tracer.uninstall()
    assert rc == 0
    metrics = tracer.metrics()
    assert metrics["rothe.step_calls"] > 0
    # the run wrapper counts len(level) over the tree's non-root levels: the
    # kept rows, one trajectory row each after the header and the root row
    rows = (tmp_path / "trajectory.csv").read_text().splitlines()
    kept = metrics["rothe.candidates"] - metrics["rothe.level_discarded"]
    assert kept == len(rows) - 2 > 0
    recorded = {span[0] for span in tracer.spans}
    missing = {name for _, _, name in tracing.BOUNDARIES} - recorded
    assert not missing, sorted(missing)
