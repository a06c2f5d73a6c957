"""Regenerate every paper figure that has a committed artifact.

One test, parametrized over the experiment registry: run the figure's
committed grid serially, print its table (``-s`` regenerates the paper's
figures as text), write ``BENCH_<artifact>.json`` and assert the figure's
paper-shape gates.  ``-k <name>`` runs one figure.
"""

import pytest

from repro.experiments.runner import EXPERIMENTS, run_experiment

from conftest import write_bench_artifact


@pytest.mark.parametrize("name", [n for n, e in EXPERIMENTS.items() if e.artifact])
def test_bench_figure(benchmark, name):
    exp = EXPERIMENTS[name]
    out = benchmark.pedantic(run_experiment, args=(exp,), kwargs={"processes": 1},
                             rounds=1, iterations=1)
    result, table = out.result(), out.table()
    path = write_bench_artifact(exp.artifact, host=out.host(), figure=exp.figure,
                                **result)  # ``rows`` + the figure's summary
    benchmark.extra_info.update(figure=exp.figure, table=table, artifact=str(path))
    print("\n" + table)
    exp.gates(result)
