"""The benchmark tracer's contract with plif.

``bench/tracing.py`` wraps plif module attributes by name and reads what
they return; only a traced benchmark run calls those wrappers. This test
runs one traced CLI sweep in-process, so a renamed attribute or a changed
return shape fails here too.
"""

from pathlib import Path

import plif.cli as cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_counts_a_cli_sweep_and_restores_what_it_wrapped(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    wrapped = list(tracer._saved)
    try:
        assert all(getattr(owner, attr) is not real for owner, attr, real in wrapped)
        assert cli.main(["sweep", "--hmm", "--depth", "10", "--format", "csv"]) == 0
    finally:
        tracer.uninstall()
    assert len(wrapped) == 14
    assert all(getattr(owner, attr) is real for owner, attr, real in wrapped)
    assert len(capsys.readouterr().out.splitlines()) == 11  # header and ten rows
    counts = tracer.counts
    assert counts["model.resolver.calls"] == 21
    assert counts["retrieval.interior_nodes"] == 100
    assert counts["retrieval.frontier_nodes"] == 10
    assert counts["infer.thresholds"] == 10
    assert counts["infer.clamps"] == 20
