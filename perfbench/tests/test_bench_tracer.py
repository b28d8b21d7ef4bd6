"""The tracer sees calls made through every importing module's bound name,
and its self times add up to the traced operation."""

import json

import run
import workloads
from tracer import Tracer


def test_tracer_sees_imported_names_and_uninstalls(tmp_path):
    cli, _ = run.import_gluecheck()
    import gluecheck.exactlin as exactlin
    import gluecheck.lattice as lattice

    original = exactlin.kernel
    ops = workloads.prepare("chain", 5, tmp_path, tiny=True)
    tracer = Tracer()
    tracer.install(hooks=run.HOOKS)
    try:
        assert lattice.kernel is exactlin.kernel is not original
        code, stdout, crash, elapsed = run.run_op(cli, ops[0].argv)
    finally:
        tracer.uninstall()
    assert crash is None and json.loads(stdout)["exit"] == code
    assert lattice.kernel is original and exactlin.kernel is original

    assert tracer.calls("cli.main") == 1
    # kernel is called from lattice, algebra and multipullback under their own bound names
    assert tracer.edges[("multipullback.pullback_subspace", "exactlin.kernel")] >= 1
    assert tracer.edges[("lattice.generate_lattice", "exactlin.intersect")] >= 1
    assert tracer.calls("algebra.Algebra.multiply") > 0
    assert tracer.calls("algebra.Algebra.direct_sum") == 1
    assert tracer.counts["lattice.elements"] > 0
    self_total = sum(s[1] for s in tracer.stats.values())
    assert self_total == tracer.stats["cli.main"][2]
    assert tracer.total_s("cli.main") <= elapsed

    tracer.write(tmp_path / "trace.json")
    written = json.loads((tmp_path / "trace.json").read_text())
    roots = [s for s in written["spans"] if s[4] == -1]
    assert len(roots) == 1 and written["span_names"][roots[0][1]] == "cli.main"
    ids = {s[0] for s in written["spans"]}
    assert all(s[4] == -1 or s[4] in ids for s in written["spans"])
