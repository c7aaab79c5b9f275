"""Smoke test of benchmarks/kernel_bench.py: it reaches into the phi-action
internals, so a change to them must keep it running."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "kernel_bench.py"


def test_kernel_bench_prints_every_table(capsys):
    spec = importlib.util.spec_from_file_location("kernel_bench", SCRIPT)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    bench.main(["--repeats", "1", "--nx", "8"])
    out = capsys.readouterr().out
    assert "SparseOperator.matvec (81 dof" in out
    assert "setdm0_step (64 cells, multiplicative)" in out
    assert "setdm1_step (64 cells, multiplicative)" in out
    assert "normal_block 65x65" in out
    assert "fine-step field, nodes 1/32 (33x33 classes)" in out
    assert "fine-step field, cells 1/32 (32x32 classes)" in out
    assert "exact reference, linear preset, T = 1/16" in out
    products = [line for line in out.splitlines() if line.startswith("P of ")]
    assert len(products) == 3
    for line in products:
        # csr @ x, the CSR kernel and the diagonal kernel all timed
        assert line.count(" us") + line.count(" ms") == 3, line
    actions = [line for line in out.splitlines() if line.startswith("fused action")]
    assert len(actions) == 10
    for line in actions:
        # a time per action and per product, then positive product and
        # step counts
        assert line.count(" us") + line.count(" ms") == 2, line
        products, steps = (int(tok) for tok in line.split()[-2:])
        assert products >= steps >= 1, line
    # the study generators take one step at their step lengths
    assert all(line.split()[-1] == "1" for line in actions[:6])
