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
    assert "setdm1_step" in out
    assert "normal_block 65x65" in out
    assert "normal_block 101x101" in out
    products = [line for line in out.splitlines() if line.startswith("P of ")]
    assert len(products) == 3
    for line in products:
        # csr @ x and the product helper both timed, with their ratio
        assert line.count(" us") + line.count(" ms") == 2 and line.endswith("x"), line
    routes = [line for line in out.splitlines() if line.startswith("fused action")]
    assert len(routes) == 5
    for line in routes:
        # Taylor and uniformized product counts are both positive
        products = [int(tok) for tok in line.split(")", 1)[1].split() if tok.isdigit()]
        assert len(products) == 2 and min(products) > 0, line
