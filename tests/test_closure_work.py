"""scripts/closure_work.py on the smoke ``closures`` op list: its counts
match the reduction, and the work it reports is no more than tracing
every op's word as given."""

import importlib.util
import pathlib

from hsk import BraidWord, Params
from hsk.closure import _reduce
from hsk.seminormal import path_model
from hskbench.workloads import make_ops

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "closure_work.py"
spec = importlib.util.spec_from_file_location("closure_work", SCRIPT)
closure_work = importlib.util.module_from_spec(spec)
spec.loader.exec_module(closure_work)


def test_smoke_op_list(capsys):
    ops = make_ops("closures", 41, smoke=True)
    assert closure_work.main(["--smoke"]) == 0
    lines = capsys.readouterr().out.splitlines()
    count, factors, work, strands = closure_work.closure_work(ops)
    closures = [op for op in ops if op["kind"] == "closure"]
    reduced = [_reduce(BraidWord(op["n"], tuple(op["word"])))[0] for op in closures]
    assert count == len(closures)
    assert factors == sum(strands.values()) == sum(map(len, reduced))
    assert lines[0] == (f"closures seed 41 draw 0 smoke: {count} ops, {factors} factors, "
                        f"{work:,} letter-rows")
    assert lines[1:] == [f"  {n} strands: {strands[n]} factors" for n in sorted(strands)]
    given = sum(len(op["word"]) * sum(len(b.paths) for b in
                                      path_model(Params(op["N"], op["K"]), op["n"]).blocks)
                for op in closures)
    assert 0 < work < given
