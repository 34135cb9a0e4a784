"""One access path: the paper's scheme runs through MemoryScheme.access."""

import inspect
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
import repro.schemes.base as schemes_base
from repro.core.engine import resolve_engine
from repro.core.scheme import PPScheme
from repro.schemes.base import MemoryScheme
from repro.schemes.pp_adapter import PPAdapter
from repro.schemes.single_copy import SingleCopyScheme


class TestOneAccessFunction:
    def test_pp_scheme_is_a_memory_scheme(self):
        assert issubclass(PPScheme, MemoryScheme)
        for name in ("access", "read", "write"):
            assert name not in vars(PPScheme)

    def test_constructor_takes_only_q_and_n(self):
        params = list(inspect.signature(PPScheme.__init__).parameters)
        assert params == ["self", "q", "n"]

    def test_adapter_only_binds_the_placement_hooks(self):
        own = {k for k in vars(PPAdapter) if not k.startswith("_")}
        assert own == {"placement", "slots"}
        assert PPAdapter.placement is PPScheme.placement
        assert PPAdapter.slots is PPScheme.slots


class TestProtocolCalls:
    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        real = schemes_base.run_access_protocol

        def spy(*args, **kwargs):
            res = real(*args, **kwargs)
            seen.append((kwargs["op"], res.engine))
            return res

        monkeypatch.setattr(schemes_base, "run_access_protocol", spy)
        return seen

    @pytest.mark.parametrize("cls", [PPScheme, PPAdapter])
    def test_one_protocol_call_per_operation(self, cls, calls):
        s = cls(2, 3)
        idx = s.random_request_set(20, seed=4)
        store = s.make_store()
        s.write(idx, values=idx, store=store, time=1)
        res = s.read(idx, store=store, time=2)
        s.access(idx, op="count")
        assert (res.values == idx).all()
        eng = resolve_engine(None)
        assert calls == [("write", eng), ("read", eng), ("count", eng)]

    def test_baseline_records_live_history(self, calls):
        sc = SingleCopyScheme(16, 100)
        res = sc.access(np.arange(40, dtype=np.int64))
        assert calls == [("count", resolve_engine(None))]
        for p in res.phases:
            assert p.live_history[0] >= 1
            assert p.live_history[-1] == 0
            assert len(p.live_history) == p.iterations + 1


@pytest.mark.parametrize(
    "stmt",
    [
        "import repro.schemes.pp_adapter",
        "from repro.schemes import PPAdapter",
        "import repro.core.scheme",
        "import repro.schemes.base",
    ],
)
def test_import_order_has_no_cycle(stmt):
    # a fresh interpreter, so the statement is the first import of repro
    out = subprocess.run(
        [sys.executable, "-c", stmt], capture_output=True, text=True,
        env={**os.environ,
             "PYTHONPATH": os.path.dirname(os.path.dirname(repro.__file__))},
    )
    assert out.returncode == 0, out.stderr
