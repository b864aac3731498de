"""Golden Chrome-trace snapshot for a minimal deterministic serving run.

The simulated-clock export is a pure function of the workload — one
tenant, fifo-serial batching, three queries with pinned arrival
stamps — so the whole ``trace_event`` JSON is pinned byte-for-byte.
A change in span naming, track layout, timestamp accounting, or
export formatting fails loudly here instead of silently reshaping
every downstream trace.

When a change is *intentional*, regenerate with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_trace_golden.py

and review the golden diff like any other code change.
"""

import asyncio
import difflib
import json
import os
import pathlib

import pytest

from repro.obs import Tracer, validate_chrome_trace
from repro.server import QueryServer
from repro.session import Session

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def check_golden(name: str, text: str) -> None:
    path = GOLDEN_DIR / f"{name}.json"
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(text + "\n")
        return
    assert path.exists(), (
        f"golden file {path} missing — generate it with "
        "REPRO_UPDATE_GOLDEN=1")
    expected = path.read_text().rstrip("\n")
    if text != expected:
        diff = "\n".join(difflib.unified_diff(
            expected.splitlines(), text.splitlines(),
            fromfile=f"golden/{name}.json", tofile="rendered",
            lineterm=""))
        pytest.fail(f"trace export drifted from golden {name}:\n{diff}")


def _traced_trace() -> Tracer:
    tracer = Tracer()

    async def main():
        server = QueryServer(mode="fifo-serial", tracer=tracer)
        tenant = server.add_tenant("acme")
        tenant.session.create_table("t", list(range(64)))
        tenant.session.predicate("even", lambda v: v % 2 == 0)
        async with server:
            futures = [
                server.submit_nowait("acme", "filter(t, even)",
                                     kind="scan", arrival_ns=0.0),
                server.submit_nowait("acme", "sort(t)", kind="sort",
                                     arrival_ns=1000.0),
                server.submit_nowait("acme", "filter(t, even)",
                                     kind="scan", arrival_ns=2000.0),
            ]
            await asyncio.gather(*futures)
            await server.drain()

    asyncio.run(main())
    return tracer


class TestTraceGolden:
    def test_chrome_export_matches_golden(self):
        tracer = _traced_trace()
        payload = tracer.chrome_trace("sim")
        assert validate_chrome_trace(payload) == []
        rendered = json.dumps(payload, indent=2, sort_keys=True)
        check_golden("trace_chrome", rendered)
