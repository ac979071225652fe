"""No closure per message: scheduling and link calls take ``(callback, *args)``.

The engine, both fronts of the seeded link and ``Timer`` all carry a
callback's arguments themselves, so a hot path never needs to build a
``lambda`` per event or per message.  This walks ``src/repro`` and names
every call to one of those entry points that passes a ``lambda`` anyway.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

#: The entry points that carry ``(callback, *args)``; a private wrapper
#: (``_transmit``, ``_send``) counts as the call it wraps.
SCHEDULING_CALLS = frozenset(
    {
        "schedule_at",
        "schedule_in",
        "schedule_args",
        "schedule_timer",
        "transmit",
        "send",
        "carry",
    }
)


def lambda_calls(source: str, filename: str) -> list[str]:
    """``file:line`` of every scheduling call in ``source`` given a lambda."""
    hits = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = getattr(func, "attr", None) or getattr(func, "id", "")
        if name.lstrip("_") not in SCHEDULING_CALLS:
            continue
        values = list(node.args) + [keyword.value for keyword in node.keywords]
        if any(
            isinstance(inner, ast.Lambda)
            for value in values
            for inner in ast.walk(value)
        ):
            hits.append(f"{filename}:{node.lineno}")
    return hits


def test_no_scheduling_call_in_src_passes_a_lambda():
    root = Path(repro.__file__).parent
    hits = []
    for path in sorted(root.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        hits += lambda_calls(source, str(path.relative_to(root)))
    assert hits == [], "pass (callback, *args), not a lambda, at: " + ", ".join(hits)


def test_the_walk_finds_a_lambda_anywhere_in_the_arguments():
    source = (
        "sim.schedule_in(1.0, lambda: f(x))\n"
        "self._transmit(site, deliver, 'k', m, args=(lambda: None,))\n"
        "timer = schedule_timer(1.0, callback=lambda: None)\n"
        "sim.schedule_in(1.0, f, x)\n"
        "sorted(items, key=lambda item: item[0])\n"
    )
    assert lambda_calls(source, "probe.py") == [
        "probe.py:1", "probe.py:2", "probe.py:3"
    ]
