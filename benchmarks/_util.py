"""Shared helpers for the benchmark harness.

Every bench prints the rows/series it regenerates (run pytest with ``-s``
to see them) and asserts the *shape* of the paper's claim, so the suite
doubles as a regression test on the reproduction.
"""

from __future__ import annotations

from typing import Any, Awaitable, Callable, Iterable, List, Sequence, Tuple


def print_table(title: str, headers: Sequence[str],
                rows: Iterable[Sequence[object]]) -> str:
    """Render and print a fixed-width table; returns the rendered text."""
    rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [f"\n=== {title} ==="]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    text = "\n".join(lines)
    print(text)
    return text


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        if abs(cell) >= 1:
            return f"{cell:.3f}"
        return f"{cell:.5f}"
    return str(cell)


def interleaved_pairs(
    run_a: Callable[[], Tuple[float, Any]],
    run_b: Callable[[], Tuple[float, Any]],
    pairs: int = 7,
) -> List[Tuple[float, Any, float, Any]]:
    """Run ``run_a`` and ``run_b`` ``pairs`` times each, interleaved.

    Each callable returns ``(seconds, payload)``.  The order alternates
    (A then B, then B then A, ...) so host drift bills both sides alike;
    returns ``[(a_seconds, a_payload, b_seconds, b_payload), ...]``.  A
    wall-clock ratio gate takes the median of the per-pair ratios — one
    sample measures the host as much as the code.
    """
    results = []
    for index in range(pairs):
        if index % 2 == 0:
            a_s, a_payload = run_a()
            b_s, b_payload = run_b()
        else:
            b_s, b_payload = run_b()
            a_s, a_payload = run_a()
        results.append((a_s, a_payload, b_s, b_payload))
    return results


async def interleaved_pairs_async(
    run_a: Callable[[], Awaitable[Tuple[float, Any]]],
    run_b: Callable[[], Awaitable[Tuple[float, Any]]],
    pairs: int = 7,
) -> List[Tuple[float, Any, float, Any]]:
    """:func:`interleaved_pairs` for coroutine functions (phases that
    share one event loop with the server they measure); each returns
    ``(measurement, payload)``."""
    results = []
    for index in range(pairs):
        if index % 2 == 0:
            a_value, a_payload = await run_a()
            b_value, b_payload = await run_b()
        else:
            b_value, b_payload = await run_b()
            a_value, a_payload = await run_a()
        results.append((a_value, a_payload, b_value, b_payload))
    return results
