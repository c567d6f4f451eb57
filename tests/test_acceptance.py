"""Acceptance suite: one test per pinned criterion, printing its verdict.

Parameters (orders, knots and points) are pinned inside
:mod:`lorentzknots.acceptance`; nothing here is tunable.  The same registry
backs the ``lorentzknots verify`` subcommand.
"""

import time

import pytest

from lorentzknots.acceptance import CRITERIA


@pytest.mark.parametrize(
    "number,title,func", CRITERIA, ids=[f"criterion_{n}_{t.replace(' ', '_')}" for n, t, _ in CRITERIA]
)
def test_criterion(number, title, func):
    start = time.time()
    ok, detail = func()
    line = (
        f"[{'PASS' if ok else 'FAIL'}] criterion {number} ({title}): {detail} "
        f"[{time.time() - start:.1f}s]"
    )
    print(line)
    assert ok, line
