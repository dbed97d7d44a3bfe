"""``tools/resident.py`` counts only the pages a process holds."""

from __future__ import annotations

import importlib.util
import mmap
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "resident.py"
_SPEC = importlib.util.spec_from_file_location("resident", _PATH)
resident = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(resident)


def test_a_page_only_read_is_not_resident():
    """Of an anonymous mapping, a page that was read maps the shared zero
    page and a page that was written is the process's own: one resident
    page."""
    page = mmap.PAGESIZE
    buf = mmap.mmap(-1, 4 * page, flags=mmap.MAP_PRIVATE)
    arr = np.frombuffer(buf, dtype=np.uint8)
    assert arr[0] == 0  # page 0 read
    arr[2 * page] = 1  # page 2 written
    got = resident.resident_bytes(arr)
    if got is None:
        pytest.skip("pagemap cannot be read here")
    assert got == page
    del arr
    buf.close()
