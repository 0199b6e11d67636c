"""Scoped GC thresholds for bulk store reads and analysis folds.

Decoding a stored crawl allocates hundreds of thousands of frozen records,
dicts and lists that form no reference cycles, yet each 700 container
allocations trigger a generation-0 collection, and every tenth of those
promotes into older generations that are walked again and again.
:func:`bulk_gc` raises the generation-0 threshold to
:data:`BULK_GEN0_THRESHOLD` for the duration of a bulk read or fold and
puts the caller's thresholds back afterwards.  Collection is only
deferred, never disabled: a scope still collects every
:data:`BULK_GEN0_THRESHOLD` net allocations.

GC thresholds are process-wide state, so the scope is shared:

* **Nesting and threads.** A depth counter under a lock: only the
  outermost entry saves the thresholds and only the last exit restores
  them, whichever thread enters or exits first.  While any thread holds a
  scope, every thread of the process runs under the raised threshold.
* **Fork.** A child forked while a scope is open gets the saved
  thresholds back and a depth of zero (``os.register_at_fork``), so a
  worker never keeps the raised threshold for good; an exit of a scope
  entered before the fork is a no-op in the child.
* **Generators.** Never hold a scope across a ``yield``: the consumer
  may suspend the generator for as long as it likes, or never resume it.
  Scope the work between yields instead.

The crawl path is not scoped (see DESIGN.md, "Bulk-read GC scoping").
"""

from __future__ import annotations

import gc
import os
import threading
from contextlib import contextmanager
from typing import Iterator

#: Generation-0 threshold inside a bulk scope (the default is 700).
BULK_GEN0_THRESHOLD = 50_000

_lock = threading.Lock()
_depth = 0
_saved: "tuple[int, ...] | None" = None


@contextmanager
def bulk_gc() -> Iterator[None]:
    """Run the block under a raised generation-0 GC threshold.

    The caller's generation-1 and generation-2 thresholds are kept, and
    all three are restored exactly on the outermost exit, also when the
    block raises."""
    global _depth, _saved
    pid = os.getpid()
    with _lock:
        if _depth == 0:
            _saved = gc.get_threshold()
            gc.set_threshold(BULK_GEN0_THRESHOLD, *_saved[1:])
        _depth += 1
    try:
        yield
    finally:
        # A scope entered before a fork ends in the child after the
        # at-fork hook already restored the thresholds there.
        if os.getpid() == pid:
            with _lock:
                _depth -= 1
                if _depth == 0:
                    gc.set_threshold(*_saved)
                    _saved = None


def _restore_in_child() -> None:
    global _lock, _depth, _saved
    # Another thread may have held the lock at fork time; it does not
    # exist in the child, so the lock would never be released.
    _lock = threading.Lock()
    if _depth:
        gc.set_threshold(*_saved)
    _depth = 0
    _saved = None


os.register_at_fork(after_in_child=_restore_in_child)
