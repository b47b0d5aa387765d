"""Per-layer timing from outside the program.

:class:`LayerClock` swaps public functions and methods for timing
wrappers and accumulates each layer's *self* time: a call's wall time
minus the time spent in nested wrapped calls.  What a timed operation
spends outside every wrapped call is its unattributed time.

Only used in traced runs; :meth:`LayerClock.restore` puts every original
back, so untraced operations in the same process run unwrapped.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


class LayerClock:
    def __init__(self):
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[list] = []
        self._patches: List[tuple] = []

    def wrap(
        self,
        owner,
        attr: str,
        layer: str,
        count: Optional[Callable] = None,
    ) -> None:
        """Time ``owner.attr`` as ``layer``; ``count(args, result)``
        may return a work count added to ``counts[layer]``."""
        original = getattr(owner, attr)
        clock = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            frame = [time.perf_counter(), 0.0]
            clock._stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                clock._stack.pop()
                elapsed = time.perf_counter() - frame[0]
                clock.self_s[layer] += elapsed - frame[1]
                if clock._stack:
                    clock._stack[-1][1] += elapsed
            if count is not None:
                clock.counts[layer] += count(args, result)
            return result

        self._patches.append((owner, attr, original, attr in vars(owner)))
        setattr(owner, attr, timed)

    def restore(self) -> None:
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()
