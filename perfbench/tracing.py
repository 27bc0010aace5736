"""In-memory tracing of calls into the program, installed from outside it.

A `Tracer` replaces functions of the program with wrappers that count
calls and time them.  Time is kept two ways:

- aggregated totals per function (calls, inclusive seconds, seconds
  spent in nested wrapped calls), cheap enough for kernels called
  millions of times;
- spans for the coarse boundaries (a request, a CLI command, a check,
  a parse or render): name, start, end, parent span and request id.

A function's self time is its inclusive time minus the time of the
nested calls that are also wrapped.  Nothing under the program's source
tree is edited: wrappers are bound in place of the originals and
removed again by `uninstall`.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from types import ModuleType
from typing import Callable

# Kernel backends are the inside of the `kernels` layer: their internal
# calls (join_flat -> pair_index in the pure backend) are not layer
# crossings, and the compiled backend's cannot be patched, so wrapping
# them would make counts differ between backends.
BACKEND_MODULES = ("cyclat._pykernels", "cyclat._ckernels")


@dataclass(frozen=True)
class Target:
    """One traced function: `attr` is a name in `module`, or
    "Class.hook" for a method looked up on the class at call time."""

    layer: str
    module: str
    attr: str
    timed: bool = True       # False: count calls only
    span: bool = False       # also record a span per call
    per_arg: bool = False    # keep separate totals per first argument

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.attr}"


def program_modules() -> list[ModuleType]:
    """Loaded modules of the program whose bindings may be patched."""
    return [m for name, m in sorted(sys.modules.items())
            if (name == "cyclat" or name.startswith("cyclat."))
            and name not in BACKEND_MODULES and m is not None]


class Tracer:
    """Wrappers, their totals and spans for one traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.totals: dict[str, list] = {}   # name -> [calls, inclusive_s, nested_s]
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._frames: list[list[float]] = []  # nested seconds of each open call
        self._open: list[int] = []            # ids of open spans
        self._request: int | None = None
        self._requests = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _stat(self, name: str) -> list:
        return self.totals.setdefault(name, [0, 0.0, 0.0])

    def counted(self, name: str, fn: Callable) -> Callable:
        stat = self._stat(name)

        def wrapper(*args, **kwargs):
            stat[0] += 1
            return fn(*args, **kwargs)
        return wrapper

    def timed(self, name: str, fn: Callable, *, span: bool = False,
              per_arg: bool = False,
              on_result: Callable[[object], None] | None = None) -> Callable:
        clock, frames = self.clock, self._frames
        stat = None if per_arg else self._stat(name)

        def wrapper(*args, **kwargs):
            label = f"{name}.{args[0]}" if per_arg else name
            entry = stat if stat is not None else self._stat(label)
            frame = [0.0]
            frames.append(frame)
            sid = self._open_span(label) if span else None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                frames.pop()
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += frame[0]
                if frames:
                    frames[-1][0] += elapsed
                if sid is not None:
                    self._close_span(sid, start, start + elapsed, frame[0])
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    # -- spans ------------------------------------------------------------

    def _open_span(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append({"id": sid, "name": name,
                           "parent": self._open[-1] if self._open else None,
                           "request": self._request})
        self._open.append(sid)
        return sid

    def _close_span(self, sid: int, start: float, end: float, nested: float) -> None:
        self._open.pop()
        self.spans[sid].update(start=start, end=end, self_s=end - start - nested)

    @contextmanager
    def request(self, name: str):
        """One span per request; every span opened inside shares its id."""
        self._request = self._requests
        self._requests += 1
        frame = [0.0]
        self._frames.append(frame)
        sid = self._open_span(name)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._frames.pop()
            self._close_span(sid, start, end, frame[0])
            self._request = None

    # -- installing -------------------------------------------------------

    def install(self, targets: list[Target], modules: list[ModuleType],
                on_result: dict[str, Callable[[object], None]] | None = None) -> None:
        """Wrap every target wherever the program binds it.

        A plain function is replaced under every name any module in
        `modules` binds it to, so `from x import f` copies are caught.
        `on_result` maps a target name to a callback given each result.
        A class hook is replaced on the class.  A target that does not
        exist is recorded in `absent` and skipped.
        """
        by_name = {m.__name__: m for m in modules}
        on_result = on_result or {}
        for target in targets:
            owner = by_name.get(target.module)
            cls_name, _, hook = target.attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
                original = vars(owner).get(hook) if isinstance(owner, type) else None
            else:
                original = getattr(owner, hook, None)
            if not callable(original):
                self.absent.append(target.name)
                continue
            if target.timed:
                wrapper = self.timed(target.name, original, span=target.span,
                                     per_arg=target.per_arg,
                                     on_result=on_result.get(target.name))
            else:
                wrapper = self.counted(target.name, original)
            if cls_name:
                self._bind(owner, hook, original, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._bind(module, key, original, wrapper)

    def _bind(self, owner: object, key: str, original: object, wrapper: Callable) -> None:
        setattr(owner, key, wrapper)
        self._restore.append((owner, key, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    # -- results ----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0,))[0]

    def self_seconds(self, name: str) -> float:
        calls, inclusive, nested = self.totals.get(name, (0, 0.0, 0.0))
        return inclusive - nested
