"""Call hooks for a measured ubimap process: a frame clock and a span tracer.

Both work by replacing functions with wrappers at every place the program
can reach them: the defining module, each module that imported the name
with ``from ... import``, and class attributes for methods. Nothing under
``src/`` changes; the wrappers live only in the measured process.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# Layers named after the package's modules. ``cli`` is not wrapped: its
# share is whatever the spans below leave uncovered.
MODULES = ("world", "coverage", "calib", "sensim", "fusion", "netsim", "geom")
METHODS = {
    "netsim": (("MapServer", "ingest"), ("SimulatedNetwork", "deliver_due")),
    "geom": (("RigidTransform", "transform_points"),),
}
# Bindings created by ``from ... import``; each must end up wrapped.
IMPORTED_BINDINGS = (
    ("sensim", "covered_cells"),
    ("sensim", "line_of_sight"),
    ("cli", "line_of_sight"),
    ("coverage", "covered_cells"),
    ("netsim", "merge_robot_map"),
)


class SelfCheckError(RuntimeError):
    """The hooks did not reach every binding they were meant to."""


def _package_namespaces():
    """Every module dict and class dict of the loaded ubimap package."""
    for name, module in sorted(sys.modules.items()):
        if name != "ubimap" and not name.startswith("ubimap."):
            continue
        yield module
        for value in list(vars(module).values()):
            if inspect.isclass(value) and value.__module__ == name:
                yield value


def rebind(replacements: dict[int, tuple[object, object]]) -> None:
    """Swap each original (keyed by id) for its wrapper wherever the
    package holds it, then verify that no original is left anywhere."""
    for space in _package_namespaces():
        for attr, value in list(vars(space).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(space, attr, hit[1])
    for space in _package_namespaces():
        for attr, value in vars(space).items():
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                raise SelfCheckError(f"{space.__name__}.{attr} still holds the unwrapped function")


class SetupReached(BaseException):
    """Raised by a set-up probe's clock at its first call. A BaseException,
    so that the CLI's ``except Exception`` boundary lets it through."""


class FrameClock:
    """Timestamps (``time.monotonic``) at each call of one function; the
    only hook of an untraced run. With ``stop`` set, the first call raises
    ``SetupReached`` instead of running the function."""

    def __init__(self, module, name: str, stop: bool = False) -> None:
        self.times: list[float] = []
        original = getattr(module, name)
        times = self.times

        @functools.wraps(original)
        def stamped(*args, **kwargs):
            times.append(time.monotonic())
            if stop:
                raise SetupReached
            return original(*args, **kwargs)

        rebind({id(original): (original, stamped)})


class Tracer:
    """Aggregated spans per layer function: calls, inclusive seconds and
    self seconds (inclusive minus the time of nested spans), plus counters
    observed at the same boundaries."""

    def __init__(self) -> None:
        self.spans: dict[str, list[float]] = {}  # name -> [calls, seconds, self seconds]
        self.counters: dict[str, float] = {}
        self.top_level_s = 0.0
        self._stack: list[float] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _wrap(self, name: str, fn):
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        observe = name in OBSERVED

        @functools.wraps(fn)
        def span(*args, **kwargs):
            before = _before(name, args) if observe else None
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - nested
                if stack:
                    stack[-1] += elapsed
                else:
                    self.top_level_s += elapsed
            if observe:
                _after(self, name, args, result, before)
            return result

        return span

    def install(self) -> None:
        """Wrap the public functions of every layer module and the listed
        methods, at every binding, then check the named imports."""
        ubimap = sys.modules["ubimap"]
        replacements = {}
        for mod_name in MODULES:
            module = getattr(ubimap, mod_name)
            for attr, value in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(value) or value.__module__ != module.__name__:
                    continue
                name = f"{mod_name}.{attr}"
                replacements[id(value)] = (value, self._wrap(name, value))
            for cls_name, method in METHODS.get(mod_name, ()):
                value = vars(getattr(module, cls_name))[method]
                replacements[id(value)] = (value, self._wrap(f"{mod_name}.{method}", value))
        rebind(replacements)
        wrappers = {id(wrapper) for _, wrapper in replacements.values()}
        for mod_name, attr in IMPORTED_BINDINGS:
            if id(getattr(getattr(ubimap, mod_name), attr)) not in wrappers:
                raise SelfCheckError(f"ubimap.{mod_name}.{attr} is not wrapped")
        for mod_name, pairs in METHODS.items():
            for cls_name, method in pairs:
                if id(vars(getattr(getattr(ubimap, mod_name), cls_name))[method]) not in wrappers:
                    raise SelfCheckError(f"ubimap.{mod_name}.{cls_name}.{method} is not wrapped")

    def report(self) -> dict:
        return {"spans": self.spans, "counters": self.counters, "top_level_s": self.top_level_s}


# Counters read at a span's boundary: what a call did, not how long it took.
OBSERVED = frozenset({
    "fusion.fuse_frame", "fusion.merge_robot_map", "sensim.observe_obstacles",
    "netsim.encode", "netsim.client_apply", "calib.refine",
})


def _before(name: str, args):
    """What ``_after`` needs from the arguments as they were before the call."""
    if name in ("fusion.fuse_frame", "fusion.merge_robot_map"):
        return args[0].revision
    if name == "netsim.client_apply":
        client, msg = args
        return msg.kind.name == "MAP_UPDATE", client.last_applied_seq
    return None


def _after(tracer: Tracer, name: str, args, result, before) -> None:
    if name == "fusion.fuse_frame" and args[0].revision != before:
        tracer.count("fusion.fuse_frame.revised")
    elif name == "fusion.merge_robot_map" and args[0].revision != before:
        tracer.count("fusion.merge_robot_map.changed")
    elif name == "sensim.observe_obstacles":
        tracer.count("sensim.observe_obstacles.items", len(result))
    elif name == "netsim.encode":
        tracer.count("netsim.encode.bytes", len(result))
    elif name == "netsim.client_apply" and before[0]:
        # MAP_UPDATEs delivered to a client, and those it applied (not stale).
        tracer.count("netsim.map_updates_delivered")
        if args[0].last_applied_seq != before[1]:
            tracer.count("netsim.map_updates_applied")
    elif name == "calib.refine":
        # Accepted Levenberg-Marquardt steps: the cost trace minus its start.
        tracer.count("calib.refine.accepted", len(result[1]) - 1)
