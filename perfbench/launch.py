"""Run one discrepancy-forge CLI invocation with spans around the package's layers.

    python3 perfbench/launch.py --spans FILE --run-id ID -- <cli arguments>

Before it calls `discrepancy_forge.cli.main`, the launcher wraps the public
callables of every module in `layers.MODULES`: module functions are rebound
in every package module that imported them, and methods, classmethods and
staticmethods are wrapped on their class. Each call records a span (name,
start, end, parent span, run id) plus the counts and allocation peaks that
`layers` asks for. Spans stay in memory and are written to FILE as JSON lines
when the run ends. The exit code is the CLI's; the library is not changed.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import sys
import time
import tracemalloc
from pathlib import Path

import layers

PACKAGE = "discrepancy_forge"
ENTRY = "cli.main"  # called by the launcher inside its own root span


class Tracer:
    """In-memory span recorder for one CLI run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        """`fn` with a span named `name` around each call."""
        counters = [(m, f) for m, (pat, f) in layers.COUNTS.items()
                    if layers.matches(name, [pat])]
        allocs = [m for m, pat in layers.ALLOCS.items() if layers.matches(name, [pat])]
        sig = inspect.signature(fn) if any(f for _, f in counters) else None
        spans, stack, run_id = self.spans, self._stack, self.run_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = {"name": name, "start": 0.0, "end": 0.0,
                   "parent": stack[-1] if stack else None, "run": run_id}
            stack.append(len(spans))
            spans.append(rec)
            owns_alloc = bool(allocs) and not tracemalloc.is_tracing()
            if owns_alloc:
                tracemalloc.start()
            rec["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                stack.pop()
                if owns_alloc:
                    peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
                    tracemalloc.stop()
                    rec["alloc_mb"] = {m: peak for m in allocs}
            if counters:
                bound = None
                if sig is not None:
                    ba = sig.bind(*args, **kwargs)
                    ba.apply_defaults()
                    bound = ba.arguments
                rec["counts"] = {m: 1 if f is None else int(f(bound, result))
                                 for m, f in counters}
            return result

        return wrapper

    def patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    def write(self, path, missing: list[str]) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"run": self.run_id, "missing": missing}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def wrap_package(tracer: Tracer) -> list[str]:
    """Wrap the public callables of `layers.MODULES`; returns the missing patterns."""
    originals: dict[int, tuple[object, object]] = {}
    names = []
    for short in layers.MODULES:
        mod = importlib.import_module(f"{PACKAGE}.{short}")
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            name = f"{short}.{attr}"
            # a generator's work runs in its consumer, which keeps that time
            if (inspect.isfunction(obj) and name != ENTRY
                    and not inspect.isgeneratorfunction(obj)):
                originals[id(obj)] = (obj, tracer.wrap(name, obj))
                names.append(name)
            elif inspect.isclass(obj):
                for meth, raw in list(vars(obj).items()):
                    qual = f"{short}.{obj.__qualname__}.{meth}"
                    if meth.startswith("_"):
                        continue
                    if isinstance(raw, (classmethod, staticmethod)):
                        new = type(raw)(tracer.wrap(qual, raw.__func__))
                    elif inspect.isfunction(raw):
                        new = tracer.wrap(qual, raw)
                    else:
                        continue
                    tracer.patch(obj, meth, new)
                    names.append(qual)
    for key, mod in list(sys.modules.items()):
        if key != PACKAGE and not key.startswith(PACKAGE + "."):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = originals.get(id(obj))
            if hit is not None and hit[0] is obj:
                tracer.patch(mod, attr, hit[1])
    return [p for p in layers.patterns() if not any(layers.matches(n, [p]) for n in names)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="JSON-lines output path")
    parser.add_argument("--run-id", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    cli = importlib.import_module(f"{PACKAGE}.cli")
    tracer = Tracer(args.run_id)
    missing = wrap_package(tracer)
    for pattern in missing:
        print(f"launch: no callable matches {pattern!r}", file=sys.stderr)
    try:
        code = tracer.wrap(layers.ROOT, cli.main)(cli_args)
    finally:
        tracer.write(args.spans, missing)
    return code


if __name__ == "__main__":
    sys.exit(main())
