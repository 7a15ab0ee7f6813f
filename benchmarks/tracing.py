"""Per-layer tracing for the benchmark's traced runs.

A layer is a module of the bayesdict package. `install` swaps every
public function defined in a traced module for a timing wrapper, and
rebinds every `bayesdict.*` module attribute that held the original
function object: `cli` imports names directly and the engines call
their siblings through module globals, so patching only the defining
module would miss most calls. `uninstall` puts the original objects
back.

Spans are aggregated as they close instead of being stored: each open
span keeps the time its direct children covered, so its self time is
its duration minus that. Calls run on one thread, so direct children
never overlap and the subtraction is exact.
"""

import functools
import inspect
import sys
import time
from collections import defaultdict

import scipy.linalg

# The harness opens this span around each bayesdict.cli.main call, so
# cli is the root layer and its functions are not wrapped; the package
# itself and errors define no functions.
ROOT_SPAN = "cli"
UNTRACED_MODULES = ("bayesdict", "bayesdict.cli", "bayesdict.errors")


def _count_columns(args, result):
    return {"columns": args[1].L}


def _count_iterations(args, result):
    return {"iterations": result[1].iterations_run}


def _count_signals(args, result):
    return {"signals": args[1].shape[1],
            "omp.atoms_selected": sum(len(c.support) for c in result)}


# Work counts taken at a function's boundary from its arguments and
# result. A key without a dot is the span's own, "<span>.<key>"; a key
# with one is a metric name in its own right.
COUNTERS = {
    "gibbs.sample_codes": _count_columns,
    "vb.update_codes": _count_columns,
    "vb.run_vb": _count_iterations,
    "omp.batch_encode": _count_signals,
}


class Tracer:
    """Aggregated span totals: calls, self time and work counts."""

    def __init__(self, clock=time.perf_counter):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.extra = defaultdict(int)
        self._clock = clock
        self._stack = []  # [name, start, child_seconds]

    def enter(self, name: str) -> None:
        self._stack.append([name, self._clock(), 0.0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        dur = self._clock() - start
        self.calls[name] += 1
        self.self_s[name] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def innermost(self):
        return self._stack[-1][0] if self._stack else None

    def metrics(self) -> dict:
        """Flat "<span>.self_s" / "<span>.calls" / "<span>.<count>" map."""
        out = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out.update(self.extra)
        return out


def _wrap(tracer: Tracer, name: str, fn):
    counter = COUNTERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if counter is not None:
            for key, n in counter(args, result).items():
                tracer.extra[key if "." in key else f"{name}.{key}"] += n
        return result

    return wrapper


def _bayesdict_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None
            and (n == "bayesdict" or n.startswith("bayesdict."))]


def traced_functions() -> dict:
    """{original function: span name} for every public function defined
    in a traced bayesdict module."""
    found = {}
    for mod in _bayesdict_modules():
        if mod.__name__ in UNTRACED_MODULES:
            continue
        layer = mod.__name__.split(".", 1)[1]
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__):
                found[obj] = f"{layer}.{attr}"
    return found


class Installed:
    """The rebindings made by `install`, in the order they were made."""

    def __init__(self):
        self.patches = []  # (owner, attribute, original)

    def set(self, owner, attr, value) -> None:
        self.patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)


def install(tracer: Tracer) -> Installed:
    """Wrap every traced function wherever a bayesdict module binds it,
    and count scipy's Cholesky calls made inside spd_factor."""
    wrappers = {fn: _wrap(tracer, name, fn)
                for fn, name in traced_functions().items()}
    done = Installed()
    for mod in _bayesdict_modules():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                done.set(mod, attr, wrappers[obj])

    cho_factor = scipy.linalg.cho_factor

    @functools.wraps(cho_factor)
    def counted_cho_factor(*args, **kwargs):
        if tracer.innermost() == "linalg.spd_factor":
            tracer.extra["linalg.cho_factor.calls"] += 1
        return cho_factor(*args, **kwargs)

    done.set(scipy.linalg, "cho_factor", counted_cho_factor)
    return done


def uninstall(done: Installed) -> None:
    """Restore every rebound attribute to its original object."""
    while done.patches:
        owner, attr, original = done.patches.pop()
        setattr(owner, attr, original)
