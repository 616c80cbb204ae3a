"""Layer tracing from outside the package.

Installs wrappers around every public function of the arclab modules,
under every name that refers to it (``from .x import y`` re-binds a
function into other modules, and calls made through that name must be
seen too).  Wrappers return what the wrapped function returns and re-raise
what it raises.

Each wrapped call pushes a frame.  A frame's self time is its duration
minus the durations of the wrapped calls made inside it, so the self
times of one request's frames add up to the request's traced latency.
Cold boundaries also record a span (name, start, end, parent span,
request id) in memory; hot boundaries, called once per point, only add
to their counters so memory stays bounded.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

MODULES = ("metrics", "maps", "geodesics", "nevanlinna", "verifier", "funcspec", "cli")

# Called once per quadrature or sample point: counters only, no spans.
HOT = frozenset({"maps.evaluate", "metrics.norm_from_jet", "metrics.deriv_norm"})

# Scalar helpers that run inside every jet or boundary sample; wrapping them
# would cost more than the work they do.  Their time is the caller's self time.
UNWRAPPED = frozenset({"metrics.is_infinite", "metrics.density", "metrics.chordal"})

INTEGRAND = "geodesics.integrand"
DECOMPOSITION_EVAL = "nevanlinna.decomposition_eval"
_DECOMPOSITION_METHODS = ("f0_at", "finf_at", "quotient_at")

_clock = time.perf_counter


def public_functions(module, short):
    """(qualified name, function) for the functions a module defines."""
    out = []
    for attr, value in vars(module).items():
        if attr.startswith("_") or not callable(value) or isinstance(value, type):
            continue
        if getattr(value, "__module__", None) != module.__name__:
            continue
        qual = f"{short}.{attr}"
        if qual not in UNWRAPPED:
            out.append((qual, value))
    return out


class Tracer:
    """Counters and spans for one traced process.

    ``stats[name]`` holds [calls, total_s, self_s]; ``counts`` holds the
    machine-independent counts that are not plain call counts.
    """

    def __init__(self):
        self.active = False
        self._installed = []  # (owner, attribute, original)
        self._arclab_error = Exception
        self.reset()

    # -- bookkeeping -------------------------------------------------------

    def reset(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts = defaultdict(float)
        self.spans = []
        self._stack = []
        self._request = None
        self._request_self = 0.0
        self._fresh_keys = set()

    def begin_request(self, request_id):
        """Open the root frame of one request."""
        self._request = request_id
        self._request_self = 0.0
        self._fresh_keys = set()
        return self._enter("request", cold=True)

    def end_request(self, frame):
        """Close the root frame; returns the sum of the request's self times."""
        self._exit(frame)
        self._request = None
        return self._request_self

    def _enter(self, name, cold):
        parent = -1
        if self._stack:
            top = self._stack[-1]
            # the nearest enclosing span: a hot frame passes its own parent on
            parent = top[3] if top[4] else top[5]
        span_index = -1
        if cold:
            span_index = len(self.spans)
            self.spans.append(None)
        frame = [name, 0.0, 0.0, span_index, cold, parent]
        self._stack.append(frame)
        frame[1] = _clock()
        return frame

    def _exit(self, frame):
        end = _clock()
        top = self._stack.pop()
        if top is not frame:
            raise RuntimeError(f"trace stack out of order at {frame[0]}")
        name, start, child, span_index, cold, parent = frame
        duration = end - start
        own = duration - child
        if self._stack:
            self._stack[-1][2] += duration
        entry = self.stats[name]
        entry[0] += 1
        entry[1] += duration
        entry[2] += own
        self._request_self += own
        if cold:
            self.spans[span_index] = (name, start, end, parent, self._request)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, module_short, fn, hook=None):
        tracer = self
        cold = name not in HOT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if hook is not None:
                args, kwargs, after = hook(args, kwargs)
            else:
                after = None
            frame = tracer._enter(name, cold)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except tracer._arclab_error:
                tracer.counts[f"{module_short}.errors"] += 1
                raise
            finally:
                tracer._exit(frame)
                if after is not None:
                    after(result)

        return wrapper

    def _counting_integrand(self, g):
        tracer = self

        @functools.wraps(g)
        def integrand(t):
            if not tracer.active:
                return g(t)
            frame = tracer._enter(INTEGRAND, False)
            try:
                return g(t)
            except tracer._arclab_error:
                tracer.counts["geodesics.errors"] += 1
                raise
            finally:
                tracer._exit(frame)

        return integrand

    def _hooks(self):
        tracer = self

        def adaptive_integrate(args, kwargs):
            if args:
                args = (tracer._counting_integrand(args[0]),) + tuple(args[1:])
            else:
                kwargs = dict(kwargs, g=tracer._counting_integrand(kwargs["g"]))
            return args, kwargs, None

        def circle_energy(args, kwargs):
            f, t, target = (list(args) + [None, None, None])[:3]
            f = kwargs.get("f", f)
            t = kwargs.get("t", t)
            target = kwargs.get("target", target)
            key = (id(f), t, target)
            if key not in tracer._fresh_keys:
                tracer._fresh_keys.add(key)
                tracer.counts["geodesics.circle_energy.fresh"] += 1
            before = tracer.stats["maps.evaluate"][0]

            def after(_):
                tracer.counts["geodesics.circle_energy.points"] += (
                    tracer.stats["maps.evaluate"][0] - before
                )

            return args, kwargs, after

        def fatou_decompose(args, kwargs):
            def after(dec):
                if dec is not None:
                    tracer.counts["nevanlinna.fatou_decompose.boundary_samples"] += (
                        dec.boundary_samples
                    )

            return args, kwargs, after

        return {
            "geodesics.adaptive_integrate": adaptive_integrate,
            "geodesics.circle_energy": circle_energy,
            "nevanlinna.fatou_decompose": fatou_decompose,
        }

    def _wrap_method(self, cls, attr):
        tracer = self
        fn = getattr(cls, attr)

        @functools.wraps(fn)
        def method(obj, z):
            # quotient_at calls f0_at and finf_at: only the outer call counts
            if not tracer.active or (
                tracer._stack and tracer._stack[-1][0] == DECOMPOSITION_EVAL
            ):
                return fn(obj, z)
            tracer.counts["nevanlinna.decomposition_eval.points"] += _size(z)
            frame = tracer._enter(DECOMPOSITION_EVAL, True)
            try:
                return fn(obj, z)
            except tracer._arclab_error:
                tracer.counts["nevanlinna.errors"] += 1
                raise
            finally:
                tracer._exit(frame)

        return method

    def install(self, package, modules):
        """Wrap the public functions of ``modules`` (short name -> module)
        under every name bound to them in those modules or the package."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        self._arclab_error = modules["errors"].ArclabError
        hooks = self._hooks()
        replacement = {}
        for short in MODULES:
            for qual, fn in public_functions(modules[short], short):
                replacement[id(fn)] = (fn, self._wrap(qual, short, fn, hooks.get(qual)))
        owners = [package] + [modules[s] for s in MODULES]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                hit = replacement.get(id(value))
                if hit is not None and hit[0] is value:
                    self._installed.append((owner, attr, value))
                    setattr(owner, attr, hit[1])
        dec_cls = modules["nevanlinna"].Decomposition
        for attr in _DECOMPOSITION_METHODS:
            self._installed.append((dec_cls, attr, getattr(dec_cls, attr)))
            setattr(dec_cls, attr, self._wrap_method(dec_cls, attr))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed = []


def _size(z):
    try:
        return len(z)
    except TypeError:
        return 1
