"""The benchmark's own tests.

    python3 perfbench/selftest.py

(or ``python3 -m pytest perfbench/selftest.py``).  They check that the
tracer's wrappers are transparent, that the input generator is a function
of the seed, that every oracle rejects a perturbed outcome, and that a run
catches CLI output that changed or was not written and self times that do
not add up.  About ten seconds; the tier-1 suite does not collect them.
"""

from __future__ import annotations

import dataclasses
import os
import random
import re
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Request, Workload, load_arclab  # noqa: E402


def _scratch():
    path = os.path.join(run.OUT, "selftest")
    os.makedirs(path, exist_ok=True)
    return path


def _calls(lib):
    """Calls through public names, some of them re-bound across modules."""
    m = lib.metrics.MetricId
    koebe_half = lib.funcspec.parse("koebe() . scale(0.5+0i)")
    quotient = lib.funcspec.parse("blaschke_disc([0.5+0i]) / blaschke_disc([-0.3+0.2i])")
    out_path = os.path.join(_scratch(), "selftest-cli.txt")

    def cli_eval():
        code = lib.cli.main(["eval", "--func", "koebe() . scale(0.5+0i)", "--at", "0.2+0.1i",
                             "--output", out_path])
        with open(out_path, "rb") as fh:
            return code, fh.read()

    return {
        "parse": lambda: lib.funcspec.parse("koebe() . scale(0.9+0i) * z()"),
        "package.parse": lambda: lib.package.parse("mobius(1+0i,0.2+0i,0+0i,1+0i)"),
        "evaluate": lambda: lib.maps.evaluate(koebe_half, 0.3 + 0.1j),
        "deriv_norm": lambda: lib.metrics.deriv_norm(koebe_half, 0.3j, m.SPHERICAL),
        "arc_length": lambda: lib.geodesics.arc_length(
            koebe_half, lib.geodesics.disc_arc(6.0), m.EUCLIDEAN),
        "package.arc_length_profile": lambda: lib.package.arc_length_profile(
            koebe_half, lib.package.disc_arc(4.0), [1.0, 4.0], m.SPHERICAL),
        "area_with_bound": lambda: lib.geodesics.area_with_bound(
            lib.maps.Scale(0.5), 2.0, m.HYPERBOLIC_DISC),
        "shimizu_T": lambda: lib.nevanlinna.shimizu_T(lib.maps.Scale(0.5), 0.5),
        "decomposition": lambda: (
            lambda d: (d, d.f0_at(0.2 + 0.1j), d.quotient_at(0.1j), d.finf_at(0.3)))(
            lib.nevanlinna.fatou_decompose(quotient, 256)),
        "check_sqrt_trend": lambda: lib.verifier.check_sqrt_trend(
            lib.maps.Scale(0.9), m.HYPERBOLIC_DISC),
        "cli": cli_eval,
        # typed errors that must pass through unchanged
        "ParseError": lambda: lib.funcspec.parse("koebe() @ z()"),
        "PrecisionError": lambda: lib.geodesics.circle_energy(
            lib.funcspec.parse("koebe() . scale(0.9+0i)"), 3.0, m.EUCLIDEAN, max_panels=64),
        "RangeError": lambda: lib.metrics.norm_from_jet(
            lib.maps.Jet(lib.metrics.INFINITY, 1.0), 0.1, m.HYPERBOLIC_DISC, m.EUCLIDEAN),
        "NormalizationError": lambda: lib.nevanlinna.fatou_decompose(
            lib.maps.BlaschkeDisc((0j, 0.5)), 256),
        "DomainError": lambda: lib.geodesics.arc_length(
            lib.maps.Koebe(), lib.geodesics.halfplane_arc(1.0), m.EUCLIDEAN),
    }


def _outcome(fn):
    try:
        return "value", fn()
    except Exception as exc:
        return "error", (type(exc), str(exc), getattr(exc, "__dict__", {}))


def test_wrappers_are_transparent():
    lib = load_arclab()
    calls = _calls(lib)
    plain = {name: _outcome(fn) for name, fn in calls.items()}
    original_evaluate = lib.maps.evaluate

    tracer = Tracer()
    tracer.install(lib.package, lib.modules)
    assert lib.maps.evaluate is not original_evaluate
    assert lib.maps.evaluate.__wrapped__ is original_evaluate
    # names re-bound by `from .x import y` see the same wrapper
    assert lib.geodesics.evaluate is lib.maps.evaluate
    assert lib.nevanlinna.adaptive_integrate is lib.geodesics.adaptive_integrate
    assert lib.cli.parse is lib.funcspec.parse is lib.package.parse
    tracer.active = True
    frame = tracer.begin_request("transparency")
    traced = {name: _outcome(fn) for name, fn in calls.items()}
    tracer.end_request(frame)
    tracer.active = False
    tracer.uninstall()
    assert lib.maps.evaluate is original_evaluate

    for name in calls:
        assert plain[name][0] == traced[name][0], name
        _same(plain[name][1], traced[name][1], name)
    assert plain["PrecisionError"][0] == "error"
    assert tracer.counts["funcspec.errors"] >= 1
    assert tracer.counts["geodesics.errors"] >= 1
    assert tracer.stats["maps.evaluate"][0] > 0
    assert tracer.stats["nevanlinna.decomposition_eval"][0] == 3
    assert not tracer._stack


def _same(a, b, name):
    if isinstance(a, tuple) and len(a) == 3 and isinstance(a[0], type):
        assert a[0] is b[0] and a[1] == b[1], (name, a, b)
        for key in set(a[2]) | set(b[2]):
            assert repr(a[2].get(key)) == repr(b[2].get(key)), (name, key)
        return
    assert repr(a) == repr(b), (name, a, b)


def test_self_times_add_up_to_the_request_latency():
    lib = load_arclab()
    tracer = Tracer()
    tracer.install(lib.package, lib.modules)
    tracer.active = True
    m = lib.metrics.MetricId
    for i, text in enumerate(("koebe() . scale(0.4+0i)", "blaschke_disc([0.3+0.2i])")):
        frame = tracer.begin_request(f"r{i}")
        t0 = time.perf_counter()
        lib.geodesics.area_with_bound(lib.funcspec.parse(text), 2.0, m.SPHERICAL)
        latency = time.perf_counter() - t0
        self_sum = tracer.end_request(frame)
        assert latency <= self_sum <= latency + run.ROOT_FRAME_SLACK_S, (latency, self_sum)
    tracer.active = False
    tracer.uninstall()
    for index, (name, start, end, parent, request) in enumerate(tracer.spans):
        assert start <= end
        assert parent < index
        if parent >= 0:
            p = tracer.spans[parent]
            assert p[1] <= start and end <= p[2] and p[4] == request, (name, p)
    assert tracer.stats["geodesics.circle_energy"][0] > 0


class _LeakyTracer(Tracer):
    """Forgets to take a child's time out of its parent's self time."""

    def _exit(self, frame):
        child = self._stack[-2][2] if len(self._stack) > 1 else None
        super()._exit(frame)
        if child is not None:
            self._stack[-1][2] = child


def test_a_self_time_that_double_counts_is_caught():
    def request():
        frame = tracer._enter("inner", True)
        time.sleep(5 * run.ROOT_FRAME_SLACK_S)
        tracer._exit(frame)

    for cls, problems in ((Tracer, 0), (_LeakyTracer, 1)):
        tracer = cls()
        ledger = run.Ledger()
        run.one_pass(Workload([Request("fake", "fake", request, lambda v: None)]),
                     ledger, "t0", tracer)
        assert len(ledger.problems) == problems, (cls.__name__, ledger.problems)


def _specs(workload, seed, lib, out_dir):
    wl = WORKLOADS[workload](random.Random(f"{workload}:{seed}"), lib, out_dir)
    return [(q.kind, q.spec) for q in wl.requests]


def test_generator_is_a_function_of_the_seed():
    lib = load_arclab()
    with tempfile.TemporaryDirectory(dir=_scratch()) as out_dir:
        for workload in WORKLOADS:
            first = _specs(workload, 1, lib, out_dir)
            assert first == _specs(workload, 1, lib, out_dir), workload
            assert first != _specs(workload, 2, lib, out_dir), workload


_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[+-]?\d+)?")

# which number of a CLI output a perturbation changes: (line test, index)
_CLI_FIELD = {
    "cli_area": (lambda i, line: i == 1, 0),
    "cli_nevanlinna": (lambda i, line: i == 1, 1),
    "cli_length": (lambda i, line: i == 1, 1),
    "cli_eval": (lambda i, line: line.startswith("value "), 0),
    "cli_verify_thm32": (lambda i, line: line.startswith("# ratios"), 0),
    "cli_decompose_256": (lambda i, line: line.startswith("# pythagoras_residual"), 0),
}


def _perturb(outcome, req):
    """A wrong outcome of the same shape."""
    if req.expect is not None:
        return RuntimeError("perturbed")
    if req.output is None:
        return _bend(outcome)
    with open(req.output) as fh:
        lines = fh.read().split("\n")
    pick, k = _CLI_FIELD[req.kind]
    i = next(i for i, line in enumerate(lines) if pick(i, line))
    m = list(_NUMBER.finditer(lines[i]))[k]
    wrong = repr(float(m.group()) * 1.001 + 1e-3)
    lines[i] = lines[i][: m.start()] + wrong + lines[i][m.end() :]
    with open(req.output, "w") as fh:
        fh.write("\n".join(lines))
    return outcome


def _bend(x):
    if isinstance(x, float):
        return x * 1.001 + 1e-3
    if isinstance(x, complex):
        return x * 1.01 + 1e-3
    if isinstance(x, tuple) and len(x) == 2 and isinstance(x[0], float):
        return (_bend(x[0]), x[1])
    if isinstance(x, tuple) and len(x) == 2 and isinstance(x[0], list):
        return (_bend(x[0]), x[1])
    if isinstance(x, tuple) and len(x) == 2 and isinstance(x[0], complex):
        return (_bend(x[0]), x[1])
    if isinstance(x, list):
        return [_bend(x[0])] + x[1:]
    if type(x).__name__ == "GrowthSample":
        return dataclasses.replace(x, length=_bend(x.length))
    if type(x).__name__ == "Jet":
        return dataclasses.replace(x, value=x.value * 1.001)
    if type(x).__name__ == "VerdictReport":
        return dataclasses.replace(x, status="FAIL" if x.status == "PASS" else "PASS")
    if type(x).__name__ == "CharacteristicCurve":
        return dataclasses.replace(x, S_values=tuple(_bend(v) for v in x.S_values))
    if type(x).__name__ == "Decomposition":
        return dataclasses.replace(x, b0_zeros=x.b0_zeros + (0.5 + 0j,))
    raise TypeError(f"no perturbation for {type(x).__name__}")


def test_every_oracle_rejects_a_perturbed_outcome():
    lib = load_arclab()
    with tempfile.TemporaryDirectory(dir=_scratch()) as out_dir:
        for workload, build in WORKLOADS.items():
            wl = build(random.Random(f"{workload}:3"), lib, out_dir)
            for req in wl.requests:
                try:
                    outcome = req.run()
                except Exception as exc:
                    outcome = exc
                assert run.judge(req, outcome) is None, (workload, req.kind, req.spec)
                wrong = _perturb(outcome, req)
                assert run.judge(req, wrong) is not None, (workload, req.kind, req.spec)


def test_changed_cli_bytes_fail_the_request():
    with tempfile.TemporaryDirectory(dir=_scratch()) as out_dir:
        path = os.path.join(out_dir, "out.txt")
        calls = []

        def write():
            calls.append(1)
            with open(path, "w") as fh:
                fh.write(f"value {len(calls)}\n")
            return 0

        wl = Workload([Request("fake_cli", "fake", write, lambda code: None, output=path)])
        ledger = run.Ledger()
        run.one_pass(wl, ledger, "p0")
        assert ledger.failed == 0
        run.one_pass(wl, ledger, "p1")
        assert ledger.failed == 1 and ("p1", 0) in ledger.failures


def test_a_cli_request_that_writes_nothing_fails():
    lib = load_arclab()
    with tempfile.TemporaryDirectory(dir=_scratch()) as out_dir:
        wl = WORKLOADS["lengths"](random.Random("lengths:1"), lib, out_dir)
        req = next(q for q in wl.requests if q.output is not None)
        ledger = run.Ledger()
        run.one_pass(Workload([req]), ledger, "p0")
        assert ledger.failed == 0, ledger.failures
        silent = dataclasses.replace(req, run=lambda: 0)
        run.one_pass(Workload([silent]), ledger, "p1")
        assert ("p1", 0) in ledger.failures, ledger.failures


def test_a_typed_outcome_must_be_exactly_that_type():
    lib = load_arclab()
    req = Request("typed", "typed", None, lambda exc: None, expect=lib.errors.ArclabError)
    assert run.judge(req, lib.errors.PrecisionError("x", 1.0, 1.0)) is not None
    assert run.judge(req, lib.errors.ArclabError("x")) is None
    assert run.judge(req, 1.0) is not None
    plain = Request("plain", "plain", None, lambda v: None)
    assert run.judge(plain, lib.errors.ArclabError("x")) is not None


def main():
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except Exception:
            failed += 1
            print(f"FAIL {name}")
            traceback.print_exc()
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
