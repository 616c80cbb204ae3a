"""Run one workload of the arclab benchmark and print its metrics.

    python3 perfbench/run.py --workload areas --seed 1 --seconds 20 --trace 0

One client in one process sends each request after the previous one has
completed (a closed loop).  A pass runs the workload's fixed request list
once; passes repeat until --seconds have elapsed.  With --trace 0 the run
reports the end-to-end metrics with tracing off; with --trace 1 it
alternates untraced and traced passes and reports the per-layer metrics.
Times are rescaled to a nominal host speed measured during the run.  The
last line of standard output is one JSON object.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 9
SETUP_TIMEOUT_S = 150
# A traced request's root frame opens just before its timer starts and
# closes just after it stops; this covers that entry and exit cost.
ROOT_FRAME_SLACK_S = 2e-4
_clock = time.perf_counter

# Each timed set-up runs in a fresh interpreter, so that it pays for every
# module `import arclab` loads, numpy included.  It prints its seconds.
SETUP_CHILD = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import run; "
    "print(repr(run.setup(sys.argv[3], int(sys.argv[4]))[2]))"
)

# The host's speed drifts by a quarter and more within a minute (README,
# "Noise"), which would swamp any change smaller than that.  A fixed
# pure-Python loop is timed between requests, and every time is reported
# rescaled to the speed at which that loop takes NOMINAL_LOOP_S.
CALIBRATION_LOOP = 20000
NOMINAL_LOOP_S = 2.0e-3
CALIBRATE_EVERY_S = 0.1


class Speedometer:
    """Samples the host's current speed with the calibration loop."""

    def __init__(self):
        self.samples = []
        self._last = -math.inf

    def sample(self, n=1):
        for _ in range(n):
            t0 = _clock()
            acc = 0
            for i in range(CALIBRATION_LOOP):
                acc += i * i % 7
            self.samples.append(_clock() - t0)
        self._last = _clock()

    def factor(self, window=5):
        """Raw seconds times this factor are seconds at nominal speed.  Uses
        the last ``window`` samples, taking a new one if they are stale."""
        if _clock() - self._last > CALIBRATE_EVERY_S:
            self.sample()
        return NOMINAL_LOOP_S / statistics.median(self.samples[-window:])

    def run_factor(self):
        return NOMINAL_LOOP_S / statistics.median(self.samples)


class Ledger:
    """Outcomes of every request of a run."""

    def __init__(self):
        self.speed = Speedometer()
        self.latencies = []  # at nominal speed
        self.raw_latencies = []
        self.attempted = 0
        self.failures = {}  # (pass label, index) -> reason
        self.problems = []  # inconsistencies of the run itself
        self.hashes = {}  # request index -> sha256 of its CLI output bytes

    @property
    def failed(self):
        return len(self.failures)


def judge(req, outcome):
    if req.expect is not None:
        if type(outcome) is not req.expect:
            return f"expected {req.expect.__name__}, got {_describe(outcome)}"
    elif isinstance(outcome, BaseException):
        return f"unexpected {_describe(outcome)}"
    try:
        return req.check(outcome)
    except Exception as exc:  # an outcome the oracle cannot read is wrong
        return f"oracle could not read the outcome: {_describe(exc)}"


def _describe(outcome):
    if isinstance(outcome, BaseException):
        return f"{type(outcome).__name__}: {outcome}"
    return f"result {outcome!r}"[:200]


def timed_setup(ledger, workload, seed):
    """One set-up in a fresh interpreter, between calibration samples;
    returns (raw s, s at nominal speed)."""
    ledger.speed.sample(3)
    child = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, HERE, SRC, workload, str(seed)],
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
    )
    if child.returncode != 0:
        raise RuntimeError(f"set-up failed in a fresh interpreter:\n{child.stderr}")
    raw = float(child.stdout.splitlines()[-1])
    ledger.speed.sample(3)
    return raw, raw * ledger.speed.factor(window=6)


def setup(workload, seed, tracer=None):
    """Import arclab, generate and parse the inputs, build the maps, warm up;
    returns (lib, workload, seconds)."""
    t0 = _clock()
    from workloads import WORKLOADS, load_arclab

    lib = load_arclab()
    frame = None
    if tracer is not None:
        tracer.install(lib.package, lib.modules)
        tracer.active = True
        frame = tracer.begin_request("setup")
    out_dir = os.path.join(OUT, "cli")
    os.makedirs(out_dir, exist_ok=True)
    wl = WORKLOADS[workload](random.Random(f"{workload}:{seed}"), lib, out_dir)
    for warm in wl.warm:
        warm()
    lib.cli.main(["eval", "--func", "z()", "--at", "0", "--output", os.path.join(out_dir, "warm.txt")])
    if tracer is not None:
        tracer.end_request(frame)
        tracer.active = False
    return lib, wl, _clock() - t0


def one_pass(wl, ledger, label, tracer=None):
    """Send every request once; returns the summed request latencies, at
    nominal speed and raw."""
    wall = raw_wall = 0.0
    for index, req in enumerate(wl.requests):
        if req.output is not None and os.path.exists(req.output):
            os.remove(req.output)  # a request that writes nothing must not pass on old bytes
        frame = None
        if tracer is not None:
            tracer.active = True
            frame = tracer.begin_request(f"{label}/{index:03d}-{req.kind}")
        t0 = _clock()
        try:
            outcome = req.run()
        except Exception as exc:  # judged below: a typed error may be the answer
            outcome = exc
        latency = _clock() - t0
        if tracer is not None:
            self_sum = tracer.end_request(frame)
            tracer.active = False
            if not latency <= self_sum <= latency + ROOT_FRAME_SLACK_S:
                ledger.problems.append(
                    f"{label}/{index}: self times sum to {self_sum!r}, latency {latency!r}"
                )
        scaled = latency * ledger.speed.factor()
        wall += scaled
        raw_wall += latency
        ledger.latencies.append(scaled)
        ledger.raw_latencies.append(latency)
        ledger.attempted += 1
        reason = judge(req, outcome)
        if req.output is not None and os.path.exists(req.output):
            with open(req.output, "rb") as fh:
                data = fh.read()
            if tracer is not None:
                tracer.counts["cli.output_bytes"] += len(data)
            digest = hashlib.sha256(data).hexdigest()
            if ledger.hashes.setdefault(index, digest) != digest and reason is None:
                reason = "CLI output bytes differ from an earlier pass"
        if reason is not None:
            ledger.failures[(label, index)] = f"{req.kind} [{req.spec}]: {reason}"
    return wall, raw_wall


def source_fingerprint():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "arclab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def compare_across_runs(ledger, workload, seed, first_label):
    """CLI bytes must match what an earlier run of the same code and seed wrote."""
    store = os.path.join(OUT, "cli-hashes")
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store, f"{source_fingerprint()}-{workload}-{seed}.json")
    mine = {str(k): v for k, v in ledger.hashes.items()}
    if os.path.exists(path):
        with open(path) as fh:
            earlier = json.load(fh)
        for key, digest in mine.items():
            if key in earlier and earlier[key] != digest:
                ledger.failures.setdefault(
                    (first_label, int(key)), "CLI output bytes differ from an earlier run"
                )
    else:
        tmp = f"{path}.{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(mine, fh)
        os.replace(tmp, path)


def nearest_rank(values, pct):
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def run_timed(args, ledger, report):
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        raw, seconds = timed_setup(ledger, args.workload, args.seed)
        setups.append(seconds)
        raw_setups.append(raw)
    _, wl, _ = setup(args.workload, args.seed)
    walls, raw_walls = [], []
    start = _clock()
    while not walls or _clock() - start < args.seconds:
        wall, raw = one_pass(wl, ledger, f"p{len(walls)}")
        walls.append(wall)
        raw_walls.append(raw)
    compare_across_runs(ledger, args.workload, args.seed, "p0")

    from workloads import TAIL_PERCENTILE

    pct = TAIL_PERCENTILE[args.workload]
    tail, beyond = nearest_rank(ledger.latencies, pct)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "latency_p50_ms": (statistics.median(ledger.latencies) * 1e3, "ms"),
        "latency_tail_ms": (tail * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    report.append(f"requests per pass {len(wl.requests)}; passes {len(walls)}")
    report.append("pass wall_s " + " ".join(f"{w:.4f}" for w in walls))
    report.append("setup_s runs " + " ".join(f"{s:.4f}" for s in setups))
    report.append(
        f"raw, before rescaling: wall_s {statistics.median(raw_walls)!r} "
        f"latency_p50_ms {statistics.median(ledger.raw_latencies) * 1e3!r} "
        f"latency_tail_ms {nearest_rank(ledger.raw_latencies, pct)[0] * 1e3!r} "
        f"setup_s {statistics.median(raw_setups)!r}"
    )
    report.append(_speed_line(ledger.speed))
    report.append(
        f"latency_tail_ms is p{pct:g} of {len(ledger.latencies)} requests "
        f"({beyond} beyond it)"
    )
    if beyond < 10:
        report.append("warning: fewer than ten requests beyond the tail percentile")
    for key, value in wl.facts.items():
        report.append(f"input {key} {value}")
    return metrics


def run_traced(args, ledger, report):
    from micro import measure
    from tracer import Tracer

    tracer = Tracer()
    lib, wl, _ = setup(args.workload, args.seed, tracer)
    setup_part = _snapshot(tracer)
    spans = _export(tracer.spans, [])
    plain, traced, parts = [], [], []
    start = _clock()
    while not traced or _clock() - start < args.seconds:
        tracer.uninstall()
        plain.append(one_pass(wl, ledger, f"u{len(plain)}")[0])
        tracer.install(lib.package, lib.modules)
        tracer.reset()
        traced.append(one_pass(wl, ledger, f"t{len(traced)}", tracer)[0])
        parts.append(_snapshot(tracer))
        spans = _export(tracer.spans, spans)
    tracer.uninstall()
    compare_across_runs(ledger, args.workload, args.seed, "u0")

    counts = [p["counts"] for p in parts]
    if any(c != counts[0] for c in counts):
        ledger.problems.append("counts differ between traced passes of one seed")
    ledger.speed.sample(3)
    micro = measure(lib)
    ledger.speed.sample(3)
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics = layer_metrics(setup_part, parts, overhead, micro, ledger.speed.run_factor())

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl")
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    report.append(f"requests per pass {len(wl.requests)}; pass pairs {len(traced)}")
    report.append("untraced pass wall_s " + " ".join(f"{w:.4f}" for w in plain))
    report.append("traced pass wall_s " + " ".join(f"{w:.4f}" for w in traced))
    c = parts[0]["counts"]
    report.append(
        "counts per pass: "
        f"jet points {c.get('maps.evaluate.calls', 0):.0f}, "
        f"integrand evals {c.get('geodesics.integrand.calls', 0):.0f}, "
        f"quadratures {c.get('geodesics.adaptive_integrate.calls', 0):.0f}, "
        f"circle_energy calls {c.get('geodesics.circle_energy.calls', 0):.0f}, "
        f"boundary samples {c.get('nevanlinna.fatou_decompose.boundary_samples', 0):.0f}, "
        f"decomposition points {c.get('nevanlinna.decomposition_eval.points', 0):.0f}"
    )
    report.append(f"{len(spans)} spans written to {os.path.relpath(path, ROOT)}")
    report.append(_speed_line(ledger.speed))
    return metrics


def _speed_line(speed):
    return (
        f"calibration loop: median {statistics.median(speed.samples) * 1e3:.4f} ms over "
        f"{len(speed.samples)} samples (range {min(speed.samples) * 1e3:.4f}.."
        f"{max(speed.samples) * 1e3:.4f}); times are rescaled to {NOMINAL_LOOP_S * 1e3:g} ms"
    )


def _snapshot(tracer):
    counts = {f"{k}.calls": v[0] for k, v in tracer.stats.items()}
    counts.update(tracer.counts)
    return {"counts": counts, "self_s": {k: v[2] for k, v in tracer.stats.items()}}


def _export(raw, spans):
    offset = len(spans)
    for name, start, end, parent, request in raw:
        spans.append(
            {
                "name": name,
                "start": start,
                "end": end,
                "parent": parent + offset if parent >= 0 else None,
                "request": request,
            }
        )
    return spans


def layer_metrics(setup_part, parts, overhead, micro, factor):
    """Per-layer metrics: set-up plus the median traced pass.  Span times are
    rescaled by the run's median speed ``factor``; overhead already is."""

    def count(key):
        return setup_part["counts"].get(key, 0) + parts[0]["counts"].get(key, 0)

    def self_s(*names):
        def one(part):
            return sum(v for k, v in part["self_s"].items() if k in names)

        return (one(setup_part) + statistics.median(one(p) for p in parts)) * factor

    def group(prefix):
        return [k for p in parts + [setup_part] for k in p["self_s"] if k.startswith(prefix)]

    ce_calls = count("geodesics.circle_energy.calls")
    out = {
        "funcspec.parse.calls": (count("funcspec.parse.calls"), "count"),
        "funcspec.parse.self_s": (self_s("funcspec.parse"), "s"),
        "maps.evaluate.calls": (count("maps.evaluate.calls"), "count"),
        "maps.evaluate.self_s": (self_s("maps.evaluate"), "s"),
        "metrics.norm_from_jet.calls": (count("metrics.norm_from_jet.calls"), "count"),
        "metrics.norm_from_jet.self_s": (self_s("metrics.norm_from_jet"), "s"),
        "geodesics.adaptive_integrate.calls": (count("geodesics.adaptive_integrate.calls"), "count"),
        "geodesics.adaptive_integrate.self_s": (self_s("geodesics.adaptive_integrate"), "s"),
        "geodesics.integrand.evals": (count("geodesics.integrand.calls"), "count"),
        "geodesics.integrand.self_s": (self_s("geodesics.integrand"), "s"),
        "geodesics.circle_energy.calls": (ce_calls, "count"),
        "geodesics.circle_energy.self_s": (self_s("geodesics.circle_energy"), "s"),
        "geodesics.circle_energy.points_per_call": (
            count("geodesics.circle_energy.points") / ce_calls if ce_calls else 0.0,
            "count",
        ),
        "geodesics.circle_energy.fresh_share": (
            count("geodesics.circle_energy.fresh") / ce_calls if ce_calls else 0.0,
            "share",
        ),
        "nevanlinna.shimizu_T.self_s": (self_s("nevanlinna.shimizu_T"), "s"),
        "nevanlinna.characteristic_curve.self_s": (self_s("nevanlinna.characteristic_curve"), "s"),
        "nevanlinna.fatou_decompose.calls": (count("nevanlinna.fatou_decompose.calls"), "count"),
        "nevanlinna.fatou_decompose.self_s": (self_s("nevanlinna.fatou_decompose"), "s"),
        "nevanlinna.fatou_decompose.boundary_samples": (
            count("nevanlinna.fatou_decompose.boundary_samples"),
            "count",
        ),
        "nevanlinna.decomposition_eval.calls": (count("nevanlinna.decomposition_eval.calls"), "count"),
        "nevanlinna.decomposition_eval.points": (count("nevanlinna.decomposition_eval.points"), "count"),
        "nevanlinna.decomposition_eval.self_s": (self_s("nevanlinna.decomposition_eval"), "s"),
        "nevanlinna.origin_identity_T.self_s": (self_s("nevanlinna.origin_identity_T"), "s"),
        "verifier.scenario.self_s": (self_s(*group("verifier.scenario_")), "s"),
        "verifier.check.self_s": (
            self_s(*group("verifier.check_"), "verifier.alpha_growth_check"),
            "s",
        ),
        "cli.main.calls": (count("cli.main.calls"), "count"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
        "cli.output_bytes": (count("cli.output_bytes"), "bytes"),
        "trace.overhead_s": (overhead, "s"),
    }
    for module in ("metrics", "maps", "geodesics", "nevanlinna", "verifier", "funcspec", "cli"):
        out[f"{module}.errors"] = (count(f"{module}.errors"), "count")
    for name, value in micro.items():
        out[name] = (value * factor, "us")
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("areas", "lengths", "large-product", "decompose")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "arclab", "__init__.py")):
        print(f"error: no arclab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    ledger = Ledger()
    report = []
    if args.trace:
        metrics = run_traced(args, ledger, report)
    else:
        metrics = run_timed(args, ledger, report)
    failed_frac = ledger.failed / ledger.attempted
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in report:
        print(line)
    print(f"failed_frac {failed_frac!r} ({ledger.failed} of {ledger.attempted} requests)")
    for (label, index), reason in sorted(ledger.failures.items()):
        print(f"FAILED {label}/{index:03d} {reason}")
    for problem in ledger.problems:
        print(f"INCONSISTENT {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    result = {
        "correct": ledger.failed == 0 and not ledger.problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
