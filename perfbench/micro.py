"""Micro-kernel timings for the traced run, in microseconds per call.

Each kernel runs in a timed loop, several times; the median loop gives
the figure.  The tracer is uninstalled while these run.
"""

from __future__ import annotations

import math
import statistics
import time

REPEATS = 5
PARSE_TEXT = (
    "koebe() . scale(0.5+0i) * blaschke_disc([0.3+0.1i,-0.2+0.45i]) "
    "/ mobius(1+0i,0.2+0.1i,0.3-0.2i,1+0i)"
)


def _us_per_call(fn, n):
    loops = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        loops.append((time.perf_counter() - t0) / n)
    return statistics.median(loops) * 1e6


def measure(lib):
    maps, metrics, geo, nev = lib.maps, lib.metrics, lib.geodesics, lib.nevanlinna
    m = metrics.MetricId
    disc_z, hp_z = 0.3 + 0.2j, 0.3 + 2.0j
    nodes = {
        "identity": (maps.Identity(), disc_z),
        "scale": (maps.Scale(0.5), disc_z),
        "shift": (maps.Shift(0.1 + 0.1j), disc_z),
        "mobius": (maps.MobiusMap(metrics.MobiusTransform(1, 0.2, 0.3, 1)), disc_z),
        "koebe": (maps.Koebe(), disc_z),
        "exp": (maps.ExpMap(), disc_z),
        "log": (maps.LogMap(), disc_z),
        "powerseries": (maps.PowerSeries((0, 1, 0.5, 0.25, 0.125, 0.0625, 0.03, 0.01)), disc_z),
        "blaschke_disc": (maps.BlaschkeDisc((0.3, 0.5j, -0.4 + 0.2j, 0.1 - 0.6j)), disc_z),
        "blaschke_hp_5334": (
            maps.BlaschkeHalfPlane(tuple(float(k * k) for k in range(1, 5335))),
            hp_z,
        ),
        "product": (maps.Product(maps.Koebe(), maps.Scale(0.5)), disc_z),
        "quotient": (maps.Quotient(maps.Koebe(), maps.Shift(2.0)), disc_z),
        "compose": (maps.Compose(maps.Koebe(), maps.Scale(0.5)), disc_z),
    }
    out = {}
    for kind, (f, z) in nodes.items():
        n = 40 if kind == "blaschke_hp_5334" else 1000
        out[f"maps.jet_us.{kind}"] = _us_per_call(lambda f=f, z=z: maps.evaluate(f, z), n)

    jet = maps.Jet(0.3 + 0.4j, 1.0 + 0.5j)  # inside the disc and the half-plane
    for letter, target in (
        ("E", m.EUCLIDEAN),
        ("D", m.HYPERBOLIC_DISC),
        ("H", m.HYPERBOLIC_HALF_PLANE),
        ("S", m.SPHERICAL),
    ):
        out[f"metrics.norm_from_jet_us.{letter}"] = _us_per_call(
            lambda t=target: metrics.norm_from_jet(jet, 0.2 + 0.1j, m.HYPERBOLIC_DISC, t), 2000
        )

    # a linear integrand is exact on the first G7K15 panel: one panel, 15 points
    out["geodesics.g7k15_panel_us"] = _us_per_call(
        lambda: geo.adaptive_integrate(lambda t: t, 0.0, 1.0), 500
    )
    koebe_half = maps.Compose(maps.Koebe(), maps.Scale(0.5))
    out["geodesics.circle_energy_us"] = _us_per_call(
        lambda: geo.circle_energy(koebe_half, 1.0, m.SPHERICAL), 20
    )
    dec = nev.fatou_decompose(
        maps.Quotient(maps.BlaschkeDisc((0.5, -0.3j)), maps.BlaschkeDisc((0.4 + 0.2j,))),
        4096,
    )
    if dec.boundary_samples != 4096:
        raise RuntimeError("f0_at kernel expected a 4096-sample decomposition")
    out["nevanlinna.f0_at_us"] = _us_per_call(lambda: dec.f0_at(0.3 + 0.2j), 10)
    tree = lib.funcspec.parse(PARSE_TEXT)
    out["funcspec.parse_us"] = _us_per_call(lambda: lib.funcspec.parse(PARSE_TEXT), 300)
    out["funcspec.unparse_us"] = _us_per_call(lambda: lib.funcspec.unparse(tree), 300)
    if not all(math.isfinite(v) and v > 0 for v in out.values()):
        raise RuntimeError("a micro-kernel time is not a positive number")
    return out
