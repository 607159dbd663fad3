#!/usr/bin/env python3
"""Reference figures of single layers, for bench/README.md.

    python3 bench/reference.py

Times qcore.evolve, qcore.measure_binary and protocol.run at k = 1, 20, 1000
(b = 10, delta = 1e-3, dt from the cancellation condition), and the headline
run_sweep and scaling_study, each as the median of repeated timings in this
one process with BLAS on one thread. The protocol.run call counts of the two
pipelines come from a traced pass with the benchmark's tracer. Prints
markdown table rows.
"""

import statistics
import sys
import time

import run


def per_call_s(fn, repeats: int, number: int) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        samples.append((time.perf_counter() - t0) / number)
    return statistics.median(samples)


def _fmt(seconds: float) -> str:
    return f"{seconds * 1e6:.1f} µs" if seconds < 1e-3 else f"{seconds * 1e3:.2f} ms"


def main() -> int:
    run._use_checkout()
    from tracer import Tracer
    from zenodisc import cli, protocol, qcore
    from zenodisc.protocol import ProtocolParams
    from zenodisc.qcore import HamiltonianSpec

    import workloads

    p = ProtocolParams.from_b(10.0, 1e-3, 20)
    spec = HamiltonianSpec(p.e0, p.e1, p.delta)
    s0, _ = protocol.initial_states(p)
    evolved = qcore.evolve(spec, p.dt, s0)
    rows = [
        ("`qcore.evolve` (one state, one dt)",
         per_call_s(lambda: qcore.evolve(spec, p.dt, s0), 15, 400)),
        ("`qcore.measure_binary`",
         per_call_s(lambda: qcore.measure_binary(p.direction, evolved), 15, 400)),
    ]
    for k, repeats, number in ((1, 15, 200), (20, 15, 20), (1000, 7, 1)):
        pk = ProtocolParams.from_b(10.0, 1e-3, k)
        rows.append((f"`protocol.run`, b=10, delta=1e-3, k={k}",
                     per_call_s(lambda: protocol.run(pk), repeats, number)))

    headline = workloads.Headline(0)
    headline.parse()
    pipelines = (("run_sweep", lambda: cli.run_sweep(headline.sweep_config)),
                 ("scaling_study", lambda: cli.scaling_study(headline.scaling_config, "all")))
    tracer = Tracer()
    for name, fn in pipelines:
        elapsed = per_call_s(fn, 15, 1)
        tracer.reset()
        tracer.install()
        try:
            fn()
        finally:
            tracer.uninstall()
        rows.append((f"headline `{name}`", elapsed,
                     f"{tracer.aggregate()['protocol.run'][0]} `protocol.run` calls, "
                     f"{len(tracer.points)} distinct points"))

    for label, seconds, *note in rows:
        print(f"| {label} | {_fmt(seconds)} | {note[0] if note else ''} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
