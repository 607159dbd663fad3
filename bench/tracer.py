"""Spans around the public functions of the zenodisc modules.

Every public function of qcore, helstrom, protocol, series and cli is
replaced, at each module-level name through which a caller reaches it, by a
wrapper that records one span: (name, start, end, parent). protocol imports
helstrom_pure by name, for instance, so protocol.helstrom_pure is wrapped as
well as helstrom.helstrom_pure, and calls inside a module (evolve calling
eigendecompose) are spans too. Functions held only in private tables, such
as series.SCALING_QUANTITIES, are not wrapped; the public functions they
call are.

Spans live in flat arrays while a pass runs; ``write`` puts the last pass
on disk. A span's self time is its duration minus the durations of its
children, which nest inside it because the program is single-threaded.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from pathlib import Path
from time import perf_counter_ns

LAYERS = ("qcore", "helstrom", "protocol", "series", "cli")
# Render entry points of cli; emit_report calls the other two, so the render
# time counts only the outermost of them.
CLI_RENDER = ("cli.render_csv", "cli.render_summary", "cli.render_scaling_csv", "cli.emit_report")


class Tracer:
    """Records spans while installed; ``reset`` starts a new pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        for arr in (self.span_name, self.start, self.end, self.parent):
            del arr[:]
        self._stack.clear()
        self.points: set[tuple] = set()
        self.steps = 0
        self.constructions = 0

    def _wrap(self, span: str, fn, after=None):
        if span not in self._name_ids:
            self._name_ids[span] = len(self.names)
            self.names.append(span)
        sid = self._name_ids[span]
        names, starts, ends, parents, stack = (
            self.span_name, self.start, self.end, self.parent, self._stack)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(sid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _after_run(self, args, kwargs, report) -> None:
        p = args[0] if args else kwargs["params"]
        # The ledger is left out: both ledgers walk the same tree.
        self.points.add((p.a, p.b, p.delta, p.dt, p.k, p.e0, p.e1, p.prior))
        self.steps += len(report.overlap_trajectory) - 1

    def install(self) -> None:
        import zenodisc
        from zenodisc import qcore

        layer_modules = [getattr(zenodisc, name) for name in LAYERS]
        owners = {m.__name__ for m in layer_modules}
        wrappers: dict[object, object] = {}
        for module in [zenodisc, *layer_modules]:
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ not in owners):
                    continue
                if obj not in wrappers:
                    span = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                    after = self._after_run if span == "protocol.run" else None
                    wrappers[obj] = self._wrap(span, fn=obj, after=after)
                setattr(module, attr, wrappers[obj])
                self._undo.append((module, attr, obj))

        cls = qcore.PureState
        original = cls.__post_init__

        def counting_post_init(state):
            self.constructions += 1
            original(state)

        cls.__post_init__ = counting_post_init
        self._undo.append((cls, "__post_init__", original))

    def uninstall(self) -> None:
        while self._undo:
            target, attr, obj = self._undo.pop()
            setattr(target, attr, obj)

    def aggregate(self) -> dict[str, tuple[int, int, int]]:
        """Per span name: (calls, inclusive ns, self ns)."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, list[int]] = {}
        for i in range(n):
            acc = out.setdefault(self.names[self.span_name[i]], [0, 0, 0])
            acc[0] += 1
            acc[1] += dur[i]
            acc[2] += dur[i] - child[i]
        return {name: tuple(v) for name, v in out.items()}

    def outermost_ns(self, group: tuple[str, ...]) -> int:
        """Summed duration of spans in ``group`` that have no ancestor in it."""
        ids = {self._name_ids[g] for g in group if g in self._name_ids}
        total = 0
        for i in range(len(self.start)):
            if self.span_name[i] not in ids:
                continue
            p = self.parent[i]
            while p >= 0 and self.span_name[p] not in ids:
                p = self.parent[p]
            if p < 0:
                total += self.end[i] - self.start[i]
        return total

    def write(self, path: Path) -> None:
        """Write the recorded spans as CSV: index, name, start_ns, end_ns, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write("span,name,start_ns,end_ns,parent\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.span_name[i]]},{self.start[i]},"
                         f"{self.end[i]},{self.parent[i]}\n")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass (parse plus job)."""
    agg = tracer.aggregate()

    def calls(name):
        return agg.get(name, (0, 0, 0))[0]

    def self_s(name):
        return agg.get(name, (0, 0, 0))[2] / 1e9

    def layer_self_s(layer):
        return sum(v[2] for k, v in agg.items() if k.startswith(layer + ".")) / 1e9

    def outer_s(*names):
        return tracer.outermost_ns(names) / 1e9

    run_calls = calls("protocol.run")
    run_incl_ns = agg.get("protocol.run", (0, 0, 0))[1]
    return {
        "qcore.evolve.calls": calls("qcore.evolve"),
        "qcore.evolve.self_s": self_s("qcore.evolve"),
        "qcore.measure_binary.calls": calls("qcore.measure_binary"),
        "qcore.measure_binary.self_s": self_s("qcore.measure_binary"),
        "qcore.normalize.calls": calls("qcore.normalize"),
        "qcore.state_constructions": tracer.constructions,
        "qcore.self_s": layer_self_s("qcore"),
        "helstrom.calls": sum(v[0] for k, v in agg.items() if k.startswith("helstrom.")),
        "helstrom.self_s": layer_self_s("helstrom"),
        "protocol.run.calls": run_calls,
        "protocol.run.self_s": self_s("protocol.run"),
        "protocol.run.steps": tracer.steps,
        "protocol.run.distinct_points": len(tracer.points),
        "protocol.run.useful_ratio": len(tracer.points) / run_calls if run_calls else 0.0,
        "protocol.step_us": run_incl_ns / tracer.steps / 1e3 if tracer.steps else 0.0,
        "series.fit_scaling.calls": calls("series.fit_scaling"),
        "series.scaling_residual.calls": calls("series.scaling_residual"),
        "series.self_s": layer_self_s("series"),
        "cli.parse_config_s": outer_s("cli.parse_config"),
        "cli.run_sweep_s": outer_s("cli.run_sweep"),
        "cli.scaling_study_s": outer_s("cli.scaling_study"),
        "cli.optimize_s": outer_s("cli.optimize"),
        "cli.render_s": outer_s(*CLI_RENDER),
        "cli.self_s": layer_self_s("cli"),
    }
