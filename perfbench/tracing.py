"""Spans and counters around the public functions of the six ellbethe modules.

The tracer never edits the package.  `Tracer.install()` wraps every public
function defined in `ellbethe.elliptic`, `thetapoly`, `bethe`, `repspace`,
`wronski` and `cli` (plus `ThetaPoly.eval`), and puts the wrapper in every
`ellbethe.*` namespace that binds the original: module globals, the names
other modules imported with `from .x import f`, and module-level dicts such
as `cli.COMMANDS`.  `uninstall()` puts the originals back, so untraced
passes run the unmodified code.

Each wrapped call opens a frame.  A frame's self time is its duration minus
the durations of the frames opened beneath it, so the self times of all
frames partition the traced wall time.  Calls made from inside `elliptic`
into `elliptic` (sigma -> theta, ...) are counted but not timed: the layer
is timed once per entry from another module.  Frames of the hot leaf
kernels (`AGGREGATED`) only feed counters; every other frame is kept as a
span (id, name, start, end, parent id, experiment id) in memory and can be
written out at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

MODULES = ("elliptic", "thetapoly", "bethe", "repspace", "wronski", "cli")
LEAF = "elliptic"
METHODS = (("thetapoly", "ThetaPoly", ("eval", "__call__")),)
# kernels called ~1e5 times per experiment feed counters only, no span
# records: every `elliptic` function, and these
AGGREGATED = {"thetapoly.ThetaPoly.eval"}


class FunctionStats:
    __slots__ = ("calls", "raised", "self_s", "total_s")

    def __init__(self):
        self.calls = 0
        self.raised = 0
        self.self_s = 0.0
        self.total_s = 0.0


class _Frame:
    __slots__ = ("span_id", "module", "start", "child")

    def __init__(self, span_id, module, start):
        self.span_id = span_id
        self.module = module
        self.start = start
        self.child = 0.0


class Tracer:
    """Collects per-function counters and spans while installed."""

    def __init__(self):
        self.stats = {}
        self.layer_entries = {m: 0 for m in MODULES}
        self.spans = []
        self.experiment = None
        # observations the per-layer metrics need beyond calls and times
        self.bae_converged = 0
        self.bae_worst_residual = 0.0
        self.psi_points = set()
        self._stack = []
        self._next_id = 0
        self._patches = []

    def reset_counters(self):
        """Start a fresh counting window (spans are kept)."""
        for stat in self.stats.values():
            stat.__init__()
        for module in MODULES:
            self.layer_entries[module] = 0
        self.bae_converged = 0
        self.bae_worst_residual = 0.0
        self.psi_points = set()

    def stat(self, name) -> FunctionStats:
        found = self.stats.get(name)
        return found if found is not None else FunctionStats()

    # -- wrapping -----------------------------------------------------------

    def _observe(self, name, args, result):
        if name == "bethe.solve_bae" and result.converged:
            self.bae_converged += 1
            self.bae_worst_residual = max(self.bae_worst_residual, result.residual)
        elif name == "repspace.psi_derivs":
            lam, sol = args[0], args[1]
            self.psi_points.add((tuple(sol.t), sol.mu, complex(lam)))

    def _wrap(self, fn, name, module):
        stat = self.stats.setdefault(name, FunctionStats())
        entries = self.layer_entries
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        if module == LEAF:
            # one shared frame: leaf kernels call nothing outside the leaf
            # module, and leaf-to-leaf calls are only counted
            leaf_frame = _Frame(None, LEAF, 0.0)

            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                stat.calls += 1
                parent = stack[-1] if stack else None
                if parent is not None and parent.module == LEAF:
                    return fn(*args, **kwargs)
                entries[LEAF] += 1
                stack.append(leaf_frame)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    stat.raised += 1
                    raise
                finally:
                    duration = clock() - start
                    stack.pop()
                    stat.total_s += duration
                    stat.self_s += duration
                    if parent is not None:
                        parent.child += duration

            return leaf

        aggregated = name in AGGREGATED
        observed = name in ("bethe.solve_bae", "repspace.psi_derivs")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            parent = stack[-1] if stack else None
            if parent is None or parent.module != module:
                entries[module] += 1
            tracer._next_id += 1
            frame = _Frame(tracer._next_id, module, clock())
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.raised += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - frame.start
                stat.total_s += duration
                stat.self_s += duration - frame.child
                if parent is not None:
                    parent.child += duration
                if not aggregated:
                    tracer.spans.append((frame.span_id, name, frame.start, end,
                                         parent.span_id if parent else None,
                                         tracer.experiment))
            if observed:
                tracer._observe(name, args, result)
            return result

        return wrapper

    def install(self):
        """Swap wrappers into every ellbethe namespace that binds a target."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import ellbethe  # noqa: F401  (loads every submodule)

        wrappers = {}
        for short in MODULES:
            mod = sys.modules["ellbethe." + short]
            for attr, value in vars(mod).items():
                if (attr.startswith("_") or inspect.isclass(value)
                        or not callable(value)
                        or getattr(value, "__module__", None) != mod.__name__):
                    continue
                wrappers[id(value)] = (value, self._wrap(value, "%s.%s" % (short, attr), short))
        for short, cls_name, attrs in METHODS:
            cls = getattr(sys.modules["ellbethe." + short], cls_name)
            for attr in attrs:
                original = cls.__dict__[attr]
                if id(original) not in wrappers:
                    wrappers[id(original)] = (original, self._wrap(
                        original, "%s.%s.%s" % (short, cls_name, attr), short))
                self._patches.append((cls, attr, original))
                setattr(cls, attr, wrappers[id(original)][1])

        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "ellbethe" or modname.startswith("ellbethe.")):
                continue
            for attr, value in list(vars(mod).items()):
                # keys are ids of live originals, so an id match is the original
                hit = wrappers.get(id(value))
                if hit is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        hit = wrappers.get(id(item))
                        if hit is not None:
                            self._patches.append((value, key, item))
                            value[key] = hit[1]
        return self

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches = []

    # -- output -------------------------------------------------------------

    def write_spans(self, path):
        """One JSON object per line: id, name, start, end, parent, experiment."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, experiment in self.spans:
                handle.write(json.dumps({"id": span_id, "name": name, "start": start,
                                         "end": end, "parent": parent,
                                         "experiment": experiment}) + "\n")

    def module_self_s(self, module) -> float:
        prefix = module + "."
        return sum(s.self_s for n, s in self.stats.items() if n.startswith(prefix))


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers of one counting window, keyed by metric name."""
    st = tracer.stat
    out = {}
    for module in MODULES:
        out[module + ".self_s"] = tracer.module_self_s(module)

    entries = tracer.layer_entries[LEAF]
    out["elliptic.calls"] = entries
    out["elliptic.us_per_call"] = 1e6 * out["elliptic.self_s"] / entries if entries else 0.0
    for fn in ("theta", "theta_derivs", "lattice_distance", "sigma", "phi"):
        out["elliptic.%s.calls" % fn] = st("elliptic." + fn).calls

    sw = st("thetapoly.solve_wronskian")
    out["thetapoly.solve_wronskian.calls"] = sw.calls
    out["thetapoly.solve_wronskian.self_s"] = sw.self_s
    out["thetapoly.solve_wronskian.failed"] = sw.raised
    # ThetaPoly.__call__ is the same function as eval, so both count here
    out["thetapoly.ThetaPoly.eval.calls"] = st("thetapoly.ThetaPoly.eval").calls

    sb = st("bethe.solve_bae")
    out["bethe.solve_bae.calls"] = sb.calls
    out["bethe.solve_bae.self_s"] = sb.self_s
    out["bethe.newton_iters"] = st("bethe.bae_jacobian").calls
    out["bethe.residual_evals"] = st("bethe.bae_residual").calls
    out["bethe.converged_frac"] = tracer.bae_converged / sb.calls if sb.calls else 0.0
    ai = st("bethe.analytic_involution")
    out["bethe.analytic_involution.calls"] = ai.calls
    out["bethe.analytic_involution.self_s"] = ai.self_s
    out["bethe.analytic_involution.failed"] = ai.raised
    out["bethe.worst_bae_residual"] = tracer.bae_worst_residual

    pd = st("repspace.psi_derivs")
    out["repspace.psi_derivs.calls"] = pd.calls
    out["repspace.psi_derivs.distinct"] = len(tracer.psi_points)
    out["repspace.psi_reuse"] = len(tracer.psi_points) / pd.calls if pd.calls else 0.0
    out["repspace.psi_derivs.self_s"] = pd.self_s
    for fn in ("apply_kzb", "apply_rst_n2"):
        s = st("repspace." + fn)
        out["repspace.%s.calls" % fn] = s.calls
        out["repspace.%s.self_s" % fn] = s.self_s

    ef = st("wronski.enumerate_fiber")
    out["wronski.enumerate_fiber.self_s"] = ef.self_s
    wc = st("wronski.wr_certificate")
    out["wronski.wr_certificate.calls"] = wc.calls
    out["wronski.wr_certificate.self_s"] = wc.self_s

    out["cli.main.self_s"] = st("cli.main").self_s
    sc = st("cli.sample_cell_points")
    out["cli.sample_cell_points.calls"] = sc.calls
    out["cli.sample_cell_points.self_s"] = sc.self_s
    # inclusive time in cli.cmd_<command>; a workload runs one command
    out["cli.cmd.s"] = sum(s.total_s for n, s in tracer.stats.items()
                           if n.startswith("cli.cmd_"))
    return out
