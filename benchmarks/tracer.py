"""Outside-in tracing of one benchmark job, and the per-layer metrics.

`Tracer.install` replaces the public functions of the spencerflow layers, a
few named entry points, and numpy's 2-D FFT functions with wrappers that
record a span (name, start, end, parent) per call. Calls inside spencerflow
resolve through module globals, so nested calls such as rk4_step ->
rhs_vorticity are caught too. `LieAlgebraSpec.C` is called about a million
times per job and is only counted. A target that no longer exists is listed
as absent and its metrics read 0.
"""

import functools
import importlib
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("euler2d", "invariants", "cartan", "liealg", "spencer", "_exact")
NAMED = (
    ("cli", "simulate"),
    ("cli", "cmd_cartan"),
    ("cli", "write_invariant_csv"),
    ("spencer", "_ce_differential"),
)
COUNTED = (("liealg", "LieAlgebraSpec", "C"),)
FFT2 = ("fft2", "ifft2", "rfft2", "irfft2")
# rank's argument is a list of rows; ranking the same matrix twice is wasted
# work, so keep a fingerprint of each matrix ranked (taken outside its span).
FINGERPRINTS = {"exact.rank": lambda rows: hash(tuple(map(tuple, rows)))}


def _label(module, attr):
    return f"{module.lstrip('_')}.{attr.lstrip('_')}"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = {}  # name -> [calls]
        self.fft = defaultdict(lambda: [0, 0, 0])  # (name, shape) -> calls, elements, bytes
        self.distinct = defaultdict(set)  # name -> fingerprints of the arguments
        self.absent = []
        self._stack = []
        self._patched = []

    # ------------------------------------------------------------ wrappers

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack
        fingerprint = FINGERPRINTS.get(name)
        seen = self.distinct[name] if fingerprint else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if seen is not None:
                seen.add(fingerprint(*args, **kwargs))
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return wrapper

    def _counted(self, name, fn):
        cell = self.counts[name] = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _fft(self, numpy, name, fn):
        timed = self._span(f"numpy.fft.{name}", fn)
        stats = self.fft

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            a = numpy.asarray(a)
            out = timed(a, *args, **kwargs)
            spectrum = a if name == "irfft2" else out
            row = stats[(name, tuple(a.shape))]
            row[0] += 1
            row[1] += spectrum.size
            row[2] += a.nbytes + out.nbytes
            return out

        return wrapper

    # ------------------------------------------------------------ install

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        import numpy

        modules = {}
        for name in LAYERS + ("cli",):
            try:
                modules[name] = importlib.import_module(f"spencerflow.{name}")
            except ImportError:
                self.absent.append(name)
        wrappers = {}  # id of the original function -> wrapper
        for name in LAYERS:
            mod = modules.get(name)
            for attr, fn in vars(mod).items() if mod else ():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = self._span(_label(name, attr), fn)
        for name, attr in NAMED:
            fn = getattr(modules.get(name), attr, None)
            if fn is None:
                self.absent.append(f"{name}.{attr}")
            else:
                wrappers[id(fn)] = self._span(_label(name, attr), fn)
        for name, cls_name, attr in COUNTED:
            fn = getattr(getattr(modules.get(name), cls_name, None), attr, None)
            if fn is None:
                self.absent.append(f"{name}.{cls_name}.{attr}")
            else:
                cls = getattr(modules[name], cls_name)
                self._patch(cls, attr, self._counted(f"{name}.{attr}", fn))
        for name in FFT2:
            fn = getattr(numpy.fft, name)
            wrappers[id(fn)] = self._fft(numpy, name, fn)
            self._patch(numpy.fft, name, wrappers[id(fn)])
        # Rebind every module-level reference, so re-exports such as
        # invariants.interpolate_velocity or `from numpy.fft import rfft2`
        # resolve to the same wrapper.
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._patch(mod, attr, wrappers[id(value)])

    def uninstall(self):
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    def document(self):
        return {
            "spans": self.spans,
            "counts": {name: cell[0] for name, cell in self.counts.items()},
            "fft": [[name, list(shape), *row] for (name, shape), row in self.fft.items()],
            "distinct": {name: len(seen) for name, seen in self.distinct.items()},
            "absent": self.absent,
        }

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.document(), fh)


class Profile:
    """Calls, inclusive and self time per span name for one traced job."""

    def __init__(self, doc):
        self.doc = doc
        self.calls = Counter()
        self.incl = defaultdict(float)
        self.self_s = defaultdict(float)
        spans = doc["spans"]
        covered = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _), child in zip(spans, covered):
            self.calls[name] += 1
            self.incl[name] += end - start
            self.self_s[name] += end - start - child

    def per_call(self, name, scale):
        calls = self.calls[name]
        return scale * self.incl[name] / calls if calls else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(p, wall_s, euler_n):
    """Per-layer metrics of one traced job whose cli.main call took wall_s;
    euler_n is the Euler grid size (None off the Euler workloads)."""
    steps = p.calls["euler2d.rk4_step"]  # simulate makes one rk4_step per step
    cartan_steps = p.calls["cartan.step"]
    fft_calls = sum(row[2] for row in p.doc["fft"])
    # N x N equivalents count spectrum elements, so an rfft2 weighs about
    # half an fft2; bytes are input plus output array sizes, not measured.
    fft_elements = sum(row[3] for row in p.doc["fft"])
    fft_bytes = sum(row[4] for row in p.doc["fft"])
    rank_calls = p.calls["exact.rank"]
    return {
        "euler2d.steps": steps,
        "euler2d.rk4_step.ms_per_call": p.per_call("euler2d.rk4_step", 1e3),
        "euler2d.rhs_vorticity.ms_per_call": p.per_call("euler2d.rhs_vorticity", 1e3),
        "euler2d.rhs_vorticity.calls_per_step": _ratio(p.calls["euler2d.rhs_vorticity"], steps),
        "euler2d.cfl_dt.calls_per_step": _ratio(p.calls["euler2d.cfl_dt"], steps),
        "euler2d.velocity_from_vorticity.calls_per_step": _ratio(
            p.calls["euler2d.velocity_from_vorticity"], steps
        ),
        "euler2d.fft_calls_per_step": _ratio(fft_calls, steps),
        "euler2d.fft_nn_equiv_per_step": _ratio(fft_elements, steps * (euler_n or 0) ** 2),
        "euler2d.fft_bytes_per_step": _ratio(fft_bytes, steps),
        "euler2d.advect_markers.ms_per_call": p.per_call("euler2d.advect_markers", 1e3),
        "euler2d.interpolate_velocity.calls": p.calls["euler2d.interpolate_velocity"],
        "euler2d.interpolate_velocity.ms_per_call": p.per_call(
            "euler2d.interpolate_velocity", 1e3
        ),
        "euler2d.markers.share": p.incl["euler2d.advect_markers"] / wall_s,
        "invariants.phi_triple.ms_per_call": p.per_call("invariants.phi_triple", 1e3),
        "invariants.circulation.ms_per_call": p.per_call("invariants.circulation", 1e3),
        "invariants.divergence_residual.ms_per_call": p.per_call(
            "invariants.divergence_residual", 1e3
        ),
        "invariants.share": p.incl["invariants.phi_triple"] / wall_s,
        "cli.simulate.self_s": p.self_s["cli.simulate"],
        "cli.output_s": p.incl["euler2d.dump_field"] + p.incl["cli.write_invariant_csv"],
        "cartan.step.us_per_call": p.per_call("cartan.step", 1e6),
        "cartan.rhs_generator.calls_per_step": _ratio(
            p.calls["cartan.rhs_generator"], cartan_steps
        ),
        "cartan.cfl_bound.calls_per_step": _ratio(p.calls["cartan.cfl_bound"], cartan_steps),
        "cartan.integrate.share": p.incl["cartan.integrate"] / wall_s,
        "cli.cartan_residual_s": p.incl["cli.cmd_cartan"] - p.incl["cartan.integrate"],
        "liealg.C.calls": p.doc["counts"].get("liealg.C", 0),
        "spencer.ce_differential.calls": p.calls["spencer.ce_differential"],
        "spencer.ce_differential.s": p.incl["spencer.ce_differential"],
        "exact.rank.calls": rank_calls,
        "exact.rank.s": p.incl["exact.rank"],
        "exact.rank.share": p.incl["exact.rank"] / wall_s,
        "exact.rank.useful_ratio": _ratio(p.doc["distinct"].get("exact.rank", 0), rank_calls),
    }
