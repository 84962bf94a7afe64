"""Outside-in tracing of the orlicz layers.

The tracer wraps library functions from the benchmark's side: every module
attribute under ``orlicz`` that is the wrapped function object is replaced,
so a function is seen under each name it was imported as (for example the
Gauss rule as ``orlicz._quad.gauss15`` and ``orlicz.conjugate._gauss15``),
and methods are replaced on their class.  Nothing under ``src/`` changes,
and ``uninstall`` puts every original back.

A span is (name, start, end, parent, job, arg), kept in flat arrays in
memory and written out once at the end.  ``arg`` carries one number read
from the call: the ``depth`` argument of ``quad_interval``, the integrand
evaluations a Gauss panel made, the dimension of an integrated box, the
vector-Young evaluations of a volume computation.  A span's self time is its
duration minus the time its direct child spans cover; spans nest because the
workloads run on one thread.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

NO_PARENT = -1


class Tracer:
    def __init__(self):
        self.names = []          # span name per name id
        self._ids = {}
        self.job_names = []
        self.span_name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.arg = array("d")
        self._stack = [NO_PARENT]
        self._job = [-1]
        self._patched = []       # (owner, attribute, original)

    # -- spans -------------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_job(self, name: str) -> None:
        self._job[0] = len(self.job_names)
        self.job_names.append(name)

    def _open(self, nid: int) -> int:
        i = len(self.span_name)
        self.span_name.append(nid)
        self.parent.append(self._stack[-1])
        self.job.append(self._job[0])
        self.arg.append(0.0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    # -- wrappers ----------------------------------------------------------
    def _plain(self, fn, name):
        nid = self._name_id(name)
        span_open, span_close = self._open, self._close

        def wrapper(*args, **kwargs):
            i = span_open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                span_close(i)

        return functools.update_wrapper(wrapper, fn)

    def _with_arg(self, fn, name, read_arg):
        """Span whose ``arg`` is read from the call's arguments."""
        nid = self._name_id(name)
        span_open, span_close, arg = self._open, self._close, self.arg

        def wrapper(*args, **kwargs):
            i = span_open(nid)
            arg[i] = read_arg(args, kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                span_close(i)

        return functools.update_wrapper(wrapper, fn)

    def _counting_first_arg(self, fn, name, count_calls):
        """Span whose ``arg`` counts calls made through the first argument.

        ``count_calls(obj, bump)`` returns a stand-in for ``obj`` that calls
        ``bump`` on every use.
        """
        nid = self._name_id(name)
        span_open, span_close, arg = self._open, self._close, self.arg

        def wrapper(first, *args, **kwargs):
            i = span_open(nid)
            calls = [0]

            def bump():
                calls[0] += 1

            try:
                return fn(count_calls(first, bump), *args, **kwargs)
            finally:
                arg[i] = calls[0]
                span_close(i)

        return functools.update_wrapper(wrapper, fn)

    def _counting_output(self, fn, name):
        """Span whose ``arg`` is the bytes written to stdout and stderr."""
        nid = self._name_id(name)
        span_open, span_close, arg = self._open, self._close, self.arg

        def wrapper(*args, **kwargs):
            i = span_open(nid)
            out, err = sys.stdout, sys.stderr
            sys.stdout, sys.stderr = _CountingStream(out), _CountingStream(err)
            try:
                return fn(*args, **kwargs)
            finally:
                arg[i] = sys.stdout.written + sys.stderr.written
                sys.stdout, sys.stderr = out, err
                span_close(i)

        return functools.update_wrapper(wrapper, fn)

    # -- installation --------------------------------------------------------
    def _replace_everywhere(self, original, wrapper) -> None:
        """Swap ``original`` for ``wrapper`` under every orlicz module name."""
        found = False
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "orlicz" or modname.startswith("orlicz.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
                    found = True
        if not found:
            raise LookupError(f"{original!r} is not reachable from any orlicz module")

    def _replace_method(self, cls, attr, wrapper) -> None:
        self._patched.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        import orlicz as oz
        from orlicz import _quad, aniso, cli, conditions, conjugate, modular, nemytskii, young

        # young: every evaluator and inverse defined on a Young function class
        for cls in vars(young).values():
            if isinstance(cls, type) and issubclass(cls, young.YoungFunction):
                for attr, name in (("__call__", "young.eval"), ("inverse", "young.inverse")):
                    if attr in cls.__dict__:
                        self._replace_method(cls, attr, self._plain(cls.__dict__[attr], name))

        # conjugate: the H table build, its inverse, the Gauss panel rule
        self._replace_method(conjugate.HnTable, "__init__",
                             self._plain(conjugate.HnTable.__init__, "conjugate.HnTable.build"))
        self._replace_method(conjugate.HnTable, "inverse",
                             self._plain(conjugate.HnTable.inverse, "conjugate.HnTable.inverse"))
        self._replace_everywhere(oz.sobolev_conjugate,
                                 self._plain(oz.sobolev_conjugate, "conjugate.sobolev_conjugate"))

        # quadrature: panels count their integrand calls, levels keep depth
        def counted_integrand(f, bump):
            def g(x):
                bump()
                return f(x)
            return g

        self._replace_everywhere(_quad.gauss15, self._counting_first_arg(
            _quad.gauss15, "quad.gauss15", counted_integrand))
        self._replace_everywhere(_quad.quad_interval, self._with_arg(
            _quad.quad_interval, "quad.quad_interval", _argument(_quad.quad_interval, "depth")))

        # modular
        read_box = _argument(modular.integrate_box, "box")
        self._replace_everywhere(modular.integrate_box, self._with_arg(
            modular.integrate_box, "modular.integrate_box",
            lambda args, kwargs: read_box(args, kwargs).n))
        for fn, name in ((modular.modular_integral, "modular.modular_integral"),
                         (modular.luxemburg_norm, "modular.luxemburg_norm")):
            self._replace_everywhere(fn, self._plain(fn, name))

        # aniso: theta solves, volumes (counting vector-Young calls), phi_n
        self._replace_method(aniso.ThetaSolver, "solve",
                             self._plain(aniso.ThetaSolver.solve, "aniso.ThetaSolver.solve"))

        self._replace_everywhere(aniso.sublevel_volume, self._counting_first_arg(
            aniso.sublevel_volume, "aniso.sublevel_volume", _CountingPhi))
        self._replace_everywhere(aniso.phi_n, self._plain(aniso.phi_n, "aniso.phi_n"))

        # entry points of the remaining layers
        for fn, name in ((nemytskii.counterexample_run, "nemytskii.counterexample_run"),
                         (nemytskii.poincare_probe, "nemytskii.poincare_probe"),
                         (conditions.check_aniso, "conditions.check_aniso"),
                         (conditions.zygmund_table, "conditions.zygmund_table")):
            self._replace_everywhere(fn, self._plain(fn, name))
        self._replace_everywhere(cli.main, self._counting_output(cli.main, "cli.main"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------
    def arrays(self) -> dict:
        """Views of the span arrays; valid while no span is added."""
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "job": np.frombuffer(self.job, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "arg": np.frombuffer(self.arg, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), jobs=np.array(self.job_names),
                            **self.arrays())


def _argument(fn, name):
    """Reader of parameter ``name`` from a call's (args, kwargs)."""
    params = inspect.signature(fn).parameters
    pos, default = list(params).index(name), params[name].default

    def read(args, kwargs):
        if len(args) > pos:
            return args[pos]
        return kwargs.get(name, default)

    return read


class _CountingPhi:
    """Vector Young function stand-in that counts its evaluations."""

    def __init__(self, phi, bump):
        self._phi = phi
        self._bump = bump
        self.n = phi.n

    def __call__(self, xi):
        self._bump()
        return self._phi(xi)


class _CountingStream:
    """Text stream pass-through that counts the bytes written."""

    def __init__(self, stream):
        self._stream = stream
        self.written = 0

    def write(self, text):
        self.written += len(text.encode())
        return self._stream.write(text)

    def __getattr__(self, attr):
        return getattr(self._stream, attr)


class SpanTable:
    """Per-name aggregates over a trace: counts, self and total times."""

    def __init__(self, names, a: dict):
        self.names = list(names)
        self.name = a["name"]
        self.parent = a["parent"]
        self.arg = a["arg"]
        self.duration = a["end"] - a["start"]
        has_parent = self.parent >= 0
        self._has_parent = has_parent
        covered = np.bincount(self.parent[has_parent], weights=self.duration[has_parent],
                              minlength=len(self.name))
        self.self_time = self.duration - covered

    def ids(self, *names) -> np.ndarray:
        wanted = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name, wanted)

    def parent_is(self, mask_of_parents: np.ndarray) -> np.ndarray:
        out = np.zeros(len(self.name), dtype=bool)
        out[self._has_parent] = mask_of_parents[self.parent[self._has_parent]]
        return out

    def has_child_in(self, mask_of_children: np.ndarray) -> np.ndarray:
        out = np.zeros(len(self.name), dtype=bool)
        out[self.parent[mask_of_children & self._has_parent]] = True
        return out

    def under(self, mask_of_ancestors: np.ndarray) -> np.ndarray:
        """Spans with an ancestor in the mask (parents precede children)."""
        p = np.where(self._has_parent, self.parent, 0)
        inside = np.zeros(len(self.name), dtype=bool)
        while True:
            nxt = self._has_parent & (mask_of_ancestors[p] | inside[p])
            if np.array_equal(nxt, inside):
                return inside
            inside = nxt

    def count(self, mask) -> int:
        return int(np.count_nonzero(mask))

    def self_s(self, mask) -> float:
        return float(self.self_time[mask].sum())

    def total_s(self, mask) -> float:
        """Summed duration of the outermost spans in the mask."""
        outer = mask & ~self.under(mask)
        return float(self.duration[outer].sum())
