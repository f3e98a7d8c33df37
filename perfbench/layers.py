"""Per-layer spans recorded from outside the program.

The traced run wraps the public calls into each layer — module
functions and class methods, looked up where the caller looks them up —
with timers kept here, in the benchmark.  Nothing under ``src/`` changes:
a wrapper replaces an attribute for the life of one benchmark process.

A :class:`Recorder` keeps, per span name, the call count, the inclusive
time and the *self* time (inclusive minus the wrapped calls nested
inside it on the same thread).  Self times of disjoint layers add up, so
``end to end - sum(self times)`` is the unattributed remainder.

The untraced run installs nothing; the difference between the two runs
is the tracing overhead.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time

__all__ = ["Recorder", "install_service", "install_figure1"]


class Recorder:
    """Thread-safe span totals with per-thread nesting for self time."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._totals: dict[str, list] = {}  # name -> [calls, incl_s, self_s]
        self._counts: dict[str, float] = {}
        self._batch_s: dict[int, float] = {}  # id(op) -> its batch's time

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, inclusive_s: float, self_s: float, calls: int = 1) -> None:
        """Account ``calls`` executions of span ``name``."""
        with self._lock:
            entry = self._totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += inclusive_s
            entry[2] += self_s

    def count(self, name: str, amount: float) -> None:
        """Add ``amount`` to the plain counter ``name``."""
        with self._lock:
            self._counts[name] = self._counts.get(name, 0) + amount

    def wrap(self, name: str, fn, on_exit=None):
        """``fn`` timed as span ``name``; ``on_exit(args, seconds)`` hook."""
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            stack.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - t0
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self.add(name, elapsed, elapsed - nested)
                if on_exit is not None:
                    on_exit(args, elapsed)

        return wrapper

    def snapshot(self) -> dict:
        """``{"spans": {name: {"calls", "inclusive_s", "self_s"}},
        "counts": {name: value}}`` so far."""
        with self._lock:
            return {
                "spans": {
                    name: {"calls": c, "inclusive_s": incl, "self_s": own}
                    for name, (c, incl, own) in self._totals.items()
                },
                "counts": dict(self._counts),
            }

    # -- the batcher hop ---------------------------------------------------

    def note_batch(self, ops, seconds: float) -> None:
        """Remember how long the batch answering each op took."""
        with self._lock:
            for op in ops:
                self._batch_s[id(op)] = seconds

    def batch_of(self, op) -> float:
        """The recorded batch time of ``op`` (consumed)."""
        with self._lock:
            return self._batch_s.pop(id(op), 0.0)


def _patch(owner, attr: str, recorder: Recorder, name: str, on_exit=None) -> None:
    """Replace ``owner.attr`` (a module function or a class's own method)."""
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    setattr(owner, attr, recorder.wrap(name, original, on_exit))


def install_service(recorder: Recorder) -> None:
    """Wrap the admission server's layers (run inside the server process).

    Span names, by layer:

    * ``service.parse`` — ``load_body`` + ``parse_*_body``
    * ``service.encode`` — ``*_to_wire`` + ``dump_body``
    * ``service.ratelimit`` — ``ClientRateLimiter.check``
    * ``service.batcher_wait`` — ``MicroBatcher.submit`` (a coroutine)
      minus the ``process_batch`` call that answered it
    * ``admission.batch`` — ``AdmissionController.process_batch``
    * ``admission.exact`` — the controller's exact-test engine hook
      ``_exact_verdicts`` (both engines)
    * ``cache.get`` / ``cache.put`` — ``ResultCache.get``/``put``
    * ``cache.key`` — ``content_key``, ``set_signature``,
      ``prefix_chain_seed``, ``prefix_chain_extend``
    * ``obs.trace`` — ``Tracer.begin`` + ``Tracer.finish``
    """
    import repro.admission as admission
    import repro.cache.keys as keys
    import repro.cache.store as store
    import repro.obs.tracing as tracing
    import repro.service.batcher as batcher
    import repro.service.ratelimit as ratelimit
    import repro.service.server as server

    for attr in ("load_body", "parse_stream_body", "parse_release_body"):
        _patch(server, attr, recorder, "service.parse")
    for attr in ("decision_to_wire", "release_to_wire", "fault_to_wire", "dump_body"):
        _patch(server, attr, recorder, "service.encode")
    _patch(ratelimit.ClientRateLimiter, "check", recorder, "service.ratelimit")

    _patch(
        admission.AdmissionController,
        "process_batch",
        recorder,
        "admission.batch",
        on_exit=lambda args, seconds: recorder.note_batch(args[1], seconds),
    )

    def count_candidates(args, _seconds):
        recorder.count("admission.exact_candidates", len(args[1]))

    engines = [admission.AdmissionController]
    try:
        # The incremental engine is a candidate for deletion; without it
        # its spans and counters simply read 0.
        import repro.admission_incremental as incremental
    except ImportError:
        pass
    else:
        engines.append(incremental.IncrementalAdmissionController)
        for attr in ("prefix_chain_seed", "prefix_chain_extend"):
            _patch(incremental, attr, recorder, "cache.key")
    for cls in engines:
        _patch(cls, "_exact_verdicts", recorder, "admission.exact", count_candidates)

    _patch(store.ResultCache, "get", recorder, "cache.get")
    _patch(store.ResultCache, "put", recorder, "cache.put")
    for attr in ("content_key", "set_signature"):
        _patch(keys, attr, recorder, "cache.key")

    _patch(tracing.Tracer, "begin", recorder, "obs.trace")
    _patch(tracing.Tracer, "finish", recorder, "obs.trace")

    submit = batcher.MicroBatcher.__dict__["submit"]
    if not inspect.iscoroutinefunction(submit):
        raise TypeError("MicroBatcher.submit is no longer a coroutine function")
    perf = time.perf_counter

    @functools.wraps(submit)
    async def timed_submit(self, op, span=None):
        t0 = perf()
        try:
            return await submit(self, op, span=span)
        finally:
            elapsed = perf() - t0
            waited = elapsed - recorder.batch_of(op)
            recorder.add("service.batcher_wait", waited, waited)

    batcher.MicroBatcher.submit = timed_submit


def install_figure1(recorder: Recorder) -> None:
    """Wrap the Figure 1 pipeline's layers (run inside the sweep process).

    * ``experiments.figure1.cell`` — one grid cell
      (``average_breakdown_utilization`` as the sweep calls it)
    * ``messages.sample`` — ``MessageSetSampler.sample_many``
    * ``analysis.rm.structure_build`` — ``ExactRMTest.__init__``
    * ``analysis.breakdown.search`` — ``breakdown_scales_batch``
    * ``analysis.pdp.probe`` — each call of a ``PDPAnalysis.scale_prober``
      probe
    * ``analysis.ttp.saturation`` — ``TTPAnalysis.saturation_scale``
    """
    import repro.analysis.breakdown as breakdown
    import repro.analysis.pdp as pdp
    import repro.analysis.rm as rm
    import repro.analysis.ttp as ttp
    import repro.experiments.figure1 as figure1
    import repro.messages.generators as generators

    _patch(
        figure1,
        "average_breakdown_utilization",
        recorder,
        "experiments.figure1.cell",
    )
    _patch(generators.MessageSetSampler, "sample_many", recorder, "messages.sample")
    _patch(rm.ExactRMTest, "__init__", recorder, "analysis.rm.structure_build")
    _patch(breakdown, "breakdown_scales_batch", recorder, "analysis.breakdown.search")
    _patch(ttp.TTPAnalysis, "saturation_scale", recorder, "analysis.ttp.saturation")

    scale_prober = pdp.PDPAnalysis.__dict__["scale_prober"]

    @functools.wraps(scale_prober)
    def timed_scale_prober(self, message_sets):
        return recorder.wrap("analysis.pdp.probe", scale_prober(self, message_sets))

    pdp.PDPAnalysis.scale_prober = timed_scale_prober
