"""Spans around each layer's public entry points, recorded from outside.

:func:`install` wraps the entry points named in ``ENTRY_POINTS`` (and
the lock context managers) for the duration of a traced run and
:func:`Tracer.uninstall` puts the originals back; no program code
changes.  A span is ``(id, name, start, end, parent id, ident,
thread)`` on ``time.monotonic``; ``thread`` is the recording thread's
``threading.get_ident()``.  The parent is the innermost open span on the same
thread; ``repro.cluster.remote`` and ``repro.cluster.coordinator`` get a
thread pool that carries the submitting thread's open span into its
workers, so parallel shard requests nest under their query.  ``ident``
is the request's identity where the call carries it (the query object,
or the list of a batch's queries), the client for a worker request and
the lock's name for a lock acquisition.  Spans stay in memory.
"""

import functools
import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import repro.cluster.coordinator as coordinator
import repro.cluster.remote as remote
import repro.cluster.state as cluster_state
import repro.cluster.workers as workers
import repro.continuous.registry as registry
import repro.core.collective as collective
import repro.core.frames as frames
import repro.reliability.recovery as recovery
import repro.reliability.wal as wal
import repro.service.locks as locks
import repro.service.scrubber as scrubber
import repro.service.service as service

clock = time.monotonic


def _first_arg(args, kwargs):
    return args[0] if args else None


def _second_arg(args, kwargs):
    return args[1] if len(args) > 1 else kwargs.get("query")


def _batch(args, kwargs):
    return list(args[1]) if len(args) > 1 else list(kwargs["queries"])


def _none(args, kwargs):
    return None


def _self(args, kwargs):
    return args[0]


#: (owner, attribute, span name, identity of the call).  A function is
#: wrapped under every module name its callers look it up by.
ENTRY_POINTS = (
    (service.QueryService, "submit", "service.submit", _second_arg),
    (service.QueryService, "digest", "service.digest", _none),
    (service.QueryService, "insert", "service.insert", _none),
    (service.QueryService, "delete", "service.delete", _none),
    (service, "knnta_search", "core.knnta_search", _second_arg),
    (coordinator, "knnta_search", "core.knnta_search", _second_arg),
    (collective.CollectiveProcessor, "run", "core.collective.run", _batch),
    (frames.FrameStore, "frame", "core.frames.frame", _none),
    (frames, "build_frame", "core.frames.build_frame", _none),
    (wal.MutationWAL, "append", "reliability.wal.append", _none),
    (recovery, "load_tree", "storage.load_tree", _first_arg),
    (recovery, "recover", "reliability.recover", _first_arg),
    (cluster_state, "recover", "reliability.recover", _first_arg),
    (registry.SubscriptionRegistry, "advance", "continuous.advance", _none),
    (scrubber.Scrubber, "tick", "service.scrub_tick", _none),
    (coordinator.ClusterTree, "query", "cluster.query", _second_arg),
    (coordinator.ClusterTree, "query_batch", "cluster.query_batch", _batch),
    (cluster_state, "open_cluster", "cluster.open", _first_arg),
    (remote.RemoteClusterTree, "query", "cluster.remote.query", _second_arg),
    (remote.WorkerClient, "request", "cluster.remote.request", _self),
    (workers.WorkerHandle, "spawn", "cluster.workers.spawn", _none),
)
#: The names the service and coordinator call a whole request's search by.
TREE_CALLS = (
    "core.knnta_search",
    "core.collective.run",
    "cluster.query",
    "cluster.query_batch",
    "cluster.remote.query",
)


class Tracer:
    """In-memory span recorder; see the module docs."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        return sid, parent, clock()

    def close(self, token, name, ident):
        sid, parent, start = token
        end = clock()
        self._stack().pop()
        self.spans.append((sid, name, start, end, parent, ident, threading.get_ident()))

    def wrap(self, function, name, ident_of):
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            token = tracer.open()
            try:
                return function(*args, **kwargs)
            finally:
                tracer.close(token, name, ident_of(args, kwargs))

        return traced

    def patch(self, owner, attribute, replacement):
        original = owner.__dict__[attribute]
        self._undo.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def uninstall(self):
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)


def install():
    """Wrap every entry point; returns the :class:`Tracer` recording them."""
    tracer = Tracer()
    try:
        for owner, attribute, name, ident_of in ENTRY_POINTS:
            original = owner.__dict__[attribute]
            if isinstance(original, classmethod):
                wrapped = classmethod(tracer.wrap(original.__func__, name, ident_of))
            else:
                wrapped = tracer.wrap(original, name, ident_of)
            tracer.patch(owner, attribute, wrapped)
        for method, name in (("read_locked", "lock.read"), ("write_locked", "lock.write")):
            tracer.patch(
                locks.ReadWriteLock, method,
                _timed_acquire(tracer, locks.ReadWriteLock.__dict__[method], name),
            )
        pool = _context_pool(tracer)
        tracer.patch(remote, "ThreadPoolExecutor", pool)
        tracer.patch(coordinator, "ThreadPoolExecutor", pool)
    except BaseException:
        tracer.uninstall()
        raise
    return tracer


def _timed_acquire(tracer, original, name):
    """A lock context manager whose span covers only the acquisition."""

    class Acquire:
        __slots__ = ("_inner", "_ident")

        def __init__(self, inner, ident):
            self._inner = inner
            self._ident = ident

        def __enter__(self):
            token = tracer.open()
            try:
                return self._inner.__enter__()
            finally:
                tracer.close(token, name, self._ident)

        def __exit__(self, *exc_info):
            return self._inner.__exit__(*exc_info)

    def locked(self):
        return Acquire(original(self), self.name)

    return locked


def _context_pool(tracer):
    """A ``ThreadPoolExecutor`` whose tasks run under the submitter's span."""

    class ContextPool(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            parent = tracer.current()

            def run(*inner_args, **inner_kwargs):
                stack = tracer._stack()
                stack.append(parent)
                try:
                    return fn(*inner_args, **inner_kwargs)
                finally:
                    stack.pop()

            return super().submit(run, *args, **kwargs)

    return ContextPool
