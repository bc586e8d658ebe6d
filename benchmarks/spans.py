"""In-memory spans around the public functions of the sechprolate modules.

The library carries no timing code of its own, so the traced run rebinds
module (and class) attributes to wrappers from this file and restores them
afterwards. A span is [name, start, end, parent index, op id, attrs]; spans
stay in memory and are summarised, or written out, when the run ends.
"""
import functools
import json
import sys
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []
        self.op_id = -1

    def _push(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.op_id, None])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _pop(self, idx):
        self.spans[idx][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    def span(self, name):
        """Context manager for a span the benchmark opens itself (one op)."""
        tracer = self

        class _Span:
            def __enter__(self):
                self.idx = tracer._push(name)
                return self

            def __exit__(self, *exc):
                tracer._pop(self.idx)
                return False

        return _Span()

    def wrap(self, name, fn, attrs=None):
        """fn with a span around every call; attrs(args, kwargs, result)
        returns counts to attach, computed after the span has closed."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._push(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._pop(idx)
            if attrs is not None:
                self.spans[idx][5] = attrs(args, kwargs, result)
            return result

        return traced

    def install(self, targets, package="sechprolate"):
        """Wrap each target, given as 'module.function' or
        'module.Class.method' relative to the package.

        A module-level function is rebound in every loaded module of the
        package that holds it, because 'from x import f' copies the binding.
        """
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for target, attrs in targets.items():
            parts = target.split(".")
            module = sys.modules[f"{package}.{parts[0]}"]
            if len(parts) == 3:
                owner = getattr(module, parts[1])
                original = owner.__dict__[parts[2]]
                self._rebind(owner, parts[2], self.wrap(target, original, attrs))
                continue
            original = getattr(module, parts[1])
            wrapped = self.wrap(target, original, attrs)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, attr, wrapped)

    def _rebind(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def summary(self):
        """Per span name: total seconds 's', 'self_s' (span minus the time
        its direct children cover), 'calls', and every attr summed."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for i, (name, t0, t1, _, _, attrs) in enumerate(self.spans):
            agg = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            agg["s"] += t1 - t0
            agg["self_s"] += t1 - t0 - child[i]
            agg["calls"] += 1
            for key, value in (attrs or {}).items():
                agg[key] = agg.get(key, 0) + value
        return out

    def write(self, path):
        with open(path, "w", encoding="ascii") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "op",
                                  "attrs"],
                       "spans": self.spans}, f, separators=(",", ":"))
