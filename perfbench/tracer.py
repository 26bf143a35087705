"""Span tracer that wraps qsslab's public functions from outside the package.

Each traced function is replaced, in every qsslab module namespace that
bound it, by a wrapper that records a span: name, start, end and the span
that was open when it was called.  Methods are wrapped on their class and
numpy's Hermitian eigensolvers on ``numpy.linalg``.  ``uninstall`` puts the
originals back.  Spans stay in flat arrays while the trace runs; self times
are derived afterwards as a span's duration minus the time its children
cover, which is exact because calls nest on one thread.
"""

import functools
import sys
import time
from array import array

import numpy as np

#: Functions wrapped as spans, named "<layer>.<attribute>" with the layer
#: being the qsslab module: those the per-layer metrics name, plus the
#: entry points one layer calls in another, so that time lands in the
#: layer that spends it.
FUNCTIONS = {
    "qstate": ("partial_trace", "subsystem_entropy", "mutual_information", "apply_isometry",
               "purify_secret"),
    "schemes": ("load_scheme", "induce_structure", "distribute_purified", "search_assignment",
                "build_block_scheme", "build_threshold34", "apply_to_secret"),
    "structures": ("enumerate_hyperstars", "canonical_key", "catalog_number",
                   "adversary_partition", "check_complement_law", "perfect_feasibility",
                   "load_structure", "is_quantum_admissible", "structure_to_dict"),
    "verifier": ("verify", "feasibility_matrix", "report_to_dict", "matrix_to_dict"),
    "protocols": ("simulate_protocol", "measure_z", "run_threshold34_circuit",
                  "run_block_measure_protocol", "decoupling_decoder", "random_secret"),
}

#: (module, class, method, span name) wrapped on the class.
METHODS = (
    ("qstate", "PureState", "__init__", "qstate.purestate"),
    ("schemes", "SchemeSpec", "__post_init__", "schemes.SchemeSpec"),
    ("verifier", "SubsetEntropyTable", "s", "verifier.entropy.s"),
    ("verifier", "SubsetEntropyTable", "s_with_ref", "verifier.entropy.s_with_ref"),
    ("verifier", "GeneralizedChecker", "__init__", "verifier.checker.init"),
    ("verifier", "GeneralizedChecker", "passes", "verifier.checker.passes"),
)

#: numpy eigensolvers; every call is a Hermitian eigendecomposition of a d x d matrix.
EIGENSOLVERS = ("eigvalsh", "eigh")
EIG = "qstate.eig"
ROOT = "cli.main"


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names, self._ids = [], {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.eig_dims = array("q")
        self.rho_dims = array("q")
        self._stack = [-1]
        self._saved = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name, fn, before=None, after=None):
        """Wrapper of fn recording one span per call."""
        nid = self._id(name)
        clock = time.perf_counter
        name_of, parent, start, end, stack = (
            self.name_of, self.parent, self.start, self.end, self._stack)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            if before is not None:
                before(args)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def call(self, fn, *args):
        """Run fn(*args) inside a root span (one CLI call)."""
        return self.span(ROOT, fn)(*args)

    def install(self):
        prefix = self.package + "."
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == self.package or name.startswith(prefix))]

        def replace_everywhere(orig, wrapper):
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._saved.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

        for layer, attrs in FUNCTIONS.items():
            mod = sys.modules.get(f"{self.package}.{layer}")
            for attr in attrs:
                orig = getattr(mod, attr, None)
                if orig is None:
                    continue  # renamed or removed: its metrics read 0
                hooks = {}
                if (layer, attr) == ("qstate", "partial_trace"):
                    hooks["after"] = lambda dm: self.rho_dims.append(dm.dim)
                replace_everywhere(orig, self.span(f"{layer}.{attr}", orig, **hooks))
        for layer, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules.get(f"{self.package}.{layer}"), cls_name, None)
            orig = vars(cls).get(attr) if cls is not None else None
            if orig is None:
                continue
            self._saved.append((cls, attr, orig))
            setattr(cls, attr, self.span(name, orig))
        for attr in EIGENSOLVERS:
            orig = getattr(np.linalg, attr)
            self._saved.append((np.linalg, attr, orig))
            setattr(np.linalg, attr, self.span(
                EIG, orig, before=lambda args: self.eig_dims.append(np.shape(args[0])[-1])))

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -----------------------------------------------------------------------
    # analysis

    def summary(self):
        """Per-name call counts and self times, plus entropy-table misses."""
        n_names = len(self.names)
        calls = [0] * n_names
        total = [0.0] * n_names
        covered = [0.0] * len(self.start)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        for i in range(len(start)):
            dur = end[i] - start[i]
            calls[name_of[i]] += 1
            total[name_of[i]] += dur
            p = parent[i]
            if p >= 0:
                covered[p] += dur
        self_time = list(total)
        for i in range(len(start)):
            self_time[name_of[i]] -= covered[i]
        lookups = {self._ids[n] for n in ("verifier.entropy.s", "verifier.entropy.s_with_ref")
                   if n in self._ids}
        entropy_id = self._ids.get("qstate.subsystem_entropy")
        misses = sum(1 for i in range(len(start))
                     if name_of[i] == entropy_id and parent[i] >= 0
                     and name_of[parent[i]] in lookups)
        return {
            "calls": dict(zip(self.names, calls)),
            "self_s": dict(zip(self.names, self_time)),
            "entropy_misses": misses,
        }

    def save(self, path):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_of, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            eig_dims=np.frombuffer(self.eig_dims, dtype=np.int64),
            rho_dims=np.frombuffer(self.rho_dims, dtype=np.int64),
        )
