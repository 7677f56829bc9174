"""Span tracer that wraps library functions from outside the package.

Each traced function is replaced by a wrapper in every ``quadpencil.*`` module
namespace and on every class that holds it, so calls through aliases such as
``from .linalg import det as mat_det`` or ``__rmul__ = __mul__`` are seen too.
Spans live in memory as flat lists and are written out once, at the end.
"""

import functools
import json
import sys
import time

# "<layer>.<attribute path in quadpencil.<layer>>" of every traced function.
LAYER_FUNCTIONS = [
    "polys.Poly.__mul__", "polys.Poly.divmod", "polys.resultant", "polys.poly_gcdex",
    "polys.lagrange_interpolate",
    "linalg.det", "linalg.solve", "linalg.inverse", "linalg.mat_mul", "linalg.charpoly",
    "linalg.nullspace", "linalg.hnf",
    "etale.EtaleAlgebra.__init__", "etale.AlgElement.__mul__", "etale.AlgElement.trace",
    "etale.AlgElement.norm", "etale.AlgElement.inverse", "etale.euler_trace_solve",
    "etale.sqrt_in_algebra",
    "factor.factor_poly",
    "pencil.invariant_binary_form", "pencil.param_to_pencil", "pencil.pencil_to_param",
    "pencil.g_equivalent", "pencil.stabilizer_rational", "pencil.orbit_witness_search",
    "orders.Order.__init__", "orders.power_ideal", "orders.ideal_mul", "orders.Order.to_basis",
    "orders.OrientedIdeal.contains", "orders.inverse_different_check",
    "quadspace.diagonalize", "quadspace.hilbert_symbol", "quadspace.is_isotropic",
    "quadspace.isotropy_witness", "quadspace.forms_equivalent", "quadspace.spin_obstruction",
    "intutil.factorint", "intutil.is_prime",
    "pfaffian.pfaffian", "pfaffian.pi_invariant", "pfaffian.SkewTriple.transformed",
    "adjoint.adjoint_invariants", "adjoint.adjoint_conjugator", "adjoint.conjugator_is_unique",
    "cli.build_parser",
]

# Spans that sum a family of module functions, chosen by name.
GROUPS = {
    "cli.command": lambda name: name.startswith("cmd_"),
    "jsonio.decode": lambda name: name.startswith(("json_to_", "parse_")),
    "jsonio.encode": lambda name: name.endswith("_to_json"),
}

# Spans that only feed the ratios; they are not reported on their own.
HELPER_FUNCTIONS = ["intutil.next_prime", "etale.all_square_roots"]

# Spans whose wrapper also keeps a number taken from the result.
RESULT_VALUES = {"etale.all_square_roots": len}

REPORTED = LAYER_FUNCTIONS + list(GROUPS)


def _targets():
    """[(span name, owner, attribute)] for every function to wrap."""
    out = []
    for full in LAYER_FUNCTIONS + HELPER_FUNCTIONS:
        layer, path = full.split(".", 1)
        owner = sys.modules["quadpencil." + layer]
        *heads, last = path.split(".")
        for part in heads:
            owner = getattr(owner, part)
        if last not in vars(owner):
            raise LookupError("quadpencil.%s has no %s" % (layer, path))
        out.append((full, owner, last))
    for full, match in GROUPS.items():
        module = sys.modules["quadpencil." + full.split(".")[0]]
        names = sorted(k for k, v in vars(module).items()
                       if match(k) and getattr(v, "__module__", None) == module.__name__)
        if not names:
            raise LookupError("no function of %s for %s" % (module.__name__, full))
        out += [(full, module, k) for k in names]
    return out


class Tracer:
    """Records (name, start, end, parent, op, value) spans while active."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.spans = []  # flat rows: [name id, start ns, end ns, parent, op, value]
        self.stack = []
        self.active = False
        self.op = -1
        self._restore = []

    def _name_id(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _wrap(self, fn, name):
        nid = self._name_id(name)
        measure = RESULT_VALUES.get(name)
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            row = [nid, 0, 0, stack[-1] if stack else -1, self.op, None]
            idx = len(spans)
            spans.append(row)
            stack.append(idx)
            row[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
            if measure is not None:
                row[5] = measure(result)
            return result

        return wrapper

    def install(self, extra_modules=()):
        """Wrap every listed function and rebind all of its aliases.

        Aliases are rebound in every quadpencil module and class, and in
        `extra_modules`, such as a caller that imported names before this ran.
        """
        import quadpencil  # noqa: F401  (loads every submodule)
        import quadpencil.cli  # noqa: F401

        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "quadpencil" or k.startswith("quadpencil."))]
        modules += list(extra_modules)
        originals = {}
        for name, owner, attr in _targets():
            fn = vars(owner)[attr]
            originals[id(fn)] = (fn, self._wrap(fn, name))
        for module in modules:
            holders = [module] + [v for v in vars(module).values()
                                  if isinstance(v, type)
                                  and v.__module__.startswith("quadpencil")]
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    hit = originals.get(id(value))
                    if hit is not None and hit[0] is value:
                        setattr(holder, attr, hit[1])
                        self._restore.append((holder, attr, value))

    def uninstall(self):
        for holder, attr, value in reversed(self._restore):
            setattr(holder, attr, value)
        self._restore = []

    # ------------------------------------------------------------ analysis

    def summary(self, scales=None):
        """{name: [calls, self ns]} over all recorded spans.

        With `scales`, the self time of a span of op i is multiplied by scales[i].
        """
        child_ns = [0] * len(self.spans)
        for row in self.spans:
            if row[3] >= 0:
                child_ns[row[3]] += row[2] - row[1]
        out = {name: [0, 0] for name in self.names}
        for i, row in enumerate(self.spans):
            acc = out[self.names[row[0]]]
            acc[0] += 1
            acc[1] += (row[2] - row[1] - child_ns[i]) * (scales[row[4]] if scales else 1)
        return out

    def count_under(self, name, ancestors, value=False):
        """Calls of `name` (or the sum of their values) below any `ancestors` span."""
        if isinstance(ancestors, str):
            ancestors = [ancestors]
        nid = self.name_ids.get(name)
        aids = {self.name_ids[a] for a in ancestors if a in self.name_ids}
        if nid is None or not aids:
            return 0
        total = 0
        for row in self.spans:
            if row[0] != nid:
                continue
            p = row[3]
            while p >= 0 and self.spans[p][0] not in aids:
                p = self.spans[p][3]
            if p >= 0:
                total += row[5] if value else 1
        return total

    def count_outermost(self, names):
        """Calls of any of `names` that have no ancestor among `names`."""
        ids = {self.name_ids[n] for n in names if n in self.name_ids}
        total = 0
        for row in self.spans:
            if row[0] not in ids:
                continue
            p = row[3]
            while p >= 0 and self.spans[p][0] not in ids:
                p = self.spans[p][3]
            total += p < 0
        return total

    def write(self, path):
        """One JSON line per span: name, start/end ns, parent index, op id."""
        with open(path, "w") as fh:
            for row in self.spans:
                fh.write(json.dumps([self.names[row[0]], row[1], row[2], row[3], row[4]]))
                fh.write("\n")
