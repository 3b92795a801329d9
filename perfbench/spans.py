"""Span tracing for the phjb benchmark, installed from outside the package.

`Tracer.install` wraps the public functions and methods listed in TARGETS.
A wrapped module-level function is replaced under every name that binds it
in any loaded `phjb` module (e.g. `step_once` lives in both `dynamics` and
`value`); a wrapped method is replaced on its class. `Tracer.uninstall`
puts every original back.

Each call records one span: (id, name, start, end, parent id, cell id,
outermost, error type). `outermost` is False when the call runs inside a
span of the same name (the recursive `ValueTable.entry`), so inclusive times
do not count recursion twice. Spans are kept in memory; `aggregate` turns
one pass's spans into per-layer metrics and `write_spans` dumps them.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (span name, module, attribute path) for every traced callable.
TARGETS = (
    ("cli.execute", "phjb.cli", "execute"),
    ("config.load_config", "phjb.config", "load_config"),
    ("report.write_report", "phjb.report", "write_report"),
    ("dynamics.step_once", "phjb.dynamics", "step_once"),
    ("dynamics.mild_solve", "phjb.dynamics", "mild_solve"),
    ("paths.Path", "phjb.paths", "Path.__post_init__"),
    ("paths.extend_semigroup", "phjb.paths", "extend_semigroup"),
    ("paths.sup_norm", "phjb.paths", "sup_norm"),
    ("hilbert.semigroup_factors", "phjb.hilbert", "SpectralSpace.semigroup_factors"),
    ("value.ValueTable", "phjb.value", "ValueTable.__init__"),
    ("value.entry", "phjb.value", "ValueTable.entry"),
    ("value.verify_dpp_consistency", "phjb.value", "verify_dpp_consistency"),
    ("value.verify_value_regularity", "phjb.value", "verify_value_regularity"),
    ("checks.build_net", "phjb.checks", "build_net"),
    ("checks.viscosity_check", "phjb.checks", "viscosity_check"),
    ("checks.upsilon_margin", "phjb.checks", "upsilon_margin"),
    ("checks.stability_experiment", "phjb.checks", "stability_experiment"),
    ("checks.ito_residual", "phjb.checks", "ito_residual"),
    ("testfn.GaugePack.value", "phjb.testfn", "GaugePack.value"),
    ("testfn.validate_on", "phjb.testfn", "TestFunctionPhi.validate_on"),
    ("gauge.eval_upsilon", "phjb.gauge", "eval_upsilon"),
    ("gauge.pair_difference", "phjb.gauge", "pair_difference"),
    ("variational.bp_search", "phjb.variational", "bp_search"),
    ("variational.pair_gauge", "phjb.variational", "pair_gauge"),
    ("scenarios.touching_points", "phjb.scenarios", "touching_points"),
)

CHECK_NAMES = (
    "hypothesis", "estimates", "value", "dpp", "regularity", "ito",
    "gauge", "viscosity", "classical", "stability", "bp",
)


class Tracer:
    """Records spans around the traced callables while installed."""

    def __init__(self):
        self.spans: list = []
        self.cell = None
        self._stack: list = []
        self._depth: dict = defaultdict(int)
        self._next_id = 0
        self._restore: list = []
        # per-pass counts that spans cannot carry
        self.side: Counter = Counter()
        self.tables: list = []  # (cell id, ValueTable), read when a pass ends

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        mods = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "phjb"]
        for name, modname, attr in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapped)
            # a default argument binds the function too (bp_search's rho)
            for fn in _functions(mods):
                defaults = fn.__defaults__ or ()
                if any(d is orig for d in defaults):
                    self._restore.append((fn, "__defaults__", defaults))
                    fn.__defaults__ = tuple(wrapped if d is orig else d for d in defaults)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    def _wrap(self, name, fn):
        stack, depth = self._stack, self._depth
        on_result = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else None
            outermost = depth[name] == 0
            depth[name] += 1
            stack.append(sid)
            error = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                depth[name] -= 1
                self.spans.append((sid, name, t0, t1, parent, self.cell, outermost, error))
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        return traced

    # -- output ------------------------------------------------------------

    def take_pass(self) -> tuple:
        """Hand over the spans, side counts and memo sizes of the pass just run, then reset.

        The memo sizes are (cell id, entries, hits), one per ValueTable.
        """
        memos = [(cell, len(t.memo), t.hits) for cell, t in self.tables]
        spans, self.spans = self.spans, []
        side = Counter(self.side)
        self.side.clear()
        self.tables.clear()
        return spans, side, memos


def _functions(mods):
    """Plain functions defined in the given modules, including methods."""
    seen = set()
    for mod in mods:
        for val in vars(mod).values():
            members = vars(val).values() if isinstance(val, type) else (val,)
            for fn in members:
                fn = getattr(fn, "__func__", fn)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and id(fn) not in seen:
                    seen.add(id(fn))
                    yield fn


def _on_build_net(tr, args, kwargs, result):
    tr.side["net_paths"] += len(result)


def _on_viscosity(tr, args, kwargs, result):
    tr.side["scanned_paths"] += len(kwargs.get("net") or ())


def _on_write_report(tr, args, kwargs, result):
    tr.side["report_bytes"] += len(result.encode("utf-8"))


def _on_table(tr, args, kwargs, result):
    tr.tables.append((tr.cell, args[0]))


_HOOKS = {
    "checks.build_net": _on_build_net,
    "checks.viscosity_check": _on_viscosity,
    "report.write_report": _on_write_report,
    "value.ValueTable": _on_table,
}


def aggregate(spans: list, side: dict, memos: list, cells: dict, parts: tuple) -> dict:
    """Per-layer metrics of one pass: {name: (value, unit)}.

    `memos` holds (cell id, entries, hits) for each ValueTable the pass made,
    `cells` maps each cell id to (the one check that cell ran, its part), and
    `value.hit_ratio.<part>` is given for each of `parts`.
    """
    calls = defaultdict(int)
    incl = defaultdict(float)  # outermost spans only
    self_s = defaultdict(float)
    errors = defaultdict(int)
    child = defaultdict(float)
    for sid, name, t0, t1, parent, cell, outer, err in spans:
        if parent is not None:
            child[parent] += t1 - t0
    check_s = defaultdict(float)
    for sid, name, t0, t1, parent, cell, outer, err in spans:
        dur = t1 - t0
        calls[name] += 1
        self_s[name] += dur - child[sid]
        if outer:
            incl[name] += dur
        if err is not None:
            errors[name] += 1
        if name == "cli.execute":
            check_s[cells[cell][0]] += dur

    def per_call_us(name):
        return 1e6 * incl[name] / calls[name] if calls[name] else 0.0

    m = {}

    def put(key, value, unit):
        m[key] = (value, unit)

    put("dynamics.step_once.calls", calls["dynamics.step_once"], "count")
    put("dynamics.step_once.us", per_call_us("dynamics.step_once"), "us")
    put("dynamics.mild_solve.calls", calls["dynamics.mild_solve"], "count")
    put("dynamics.mild_solve.s", incl["dynamics.mild_solve"], "s")
    put("paths.Path.calls", calls["paths.Path"], "count")
    put("paths.Path.us", per_call_us("paths.Path"), "us")
    put("paths.extend_semigroup.calls", calls["paths.extend_semigroup"], "count")
    put("paths.extend_semigroup.s", incl["paths.extend_semigroup"], "s")
    put("paths.sup_norm.calls", calls["paths.sup_norm"], "count")
    put("hilbert.semigroup_factors.calls", calls["hilbert.semigroup_factors"], "count")
    entries, hits = Counter(), Counter()
    for cell, n, h in memos:
        entries[cells[cell][1]] += n
        hits[cells[cell][1]] += h

    def hit_ratio(part=None):
        e = sum(entries.values()) if part is None else entries[part]
        h = sum(hits.values()) if part is None else hits[part]
        return h / (h + e) if h + e else 0.0

    put("value.tables", calls["value.ValueTable"], "count")
    put("value.entry.calls", calls["value.entry"], "count")
    put("value.entry.self_s", self_s["value.entry"], "s")
    put("value.memo_entries", sum(entries.values()), "count")
    put("value.memo_hits", sum(hits.values()), "count")
    put("value.hit_ratio", hit_ratio(), "ratio")
    for part in parts:
        put(f"value.hit_ratio.{part}", hit_ratio(part), "ratio")
    put("value.verify_dpp_consistency.s", incl["value.verify_dpp_consistency"], "s")
    put("value.verify_value_regularity.s", incl["value.verify_value_regularity"], "s")
    put("checks.build_net.calls", calls["checks.build_net"], "count")
    put("checks.build_net.s", incl["checks.build_net"], "s")
    put("checks.net_paths", side["net_paths"], "count")
    put("checks.viscosity_check.s", incl["checks.viscosity_check"], "s")
    scanned = side["scanned_paths"]
    put(
        "checks.viscosity_check.us_per_net_path",
        1e6 * incl["checks.viscosity_check"] / scanned if scanned else 0.0,
        "us",
    )
    put("checks.upsilon_margin.calls", calls["checks.upsilon_margin"], "count")
    put("checks.upsilon_margin.s", incl["checks.upsilon_margin"], "s")
    put("checks.stability_experiment.s", incl["checks.stability_experiment"], "s")
    put("checks.ito_residual.s", incl["checks.ito_residual"], "s")
    put("testfn.GaugePack.value.calls", calls["testfn.GaugePack.value"], "count")
    put("testfn.GaugePack.value.us", per_call_us("testfn.GaugePack.value"), "us")
    put("testfn.validate_on.s", incl["testfn.validate_on"], "s")
    put("gauge.eval_upsilon.calls", calls["gauge.eval_upsilon"], "count")
    put("gauge.eval_upsilon.us", per_call_us("gauge.eval_upsilon"), "us")
    put("gauge.pair_difference.calls", calls["gauge.pair_difference"], "count")
    put("variational.bp_search.s", incl["variational.bp_search"], "s")
    put("variational.pair_gauge.calls", calls["variational.pair_gauge"], "count")
    put("variational.pair_gauge.us", per_call_us("variational.pair_gauge"), "us")
    put("scenarios.touching_points.calls", calls["scenarios.touching_points"], "count")
    put("scenarios.touching_points.errors", errors["scenarios.touching_points"], "count")
    put("config.load_config.calls", calls["config.load_config"], "count")
    put("config.load_config.ms", 1e3 * incl["config.load_config"], "ms")
    put("report.write_report.calls", calls["report.write_report"], "count")
    put("report.write_report.ms", 1e3 * incl["report.write_report"], "ms")
    put("report.bytes", side["report_bytes"], "bytes")
    for check in CHECK_NAMES:
        put(f"cli.check_s.{check}", check_s[check], "s")
    return m


def combine_passes(per_pass: list) -> dict:
    """Median of each timing over the traced passes; counts from the first."""
    return {
        k: (v if unit == "count" else statistics.median(p[k][0] for p in per_pass), unit)
        for k, (v, unit) in per_pass[0].items()
    }


def write_spans(path, spans: list) -> None:
    """Gzipped tab-separated spans, seconds relative to the first start.

    Columns: id, name, start, end, parent id, cell id, error type; an empty
    field is a missing parent or error.
    """
    base = min((s[2] for s in spans), default=0.0)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [
        f"{sid}\t{name}\t{t0 - base:.7f}\t{t1 - base:.7f}\t"
        f"{'' if parent is None else parent}\t{cell}\t{err or ''}\n"
        for sid, name, t0, t1, parent, cell, _, err in spans
    ]
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write("id\tname\tstart\tend\tparent\tcell\terror\n")
        fh.writelines(lines)
