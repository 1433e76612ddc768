"""Layer tracing from outside the program.

``Tracer`` replaces the public functions of the five hypermat modules with
timing wrappers, on the attribute name each caller looks up at call time:
``recursions.evaluate`` rather than ``series.evaluate`` for the campaign,
``linalg.lu_factor`` (the module global that ``linalg.inverse`` also looks up),
and the ``PochhammerChain`` methods on the class. A wrapper placed on a name
no caller looks up would silently see no calls, so ``install`` fails on a
name the module does not define, and ``uninstall`` restores every original.

Every wrapped call pushes a frame that collects its children's time, so a
layer's self time is its duration minus the time of the wrapped calls made
inside it. Coarse calls (ops, verifications, evaluations, documents) are also
kept as spans (name, start, end, parent) in memory. The per-lookup calls
(chain products and inverses, ``linalg.identity``, the norms and the LU
steps, about 1.6 M on one full campaign) are folded into counters only, so
memory stays bounded by the number of coarse calls.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from hypermat import calculus, documents, linalg, recursions, series
from hypermat.calculus import PochhammerChain
from hypermat.errors import NotConverged
from hypermat.series import FunctionKind

_clock = time.perf_counter

# (module, attribute, layer name, kept as a span)
_FUNCTIONS = (
    (recursions, "verify_identity", "recursions.verify_identity", True),
    (recursions, "check_hypotheses", "recursions.check_hypotheses", True),
    (recursions, "draw_family", "recursions.draw_family", True),
    (recursions, "random_commuting_family", "calculus.random_commuting_family", True),
    (calculus, "gamma_limit", "calculus.gamma_limit", True),
    (documents, "parse_evaluation_document", "documents.parse", True),
    (documents, "eval_report_to_document", "documents.render", True),
    (documents, "verification_reports_to_document", "documents.render", True),
    (linalg, "lu_factor", "linalg.lu_factor", False),
    (linalg, "solve", "linalg.solve", False),
    (linalg, "identity", "linalg.identity", False),
    (linalg, "frobenius_norm", "linalg.frobenius_norm", False),
    (linalg, "spectrum", "linalg.spectrum", False),
    (linalg, "mat_exp", "linalg.mat_exp", False),
)

# series.evaluate is reached as ``recursions.evaluate`` from the campaign and
# as ``series.evaluate`` from the eval workload; both feed one layer.
_EVALUATE_NAMES = ((recursions, "evaluate"), (series, "evaluate"))

MODULES = ("linalg", "calculus", "series", "recursions", "documents")

SELF_TIMED = (
    "linalg.lu_factor",
    "linalg.solve",
    "linalg.spectrum",
    "linalg.mat_exp",
    "linalg.frobenius_norm",
    "linalg.identity",
    "calculus.chain",
    "calculus.product",
    "calculus.inverse",
    "calculus.gamma_limit",
    "calculus.random_commuting_family",
    "series.evaluate",
    "recursions.verify_identity",
    "recursions.check_hypotheses",
    "recursions.draw_family",
    "documents.parse",
    "documents.render",
)


@dataclass
class LayerStat:
    calls: int = 0
    self_s: float = 0.0


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at the top


@dataclass
class Tracer:
    """Per-pass layer counters and spans; install, run one pass, uninstall."""

    stats: dict[str, LayerStat] = field(default_factory=dict)
    spans: list[Span] = field(default_factory=list)
    extend_steps: int = 0
    solve_steps: int = 0
    distinct_bases: set[bytes] = field(default_factory=set)
    terms: int = 0
    degrees: list[int] = field(default_factory=list)
    not_converged: int = 0
    document_bytes: int = 0
    _child: list[float] = field(default_factory=lambda: [0.0])
    _open: list[int] = field(default_factory=lambda: [-1])
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    # -- frame bookkeeping -------------------------------------------------

    def _finish(self, name: str, start: float, span: bool) -> None:
        end = _clock()
        duration = end - start
        child = self._child.pop()
        self._child[-1] += duration
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = LayerStat()
        stat.calls += 1
        stat.self_s += duration - child
        if span:
            index = self._open.pop()
            self.spans[index].end = end

    def _begin(self, name: str, span: bool) -> float:
        self._child.append(0.0)
        start = _clock()
        if span:
            self.spans.append(Span(name, start, start, self._open[-1]))
            self._open.append(len(self.spans) - 1)
        return start

    @contextmanager
    def region(self, name: str):
        """An op-level span opened by the benchmark around one op."""
        start = self._begin(name, True)
        try:
            yield
        finally:
            self._finish(name, start, True)

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name: str, span: bool):
        begin, finish = self._begin, self._finish

        def wrapper(*args, **kwargs):
            start = begin(name, span)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(name, start, span)

        return wrapper

    def _wrap_evaluate(self, fn):
        begin, finish, tracer = self._begin, self._finish, self

        def evaluate(params, point, *args, **kwargs):
            start = begin("series.evaluate", True)
            report = None
            try:
                report = fn(params, point, *args, **kwargs)
                return report
            except NotConverged as exc:
                tracer.not_converged += 1
                report = exc.report
                raise
            finally:
                finish("series.evaluate", start, True)
                if report is not None:
                    tracer._count_terms(params.kind, report.degrees_used)

        return evaluate

    def _count_terms(self, kind: FunctionKind, degrees: int) -> None:
        self.degrees.append(degrees)
        if kind.is_two_variable:
            self.terms += (degrees + 1) * (degrees + 2) // 2
        else:
            self.terms += degrees + 1

    def _wrap_dump(self, fn):
        begin, finish, tracer = self._begin, self._finish, self

        def dump_document(doc):
            start = begin("documents.render", True)
            try:
                text = fn(doc)
            finally:
                finish("documents.render", start, True)
            tracer.document_bytes += len(text.encode("utf-8"))
            return text

        return dump_document

    def _chain_methods(self) -> dict[str, object]:
        begin, finish, tracer = self._begin, self._finish, self
        product = PochhammerChain.product
        inverse = PochhammerChain.inverse
        for_products = PochhammerChain.__dict__["for_products"].__func__
        for_inverses = PochhammerChain.__dict__["for_inverses"].__func__

        def traced_product(chain, n):
            before = len(chain.products)
            start = begin("calculus.product", False)
            try:
                return product(chain, n)
            finally:
                finish("calculus.product", start, False)
                tracer.extend_steps += len(chain.products) - before

        def traced_inverse(chain, n):
            held = chain.inverse_products
            before = len(held) if held is not None else 0
            start = begin("calculus.inverse", False)
            try:
                return inverse(chain, n)
            finally:
                finish("calculus.inverse", start, False)
                if held is not None:
                    tracer.solve_steps += len(held) - before

        def traced_for_products(cls, base):
            start = begin("calculus.chain", False)
            try:
                chain = for_products(cls, base)
            finally:
                finish("calculus.chain", start, False)
            tracer.distinct_bases.add(chain.base.tobytes())
            return chain

        def traced_for_inverses(cls, base):
            start = begin("calculus.for_inverses", False)
            try:
                return for_inverses(cls, base)
            finally:
                finish("calculus.for_inverses", start, False)

        return {
            "product": traced_product,
            "inverse": traced_inverse,
            "for_products": classmethod(traced_for_products),
            "for_inverses": classmethod(traced_for_inverses),
        }

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def install(self) -> "Tracer":
        for module, attribute, name, span in _FUNCTIONS:
            self._patch(module, attribute, self._wrap(getattr(module, attribute), name, span))
        for module, attribute in _EVALUATE_NAMES:
            self._patch(module, attribute, self._wrap_evaluate(getattr(module, attribute)))
        self._patch(documents, "dump_document", self._wrap_dump(documents.dump_document))
        for attribute, replacement in self._chain_methods().items():
            self._patch(PochhammerChain, attribute, replacement)
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False

    # -- results -------------------------------------------------------------

    def _stat(self, name: str) -> LayerStat:
        return self.stats.get(name, LayerStat())

    def counts(self) -> dict[str, int]:
        """Counts that depend only on the inputs; equal on every traced pass."""
        verifications = self._stat("recursions.verify_identity").calls
        evaluations = self._stat("series.evaluate").calls
        return {
            "linalg.lu_factor.calls": self._stat("linalg.lu_factor").calls,
            "linalg.solve.calls": self._stat("linalg.solve").calls,
            "linalg.spectrum.calls": self._stat("linalg.spectrum").calls,
            "linalg.mat_exp.calls": self._stat("linalg.mat_exp").calls,
            "linalg.frobenius_norm.calls": self._stat("linalg.frobenius_norm").calls,
            "linalg.identity.calls": self._stat("linalg.identity").calls,
            "calculus.chain.builds": self._stat("calculus.chain").calls,
            "calculus.chain.distinct_bases": len(self.distinct_bases),
            "calculus.product.calls": self._stat("calculus.product").calls,
            "calculus.product.extend_steps": self.extend_steps,
            "calculus.inverse.calls": self._stat("calculus.inverse").calls,
            "calculus.inverse.solve_steps": self.solve_steps,
            "calculus.gamma_limit.calls": self._stat("calculus.gamma_limit").calls,
            "series.evaluate.calls": evaluations,
            "series.terms": self.terms,
            "series.degrees.max": max(self.degrees, default=0),
            "series.not_converged": self.not_converged,
            "recursions.verify_identity.calls": verifications,
            "documents.bytes": self.document_bytes,
        }

    def ratios(self) -> dict[str, float]:
        builds = self._stat("calculus.chain").calls
        verifications = self._stat("recursions.verify_identity").calls
        return {
            "calculus.chain.reuse_ratio": len(self.distinct_bases) / builds if builds else 0.0,
            "series.degrees.mean": (
                sum(self.degrees) / len(self.degrees) if self.degrees else 0.0
            ),
            "recursions.evaluations_per_verification": (
                self._stat("series.evaluate").calls / verifications if verifications else 0.0
            ),
        }

    def self_times(self) -> dict[str, float]:
        """Self seconds per layer and per module."""
        out = {f"{name}.self_s": self._stat(name).self_s for name in SELF_TIMED}
        for module in MODULES:
            out[f"{module}.self_s"] = sum(
                stat.self_s for name, stat in self.stats.items() if name.startswith(module + ".")
            )
        return out
