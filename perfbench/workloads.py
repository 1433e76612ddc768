"""The three workloads: inputs from a seed, one timed pass, and the gates.

Every input is made here from the seed the benchmark is given; the program
only receives the generated matrices, points and documents.

* ``campaign`` is the ``hypermat verify`` path: ``run_campaign`` over the
  whole catalog and its report document, once for each order 1..3 and shift
  1..3 with one trial per identity, so a pass verifies every identity at
  every order and shift. The seed then moves only spectra and points: one
  campaign with randomly drawn orders and shifts swings by about 13 % in
  cost with how many identities happen to draw order 3 and shift 3.
* ``eval`` is the ``hypermat eval`` path, one op per document: JSON text is
  loaded, parsed, evaluated, rendered and dumped. The core mix is 5 kinds x
  orders {1, 2, 3, 5, 8, 16} x radius fractions {0.3, 0.5} with
  non-commuting parameters, plus edge probes at fractions 0.7 and 0.9 that
  are run once, untimed, and only feed the edge failure ratio.
* ``gamma`` is ``gamma_limit`` at orders {1, 2, 3, 5, 8} and
  n in {250, 1000} on members of random commuting families.
"""

from __future__ import annotations

import json
import math
import random
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from hostspeed import SteadyClock
from hypermat import __version__, calculus, documents, recursions, series
from hypermat.errors import HypermatError
from hypermat.series import EvalPoint, FunctionKind, ParameterSet

KINDS = tuple(FunctionKind)
EVAL_ORDERS = (1, 2, 3, 5, 8, 16)
EVAL_FRACTIONS = (0.3, 0.5)
EDGE_ORDERS = (1, 3, 8)
EDGE_FRACTIONS = (0.7, 0.9)
GAMMA_ORDERS = (1, 2, 3, 5, 8)
GAMMA_STEPS = (250, 1000)

CAMPAIGN_ORDERS = (1, 2, 3)
CAMPAIGN_SHIFTS = (1, 2, 3)

#: Correctness bounds the benchmark enforces. Order-1 evaluations run at
#: series tolerance 1e-12; the campaign threshold is the library default.
EVAL_REL_ERR_BOUND = 1e-10
GAMMA_REL_ERR_BOUND = 1e-5
CAMPAIGN_TOL = recursions.DEFAULT_CAMPAIGN_TOL

# Transforms of the non-commuting eval parameters are redrawn until their
# condition number is at most this, so that norms stay near the spectra.
_TRANSFORM_COND_MAX = 50.0
_GAMMA_COND_MAX = 100.0
_SPECTRUM_REAL = calculus.SPECTRUM_REAL_RANGE
_SPECTRUM_IMAG = calculus.SPECTRUM_IMAG_RANGE


def rng_for(seed: int, *tags) -> random.Random:
    """A generator fixed by the run seed and a tag path."""
    return random.Random("/".join(str(part) for part in (seed, *tags)))


# -- campaign ----------------------------------------------------------------


def campaign_seed(seed: int, index: int, order: int, shift: int) -> int:
    return rng_for(seed, "campaign", index, order, shift).randrange(2**31)


def campaign(pass_seed: int, order: int, shift: int) -> tuple[list, str]:
    """``hypermat verify --trials 1 --orders R --s S`` over the whole catalog."""
    reports = recursions.run_campaign(
        trials=1, orders=(order,), s_values=(shift,), seed=pass_seed
    )
    config_echo = {
        "ids": "all",
        "trials": 1,
        "orders": [order],
        "s_values": [shift],
        "seed": pass_seed,
        "campaign_tol": CAMPAIGN_TOL,
        "series_tol": series.DEFAULT_CONFIG.tol,
        "max_degree": series.DEFAULT_CONFIG.max_degree,
    }
    doc = documents.verification_reports_to_document(
        reports, config_echo, "hypermat", __version__
    )
    return reports, documents.dump_document(doc)


class VerifyTimer:
    """Times each call into ``recursions.verify_identity`` while installed."""

    def __init__(self, clock: SteadyClock):
        self.clock = clock
        self.samples: list[tuple[float, int, int]] = []
        self._original = None

    def __enter__(self):
        original = self._original = recursions.verify_identity
        clock, samples = self.clock, self.samples

        def timed(*args, **kwargs):
            report, sample = clock.time(lambda: original(*args, **kwargs))
            samples.append(sample)
            return report

        recursions.verify_identity = timed
        return self

    def __exit__(self, *exc):
        recursions.verify_identity = self._original
        return False


# -- eval --------------------------------------------------------------------


def _spectrum(rng: random.Random, order: int) -> np.ndarray:
    lo, hi = _SPECTRUM_REAL
    im_lo, im_hi = _SPECTRUM_IMAG
    return np.array(
        [complex(lo + (hi - lo) * rng.random(), im_lo + (im_hi - im_lo) * rng.random())
         for _ in range(order)]
    )


def _non_commuting_matrix(rng: random.Random, order: int) -> np.ndarray:
    """P diag(spectrum) P^-1 with its own random, well-conditioned P."""
    values = _spectrum(rng, order)
    while True:
        transform = np.eye(order) + np.array(
            [[complex(2 * rng.random() - 1, 2 * rng.random() - 1) for _ in range(order)]
             for _ in range(order)]
        ) / math.sqrt(order)
        if np.linalg.cond(transform) <= _TRANSFORM_COND_MAX:
            return transform @ np.diag(values) @ np.linalg.inv(transform)


def _polar(rng: random.Random, magnitude: float) -> complex:
    phase = 2.0 * math.pi * rng.random()
    return magnitude * complex(math.cos(phase), math.sin(phase))


def region_point(kind: FunctionKind, fraction: float, rng: random.Random) -> EvalPoint:
    """A point at random phases whose region gauge equals ``fraction``.

    The gauge is |x| for 2F1, max(|x|, |y|) for F1 and F3, |x| + |y| for F2
    and sqrt|x| + sqrt|y| for F4; each region is where the gauge is below 1.
    Magnitudes are fixed by the gauge, because the truncation degree, and so
    the cost, depends on them far more than on the phases.
    """
    if kind is FunctionKind.GAUSS_2F1:
        return EvalPoint(_polar(rng, fraction))
    if kind in (FunctionKind.APPELL_F1, FunctionKind.APPELL_F3):
        return EvalPoint(_polar(rng, fraction), _polar(rng, 0.75 * fraction))
    if kind is FunctionKind.APPELL_F2:
        return EvalPoint(_polar(rng, fraction / 2), _polar(rng, fraction / 2))
    return EvalPoint(_polar(rng, (fraction / 2) ** 2), _polar(rng, (fraction / 2) ** 2))


@dataclass(frozen=True)
class EvalCase:
    kind: FunctionKind
    order: int
    fraction: float
    text: str  # the evaluation document as JSON text
    params: ParameterSet
    point: EvalPoint

    @property
    def label(self) -> str:
        return f"{self.kind.value}/r{self.order}/f{self.fraction}"


def _eval_case(rng: random.Random, kind: FunctionKind, order: int, fraction: float) -> EvalCase:
    matrices = {name: _non_commuting_matrix(rng, order) for name in kind.parameter_names}
    point = region_point(kind, fraction, rng)
    params = ParameterSet(kind, matrices)
    data = documents.EvaluationInput(params, point, echo={})
    text = json.dumps(documents.evaluation_input_to_document(data))
    return EvalCase(kind, order, fraction, text, params, point)


def eval_cases(seed: int, index: int) -> list[EvalCase]:
    """The core mix of pass ``index``."""
    rng = rng_for(seed, "eval", index)
    return [
        _eval_case(rng, kind, order, fraction)
        for kind in KINDS
        for order in EVAL_ORDERS
        for fraction in EVAL_FRACTIONS
    ]


def edge_cases(seed: int) -> list[EvalCase]:
    rng = rng_for(seed, "edge")
    return [
        _eval_case(rng, kind, order, fraction)
        for kind in KINDS
        for order in EDGE_ORDERS
        for fraction in EDGE_FRACTIONS
    ]


def eval_op(text: str) -> tuple[series.EvalReport, str]:
    """One ``hypermat eval`` request: load, parse, evaluate, render, dump."""
    data = documents.parse_evaluation_document(json.loads(text))
    report = series.evaluate(data.params, data.point)
    doc = documents.eval_report_to_document(report, data, echo_input=False)
    return report, documents.dump_document(doc)


def run_edge_probes(cases: list[EvalCase]) -> list[str | None]:
    """Evaluate each probe once; the failure text, or None when it converged."""
    outcomes = []
    for case in cases:
        try:
            eval_op(case.text)
            outcomes.append(None)
        except HypermatError as exc:
            outcomes.append(f"{case.label}: {type(exc).__name__}: {exc}")
    return outcomes


def eval_references(cases: list[EvalCase]) -> list[complex]:
    """mpmath values of order-1 cases, whose parameters are scalars."""
    import mpmath

    mpmath.mp.dps = 30
    functions = {
        FunctionKind.GAUSS_2F1: mpmath.hyp2f1,
        FunctionKind.APPELL_F1: mpmath.appellf1,
        FunctionKind.APPELL_F2: mpmath.appellf2,
        FunctionKind.APPELL_F3: mpmath.appellf3,
        FunctionKind.APPELL_F4: mpmath.appellf4,
    }
    out = []
    for case in cases:
        args = [mpmath.mpc(complex(case.params[name][0, 0])) for name in case.kind.parameter_names]
        args.append(mpmath.mpc(case.point.x))
        if case.point.y is not None:
            args.append(mpmath.mpc(case.point.y))
        out.append(complex(functions[case.kind](*args)))
    return out


# -- gamma -------------------------------------------------------------------


@dataclass(frozen=True)
class GammaCase:
    order: int
    steps: int
    family: calculus.CommutingFamily
    matrix: np.ndarray


def gamma_cases(seed: int, index: int) -> list[GammaCase]:
    """The mix of pass ``index``.

    Families are redrawn until their transform is well conditioned:
    ``gamma_limit`` refuses ||ln(n) A|| > 600 in its matrix exponential by
    design, and an order-8 family from the generator can exceed that.
    """
    rng = rng_for(seed, "gamma", index)
    cases = []
    for order in GAMMA_ORDERS:
        for steps in GAMMA_STEPS:
            while True:
                family = calculus.random_commuting_family(order, ("A",), rng.randrange(2**31))
                if np.linalg.cond(family.transform) <= _GAMMA_COND_MAX:
                    break
            cases.append(GammaCase(order, steps, family, family.realize("A")))
    return cases


def gamma_references(cases: list[GammaCase]) -> list[tuple[np.ndarray, np.ndarray]]:
    """For each case, the lifted mpmath values of the finite-n formula and of Gamma.

    (n-1)! (A)_n^-1 n^A equals Gamma(n) Gamma(a) n^a / Gamma(a + n) on each
    eigenvalue a; Gamma(A) itself is the limit n -> infinity.
    """
    import mpmath

    mpmath.mp.dps = 30
    out = []
    for case in cases:
        n = case.steps
        finite, limit = [], []
        for value in case.family.spectra["A"]:
            a = mpmath.mpc(value)
            gamma_a = mpmath.gamma(a)
            finite.append(complex(mpmath.gamma(n) * gamma_a * mpmath.power(n, a) / mpmath.gamma(a + n)))
            limit.append(complex(gamma_a))
        out.append((_lift(case.family, finite), _lift(case.family, limit)))
    return out


def _lift(family: calculus.CommutingFamily, values: list[complex]) -> np.ndarray:
    return family.transform @ np.diag(values) @ family.transform_inverse


def gamma_op(case: GammaCase) -> np.ndarray:
    return calculus.gamma_limit(case.matrix, case.steps)


def relative_error(value, reference) -> float:
    return float(np.linalg.norm(np.asarray(value) - reference) / np.linalg.norm(reference))


# -- the workloads as the runner drives them -----------------------------------
#
# ``run_pass(index, out, clock, tracer)`` makes the inputs of pass ``index``
# untimed, runs them, checks every output into ``out`` and returns the
# ``SteadyClock`` samples that add up to the pass's time, and those of its
# ops. ``trace_pass`` is what a traced run repeats and returns the former.
# ``finish`` runs the once-per-run checks and notes the correctness figures.


class CampaignWorkload:
    metric_names = ("campaign_s", "verify_p50_ms", "verify_tail_ms")
    min_passes = 1
    tail_percent = 98
    plan = [(order, shift) for order in CAMPAIGN_ORDERS for shift in CAMPAIGN_SHIFTS]

    def __init__(self, seed: int):
        self.seed = seed
        self.texts: dict[tuple[int, int, int], str] = {}
        self.repeated = False
        self.worst_residual = 0.0

    def run_pass(self, index: int, out, clock: SteadyClock, tracer=None):
        parts = []
        timer = VerifyTimer(clock)
        for order, shift in self.plan:
            pass_seed = campaign_seed(self.seed, index, order, shift)
            with tracer.region("campaign") if tracer else timer:
                (reports, text), part = clock.time(campaign, pass_seed, order, shift)
            parts.append(part)
            self._check(reports, pass_seed, out)
            self._check_repeat((index, order, shift), text, out)
        return parts, timer.samples

    def trace_pass(self, out, clock: SteadyClock, tracer=None) -> list:
        return self.run_pass(0, out, clock, tracer)[0]

    def _check(self, reports, pass_seed: int, out) -> None:
        for report in reports:
            out.attempted += 1
            if report.error is None:
                self.worst_residual = max(self.worst_residual, report.residual)
            if not report.passed:
                out.failed += 1
                cause = report.error or f"residual {report.residual:.3e} > {CAMPAIGN_TOL:g}"
                out.problems.append(f"campaign seed {pass_seed}: {report.identity_id} failed: {cause}")

    def _check_repeat(self, key: tuple[int, int, int], text: str, out) -> None:
        if key not in self.texts:
            self.texts[key] = text
            return
        self.repeated = True
        if text != self.texts[key]:
            out.problems.append(f"campaign {key} repeated with different report bytes")

    def finish(self, out) -> None:
        if not self.repeated:
            order, shift = self.plan[0]
            _, text = campaign(campaign_seed(self.seed, 0, order, shift), order, shift)
            self._check_repeat((0, order, shift), text, out)
        out.note("verify_fail_ratio", out.failed / out.attempted, "ratio",
                 f"{out.failed} of {out.attempted} verifications")
        out.note("campaign_worst_residual", f"{self.worst_residual:.3e}", "1",
                 f"gate {CAMPAIGN_TOL:g}")


class EvalWorkload:
    metric_names = ("eval_pass_s", "eval_p50_ms", "eval_tail_ms")
    min_passes = 9
    tail_percent = 98

    def __init__(self, seed: int):
        self.seed = seed
        self.checked_values: list[tuple[EvalCase, complex]] = []
        self.checked_pass = False

    def run_pass(self, index: int, out, clock: SteadyClock, tracer=None):
        cases = eval_cases(self.seed, index)
        samples = []
        for case in cases:
            out.attempted += 1
            try:
                with tracer.region("eval.op") if tracer else nullcontext():
                    (report, _), sample = clock.time(eval_op, case.text)
            except HypermatError as exc:
                out.failed += 1
                out.problems.append(f"eval {case.label}: {type(exc).__name__}: {exc}")
                continue
            samples.append(sample)
            if not np.all(np.isfinite(report.value)):
                out.failed += 1
                out.problems.append(f"eval {case.label}: non-finite value")
            elif index == 0 and case.order == 1 and not self.checked_pass:
                self.checked_values.append((case, complex(report.value[0, 0])))
        self.checked_pass = True
        return samples, samples

    def trace_pass(self, out, clock: SteadyClock, tracer=None) -> list:
        """The core mix of pass 0, then the edge probes, as one traced unit."""
        parts = self.run_pass(0, out, clock, tracer)[0]
        with tracer.region("eval.edge") if tracer else nullcontext():
            _, edge = clock.time(run_edge_probes, edge_cases(self.seed))
        return parts + [edge]

    def finish(self, out) -> None:
        cases = [case for case, _ in self.checked_values]
        references = eval_references(cases)
        worst = max(relative_error(value, reference)
                    for (_, value), reference in zip(self.checked_values, references))
        if not worst <= EVAL_REL_ERR_BOUND:
            out.problems.append(f"eval_max_rel_err {worst:.3e} exceeds {EVAL_REL_ERR_BOUND:g}")
        edges = run_edge_probes(edge_cases(self.seed))
        failures = [outcome for outcome in edges if outcome is not None]
        out.note("eval_fail_ratio", out.failed / out.attempted, "ratio",
                 f"{out.failed} of {out.attempted} core ops")
        out.note("eval_edge_fail_ratio", round(len(failures) / len(edges), 4), "ratio",
                 f"{len(failures)} of {len(edges)} edge probes, not timed")
        out.note("eval_max_rel_err", f"{worst:.3e}", "1",
                 f"{len(cases)} order-1 ops against mpmath, gate {EVAL_REL_ERR_BOUND:g}")
        for failure in failures:
            out.notes.append(f"  edge {failure}")


class GammaWorkload:
    metric_names = ("gamma_pass_s", "gamma_p50_ms", "gamma_tail_ms")
    min_passes = 25
    tail_percent = 96

    def __init__(self, seed: int):
        self.seed = seed
        self.checked: list[tuple[GammaCase, np.ndarray]] = []
        self.checked_pass = False

    def run_pass(self, index: int, out, clock: SteadyClock, tracer=None):
        cases = gamma_cases(self.seed, index)
        samples = []
        for case in cases:
            out.attempted += 1
            try:
                with tracer.region("gamma.op") if tracer else nullcontext():
                    value, sample = clock.time(gamma_op, case)
            except HypermatError as exc:
                out.failed += 1
                out.problems.append(f"gamma r{case.order} n{case.steps}: {type(exc).__name__}: {exc}")
                continue
            samples.append(sample)
            if not np.all(np.isfinite(value)):
                out.failed += 1
                out.problems.append(f"gamma r{case.order} n{case.steps}: non-finite value")
            elif index == 0 and not self.checked_pass:
                self.checked.append((case, value))
        self.checked_pass = True
        return samples, samples

    def trace_pass(self, out, clock: SteadyClock, tracer=None) -> list:
        return self.run_pass(0, out, clock, tracer)[0]

    def finish(self, out) -> None:
        cases = [case for case, _ in self.checked]
        references = gamma_references(cases)
        worst = max(relative_error(value, finite)
                    for (_, value), (finite, _) in zip(self.checked, references))
        gap = max(relative_error(value, limit)
                  for (_, value), (_, limit) in zip(self.checked, references))
        if not worst <= GAMMA_REL_ERR_BOUND:
            out.problems.append(f"gamma_max_rel_err {worst:.3e} exceeds {GAMMA_REL_ERR_BOUND:g}")
        out.note("gamma_max_rel_err", f"{worst:.3e}", "1",
                 f"{len(cases)} calls against (n-1)! n^a / (a)_n by mpmath.gamma, lifted; "
                 f"gate {GAMMA_REL_ERR_BOUND:g}")
        out.note("gamma_limit_gap", f"{gap:.3e}", "1", "the same calls against Gamma(A) itself")


WORKLOADS = {"campaign": CampaignWorkload, "eval": EvalWorkload, "gamma": GammaWorkload}
