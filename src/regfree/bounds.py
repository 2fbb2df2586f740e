"""Line-by-line numeric replay of the displayed inequality chains, for
e < n < inf: regime is the paper's sizing |B_i| = n^(1-20^i*eps) in log
space, and read_log_n reads n for the replays.

Everything is evaluated in log-space with mpmath at a configurable
precision (REGFREE_PRECISION env var, default 50 significant digits, at
least 20): the asymptotic regime involves quantities like n = e^(e^40)
whose layer sizes have ~10^17 digits, so fixed-width floats are hopeless
but natural logs are tame.  A chain value of -inf encodes an exactly-zero
quantity (e.g. a binomial count that vanishes).

No asymptotics are asserted anywhere: each step is an instance inequality
between two numbers, reported as it comes out.  Every report is evaluated
a second time at double precision; a verdict that flips is an error.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Optional

import mpmath as mp

NEG_INF = mp.mpf("-inf")


class DomainError(ValueError):
    pass


class PrecisionError(ArithmeticError):
    """A step verdict flipped when re-evaluated at double precision."""


def default_dps() -> int:
    text = os.environ.get("REGFREE_PRECISION", "50")
    try:
        return int(text)
    except ValueError:
        raise DomainError(
            f"REGFREE_PRECISION must be an integer, got {text!r}"
        ) from None


def parse_real(expr: str) -> mp.mpf:
    """Parse 'e^e^40'-style tower notation ('^' right-associative, base 'e'
    or a number) or a plain numeric literal; its value must be a finite
    real.  A leading minus binds as in Python's **: -2^2 is -4 and e^-2^2
    is e^-4, while (-2)^2 is 4.  Parentheses may only stand where dropping
    them keeps the value: around a single term, as in (-2)^0.5, or around a
    part that runs to the end of the text, as in e^(e^40)."""
    parts = expr.strip().split("^")
    # the '(' before and ')' after each term: before the last term a ')'
    # closes only a '(' of its own term, and the last term closes the rest
    parens = [(len(p) - len(p.lstrip("(")), len(p) - len(p.rstrip(")"))) for p in parts]
    if any(c > o for o, c in parens[:-1]) or sum(o - c for o, c in parens):
        raise DomainError(f"misplaced parentheses in {expr!r}")
    terms, signs = [], []
    try:
        for p, (_, c) in zip(parts, parens):
            t = p.lstrip("(").rstrip(")")
            # signs that no ')' of the term's own encloses apply to the term
            # raised to everything on its right
            body = t if c else t.lstrip("+-")
            minuses = t[: len(t) - len(body)].count("-")
            signs.append(-1 if minuses % 2 else 1)
            terms.append(mp.e if body == "e" else mp.mpf(body))
    except ValueError:
        raise DomainError(f"cannot read {expr!r} as a real number") from None
    val = signs[-1] * terms[-1]
    try:
        for base, sign in zip(reversed(terms[:-1]), reversed(signs[:-1])):
            val = sign * mp.power(base, val)
    except MemoryError:  # mpmath refuses the exponent up front
        raise DomainError(f"{expr!r} is too large to evaluate") from None
    if isinstance(val, mp.mpc) or not mp.isfinite(val):
        raise DomainError(f"{expr!r} is not a finite real number")
    return val


def _check_log_n(log_n) -> None:
    """The replays' domain e < n < inf, stated on log n."""
    if not 1 < mp.mpf(log_n) < mp.inf:
        raise DomainError("need e < n < inf, i.e. 1 < log n < inf")


def read_log_n(expr: str) -> mp.mpf:
    """log n for n written as parse_real reads it, at the re-check's
    precision 2 * default_dps(), so each replay pass rounds it to its own."""
    with mp.workdps(2 * default_dps()):
        log_n = mp.log(max(parse_real(expr), 0))  # log 0 = -inf: out of domain
    _check_log_n(log_n)
    return log_n


@dataclass(frozen=True)
class PaperRegime:
    """Log-space view of the asymptotic parameterization (sizes as logs,
    since the integers themselves are astronomically large).  Every field
    carries the working precision it was computed at."""

    log_n: mp.mpf
    epsilon: mp.mpf
    c_real: mp.mpf  # log log n / 10, before the floor
    num_layers: int
    log_layer_sizes: tuple = field(init=False)  # logs of the real |B_1|..|B_C|

    def __post_init__(self):
        logs = tuple(self.log_layer_size(i) for i in range(1, self.num_layers + 1))
        object.__setattr__(self, "log_layer_sizes", logs)

    def log_layer_size(self, i: int) -> mp.mpf:
        """log|B_i| = (1 - 20^i * epsilon) * log n, for any i >= 1."""
        return (1 - mp.power(20, i) * self.epsilon) * self.log_n


def regime(log_n) -> PaperRegime:
    """epsilon = 1/sqrt(log n), C = floor(log log n / 10) and log|B_i|, at the
    caller's working precision, for log n > 1 (the replay checks it first).
    C may be < 1 here; each replay checks the range it needs."""
    log_n = mp.mpf(log_n)
    eps = 1 / mp.sqrt(log_n)
    c_real = mp.log(log_n) / 10
    # snap float round-off below an integer boundary (e.g. log n given as a
    # 53-bit approximation of e^10)
    c = int(mp.floor(c_real * (1 + mp.mpf("1e-12"))))
    return PaperRegime(log_n, eps, c_real, c)


@dataclass(frozen=True)
class ChainStep:
    label: str
    left: mp.mpf   # natural log of the displayed quantity
    right: mp.mpf
    holds: bool
    is_identity: bool = False


@dataclass(frozen=True)
class ChainReport:
    steps: tuple[ChainStep, ...]
    first_failure: Optional[int]
    dps: int

    @property
    def all_hold(self) -> bool:
        return self.first_failure is None


def _tol(left, right):
    scale = max(1, abs(left) if mp.isfinite(left) else 1,
                abs(right) if mp.isfinite(right) else 1)
    return scale * mp.mpf(10) ** (-(mp.mp.dps - 10))


def _step(label, left, right, identity=False) -> ChainStep:
    left, right = mp.mpf(left), mp.mpf(right)
    if identity:
        holds = abs(left - right) <= _tol(left, right)
    else:
        holds = left <= right + _tol(left, right)
    return ChainStep(label, left, right, holds, identity)


def _report(steps, dps) -> ChainReport:
    first = next((i for i, s in enumerate(steps) if not s.holds), None)
    return ChainReport(tuple(steps), first, dps)


def _step_verdicts(rep: ChainReport) -> list[bool]:
    return [s.holds for s in rep.steps]


def _replay(log_n, dps: Optional[int], build, verdicts=_step_verdicts):
    """Check the domain, then build(regime(log_n), d) at d = dps and at
    d = 2*dps digits; PrecisionError if the two sets of verdicts differ."""
    dps = default_dps() if dps is None else dps
    if dps < 20:  # _tol sits 10 digits below dps and would pass every step
        raise DomainError(f"need a precision of at least 20 digits, got {dps}")
    _check_log_n(log_n)
    reps = []
    for d in (dps, 2 * dps):
        with mp.workdps(d):
            reps.append(build(regime(log_n), d))
    if verdicts(reps[0]) != verdicts(reps[1]):
        raise PrecisionError("verdicts changed at double precision")
    return reps[0]


def _log_binom_real(y, m: int):
    """log of the falling-factorial binomial y(y-1)...(y-m+1)/m!; -inf when
    the count is zero or the product nonpositive."""
    total = mp.mpf(0)
    for t in range(m):
        f = y - t
        if f <= 0:
            return NEG_INF
        total += mp.log(f)
    return total - mp.loggamma(m + 1)


def reg_chain(*, log_n, i: int, x: int, dps: Optional[int] = None) -> ChainReport:
    """Replay the regular-subgraph probability chain for event index i and
    subgraph size x (log-space values of the seven displayed expressions)."""

    def build(reg, dps):
        if x < 1:
            raise DomainError("x must be >= 1")
        ln, eps = reg.log_n, reg.epsilon
        if not (2 <= i <= reg.num_layers + 1):
            raise DomainError(f"need 2 <= i <= C+1 = {reg.num_layers + 1}")
        log_b_prev = reg.log_layer_size(i - 1)
        log_b_i = reg.log_layer_size(i)
        m = -((-11 * x) // 10)  # ceil(1.1 x), exact
        xm = mp.mpf(x)
        l1 = (
            _log_binom_real(mp.exp(ln), x)
            + _log_binom_real(xm**2 / 2, m)
            - m * log_b_prev
        )
        l2 = x * (1 + ln - mp.log(xm)) + m * (
            1 + mp.log(xm**2 / 2) - log_b_prev - mp.log(m)
        )
        l3 = x * (1 + ln - mp.log(xm)) + (mp.mpf(11) / 10) * x * (
            1 + mp.log(xm) - log_b_prev
        )
        l4 = x * (mp.log(10) + ln + mp.log(xm) / 10 - (mp.mpf(11) / 10) * log_b_prev)
        l5 = x * (mp.log(100) + ln + log_b_i / 10 - (mp.mpf(11) / 10) * log_b_prev)
        l6 = x * (mp.log(100) - (mp.mpf(9) / 10) * mp.power(20, i - 1) * eps * ln)
        l7 = -x * mp.sqrt(ln) / 2
        return _report([
            _step("binomials_vs_entropy", l1, l2),
            _step("drop_ceiling", l2, l3),
            _step("collect_constants", l3, l4),
            _step("x_at_most_1000Bi", l4, l5),
            _step("layer_size_identity", l5, l6, identity=True),
            _step("exponent_vs_half_sqrt_logn", l6, l7),
        ], dps)

    return _replay(log_n, dps, build)


def frac_chain(*, log_n, i: int, p_i, dps: Optional[int] = None) -> ChainReport:
    """Replay the independent-set probability chain for layer i and layer-i
    occupancy fraction p_i.

    The tail occupancies p_j (j > i) of a hypothetical independent set are
    not free parameters of the replay; their aggregate enters the chain at
    the documented boundary value 8 log C, and the elementwise inequality
    (1-t) <= e^{-t} behind the product bound is replayed at t = p_i."""

    def build(reg, dps):
        c_real = reg.c_real
        if c_real <= 1:
            raise DomainError("need C > 1 so log C > 0")
        if not (1 <= i <= reg.num_layers):
            raise DomainError(f"need 1 <= i <= C = {reg.num_layers}")
        p = mp.mpf(p_i)
        log_c = mp.log(c_real)
        lo = log_c / c_real
        # fixed snap window so float inputs sitting on the boundary are
        # accepted identically at every working precision; NaN is outside
        if not lo * (1 - mp.mpf("1e-12")) <= p <= 1:
            raise DomainError("need (log C)/C <= p_i <= 1")
        p = max(p, lo)
        b_i = mp.exp(reg.log_layer_sizes[i - 1])
        tail = mp.fsum(mp.exp(log_b) for log_b in reg.log_layer_sizes[i:])
        small = mp.exp(-5 * mp.sqrt(reg.log_n))
        log_inv_p = -mp.log(p)
        s0_left = p * b_i * mp.log(1 - p)  # mp.log(0) is -inf at p = 1
        s0_right = -p * p * b_i
        v0 = (
            -8 * p * b_i * log_c
            + (1 + log_inv_p) * p * b_i
            + tail * mp.log(2)
        )
        v1 = b_i * (-8 * p * log_c + p * (1 + log_inv_p) + small)
        v2 = b_i * (-8 * p * log_c + 2 * p * log_c + small)
        v3 = -b_i * (6 * log_c**2 / c_real - small)
        return _report([
            _step("one_minus_t_vs_exp_at_p_i", s0_left, s0_right),
            _step("counting_and_tail_sizes", v0, v1),
            _step("entropy_vs_2logC", v1, v2),
            _step("p_i_at_least_logC_over_C", v2, v3),
            _step("side_tail_sizes", tail, b_i * small),
            _step("side_entropy", 1 + log_inv_p, 2 * log_c),
        ], dps)

    return _replay(log_n, dps, build)


@dataclass(frozen=True)
class UnionBoundsReport:
    r: mp.mpf                 # e^{-sqrt(log n)/2}
    geometric_closed: mp.mpf  # r / (1 - r)
    geometric_partial: mp.mpf
    doubling_bound: mp.mpf    # 2r
    closure_holds: bool       # r <= 1/2 and closed form <= 2r
    partial_matches: bool
    per_layer: tuple          # (i, lhs_log, rhs_log, holds)
    dps: int

    @property
    def all_hold(self) -> bool:
        return self.closure_holds and self.partial_matches and all(
            h for (_, _, _, h) in self.per_layer
        )


def union_bounds(*, log_n, dps: Optional[int] = None) -> UnionBoundsReport:
    """Close the two union bounds: the geometric sum over subgraph sizes and
    the per-layer comparison |B_i| e^{-D |B_i|} <= e^{-sqrt(n)}."""

    def build(reg, dps):
        ln, c_real = reg.log_n, reg.c_real
        if c_real <= 1:
            raise DomainError("need C > 1 so log C > 0")
        r = mp.exp(-mp.sqrt(ln) / 2)
        closed = r / (1 - r)
        partial = mp.mpf(0)
        term = r
        while term > abs(closed) * mp.mpf(10) ** (-(mp.mp.dps + 5)):
            partial += term
            term *= r
        closure = (r <= mp.mpf(1) / 2) and (closed <= 2 * r + _tol(closed, 2 * r))
        matches = abs(partial - closed) <= abs(closed) * mp.mpf(10) ** (
            -(mp.mp.dps - 10)
        )
        log_c = mp.log(c_real)
        small = mp.exp(-5 * mp.sqrt(ln))
        d = 6 * log_c**2 / c_real - small
        per_layer = []
        sqrt_n = mp.exp(ln / 2)
        for i, log_b in enumerate(reg.log_layer_sizes, start=1):
            lhs = log_b - d * mp.exp(log_b)
            rhs = -sqrt_n
            per_layer.append((i, lhs, rhs, bool(lhs <= rhs + _tol(lhs, rhs))))
        return UnionBoundsReport(
            r, closed, partial, 2 * r, closure, matches, tuple(per_layer), dps
        )

    def verdicts(rep):
        return rep.closure_holds, rep.partial_matches, [h for *_, h in rep.per_layer]

    return _replay(log_n, dps, build, verdicts)
