"""Static moment analysis of hybrid circuits.

The analyzer propagates phase-space support windows and worst-case
squeezing/displacement parameters through a circuit without simulating it:

* a :class:`MomentWindowMap` is an entrywise-affine map on window tuples
  ``(R1, R2, Rhat1, Rhat2)`` (position window ``[R1, R2]``, momentum window
  ``[Rhat1, Rhat2]``) such that conjugating the corresponding spectral
  projectors by the gate stays below the projector of the mapped window;
* ``circuit_params`` computes, per mode, the worst consecutive-subproduct
  squeezing ``g_bar`` and the displacement total ``xi_bar``;
* ``energy_upper_bound`` turns these into the circuit-level energy bound
  ``168 * g_bar^6 * (2 + xi_bar^3)``, valid for every prefix of the circuit
  applied to vacuum (x) |0...0>;
* ``substitute_bounded_strength`` rewrites large displacements exactly into
  strength-<=1 displacements conjugated by strength-<=2 squeezers.

``g_bar`` is computed in O(T): over elementary gates, the maximal
``g(prod eta)`` over consecutive subproducts equals ``exp2`` of the range of
prefix log2-eta sums.  Blackbox nodes enter as opaque subcircuit factors whose
prefix/suffix products are only known to lie within ``[1/g_bar, g_bar]``; the
scan widens the reachable start/end levels accordingly (this reproduces the
subcircuit composition bound, and is exact for elementary-only circuits).

Which gates act on a mode is decided once, by :func:`circuit.mode_gates`: one
pass files each gate under its :func:`circuit.target_modes`.  The per-mode
scans here and in ``simulator.auto_grid`` walk only their mode's gates, so all
modes together cost O(T + m), not O(T m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .circuit import KINDS, Circuit, CircuitError, Gate, gate_params, mode_gates, squeeze, target_modes

LOG2_168 = math.log2(168.0)


class AnalysisError(ValueError):
    """Raised for analysis queries that are undefined (e.g. windows of blackboxes)."""


def ceil_log2(x: float) -> int:
    """ceil(log2 x) with a 1e-12 relative guard so exact powers of two are exact."""
    if x <= 0:
        raise ValueError("ceil_log2 requires x > 0")
    v = math.log2(x)
    return math.ceil(v - 1e-12 * max(1.0, abs(v)))


def exp2_or_inf(x: float) -> float:
    """2^x, or inf where it overflows a double."""
    return 2.0 ** x if x < 1024 else math.inf


def g_of(x: float) -> float:
    """g(x) = max(x, 1/x) for x > 0."""
    return max(x, 1.0 / x)


Window = tuple[float, float, float, float]


@dataclass(frozen=True)
class MomentWindowMap:
    """Entrywise affine map ``R_i -> a_i * R_i + b_i`` on window 4-tuples."""

    a: tuple[float, float, float, float]
    b: tuple[float, float, float, float]

    def __post_init__(self):
        if any(ai == 0 for ai in self.a):
            raise AnalysisError("moment window maps must be entrywise invertible")

    def __call__(self, window: Window) -> Window:
        return tuple(ai * w + bi for ai, w, bi in zip(self.a, window, self.b))


IDENTITY_MAP = MomentWindowMap(a=(1.0, 1.0, 1.0, 1.0), b=(0.0, 0.0, 0.0, 0.0))


def compose_mlf(outer: MomentWindowMap, inner: MomentWindowMap) -> MomentWindowMap:
    """Entrywise affine composition outer o inner (map for the product U2 U1)."""
    a = tuple(ao * ai for ao, ai in zip(outer.a, inner.a))
    b = tuple(ao * bi + bo for ao, bi, bo in zip(outer.a, inner.b, outer.b))
    return MomentWindowMap(a=a, b=b)


def chi_map(eta: float, xi: float) -> MomentWindowMap:
    """The generic dominating map (eta R1 - xi, eta R2 + xi, R^/eta -+ xi)."""
    return MomentWindowMap(
        a=(eta, eta, 1.0 / eta, 1.0 / eta), b=(-xi, xi, -xi, xi)
    )


def generator_mlf(g: Gate) -> MomentWindowMap:
    """The exact per-kind window map for an elementary gate.

    Blackbox nodes fall back to the chi form built from their declared
    parameters; their internal windows are unknown, so circuit-level window
    composition rejects them (see :func:`circuit_window_trajectory`).
    """
    spec = KINDS.get(g.kind)
    if spec is not None and spec.shifts:
        # a controlled shift moves the control-1 branch only: the window
        # becomes the hull of the unmoved and the moved branch supports
        lo, hi = (min(0.0, g.t), max(0.0, g.t)) if spec.controlled else (g.t, g.t)
        b = (lo, hi, 0, 0) if spec.shifts == "x" else (0, 0, lo, hi)
        return MomentWindowMap(a=(1, 1, 1, 1), b=b)
    if g.kind == "squeeze":
        al = g.alpha
        return MomentWindowMap(a=(al, al, 1 / al, 1 / al), b=(0, 0, 0, 0))
    if g.kind == "qubit_gate":
        return IDENTITY_MAP
    if g.kind == "blackbox":
        return chi_map(g.eta, g.xi_bar)
    raise AnalysisError(f"no window map for gate kind {g.kind!r}")


# Probe windows of ``dominates``.
PROBE_WINDOWS = (
    (-5.0, 5.0, -5.0, 5.0),
    (-1.0, 2.0, -3.0, 0.5),
    (0.0, 10.0, -10.0, 0.0),
)


def dominates(phi: MomentWindowMap, chi: MomentWindowMap) -> bool:
    """True if the chi-window contains the phi-window for every probe window."""
    for w in PROBE_WINDOWS:
        pw, cw = phi(w), chi(w)
        if not (
            cw[0] <= pw[0] + 1e-12
            and pw[1] <= cw[1] + 1e-12
            and cw[2] <= pw[2] + 1e-12
            and pw[3] <= cw[3] + 1e-12
        ):
            return False
    return True


# -- circuit parameters --------------------------------------------------------


@dataclass(frozen=True)
class ModeMomentParams:
    """Per-mode analysis results.

    ``xi`` / ``xi_hat`` are the composed forward/backward window offsets; they
    are ``None`` when the mode's gate sequence contains blackbox nodes (their
    internal window behaviour is undeclared).
    """

    g_bar: float
    log2_g_bar: float
    xi_bar: float
    eta: float
    xi: float | None
    xi_hat: float | None


@dataclass(frozen=True)
class CircuitMomentParams:
    per_mode: tuple[ModeMomentParams, ...]
    g_bar_max: float
    log2_g_bar_max: float
    xi_bar_max: float


def _scan_mode(gates) -> ModeMomentParams:
    """One left-to-right pass over a mode's gates: g_bar, xi_bar, net eta and offsets."""
    best = 0.0  # max |log2| over consecutive subproducts
    s = 0.0  # prefix sum of log2 eta
    lo = hi = 0.0  # reachable start levels seen so far
    xi_bar = 0.0
    has_blackbox = False
    v_fwd = 0.0  # composed forward offset:  v -> eta*v + xi
    v_bwd = 0.0  # composed backward offset: v -> v/eta + xi
    for g in gates:
        p = gate_params(g)
        log2_eta, xi = math.log2(p.eta), p.xi
        excursion = math.log2(g.g_bar) if g.kind == "blackbox" else None
        if excursion is not None:
            has_blackbox = True
            # subproducts ending inside this node: end level in s -+ excursion
            best = max(best, (s + excursion) - lo, hi - (s - excursion), excursion)
        s += log2_eta
        best = max(best, s - lo, hi - s)
        lo = min(lo, s)
        hi = max(hi, s)
        if excursion is not None:
            # subproducts starting inside this node
            lo = min(lo, s - excursion)
            hi = max(hi, s + excursion)
        xi_bar += xi
        eta_g = 2.0 ** log2_eta
        v_fwd = eta_g * v_fwd + xi
        v_bwd = v_bwd / eta_g + xi
    return ModeMomentParams(
        g_bar=exp2_or_inf(best),
        log2_g_bar=best,
        xi_bar=xi_bar,
        eta=exp2_or_inf(s),
        xi=None if has_blackbox else v_fwd,
        xi_hat=None if has_blackbox else v_bwd,
    )


def circuit_params(c: Circuit) -> CircuitMomentParams:
    """Per-mode (g_bar, xi_bar, eta, xi, xi_hat) and the circuit-level maxima."""
    return _with_maxima(tuple(_scan_mode(gates) for gates in mode_gates(c)))


def _with_maxima(per_mode: tuple[ModeMomentParams, ...]) -> CircuitMomentParams:
    """Circuit-level parameters: the per-mode maxima of ``g_bar`` and ``xi_bar``."""
    if per_mode:
        log2_max = max(p.log2_g_bar for p in per_mode)
        xi_max = max(p.xi_bar for p in per_mode)
    else:
        log2_max, xi_max = 0.0, 0.0
    return CircuitMomentParams(
        per_mode=per_mode,
        g_bar_max=exp2_or_inf(log2_max),
        log2_g_bar_max=log2_max,
        xi_bar_max=xi_max,
    )


def g_bar_brute_force(c: Circuit, alpha: int = 0) -> float:
    """O(T^2) reference: enumerate all consecutive eta subproducts."""
    etas = [gate_params(g).eta for g in mode_gates(c)[alpha]]
    if any(g.kind == "blackbox" for g in c.gates):
        raise AnalysisError("brute-force g_bar is defined for elementary circuits")
    best = 1.0
    for i in range(len(etas)):
        prod = 1.0
        for j in range(i, len(etas)):
            prod *= etas[j]
            best = max(best, g_of(prod))
    return best


# -- energy bound ----------------------------------------------------------------


def _p0(x: float, xi: float) -> float:
    return 4.0 + 20.0 * xi * x + 36.0 * (xi * x) ** 2 + 20.0 * (xi * x) ** 3


def _p1(x: float, xi: float) -> float:
    return 8.0 * (xi ** 2 * x ** 3 + xi * x ** 2)


def _p2(x: float, xi: float) -> float:
    return 4.0 * (xi * x ** 3 + x ** 2)


def _or_inf(poly, x: float, xi: float) -> float:
    """``poly(x, xi)``, or inf where one of its powers overflows a double."""
    try:
        return poly(x, xi)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class EnergyBoundDetail:
    """Energy bound evaluation.

    ``bound`` is the headline ``168 g_bar^6 (2 + xi_bar^3)``; ``u + v`` is the
    tighter multiplication-operator evaluation at ``(q, s) = (g_bar,
    g_bar*xi_bar)``, and ``c0, c1, c2`` are the position-side quadratic
    coefficients at those arguments.  ``log2_bound`` is always finite even
    when the linear value overflows.
    """

    c0: float
    c1: float
    c2: float
    u: float
    v: float
    bound: float
    log2_bound: float


def _log2_two_plus_cube(x: float) -> float:
    """log2(2 + x^3), safe for huge x."""
    if x <= 0:
        return 1.0
    l = 3.0 * math.log2(x)
    if l > 60:
        return l + math.log2(1.0 + 2.0 * 2.0 ** (-l))
    return math.log2(2.0 + x ** 3)


def energy_upper_bound(p: CircuitMomentParams) -> EnergyBoundDetail:
    """Per-mode energy upper bound for every prefix of the circuit on vacuum."""
    q = p.g_bar_max
    log2_q = p.log2_g_bar_max
    xi = p.xi_bar_max
    log2_bound = LOG2_168 + 6.0 * log2_q + _log2_two_plus_cube(xi)
    if log2_bound < 1000:
        bound = 168.0 * q ** 6 * (2.0 + xi ** 3)
    else:
        bound = math.inf
    s = q * xi if math.isfinite(q) else math.inf
    inv_q = 2.0 ** (-log2_q)
    if math.isfinite(s) and math.isfinite(q):
        u = _or_inf(_p0, q, s) + _or_inf(_p0, inv_q, s)
        v = _or_inf(_p2, q, s) + _or_inf(_p2, inv_q, s)
        c0, c1, c2 = _or_inf(_p0, inv_q, s), _or_inf(_p1, inv_q, s), _or_inf(_p2, inv_q, s)
    else:
        u = v = c0 = c1 = c2 = math.inf
    return EnergyBoundDetail(
        c0=c0, c1=c1, c2=c2, u=u, v=v, bound=bound, log2_bound=log2_bound
    )


def analysis_report(c: Circuit) -> dict:
    """JSON-ready analysis report (per-mode parameters plus the energy bound)."""
    params = circuit_params(c)
    energy = energy_upper_bound(params)
    return {
        "per_mode": [
            {
                "g_bar": p.g_bar,
                "log2_g_bar": p.log2_g_bar,
                "xi_bar": p.xi_bar,
                "eta": p.eta,
                "xi": p.xi,
                "xi_hat": p.xi_hat,
            }
            for p in params.per_mode
        ],
        "g_bar_max": params.g_bar_max,
        "xi_bar_max": params.xi_bar_max,
        "energy_upper_bound": energy.bound,
        "log2_energy_upper_bound": energy.log2_bound,
    }


# -- window composition ----------------------------------------------------------


def require_elementary(c: Circuit) -> None:
    """Raise ``AnalysisError`` naming the first blackbox, whose windows are undeclared."""
    for i, g in enumerate(c.gates, start=1):
        if g.kind == "blackbox":
            raise AnalysisError(
                f"window composition rejects blackbox nodes (gate {i}): "
                "their internal windows are undeclared"
            )


def circuit_window_trajectory(c: Circuit, init: Window) -> list[list[Window]]:
    """Windows per mode after every prefix (entry 0 is ``init`` on every mode)."""
    require_elementary(c)
    windows = [init] * c.m
    out = [list(windows)]
    for g in c.gates:
        windows = list(windows)
        for a in target_modes(g):
            windows[a] = generator_mlf(g)(windows[a])
        out.append(windows)
    return out


# -- bounded-strength substitution -------------------------------------------------


@dataclass(frozen=True)
class SubstitutionPlan:
    """Decomposition parameters for one large displacement: beta^n_reps = |t|."""

    beta: float
    n_reps: int
    sign: int

    def __post_init__(self):
        if not (1.0 < self.beta <= 2.0):
            raise ValueError("substitution requires beta in (1, 2]")


def substitution_plan(t: float) -> SubstitutionPlan:
    if abs(t) <= 1.0:
        raise ValueError("substitution applies only to displacements with |t| > 1")
    n = ceil_log2(abs(t))
    beta = 2.0 ** (math.log2(abs(t)) / n)
    return SubstitutionPlan(beta=beta, n_reps=n, sign=1 if t > 0 else -1)


def substitute_bounded_strength(c: Circuit) -> Circuit:
    """Rewrite every displacement with |t| > 1 into 2n+1 bounded-strength gates.

    ``e^{itQ} = (M_beta^dag)^n e^{i sgn(t) Q} (M_beta)^n`` and
    ``e^{-itP} = (M_beta)^n e^{-i sgn(t) P} (M_beta^dag)^n`` with
    ``beta = 2^{log2|t| / ceil(log2|t|)}``; the unitary action is preserved
    exactly.  Squeeze gates must already have alpha in (1/2, 2).
    """
    out: list[Gate] = []
    for i, g in enumerate(c.gates, start=1):
        if g.kind == "squeeze" and not (0.5 < g.alpha < 2.0):
            raise CircuitError(
                f"substitution is displacement-only; squeeze with alpha={g.alpha} "
                f"outside (1/2, 2) at gate {i}",
                i,
            )
        shifts = KINDS[g.kind].shifts
        if not shifts or abs(g.t) <= 1.0:
            out.append(g)
            continue
        plan = substitution_plan(g.t)
        beta, n = plan.beta, plan.n_reps
        pre, post = (beta, 1.0 / beta) if shifts == "p" else (1.0 / beta, beta)
        out.extend([squeeze(g.mode, pre)] * n)
        out.append(replace(g, t=float(plan.sign)))
        out.extend([squeeze(g.mode, post)] * n)
    return Circuit(m=c.m, r=c.r, gates=tuple(out))


# -- dressed circuits ---------------------------------------------------------------


def dressed_params(subcircuits) -> CircuitMomentParams:
    """Parameters of ``prod_a (U_a)^dag V_a U_a`` with qubit-only ``V_a``.

    Per mode: ``xi_bar = 2 * sum_a xi_bar(U_a)`` (exact) and
    ``g_bar <= (max_a g_bar(U_a))^2``.
    """
    m = 0
    for u, v in subcircuits:
        if v.kind != "qubit_gate":
            raise AnalysisError("dressed circuits require qubit-only inner gates")
        m = max(m, u.m)
    scans = [circuit_params(u).per_mode for u, _v in subcircuits]
    per_mode = []
    for a in range(m):
        xi_bar = 0.0
        log2_g = 0.0
        for p in (scan[a] for scan in scans if a < len(scan)):
            xi_bar += 2.0 * p.xi_bar
            log2_g = max(log2_g, 2.0 * p.log2_g_bar)
        per_mode.append(
            ModeMomentParams(
                g_bar=exp2_or_inf(log2_g),
                log2_g_bar=log2_g,
                xi_bar=xi_bar,
                eta=1.0,  # net squeezing cancels in U^dag V U
                xi=None,
                xi_hat=None,
            )
        )
    return _with_maxima(tuple(per_mode))
