"""The suite's independent high-precision reference for the round model.

Everything here is mpmath at the caller's working precision, and nothing is
imported from hkcce, so a test that compares the package with this module
compares it with a second derivation, not with itself.

    u(tau) = 2F1(a, b; c; -sinh^2 tau),  a = s/2, b = (n-s)/2, c = (n+1)/2

is the regular radial solution (DLMF 15.2.1) and u' its tau derivative.  Up
to `switch_tau(n)` both come from mpmath's own 2F1, u' through the contiguous
2F1(a+1, b+1; c+1).  From there on, where mpmath would redo the 1/z
transformation and its Gamma factors at every point, they are summed through
that connection (DLMF 15.8.2; a - b = gamma is not an integer):

    u = sum over (p, q, r) of P x^{-p} 2F1(p, q; r; -1/x),   x = sinh^2 tau,
    (p, q, r) = (a, a-c+1, a-b+1) and (b, b-c+1, b-a+1),
    P = Gamma(c) Gamma(b-a)/(Gamma(b) Gamma(c-a)) and Gamma(c) Gamma(a-b)/(Gamma(a) Gamma(c-b)),

with the prefactors formed once per (n, s, precision).  Term by term,
d/dtau [x^{-p} 2F1(p, q; r; -1/x)] = -2 coth(tau) p x^{-p} 2F1(p+1, q; r; -1/x).
The two terms cancel by about 0.43 n / sinh(tau) digits (37 at n = 190,
tau = 1.5), so each pass is summed with guard digits and repeated with more
where the cancellation it measures leaves fewer than 3 of them.  The second
prefactor is c1 at k = 1: r^{s-n} u tends to it as tau -> infinity.

The boundary branches are 2F1 too (`branch`, and their coefficients in
closed form, `branch_coefficients`), and at gamma = 1/2 u itself
(`half_series`), the geometry's state (`half_state`) and the main integrals
of both identities are elementary (`adapted_main_half`, `lee_main`).
"""

import functools
import math

import mpmath as mp

_GUARDS = (10, 20, 40, 80)  # guard digits of successive passes of the connection


@functools.cache
def _branches(n, s, dps):
    """((P, p, q, r), (P, p, q, r)) of the 1/z connection at `dps` digits."""
    with mp.workdps(dps):
        a, b, c = s / 2, (n - s) / 2, mp.mpf(n + 1) / 2
        return tuple((mp.gamma(c) * mp.gamma(q - p) / (mp.gamma(q) * mp.gamma(c - p)),
                      p, p - c + 1, p - q + 1) for p, q in ((a, b), (b, a)))


def _direct(n, s, tau):
    """(u, u') from mpmath's 2F1 and its contiguous function."""
    a, b, c = s / 2, (n - s) / 2, mp.mpf(n + 1) / 2
    sh, ch = mp.sinh(tau), mp.cosh(tau)
    u = mp.hyp2f1(a, b, c, -sh * sh)
    du = -2 * sh * ch * a * b / c * mp.hyp2f1(a + 1, b + 1, c + 1, -sh * sh)
    return u, du


def _connected(n, s, tau):
    """(u, u') through the 1/z connection, to the working precision."""
    dps = mp.mp.dps
    for guard in _GUARDS:
        with mp.workdps(dps + guard):
            t = mp.mpf(tau)
            sh = mp.sinh(t)
            x = sh * sh
            terms = []
            for P, p, q, r in _branches(n, s, dps + guard):
                scale = P * x ** -p
                terms.append((scale * mp.hyp2f1(p, q, r, -1 / x),
                              scale * p * mp.hyp2f1(p + 1, q, r, -1 / x)))
            u, d = (mp.fsum(pair) for pair in zip(*terms))
            bound = 10 ** (guard - 3)
            if all(abs(f) <= bound * abs(u) and abs(g) <= bound * abs(d) for f, g in terms):
                du = -2 * mp.cosh(t) / sh * d
                break
    else:
        raise ArithmeticError(f"1/z connection cancels beyond {_GUARDS[-1]} digits "
                              f"at n={n}, tau={mp.nstr(tau, 5)}")
    return +u, +du


def switch_tau(n):
    """Where `u_and_du` turns from mpmath's 2F1 to the 1/z connection.

    That is where the connection's terms cancel by 0.43 n / sinh(tau) = 17
    digits, which its first two passes cover: sinh tau = n/40.  It is kept in
    [1, 1.5].  From tau = 1 (x = 1.38) on, mpmath's own 2F1 takes the 1/z
    transformation and redoes its Gamma factors at every call; at tau = 1.5
    (x = 4.5) the 1/z series converge like 0.22^j.
    """
    return min(1.5, max(1.0, math.asinh(n / 40)))


def u_and_du(n, s, tau):
    """(u, u') at tau, to the working precision."""
    return (_direct if tau < switch_tau(n) else _connected)(n, s, tau)


def half_series(n, tau):
    """(u, u', y) at gamma = 1/2, where u is elementary:

        u = cosh(tau/2)^{-(n-1)},  u' = -((n-1)/2) tanh(tau/2) u,
        y = 1 + u'/((n-s) u) = 1 - tanh(tau/2),  n - s = (n-1)/2.
    """
    tau = mp.mpf(tau)
    tanh = mp.tanh(tau / 2)
    u = mp.cosh(tau / 2) ** -(n - 1)
    return u, -mp.mpf(n - 1) / 2 * tanh * u, 1 - tanh


def half_state(k, tau):
    """(T, S_hat, rho/r, w'/x) of the adapted state at gamma = 1/2, the flat
    ball of radius k^{-1/2}, at tau, with r = (2/sqrt(k)) e^{-tau}:

        1 + w = 1 - tanh(tau/2) (`half_series`),  x = r^{2 gamma} = r,
        S = 1 - w^2 = sech^2(tau/2),  w' = -sech^2(tau/2)/2,
        rho = (u/c1)^{2/(n-1)} = sech^2(tau/2)/(2 sqrt(k)),  c1 = (2 sqrt(k))^{(n-1)/2},

    and T = S rho^{-1} = 2 sqrt(k), the boundary value -(4 gamma/d_gamma) Q
    with d_{1/2} = -1 and Q = sqrt(k), so T' = 0.  None depends on n.
    """
    k, tau = mp.mpf(k), mp.mpf(tau)
    r = 2 / mp.sqrt(k) * mp.exp(-tau)
    sech_sq = mp.sech(tau / 2) ** 2
    return 2 * mp.sqrt(k), sech_sq / r, sech_sq / (2 * mp.sqrt(k) * r), -sech_sq / (2 * r)


def closure(n, s, tau, u, du):
    """(w, w') with w = v/(n-s), v = u'/u, and w' from the ODE closure
    v' = -n coth(tau) v - s (n-s) - v^2."""
    m = n - s
    v = du / u
    return v / m, (-n * mp.coth(tau) * v - s * m - v * v) / m


def c1(n, s, k):
    """Gamma((n+1)/2) Gamma(s - n/2)/(Gamma(s/2) Gamma((s+1)/2)) k^{(n-s)/2}."""
    return _branches(n, s, mp.mp.dps)[1][0] * mp.mpf(k) ** ((n - s) / 2)


def q_value(n, gamma, k):
    """k^g 2/(n - 2g) Gamma(n/2 + g)/Gamma(n/2 - g), g = gamma."""
    g = mp.mpf(gamma)
    return (mp.mpf(k) ** g * 2 / (n - 2 * g) * mp.gamma(mp.mpf(n) / 2 + g)
            / mp.gamma(mp.mpf(n) / 2 - g))


def branch(n, gamma, k, high, tau):
    """(value, tau derivative) of the Frobenius branch r^mu (1 + a2 r^2 + ...),
    mu = s (high) or n - s, at r = (2/sqrt(k)) e^{-tau}:

        r^mu F,  F = 2F1(n/2, mu; 1 + mu - n/2; z),  z = k r^2/4,

    and d/dtau = -r d/dr gives -r^mu (mu F + 2 z F'), with
    F' = (ab/c) 2F1(a+1, b+1; c+1; z).  Both at the working precision.
    """
    k, tau = mp.mpf(k), mp.mpf(tau)
    s = mp.mpf(n) / 2 + mp.mpf(gamma)
    mu = s if high else n - s
    a, b, c = mp.mpf(n) / 2, mu, 1 + mu - mp.mpf(n) / 2
    r = 2 / mp.sqrt(k) * mp.exp(-tau)
    z = k * r * r / 4
    f = mp.hyp2f1(a, b, c, z)
    df = a * b / c * mp.hyp2f1(a + 1, b + 1, c + 1, z)
    r_mu = r ** mu
    return r_mu * f, -r_mu * (mu * f + 2 * z * df)


def branch_coefficients(n, gamma, k, high, count):
    """The first `count` coefficients a_{2j} of the same branch, mu = s (high)
    or n - s, in closed form at the working precision:

        a_{2j} = (n/2)_j (mu)_j / ((1 + mu - n/2)_j j!) (k/4)^j.
    """
    s = mp.mpf(n) / 2 + mp.mpf(gamma)
    mu = s if high else n - s
    a, c, z = mp.mpf(n) / 2, 1 + mu - mp.mpf(n) / 2, mp.mpf(k) / 4
    return [mp.rf(a, j) * mp.rf(mu, j) / (mp.rf(c, j) * mp.factorial(j)) * z ** j
            for j in range(count)]


def adapted_main_half(n, k):
    """The adapted identity's main integral at gamma = 1/2, over Vol(M).

    There the adapted compactification is the flat ball of radius
    R = k^{-1/2} and main is Vol(ball)/Vol(M) = (R^{n+1}/(n+1))/R^n.
    """
    return 1 / (mp.sqrt(k) * (n + 1))


def lee_main(n, k):
    """The Lee identity's main integral, int rho dV over Vol(M).

    The Lee compactification is the round hemisphere of radius R = k^{-1/2},
    rho its height R cos(theta), so main is R^2 int_0^{pi/2} cos sin^n
    dtheta = R^2/(n+1).
    """
    return 1 / (mp.mpf(k) * (n + 1))


def adapted_integrals(n, gamma, k, dps):
    """(main, R1, R2) of the adapted identity, by mp.quad at `dps` digits, as floats.

    rho = (u/c1)^{1/(n-s)}, T = (1 - w^2) rho^{-2g}, kappa = (1-g)/g and
    vol = rho^{n+1} (sqrt(k) sinh tau)^n:
        main  rho^{2g-1} T^{1-kappa} vol
        R1    2 kappa rho^{1-2g} T^{-kappa-1} |TF|^2 vol,  |TF|^2 = n/(n+1) (w' - w (w + coth))^2/rho^2
        R2    kappa (kappa+1) rho T^{-kappa-2} (T'/rho)^2 vol
    1 - w^2 and T' lose about (2g + min(2g, 2-2g)) tau / ln 10 digits to
    cancellation, so each node is evaluated with that many digits on top of
    dps + 10.  Each integral is cut where its rest is below e^{-46}; the
    three share their breakpoints below that, and so most of their nodes.
    """
    loss = (2 * gamma + min(2 * gamma, 2 - 2 * gamma)) / math.log(10)
    cache = {}

    def point(tau):
        if tau not in cache:
            with mp.workdps(dps + 10 + int(loss * float(tau))):
                g = mp.mpf(gamma)
                s = mp.mpf(n) / 2 + g
                m = n - s
                kap = (1 - g) / g
                t = mp.mpf(tau)
                u, du = u_and_du(n, s, t)
                w, dw = closure(n, s, t, u, du)
                rho = (u / c1(n, s, k)) ** (1 / m)
                S = 1 - w * w
                T = S * rho ** (-2 * g)
                dT = (-2 * w * dw - 2 * g * w * S) * rho ** (-2 * g)
                tf_sq = n / (n + 1) * (dw - w * (w + mp.coth(t))) ** 2 / rho ** 2
                vol = rho ** (n + 1) * (mp.sqrt(k) * mp.sinh(t)) ** n
                cache[tau] = (
                    rho ** (2 * g - 1) * T ** (1 - kap) * vol,
                    2 * kap * rho ** (1 - 2 * g) * T ** (-kap - 1) * tf_sq * vol,
                    kap * (kap + 1) * rho * T ** (-kap - 2) * (dT / rho) ** 2 * vol)
        return cache[tau]

    out = []
    with mp.workdps(dps):
        for i, rate in enumerate((2 * gamma, 2 * gamma, 2 * min(2 * gamma, 2 - 2 * gamma))):
            tau_c = 46 / rate
            cuts = [0] + [p for p in (0.5, 2, 6, 15, 40, 100, 250) if p < tau_c] + [tau_c]
            out.append(float(mp.quad(lambda t: point(t)[i], cuts)))
    return tuple(out)
