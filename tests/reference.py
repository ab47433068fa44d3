"""Each formula of the proximal-projection engine and of the ADMM and
splitting recursions, stated once, as plain numpy expressions in the
paper's variables.

The tests build their straight-line reference runs (``reference_hpp`` and
``reference_admm``) from these functions and compare the library's in-place
kernels with them bit for bit, so this module shares no code with the
library: it imports numpy and math only.

Engine variables: iterate z, extrapolated point w, certificate (z_tilde, v)
at unit stepsize, relaxation rho.  ADMM variables: primal pair (x, z),
multiplier p, penalty c; a hat marks the extrapolated point, subscript l an
inner trial.  Splitting variables: the triple (s, b, r) = (x, -p, z) with
gamma = 1/c.
"""

import math

import numpy as np

# ---------------------------------------------------------------------------
# the engine step, whose extrapolation the ADMM iteration shares
# ---------------------------------------------------------------------------


def extrapolate(cur, prev, alpha):
    """Inertial step: cur + alpha (cur - prev)."""
    return cur + alpha * (cur - prev)


def error_criterion(w, z_tilde, v, sigma):
    """Relative-error test of the certificate (z_tilde, v) at w:
    ||v - (w - z_tilde)||^2 <= sigma^2 (||z_tilde - w||^2 + ||v||^2), or
    a zero left side, which passes at any sigma."""
    r = v - (w - z_tilde)
    d = z_tilde - w
    return r @ r == 0.0 or r @ r <= sigma * sigma * (d @ d + v @ v)


def gauss_bounds(w, z_tilde, v, sigma):
    """The two-sided bound an accepted certificate satisfies, with s = sigma:
    (1-s^2)/(1+sqrt(1-(1-s^2)^2)) ||z_tilde-w|| <= ||v||
    <= (1-s^2)/(1-sqrt(1-(1-s^2)^2)) ||z_tilde-w||, with a 1e-12 relative
    round-off slack.  At sigma = 0 both coefficients are 1."""
    u = sigma * sigma
    root = math.sqrt(u * (2.0 - u))  # = sqrt(1 - (1 - sigma^2)^2)
    dz = float(np.linalg.norm(z_tilde - w))
    lv = float(np.linalg.norm(v))
    slack = 1e-12
    return ((1.0 - u) / (1.0 + root) * dz <= lv * (1.0 + slack) + slack
            and lv <= (1.0 - u) / (1.0 - root) * dz * (1.0 + slack) + slack)


def project(w, z_tilde, v, rho):
    """Relaxed projection onto the hyperplane {z : <z - z_tilde, v> = 0}:
    w - rho (<w - z_tilde, v> / ||v||^2) v."""
    return w - (rho * (((w - z_tilde) @ v) / (v @ v))) * v


# ---------------------------------------------------------------------------
# the ADMM outer iteration
# ---------------------------------------------------------------------------


def multiplier(p_hat, x_l, z_hat, y_l, c):
    """Trial multiplier: p_l = p_hat + c (x_l - z_hat) - y_l."""
    return p_hat + c * (x_l - z_hat) - y_l


def acceptance_vector(p_l, p_hat, z_l, z_hat, c):
    """The first residual of the relative-error test:
    p_l - p_hat - c (z_l - z_hat)."""
    return p_l - p_hat - c * (z_l - z_hat)


def accept(y_l, p_l, p_hat, z_l, z_hat, x_l, c, sigma, max_form):
    """Relative-error test of a trial.  Summed squares: ||y||^2 <= sigma^2
    (||t||^2 + c^2 ||x_l - z_l||^2), t the acceptance vector; the max form
    puts max(||t||, c ||x_l - z_l||) in place of the root of the sum.
    Under either, y . y = 0 passes at any sigma."""
    t = acceptance_vector(p_l, p_hat, z_l, z_hat, c)
    d = x_l - z_l
    if y_l @ y_l == 0.0:
        return True
    if max_form:
        return math.sqrt(y_l @ y_l) <= sigma * max(math.sqrt(t @ t),
                                                   c * math.sqrt(d @ d))
    return y_l @ y_l <= sigma * sigma * (t @ t + (c * c) * (d @ d))


def theta(p_hat, z_hat, x_l, z_l, p_l, c):
    """Projection coefficient:
    <c (z_hat - z_l) - (p_hat - p_l), x_l - z_l> / (c ||x_l - z_l||^2)."""
    d = x_l - z_l
    return float(((c * (z_hat - z_l) - (p_hat - p_l)) @ d) / (c * (d @ d)))


def p_update(p_hat, z_hat, z, x, rw, c):
    """Projective multiplier correction with rw = rho theta:
    p_hat + c ((1 - rw) z + rw x - z_hat)."""
    return p_hat + c * ((1.0 - rw) * z + rw * x - z_hat)


def shrink(t, kappa):
    """Soft threshold: t - clip(t, -kappa, kappa)."""
    return t - np.minimum(np.maximum(t, -kappa), kappa)


def shifted_prox(nu, p, x, c, skip_first=False):
    """argmin_z nu ||z||_1 - <p, z> + (c/2) ||x - z||^2: the shrink of
    x + p/c at nu/c, with the first entry left unshrunk on request."""
    t = x + p / c
    z = shrink(t, nu / c)
    if skip_first:
        z[0] = t[0]
    return z


# ---------------------------------------------------------------------------
# the splitting layer
# ---------------------------------------------------------------------------


def a_step(s, b, gamma, resolvent):
    """Exact A half-step: r = J_{gamma A}(s - gamma b), a = (s - r)/gamma - b,
    with J the ``resolvent(gamma, u)`` of an operator."""
    r = resolvent.resolvent(gamma, s - gamma * b)
    return r, (s - r) / gamma - b


def dr_acceptance(r_hat, b_hat, s, b, r, gamma, sigma):
    """Relative-error test against the center r_hat + gamma b_hat:
    ||s + gamma b - center||^2 <= sigma^2 (||r + gamma b - center||^2
    + ||s - r||^2)."""
    center = r_hat + gamma * b_hat
    res_s = (s + gamma * b) - center
    res_r = (r + gamma * b) - center
    d = s - r
    return res_s @ res_s <= sigma * sigma * (res_r @ res_r + d @ d)


def dr_theta(r_hat, b_hat, s, b, r, gamma):
    """Projection coefficient:
    <(r_hat - r) + gamma (b_hat - b), s - r> / ||s - r||^2."""
    d = s - r
    return float((((r_hat - r) + gamma * (b_hat - b)) @ d) / (d @ d))


def dr_b_update(r_hat, b_hat, s, r, rw, gamma):
    """Projective correction of b with rw = rho theta:
    b_hat - ((1 - rw) r + rw s - r_hat) / gamma."""
    return b_hat - ((1.0 - rw) * r + rw * s - r_hat) / gamma


def embed_to_dr(x, z, p):
    """Change of variables onto the splitting layer: (s, b, r) = (x, -p, z),
    with scaling gamma = 1/c; the implied exact half-step slope is
    a = c (s - r) - b."""
    return x, -p, z


def embed_to_hpp(r_hat, b_hat, s, b, r, gamma):
    """The engine's extrapolated point, certificate point and certificate:
    (w, z_tilde, v) = (r_hat + gamma b_hat, r + gamma b, s - r)."""
    return r_hat + gamma * b_hat, r + gamma * b, s - r
