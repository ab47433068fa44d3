"""Shared fixtures: small seeded instances and cached high-accuracy
references; the run observer, its map to engine steps, and the inner-trial
recorder."""

from types import SimpleNamespace

import numpy as np
import pytest

import irsplit as ir


@pytest.fixture(scope="session")
def lasso_20x50():
    return ir.synthetic_lasso(20, 50, seed=7)


@pytest.fixture(scope="session")
def lasso_20x50_reference(lasso_20x50):
    return ir.reference_minimizer(lasso_20x50, epsilon=1e-10)


@pytest.fixture(scope="session")
def inertial_core():
    """The coupled inertial-relaxed setting used throughout the LASSO runs."""
    return ir.InertiaRelaxParams(0.18966, 0.18976, 0.99, 1.4882, 1.4882)


@pytest.fixture(scope="session")
def plain_core_sigma99():
    return ir.InertiaRelaxParams(0.0, 1.0 / 3.0, 0.99, 1.0, 1.0)


def accepted_certificate_sampler(rng, dim=4):
    """Yield (w, cert, sigma) triples that pass the relative-error test.

    Draws an exact resolvent pair, perturbs the point, re-derives a
    consistent v, and keeps the draw only when the acceptance test holds.
    """
    while True:
        w = rng.standard_normal(dim) * rng.uniform(0.5, 3.0)
        lam = rng.uniform(0.3, 3.0)
        sigma = rng.uniform(0.05, 0.99)
        mu = rng.uniform(0.2, 2.0)
        z_exact = w / (1.0 + lam * mu)  # resolvent of T(z) = mu z
        scale = np.linalg.norm(w - z_exact) + 1e-3
        z_tilde = z_exact + rng.standard_normal(dim) * scale * rng.uniform(0, 0.4)
        v = mu * z_tilde  # v in T(z_tilde) exactly
        cert = ir.ProxCertificate(z_tilde, v, lam)
        if np.any(v) and ir.error_criterion_holds(w, cert, sigma):
            yield w, cert, sigma


class Collector(list):
    """A run observer that keeps every event, in order, as a namespace with
    the event's keys as attributes.  The list outlives a raised run."""

    def __call__(self, event):
        self.append(SimpleNamespace(**event))


def engine_steps(events, gamma=None):
    """A run's events as engine-space ``(w, z_tilde, z_next)`` tuples, the
    form ``fejer_check`` and ``alvarez_attouch_check`` read.  Events of
    ``run_hpp`` (``gamma`` None) hold those points; for events of
    ``run_admm`` and ``run_dr``, with ``gamma = 1/c``, each point is z -
    gamma p, the engine point r + gamma b of the splitting triple (s, b, r)
    = (x, -p, z)."""
    if gamma is None:
        return [(ev.w, ev.cert.z_tilde, ev.z) for ev in events]
    return [(ev.z_hat - gamma * ev.p_hat,
             ev.z - gamma * ev.p_l,
             ev.z - gamma * ev.p) for ev in events]


def record_trials(problem):
    """Record every inner trial of the runs on ``problem`` from outside the
    loop, by wrapping ``fproc.open_session`` -> ``session.next`` and
    ``prox_g.solve``.  Returns a list with one list per session, of trials
    with ``x`` and ``y`` (the session's pair) and ``p_l`` and ``z_l`` (the
    prox's argument and result).  The last trial of a session is the
    accepted one."""
    sessions = []
    open_session, solve = problem.fproc.open_session, problem.prox_g.solve

    def recorded_open(*args):
        session = open_session(*args)
        step, trials = session.next, []
        sessions.append(trials)

        def recorded_next():
            x, y = step()
            trials.append(SimpleNamespace(x=x, y=y))
            return x, y

        session.next = recorded_next
        return session

    def recorded_solve(p, x, c):
        z = solve(p, x, c)
        sessions[-1][-1].p_l, sessions[-1][-1].z_l = p, z
        return z

    problem.fproc.open_session = recorded_open
    # a new prox object: the problem's own prox may serve other runs
    problem.prox_g = SimpleNamespace(solve=recorded_solve)
    return sessions
