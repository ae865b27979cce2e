"""A SHA-256 pin of 16,000 seeded oracle outcomes, values and error messages alike.

4,000 draws over and beyond the envelope run `qfi_numeric` and
`cfi_quadrature` for both targets.  Each value is recorded as `float.hex`,
each failure as its type and message, so a change to any bit of a value, to
which point fails, or to how it says why, changes the digest.
"""
import hashlib
import math
import random

import pmcorr as pc

DRAWS = 4000
#: recorded before the oracles' stencils were built in one call per builder
DIGEST = "53624b0696efa0eef6449e6b69ee1646986129d8ae4b368e67bc792afdf4478f"


def _draws(seed: int, n: int) -> list:
    """(probe, env, t): lambda 1e-5 to 1e32 (a tenth 0), |gamma| 1e-4 to 1e5, t 1e-12 to 1 s."""
    rng = random.Random(seed)
    draws = []
    for _ in range(n):
        lam = 0.0 if rng.random() < 0.1 else 10.0 ** rng.uniform(-5.0, 32.0)
        gamma = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-4.0, 5.0)
        t = 10.0 ** rng.uniform(-12.0, 0.0)
        probe = pc.fullerene_probe(gamma=gamma, ell0=rng.choice((1e-9, 5e-8, math.inf)))
        draws.append((probe, pc.EnvironmentSpec(lam=lam), t))
    return draws


def _outcome(call) -> str:
    try:
        result = call()
    except (pc.ConvergenceError, ArithmeticError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    if isinstance(result, float):
        return result.hex()
    return f"{result.quadrature.hex()} {result.gaussian_identity.hex()}"


def outcomes(seed: int = 25, n: int = DRAWS) -> list:
    lines = []
    for probe, env, t in _draws(seed, n):
        for target in ("gamma", "lambda"):
            lines.append(_outcome(lambda: pc.qfi_numeric(target, probe, env, t)))
            lines.append(_outcome(lambda: pc.cfi_quadrature(target, probe, env, t)))
    return lines


def test_outcomes_are_pinned():
    lines = outcomes()
    assert len(lines) == 4 * DRAWS
    # both kinds of outcome, on both oracles
    assert sum(" " in line and ":" not in line for line in lines) > DRAWS // 2
    assert sum(line.startswith("ConvergenceError: derivative failed") for line in lines) > 0
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == DIGEST
