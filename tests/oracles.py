"""Independent reference implementations used only by the test suite.

Everything here deliberately avoids the package's own numerics: the
regression oracle solves the normal equations in 50-digit arithmetic, the
p-value oracle integrates the Student t density by quadrature, the engine
replay recomputes the spread and quality recursions step by step from
recorded outcomes, and the ledger oracle trades signs one session at a
time.  Agreement between these routes and the package is the point of the
comparison, so none of them may call into it.
"""

from __future__ import annotations

import mpmath as mp


def ols_oracle(X, y, dps: int = 50) -> dict:
    """Normal-equations least squares with intercept in high precision.

    X is an n-by-k row-major nested list, y a length-n list.  Returns
    intercept, per-column coefficients, standard errors, t statistics, and
    two-sided p-values as floats.
    """
    with mp.workdps(dps):
        n = len(y)
        k = len(X[0]) if X else 0
        A = mp.matrix([[mp.mpf(1)] + [mp.mpf(value) for value in row] for row in X])
        b = mp.matrix([mp.mpf(value) for value in y])
        At = A.T
        AtA = At * A
        Atb = At * b
        beta = mp.lu_solve(AtA, Atb)
        residuals = b - A * beta
        rss = sum(r * r for r in residuals)
        df = n - k - 1
        sigma2 = rss / df
        AtA_inv = AtA**-1
        std_errors = [mp.sqrt(sigma2 * AtA_inv[i, i]) for i in range(1, k + 1)]
        t_stats = [beta[i + 1] / std_errors[i] for i in range(k)]
        p_values = [t_pvalue_quad(abs(t), df, dps=dps) for t in t_stats]
        return {
            "intercept": float(beta[0]),
            "coefficients": [float(beta[i + 1]) for i in range(k)],
            "std_errors": [float(se) for se in std_errors],
            "t_stats": [float(t) for t in t_stats],
            "p_values": [float(p) for p in p_values],
            "residual_df": df,
        }


def t_pvalue_quad(t_abs, df: int, dps: int = 50) -> float:
    """Two-sided Student t p-value by direct quadrature of the density."""
    with mp.workdps(dps):
        t_abs = mp.mpf(t_abs)
        nu = mp.mpf(df)
        norm = mp.gamma((nu + 1) / 2) / (mp.sqrt(nu * mp.pi) * mp.gamma(nu / 2))

        def density(x):
            return norm * (1 + x * x / nu) ** (-(nu + 1) / 2)

        tail = mp.quad(density, [t_abs, mp.inf])
        return float(2 * tail)


def replay_engine(history, beta: float, gamma: float, initial_spread: float = 1.0):
    """Recompute every stored spread and quality value from raw outcomes.

    ``history`` is a sequence of per-session records exposing: feasible,
    financial and sentiment outcomes (each with n_models / n_correct, or
    None on infeasible sessions), the emitted sign, and realized_return.
    The per-session reward lambda is re-derived here from emission and
    return rather than read back from the engine.  Returns the lists of
    expected spread-after and quality-after values.
    """
    spread = initial_spread
    quality = 0.0
    spreads = []
    qualities = []
    for step in history:
        r = step.realized_return
        if step.emitted is None:
            lam = 0
        elif r > 0:
            lam = 1 if step.emitted == 1 else -1
        elif r < 0:
            lam = 1 if step.emitted == -1 else -1
        else:
            lam = -1
        quality = beta * quality + lam * abs(100.0 * r)
        if step.feasible:
            fin, sent = step.financial, step.sentiment
            if fin.n_models == 0 and sent.n_models == 0:
                spread = gamma * spread
            else:
                if fin.n_models == 0:
                    theta = -1
                elif sent.n_models == 0:
                    theta = 1
                elif fin.n_correct * sent.n_models >= sent.n_correct * fin.n_models:
                    theta = 1
                else:
                    theta = -1
                spread = gamma * spread + theta * abs(100.0 * r)
        spreads.append(spread)
        qualities.append(quality)
    return spreads, qualities


def ledger_oracle(signs, returns, cost_per_trade: float = 0.0) -> dict:
    """Trade one stake per session: long on +1, short on -1, flat on None.

    A trade pays ``sign * r - cost_per_trade``.  The curves are running
    sums started at 0.0 (the compounded benchmark a running product started
    at 1.0, less 1.0), and a trade is a hit only on a nonzero return of its
    own sign.  Returns the fields of a ledger, with actions as their words.
    """
    actions, steps, strategies, benchmarks, compounded, optimals = [], [], [], [], [], []
    strategy = benchmark = optimal = 0.0
    growth = 1.0
    trades = scored = hits = 0
    for sign, r in zip(signs, returns):
        if sign is None:
            actions.append("none")
            step = 0.0
        else:
            actions.append("long" if sign == 1 else "short")
            step = sign * r - cost_per_trade
            trades += 1
            if r != 0:
                scored += 1
                if (r > 0) == (sign == 1):
                    hits += 1
        strategy = strategy + step
        benchmark = benchmark + r
        growth = growth * (1.0 + r)
        optimal = optimal + abs(r)
        steps.append(step)
        strategies.append(strategy)
        benchmarks.append(benchmark)
        compounded.append(growth - 1.0)
        optimals.append(optimal)
    return {
        "actions": tuple(actions),
        "step_pnl": tuple(steps),
        "cum_strategy": tuple(strategies),
        "cum_benchmark": tuple(benchmarks),
        "cum_benchmark_compounded": tuple(compounded),
        "cum_optimal": tuple(optimals),
        "hit_rate": hits / scored if scored else None,
        "n_trades": trades,
    }
