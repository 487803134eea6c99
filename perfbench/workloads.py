"""The three workloads: their inputs, their operations and the checks on them.

A workload is built once from the seed (`setup`), then hands out rounds of
operations.  `execute` is the timed call into sqzmzi and raises when the
operation fails; `check` compares its output with the reference and returns
the problems found.  Every round holds the same mix of operations, so the
share of failed operations is the same in every run.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from pathlib import Path
from typing import NamedTuple

import checks
import reference as ref

PRESETS = {
    "fig2-solid": ref.Params.with_excess(1.0, r1=ref.r_from_db(10.0), n_photons=1e6),
    "fig2-dashed": ref.Params.with_excess(1.0, r1=ref.r_from_db(10.0), eta=1.0 / 1.04, n_photons=1e6),
    "fig2-dotted": ref.Params.with_excess(2.0, r1=ref.r_from_db(10.0), n_photons=1e6),
}
SWEEP_POINTS = 721
VALIDATE_POINTS = 12
# half the CLI default, so that a 60 s run holds the 100 operations a p90 needs
VALIDATE_SAMPLES = 50_000
# the z statistics follow t with 31 degrees of freedom; at |z| <= 8 a correct
# program fails a 12-point operation with probability 6e-7 (2.6e-3 at the CLI
# default of 5), so a failed validation is a fault, not a seed
VALIDATE_Z = 8.0
ORACLE_CHECK_SAMPLES = 100_000
ORACLE_CHECK_SEED = 20_201_005
DESIGN_POOL = 256
DESIGN_QUERIES_PER_ROUND = 32
DESIGN_PHASES = 3

# in-domain edges: (parameter overrides, strategy, words an error must name)
EDGES = (
    ({"r1": 360.0}, ref.SINGLE, ("r1", "squeez")),
    ({"r2": 360.0}, ref.DIFFERENTIAL, ("r2", "amplif", "gain")),
    ({"mu": 1e-300}, ref.OPTIMAL, ("mu", "internal")),
    ({"eta": 1e-300}, ref.SUBOPTIMAL, ("eta", "external")),
)
EDGE_BASE = {"r1": 1.0, "r2": 0.5, "mu": 0.9, "eta": 0.9, "n_photons": 1e6}
EDGE_PHI = 1.0
EDGE_PHI_APR = 0.5


class OperationFailed(RuntimeError):
    """The program reported failure for an operation (e.g. a non-zero exit)."""


def fmt(x: float) -> str:
    return repr(float(x))


class Workload:
    def __init__(self, sqz, tracer, seed: int, workdir: Path) -> None:
        self.sqz = sqz
        self.tracer = tracer
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(seed)
        # one capture stream for every command: click caches a text wrapper
        # per stdout object and never frees it, so a new stream per command
        # would grow the heap by about 1 KiB per operation
        self.stdout = io.StringIO()

    def invoke(self, args: list[str]) -> str:
        """One sqzmzi command in this process; returns what it printed."""
        buf = self.stdout
        buf.seek(0)
        buf.truncate()
        i = self.tracer.open("cli.main")
        try:
            with contextlib.redirect_stdout(buf):
                code = self.sqz.cli.main.main(args=args, prog_name="sqzmzi", standalone_mode=False)
        finally:
            self.tracer.close(i)
        if code not in (None, 0):
            tail = buf.getvalue().strip().splitlines()[-1:]
            raise OperationFailed(f"exit {code}: {tail}")
        return buf.getvalue()

    def final_checks(self) -> list[str]:
        return []


def lossy_amplified(rng: random.Random) -> tuple[ref.Params, list[str]]:
    """A lossy, amplified, noisy set no preset covers: mu, eta < 1, r2 > 0, A > 1."""
    r1_db, r2 = rng.uniform(3.0, 12.0), rng.uniform(0.2, 1.5)
    mu, eta = rng.uniform(0.7, 0.99), rng.uniform(0.5, 0.95)
    a, n = rng.uniform(1.5, 10.0), 10.0 ** rng.uniform(5.0, 7.0)
    p = ref.Params.with_excess(a, r1=ref.r_from_db(r1_db), r2=r2, mu=mu, eta=eta, n_photons=n)
    args = ["--r1-db", fmt(r1_db), "--r2", fmt(r2), "--mu", fmt(mu), "--eta", fmt(eta),
            "--n-photons", fmt(n), "--A", fmt(a)]
    return p, args


def parameter_sets(rng: random.Random) -> list[tuple[ref.Params, list[str]]]:
    """The three presets plus one seeded lossy, amplified set."""
    sets = [(p, ["--preset", name]) for name, p in PRESETS.items()]
    return sets + [lossy_amplified(rng)]


class Sweep(Workload):
    """One `sqzmzi sweep` per operation: 721 points, all four strategies,
    written with -o to the work directory."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.sets = parameter_sets(self.rng)
        self.phi_apr = self.rng.uniform(0.3, 1.3)
        self.expected: dict[int, list[tuple]] = {}
        self.rounds = 0

    def round_ops(self) -> list[tuple[int, str]]:
        """Each set once, two in CSV and two in JSON; the formats swap every round."""
        self.rounds += 1
        return [(k, ("csv", "json")[(k + self.rounds) % 2]) for k in range(len(self.sets))]

    def execute(self, op):
        k, f = op
        out = self.workdir / f"sweep.{f}"
        args = ["sweep", *self.sets[k][1], "--phi-apr", fmt(self.phi_apr), "--format", f, "-o", str(out)]
        for s in ref.STRATEGIES:
            args += ["--strategy", s]
        self.invoke(args)
        return out

    def check(self, op, out) -> list[str]:
        k, f = op
        if k not in self.expected:
            self.expected[k] = checks.sweep_expectation(self.sets[k][0], ref.STRATEGIES, SWEEP_POINTS, self.phi_apr)
        rows = checks.parse_sweep(out.read_text(), f)
        return checks.check_sweep(rows, self.expected[k], len(ref.STRATEGIES))


class Validate(Workload):
    """One linearized `sqzmzi validate` per operation on a 12-point grid; the
    oracle seed of each operation derives from the workload seed."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.sets = parameter_sets(self.rng)
        self.count = 0

    def round_ops(self) -> list[int]:
        return list(range(len(self.sets)))

    def execute(self, k):
        self.count += 1
        oracle_seed = (self.seed * 1_000_003 + self.count) % 2**63
        return self.invoke([
            "validate", *self.sets[k][1], "--points", str(VALIDATE_POINTS),
            "--oracle-samples", str(VALIDATE_SAMPLES), "--seed", str(oracle_seed),
            "--mode", "linearized", "--z-threshold", fmt(VALIDATE_Z),
        ])

    def check(self, k, text) -> list[str]:
        return checks.check_validate(text, VALIDATE_POINTS, VALIDATE_Z)

    def oracle_report(self):
        """(params, phi, report) of oracle.run called directly on the lossy set
        at a grid point away from the fringes."""
        p = self.sets[-1][0]
        phi = 2.0 * math.pi * 3 / (VALIDATE_POINTS - 1)
        params = self.sqz.model.InterferometerParams(
            r1=p.r1, r2=p.r2, mu=p.mu, eta=p.eta, n_photons=p.n_photons, g2=p.g2
        )
        config = self.sqz.oracle.OracleConfig(
            n_samples=ORACLE_CHECK_SAMPLES, seed=ORACLE_CHECK_SEED, linearized_mode=True
        )
        return p, phi, self.sqz.oracle.run(params, phi, config)

    def final_checks(self) -> list[str]:
        p, phi, report = self.oracle_report()
        return checks.check_oracle(
            report.closed_form.as_dict(), report.empirical.as_dict(), report.standard_errors,
            p, phi, ORACLE_CHECK_SAMPLES,
        )


class Query(NamedTuple):
    """One design query's inputs and the report the reference expects."""

    params: ref.Params
    kw: dict[str, float]  # r1, r2, mu, eta
    excess: float
    phis: list[float]
    phi_apr: float
    args: list[str]
    report: dict[str, float]


class Design(Workload):
    """Scalar design queries on fresh parameter sets, with the in-domain edge
    queries interleaved: a round is 32 queries and the 4 edges, one edge after
    every 8 queries."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        rng = self.rng
        self.pool = []
        for j in range(DESIGN_POOL):
            a, n = rng.uniform(1.0, 50.0), 10.0 ** rng.uniform(2.0, 9.0)
            kw = {"r1": rng.uniform(0.0, 2.0), "r2": rng.uniform(0.0, 2.0),
                  "mu": rng.uniform(0.05, 1.0), "eta": rng.uniform(0.05, 1.0)}
            p = ref.Params.with_excess(a, n_photons=n, **kw)
            phis = [rng.uniform(-7.0, 7.0) for _ in range(DESIGN_PHASES)]
            phi_apr = rng.uniform(-7.0, 7.0)
            gain = ref.sensitivity_gain_db(p)
            values = {**kw, "n_photons": n, "A": a}
            if j % 2:
                path = self.workdir / f"design-{j}.cfg"
                path.write_text("".join(f"{key} = {fmt(v)}\n" for key, v in values.items()))
                params_args = ["--config", str(path)]
            else:
                params_args = []
                for key, v in values.items():
                    params_args += [f"--{key.replace('_', '-')}", fmt(v)]
            args = ["report", *params_args, "--format", "json", "--implied-gain-db", fmt(gain)]
            self.pool.append(Query(p, kw, a, phis, phi_apr, args, ref.report(p, gain)))
        self.next = 0

    def round_ops(self) -> list[tuple]:
        ops = []
        for q in range(DESIGN_QUERIES_PER_ROUND):
            ops.append(("query", self.next % DESIGN_POOL))
            self.next += 1
            if q % 8 == 7:
                ops.append(("edge", q // 8))
        return ops

    def execute(self, op):
        kind, j = op
        sqz = self.sqz
        Strategy = sqz.model.Strategy
        if kind == "edge":
            overrides, strategy, _ = EDGES[j]
            params = sqz.model.InterferometerParams(**{**EDGE_BASE, **overrides})
            st = Strategy.suboptimal(EDGE_PHI_APR) if strategy == ref.SUBOPTIMAL else Strategy(sqz.model.StrategyKind(strategy))
            try:
                return sqz.sensitivity.phase_uncertainty(st, params, EDGE_PHI)
            except sqz.model.ParameterError as exc:
                return exc
        q = self.pool[j]
        text = self.invoke(q.args)
        params = sqz.model.InterferometerParams.with_technical_noise(q.excess, n_photons=q.params.n_photons, **q.kw)
        strategies = (Strategy.single(), Strategy.differential(), Strategy.optimal(), Strategy.suboptimal(q.phi_apr))
        results = [sqz.sensitivity.phase_uncertainty(s, params, phi) for phi in q.phis for s in strategies]
        r2 = sqz.sensitivity.required_r2(q.kw["mu"], q.kw["eta"], q.report["eps2"])
        return text, results, r2

    def check(self, op, out) -> list[str]:
        kind, j = op
        if kind == "edge":
            overrides, strategy, names = EDGES[j]
            p = ref.Params(**{**EDGE_BASE, **overrides})
            return checks.check_edge(out, p, strategy, EDGE_PHI, EDGE_PHI_APR if strategy == ref.SUBOPTIMAL else None, names)
        q = self.pool[j]
        text, results, r2 = out
        problems = checks.check_report(text, q.report)
        it = iter(results)
        for phi in q.phis:
            for s in ref.STRATEGIES:
                problems += checks.check_phase_result(next(it), s, q.params, phi, q.phi_apr if s == ref.SUBOPTIMAL else None)
        problems += checks.check_required_r2(r2, q.kw["mu"], q.kw["eta"], q.report["eps2"])
        return problems


WORKLOADS = {"sweep": Sweep, "validate": Validate, "design": Design}
