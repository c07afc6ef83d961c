"""Command-line front end.

Subcommands: coef (single coefficient), norm-scan (ladder of minimal-norm
scans to CSV), fit (exponent fit of a CSV column), integral (dual-route
weighted integrals), constants (exact rational table), acceptance (the
ten-check suite with a JSON report).

Everything is deterministic given the arguments and config: numeric
output uses 17 significant digits, a ladder is scanned in one loop and
its CSV rows are sorted by n, and randomized checks derive from an
explicit seed.  Exit codes: 0 success, 1 failed acceptance criterion,
2 argument or config validation, 3 convergence failure or uncertified
scan, 4 fit failure.
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass, field

from .errors import (ConvergenceError, DomainError, FitError,
                     NormalizationError, PoleError, PreconditionError,
                     ScanError)
from .reps import coef, coef_oracle, parse_rep
from .norms import ScanConfig, default_ladder, fit_exponent, pmin_scan
from .integrals import integral_quadrature, integral_series
from . import acceptance, structure

_VALIDATION_ERRORS = (PreconditionError, DomainError, NormalizationError,
                      PoleError, ValueError, KeyError)

CSV_HEADER = "n,pmin,x_argmax,pmax_proxy,q_s_half,err_est"
# most characters a geometric n_values range may expand to
MAX_LADDER = 4096


def _g17(x):
    """17-significant-digit decimal form (round-trip safe)."""
    return f"{float(x):.17g}"


def _number(value, name):
    """A config number as a float; JSON null, true, false, lists and
    objects are not numbers (float() reads true as 1)."""
    if not isinstance(value, (bool, list, dict, type(None))):
        try:
            return float(value)
        except (ValueError, OverflowError):
            pass
    raise PreconditionError(f"{name} is not a number: {value!r}")


def _finite(value, name):
    """A config number as a finite float; json reads Infinity and NaN."""
    v = _number(value, name)
    if not math.isfinite(v):
        raise PreconditionError(f"{name} is not a finite number: {value!r}")
    return v


def _whole(value, name):
    """A config integer; an int keeps its exact value, however large, and
    a float must be integral (int() would truncate 2.5 to 2)."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    v = _finite(value, name)
    if not v.is_integer():
        raise PreconditionError(f"{name} is not a whole number: {value!r}")
    return int(v)


# ---------------------------------------------------------------------------
# Experiment configuration


@dataclass
class ExperimentConfig:
    """One JSON document drives a norm-scan or an acceptance run (integral
    takes no config).  Each command names the fields it reads, and any
    other field is an error, so a typo or a field meant for the other
    command fails loudly instead of being silently ignored."""

    rep: str = None
    n_values: object = None
    scan: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    output_path: str = None
    seed: int = acceptance.DEFAULT_SEED

    NORM_SCAN_KEYS = ("rep", "n_values", "scan", "output_path")
    ACCEPTANCE_KEYS = ("tolerances", "output_path", "seed")
    SCAN_KEYS = ("c_grid", "refine_iters", "t_max_pad")

    @classmethod
    def load(cls, path, keys):
        """Read and check a config; keys are the fields the command reads."""
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise PreconditionError("config root must be a JSON object")
        unknown = set(raw) - set(keys)
        if unknown:
            raise PreconditionError(
                f"config fields {sorted(unknown)} are not read here;"
                f" this command reads {list(keys)}")
        cfg = cls(**raw)
        if not isinstance(cfg.output_path, (str, type(None))):
            raise PreconditionError(
                f"output_path must be a string: {cfg.output_path!r}")
        if not isinstance(cfg.scan, dict):
            raise PreconditionError("scan must be an object")
        bad = set(cfg.scan) - set(cls.SCAN_KEYS)
        if bad:
            raise PreconditionError(f"unknown scan fields {sorted(bad)}")
        if not isinstance(cfg.tolerances, dict):
            raise PreconditionError("tolerances must be an object")
        return cfg

    def scan_config(self):
        kwargs = {}
        if "c_grid" in self.scan:
            kwargs["grid_c"] = _number(self.scan["c_grid"], "scan.c_grid")
        if "refine_iters" in self.scan:
            kwargs["refine_iters"] = _whole(self.scan["refine_iters"],
                                            "scan.refine_iters")
        if "t_max_pad" in self.scan:
            kwargs["t_pad"] = _number(self.scan["t_max_pad"],
                                      "scan.t_max_pad")
        return ScanConfig(**kwargs)

    def resolved_n_values(self):
        """A list of indices, or a geometric-range object
        {"geometric": {"start": a, "stop": b, "factor": f}} of at most
        MAX_LADDER entries.  Every number in either must be finite."""
        spec = self.n_values
        if spec is None:
            return None
        if isinstance(spec, list):
            return [_finite(v, "n_values entry") for v in spec]
        g = spec.get("geometric") if isinstance(spec, dict) else None
        if isinstance(g, dict) and set(spec) == {"geometric"}:
            bad = set(g) - {"start", "stop", "factor"}
            if bad:
                raise PreconditionError(f"unknown range fields {sorted(bad)}")
            start = _finite(g.get("start"), "start")
            stop = _finite(g.get("stop"), "stop")
            factor = _finite(g.get("factor", 2.0), "factor")
            if not (start > 0 and stop >= start and factor > 1.0):
                raise PreconditionError(f"bad geometric range {g}")
            out, v = [], start
            while v <= stop * (1.0 + 1e-12) and len(out) <= MAX_LADDER:
                out.append(v)
                v *= factor
            if len(out) > MAX_LADDER:
                raise PreconditionError(
                    f"geometric range {g} has over {MAX_LADDER} entries")
            return out
        raise PreconditionError(f"cannot interpret n_values {spec!r}")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_coef(args):
    r = parse_rep(args.rep)
    if (args.x is None) == (args.t is None):
        raise PreconditionError("give exactly one of --x or --t")
    if args.t is not None and not args.t >= 0.0:
        raise PreconditionError(f"need t >= 0, got {args.t}")
    # 1-x goes in as sech(t)^2, as the scans pass it: 1 - tanh(t)^2 keeps
    # only the ulps of x near x = 1
    x = args.x if args.t is None else math.tanh(args.t) ** 2
    omx = None if args.t is None or x == 1.0 else math.cosh(args.t) ** -2
    n, m = r.as_index(args.n), r.as_index(args.m)
    if args.oracle:
        column, err = coef_oracle(r, m, x, n_max=abs(n))
        value, method = column[n], "oracle"
    else:
        cv = coef(r, n, m, x, omx)
        value, method, err = cv.value, cv.method, cv.err_est
    print(f"re     {_g17(value.real)}")
    print(f"im     {_g17(value.imag)}")
    print(f"abs    {_g17(abs(value))}")
    print(f"method {method}")
    print(f"err    {_g17(err)}")
    return 0


def cmd_norm_scan(args):
    cfg = ExperimentConfig.load(args.config, ExperimentConfig.NORM_SCAN_KEYS)
    if cfg.rep is None or cfg.output_path is None:
        raise PreconditionError("norm-scan config needs rep and output_path")
    r = parse_rep(cfg.rep)
    scan_cfg = cfg.scan_config()
    kappas = cfg.resolved_n_values()
    kappas = sorted(default_ladder(r) if kappas is None else kappas)

    lines = [f"# repnorm norm-scan rep={cfg.rep}", CSV_HEADER]
    outcomes = pmin_scan(r, kappas, config=scan_cfg)
    samples = [s for s in outcomes if not isinstance(s, Exception)]
    failures = [(k, exc) for k, exc in zip(kappas, outcomes)
                if isinstance(exc, Exception)]
    for s in sorted(samples, key=lambda s: s.n):
        lines.append(",".join([
            _g17(s.n), _g17(s.pmin), _g17(s.x_argmax),
            _g17(s.pmax_proxy), _g17(s.q_s_half), _g17(s.err_est)]))
    for kappa, exc in failures:
        lines.append(f"# ERROR {_g17(kappa)} {type(exc).__name__}: {exc}")
    with open(cfg.output_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {len(samples)} rows to {cfg.output_path}")
    return 0


def _read_csv_column(path, column):
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line.strip() for line in fh
                if line.strip() and not line.lstrip().startswith("#")]
    if not rows:
        raise PreconditionError(f"{path} has no data")
    header = rows[0].split(",")
    if column not in header or "n" not in header:
        raise PreconditionError(
            f"column {column!r} not in header {header}")
    i_n, i_v = header.index("n"), header.index(column)
    ns, vals = [], []
    for row in rows[1:]:
        parts = row.split(",")
        if len(parts) != len(header):
            raise PreconditionError(
                f"{path}: row {row!r} does not have the header's"
                f" {len(header)} fields")
        ns.append(float(parts[i_n]))
        vals.append(float(parts[i_v]))
    return ns, vals


def cmd_fit(args):
    ns, vals = _read_csv_column(args.csv, args.column)
    fit = fit_exponent(ns, vals, with_log=not args.no_log)
    out = {
        "alpha": fit.alpha,
        "beta": fit.beta,
        "amplitude": math.exp(fit.log_amp),
        "residual_rms": fit.resid / math.sqrt(fit.n_points),
        "n_min": min(ns),
        "n_max": max(ns),
    }
    print(json.dumps({k: float(f"{v:.17g}") for k, v in out.items()},
                     indent=2))
    return 0


def cmd_integral(args):
    r = parse_rep(args.rep)
    eps = float(args.eps)
    print("n,quadrature_re,quadrature_im,series_re,series_im,rel_deviation")
    for n in args.n:
        nn = r.as_index(n)
        q = integral_quadrature(r, nn, eps)
        s = integral_series(r, nn, eps)
        scale = max(abs(s.value), abs(q.value), 1e-300)
        rel = abs(s.value - q.value) / scale
        print(",".join([
            _g17(nn), _g17(q.value.real), _g17(q.value.imag),
            _g17(s.value.real), _g17(s.value.imag), _g17(rel)]))
    return 0


def cmd_constants(args):
    rows = []
    for label in args.families:
        t = structure.parse_lie_type(label)
        row = {"type": t.label(), "c_g": str(structure.structural_constant(t)),
               "rank_k": t.rank_k}
        thresholds = t.thresholds()
        if thresholds:
            for key, series in (("principal", structure.PRINCIPAL_MPS),
                                ("verma", structure.GENERALIZED_VERMA),
                                ("other", structure.OTHER_DISCRETE)):
                row[f"threshold_{key}"] = str(thresholds[series])
        if args.c is not None:
            from fractions import Fraction
            c, R = Fraction(args.c), Fraction(args.R)
            row["mps_bound"] = str(structure.mps_gap_bound(t, c, R))
        rows.append(row)
    width = max(len(k) for row in rows for k in row)
    for row in rows:
        for k, v in row.items():
            print(f"{k:<{width}}  {v}")
        print()
    return 0


def cmd_acceptance(args):
    seed = acceptance.DEFAULT_SEED
    tolerances = None
    out_path = "acceptance_report.json"
    if args.config is not None:
        cfg = ExperimentConfig.load(args.config,
                                    ExperimentConfig.ACCEPTANCE_KEYS)
        seed = _whole(cfg.seed, "seed")
        tolerances = {key: _finite(value, f"tolerances.{key}")
                      for key, value in cfg.tolerances.items()}
        if cfg.output_path is not None:
            out_path = cfg.output_path
    if args.output is not None:
        out_path = args.output

    records = acceptance.run_all(seed=seed, tolerances=tolerances)
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump([r.as_dict() for r in records], fh, indent=2)
        fh.write("\n")
    for rec in records:
        print(rec.summary_line())
    n_fail = sum(not r.passed for r in records)
    print(f"{len(records) - n_fail}/{len(records)} criteria passed;"
          f" report in {out_path}")
    return 1 if n_fail else 0


# ---------------------------------------------------------------------------
# Argument wiring


def build_parser():
    top = argparse.ArgumentParser(
        prog="repnorm",
        description="matrix-coefficient norms, weighted integrals and"
                    " their acceptance checks")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coef", help="one matrix coefficient")
    p.add_argument("--rep", required=True)
    p.add_argument("--m", required=True)
    p.add_argument("--n", required=True)
    p.add_argument("--x", type=float)
    p.add_argument("--t", type=float)
    p.add_argument("--oracle", action="store_true",
                   help="force the quadrature-oracle path")
    p.set_defaults(fn=cmd_coef)

    p = sub.add_parser("norm-scan", help="minimal-norm ladder to CSV")
    p.add_argument("config", help="ExperimentConfig JSON path")
    p.set_defaults(fn=cmd_norm_scan)

    p = sub.add_parser("fit", help="exponent fit of a CSV column")
    p.add_argument("csv")
    p.add_argument("--column", required=True)
    p.add_argument("--no-log", action="store_true",
                   help="drop the log-log design column")
    p.set_defaults(fn=cmd_fit)

    p = sub.add_parser("integral", help="dual-route weighted integrals")
    p.add_argument("--rep", required=True)
    p.add_argument("--eps", required=True, type=float)
    p.add_argument("--n", nargs="*", default=[],
                   help="basis indices (may be empty: header only)")
    p.set_defaults(fn=cmd_integral)

    p = sub.add_parser("constants", help="exact rational structure table")
    p.add_argument("families", nargs="+",
                   help="Lie types, each a label of its family (any case,"
                        " spaces ignored) or family:n")
    p.add_argument("--c", default=None,
                   help="scale of the R term in the gap bound (no default)")
    p.add_argument("--R", default="0")
    p.set_defaults(fn=cmd_constants)

    p = sub.add_parser("acceptance", help="run the ten-check suite")
    p.add_argument("config", nargs="?", default=None)
    p.add_argument("--output", default=None, help="JSON report path")
    p.set_defaults(fn=cmd_acceptance)

    return top


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConvergenceError, ScanError) as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 3
    except FitError as exc:
        print(f"fit failure: {exc}", file=sys.stderr)
        return 4
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except _VALIDATION_ERRORS as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
