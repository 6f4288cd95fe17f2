"""Command-line driver: every experiment as a reproducible subcommand.

``Report`` is the only serialiser in the package: a JSON report carries the
config echo, the columns, the rows and the provenance (grids, seeds, caps),
and a CSV report carries the columns and rows.  The config echo is built in
one place, ``main``, from every flag of the subcommand as parsed, so
re-running an echoed config reproduces the rows bit-identically.  Exit codes:
0 success, 1 usage error, 2 verdict failure.
"""

import argparse
import csv
import dataclasses
import io
import json
import os
import sys

from . import extremals, growth, multipliers, realline, spectra, torus, zygmund


# The acceptance suite of the checkout this module sits in (src/paleyzyg/cli.py).
_ACCEPTANCE_TESTS = os.path.normpath(os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "..", "tests", "test_acceptance.py"))

# Parsed arguments that are not flags of the experiment.
_NOT_ECHOED = ("cmd", "fn", "output", "format")


class Report:
    def __init__(self, subcommand, columns, rows, provenance, verdict=None):
        self.subcommand = subcommand
        self.config = {}            # set by main from the parsed flags
        self.columns = columns
        self.rows = rows
        self.provenance = provenance
        self.verdict = verdict

    def render(self, fmt):
        if fmt == "json":
            return json.dumps({
                "subcommand": self.subcommand,
                "config": self.config,
                "columns": self.columns,
                "rows": self.rows,
                "provenance": self.provenance,
                "verdict": self.verdict,
            }, indent=2)
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(self.columns)
        for row in self.rows:
            w.writerow([repr(v) if isinstance(v, float) else v for v in row])
        return buf.getvalue()

    def write(self, path, fmt):
        text = self.render(fmt)
        if path in (None, "-"):
            sys.stdout.write(text)
            if not text.endswith("\n"):
                sys.stdout.write("\n")
        else:
            with open(path, "w") as fh:
                fh.write(text)
            print(f"wrote {fmt} report to {path}")


def _out_args(sp):
    sp.add_argument("--output", "-o", default=None,
                    help="output path (default: stdout, or $PALEYZYG_OUT_DIR/<name>)")
    sp.add_argument("--format", choices=("csv", "json"), default="json")


def _resolve_output(args, name):
    if args.output is not None:
        return args.output
    out_dir = os.environ.get("PALEYZYG_OUT_DIR")
    if out_dir:
        return os.path.join(out_dir, f"{name}.{args.format}")
    return None


def _items(text, cast, flag):
    """The comma list text of flag, each item read by cast: the one list
    rule of the command line.  An empty list or item, or one that cast
    rejects, raises ValueError naming the flag."""
    items = text.split(",")
    if not all(item.strip() for item in items):
        raise ValueError(f"{flag} takes a comma list with no empty item, got {text!r}")
    try:
        return [cast(item) for item in items]
    except ValueError as e:
        raise ValueError(f"{flag}: {e}") from None


def _parse_multiplier(form, horizon, two_sided):
    if form == "inverse-sqrt":
        return multipliers.MultiplierSeq.inverse_sqrt(horizon, positive_only=not two_sided)
    if form == "constant":
        return multipliers.MultiplierSeq.constant(1.0, horizon)
    if form.startswith("indicator:"):
        fs = spectra.FrequencySet(1, frozenset(_items(form.split(":", 1)[1], int, "--form")))
        return multipliers.MultiplierSeq.indicator(fs, horizon)
    raise ValueError(f"unknown multiplier form {form!r}")


def cmd_paley_check(args):
    m = _parse_multiplier(args.form, args.horizon, args.two_sided)
    rep = multipliers.paley_block_sums(m, args.k)
    rows = [[k, 2 ** k, s] for k, s in enumerate(rep.block_sums)]
    prov = {"sup": rep.sup, "verdict": rep.verdict}
    return Report("paley-check", ["k", "N", "block_sum"], rows, prov), 0


def cmd_zygmund_ratio(args):
    if args.corpus < 0:
        raise ValueError(f"--corpus must be >= 0, got {args.corpus}")
    if args.vp is None and args.corpus == 0:
        raise ValueError("nothing to read: give --vp or --corpus >= 1")
    polys = []
    if args.vp is not None:
        polys.append(("vp", args.vp, extremals.vallee_poussin(args.vp)))
    if args.corpus > 0:
        # every corpus polynomial reaches block --k-hi and is read on the
        # alias-free grid of its degree: refused, like the corpus, before
        # any draw
        top = zygmund._check_corpus(args.corpus, args.k_lo, args.k_hi, args.seed)
        torus.check_budget(torus.grid_size(top, 2), f"--k-hi {args.k_hi}: block {args.k_hi}'s grid")
        corpus = zygmund.block_filling_corpus(args.corpus, k_lo=args.k_lo, k_hi=args.k_hi,
                                              seed=args.seed)
        polys += [("corpus", i, p) for i, p in enumerate(corpus)]
    rows = []
    for kind, index, p in polys:
        rep = zygmund.inverse_sqrt_ratio_check(p)
        rows.append([kind, index, rep.lhs, rep.rhs, rep.ratio, rep.grid])
    ratios = [r[4] for r in rows]
    prov = {"max_ratio": max(ratios)}
    return Report("zygmund-ratio", ["kind", "index", "lhs", "rhs", "ratio", "grid"],
                  rows, prov), 0


def cmd_sharpness(args):
    if args.n_max <= args.n_min:
        raise ValueError(f"--n-max must be > --n-min, got {args.n_min}..{args.n_max}")
    table = extremals.sharpness_experiment(range(args.n_min, args.n_max + 1),
                                           _items(args.r, float, "--r"))
    rows = []
    for i, N in enumerate(table.n_values):
        row = [N, table.lhs[i]]
        for r in table.r_values:
            row += [table.phi[r][i], table.ratios[r][i]]
        row.append(table.grids[i])
        rows.append(row)
    cols = ["N", "L_N"]
    for r in table.r_values:
        cols += [f"phi_{r}", f"ratio_{r}"]
    cols.append("grid")
    prov = {"lhs_slope": table.lhs_slope,
            "phi_slopes": {str(r): s for r, s in table.phi_slopes.items()}}
    return Report("sharpness", cols, rows, prov), 0


def cmd_ingham(args):
    if args.m_max <= args.m_min:
        raise ValueError(f"--m-max must be > --m-min, got {args.m_min}..{args.m_max}")
    rows = []
    prev = None
    monotone = True
    for k in range(args.m_min, args.m_max + 1):
        t = extremals.ingham_tail_sup(args.gamma, args.c, 2 ** k)
        if prev is not None and t >= prev:
            monotone = False
        rows.append([k, 2 ** k, t])
        prev = t
    div = extremals.sidon_weight_divergence(args.c, args.sum_limit)
    prov = {"tails_strictly_decreasing": monotone,
            "weight_partial_sum": div.partial_sum,
            "integral_estimate": div.integral_estimate,
            "corrected_estimate": div.corrected_estimate}
    verdict = monotone
    return Report("ingham", ["k", "M", "tail_sup"], rows, prov, verdict), (0 if verdict else 2)


def _base_seq(args):
    return spectra.geometric_lacunary(args.ratio, args.count, args.start)


def _ensembles(args):
    # the kinds are items of --ensemble; the seed and trials are checked
    # apart, so that their messages name no list
    kinds = _items(args.ensemble, growth.Ensemble, "--ensemble")
    return [dataclasses.replace(e, seed=args.seed, trials=args.trials) for e in kinds]


def cmd_lambda_p(args):
    lam = _base_seq(args)
    p_grid = _items(args.p, int, "--p")
    rows = [list(row) for row in zip(p_grid, growth.best_ratios(lam, p_grid, _ensembles(args)))]
    return Report("lambda-p", ["p", "best_ratio"], rows,
                  {"spectrum": f"geometric({args.ratio},{args.count},{args.start})"}), 0


def cmd_bonami(args):
    lam = _base_seq(args)
    spec = growth.SumsetSpectrum(lam, args.k, cap=args.cap)
    rep = growth.growth_exponent(spec, _items(args.p, int, "--p"), _ensembles(args))
    rows = [[p, r] for p, r in zip(rep.p_grid, rep.ratios)]
    prov = {"alpha": rep.alpha, "intercept": rep.intercept,
            "descriptor": rep.descriptor, "used_terms": spec.used_terms}
    return Report("bonami", ["p", "best_ratio"], rows, prov), 0


def cmd_sidon_lb(args):
    lam = _base_seq(args)
    m = _parse_multiplier(args.form, max(lam.terms), two_sided=False)
    bound = growth.sidon_lower_bound(m, lam, _ensembles(args))
    return Report("sidon-lb", ["lower_bound"], [[bound]], {"spectrum_size": len(lam)}), 0


def _parse_measure(args):
    """The measure of a real-line command, after the checks of its block
    range, all before the corpus is drawn: the range is not empty, the
    blocks every signal reads, the density's and the square function's,
    end in the corpus window's top block, and a density's blocks are
    floats."""
    if args.k_max < args.k_min:
        raise ValueError(f"empty block range {args.k_min}..{args.k_max}: "
                         "--k-max must be >= --k-min")
    window = realline._corpus_window()
    top = realline.default_k_range(window)[1]
    if (args.measure == "inverse-abs" or args.cmd == "rline-paley") and args.k_max > top:
        raise ValueError(f"block {max(args.k_min, top + 1)} lies outside the validity band "
                         f"|xi| <= {window.band}: --k-max must be <= {top}, the corpus "
                         f"window's top block, got {args.k_max}")
    if args.measure == "inverse-abs":
        if args.gap != 0.0:
            raise ValueError("--gap applies to atoms only; inverse-abs vanishes below "
                             "2^k_min by construction")
        try:
            return realline.PaleyMeasure.inverse_abs(args.k_min, args.k_max)
        except ValueError as e:
            raise ValueError(f"{e} (--k-min..--k-max)") from None
    if args.measure.startswith("atoms:"):
        pairs = []
        for part in args.measure.split(":", 1)[1].split(";"):
            pairs.append(_items(part, float, "--measure"))
            if len(pairs[-1]) != 2:
                raise ValueError(f"--measure atom {part!r} is not an xi,w pair")
        return realline.PaleyMeasure.from_atoms(pairs, gap=args.gap)
    raise ValueError(f"unknown measure {args.measure!r}")


def _rline_corpus(args):
    if args.corpus < 1:
        raise ValueError(f"--corpus must be >= 1, got {args.corpus}")
    return realline.random_mean_zero_corpus(args.corpus, seed=args.seed)


def cmd_rline_paley(args):
    mu = _parse_measure(args)
    k_range = (args.k_min, args.k_max)
    try:
        sup_rep = realline.paley_sup(mu, k_range)
    except ValueError as e:
        raise ValueError(f"{e} (--k-min..--k-max)") from None
    corpus = _rline_corpus(args)
    rep = realline.paley_inequality_probe(mu, corpus, k_range)
    rows = [list(r) for r in rep.rows]
    prov = {"max_ratio": rep.max_ratio, "paley_sup": sup_rep.sup,
            "sup_verdict": sup_rep.verdict}
    return Report("rline-paley", ["index", "mu_l2", "square_fn", "ratio"],
                  rows, prov), 0


def cmd_rline_zygmund(args):
    mu = _parse_measure(args)
    corpus = _rline_corpus(args)
    rows = []
    for i, s in enumerate(corpus):
        rep = realline.zygmund_realline_probe(mu, s, (args.k_min, args.k_max))
        rows.append([i, rep.lhs, rep.rhs, rep.ratio])
    prov = {"max_ratio": max(r[3] for r in rows)}
    return Report("rline-zygmund", ["index", "lhs", "rhs", "ratio"], rows, prov), 0


def cmd_selftest(args):
    import pytest
    target = args.tests_path
    if not os.path.exists(target):
        print(f"tests path {target!r} not found", file=sys.stderr)
        return None, 1
    code = pytest.main([target, "-q"])
    return None, (0 if code == 0 else 2)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="paleyzyg",
        description="Numerical experiments around Paley/Zygmund type inequalities")
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("paley-check", help="dyadic block sums of a multiplier")
    sp.add_argument("--form", default="inverse-sqrt")
    sp.add_argument("--k", type=int, default=20)
    sp.add_argument("--horizon", type=int, default=2 ** 22)
    sp.add_argument("--two-sided", action="store_true",
                    help="sum both signs for the inverse-sqrt form "
                         "(default: positive frequencies only)")
    _out_args(sp)
    sp.set_defaults(fn=cmd_paley_check)

    sp = sub.add_parser("zygmund-ratio", help="weighted l2 against 1 + Phi_{1/2}")
    sp.add_argument("--vp", type=int, default=None, help="use the flat kernel of order 2^N")
    sp.add_argument("--corpus", type=int, default=0)
    sp.add_argument("--k-lo", type=int, default=1)
    sp.add_argument("--k-hi", type=int, default=12)
    sp.add_argument("--seed", type=int, default=20240)
    _out_args(sp)
    sp.set_defaults(fn=cmd_zygmund_ratio)

    sp = sub.add_parser("sharpness", help="kernel sweep for the log^r functionals")
    sp.add_argument("--n-min", type=int, default=4)
    sp.add_argument("--n-max", type=int, default=14)
    sp.add_argument("--r", default="0.25,0.5")
    _out_args(sp)
    sp.set_defaults(fn=cmd_sharpness)

    sp = sub.add_parser("ingham", help="tail sup-norms and the divergent weight sum")
    sp.add_argument("--gamma", type=float, default=0.5)
    sp.add_argument("--c", type=float, default=0.8)
    sp.add_argument("--m-min", type=int, default=10)
    sp.add_argument("--m-max", type=int, default=16)
    sp.add_argument("--sum-limit", type=int, default=10 ** 6)
    _out_args(sp)
    sp.set_defaults(fn=cmd_ingham)

    for name, fn, extra in (("lambda-p", cmd_lambda_p, False),
                            ("bonami", cmd_bonami, True),
                            ("sidon-lb", cmd_sidon_lb, False)):
        sp = sub.add_parser(name)
        sp.add_argument("--ratio", type=int, default=2)
        sp.add_argument("--count", type=int, default=8)
        sp.add_argument("--start", type=int, default=1)
        if name != "sidon-lb":
            sp.add_argument("--p", default="4,8,16,32,64")
        sp.add_argument("--ensemble", default="random-signs")
        sp.add_argument("--seed", type=int, default=101)
        sp.add_argument("--trials", type=int, default=32)
        if extra:
            sp.add_argument("--k", type=int, default=2)
            sp.add_argument("--cap", type=int, default=4096)
        if name == "sidon-lb":
            sp.add_argument("--form", default="constant")
        _out_args(sp)
        sp.set_defaults(fn=fn)

    for name, fn in (("rline-paley", cmd_rline_paley), ("rline-zygmund", cmd_rline_zygmund)):
        sp = sub.add_parser(name)
        sp.add_argument("--measure", default="inverse-abs")
        sp.add_argument("--k-min", type=int, default=-2)
        sp.add_argument("--k-max", type=int, default=4)
        sp.add_argument("--gap", type=float, default=0.0)
        sp.add_argument("--corpus", type=int, default=20)
        sp.add_argument("--seed", type=int, default=513)
        _out_args(sp)
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("selftest", help="run the acceptance suite")
    sp.add_argument("--tests-path", default=_ACCEPTANCE_TESTS)
    sp.set_defaults(fn=cmd_selftest)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        report, code = args.fn(args)
    except (ValueError, TypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError:
        print(f"error: out of memory in {args.cmd}; try smaller sizes", file=sys.stderr)
        return 1
    if report is not None:
        report.config = {k: v for k, v in vars(args).items() if k not in _NOT_ECHOED}
        report.write(_resolve_output(args, report.subcommand), args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
