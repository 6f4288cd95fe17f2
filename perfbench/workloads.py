"""The benchmark's workloads: inputs built from a seed, the items that use
them, and the reference checks every item's output must pass.

An item is one unit of work.  A pass is a fixed list of items; the runner
only ever runs whole passes, so every run measures the same item mix.  Each
workload draws its items from a finite pool (signals, polynomials, ensemble
seeds) in an order fixed by the run seed, so every input a run can meet has
a reference value in ``reference.json``, recorded by ``make_reference.py``.

The library is reached only through attribute lookups on ``paleyzyg`` so
that the traced run sees every call it rebinds.
"""

import json
import os
from collections import namedtuple

import numpy as np

import paleyzyg as pz

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Reference values must reproduce to this relative tolerance, the tolerance
# of the frozen acceptance snapshots.
REL_TOL = 1e-12

# Frozen acceptance snapshots (tests/test_acceptance.py, criteria 9 and 4):
# (pool, count, output column, value).  The value is the largest ratio over
# the first `count` members of the pool, which are exactly that criterion's
# corpus, and must reproduce to 1e-12.
SNAPSHOTS = (("rline", 100, 2, 0.657427307249948),
             ("grid/poly", 200, -1, 0.251636436802219))

P_GRID = (4, 8, 16, 32, 64)

RLINE_POOL = 100
GRID_POOL = 400
BASE_SEEDS = tuple(range(1000, 1128))
TENSOR_SEEDS = tuple(range(2000, 2032))
SUM2_SEEDS = tuple(range(3000, 3008))
SUM3_SEEDS = tuple(range(4000, 4008))


# One unit of work: ``key`` names its input in the reference table and
# ``run()`` returns its output as a flat list of numbers and strings.
Item = namedtuple("Item", "key run")


def load_reference():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)["items"]


def _same(got, want):
    if isinstance(want, float):
        return isinstance(got, float) and abs(got - want) <= REL_TOL * max(abs(want), 1e-300)
    return type(got) is type(want) and got == want


def matches(got, want):
    """Whether an item output agrees with its reference entry."""
    return len(got) == len(want) and all(_same(g, w) for g, w in zip(got, want))


def snapshot_index(reference, pool):
    """Pool index of the item whose output attains a snapshot."""
    _, count, column, _ = next(snap for snap in SNAPSHOTS if snap[0] == pool)
    return max(range(count), key=lambda i: reference[f"{pool}/{i}"][column])


class Checker:
    """Compares item outputs with the reference table and the frozen
    acceptance snapshots."""

    def __init__(self, reference=None):
        self.reference = load_reference() if reference is None else reference
        # item key -> (output column, snapshot value)
        self.snapshots = {f"{pool}/{snapshot_index(self.reference, pool)}": (column, value)
                          for pool, _, column, value in SNAPSHOTS}
        self.snapshot_errors = {key: abs(self.reference[key][column] - value)
                                for key, (column, value) in self.snapshots.items()}

    def __call__(self, key, value):
        want = self.reference.get(key)
        if value is None or want is None or not matches(value, want):
            return False
        if key in self.snapshots:
            column, snapshot = self.snapshots[key]
            return abs(value[column] - snapshot) <= 1e-12
        return True

    def snapshots_ok(self):
        return all(err <= 1e-12 for err in self.snapshot_errors.values())


def _order(rng, pool, first=None):
    """A seeded permutation of range(pool), with ``first`` moved to the front."""
    order = [int(i) for i in rng.permutation(pool)]
    if first is not None:
        order.remove(first)
        order.insert(0, first)
    return order


def _cycle(order, start, count):
    return [order[(start + i) % len(order)] for i in range(count)]


class Rline:
    """Real-line probes on the README / criterion-9 corpus (L=4, M=2048).

    Each item runs the Paley probe with the |xi|^-1 density on blocks
    -10..4 and the Zygmund probe with blocks -2..4 on one signal.  Every
    item shares the sample window and the two measures.
    """

    def __init__(self, seed, small=False, reference=None):
        self.corpus = pz.random_mean_zero_corpus(RLINE_POOL, seed=513)
        self.mu_paley = pz.PaleyMeasure.inverse_abs(-10, 4)
        self.mu_zygmund = pz.PaleyMeasure.inverse_abs(-2, 4)
        first = None
        if reference is not None:
            first = snapshot_index(reference, "rline")
        self.order = _order(np.random.default_rng([seed, 1]), RLINE_POOL, first)
        self.pass_size = 1 if small else 8

    def pass_items(self, n):
        return [self._item(i) for i in _cycle(self.order, n * self.pass_size, self.pass_size)]

    def pool_items(self):
        """Every item any run can meet, for the reference table."""
        return [self._item(i) for i in range(RLINE_POOL)]

    def _item(self, i):
        def run():
            s = self.corpus[i]
            probe = pz.paley_inequality_probe(self.mu_paley, [s])
            _, mu_l2, square_fn, ratio = probe.rows[0]
            zyg = pz.zygmund_realline_probe(self.mu_zygmund, s)
            return [mu_l2, square_fn, ratio, zyg.lhs, zyg.rhs, zyg.ratio]
        return Item(f"rline/{i}", run)


class Grid:
    """The 2^20-point torus path: criterion-4 polynomials (blocks 1..18)
    through selection, even/odd split and the Zygmund ratio, plus the README
    sweeps (sharpness, V_{2^10} ratio, Ingham tails, dyadic block sums)."""

    INGHAM_KS = tuple(range(10, 18))

    def __init__(self, seed, small=False, reference=None):
        self.polys = pz.block_filling_corpus(GRID_POOL, k_lo=1, k_hi=18, seed=20240)
        self.m = pz.MultiplierSeq.inverse_sqrt(2 ** 19)
        first = None
        if reference is not None:
            first = snapshot_index(reference, "grid/poly")
        self.order = _order(np.random.default_rng([seed, 2]), GRID_POOL, first)
        self.polys_per_pass = 2 if small else 32
        sweeps = [Item("grid/vp10", self._vp10), Item("grid/paley_block_sums", self._block_sums)]
        ks = self.INGHAM_KS[:2] if small else self.INGHAM_KS
        sweeps += [Item(f"grid/ingham/{k}", self._ingham(k)) for k in ks]
        if not small:
            sweeps.append(Item("grid/sharpness", self._sharpness))
        self.sweeps = sweeps

    def pass_items(self, n):
        idx = _cycle(self.order, n * self.polys_per_pass, self.polys_per_pass)
        return [self._poly_item(i) for i in idx] + self.sweeps

    def pool_items(self):
        """Every item any run can meet, for the reference table."""
        return [self._poly_item(i) for i in range(GRID_POOL)] + self.sweeps

    def _poly_item(self, i):
        def run():
            p = self.polys[i]
            sel = pz.dyadic_max_select(p)
            lam1, lam2 = pz.even_odd_split(sel)  # raises outside [2, 16]
            split_sq = sorted(abs(p.coeffs[n]) * abs(p.coeffs[n])
                              for seq in (lam1, lam2) if seq for n in seq.terms)
            energy_ok = split_sq == sorted(mm * mm for mm in sel.maxima)
            rep = pz.zygmund_ratio(p, self.m, check_multiplier=False)
            return [*sel.lambdas, energy_ok, rep.lhs, rep.rhs, rep.ratio]
        return Item(f"grid/poly/{i}", run)

    @staticmethod
    def _sharpness():
        t = pz.sharpness_experiment(range(4, 15))
        return [*t.lhs, *t.phi[0.25], *t.phi[0.5], t.lhs_slope, *t.grids]

    @staticmethod
    def _vp10():
        rep = pz.zygmund_ratio(pz.vallee_poussin(10), pz.MultiplierSeq.inverse_sqrt(2 ** 21),
                               check_multiplier=False)
        return [rep.lhs, rep.rhs, rep.ratio, rep.grid]

    @staticmethod
    def _ingham(k):
        return lambda: [pz.ingham_tail_sup(0.5, 0.8, 2 ** k)]

    @staticmethod
    def _block_sums():
        rep = pz.paley_block_sums(pz.MultiplierSeq.inverse_sqrt(2 ** 22, positive_only=True), 20)
        return [*rep.block_sums, rep.verdict]


class Moments:
    """Even-p moment growth and Sidon lower bounds on the lacunary base
    2^0..2^7, its 2- and 3-fold signed sumsets, and the 6x6 lacunary
    product, for p in {4, 8, 16, 32, 64}."""

    def __init__(self, seed, small=False, reference=None):
        lam8 = pz.geometric_lacunary(2, 8)
        self.base = pz.PlainSpectrum(pz.FrequencySet(1, frozenset(lam8.terms)))
        lam6 = pz.geometric_lacunary(2, 6)
        self.fs6 = pz.FrequencySet(1, frozenset(lam6.terms))
        self.sum2 = pz.SumsetSpectrum(lam8, 2)
        self.sum3 = pz.SumsetSpectrum(lam8, 3)
        self.sum2_set = self.sum2.frequency_set()
        self.small = small
        rng = np.random.default_rng([seed, 3])
        self.base_seeds = [BASE_SEEDS[i] for i in rng.permutation(len(BASE_SEEDS))]
        self.tensor_seeds = [TENSOR_SEEDS[i] for i in rng.permutation(len(TENSOR_SEEDS))]
        self.sum2_seeds = [SUM2_SEEDS[i] for i in rng.permutation(len(SUM2_SEEDS))]
        self.sum3_seeds = [SUM3_SEEDS[i] for i in rng.permutation(len(SUM3_SEEDS))]

    def pass_items(self, n):
        n_base, n_tensor = (1, 1) if self.small else (16, 6)
        items = [self.base_item(s) for s in _cycle(self.base_seeds, n * n_base, n_base)]
        items += [self.tensor_item(s) for s in _cycle(self.tensor_seeds, n * n_tensor, n_tensor)]
        items.append(Item("moments/sidon_base", self._sidon_base))
        if not self.small:
            items.append(Item("moments/sidon_sum2", self._sidon_sum2))
            items.append(self.sumset_item(2, _cycle(self.sum2_seeds, n, 1)[0]))
            items.append(self.sumset_item(3, _cycle(self.sum3_seeds, n, 1)[0]))
        return items

    def base_item(self, s):
        def run():
            rep = pz.growth_exponent(self.base, P_GRID,
                                     pz.Ensemble("random-signs", seed=s, trials=32))
            return [*rep.ratios, rep.alpha]
        return Item(f"moments/base/{s}", run)

    def tensor_item(self, s):
        def run():
            rep = pz.tensor_growth([self.fs6, self.fs6], P_GRID,
                                   [pz.Ensemble("random-signs", seed=s, trials=16),
                                    pz.Ensemble("phase-ascent")])
            return [*rep.ratios, rep.alpha]
        return Item(f"moments/tensor/{s}", run)

    def sumset_item(self, k, s):
        spectrum = self.sum2 if k == 2 else self.sum3

        def run():
            rep = pz.growth_exponent(spectrum, P_GRID,
                                     [pz.Ensemble("random-signs", seed=s, trials=32),
                                      pz.Ensemble("phase-ascent")])
            return [*rep.ratios, rep.alpha]
        return Item(f"moments/sum{k}/{s}", run)

    def _sidon_base(self):
        fs = self.base.frequency_set()
        m = pz.MultiplierSeq.constant(1.0, max(fs.elements))
        return [pz.sidon_lower_bound(m, fs, [pz.Ensemble("flat"), pz.Ensemble("phase-ascent")])]

    def _sidon_sum2(self):
        m = pz.MultiplierSeq.constant(1.0, max(abs(n) for n in self.sum2_set.elements))
        return [pz.sidon_lower_bound(m, self.sum2_set,
                                     [pz.Ensemble("flat"), pz.Ensemble("phase-ascent")])]

    def pool_items(self):
        """Every item any run can meet, for the reference table."""
        items = [self.base_item(s) for s in BASE_SEEDS]
        items += [self.tensor_item(s) for s in TENSOR_SEEDS]
        items += [Item("moments/sidon_base", self._sidon_base),
                  Item("moments/sidon_sum2", self._sidon_sum2)]
        items += [self.sumset_item(2, s) for s in SUM2_SEEDS]
        items += [self.sumset_item(3, s) for s in SUM3_SEEDS]
        return items


WORKLOADS = {"rline": Rline, "grid": Grid, "moments": Moments}


def build(name, seed, small=False, reference=None):
    return WORKLOADS[name](seed, small=small, reference=reference)
