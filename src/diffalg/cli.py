"""Command-line front end: named verification suites with JSON reports.

Each suite bundles the checks of one identity family from the library
(operator relations, shift intertwiner, spherical families, abelian and
spherical products, localized classes, coweight splitting, leading-term
factorization, determinant bases, ideal membership, windowed spanning, the
graded module, and the chain counts).  A suite runs deterministically from
the master seed: every suite draws from its own ``random.Random`` seeded by
``"{seed}:{suite}"``, so reports are byte-identical across runs and
independent of suite order.

A report entry is (label, status, witness) with status pass/fail/skipped; a
fail always carries a witness.  Wall time is kept on the report object but
deliberately excluded from the serialized form so that serialization is
reproducible.
"""

import argparse
import itertools
import json
import math
import os
import random
import sys
import time
import traceback
from fractions import Fraction

from . import daha
from .ideals import (
    IdealSpec,
    PlaneSubset,
    Window,
    class_polys,
    delta_S_schur,
    dominant_coweights,
    graded_dimension,
    membership,
    verify_containment,
    verify_spanning,
)
from .poly import (
    LaurentPoly,
    RationalFunction,
    VarContext,
    parse_poly,
    poly_to_text,
)
from .springer import (
    ChainModel,
    EquivaluedModule,
    NotInIdeal,
    chain_poincare,
    module_act,
    module_slice_basis,
)
from .weyl import RootData
from .zalg import (
    AbelianMatter,
    AbelianZElt,
    NoDictionary,
    abelian_embed,
    class_commutative,
    class_localized,
    commutative_limit,
    embed_compose,
    match_conventions,
    split_coweight,
    verify_factorization,
)

__all__ = [
    "CheckConfig",
    "InvalidRank",
    "Report",
    "UnknownSuite",
    "main",
    "parse",
    "parse_poly",
    "run_suite",
    "SUITE_NAMES",
]


class InvalidRank(ValueError):
    """The configured rank is not a positive integer."""


def _require_rank(rank):
    """Raise InvalidRank unless rank is a positive integer."""
    if not isinstance(rank, int) or rank < 1:
        raise InvalidRank(f"rank must be a positive integer, got {rank!r}")


class UnknownSuite(ValueError):
    """The requested suite name is not registered."""


class CheckConfig:
    """Configuration of one verification run.

    ``suite`` is a registered suite name or "all"; ``rank`` is the number of
    variables; the caps bound the degrees and windows the suites sweep;
    ``seed`` drives all randomness; ``budget`` is the per-suite time budget
    in seconds, checked before each step (a started step runs to its end);
    ``matter``, a nonempty list of matter records, optionally replaces the
    built-in character configurations of the abelian suite.
    """

    __slots__ = (
        "suite",
        "rank",
        "d_max",
        "y_max",
        "seed",
        "budget",
        "matter",
    )

    def __init__(
        self,
        suite,
        rank=2,
        d_max=2,
        y_max=4,
        seed=0,
        budget=600.0,
        matter=None,
    ):
        _require_rank(rank)
        for name, value in (("d_max", d_max), ("y_max", y_max)):
            if not isinstance(value, int) or value < 0:
                raise ValueError(f"{name} must be a non-negative integer")
        if not (math.isfinite(budget) and budget > 0):
            raise ValueError("budget must be a positive finite number")
        if matter is not None and not matter:
            raise ValueError("matter must list at least one record")
        self.suite = suite
        self.rank = rank
        self.d_max = d_max
        self.y_max = y_max
        self.seed = seed
        self.budget = float(budget)
        self.matter = matter

    def echo(self):
        """The config as a plain mapping, embedded in serialized reports."""
        return {name: getattr(self, name) for name in self.__slots__}


class Report:
    """Outcome of one run: labelled entries plus the config echo."""

    STATUSES = ("pass", "fail", "skipped")

    def __init__(self, suite, entries, config, wall_time=None):
        checked = []
        for entry in entries:
            label = entry["label"]
            status = entry["status"]
            witness = entry.get("witness")
            if status not in self.STATUSES:
                raise ValueError(f"bad status {status!r} for {label!r}")
            if status == "fail" and not witness:
                raise ValueError(f"fail entry {label!r} has no witness")
            checked.append({"label": label, "status": status, "witness": witness})
        self.suite = suite
        self.entries = checked
        self.config = dict(config)
        self.wall_time = wall_time

    def all_pass(self):
        return all(entry["status"] == "pass" for entry in self.entries)

    def counts(self):
        out = {status: 0 for status in self.STATUSES}
        for entry in self.entries:
            out[entry["status"]] += 1
        return out

    def __eq__(self, other):
        if not isinstance(other, Report):
            return NotImplemented
        return (
            self.suite == other.suite
            and self.entries == other.entries
            and self.config == other.config
        )

    def __repr__(self):
        counts = self.counts()
        return f"Report(suite={self.suite!r}, pass={counts['pass']}, fail={counts['fail']}, skipped={counts['skipped']})"


def serialize(report):
    """Canonical JSON text of a report; wall time is not included."""
    payload = {
        "suite": report.suite,
        "config": report.config,
        "entries": report.entries,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def parse(text):
    """Inverse of ``serialize``; the wall time comes back as None."""
    payload = json.loads(text)
    return Report(payload["suite"], payload["entries"], payload["config"])


# -- helpers shared by the suites -----------------------------------------


def _default_matters():
    return [
        {"rank": 1, "characters": [[1]]},
        {"rank": 2, "characters": [[1, 0], [0, 1]]},
        {"rank": 2, "characters": [[1, -1], [0, 1]]},
    ]


def _random_poly(rng, ctx):
    terms = [
        LaurentPoly.monomial(
            ctx,
            ye=[rng.randint(0, 2) for _ in range(ctx.n)],
            ce=rng.randint(0, 1),
            he=rng.randint(0, 1),
            coeff=rng.choice([-3, -2, -1, 1, 2, 3]),
        )
        for _ in range(rng.randint(1, 2))
    ]
    return LaurentPoly.sum(ctx, terms)


def _random_abelian(rng, matter, i, j, monomial=False):
    terms = {}
    for _ in range(rng.randint(1, 2)):
        lam = tuple(rng.randint(-2, 2) for _ in range(matter.rank))
        if monomial:
            coeff = LaurentPoly.monomial(
                matter.ctx,
                ye=tuple(rng.randint(0, 2) for _ in range(matter.rank)),
                ce=rng.randint(0, 1),
                he=rng.randint(0, 1),
                coeff=rng.choice([-2, -1, 1, 2]),
            )
            terms = {lam: coeff}
            break
        terms[lam] = _random_poly(rng, matter.ctx)
    return AbelianZElt(matter, i, j, terms)


# -- suites ----------------------------------------------------------------


def _suite_daha_relations(cfg, rng):
    def relations():
        results = daha.verify_relations(cfg.rank)
        for label, ok, witness in results:
            if not ok:
                return False, f"{label}: {witness}"
        return True, f"{len(results)} identities"

    return [(f"defining relations (rank {cfg.rank})", relations)]


def _per_coweight(cfg, stem, check, rank_one_label):
    """One step "<stem> <m>" per fundamental coweight m, or a passing placeholder at rank 1."""
    if cfg.rank == 1:
        return [(rank_one_label, lambda: (True, None))]
    return [(f"{stem} {m}", lambda m=m: check(m)) for m in range(1, cfg.rank)]


def _suite_shift_iso(cfg, rng):
    return _per_coweight(
        cfg,
        "shift identity at fundamental coweight",
        lambda m: daha.phi_shift_check(cfg.rank, m),
        "shift identity (rank 1 has no coweights)",
    )


def _suite_e_lambda(cfg, rng):
    ctx = VarContext(cfg.rank)

    def check(m):
        lam = daha.fundamental_coweight(cfg.rank, m)
        diff = daha.e_lambda(ctx, lam, "closed") - daha.e_lambda(ctx, lam, "generators")
        ok = diff.is_zero()
        return ok, None if ok else daha.op_to_text(diff)

    return _per_coweight(
        cfg, "closed form equals generator form at coweight", check, "closed form (rank 1 is trivial)"
    )


def _suite_abelian_zalg(cfg, rng):
    matters = [AbelianMatter.from_config(data) for data in cfg.matter or _default_matters()]
    trials = max(35, 105 // len(matters))
    steps = []
    for matter in matters:
        label = f"abelian products, matter rank {matter.rank} x{len(matter.characters)} ({trials} triples)"

        def check(matter=matter):
            for _ in range(trials):
                i = rng.randint(-2, 2)
                j = i - rng.randint(0, 2)
                k = j - rng.randint(0, 2)
                l = k - rng.randint(0, 2)
                a = _random_abelian(rng, matter, i, j)
                b = _random_abelian(rng, matter, j, k)
                c = _random_abelian(rng, matter, k, l)
                ab = a * b
                left = ab * c
                right = a * (b * c)
                if left != right:
                    return False, (left - right).text()
                if embed_compose(abelian_embed(a), abelian_embed(b)) != abelian_embed(ab):
                    return False, ab.text()
                ha = _random_abelian(rng, matter, i, j, monomial=True)
                hb = _random_abelian(rng, matter, j, k, monomial=True)
                prod = ha * hb
                if not prod.is_zero():
                    if prod.degree() != ha.degree() + hb.degree():
                        return False, prod.text()
            return True, None

        steps.append((label, check))
    return steps


def _suite_localization(cfg, rng):
    n = max(cfg.rank, 2)
    ctx = VarContext(n)
    roots = RootData.type_a(n)
    steps = []

    def minuscule_exact():
        for m in range(1, n):
            cls = class_localized(daha.fundamental_coweight(n, m), LaurentPoly.one(ctx), 0, 1)
            if not cls.exact:
                return False, f"coweight {m} flagged inexact"
            if not cls.is_equivariant():
                return False, f"coweight {m} not symmetric"
        probe = class_localized((2,) + (0,) * (n - 1), LaurentPoly.one(ctx), 0, 1)
        if probe.exact:
            return False, "non-minuscule class unexpectedly exact"
        return True, None

    steps.append((f"localized classes at fundamental coweights (rank {n})", minuscule_exact))

    def limit_matches():
        lam = daha.fundamental_coweight(n, 1)
        cls = class_localized(lam, LaurentPoly.one(ctx), 0, 1)
        raw = class_commutative(lam, LaurentPoly.one(ctx), 1, roots, normalization="raw")
        scale = Fraction(roots.order(), roots.stabilizer_size(lam))
        for sign in (1, -1):
            good = True
            for lam2, coeff in cls.terms.items():
                want = raw.get(lam2, LaurentPoly.zero(ctx)) * (scale * sign)
                if commutative_limit(coeff) != RationalFunction(want):
                    good = False
                    break
            if good:
                return True, None
        return False, poly_to_text(raw.get(lam, LaurentPoly.zero(ctx)))

    steps.append(("parameter-free limit matches the commutative class", limit_matches))

    def dictionary():
        try:
            match_conventions(n)
        except NoDictionary as exc:
            return False, str(exc)
        return True, None

    steps.append((f"convention dictionary exists (rank {n})", dictionary))
    return steps


def _suite_splitting(cfg, rng):
    def random_splits():
        for _ in range(100):
            length = rng.randint(1, 5)
            lam = tuple(rng.randint(-6, 6) for _ in range(length))
            d = rng.randint(1, 4)
            try:
                split = split_coweight(lam, d)
            except ValueError as exc:
                return False, f"lam={lam} d={d}: {exc}"
            if tuple(sum(col) for col in zip(*split.parts)) != lam:
                return False, f"lam={lam} d={d}: parts do not sum back"
        return True, None

    return [("balanced coweight splits (100 random)", random_splits)]


def _suite_factorization(cfg, rng):
    n = max(cfg.rank, 2)
    steps = []
    for d in range(1, min(cfg.d_max, 3) + 1):
        def check(d=d):
            for lam in dominant_coweights(n, 2, -2):
                rep = verify_factorization(lam, d)
                if not rep["ok"]:
                    return False, f"lam={lam}: scale {rep['scale']}"
            return True, None

        steps.append((f"leading terms factor through level-1 classes (rank {n}, level {d})", check))
    return steps


def _suite_delta_bases(cfg, rng):
    steps = []

    def random_sets():
        for _ in range(20):
            n = rng.randint(1, 4)
            points = set()
            while len(points) < n:
                points.add((rng.randint(0, 4), rng.randint(0, 4)))
            delta_S_schur(PlaneSubset(sorted(points)))
        return True, None

    steps.append(("determinant bases: schur form proportional to direct form (20 random)", random_sets))

    def showcase():
        delta_S_schur(PlaneSubset([(5, 0), (3, 1), (7, 1), (2, 2)]))
        return True, None

    steps.append(("mixed-multiplicity showcase set", showcase))

    def staircase():
        S = PlaneSubset([(0, 0), (1, 0), (2, 0)])
        alt, _scalar = delta_S_schur(S)
        roots = RootData.type_a(3)
        ctx = VarContext(3)
        vand = roots.vandermonde(ctx)
        if alt != vand:
            return False, poly_to_text(alt - vand)
        return True, None

    steps.append(("staircase set gives the plain alternant", staircase))
    return steps


def _suite_ideal_membership(cfg, rng):
    n = max(cfg.rank, 2)
    roots = RootData.type_a(n)
    steps = []
    for d in range(1, min(cfg.d_max, 3) + 1):
        def check(d=d):
            rep = verify_containment(n, d, 2, 1, normalization="raw")
            if rep["ok"]:
                return True, f"{rep['checked']} classes"
            first = rep["failures"][0]
            return False, first["witness"]["coefficient"]

        steps.append((f"level-{d} classes lie in the symbolic power (rank {n})", check))

    def unit_gap_reduced():
        for d in range(1, min(cfg.d_max, 3) + 1):
            spec = IdealSpec(roots, d)
            dressings = itertools.product(range(2), repeat=n)
            for _lam, _ye, poly in class_polys(roots, d, dominant_coweights(n, 1, 0), dressings):
                ok, witness = membership(poly, spec)
                if not ok:
                    return False, witness["coefficient"]
        return True, None

    steps.append(("divided classes on the unit-gap box stay in the ideal", unit_gap_reduced))
    return steps


def _suite_spanning(cfg, rng):
    window = Window(0, 1, min(cfg.y_max, 2))
    steps = []
    for d in range(0, min(cfg.d_max, 2) + 1):
        def check(d=d):
            rep = verify_spanning(2, d, window)
            if rep["ok"]:
                return True, f"span {rep['span_dim']} == slice {rep['slice_dim']}"
            return False, f"span {rep['span_dim']} != slice {rep['slice_dim']}"

        steps.append((f"class span equals the windowed slice at level {d} (rank 2)", check))

    def narrow_dim():
        slice_ = graded_dimension(IdealSpec(RootData.type_a(2), 1), 1, Window(0, 1, 1))
        ok = slice_.dimension == 5
        return ok, None if ok else f"dimension {slice_.dimension}"

    steps.append(("level-1 narrow-window slice has dimension 5", narrow_dim))
    return steps


def _suite_springer_module(cfg, rng):
    roots = RootData.type_a(2)
    ctx = VarContext(2)
    window = Window(0, 2, min(cfg.y_max, 2))
    steps = []

    def axioms():
        slices = {
            d: graded_dimension(IdealSpec(roots, d), d, window).basis for d in (1, 2)
        }
        module = EquivaluedModule(roots, 1)
        grade_basis = module_slice_basis(module, 0, window).basis

        def combo(basis):
            return LaurentPoly.sum(ctx, [rng.randint(-2, 2) * p for p in basis])

        for _ in range(10):
            a = combo(slices[1])
            b = combo(slices[2])
            m = module.element(0, combo(grade_basis))
            if module_act(a * b, m, 3) != module_act(a, module_act(b, m, 2), 1):
                return False, poly_to_text(a * b)
            a2 = combo(slices[1])
            if module_act(a + a2, m, 1).value != (
                module_act(a, m, 1).value + module_act(a2, m, 1).value
            ):
                return False, poly_to_text(a + a2)
        return True, None

    steps.append(("module axioms on random slice elements (rank 2)", axioms))

    def slices_match():
        module0 = EquivaluedModule(roots, 0)
        for j in (0, 1, 2):
            lhs = module_slice_basis(module0, j, Window(0, 1, 2))
            rhs = graded_dimension(IdealSpec(roots, j), None, Window(0, 1, 2))
            if [poly_to_text(p) for p in lhs.basis] != [poly_to_text(p) for p in rhs.basis]:
                return False, f"grade {j}"
        narrow = module_slice_basis(EquivaluedModule(roots, 1), 0, Window(0, 1, 1))
        if narrow.dimension != 6:
            return False, f"dimension {narrow.dimension}"
        return True, None

    steps.append(("module slices agree with ideal slices", slices_match))

    def gatekeeping():
        module = EquivaluedModule(roots, 1)
        try:
            module.element(0, LaurentPoly.one(ctx))
        except NotInIdeal:
            return True, None
        return False, "constructor accepted a non-member"

    steps.append(("non-members are rejected at construction", gatekeeping))
    return steps


def _suite_chain_example(cfg, rng):
    steps = []

    def single():
        for d in range(0, 4):
            coeffs = chain_poincare(ChainModel(d, 1))
            if coeffs != [1] * (d + 2):
                return False, " ".join(str(v) for v in coeffs)
        return True, None

    steps.append(("single component counts", single))

    def glued():
        if chain_poincare(ChainModel(1, 3)) != [1, 1, 3]:
            return False, " ".join(str(v) for v in chain_poincare(ChainModel(1, 3)))
        for d in range(0, 4):
            for length in range(1, 6):
                coeffs = chain_poincare(ChainModel(d, length))
                if sum(coeffs) != (d + 2) + (length - 1):
                    return False, f"d={d} length={length}"
                if coeffs[0] != 1 or any(v < 0 for v in coeffs):
                    return False, f"d={d} length={length}"
        return True, None

    steps.append(("glued chain counts", glued))
    return steps


SUITES = {
    "daha-relations": _suite_daha_relations,
    "shift-iso": _suite_shift_iso,
    "e-lambda": _suite_e_lambda,
    "abelian-zalg": _suite_abelian_zalg,
    "localization": _suite_localization,
    "splitting": _suite_splitting,
    "factorization": _suite_factorization,
    "delta-bases": _suite_delta_bases,
    "ideal-membership": _suite_ideal_membership,
    "spanning": _suite_spanning,
    "springer-module": _suite_springer_module,
    "chain-example": _suite_chain_example,
}

SUITE_NAMES = tuple(SUITES)
WEYL_GROUP_CAP = 6000  # the most elements of a Weyl group `dims` builds, one matrix each


def run_suite(cfg):
    """Execute the configured suite (or all of them) and build the Report.

    Steps that would start after the per-suite budget is exhausted are
    reported as skipped with the budget as witness; a crashed step is a
    failure whose witness is the exception and the file and line that raised it.
    """
    if cfg.suite != "all" and cfg.suite not in SUITES:
        raise UnknownSuite(f"unknown suite {cfg.suite!r}")
    names = list(SUITE_NAMES) if cfg.suite == "all" else [cfg.suite]
    started = time.monotonic()
    entries = []
    for name in names:
        rng = random.Random(f"{cfg.seed}:{name}")
        steps = SUITES[name](cfg, rng)
        suite_started = time.monotonic()
        for label, thunk in steps:
            full = label if cfg.suite != "all" else f"{name}: {label}"
            if time.monotonic() - suite_started > cfg.budget:
                entries.append(
                    {
                        "label": full,
                        "status": "skipped",
                        "witness": f"budget {cfg.budget:g}s exceeded",
                    }
                )
                continue
            try:
                ok, witness = thunk()
            except Exception as exc:  # a crash is a failure, not an abort
                frame = traceback.extract_tb(exc.__traceback__)[-1]
                where = f"{os.path.basename(frame.filename)}:{frame.lineno}"
                ok, witness = False, f"{type(exc).__name__}: {exc} (at {where})"
            if ok:
                entries.append({"label": full, "status": "pass", "witness": witness})
            else:
                entries.append(
                    {
                        "label": full,
                        "status": "fail",
                        "witness": witness or "no witness recorded",
                    }
                )
    return Report(cfg.suite, entries, cfg.echo(), time.monotonic() - started)


# -- command line ----------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="diffalg",
        description="exact verification suites for the operator and ideal identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=list(SUITE_NAMES) + ["all"])
    verify.add_argument("--rank", type=int, default=2, help="number of variables (default 2)")
    verify.add_argument("--dmax", type=int, default=2, help="largest algebra degree (default 2)")
    verify.add_argument("--ymax", type=int, default=4, help="y-degree cap for windows (default 4)")
    verify.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    verify.add_argument("--budget", type=float, default=600.0, help="per-suite budget in seconds, checked only before "
                        "each step: a step due past it is skipped, a started step runs to its end (default 600)")
    verify.add_argument("--out", help="write the JSON report to this path")
    verify.add_argument("--matter-config", help="JSON file with abelian matter characters")

    dims = sub.add_parser("dims", help="dimension of a windowed ideal slice")
    dims.add_argument("--rank", type=int, required=True)
    dims.add_argument("--d", type=int, required=True, help="symbolic power / sign twist")
    dims.add_argument("--xmin", type=int, default=0)
    dims.add_argument("--xmax", type=int, default=1)
    dims.add_argument("--ymax", type=int, default=2)
    dims.add_argument("--kind", default="A", choices=["A", "B2", "G2"])
    dims.add_argument("--plain", action="store_true", help="skip the isotypic projection")
    dims.add_argument("--basis", action="store_true", help="print the basis polynomials")

    ev = sub.add_parser("eval", help="evaluate a generator word to an operator")
    ev.add_argument("--expr", required=True, help='word such as "s1 pi y2 (c + h)"')
    ev.add_argument("--rank", type=int, default=2)
    ev.add_argument("--cshift", type=int, default=0, help="substitute c -> c + CSHIFT*h in the result")
    return parser


def _cmd_verify(args):
    matter = None
    if args.matter_config:
        with open(args.matter_config) as handle:
            data = json.load(handle)
        matter = data if isinstance(data, list) else [data]
    cfg = CheckConfig(
        args.suite,
        rank=args.rank,
        d_max=args.dmax,
        y_max=args.ymax,
        seed=args.seed,
        budget=args.budget,
        matter=matter,
    )
    report = run_suite(cfg)
    for entry in report.entries:
        line = f"[{entry['status']:>7}] {entry['label']}"
        if entry["status"] != "pass" and entry["witness"]:
            line += f"  ({entry['witness']})"
        print(line)
    counts = report.counts()
    print(
        f"suite {report.suite}: {counts['pass']} pass, {counts['fail']} fail, "
        f"{counts['skipped']} skipped in {report.wall_time:.1f}s"
    )
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(serialize(report))
        print(f"report written to {args.out}")
    return 0 if report.all_pass() else 1


def _cmd_dims(args):
    _require_rank(args.rank)
    window = Window(args.xmin, args.xmax, args.ymax)
    window.check_size(args.rank)
    if args.kind == "A":
        order = math.factorial(args.rank)
        if order > WEYL_GROUP_CAP:
            raise InvalidRank(f"the Weyl group of A{args.rank} has {order} elements (cap {WEYL_GROUP_CAP})")
        roots = RootData.type_a(args.rank)
    else:
        roots = RootData.b2() if args.kind == "B2" else RootData.g2()
    if roots.rank != args.rank:
        raise InvalidRank(f"kind {args.kind} fixes rank {roots.rank}, got {args.rank}")
    spec = IdealSpec(roots, args.d)
    twist = None if args.plain else args.d
    slice_ = graded_dimension(spec, twist, window)
    print(f"dimension {slice_.dimension} on {window!r}")
    if args.basis:
        for poly in slice_.basis:
            print(poly_to_text(poly))
    return 0


def _cmd_eval(args):
    ctx = VarContext(args.rank)
    word = daha.parse_word(args.expr, ctx)
    op = daha.evaluate_word(ctx, word).subst_c(c_to_h=args.cshift)
    print(daha.op_to_text(op))
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "dims":
            return _cmd_dims(args)
        return _cmd_eval(args)
    except (ValueError, OSError, RecursionError) as exc:  # bad input or files: one line, no traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
