"""Seeded frame corpora and the CLI command lists of the three workloads.

Only rptgeo's public API is used.  Every frame is written as a spec file,
checked to pass ``validate`` and to have the class it was built for, and
every command carries the output expected from the construction alone:
exit code, class, check statuses and report scalars.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from rptgeo import (FrameAlgebra, Scalar, SchemaError, bundled_spec_path,
                    build_example, classify, golden_tables, load_spec,
                    mat_identity, mat_inv, mat_mul, mat_transpose, save_spec,
                    validate)

from perfbench.tracer import is_signed_permutation

WORKLOADS = ("dense-numeric", "symbolic-rational", "cli-mix")
DEFAULT_SEED = 0

W0, W3, OUTSIDE = "W0", "W3-strict", "outside-implemented-classes"

GEOMETRY_IDS = ("frame-structure", "levi-civita", "structure-tensor-identities",
                "first-bianchi")
RPT_IDS = ("torsion-3form", "torsion-transformation-identities",
           "transformation-cyclic-invariance", "naturality-rpt",
           "naturality-canonical", "naturality-p-connection",
           "connection-averaging", "torsion-recovery", "curvature-cyclic-identity")
THEOREM_IDS = ("curvature-comparison", "torsion-type", "p-tensor-criterion",
               "parallel-torsion")
FAMILY_ID = "family-parameter-equivalence"
GOLDEN_IDS = ("golden-torsion", "golden-connection", "golden-curvature",
              "golden-torsion_derivative", "golden-scalars")

# Passes of fresh frames generated for the workloads whose frames never
# repeat; a run ends early if it uses them all.
FRESH_PASSES = 5

# Scalars of the single-bracket frame e1*e2 = e3 with e4 central (the
# Heisenberg algebra plus a line), orthonormal, block-swap product.
SINGLE_BRACKET_SCALARS = {"tau": "-1/2", "nabla_P_norm_sq": "4"}

# Warm-up command frame: fixed, so set-up time does not depend on the seed.
WARMUP_LAMBDA = (1, 2, 3, 5)


@dataclass
class Command:
    key: str       # stable within one corpus, e.g. "p0/dim8/check"
    argv: list     # CLI arguments
    expect: dict   # exit, class, checks (id -> status), scalars (name -> text)


@dataclass
class Corpus:
    passes: list    # list of lists of Command
    cycle: bool     # passes repeat when they run out
    warmup: list    # argv of the untimed warm-up command

    def commands(self):
        return [cmd for one_pass in self.passes for cmd in one_pass]


# ---------------------------------------------------------------------------
# frame constructions


def swap_matrix(dim: int, params: tuple) -> list:
    half = dim // 2
    one, zero = Scalar.one(params), Scalar.zero(params)
    return [[one if abs(i - j) == half else zero for j in range(dim)]
            for i in range(dim)]


def family(lam, params: tuple = ()) -> FrameAlgebra:
    """The bundled family at rational lambda, in the given parameter context."""
    base = build_example(lam)
    if not params:
        return base
    return _lift(base, params)


def _lift(fa: FrameAlgebra, params: tuple) -> FrameAlgebra:
    def up(s):
        return Scalar.constant(params, s.constant_value())

    c = [[[up(s) for s in cell] for cell in row] for row in fa.c]
    return FrameAlgebra(fa.dim, params, c, [[up(s) for s in row] for row in fa.g],
                        [[up(s) for s in row] for row in fa.p])


def abelian_plane() -> FrameAlgebra:
    """Abelian 2-dim frame with identity metric and swap product (class W0)."""
    zero = Scalar.zero(())
    c = [[[zero] * 2 for _ in range(2)] for _ in range(2)]
    return FrameAlgebra(2, (), c, mat_identity(2, ()), swap_matrix(2, ()))


def single_bracket_frame() -> FrameAlgebra:
    """Valid frame outside the skew-cyclic class: [e1, e2] = e3."""
    zero, one = Scalar.zero(()), Scalar.one(())
    c = [[[zero] * 4 for _ in range(4)] for _ in range(4)]
    c[0][1][2] = one
    c[1][0][2] = -one
    return FrameAlgebra(4, (), c, mat_identity(4, ()), swap_matrix(4, ()))


def direct_sum(fa1: FrameAlgebra, fa2: FrameAlgebra) -> FrameAlgebra:
    """Orthogonal direct sum of two frames with a common parameter context."""
    n1, n = fa1.dim, fa1.dim + fa2.dim
    zero = Scalar.zero(fa1.params)
    c = [[[zero] * n for _ in range(n)] for _ in range(n)]
    g = [[zero] * n for _ in range(n)]
    p = [[zero] * n for _ in range(n)]
    for off, fa in ((0, fa1), (n1, fa2)):
        for i in range(fa.dim):
            for j in range(fa.dim):
                g[off + i][off + j] = fa.g[i][j]
                p[off + i][off + j] = fa.p[i][j]
                for k in range(fa.dim):
                    c[off + i][off + j][off + k] = fa.c[i][j][k]
    return FrameAlgebra(n, fa1.params, c, g, p)


def conjugate(fa: FrameAlgebra, s: list) -> FrameAlgebra:
    """The same frame in the basis given by the columns of the invertible s."""
    n = fa.dim
    s_inv = mat_inv(s)
    zero = Scalar.zero(fa.params)
    c = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            br = [zero] * n  # [s_i, s_j] in the old basis
            for a in range(n):
                if s[a][i].is_zero:
                    continue
                for b in range(n):
                    if s[b][j].is_zero:
                        continue
                    w = s[a][i] * s[b][j]
                    for m in range(n):
                        if not fa.c[a][b][m].is_zero:
                            br[m] = br[m] + w * fa.c[a][b][m]
            for k in range(n):
                acc = zero
                for m in range(n):
                    if not br[m].is_zero:
                        acc = acc + s_inv[k][m] * br[m]
                c[i][j][k] = acc
                c[j][i][k] = -acc
    g = mat_mul(mat_transpose(s), mat_mul(fa.g, s))
    p = mat_mul(s_inv, mat_mul(fa.p, s))
    return FrameAlgebra(n, fa.params, c, g, p)


def unimodular(rng: random.Random, dim: int, params: tuple = ()) -> list:
    """S0*Q, integer with determinant +-1.  S0 = L*U has unit triangular
    factors whose off-diagonal entries are a fixed sign pattern, so it is
    dense; Q is a seeded signed permutation.  The seed only relabels and
    re-signs the new basis, so the work per frame does not depend on it."""
    signs = random.Random("unimodular/%d" % dim)
    lower = mat_identity(dim, params)
    upper = mat_identity(dim, params)
    for i in range(dim):
        for j in range(dim):
            if i > j:
                lower[i][j] = Scalar.constant(params, signs.choice((-1, 1)))
            elif i < j:
                upper[i][j] = Scalar.constant(params, signs.choice((-1, 1)))
    order = list(range(dim))
    rng.shuffle(order)
    zero = Scalar.zero(params)
    q = [[zero] * dim for _ in range(dim)]
    for col, row in enumerate(order):
        q[row][col] = Scalar.constant(params, rng.choice((-1, 1)))
    return mat_mul(mat_mul(lower, upper), q)


def generic_lambda(rng: random.Random) -> tuple:
    """Four rationals with distinct magnitudes from 1/2, 1, 3/2, 5/2: a strict
    W3 family member whose torsion is not parallel.  The magnitudes are fixed
    so that the work per frame does not depend on the seed."""
    mags = rng.sample((1, 2, 3, 5), 4)
    return tuple(Fraction(m * rng.choice((-1, 1)), 2) for m in mags)


def parallel_lambda(rng: random.Random, eps: int) -> tuple:
    """lambda3 = eps*lambda1, lambda4 = eps*lambda2: parallel torsion."""
    l1, l2 = generic_lambda(rng)[:2]
    return (l1, l2, eps * l1, eps * l2)


# ---------------------------------------------------------------------------
# expected outputs


def family_scalars(lambdas) -> dict:
    """tau, tau' and |nabla P|^2 of the family, summed over the blocks of a
    direct sum (every one of them is additive over orthogonal ideals)."""
    golden = golden_tables()["scalars"]
    total = {name: Fraction(0) for name in golden}
    for lam in lambdas:
        values = dict(zip(("l1", "l2", "l3", "l4"), lam))
        for name, expr in golden.items():
            total[name] += expr.substitute(values)
    return total


def scalar_texts(values: dict, params: tuple = ()) -> dict:
    return {name: str(Scalar.constant(params, v)) for name, v in values.items()}


def suite_statuses(label: str, family_kind=None) -> dict:
    """Check id -> status of ``check --suite all`` on a valid frame.

    family_kind is None for frames that are not literally the bundled family,
    "generic" or "degenerate" (all four parameters zero) otherwise."""
    statuses = {cid: "pass" for cid in GEOMETRY_IDS}
    if label == OUTSIDE:
        statuses.update({cid: "skip" for cid in RPT_IDS + THEOREM_IDS + (FAMILY_ID,)})
        return statuses
    statuses.update({cid: "pass" for cid in RPT_IDS + THEOREM_IDS})
    if label != W3:
        statuses["torsion-type"] = "skip"
    if family_kind is not None:
        statuses[FAMILY_ID] = "skip" if family_kind == "degenerate" else "pass"
    return statuses


def expect(command: str, label: str, scalars: dict, family_kind=None,
           killing: bool = True) -> dict:
    if command == "validate":
        return {"exit": 0 if killing else 1, "class": "not-computed",
                "checks": {"frame-structure": "pass",
                           "killing-metric": "pass" if killing else "fail"},
                "scalars": {}}
    if command == "report":
        checks = {"frame-structure": "pass"}
    else:
        checks = suite_statuses(label, family_kind)
        if command == "example":
            checks.update({cid: "pass" for cid in GOLDEN_IDS})
    return {"exit": 0, "class": label, "checks": checks, "scalars": scalars}


# ---------------------------------------------------------------------------
# the workloads


class _Writer:
    """Writes verified spec files into the corpus directory."""

    def __init__(self, directory: Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def frame(self, name: str, fa: FrameAlgebra, label: str) -> str:
        structure = validate(fa)
        if not structure.passed:
            raise RuntimeError("corpus frame %s fails validate" % name)
        found = classify(fa).label
        if found != label:
            raise RuntimeError("corpus frame %s has class %s, built for %s"
                               % (name, found, label))
        path = self.directory / (name + ".json")
        save_spec(fa, path)
        try:
            reloaded = load_spec(path)
        except SchemaError as exc:
            # the spec grammar has no division by a non-constant, so a frame
            # with rational brackets cannot be written as a spec file
            raise RuntimeError("corpus frame %s does not reload: %s" % (name, exc)) from exc
        if reloaded != fa:
            raise RuntimeError("corpus frame %s changes when reloaded" % name)
        return str(path)


def _json(argv):
    return list(argv) + ["--format", "json"]


def _dense_numeric(rng, out: _Writer) -> list:
    """Per pass: two 6-dim and one 8-dim conjugated direct sums, each checked
    once.  Two thirds of the commands are 6-dim, so the median command time
    falls among them and not between the two sizes."""
    passes = []
    for k in range(FRESH_PASSES):
        one_pass = []
        for f, dim in enumerate((6, 6, 8)):
            lams = [generic_lambda(rng)]
            second = abelian_plane()
            if dim == 8:
                lams.append(generic_lambda(rng))
                second = family(lams[1])
            fa = conjugate(direct_sum(family(lams[0]), second), unimodular(rng, dim))
            if is_signed_permutation(fa.p):
                raise RuntimeError("dense-numeric frame has a signed-permutation P")
            path = out.frame("p%d-f%d-dim%d" % (k, f, dim), fa, W3)
            one_pass.append(Command(
                "p%d/f%d/dim%d/check" % (k, f, dim), _json(["check", path]),
                expect("check", W3, scalar_texts(family_scalars(lams)))))
        passes.append(one_pass)
    return passes


RATIONAL_PARAMS = ("a", "b")
FRAMES_PER_SYMBOLIC_PASS = 2


def scaled_family(rng) -> tuple:
    """The family at seeded lambda in the basis (1 + a*b)*U, U unimodular.

    Brackets stay polynomial (they scale by 1 + a*b) while the metric
    determinant is (1 + a*b)^8, so the metric inverse and everything built
    on it are true rational functions."""
    params = RATIONAL_PARAMS
    lam = generic_lambda(rng)
    a, b = (Scalar.parameter(params, name) for name in params)
    factor = Scalar.one(params) + a * b
    s = [[factor * x for x in row] for row in unimodular(rng, 4, params)]
    return conjugate(family(lam, params), s), lam


def _symbolic_rational(rng, out: _Writer) -> list:
    """Per pass: fresh scaled family frames, each given report then check."""
    passes = []
    for k in range(FRESH_PASSES):
        one_pass = []
        for f in range(FRAMES_PER_SYMBOLIC_PASS):
            fa, lam = scaled_family(rng)
            if fa.metric_det.is_constant:
                raise RuntimeError("symbolic-rational frame has a constant metric determinant")
            path = out.frame("p%d-f%d" % (k, f), fa, W3)
            scalars = scalar_texts(family_scalars([lam]), RATIONAL_PARAMS)
            for command in ("report", "check"):
                one_pass.append(Command("p%d/f%d/%s" % (k, f, command),
                                        _json([command, path]),
                                        expect(command, W3, scalars)))
        passes.append(one_pass)
    return passes


CLI_MIX_FAMILY_FRAMES = 32      # validate + report each
CLI_MIX_CHECKED_FAMILY = 8      # of which this many also run check
CLI_MIX_BUNDLED_LAMBDAS = 4     # example_w3.json loaded with --lambda


def _lambda_arg(lam) -> str:
    # one token with "=": argparse would take a leading "-5/2" for an option
    return "--lambda=" + ",".join(str(v) for v in lam)


def _cli_mix(rng, out: _Writer) -> list:
    """One pass of small commands on 4-dim swap-product frames."""
    commands = []

    def frame_commands(name, path, label, scalars, family_kind, kinds,
                       killing=True, extra=()):
        for command in kinds:
            commands.append(Command("%s/%s" % (name, command),
                                    _json([command, path, *extra]),
                                    expect(command, label, scalars, family_kind,
                                           killing)))

    for f in range(CLI_MIX_FAMILY_FRAMES):
        lam = generic_lambda(rng)
        kinds = ("validate", "report", "check") if f < CLI_MIX_CHECKED_FAMILY \
            else ("validate", "report")
        path = out.frame("family%d" % f, family(lam), W3)
        frame_commands("family%d" % f, path, W3,
                       scalar_texts(family_scalars([lam])), "generic", kinds)
    all_kinds = ("validate", "report", "check")
    special = [("w0", (0, 0, 0, 0), W0, "degenerate"),
               ("parallel+", parallel_lambda(rng, 1), W3, "generic"),
               ("parallel-", parallel_lambda(rng, -1), W3, "generic")]
    for name, lam, label, kind in special:
        path = out.frame(name, family(lam), label)
        frame_commands(name, path, label, scalar_texts(family_scalars([lam])),
                       kind, all_kinds)

    path = out.frame("single-bracket", single_bracket_frame(), OUTSIDE)
    frame_commands("single-bracket", path, OUTSIDE, dict(SINGLE_BRACKET_SCALARS),
                   None, all_kinds, killing=False)

    bundled = str(bundled_spec_path())
    symbolic = {name: str(expr) for name, expr in golden_tables()["scalars"].items()}
    frame_commands("bundled", bundled, W3, symbolic, "generic", all_kinds)
    for k in range(CLI_MIX_BUNDLED_LAMBDAS):
        lam = generic_lambda(rng)
        frame_commands("bundled-lambda%d" % k, bundled, W3,
                       scalar_texts(family_scalars([lam])), "generic", all_kinds,
                       extra=(_lambda_arg(lam),))

    commands.append(Command("example/symbolic", _json(["example"]),
                            expect("example", W3, symbolic, "generic")))
    for k, lam in enumerate((generic_lambda(rng), parallel_lambda(rng, 1))):
        commands.append(Command(
            "example/lambda%d" % k, _json(["example", _lambda_arg(lam)]),
            expect("example", W3, scalar_texts(family_scalars([lam])), "generic")))
    return [commands]


_BUILDERS = {
    "dense-numeric": (_dense_numeric, False),
    "symbolic-rational": (_symbolic_rational, False),
    "cli-mix": (_cli_mix, True),
}


def generate(workload: str, seed: int, directory) -> Corpus:
    """Write the workload's spec files for ``seed`` into ``directory``."""
    builder, cycle = _BUILDERS[workload]
    out = _Writer(directory)
    passes = builder(random.Random("%s/%d" % (workload, seed)), out)
    warm = out.frame("warmup", family(WARMUP_LAMBDA), W3)
    return Corpus(passes, cycle, _json(["check", warm]))
