"""The three benchmark workloads: seeded inputs, timed jobs, answer checks.

A workload is built from a seed in the worker's set-up and yields a list of
jobs.  Each job has a kind (the question it answers), a ``run`` callable that
is timed, and a ``check`` callable that is not: it compares the answer with
``src/virtres/data/expected.json``, the ``virtres.fixtures`` constants, or the
constants below, and returns ``None`` when the answer is right or a reason.

Jobs look every virtres function up through its module at call time, so the
span recorder's wrappers (installed after set-up) see every call.

Kinds: ``ideal`` builds or saturates an ideal, ``minres`` computes a minimal
free resolution, ``pair`` a virtual resolution of a pair (M, d), ``certify``
answers a yes/no question (virtuality, regularity, Hilbert-Burch).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import virtres as vr
from virtres import cli, fixtures
from virtres.complexes import BettiTable

DATA = Path(vr.__file__).resolve().parent / "data"
EXPECTED = json.loads((DATA / "expected.json").read_text())

# curve-reg at (0,0): the witnesses whose dimension the exact spectral
# sequence determines (sheaf_cohomology_exact), as (i, p, dim).  They are
# invariant under the torus rescaling.  Every other witness comes from the
# Ext-colimit heuristic and is only recorded.
CURVE_00_EXACT = {
    (1, (0, 6), 17),
    (1, (0, 7), 17),
    (1, (0, 8), 17),
    (2, (1, 0), 3),
    (2, (2, 0), 2),
    (2, (3, 0), 1),
}
# The (i, p) at which the exact engine leaves H^i_B undetermined, so that
# regularity_check falls back to the Ext colimit.
CURVE_00_FALLBACK = {(1, (0, p)) for p in range(6)} | {
    (1, (1, p)) for p in range(1, 5)
} | {(2, (0, p)) for p in range(6)}
# The (0,0) check covers every point p >= (0,0) of the default window
# (-2,-3)..(3,8) of the seed commit, as one windowed call per box below: per
# row p_2 <= 5, one box for p_1 <= 0 and one for p_1 >= 1, then rows 6..8.
# The union of their witnesses is the full check.  (2,1) is in the
# regularity.
CURVE_00_WINDOWS = [
    box for k in range(6) for box in (((-2, k), (0, k)), ((1, k), (3, k)))
] + [((-2, 6), (3, 8))]

# curve-reg repeats its cheap jobs on fresh copies of the ideal, in groups
# placed between the regularity calls, so that their times are well above
# timer noise and sample the machine's speed across the whole pass.
CURVE_CHEAP_PER_GROUP = 5


@dataclass
class Job:
    name: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    # what to record from the answer besides checking it
    note: Callable[[object], object] | None = None


KINDS = ("ideal", "minres", "pair", "certify")


# ---------------------------------------------------------------------------
# seeded inputs


def torus(rng: random.Random, ring) -> list[int]:
    """A random point of the torus (F_p^*)^nvars."""
    return [rng.randrange(1, ring.char) for _ in range(ring.nvars)]


def rescale(poly, lam: list[int]):
    """The polynomial f(lam_0 x_0, ..., lam_n x_n)."""
    ring = poly.ring
    p = ring.char
    terms = {}
    for key, c in poly.terms.items():
        for lj, e in zip(lam, ring.codec.decode(key)):
            if e:
                c = c * pow(lj, e, p) % p
        terms[key] = c
    return vr.Polynomial(ring, terms)


def write_rescaled(name: str, rng: random.Random, out_dir: Path) -> Path:
    """Write the bundled ``name``.vr under a seeded torus rescaling."""
    job = cli.parse_job((DATA / f"{name}.vr").read_text())
    lam = torus(rng, job.ring)
    ideals = {
        key: vr.ideal(job.ring, [rescale(g.coordinate(0), lam) for g in I.gens])
        for key, I in job.ideals.items()
    }
    path = out_dir / f"{name}.vr"
    path.write_text(cli.render_job(cli.JobSpec(job.ring, ideals)))
    return path


def load_polys(path: Path):
    job = cli.parse_job(path.read_text())
    I = next(iter(job.ideals.values()))
    return job.ring, [g.coordinate(0) for g in I.gens]


def rescale_points(points, lams):
    """Apply one torus element per factor to each point's coordinates."""
    return [
        tuple(tuple(c * l for c, l in zip(v, lam)) for v, lam in zip(pt, lams))
        for pt in points
    ]


# ---------------------------------------------------------------------------
# answer checks


def twist_dict(B: BettiTable) -> dict:
    out: dict = {}
    for (i, d), r in B.entries.items():
        out.setdefault(i, {})[d] = r
    return out


def expect(cond: bool, reason: str) -> str | None:
    return None if cond else reason


def vanishes_at(I, points, ring) -> bool:
    """Every generator of I evaluates to 0 at every point (block coordinates)."""
    p = ring.char
    for pt in points:
        flat = [c for v in pt for c in v]
        for g in I.gens:
            total = 0
            for key, c in g.coordinate(0).terms.items():
                for x, e in zip(flat, ring.codec.decode(key)):
                    if e:
                        c = c * pow(x, e, p) % p
                total += c
            if total % p:
                return False
    return True


def check_betti(B: BettiTable, totals, distinct) -> str | None:
    return expect(
        tuple(B.totals) == tuple(totals) and B.distinct_twists == distinct,
        f"Betti totals {B.totals}, {B.distinct_twists} twists; "
        f"expected {list(totals)}, {distinct}",
    )


# ---------------------------------------------------------------------------
# points: six general points in P^1 x P^1 x P^2


def points_jobs(seed: int, out_dir: Path) -> list[Job]:
    ring = vr.RingSpec.product(list(fixtures.SIX_POINTS_SPACE))
    cfg = vr.random_points(ring, 6, seed)
    state: dict = {}

    def ideal_job():
        state["I"] = vr.points_ideal(cfg)
        state["M"] = vr.QuotientModule.cyclic(state["I"])
        return state["I"]

    def ideal_check(I):
        return expect(
            vanishes_at(I, cfg.points, ring),
            "a generator of the points ideal does not vanish at the points",
        )

    def minres_job():
        return BettiTable.from_complex(vr.free_resolution(state["M"]))

    pairs = []
    for d, (totals, distinct) in fixtures.SIX_POINTS_PAIR_TABLE.items():
        pairs.append(
            Job(
                f"virtual_of_pair{d}",
                "pair",
                lambda d=d: BettiTable.from_complex(vr.virtual_of_pair(state["M"], d)),
                lambda B, t=totals, n=distinct: check_betti(B, t, n),
            )
        )
    certifies = []
    for a, (totals, distinct) in fixtures.SIX_POINTS_BSAT_TABLE.items():

        def certify(a=a):
            J = vr.intersect_with_irrelevant_power(state["I"], a)
            F = vr.free_resolution(vr.QuotientModule.cyclic(J))
            ok, _ = vr.is_virtual(F, state["I"])
            return BettiTable.from_complex(F), F.length, ok

        def certify_check(ans, t=totals, n=distinct):
            B, length, ok = ans
            return (
                check_betti(B, t, n)
                or expect(length == sum(fixtures.SIX_POINTS_SPACE), f"length {length}")
                or expect(ok, "I cap B^a not certified virtual")
            )

        certifies.append(Job(f"bsat_power{a}", "certify", certify, certify_check))
    # The four pair jobs (about 2 s each) sit between the longer jobs, so
    # that pair_s samples the machine's speed across the whole pass, not in
    # one 8 s stretch.  No job reuses a cache that another job of this list
    # fills, except that every job after the first needs its ideal.
    minres = Job(
        "free_resolution",
        "minres",
        minres_job,
        lambda B: check_betti(
            B,
            fixtures.SIX_POINTS_MINIMAL_TOTALS,
            fixtures.SIX_POINTS_MINIMAL_DISTINCT,
        ),
    )
    return [
        Job("points_ideal", "ideal", ideal_job, ideal_check),
        pairs[0],
        minres,
        pairs[1],
        certifies[0],
        pairs[2],
        certifies[1],
        pairs[3],
    ]


# ---------------------------------------------------------------------------
# curve-reg: the (2,8) curve in P^1 x P^2 under a torus rescaling


def curve_jobs(seed: int, out_dir: Path) -> list[Job]:
    rng = random.Random(seed)
    ring, polys = load_polys(write_rescaled("curve", rng, out_dir))
    M = vr.QuotientModule.cyclic(vr.ideal(ring, polys))

    def cheap_group(g: int) -> list[Job]:
        jobs = []
        for r in range(CURVE_CHEAP_PER_GROUP):
            jobs += [
                Job(
                    f"b_saturate#{g}.{r}",
                    "ideal",
                    lambda: (vr.b_saturate(vr.ideal(ring, polys)), vr.ideal(ring, polys)),
                    lambda ans: expect(ans[0] == ans[1], "the curve ideal is not B-saturated"),
                ),
                Job(
                    f"free_resolution#{g}.{r}",
                    "minres",
                    lambda: BettiTable.from_complex(
                        vr.free_resolution(vr.QuotientModule.cyclic(vr.ideal(ring, polys)))
                    ),
                    lambda B: expect(
                        tuple(B.totals) == fixtures.CURVE_BETTI_TOTALS
                        and twist_dict(B) == fixtures.CURVE_TWISTS,
                        f"curve Betti table {B.totals}",
                    ),
                ),
                Job(
                    f"virtual_of_pair(2,1)#{g}.{r}",
                    "pair",
                    lambda: BettiTable.from_complex(
                        vr.virtual_of_pair(
                            vr.QuotientModule.cyclic(vr.ideal(ring, polys)), (2, 1)
                        )
                    ),
                    lambda B: expect(
                        tuple(B.totals) == fixtures.CURVE_PAIR_21_TOTALS
                        and twist_dict(B) == fixtures.CURVE_PAIR_21_TWISTS,
                        f"curve pair (2,1) Betti table {B.totals}",
                    ),
                ),
            ]
        return jobs

    jobs = cheap_group(0)
    jobs.append(
        Job(
            "regularity_check(2,1)",
            "certify",
            lambda: vr.regularity_check(M, (2, 1)),
            lambda rep: expect(
                rep.verdict == "consistent-in-window" and not rep.checks,
                f"(2,1): {rep.verdict} with {len(rep.checks)} witnesses",
            ),
        )
    )
    for g, window in enumerate(CURVE_00_WINDOWS, start=1):
        jobs.append(
            Job(
                f"regularity_check(0,0) window {window}",
                "certify",
                lambda w=window: vr.regularity_check(M, (0, 0), window=w),
                lambda rep, w=window: check_curve_00(rep, w),
                curve_heuristic_witnesses,
            )
        )
        jobs += cheap_group(g)
    return jobs


def check_curve_00(rep, window) -> str | None:
    """The window's exact witnesses, and a refutation if it holds any."""
    (a1, a2), (b1, b2) = window
    want = {w for w in CURVE_00_EXACT if a1 <= w[1][0] <= b1 and a2 <= w[1][1] <= b2}
    witnesses = {(i, tuple(p), dim) for i, p, dim in rep.checks}
    exact = {w for w in witnesses if (w[0], w[1]) not in CURVE_00_FALLBACK}
    return expect(
        exact == want, f"(0,0) {window}: exact witnesses {sorted(exact)}"
    ) or expect(rep.verdict == "refuted" or not want, f"(0,0) {window}: {rep.verdict}")


def curve_heuristic_witnesses(rep) -> list:
    """The (0,0) witnesses that come from the Ext-colimit heuristic."""
    return sorted(
        [i, list(p), dim] for i, p, dim in rep.checks if (i, tuple(p)) in CURVE_00_FALLBACK
    )


# ---------------------------------------------------------------------------
# small-jobs: CLI calls on rescaled .vr files, plus small library jobs


def cli_call(argv: list[str]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv + ["--json"])
    return rc, buf.getvalue()


def cli_check(rc_want: int, check_json: Callable[[dict], str | None]):
    def check(ans):
        rc, text = ans
        if rc != rc_want:
            return f"exit code {rc}, expected {rc_want}"
        return check_json(json.loads(text))

    return check


def printed_ideal(path: Path, out: dict):
    """The ideal of the generators a command printed, in the ring of ``path``."""
    ring_line = path.read_text().split("\n", 1)[0]
    text = ring_line + "\nideal J = " + ", ".join(out["generators"])
    return next(iter(cli.parse_job(text).ideals.values()))


def same_ideal(path: Path):
    """The printed generators generate the ideal of the input file."""

    def check(out: dict) -> str | None:
        ring, polys = load_polys(path)
        J = printed_ideal(path, out)
        return expect(J == vr.ideal(ring, polys), f"{path.name}: saturation changed the ideal")

    return check


def truncation_ok(path: Path, d: tuple[int, ...]):
    """Generated in degrees >= d, inside I, and equal to I in degrees >= d."""

    def check(out: dict) -> str | None:
        ring, polys = load_polys(path)
        I = vr.ideal(ring, polys)
        J = printed_ideal(path, out)
        if not all(vr.vleq(d, g.multidegree()) for g in J.gens):
            return "a truncation generator has degree below d"
        if not I.contains_submodule(J):
            return "the truncation is not inside I"
        for e in [(d[0], d[1]), (d[0] + 1, d[1]), (d[0], d[1] + 1), (d[0] + 1, d[1] + 1)]:
            if vr.hilbert_function(J, e) != vr.hilbert_function(I, e):
                return f"truncation differs from I in degree {e}"
        return None

    return check


def betti_json_equal(want: dict):
    return lambda out: expect(out == want, f"Betti table totals {out.get('totals')}")


def small_jobs(seed: int, out_dir: Path) -> list[Job]:
    rng = random.Random(seed)
    curve = write_rescaled("curve", rng, out_dir)
    surface = write_rescaled("surface", rng, out_dir)
    hirz = write_rescaled("hirzebruch", rng, out_dir)
    # J: the curve generators of degree <= (2,1) + (1,2), the first map of
    # the pair (curve, (2,1)); S/J has a Hilbert-Burch resolution
    ring, polys = load_polys(curve)
    hb = out_dir / "curve_hb.vr"
    J = vr.ideal(ring, [f for f in polys if vr.vleq(f.multidegree(), (3, 3))])
    hb.write_text(cli.render_job(cli.JobSpec(ring, {"J": J})))

    beilinson = {
        i: {tuple(t): r for t, r in row.items()}
        for i, row in fixtures.CURVE_BEILINSON_22.items()
    }

    def beilinson_check(out):
        got: dict = {}
        for b in out["blocks"]:
            got.setdefault(b["i"], {})[tuple(b["twist"])] = b["rank"]
        return expect(got == beilinson, f"Beilinson shape {got}")

    def hb_check(out):
        m = out["matrix"]
        return expect(
            out["minors_generate"] and len(m) == 4 and len(m[0]) == 3,
            "Hilbert-Burch certificate failed",
        )

    c, s, h = str(curve), str(surface), str(hirz)
    jobs = [
        Job("res curve", "minres", lambda: cli_call(["res", "--ideal", c]),
            cli_check(0, betti_json_equal(EXPECTED["curve-res"]))),
        Job("res surface", "minres", lambda: cli_call(["res", "--ideal", s]),
            cli_check(0, betti_json_equal(EXPECTED["surface-res"]))),
        Job("res hirzebruch", "minres", lambda: cli_call(["res", "--ideal", h]),
            cli_check(0, lambda o: expect(
                o["lengths"][-1] == fixtures.HIRZEBRUCH_PDIM, f"pdim {o['lengths'][-1]}"))),
        Job("virtual-of-pair curve 2,1", "pair",
            lambda: cli_call(["virtual-of-pair", "--ideal", c, "--degree", "2,1"]),
            cli_check(0, betti_json_equal(EXPECTED["curve-pair"]["pair"]))),
        Job("beilinson curve 2,2", "pair",
            lambda: cli_call(["beilinson", "--ideal", c, "--degree", "2,2"]),
            cli_check(0, beilinson_check)),
        Job("is-virtual curve 2,1", "certify",
            lambda: cli_call(["is-virtual", "--ideal", c, "--degree", "2,1"]),
            cli_check(0, lambda o: expect(o["virtual"] is True, "winnowed (2,1) not virtual"))),
        Job("reg-check curve 2,1", "certify",
            lambda: cli_call(["reg-check", "--ideal", c, "--degree", "2,1"]),
            cli_check(0, lambda o: expect(
                o["verdict"] == "consistent-in-window" and not o["failures"],
                f"curve (2,1): {o['verdict']}"))),
        Job("reg-check surface 1,1", "certify",
            lambda: cli_call(["reg-check", "--ideal", s, "--degree", "1,1"]),
            cli_check(0, lambda o: expect(
                o["verdict"] == EXPECTED["surface-reg"]["verdict"],
                f"surface (1,1): {o['verdict']}"))),
        Job("saturate curve", "ideal", lambda: cli_call(["saturate", "--ideal", c]),
            cli_check(0, same_ideal(curve))),
        Job("saturate hirzebruch", "ideal", lambda: cli_call(["saturate", "--ideal", h]),
            cli_check(0, same_ideal(hirz))),
        Job("truncate curve 2,2", "ideal",
            lambda: cli_call(["truncate", "--ideal", c, "--degree", "2,2"]),
            cli_check(0, truncation_ok(curve, (2, 2)))),
        Job("bsat-power hirzebruch 4,0", "certify",
            lambda: cli_call(["bsat-power", "--ideal", h, "--exponent", "4,0"]),
            cli_check(0, lambda o: expect(
                o["lengths"][-1] == fixtures.HIRZEBRUCH_CAP_PDIM[4] and o["virtual"],
                f"pdim {o['lengths'][-1]}, virtual {o['virtual']}"))),
        Job("hilbert-burch curve pair", "certify",
            lambda: cli_call(["hilbert-burch", "--ideal", str(hb)]),
            cli_check(0, hb_check)),
    ]
    jobs += library_jobs(rng, hirz)
    return jobs


def library_jobs(rng: random.Random, hirz: Path) -> list[Job]:
    dp_ring = fixtures.del_pezzo_ring()
    lam = torus(rng, dp_ring)
    dp_points = rescale_points([(pt,) for pt in fixtures.DEL_PEZZO_POINTS], [lam])

    def delpezzo():
        I = vr.points_ideal(vr.PointConfig(dp_ring, dp_points))
        return BettiTable.from_complex(vr.free_resolution(vr.QuotientModule.cyclic(I)))

    hz_ring, hz_polys = load_polys(hirz)

    def hirzebruch():
        a, G = vr.search_short_resolution_exponent(vr.ideal(hz_ring, hz_polys))
        return a, G.length

    jobs = [
        Job("del Pezzo points", "minres", delpezzo,
            lambda B: expect(twist_dict(B) == fixtures.DEL_PEZZO_MINIMAL_TWISTS,
                             f"del Pezzo Betti table {B.totals}")),
        Job("Hirzebruch short exponent", "certify", hirzebruch,
            lambda ans: expect(ans == ((4, 0), 2), f"Hirzebruch exponent {ans}")),
    ]
    p1p1 = vr.RingSpec.product([1, 1])
    for m in (4, 5):
        # the fixture's configuration under a torus rescaling: still general
        base = vr.random_points(p1p1, m, seed=11).points
        lam = torus(rng, p1p1)
        pts = rescale_points(base, [lam[:2], lam[2:]])
        want = EXPECTED[f"koszul-m{m}"]

        def koszul(pts=pts):
            C, ok, _ = vr.koszul_pair_for_points(vr.PointConfig(p1p1, pts))
            return [[list(d) for d in t.gen_degrees] for t in C.terms], ok

        jobs.append(
            Job(f"Koszul pair m={m}", "certify", koszul,
                lambda ans, want=want: expect(
                    ans == (want["twists"], want["virtual"]), f"Koszul pair {ans}"))
        )
    return jobs


WORKLOADS = {
    "points": points_jobs,
    "curve-reg": curve_jobs,
    "small-jobs": small_jobs,
}
