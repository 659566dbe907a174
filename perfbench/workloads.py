"""The four workloads: seeded inputs, the op each input drives, and the
check each op's output must pass.

Each workload has a *cycle* of slots. Op number i fills slot i mod (cycle
length) with inputs drawn from `random.Random(f"{seed}/{i}")`, so the mix
of op kinds and sizes is the same in every cycle while the inputs differ.
An op is a plain JSON-able (kind, params) pair. It builds fresh sandlab
objects from its params (untimed), runs once (timed) and is checked
against `reference` (untimed). The check returns a JSON-able record of the
op's outcome; the records of the first cycle feed the behaviour digest.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import subprocess
import sys

import reference as ref
from lab import ROOT

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(HERE, "reference.json")
RULES = ("S", "Sr", "L", "X", "Y")
#: Rules that keep a zero background at zero (Y lowers it).
ZERO_KEEPING = ("S", "Sr", "L", "X")


class CheckFailed(Exception):
    pass


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


# -- specs <-> sandlab objects -------------------------------------------------


def to_height(lab, v):
    if v == "+inf":
        return lab.PLUS_INF
    if v == "-inf":
        return lab.MINUS_INF
    return v


def from_height(lab, v):
    if v is lab.PLUS_INF:
        return "+inf"
    if v is lab.MINUS_INF:
        return "-inf"
    return v


def build(lab, spec):
    C = lab.Configuration
    conv = lambda vs: [to_height(lab, v) for v in vs]
    kind = spec[0]
    if kind == "finite":
        return C.finite({col: to_height(lab, v) for col, v in spec[1]})
    if kind == "periodic":
        return C.periodic(conv(spec[1]))
    if kind == "affine":
        return C.affine(conv(spec[1]), spec[2])
    if kind == "general":
        _, a, core, lv, ls, rv, rs = spec
        return C.general(a, conv(core), (conv(lv), ls), (conv(rv), rs))
    if kind == "raised":
        return build(lab, spec[2]).raise_by(spec[1])
    if kind == "shifted":
        return build(lab, spec[2]).shift(spec[1])
    raise ValueError(f"unknown spec kind {kind!r}")


def spec_of(lab, c):
    """Spec of a configuration's canonical form, read off its fields."""
    c = c.canonicalize()
    f = lambda vs: [from_height(lab, v) for v in vs]
    return ref.of_fields(c.core_start, f(c.core), f(c.left.values), c.left.slope,
                         f(c.right.values), c.right.slope)


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def load_reference():
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


def rand_height(rng, hi, inf_rate=0):
    if inf_rate and rng.random() < inf_rate:
        return rng.choice(("+inf", "-inf"))
    return rng.randint(-hi, hi)


def sample_spec(rng, kind, hi=4, inf_rate=0, max_period=4):
    """A random spec of one of the four constructor classes."""
    v = lambda: rand_height(rng, hi, inf_rate)
    if kind == "finite":
        cols = rng.sample(range(-6, 7), rng.randint(1, 5))
        return ("finite", tuple((c, v()) for c in sorted(cols)))
    if kind == "periodic":
        return ("periodic", tuple(v() for _ in range(rng.randint(1, max_period))))
    if kind == "affine":
        return ("affine", tuple(v() for _ in range(rng.randint(1, max_period))),
                rng.randint(-2, 2))
    core = tuple(v() for _ in range(rng.randint(0, 6)))
    return ("general", rng.randint(-3, 3), core,
            tuple(v() for _ in range(rng.randint(1, max_period))), rng.randint(-2, 2),
            tuple(v() for _ in range(rng.randint(1, max_period))), rng.randint(-2, 2))


KINDS = ("finite", "periodic", "affine", "general")


def image_matches(table, pre, target):
    """True iff one step of `table` maps spec `pre` onto spec `target`."""
    r = table[0]
    plo, phi, ppl, ppr = ref.extent(pre)
    tlo, thi, tpl, tpr = ref.extent(target)
    lo = min(plo - r, tlo, 0) - 2 * ppl * tpl
    hi = max(phi + r, thi, 0) + 2 * ppr * tpr
    img = ref.iterate_window(table, pre, lo, hi, 1)
    return all(img[i - lo] == ref.height(target, i) for i in range(lo, hi + 1))


# == relax ======================================================================


def relax_slots(smoke):
    strata = (((3, 8),) if smoke else
              ((20, 50), (50, 80), (80, 110), (110, 140), (140, 170), (170, 200)))
    return ([("pile", lo, hi) for lo, hi in strata]
            + [("orbit", RULES[k % 5], KINDS[k % 4], k % 3 > 0) for k in range(10)]
            + [("nilpotent", ZERO_KEEPING[k % 4]) for k in range(6)]
            + [("inverse",)] * 2)


def relax_op(rng, slot, smoke):
    kind = slot[0]
    if kind == "pile":
        start = rng.randint(-3, 3)
        pile = tuple((start + j, rng.randint(slot[1], slot[2])) for j in range(rng.randint(2, 4)))
        return ("pile", {"pile": ("finite", pile)})
    if kind == "orbit":
        _, rule, klass, inf = slot
        return ("orbit", {"rule": rule, "config": sample_spec(rng, klass, 4, 0.12 if inf else 0),
                          "steps": 4 if smoke else 24})
    if kind == "nilpotent":
        return ("nilpotent", {"rule": slot[1], "start": rng.randint(-2, 2),
                              "heights": [rng.randint(-3, 6) for _ in range(rng.randint(1, 3))],
                              "steps": 10 if smoke else 60})
    return ("inverse", {"samples": 10 if smoke else 60, "seed": rng.randrange(1, 2**31)})


def relax_prepare(lab, op):
    kind, p = op
    if kind == "pile":
        return lab.make_S(), build(lab, p["pile"])
    if kind == "orbit":
        return lab.make(p["rule"]), build(lab, p["config"])
    if kind == "nilpotent":
        c = lab.Configuration.finite({p["start"] + j: v for j, v in enumerate(p["heights"])})
        return lab.make(p["rule"]), c
    return lab.make_S(), lab.make_Sr()


def relax_run(lab, op, args):
    kind, p = op
    a, b = args
    if kind == "pile":
        # piles here settle in under 1.1 steps per grain; a build that
        # needs four times that has stopped settling
        limit = 4 * sum(v for _, v in p["pile"][1]) + 100
        c, steps = b, 0
        while True:
            nxt = lab.apply(a, c)
            if nxt == c:
                return c, steps
            c, steps = nxt, steps + 1
            if steps > limit:
                raise RuntimeError(f"pile did not settle in {limit} steps")
    if kind == "orbit":
        return lab.iterate(a, b, p["steps"])
    if kind == "nilpotent":
        return lab.check_nilpotent_bounded(a, b, p["steps"])
    return lab.verify_right_inverse(a, b, p["samples"], p["seed"])


def relax_check(lab, op, out, expected):
    kind, p = op
    if kind == "pile":
        c, steps = out
        spec = spec_of(lab, c)
        _, _, core, lv, ls, rv, rs = spec
        expect((lv, ls, rv, rs) == ((0,), 0, (0,), 0), "relaxed pile lost its zero background")
        expect(all(isinstance(v, int) for v in core), "relaxed pile has an infinite column")
        expect(sum(core) == sum(v for _, v in p["pile"][1]), "grain count not conserved")
        padded = [0, 0] + list(core) + [0, 0]
        expect(ref.image_of_window(ref.ZOO_TABLES["S"], padded) == padded[1:-1],
               "relaxed pile is not a fixed point")
        return ["pile", steps, spec]
    if kind == "orbit":
        table = ref.ZOO_TABLES[p["rule"]]
        spec = spec_of(lab, out)
        # past the input's core plus r columns per step both sequences are
        # affine-periodic, so two aligned periods beyond that settle the rest
        reach = table[0] * p["steps"]
        lo, hi = ref.comparison_window((spec, p["config"]))
        lo, hi = lo - reach, hi + reach
        got = [ref.height(spec, i) for i in range(lo, hi + 1)]
        expect(got == ref.iterate_window(table, p["config"], lo, hi, p["steps"]),
               "orbit differs from the reference simulation")
        return ["orbit", spec]
    if kind == "nilpotent":
        what, n = ref.nilpotent_outcome(ref.ZOO_TABLES[p["rule"]], p["start"],
                                        p["heights"], p["steps"])
        d = out.details
        if what == "zero":
            expect(out.verdict == lab.WITNESS_FOUND and d.get("steps_to_zero") == n,
                   f"probe should reach zero at step {n}")
        elif what == "fixed":
            expect(out.verdict == lab.BOUND_EXCEEDED and d.get("fixed_point") is True
                   and d.get("steps_done") == n, f"probe should stop at a fixed point, step {n}")
        else:
            expect(out.verdict == lab.BOUND_EXCEEDED and "fixed_point" not in d
                   and d.get("steps_done") == n, "probe should run out of steps")
        return ["nilpotent", out.verdict, out.grade, sorted(d.items())]
    # S undoes Sr on every configuration, so no sample may be a counterexample
    expect(out.verdict == lab.EXHAUSTED_NO_WITNESS, "S after Sr failed to restore a sample")
    expect(out.details.get("seed") == p["seed"], "report carries the wrong seed")
    return ["inverse", out.verdict, out.grade]


# == search =====================================================================

#: The fixed injectivity sweep: (rule, class, window or period, height,
#: with infinities). Outcomes do not depend on the seed, so they are checked
#: against reference.json, recorded at the commit that defined the benchmark.
INJECTIVE_SWEEP = tuple(
    (rule, klass, n, hh, inf)
    for rule in RULES
    for klass, n, hh, inf in (
        ("F", 1, 1, False), ("F", 1, 2, False), ("F", 2, 1, False),
        ("F", 2, 2, False), ("F", 3, 1, False), ("F", 1, 1, True),
        ("F", 1, 2, True), ("F", 2, 1, True),
        ("P", 4, 1, False), ("P", 6, 1, False), ("P", 4, 2, False),
        ("P", 3, 1, True),
    )
)
SMOKE_SWEEP = tuple(e for e in INJECTIVE_SWEEP if e[2] == 1 and e[3] == 1 and not e[4])


def injective_key(entry) -> str:
    rule, klass, n, hh, inf = entry
    return f"{rule} {klass} {n} {hh}{' inf' if inf else ''}"


def _finite_member(rng, n, hh, density=1.0):
    return {c: (rng.randint(-hh, hh) if rng.random() < density else 0)
            for c in range(-n, n + 1)}


def preimage_target(rng, rule, klass, n, hh, perturb, density=1.0):
    """A target spec: the reference image of a random member of the class,
    with one column moved by one grain when `perturb` is set."""
    table = ref.ZOO_TABLES[rule]
    r = table[0]
    if klass == "P":
        word = [rng.randint(-hh, hh) for _ in range(rng.randint(1, n))]
        img = ref.cyclic_image(table, word)
        if perturb:
            img[rng.randrange(len(img))] += rng.choice((-1, 1))
        return ("periodic", tuple(img))
    bl, br = (0, 0) if klass == "F" else (rng.randint(-hh, hh), rng.randint(-hh, hh))
    member = _finite_member(rng, n, hh, density)
    hs = [bl] * (2 * r) + [member[c] for c in range(-n, n + 1)] + [br] * (2 * r)
    img = ref.image_of_window(table, hs)
    if perturb:
        img[rng.randrange(len(img))] += rng.choice((-1, 1))
    return ("general", -n - r, tuple(img), (ref.background_image(table, bl),), 0,
            (ref.background_image(table, br),), 0)


def brute_preimage_exists(table, klass, n, hh, target):
    """Exhaustive reference search of the bounded class (small bounds only)."""
    values = range(-hh, hh + 1)
    if klass == "P":
        return any(
            ref.equal(("periodic", tuple(ref.cyclic_image(table, w))), target)
            for q in range(1, n + 1) for w in itertools.product(values, repeat=q)
        )
    bgs = [(0, 0)] if klass == "F" else list(itertools.product(values, repeat=2))
    for bl, br in bgs:
        for tup in itertools.product(values, repeat=2 * n + 1):
            pre = ("general", -n, tup, (bl,), 0, (br,), 0)
            if image_matches(table, pre, target):
                return True
    return False


#: 14 plans x 5 rules: enough cheap ops that the eleven heaviest checks of a
#: search cycle stay under 10% of it, so p90 does not sit on their edge.
PREIMAGE_PLANS = (("F", 2, 1, False), ("F", 3, 1, False), ("F", 2, 2, False),
                  ("F", 1, 2, False), ("EC", 2, 1, False), ("EC", 1, 2, False),
                  ("P", 4, 1, False), ("P", 5, 2, False), ("P", 3, 2, False),
                  ("F", 2, 1, True), ("F", 1, 2, True), ("EC", 1, 1, True),
                  ("P", 4, 1, True), ("P", 3, 2, True))
SMOKE_PLANS = (("F", 1, 1, False), ("EC", 1, 1, True), ("P", 3, 1, True))


def search_slots(smoke):
    # wide windows; at window 600 the depth-first search overflows the stack
    wide = (20,) if smoke else (150, 300, 600)
    return ([("injective", e) for e in (SMOKE_SWEEP if smoke else INJECTIVE_SWEEP)]
            + [("preimage", rule) + plan for rule in RULES
               for plan in (SMOKE_PLANS if smoke else PREIMAGE_PLANS)]
            + [("preimage", rule, "F", n, 1, False) for rule in ("S", "Sr") for n in wide])


def search_op(rng, slot, smoke):
    if slot[0] == "injective":
        return ("injective", {"entry": list(slot[1])})
    _, rule, klass, n, hh, perturb = slot
    target = preimage_target(rng, rule, klass, n, hh, perturb, 0.1 if n > 10 else 1.0)
    return ("preimage", {"rule": rule, "klass": klass, "n": n, "h": hh,
                         "target": target, "reachable": not perturb})


def search_prepare(lab, op):
    kind, p = op
    if kind == "injective":
        return (lab.make(p["entry"][0]),)
    return lab.make(p["rule"]), build(lab, p["target"])


def search_run(lab, op, args):
    kind, p = op
    if kind == "injective":
        _, klass, n, hh, inf = p["entry"]
        return lab.check_injective_bounded(args[0], klass, n, hh, inf)
    return lab.check_preimage_bounded(args[0], args[1], p["klass"], p["n"], p["h"])


def _in_class(spec, klass, n, hh, inf):
    """Whether a witness spec lies in the searched bounded class."""
    _, a, core, lv, ls, rv, rs = spec
    ok = lambda v: (v in ("+inf", "-inf")) if isinstance(v, str) else -hh <= v <= hh
    if not inf and any(isinstance(v, str) for v in core + lv + rv):
        return False
    if not all(ok(v) for v in core + lv + rv):
        return False
    if klass == "P":
        return not core and len(rv) <= n and rs == 0
    if klass == "F" and (lv, rv) != ((0,), (0,)):
        return False
    return len(lv) == len(rv) == 1 and ls == rs == 0 and (not core or (
        a >= -n and a + len(core) - 1 <= n))


def search_check(lab, op, out, expected):
    kind, p = op
    witnesses = [spec_of(lab, w) for w in out.witness_configurations()]
    record = [kind, out.verdict, out.grade, witnesses]
    if kind == "injective":
        rule, klass, n, hh, inf = p["entry"]
        want = expected["injective"][injective_key(p["entry"])]
        expect([out.verdict, digest(witnesses)] == want,
               f"injectivity {injective_key(p['entry'])} differs from the reference")
        if out.verdict == lab.WITNESS_FOUND:
            table = ref.ZOO_TABLES[rule]
            a, b = out.witness_configurations()
            expect(lab.verify_witness_pair(lab.make(rule), a, b), "witness pair fails verify_witness_pair")
            expect(not ref.equal(*witnesses), "witness pair is one configuration")
            lo, hi = ref.comparison_window(witnesses)
            r = table[0]
            ia = ref.iterate_window(table, witnesses[0], lo - r, hi + r, 1)
            ib = ref.iterate_window(table, witnesses[1], lo - r, hi + r, 1)
            expect(ia == ib, "witness pair images differ in the reference")
            expect(all(_in_class(w, klass, n, hh, inf) for w in witnesses),
                   "witness outside the searched class")
        return record
    table = ref.ZOO_TABLES[p["rule"]]
    if out.verdict == lab.WITNESS_FOUND:
        (w,) = out.witness_configurations()
        expect(lab.apply(lab.make(p["rule"]), w) == build(lab, p["target"]),
               "apply(witness) != target")
        expect(image_matches(table, witnesses[0], p["target"]),
               "witness image differs from the target in the reference")
        expect(_in_class(witnesses[0], p["klass"], p["n"], p["h"], False),
               "witness outside the searched class")
    else:
        expect(out.verdict == lab.EXHAUSTED_NO_WITNESS, f"unexpected verdict {out.verdict}")
        expect(not p["reachable"], "target is an image of the class, yet no pre-image found")
        expect(not brute_preimage_exists(table, p["klass"], p["n"], p["h"], p["target"]),
               "the reference finds a pre-image the search missed")
    return record


# == compare ====================================================================


def _raise_amount(rng):
    return 10 ** rng.randint(9, 40) + rng.randrange(10**6)


def compare_pair(rng, shape):
    """A pair of configuration specs of the given shape (0 to 6)."""
    inf = 0.08
    if shape == 0:  # a shifted and re-raised affine sequence is the same one
        p, s, t = rng.randint(1, 40), rng.randint(-3, 3), rng.randint(-3, 3)
        x = ("affine", tuple(rand_height(rng, 6, inf) for _ in range(p)), s)
        y = ("raised", s * t, ("shifted", p * t, x))
    elif shape == 1:  # a repeated period word is the same sequence
        w = tuple(rand_height(rng, 6, inf) for _ in range(rng.randint(1, 20)))
        x, y = ("periodic", w), ("periodic", w * rng.randint(2, 3))
    elif shape == 2:  # an affine sequence spelt out as a general one
        p, s = rng.randint(1, 40), rng.randint(-3, 3)
        x = ("affine", tuple(rand_height(rng, 6, inf) for _ in range(p)), s)
        a, b = rng.randint(-8, 0), rng.randint(0, 8)
        y = ("general", a, tuple(ref_spec_heights(x, a, b)),
             tuple(ref_spec_heights(x, a - p, a - 1))[::-1], -s,
             tuple(ref_spec_heights(x, b + 1, b + p)), s)
    else:
        x = ("general", rng.randint(-6, 2),
             tuple(rand_height(rng, 6, inf) for _ in range(rng.randint(0, 10))),
             tuple(rand_height(rng, 6, inf) for _ in range(rng.randint(1, 40))),
             rng.randint(-2, 2),
             tuple(rand_height(rng, 6, inf) for _ in range(rng.randint(1, 40))),
             rng.randint(-2, 2))
        _, a, core, lv, ls, rv, rs = x
        if shape == 3 and core:  # one core column moved a little
            j = rng.randrange(len(core))
            bump = rng.choice((-1, 1, 2))
            new = core[j] if isinstance(core[j], str) else core[j] + bump
            y = ("general", a, core[:j] + (new,) + core[j + 1:], lv, ls, rv, rs)
        elif shape == 4:  # one core column moved by a lot
            j = rng.randrange(len(core)) if core else None
            y = ("general", a, tuple(v if i != j or isinstance(v, str) else v + 10 ** rng.randint(3, 30)
                                     for i, v in enumerate(core)), lv, ls, rv, rs)
        elif shape == 5:  # the right tail climbs one step faster
            y = ("general", a, core, lv, ls, rv, rs + 1)
        else:  # an unrelated sequence with its own periods
            y = sample_spec(rng, "general", hi=6, inf_rate=inf, max_period=40)
    big = _raise_amount(rng)
    return ("raised", big, x), ("raised", big, y)


def ref_spec_heights(spec, lo, hi):
    return [_spec_value(ref.height(spec, i)) for i in range(lo, hi + 1)]


def _spec_value(v):
    if v == ref.PINF:
        return "+inf"
    if v == ref.NINF:
        return "-inf"
    return v


def compare_slots(smoke):
    return [("pair", shape) for shape in range(7)] * (2 if smoke else 20)


def compare_op(rng, slot, smoke):
    x, y = compare_pair(rng, slot[1])
    return ("pair", {"x": x, "y": y})


def compare_prepare(lab, op):
    return build(lab, op[1]["x"]), build(lab, op[1]["y"])


def compare_run(lab, op, args):
    x, y = args
    return lab.distance(x, y), lab.equals(x, y), lab.first_difference(x, y)


NAIVE_GAUGE = 24


def compare_check(lab, op, out, expected):
    x, y = op[1]["x"], op[1]["y"]
    dist, same, col = out
    want = ref.equal(x, y)
    expect(same is want, f"equals says {same}, the reference says {want}")
    if want:
        expect(col is None, "first_difference found a column in equal sequences")
        expect(dist.is_zero, "equal sequences at nonzero distance")
    else:
        expect(col is not None and ref.height(x, col) != ref.height(y, col),
               f"first_difference gave {col}, where the sequences agree")
        expect(not dist.is_zero, "unequal sequences at distance 0")
        naive = ref.naive_distance_exponent(x, y, NAIVE_GAUGE)
        if naive is None:
            expect(dist.exponent > NAIVE_GAUGE, "distance too large for the naive scan")
        else:
            expect(dist.exponent == naive, f"distance 2^-{dist.exponent}, naive 2^-{naive}")
    return ["pair", str(dist), same, col]


# == cli ========================================================================

W = "src/sandlab/witnesses/"
CONFIGS = sorted(f[:-4] for f in ("crown-pair-b.cfg sandpile-collision-a.cfg sandpile-collision-b.cfg "
                                  "sandpile-periodic-collider.cfg sloped-collision-a.cfg "
                                  "sloped-collision-b.cfg step-preimage.cfg step-two-level.cfg "
                                  "two-grain-column.cfg x-collision-a.cfg x-collision-b.cfg").split())
PAIRS = (("S", "sandpile-collision-a", "sandpile-collision-b"),
         ("S", "sandpile-collision-a", "sandpile-periodic-collider"),
         ("X", "x-collision-a", "x-collision-b"),
         ("Y", "sloped-collision-a", "sloped-collision-b"),
         ("L", "step-preimage", "step-two-level"),
         ("S", "two-grain-column", "sandpile-collision-b"))


def cli_pool():
    """Every argv the cli workload may run, in a fixed order; each has an
    exit code and output digest in reference.json."""
    cfg = lambda name: W + name + ".cfg"
    pool = [["zoo", r] for r in RULES]
    for c in CONFIGS:
        pool.append(["render", "--config", cfg(c)])
        pool.append(["render", "--config", cfg(c), "--dump", "--window", "-6", "6"])
    for r, c in itertools.product(RULES, CONFIGS):
        rule = r if r in ("S", "L", "Y") else W + r + ".rule"
        pool.append(["simulate", "--rule", rule, "--config", cfg(c), "--steps", "6"])
    for r in ("S", "X"):
        for c in CONFIGS[::2]:
            pool.append(["simulate", "--rule", r, "--config", cfg(c), "--steps", "12",
                         "--render", "ascii", "--dump"])
    for a, b in itertools.combinations(CONFIGS, 2):
        pool.append(["distance", cfg(a), cfg(b)])
    for r, a, b in PAIRS:
        for js in ([], ["--json"]):
            pool.append(["verify-witness", "--rule", r, "--config-a", cfg(a),
                         "--config-b", cfg(b)] + js)
    for r in RULES:
        for js in ([], ["--json"]):
            pool.append(["check-injective", "--rule", r, "--class", "F", "--window", "1",
                         "--height", "1"] + js)
            pool.append(["check-injective", "--rule", r, "--class", "P", "--period", "3",
                         "--height", "1", "--with-infinities"] + js)
            pool.append(["check-nilpotent", "--rule", r, "--config", cfg("two-grain-column"),
                         "--steps", "30"] + js)
        for c in ("two-grain-column", "step-two-level", "x-collision-a"):
            pool.append(["check-surjective", "--rule", r, "--target", cfg(c), "--class",
                         "EC" if c == "step-two-level" else "F", "--window", "1", "--height", "1"])
            pool.append(["check-surjective", "--rule", r, "--target", cfg(c), "--class", "P",
                         "--window", "3", "--height", "1", "--json"])
    for seed in range(1, 9):
        pool.append(["verify-inverse", "--rule-outer", "S", "--rule-inner", "Sr",
                     "--samples", "60", "--seed", str(seed)] + (["--json"] if seed % 2 else []))
        pool.append(["verify-inverse", "--rule-outer", "Sr", "--rule-inner", "S",
                     "--samples", "60", "--seed", str(seed)])
    return pool


def cli_key(argv) -> str:
    return " ".join(argv)


CLI_POOL = cli_pool()
#: Subcommands of one cli cycle, in proportion; each slot draws its argv
#: from the pool entries of that subcommand.
CLI_MIX = {"zoo": 2, "render": 4, "simulate": 8, "distance": 4, "verify-witness": 2,
           "check-injective": 3, "check-nilpotent": 2, "check-surjective": 4,
           "verify-inverse": 3}


def cli_slots(smoke):
    if smoke:
        return [("cli", sub) for sub in ("zoo", "render", "distance", "check-injective")]
    return [("cli", sub) for sub, count in CLI_MIX.items() for _ in range(count)]


def cli_op(rng, slot, smoke):
    return ("cli", {"argv": rng.choice([a for a in CLI_POOL if a[0] == slot[1]])})


def cli_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("SANDLAB_MAX_CORE", None)
    return env


def cli_prepare(lab, op):
    return cli_env(ROOT)


def cli_run(lab, op, env):
    return cli_invoke(op[1]["argv"], ROOT, env)


def cli_invoke(argv, root, env):
    """One CLI process, waited for; returns (exit code, stdout, stderr)."""
    proc = subprocess.run([sys.executable, "-m", "sandlab.cli", *argv], cwd=root, env=env,
                          capture_output=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def cli_record(code, stdout: bytes, stderr: bytes):
    return [code, hashlib.sha256(stdout).hexdigest(), hashlib.sha256(stderr).hexdigest()]


def report_details(out):
    """The work counters of an op's report: read from a WitnessReport, or
    parsed from the text or JSON report a CLI run printed; {} otherwise."""
    if hasattr(out, "details"):
        return out.details
    if not (isinstance(out, tuple) and len(out) == 3 and isinstance(out[1], bytes)):
        return {}
    text = out[1].decode()
    if text.startswith("{"):
        return json.loads(text).get("report", {}).get("details", {})
    for line in text.splitlines():
        if line.startswith("details: "):
            pairs = (item.split("=", 1) for item in line[len("details: "):].split())
            return {k: int(v) for k, v in pairs if v.isdigit()}
    return {}


def cli_check(lab, op, out, expected):
    argv = op[1]["argv"]
    got = cli_record(*out)
    want = expected["cli"].get(cli_key(argv))
    expect(want is not None, f"no reference output for {cli_key(argv)!r}")
    expect(got[0] == want[0], f"exit code {got[0]}, reference {want[0]}")
    expect(got[1:] == want[1:], "output differs from the reference")
    return ["cli", got]
