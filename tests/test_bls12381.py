import ast
import hashlib
import os
import random
import sys
import threading
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from mtaotibas.errors import EmptyInput, InvalidElement, UnsupportedOperation
from mtaotibas.pairing import bls12381 as curve
from mtaotibas.pairing import get_engine

from conftest import in_subgroup_by_ladder, ladder_mul, off_subgroup_g1_point, off_subgroup_g2_point
from test_bench_contract import _bls_names_read, _perfbench_trees


def _g1_add(p1, p2):
    # the affine chord-and-tangent law, one inversion per sum: the reference
    # for the Jacobian formulas of g1_msm and the G1 product a * b
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    (x1, y1), (x2, y2), p = p1, p2, curve.PRIME
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = 3 * x1 * x1 * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return (x3, (lam * (x1 - x3) - y1) % p)


def _fq12_pow(x, e):
    # plain square-and-multiply from one: the reference for the Frobenius,
    # the final exponentiation and the pairing's bilinearity
    out = curve.FQ12_ONE
    for bit in bin(e)[2:]:
        out = curve.fq12_sqr(out)
        if bit == "1":
            out = curve.fq12_mul(out, x)
    return out


def _bilinearity_worker(args):
    lo, hi = args
    e = get_engine("production")
    base = e.pair(e.g1, e.g2).pt
    for t in range(lo, hi):
        rng = random.Random(0xB111 + t)
        a = rng.randrange(1, e.order)
        b = rng.randrange(1, e.order)
        if e.pair(e.g1 ** a, e.g2 ** b).pt != _fq12_pow(base, a * b % e.order):
            return t
    return -1


def test_generators_on_curve_and_in_subgroup():
    assert curve.g1_on_curve((curve._G1X, curve._G1Y))
    assert curve.g2_on_curve((curve._G2X, curve._G2Y))
    assert curve.g1_in_subgroup((curve._G1X, curve._G1Y))
    assert curve.g2_in_subgroup((curve._G2X, curve._G2Y))


def test_final_exponentiation_identity():
    # the fast path computes f^(3*(p^12-1)/r); check the exponent identity
    # and the implementation against a plain big-integer power
    p, r, x = int(curve.PRIME), curve.ORDER, curve.X_CURVE
    assert (x**4 - x**2 + 1) == r
    assert 3 * ((p**4 - p**2 + 1) // r) == (x - 1) ** 2 * (x + p) * (x**2 + p**2 - 1) + 3
    rng = random.Random(1)
    f = curve.multi_miller_loop(
        [(curve.g1_mul((curve._G1X, curve._G1Y), rng.randrange(1, r)),
          curve.g2_mul((curve._G2X, curve._G2Y), rng.randrange(1, r)))]
    )
    assert curve.final_exponentiation(f) == _fq12_pow(f, 3 * ((p**12 - 1) // r))


def test_bilinearity_sampled(bls_engine):
    e = bls_engine
    rng = random.Random(2)
    base = e.pair(e.g1, e.g2)
    assert base != e.identity_gt
    for _ in range(10):
        a = rng.randrange(1, e.order)
        b = rng.randrange(1, e.order)
        assert e.pair(e.g1 ** a, e.g2 ** b).pt == _fq12_pow(base.pt, a * b % e.order)


def test_bilinearity_1000_random_pairs():
    jobs = min(8, os.cpu_count() or 1)
    chunk = (1000 + jobs - 1) // jobs
    ranges = [(lo, min(lo + chunk, 1000)) for lo in range(0, 1000, chunk)]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        failures = [t for t in pool.map(_bilinearity_worker, ranges) if t >= 0]
    assert failures == []


def test_pair_identity_inputs(bls_engine):
    e = bls_engine
    assert e.pair(e.identity_g1, e.g2) == e.identity_gt
    assert e.pair(e.g1, e.g2 ** 0) == e.identity_gt


def test_multi_pair_equals_product_and_counts(bls_engine):
    e = bls_engine
    rng = random.Random(3)
    terms = [(e.g1 ** rng.randrange(1, e.order), e.g2 ** rng.randrange(1, e.order)) for _ in range(3)]
    before = e.pairing_count
    combined = e.multi_pair(terms)
    assert e.pairing_count - before == 3
    product = curve.FQ12_ONE
    for p, q in terms:
        product = curve.fq12_mul(product, e.pair(p, q).pt)
    assert combined.pt == product
    assert e.multi_pair(list(reversed(terms))) == combined
    with pytest.raises(EmptyInput):
        e.multi_pair([])


def test_gt_values_pinned(bls_engine):
    # raw GT bytes are this backend's own (see the module docstring); pin
    # them so a rewrite of the Miller loop or the final exponentiation must
    # reproduce them exactly
    e = bls_engine

    def digest(gt):
        return hashlib.sha256(curve.encode_gt_value(gt.pt)).hexdigest()

    assert digest(e.pair(e.g1, e.g2)) == "06fa588b89fdfb034dbc1c163ecb3dfac228f552b643c7294cc5f2c4dc170b84"
    rng = random.Random(12)
    terms = [(e.g1 ** rng.randrange(1, e.order), e.g2 ** rng.randrange(1, e.order)) for _ in range(3)]
    assert digest(e.multi_pair(terms)) == "1429469de8645c22019013634e92f12c52ccc41e704e2966d30c1c4e89e51480"


def test_glv_matches_plain():
    g = (curve._G1X, curve._G1Y)
    p, beta, lam = int(curve.PRIME), int(curve.GLV_BETA), curve.GLV_LAMBDA
    assert beta != 1 and pow(beta, 3, p) == 1
    assert (lam * lam + lam + 1) % curve.ORDER == 0
    assert (g[0] * beta % p, g[1]) == curve.g1_mul_plain(g, lam % curve.ORDER)
    rng = random.Random(4)
    for k in [1, 2, curve.GLV_LAMBDA, curve.ORDER - 1] + [rng.randrange(curve.ORDER) for _ in range(20)]:
        assert curve.g1_mul(g, k) == curve.g1_mul_plain(g, k % curve.ORDER)
    assert curve.g1_mul(g, 0) is None
    assert curve.g1_mul(g, curve.ORDER) is None


def _reference_line_step(f, ps, ts, nums, dens, xs):
    # T moves to T + S for every term, S being T (the tangent) or Q (the
    # chord), with slope nums[i] / dens[i] and x_S = xs[i]; f takes in the
    # line ((lambda*x_T - y_T) - lambda*x_P*v) / y_P + v*w, with ps[i] =
    # (1/y_P, -x_P/y_P). On the chord lambda*x_T - y_T = lambda*x_Q - y_Q.
    invs = curve.fq2_batch_inv(dens)
    for i, (xt, yt) in enumerate(ts):
        inv_yp, xp_over_yp = ps[i]
        lam = curve.fq2_mul(nums[i], invs[i])
        x3 = curve.fq2_sub(curve.fq2_sub(curve.fq2_sqr(lam), xt), xs[i])
        ts[i] = (x3, curve.fq2_sub(curve.fq2_mul(lam, curve.fq2_sub(xt, x3)), yt))
        f = curve.fq12_mul_by_line(f, curve.fq2_scale(curve.fq2_sub(curve.fq2_mul(lam, xt), yt), inv_yp),
                                   curve.fq2_scale(lam, xp_over_yp), 1, 1)
    return f


def _reference_miller_loop(pairs):
    # the plain Miller loop: every term walks its own T and applies its line
    # as it goes, with no lines kept and no G2 point shared between terms
    pairs = [(p, q) for p, q in pairs if p is not None and q is not None]
    if not pairs:
        return curve.FQ12_ONE
    p = curve.PRIME
    ps = [(pow(yp, -1, p), xp) for (xp, yp), _ in pairs]
    ps = [(inv_yp, -xp * inv_yp % p) for inv_yp, xp in ps]
    qs = [q for _, q in pairs]
    ts = list(qs)
    f = curve.FQ12_ONE
    for bit in bin(curve.ABS_X)[3:]:
        f = _reference_line_step(curve.fq12_sqr(f), ps, ts, [curve.fq2_scale(curve.fq2_sqr(xt), 3) for xt, _ in ts],
                                 [curve.fq2_add(yt, yt) for _, yt in ts], [xt for xt, _ in ts])
        if bit == "1":
            f = _reference_line_step(f, ps, ts, [curve.fq2_sub(q[1], t[1]) for q, t in zip(qs, ts)],
                                     [curve.fq2_sub(q[0], t[0]) for q, t in zip(qs, ts)], [xq for xq, _ in qs])
    return curve.fq12_conj(f)


def _random_points(rng, n1, n2):
    g1, g2, r = (curve._G1X, curve._G1Y), (curve._G2X, curve._G2Y), curve.ORDER
    return ([curve.g1_mul(g1, rng.randrange(1, r)) for _ in range(n1)],
            [curve.g2_mul(g2, rng.randrange(1, r)) for _ in range(n2)])


def test_miller_loop_matches_reference():
    rng = random.Random(18)
    ps, qs = _random_points(rng, 6, 6)
    g2 = (curve._G2X, curve._G2Y)
    cases = [list(zip(ps, qs))[:n] for n in (1, 2, 3, 5, 6)]
    cases += [
        [(None, qs[0]), (ps[0], qs[1])],  # identity P
        [(ps[0], None), (ps[1], qs[1]), (ps[2], None)],  # identity Q
        [(None, qs[0])], [(ps[0], None)],  # nothing left
        [(ps[0], qs[0]), (ps[1], qs[0]), (ps[2], qs[1]), (ps[3], qs[0])],  # a G2 point repeated
        [(ps[0], g2), (ps[0], g2)],  # a whole term repeated
    ]
    for pairs in cases:
        assert curve.multi_miller_loop(pairs) == _reference_miller_loop(pairs), pairs
    assert curve.multi_miller_loop([(None, g2)]) == curve.FQ12_ONE


def test_engine_line_cache_matches_reference(monkeypatch):
    # raw Miller values of multi_pair, with the final exponentiation it calls
    # by module name made the identity; every miss of a call is built in one
    # _g2_lines call, a hit builds nothing, and the LRU keeps at most
    # _LINE_CACHE_POINTS points, the most recently used
    e = curve.Bls12381Engine()
    built = []
    g2_lines = curve._g2_lines

    def counted_lines(qs):
        built.append(list(qs))
        return g2_lines(qs)

    monkeypatch.setattr(curve, "final_exponentiation", lambda f: f)
    monkeypatch.setattr(curve, "_g2_lines", counted_lines)
    size = curve._LINE_CACHE_POINTS
    rng = random.Random(19)
    ps, qs = _random_points(rng, 4, size + 2)

    def check(pairs, fresh):
        built.clear()
        before = e.pairing_count
        terms = [(curve.G1Point(p), curve.G2Point(q)) for p, q in pairs]
        assert e.multi_pair(terms).pt == _reference_miller_loop(pairs), pairs
        assert e.pairing_count - before == len(pairs)
        assert built == ([fresh] if fresh else [])
        assert len(e._lines) <= size

    assert len(e._lines) == 0  # nothing is built before the first pairing
    check([(ps[0], qs[0]), (ps[1], qs[1]), (ps[2], qs[0])], [qs[0], qs[1]])  # fresh, q0 repeated
    check([(ps[0], qs[0]), (ps[1], qs[1]), (ps[2], qs[0])], [])  # the same call, warm
    check([(ps[3], qs[2]), (ps[0], qs[1]), (ps[1], qs[3])], [qs[2], qs[3]])  # cached and fresh
    check([(None, qs[4]), (ps[1], None), (ps[2], qs[2])], [])  # identities drop out before the cache
    assert list(e._lines) == [qs[0], qs[1], qs[3], qs[2]]
    spill = [(ps[k % 4], q) for k, q in enumerate(qs)]  # size + 2 points: evictions run
    check(spill, [q for q in qs if q not in qs[:4]])
    assert list(e._lines) == qs[2:]
    check([(ps[0], qs[1]), (ps[1], qs[5])], [qs[1]])  # qs[1] was evicted, qs[5] was not
    assert list(e._lines) == qs[3:5] + qs[6:] + [qs[5], qs[1]]


def test_first_failing_final_exponentiations(monkeypatch):
    # one final exponentiation of all the products' Miller values; when that
    # fails, one more per product in order, up to the first that fails or to
    # the last, which is then named without one
    e = curve.Bls12381Engine()
    calls = []
    final_exponentiation = curve.final_exponentiation
    monkeypatch.setattr(curve, "final_exponentiation", lambda f: calls.append(f) or final_exponentiation(f))
    x = e.g1 ** 5
    good, bad = [(x, e.g2), (x.inverse(), e.g2)], [(e.g1, e.g2)]
    for products, expected, exps in (([good], None, 1), ([bad], 0, 1), ([good, good], None, 1),
                                     ([bad, good], 0, 2), ([good, bad], 1, 2), ([bad, bad], 0, 2),
                                     ([good, bad, good], 1, 3), ([good, good, bad], 2, 3)):
        calls.clear()
        assert e.first_failing(products) == expected, products
        assert len(calls) == exps, products


def test_first_failing_builds_fresh_lines_once(monkeypatch):
    # the fresh G2 points of all the products are built in one _g2_lines
    # call, each point once, and a second call finds them all in the LRU
    e = curve.Bls12381Engine()
    built = []
    g2_lines = curve._g2_lines
    monkeypatch.setattr(curve, "_g2_lines", lambda qs: built.append(list(qs)) or g2_lines(qs))
    x, a = e.g1 ** 7, e.g2 ** 3
    products = [[(x, a), (x.inverse(), a)], [(x ** 3, e.g2), (x.inverse(), a)], [(e.g1, e.g2)]]
    for _ in range(2):
        assert e.first_failing(products) == 2
    assert built == [[a.pt, e.g2.pt]]


def test_engine_line_cache_shared_across_threads(monkeypatch):
    # more threads than cores look up, insert and evict on one engine's cache,
    # over a pool of G2 points larger than it; the lines are stand-ins, so the
    # threads spend their time in the bookkeeping the lock guards. No call may
    # fail or return another point's lines, and the cache stays in bounds
    monkeypatch.setattr(curve, "_g2_lines", lambda qs: [("lines", q) for q in qs])
    e = curve.Bls12381Engine()
    size = curve._LINE_CACHE_POINTS
    rng = random.Random(20)
    pool = [((k, 0), (k, 1)) for k in range(size + 8)]
    picks = [[rng.sample(pool, rng.randrange(1, 4)) for _ in range(3000)]
             for _ in range(2 * (os.cpu_count() or 1) + 2)]
    errors = []

    def worker(calls):
        try:
            for qs in calls:
                if e._line_tables(qs) != [("lines", q) for q in qs]:
                    errors.append(qs)
        except Exception as exc:  # noqa: BLE001 - reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(calls,)) for calls in picks]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(e._lines) == size and set(e._lines) <= set(pool)


def test_engine_pairing_count_under_contention():
    # more threads than cores pair on one production engine over a pool of G2
    # points a few larger than its line cache, so lookups, builds and
    # evictions interleave under the engine's one lock. The counter gains
    # exactly the terms paired, every product equals the same call on a fresh
    # engine in one thread, and the cache, read under the lock, never
    # exceeds its size
    e = curve.Bls12381Engine()
    size = curve._LINE_CACHE_POINTS
    rng = random.Random(26)
    ps, qs = _random_points(rng, 4, size + 3)
    g1s, g2s = [curve.G1Point(p) for p in ps], [curve.G2Point(q) for q in qs]
    calls = [[[(rng.choice(g1s), r) for r in rng.sample(g2s, rng.randrange(1, 4))]
              for _ in range(10)]
             for _ in range(2 * (os.cpu_count() or 1) + 2)]
    results = [[] for _ in calls]
    errors = []

    def worker(mine, out):
        try:
            for terms in mine:
                out.append(e.multi_pair(terms))
                with e._lock:
                    if len(e._lines) > size:
                        errors.append(len(e._lines))
        except Exception as exc:  # noqa: BLE001 - reported by the assertion below
            errors.append(exc)

    before = e.pairing_count
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=args) for args in zip(calls, results)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert e.pairing_count - before == sum(len(terms) for mine in calls for terms in mine)
    alone = curve.Bls12381Engine()
    assert results == [[alone.multi_pair(terms) for terms in mine] for mine in calls]


def _easy_part(f):
    # f^((p^6-1)(p^2+1)), as final_exponentiation begins
    f = curve.fq12_mul(curve.fq12_conj(f), curve.fq12_inv(f))
    return curve.fq12_mul(curve.fq12_frob2(f), f)


def test_cyclotomic_sqr_matches_fq12_sqr():
    # Granger-Scott squaring holds in the cyclotomic subgroup only: check it
    # on outputs of the easy part and of final_exponentiation
    rng = random.Random(21)
    ps, qs = _random_points(rng, 2, 2)
    millers = [curve.multi_miller_loop([(ps[0], qs[0])]), curve.multi_miller_loop(list(zip(ps, qs)))]
    samples = [curve.FQ12_ONE] + [_easy_part(f) for f in millers] + [curve.final_exponentiation(f) for f in millers]
    samples += [_easy_part(_edge_fq12(rng)) for _ in range(8)]
    for x in samples:
        assert curve._cyclotomic_sqr(x) == curve.fq12_sqr(x), x
        y = curve._cyclotomic_sqr(curve._cyclotomic_sqr(x))
        assert y == curve.fq12_sqr(curve.fq12_sqr(x))


def _g2_affine_double(pt):
    # the chord-and-tangent doubling, as an independent check of the ladder
    x, y = pt
    lam = curve.fq2_mul(curve.fq2_scale(curve.fq2_sqr(x), 3), curve.fq2_inv(curve.fq2_add(y, y)))
    x3 = curve.fq2_sub(curve.fq2_sqr(lam), curve.fq2_add(x, x))
    return (x3, curve.fq2_sub(curve.fq2_mul(lam, curve.fq2_sub(x, x3)), y))


def test_g2_mul_edges_and_composition():
    q = (curve._G2X, curve._G2Y)
    r = curve.ORDER
    assert curve.g2_mul(q, 0) is None
    assert curve.g2_mul(None, 5) is None
    assert curve.g2_mul(q, 1) == q
    assert curve.g2_mul(q, 2) == _g2_affine_double(q)
    assert curve.g2_mul(q, r - 1) == (q[0], curve.fq2_neg(q[1]))
    assert curve.g2_mul(q, r) is None
    assert curve.g2_mul(q, r + 1) == q
    rng = random.Random(8)
    for _ in range(2):
        a, b = rng.randrange(2, r), rng.randrange(2, r)
        assert curve.g2_mul(curve.g2_mul(q, b), a) == curve.g2_mul(q, a * b % r)


def _to_affine(jac):
    # Jacobian to affine, one inversion per point; Z = 0 is the identity
    X, Y, Z = jac
    if type(Z) is int:
        return curve._j_batch_normalize([jac])[0]
    if Z == curve._FQ2_ZERO:
        return None
    zi = curve.fq2_inv(Z)
    zi2 = curve.fq2_sqr(zi)
    return (curve.fq2_mul(X, zi2), curve.fq2_mul(Y, curve.fq2_mul(zi2, zi)))


def _ladder_mul(pt, k):
    # the reference g2_mul replaced: the plain ladder with k as given
    return None if k == 0 else _to_affine(ladder_mul(pt, k))


def test_g2_mul_matches_ladder():
    # the GLS split against the plain ladder by k unreduced, on random G2
    # points: digit edges, multiples of r, scalars whose top base-|x| digits
    # are zero and scalars with zero middle digits
    r, a = curve.ORDER, curve.ABS_X
    rng = random.Random(18)
    g = (curve._G2X, curve._G2Y)
    points = [g] + [_ladder_mul(g, rng.randrange(2, r)) for _ in range(2)]
    edges = [0, 1, 2, a, a**2, a**3, r - 1, r, r + 1, 2 * r + 5, a - 1, a + 1, a**2 - 1, a**3 - 1, a**3 + 1]
    top_zero = [rng.randrange(1, a**n) for n in (1, 2, 3) for _ in range(2)]
    gaps = [rng.randrange(1, a) * a**3 + rng.randrange(a), rng.randrange(1, a) * a**2 + rng.randrange(a) * a,
            (a - 1) * a**3 + (a - 1)]
    for pt in points:
        for k in edges + top_zero + gaps + [rng.randrange(r) for _ in range(4)]:
            assert curve.g2_mul(pt, k) == _ladder_mul(pt, k), k


def test_gls_table_entries():
    # entry m is [m0 + m1*|x| + m2*|x|^2 + m3*|x|^3]Q for the bits m_i of m
    q = _ladder_mul((curve._G2X, curve._G2Y), random.Random(20).randrange(2, curve.ORDER))
    table = curve._gls_table(q)
    assert table[0] is None
    for m in range(1, 16):
        assert table[m] == _ladder_mul(q, sum(curve.ABS_X**i for i in range(4) if m >> i & 1)), m


def test_psi_constants():
    # the literals are xi^-((p-1)/3) and xi^-((p-1)/2); psi acts on G2 as [x]
    # and maps every point of E' to E'
    p, r = curve.PRIME, curve.ORDER
    assert curve._PSI_CX == curve.fq2_inv(curve.fq2_pow(curve._XI, (p - 1) // 3))
    assert curve._PSI_CY == curve.fq2_inv(curve.fq2_pow(curve._XI, (p - 1) // 2))
    g = (curve._G2X, curve._G2Y)
    q = _ladder_mul(g, random.Random(21).randrange(2, r))
    for pt in (g, q):
        assert curve._g2_psi(pt) == _ladder_mul(pt, curve.X_CURVE % r)
    off = off_subgroup_g2_point()
    assert curve.g2_on_curve(curve._g2_psi(off)) and curve._g2_psi(off) != _ladder_mul(off, curve.X_CURVE % r)


# the curve orders: #E(Fq) = _H1 * r and #E'(Fq2) = _H2 * r
_X = curve.X_CURVE
_H1 = (_X - 1) ** 2 // 3
_H2 = (_X**8 - 4 * _X**7 + 5 * _X**6 - 4 * _X**4 + 6 * _X**3 - 4 * _X**2 - 4 * _X + 13) // 9
_MEMBERSHIP = {  # generator, cofactor, two primes dividing it, predicate
    "g1": ((curve._G1X, curve._G1Y), _H1, (11, 10177), curve.g1_in_subgroup),
    "g2": ((curve._G2X, curve._G2Y), _H2, (13, 23), curve.g2_in_subgroup),
}


def _random_curve_point(rng, group):
    p = curve.PRIME
    while True:
        if group == "g1":
            x = rng.randrange(p)
            y = curve._fq_sqrt((x * x * x + 4) % p)
        else:
            x = (rng.randrange(p), rng.randrange(p))
            y = curve._fq2_sqrt(curve.fq2_add(curve.fq2_mul(curve.fq2_sqr(x), x), curve._B2))
        if y is not None:
            return (x, y)


def _add(p1, p2):
    if type(p1[0]) is int:
        return _g1_add(p1, p2)
    return _to_affine(curve._j2_add_affine(*p1, curve._FQ2_ONE, *p2))


@pytest.mark.parametrize("group", ["g1", "g2"])
def test_membership_matches_ladder(group):
    # each predicate against the reference [r]P ladder: subgroup points,
    # random curve points, points of small prime order, the cofactor part
    # [r]P of a random point, and a subgroup point plus a small-order one
    gen, cofactor, primes, in_subgroup = _MEMBERSHIP[group]
    r = curve.ORDER
    rng = random.Random(22)
    inside = [gen] + [_ladder_mul(gen, rng.randrange(2, r)) for _ in range(2)]
    randoms = [_random_curve_point(rng, group) for _ in range(3)]
    assert all(_ladder_mul(pt, cofactor * r) is None for pt in randoms)  # the group order is right
    small = []  # the ell-part of random points: order dividing ell^2, as ell^2 divides the cofactor
    for ell in primes:
        assert cofactor % ell**2 == 0 and cofactor % ell**3
        for pt in randoms[:2]:
            t = _ladder_mul(pt, cofactor * r // ell**2)
            assert t is not None and _ladder_mul(t, ell**2) is None
            small.append(t)
    if group == "g1":
        small += [(0, 2), (0, curve.PRIME - 2)]  # order 3 on E
        assert all(_ladder_mul(t, 3) is None for t in small[-2:])
    cofactor_part = [_ladder_mul(pt, r) for pt in randoms[:2]]
    mixed = [_add(inside[1], t) for t in small]
    outside = randoms + small + cofactor_part + mixed
    for pt in inside + outside:
        assert in_subgroup(pt) == in_subgroup_by_ladder(pt), pt
    assert all(in_subgroup(pt) for pt in inside + [None])
    assert not any(in_subgroup(pt) for pt in outside)
    x, y = gen
    off_curve = (x, y + 1) if group == "g1" else (x, curve.fq2_add(y, (1, 0)))
    assert not in_subgroup(off_curve)


def test_small_powers():
    rng = random.Random(9)
    x = tuple(tuple((rng.randrange(curve.PRIME), rng.randrange(curve.PRIME)) for _ in range(3))
              for _ in range(2))
    assert _fq12_pow(x, 0) == curve.FQ12_ONE
    assert _fq12_pow(x, 1) == x
    assert _fq12_pow(x, 2) == curve.fq12_mul(x, x)
    y = (rng.randrange(1, curve.PRIME), rng.randrange(curve.PRIME))
    assert curve.fq2_pow(y, 0) == (1, 0)
    assert curve.fq2_pow(y, 1) == y
    assert curve.fq2_pow(y, curve.PRIME**2 - 1) == (1, 0)  # the order of Fq2*


def test_mul_by_line_matches_dense():
    # the sparse product against fq12_mul with the line written out in full
    rng = random.Random(13)

    def fq2():
        return rng.choice([(0, 0), (0, rng.randrange(curve.PRIME)), (rng.randrange(curve.PRIME), 0),
                           (rng.randrange(curve.PRIME), rng.randrange(curve.PRIME))])

    zero, one = (0, 0), (1, 0)
    for _ in range(50):
        f = tuple(tuple(fq2() for _ in range(3)) for _ in range(2))
        c0, c1 = fq2(), fq2()
        assert curve.fq12_mul_by_line(f, c0, c1, 1, 1) == curve.fq12_mul(f, ((c0, c1, zero), (zero, one, zero)))


def _edge_fq2(rng):
    # zero, Fq-only and p - 1 coefficients beside random ones
    p = curve.PRIME
    return rng.choice([(0, 0), (rng.randrange(1, p), 0), (0, rng.randrange(1, p)), (p - 1, 0), (0, p - 1),
                       (p - 1, p - 1), (1, p - 1), (rng.randrange(p), rng.randrange(p))])


def _edge_fq12(rng):
    return tuple(tuple(_edge_fq2(rng) for _ in range(3)) for _ in range(2))


_FQ12_ZERO = ((curve._FQ2_ZERO,) * 3,) * 2


def test_squarings_match_products():
    rng = random.Random(14)
    for _ in range(40):
        x = _edge_fq2(rng)
        assert curve.fq2_sqr(x) == curve.fq2_mul(x, x), x
    for _ in range(25):
        x = _edge_fq12(rng)
        assert curve.fq12_sqr(x) == curve.fq12_mul(x, x), x
    for x in (curve.FQ12_ONE, _FQ12_ZERO):
        assert curve.fq12_sqr(x) == curve.fq12_mul(x, x)


def _helper_fq12_sqr(x):
    # the squaring as fq6 helper calls, which the flat fq12_sqr replaced
    a, b = x
    t = curve.fq6_mul(a, b)
    lo = curve.fq6_sub(curve.fq6_sub(curve.fq6_mul(curve.fq6_add(a, b), curve.fq6_add(a, curve.fq6_mul_v(b))), t),
                       curve.fq6_mul_v(t))
    return (lo, curve.fq6_add(t, t))


def _helper_mul_by_line(f, c0, c1):
    # the sparse line product as fq6 helper calls, which the flat
    # fq12_mul_by_line replaced; its callers scaled c0 and c1 first
    a, b = f
    line = (c0, c1, curve._FQ2_ZERO)
    return (curve.fq6_add(curve.fq6_mul(a, line), curve.fq6_mul_v(curve.fq6_mul_v(b))),
            curve.fq6_add(curve.fq6_mul_v(a), curve.fq6_mul(b, line)))


def _helper_miller_loop(pairs):
    # the evaluation loop over _g2_lines as it ran on the helper kernels,
    # each line scaled by fq2_scale before its product
    pairs = [(p, q) for p, q in pairs if p is not None and q is not None]
    qs = list(dict.fromkeys(q for _, q in pairs))
    tables = dict(zip(qs, curve._g2_lines(qs)))
    terms = []
    for (xp, yp), q in pairs:
        inv_yp = pow(yp, -1, curve.PRIME)
        terms.append((tables[q], inv_yp, -xp * inv_yp % curve.PRIME))
    f = curve.FQ12_ONE
    for k, double in enumerate(curve._MILLER_STEPS):
        if double:
            f = _helper_fq12_sqr(f)
        for lines, inv_yp, xp_over_yp in terms:
            lam, mu = lines[k]
            f = _helper_mul_by_line(f, curve.fq2_scale(mu, inv_yp), curve.fq2_scale(lam, xp_over_yp))
    return curve.fq12_conj(f)


def test_flat_kernels_match_helper_compositions():
    # bit for bit on zero, Fq-only and p - 1 coefficients: the squaring, and
    # the line product on all-zero lines and on Fq factors 0, 1 and p - 1
    # beside random ones, against the scaling done apart
    rng = random.Random(26)
    p, zero, one = curve.PRIME, (0, 0), (1, 0)
    for x in [curve.FQ12_ONE, _FQ12_ZERO, (((p - 1, p - 1),) * 3,) * 2] + [_edge_fq12(rng) for _ in range(40)]:
        assert curve.fq12_sqr(x) == _helper_fq12_sqr(x), x
    lines = [(zero, zero), ((p - 1, p - 1), (p - 1, p - 1)), ((p - 1, 0), (0, p - 1))]
    lines += [(_edge_fq2(rng), _edge_fq2(rng)) for _ in range(40)]
    factors = [0, 1, p - 1, 2, (p + 1) // 2]
    for c0, c1 in lines:
        f = _edge_fq12(rng)
        s0 = rng.choice(factors + [rng.randrange(p)])
        s1 = rng.choice(factors + [rng.randrange(p)])
        scaled = (curve.fq2_scale(c0, s0), curve.fq2_scale(c1, s1))
        assert curve.fq12_mul_by_line(f, c0, c1, s0, s1) == _helper_mul_by_line(f, *scaled), (f, c0, c1, s0, s1)
        assert curve.fq12_mul_by_line(f, c0, c1, 1, 1) == _helper_mul_by_line(f, c0, c1)
        assert curve.fq12_mul_by_line(f, *scaled, 1, 1) == curve.fq12_mul(f, (scaled + (zero,), (zero, one, zero)))


def test_miller_loop_matches_helper_kernels():
    # the Miller output on 1 to 5 terms, a G2 point repeated among them,
    # against the loop on the helper kernels
    rng = random.Random(27)
    ps, qs = _random_points(rng, 5, 4)
    qs.append(qs[0])
    for n in range(1, 6):
        pairs = list(zip(ps, qs))[:n]
        assert curve.multi_miller_loop(pairs) == _helper_miller_loop(pairs), n


def test_fq2_batch_inv_matches_single():
    rng = random.Random(15)
    p = curve.PRIME
    fixed = [(1, 0), (p - 1, 0), (0, 1), (0, p - 1), (p - 1, p - 1)]
    for n in (1, 2, 5):
        batches = [fixed[:n]]
        for _ in range(5):
            batch = []
            while len(batch) < n:
                x = _edge_fq2(rng)
                if x != (0, 0):
                    batch.append(x)
            batches.append(batch)
        for items in batches:
            invs = curve.fq2_batch_inv(items)
            assert invs == [curve.fq2_inv(x) for x in items], items
            assert all(curve.fq2_mul(x, y) == (1, 0) for x, y in zip(items, invs))


def test_j_batch_normalize_matches_plain():
    # ladder outputs, the identity among them, against g1_mul_plain and the
    # affine chord-and-tangent sum; affine points lifted to Jacobian with
    # Z = lambda, p - 1 included, come back unchanged
    g = (curve._G1X, curve._G1Y)
    rng = random.Random(16)
    r, p = curve.ORDER, curve.PRIME
    ks = [1, 2, 3, r - 1, r, r + 1] + [rng.randrange(2, r) for _ in range(4)]
    assert curve._j_batch_normalize([ladder_mul(g, k) for k in ks]) == [curve.g1_mul_plain(g, k) for k in ks]
    sums = [g]
    for _ in range(5):
        sums.append(_g1_add(sums[-1], g))
    assert curve._j_batch_normalize([ladder_mul(g, k) for k in range(1, 7)]) == sums
    assert curve._j_batch_normalize([(0, 1, 0)]) == [None]
    assert curve._j_batch_normalize([]) == []
    pts = [curve.g1_mul_plain(g, k) for k in (1, 5, r - 1)]
    lams = [1, p - 1, rng.randrange(2, p)]
    lifted = [(x * lam**2 % p, y * lam**3 % p, lam) for (x, y), lam in zip(pts, lams)]
    assert curve._j_batch_normalize(lifted[:1] + [(0, 1, 0)] + lifted[1:]) == pts[:1] + [None] + pts[1:]


def test_fq12_inverse_and_frobenius():
    rng = random.Random(17)
    samples = [_edge_fq12(rng) for _ in range(6)] + [curve.FQ12_ONE]
    for x in samples:
        if x != _FQ12_ZERO:
            assert curve.fq12_mul(x, curve.fq12_inv(x)) == curve.FQ12_ONE, x
    for x in samples[:4]:
        assert curve.fq12_frob(x) == _fq12_pow(x, curve.PRIME), x


def test_g1_mul_plain_rejects_negative_scalar():
    g = (curve._G1X, curve._G1Y)
    for k in (-1, -5):
        with pytest.raises(ValueError):
            curve.g1_mul_plain(g, k)
    assert curve.g1_mul_plain(g, 0) is None


def _plain_sum(pairs):
    acc = None
    for pt, k in pairs:
        acc = _g1_add(acc, curve.g1_mul_plain(pt, k % curve.ORDER))
    return acc


def test_msm_matches_plain():
    g = (curve._G1X, curve._G1Y)
    rng = random.Random(7)
    pts = [curve.g1_mul_plain(g, rng.randrange(1, curve.ORDER)) for _ in range(17)]
    lam, r = curve.GLV_LAMBDA, curve.ORDER
    edges = [0, 1, 2, lam - 1, lam, lam + 1, 1 << 128, r - 1, r, r + 1]
    for n in (0, 1, 2, 3, 16, 17):
        pairs = [(pt, rng.choice(edges) if rng.random() < 0.3 else rng.randrange(r)) for pt in pts[:n]]
        assert curve.g1_msm(pairs) == _plain_sum(pairs), n
    for k in edges + [rng.randrange(r) for _ in range(5)]:
        for pairs in ([(pts[0], k)], [(pts[0], k), (pts[1], rng.randrange(r)), (pts[2], 1)]):
            assert curve.g1_msm(pairs) == _plain_sum(pairs), k
    p, q, k, m = pts[3], pts[4], rng.randrange(2, r), rng.randrange(2, r)
    cases = [
        [(None, k), (p, m), (None, 1)],  # identity bases
        [(p, k), (p, m)],  # a base repeated
        [(p, k), (p, k), (q, 1), (q, 1)],  # equal table entries meet: a doubling
        [(p, k), (curve.g1_neg(p), k)],  # P and -P: the identity
        [(p, 1), (curve.g1_neg(p), 1)],
        [(p, k), (curve.g1_neg(p), k), (q, m)],  # through the identity part-way
        [(q, m), (p, 1), (curve.g1_neg(p), 1), (q, r - m)],
    ]
    for pairs in cases:
        assert curve.g1_msm(pairs) == _plain_sum(pairs)
    assert curve.g1_msm(cases[3]) is None and curve.g1_msm(cases[4]) is None
    assert curve.g1_msm(cases[6]) is None


def test_g1_product_operator_matches_affine_law(bls_engine):
    # a * b runs through g1_msm with both scalars 1: random points, a point
    # times itself (the doubling), times its inverse (the identity), the
    # identity on either side, and a three-factor product
    e = bls_engine
    rng = random.Random(23)
    pts = [e.g1 ** rng.randrange(1, e.order) for _ in range(6)] + [e.g1]
    pairs = list(zip(pts, pts[1:])) + [(a, a) for a in pts[:3]] + [(a, a.inverse()) for a in pts[:3]]
    pairs += [(a, e.identity_g1) for a in pts[:2]] + [(e.identity_g1, a) for a in pts[:2]]
    pairs.append((e.identity_g1, e.identity_g1))
    for a, b in pairs:
        assert (a * b).pt == _g1_add(a.pt, b.pt), (a, b)
    assert pts[0] * pts[0].inverse() == e.identity_g1
    a, b, c = pts[:3]
    assert (a * b * c).pt == _g1_add(_g1_add(a.pt, b.pt), c.pt)
    assert a * b * c == e.g1_product([(a, 1), (b, 1), (c, 1)]) == a * (b * c)


def _joint_2bit_msm(pairs):
    # the G1 multi-scalar multiplication g1_msm replaced: the same GLV split,
    # each point with a joint 2-bit window table of i*P + j*phi(P), i, j in
    # 0..3, over one chain of doublings; the reference for the w-NAF kernel
    r, p, lam = curve.ORDER, curve.PRIME, curve.GLV_LAMBDA
    ones, terms = [], []
    for pt, k in pairs:
        k %= r
        if pt is None or k == 0:
            continue
        if k == 1:
            ones.append(pt)
        else:
            terms.append((pt, k % lam, k // lam))
    acc = (0, 1, 0)
    if terms:
        jac = []
        for (x, y), _, _ in terms:
            table = [(0, 1, 0), (x, y, 1), curve._j_double(x, y, 1)]
            table.append(curve._j_add_affine(*table[2], x, y))
            phi_x = x * curve.GLV_BETA % p
            for k in range(4, 16):
                table.append(curve._j_add_affine(*table[k - 4], phi_x, y))
            jac += table[1:]
        flat = curve._j_batch_normalize(jac)
        tables = [flat[15 * t:15 * t + 15] for t in range(len(terms))]
        top = (max(max(k1.bit_length(), k2.bit_length()) for _, k1, k2 in terms) + 1) & ~1
        for shift in range(top - 2, -1, -2):
            acc = curve._j_double(*curve._j_double(*acc))
            for table, (_, k1, k2) in zip(tables, terms):
                sel = ((k1 >> shift) & 3) | (((k2 >> shift) & 3) << 2)
                if sel:
                    acc = curve._j_add_affine(*acc, *table[sel - 1])
    for x, y in ones:
        acc = curve._j_add_affine(*acc, x, y)
    return curve._j_batch_normalize([acc])[0]


def _wnaf_edge_scalars():
    # scalars from chosen GLV halves k = k1 + k2*LAMBDA (k1 < LAMBDA): halves
    # of 2^127 - 1 and of 21 * 2^123 (128 bits) carry into one more w-NAF
    # digit than they have bits (2^128 - 1 is above LAMBDA, so no half is
    # it); runs of ones and of zeros, alternating bits, and 0, 1, r - 1, r,
    # r + 1, LAMBDA and its small multiples as whole scalars
    lam, r = curve.GLV_LAMBDA, curve.ORDER
    ones, top = (1 << 127) - 1, 1 << 127
    halves = [0, 1, 2, 15, 16, 31, 33, ones, top, top + 1, lam - 1, (1 << 126) - 1, 21 << 123,
              int("1" * 40 + "0" * 40 + "1" * 40, 2), int("1111100000" * 12, 2), int("10" * 63, 2),
              int("01" * 63, 2), int("11110000" * 15, 2)]
    ks = [k1 + k2 * lam for k1 in halves for k2 in halves[:8] + [ones, lam - 1, lam, lam + 1] if k2 * lam + k1 < r]
    ks += [0, 1, 2, r - 1, r, r + 1, r + 2, 2 * r - 1, (1 << 128) - 1, (1 << 255) - 1]
    ks += [m * lam for m in range(1, 8)] + [m * lam + e for m in (1, 2, 3) for e in (-1, 1)]
    return ks


def test_wnaf_digit_properties():
    rng = random.Random(2201)
    lam = curve.GLV_LAMBDA
    ks = [0, 1, 2, 3, 15, 16, 17, 31, 32, 33, (1 << 127) - 1, (1 << 128) - 1, lam - 1, lam]
    ks += [k for k in _wnaf_edge_scalars() if k < lam] + [rng.randrange(1 << rng.randrange(1, 129)) for _ in range(300)]
    for k in ks:
        wnaf = curve._wnaf(k)
        digits = [0] * (wnaf[-1][0] + 1 if wnaf else 0)
        for i, d in wnaf:
            digits[i] = d
        assert sum(d << i for i, d in enumerate(digits)) == k, k
        assert all(d % 2 == 1 and abs(d) <= 15 for d in digits if d), k
        assert all(sum(1 for d in digits[i:i + 5] if d) <= 1 for i in range(len(digits))), k
        assert len(digits) <= k.bit_length() + 1, k
        assert [i for i, _ in wnaf] == sorted({i for i, _ in wnaf}), k
    # the carry cases of the edge corpus: one digit more than the half has bits
    assert curve._wnaf((1 << 127) - 1)[-1] == (127, 1)
    assert curve._wnaf(21 << 123) == [(123, -11), (128, 1)]
    assert curve._wnaf(31) == [(0, -1), (5, 1)]


def test_msm_matches_joint_2bit_reference():
    # the w-NAF kernel against the joint 2-bit kernel it replaced and the
    # ladder sums, bit for bit: 1-19 random points, the edge scalars, and
    # repeated points, P with -P and identities among the bases
    g = (curve._G1X, curve._G1Y)
    rng = random.Random(2202)
    r = curve.ORDER
    pts = [curve.g1_mul_plain(g, rng.randrange(1, r)) for _ in range(19)]
    edges = _wnaf_edge_scalars()
    for n in range(1, 20):
        pairs = [(pt, rng.choice(edges) if rng.random() < 0.4 else rng.randrange(r)) for pt in pts[:n]]
        expected = _plain_sum(pairs)
        assert curve.g1_msm(pairs) == _joint_2bit_msm(pairs) == expected, n
    for k in edges:
        for pairs in ([(pts[0], k)], [(pts[1], k), (pts[2], 1)], [(g, k), (pts[3], rng.choice(edges))]):
            assert curve.g1_msm(pairs) == _joint_2bit_msm(pairs) == _plain_sum(pairs), k
    p, q, k, m = pts[4], pts[5], rng.randrange(2, r), rng.randrange(2, r)
    neg = curve.g1_neg(p)
    cases = [
        [(p, k), (p, k), (p, k)],
        [(p, k), (neg, k)],
        [(p, k), (neg, r - k)],  # k*P twice, from P's table and from -P's
        [(p, k), (neg, k), (q, m), (None, k)],
        [(None, k), (None, 1), (p, 0), (q, r)],
        [(p, k), (q, m), (p, r - k), (q, r - m)],
        [(p, (1 << 127) - 1), (neg, (1 << 127) - 1), (q, 1), (curve.g1_neg(q), 1)],
        [(p, 3), (p, 5), (neg, 8), (q, 15), (q, 17)],
        [(pt, 1) for pt in pts] + [(pt, 2) for pt in pts[:4]],
    ]
    for pairs in cases:
        assert curve.g1_msm(pairs) == _joint_2bit_msm(pairs) == _plain_sum(pairs), pairs
    assert [curve.g1_msm(cases[i]) for i in (1, 4, 5, 6)] == [None] * 4


def test_group_axioms(bls_engine):
    e = bls_engine
    x = e.g1 ** 12345
    assert x * x.inverse() == e.identity_g1
    assert e.g1 ** e.order == e.identity_g1
    assert e.g2 ** e.order == e.g2 ** 0
    gt = e.pair(e.g1, e.g2).pt
    assert curve.fq12_mul(gt, curve.fq12_conj(gt)) == curve.FQ12_ONE
    assert _fq12_pow(gt, e.order) == curve.FQ12_ONE


def test_psi_unsupported(bls_engine):
    with pytest.raises(UnsupportedOperation):
        bls_engine.psi(bls_engine.g2)


def test_hash_to_g1_deterministic_subgroup_valid(bls_engine):
    e = bls_engine
    pts = set()
    for i in range(8):
        h = e.hash_to_g1(b"T", f"input-{i}".encode())
        assert h == e.hash_to_g1(b"T", f"input-{i}".encode())
        assert curve.g1_in_subgroup(h.pt)
        pts.add(e.encode_g1(h))
    assert len(pts) == 8
    assert e.hash_to_g1(b"T1", b"same") != e.hash_to_g1(b"T2", b"same")


def test_hash_to_scalar_range(bls_engine):
    e = bls_engine
    for i in range(50):
        s = e.hash_to_scalar(b"S", f"in-{i}".encode())
        assert 1 <= s < e.order


def test_point_encoding_round_trips(bls_engine):
    e = bls_engine
    rng = random.Random(5)
    for _ in range(5):
        p = e.g1 ** rng.randrange(1, e.order)
        q = e.g2 ** rng.randrange(1, e.order)
        assert e.decode_g1(e.encode_g1(p)) == p
        assert e.decode_g2(e.encode_g2(q)) == q
        assert len(e.encode_g1(p)) == 48
        assert len(e.encode_g2(q)) == 96
    assert e.decode_g1(e.encode_g1(e.identity_g1)) == e.identity_g1
    assert e.decode_g2(e.encode_g2(e.g2 ** 0)) == e.g2 ** 0


def test_scalar_encoding(bls_engine):
    e = bls_engine
    for k in (0, 1, e.order - 1):
        assert e.decode_scalar(e.encode_scalar(k)) == k
    with pytest.raises(InvalidElement):
        e.decode_scalar(e.order.to_bytes(32, "big"))


def _framed(flags, coords):
    # the wire form: 48-byte big-endian coordinates, flags in the top bits
    raw = bytearray(b"".join(int(c).to_bytes(48, "big") for c in coords))
    raw[0] |= flags
    return bytes(raw)


def _wire_x(data):
    # the x coordinates of an encoding in wire order, flags cleared
    data = bytes([data[0] & 0x1F]) + data[1:]
    return [int.from_bytes(data[i:i + 48], "big") for i in range(0, len(data), 48)]


def test_fq2_sqrt_of_an_fq_element():
    # b = 0: a square a of Fq has the root (sqrt a, 0); a non-square has
    # (0, sqrt(-a)), as -1 is a non-square for p = 3 mod 4; zero has zero
    p = curve.PRIME
    assert p % 4 == 3
    rng = random.Random(41)
    squares = [pow(rng.randrange(1, p), 2, p) for _ in range(4)]
    non_squares = [-a % p for a in squares]
    for a in squares + non_squares + [0]:
        root = curve._fq2_sqrt((a, 0))
        assert root is not None and curve.fq2_sqr(root) == (a, 0)
        if a in non_squares:
            assert root[0] == 0
        else:
            assert root[1] == 0
    assert curve._fq2_sqrt((0, 0)) == (0, 0)


def _x_off_curve(group):
    # the first small x with no y, as wire-order coordinates
    p = curve.PRIME
    for k in range(1, 100):
        if group == "g1" and curve._fq_sqrt((k**3 + 4) % p) is None:
            return [k]
        x = (k, 0)
        rhs = curve.fq2_add(curve.fq2_mul(curve.fq2_sqr(x), x), (4, 4))
        if group == "g2" and curve._fq2_sqrt(rhs) is None:
            return [0, k]
    raise AssertionError("no x off the curve below 100")


@pytest.mark.parametrize("group", ["g1", "g2"])
def test_decode_rejects_malformed(bls_engine, group):
    e = bls_engine
    encode, decode = getattr(e, f"encode_{group}"), getattr(e, f"decode_{group}")
    gen, p = getattr(e, group), int(curve.PRIME)
    # a subgroup point whose x coordinates stay below 2^381 with p added
    k = 5
    while max(_wire_x(encode(gen ** k))) >= (1 << 381) - p:
        k += 1
    good = encode(gen ** k)
    xs = _wire_x(good)
    zeros = [0] * len(xs)
    cases = {
        "too short": good[:-1],
        "too long": good + b"\x00",
        "compression bit clear": bytes([good[0] & 0x7F]) + good[1:],
        "identity, sign bit set": _framed(0xE0, zeros),
        "x off the curve": _framed(0x80, _x_off_curve(group)),
    }
    for i in range(len(xs)):  # each coordinate in turn (c1 then c0 for G2)
        cases[f"identity, x nonzero at {i}"] = _framed(0xC0, zeros[:i] + [1] + zeros[i + 1:])
        cases[f"x = p at {i}"] = _framed(0x80, zeros[:i] + [p] + zeros[i + 1:])
        cases[f"x + p at {i}"] = _framed(good[0] & 0xE0, xs[:i] + [xs[i] + p] + xs[i + 1:])
    for name, data in cases.items():
        with pytest.raises(InvalidElement):
            decode(data)
            pytest.fail(f"{name}: decoded")
    # P and -P differ only in the sign bit, and each decodes back
    pos, neg = gen ** k, gen ** (e.order - k)
    assert encode(pos)[0] ^ encode(neg)[0] == 0x20 and encode(pos)[1:] == encode(neg)[1:]
    assert decode(encode(pos)) == pos and decode(encode(neg)) == neg


def test_decode_rejects_wrong_subgroup():
    # a point on the curve but outside the r-subgroup must be rejected
    data = curve.encode_g1_point(off_subgroup_g1_point())
    with pytest.raises(InvalidElement):
        curve.decode_g1_point(data)


def test_decode_rejects_wrong_subgroup_g2():
    # the same for a point of the twist E' outside G2
    data = curve.encode_g2_point(off_subgroup_g2_point())
    with pytest.raises(InvalidElement, match="outside the prime-order subgroup"):
        curve.decode_g2_point(data)


def test_fq2_sqrt_round_trip():
    rng = random.Random(6)
    found = 0
    for _ in range(20):
        cand = (rng.randrange(curve.PRIME), rng.randrange(curve.PRIME))
        square = curve.fq2_sqr(cand)
        root = curve._fq2_sqrt(square)
        assert root is not None
        assert curve.fq2_sqr(root) == square
        found += 1
    assert found == 20


def _decode_cases(rng, group):
    # seeded compressed strings: subgroup points with either sign bit, the
    # fixture's point outside the subgroup, random x below p with either sign
    # bit (off the curve, or on it and almost surely outside the subgroup),
    # and one coordinate at p or above
    p, n = curve.PRIME, 1 if group == "g1" else 2
    gen = (curve._G1X, curve._G1Y) if group == "g1" else (curve._G2X, curve._G2Y)
    mul = curve.g1_mul if group == "g1" else curve.g2_mul
    encode = curve.encode_g1_point if group == "g1" else curve.encode_g2_point
    off = off_subgroup_g1_point() if group == "g1" else off_subgroup_g2_point()
    cases = [encode(mul(gen, rng.randrange(1, curve.ORDER))) for _ in range(6)]
    cases += [bytes([data[0] ^ 0x20]) + data[1:] for data in cases[:3]] + [encode(off)]
    cases += [_framed(rng.choice((0x80, 0xA0)), [rng.randrange(p) for _ in range(n)]) for _ in range(24)]
    for _ in range(6):
        coords = [rng.randrange(p) for _ in range(n)]
        coords[rng.randrange(n)] = rng.choice([p, rng.randrange(p, 1 << 381)])
        cases.append(_framed(rng.choice((0x80, 0xA0)), coords))
    return cases


def _outcome(decode, encode, data):
    try:
        return "ok " + encode(decode(data)).hex()
    except InvalidElement as exc:
        return f"error {exc}"


def test_hash_and_decode_outcomes_pinned():
    # hash-to-G1 outputs, Fq2 square roots and decode outcomes (the encoding
    # or the error), hashed: a rewrite of the square roots or the decoders
    # must reproduce every one of them exactly
    rng = random.Random(24)
    p = curve.PRIME
    lines = []
    for _ in range(64):
        tag = rng.choice([b"T", b"mtaotibas-H0", bytes(rng.randrange(256) for _ in range(rng.randrange(1, 9)))])
        data = bytes(rng.randrange(256) for _ in range(rng.randrange(40)))
        lines.append(f"hash {tag.hex()} {data.hex()} {curve.encode_g1_point(curve.hash_to_g1_point(tag, data)).hex()}")
    roots = [(rng.randrange(p), rng.randrange(p)) for _ in range(24)]
    roots += [curve.fq2_sqr((rng.randrange(p), rng.randrange(p))) for _ in range(8)]
    roots += [(rng.randrange(p), 0) for _ in range(4)] + [(0, rng.randrange(p)) for _ in range(4)]
    roots += [(0, 0), (1, 0), (p - 1, 0), (0, 1), (0, p - 1)]
    found = {None: 0, "root": 0}
    for t in roots:
        root = curve._fq2_sqrt(t)
        found["root" if root else None] += 1
        lines.append(f"sqrt {t} {root}")
    assert min(found.values()) >= 8, found
    for group in ("g1", "g2"):
        decode, encode = getattr(curve, f"decode_{group}_point"), getattr(curve, f"encode_{group}_point")
        outcomes = [_outcome(decode, encode, data) for data in _decode_cases(rng, group)]
        kinds = {"ok" if o.startswith("ok") else o.split(" ", 2)[2] for o in outcomes}
        assert kinds == {"ok", "x coordinate out of range", "x coordinate not on the curve",
                         "point outside the prime-order subgroup"}, kinds
        lines += [f"{group} {o}" for o in outcomes]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "1c0ebfef2d5aad77dea9499c11bab0205c91323a48803ce89dee4a85224d7f71"


# definitions that no program code reads by name, each with why it stays;
# click-registered commands and dunders are exempt by rule
_ENTRY_POINTS = {
    "cli._ErrorBoundary.invoke": "click calls it to run every command",
    "harness.challenger.Challenger.finalize": "the reduction's extraction; criterion 6 runs it",
    "harness.forger.scripted_forger": "the reduction's adversary; criterion 6 runs it",
    "harness.forger.Forgery.target_identity": "the adversary's result; criterion 6 reads it",
    "harness.forger.Forgery.target_ta_identity": "the adversary's result; criterion 6 reads it",
    "harness.forger.Forgery.target_message": "the adversary's result; criterion 6 reads it",
}


def _loads(tree):
    """How often each name is read, as a variable or as an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load))


def _definitions(tree):
    """(name, node) of each module-level function, class and assigned name,
    and, as Class.name, of each public method, each public attribute that an
    __init__ assigns on self, and each dataclass field."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from ((sub.id, node) for sub in ast.walk(target) if isinstance(sub, ast.Name))
        if not isinstance(node, ast.ClassDef):
            continue
        dataclass = any(ast.unparse(d).split("(")[0].endswith("dataclass") for d in node.decorator_list)
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                yield f"{node.name}.{item.name}", item
            elif dataclass and isinstance(item, ast.AnnAssign):
                yield f"{node.name}.{item.target.id}", item
            if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                yield from ((f"{node.name}.{sub.attr}", sub) for sub in ast.walk(item)
                            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                            and ast.unparse(sub.value) == "self" and not sub.attr.startswith("_"))


def _click_command(node):
    return any(isinstance(d, ast.Call) and ast.unparse(d.func).endswith(".command")
               for d in getattr(node, "decorator_list", ()))


def test_every_module_function_has_a_program_caller():
    # a definition in src/ that only tests read belongs in the tests: each
    # must be read in src/ outside its own definition, or in perfbench/.
    # Names match by spelling, so a method counts as read wherever an
    # attribute of its name is read.
    src = Path(curve.__file__).resolve().parents[1]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(src.rglob("*.py"))}
    reads = sum((_loads(tree) for tree in trees.values()), Counter())
    for _, tree in _perfbench_trees():
        reads.update(_loads(tree))
        reads.update(_bls_names_read(tree))
    found, unread = set(), set()
    for path, tree in trees.items():
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        for name, node in _definitions(tree):
            short = name.rsplit(".", 1)[-1]
            found.add(f"{module}.{name}")
            dunder = short.startswith("__") and short.endswith("__")
            if not dunder and not _click_command(node) and reads[short] <= _loads(node)[short]:
                unread.add(f"{module}.{name}")
    assert {"pairing.bls12381.g1_msm", "pairing.bls12381._fq2_sqrt", "cli.EXIT_VALID", "cli.cmd_verify",
            "keystore.KeyStore.sign_once", "keystore.KeyStore.path", "scheme.SignerKey.s0"} <= found
    stray = sorted(unread - set(_ENTRY_POINTS))
    assert not stray, f"only tests read these definitions: {stray}"
    stale = sorted(set(_ENTRY_POINTS) - unread)
    assert not stale, f"exempt, yet program code reads them: {stale}"
