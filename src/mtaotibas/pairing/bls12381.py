"""BLS12-381 backend: Type-3 pairing at the 128-bit security level.

Everything is implemented over gmpy2 integers (plain ints if gmpy2 is
missing). Field towers use flat tuples, curve arithmetic uses Jacobian
coordinates, the Miller loop runs in affine coordinates with batched
inversions, and the final exponentiation uses the cube-of-the-pairing
decomposition 3*(p^4-p^2+1)/r = (x-1)^2 (x+p) (x^2+p^2-1) + 3, which is an
integer identity checked in the test suite. Cubing the reduced pairing
preserves bilinearity and non-degeneracy, so all protocol equations are
unaffected; only raw GT byte values differ from other libraries.

There is no efficiently computable G2->G1 isomorphism here, so psi is
unsupported on this backend.
"""

import hmac
import struct
from functools import lru_cache

from ..encoding import expand_bytes
from ..errors import InvalidElement
from .engine import PairingEngine

try:
    from gmpy2 import mpz, invert as _invert
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    mpz = int

    def _invert(a, m):
        return pow(a, -1, m)

PRIME = mpz(0x1A0111EA397FE69A4B1BA7B6434BACD764774B84F38512BF6730D2A0F6B0F6241EABFFFEB153FFFFB9FEFFFFFFFFAAAB)
ORDER = 0x73EDA753299D7D483339D80809A1D80553BDA402FFFE5BFEFFFFFFFF00000001
X_CURVE = -0xD201000000010000  # BLS parameter; r = x^4 - x^2 + 1
ABS_X = -X_CURVE
H_EFF_G1 = 0xD201000000010001  # 1 - x, effective G1 cofactor multiplier
_HALF = (PRIME - 1) // 2
_SQRT_EXP = (PRIME + 1) // 4  # p = 3 mod 4
_X_BITS = [int(b) for b in bin(ABS_X)[3:]]  # bits after the MSB

_G1X = mpz(0x17F1D3A73197D7942695638C4FA9AC0FC3688C4F9774B905A14E3A3F171BAC586C55E83FF97A1AEFFB3AF00ADB22C6BB)
_G1Y = mpz(0x08B3F481E3AAA0F1A09E30ED741D8AE4FCF5E095D5D00AF600DB18CB2C04B3EDD03CC744A2888AE40CAA232946C5E7E1)
_G2X = (
    mpz(0x024AA2B2F08F0A91260805272DC51051C6E47AD4FA403B02B4510B647AE3D1770BAC0326A805BBEFD48056C8C121BDB8),
    mpz(0x13E02B6052719F607DACD3A088274F65596BD0D09920B61AB5DA61BBDC7F5049334CF11213945D57E5AC7D055D042B7E),
)
_G2Y = (
    mpz(0x0CE5D527727D6E118CC9CDC6DA2E351AADFD9BAA8CBDD3A76D429A695160D12C923AC9CC3BACA289E193548608B82801),
    mpz(0x0606C4A02EA734CC32ACD2B02BC28B99CB3E287E85A763AF267492AB572E99AB3F370D275CEC1DA1AAA9075FF05F79BE),
)

# ---------------------------------------------------------------------------
# Fq2 = Fq[u] / (u^2 + 1), elements as (a, b) = a + b*u

_FQ2_ZERO = (mpz(0), mpz(0))
_FQ2_ONE = (mpz(1), mpz(0))
_XI = (mpz(1), mpz(1))  # u + 1, the Fq6 non-residue


def fq2_add(x, y):
    return ((x[0] + y[0]) % PRIME, (x[1] + y[1]) % PRIME)


def fq2_sub(x, y):
    return ((x[0] - y[0]) % PRIME, (x[1] - y[1]) % PRIME)


def fq2_neg(x):
    return (-x[0] % PRIME, -x[1] % PRIME)


def fq2_conj(x):
    return (x[0], -x[1] % PRIME)


def fq2_mul(x, y):
    a, b = x
    c, d = y
    return ((a * c - b * d) % PRIME, (a * d + b * c) % PRIME)


def fq2_sqr(x):
    a, b = x
    return ((a + b) * (a - b) % PRIME, 2 * a * b % PRIME)


def fq2_scale(x, c):
    return (x[0] * c % PRIME, x[1] * c % PRIME)


def fq2_mul_xi(x):
    # multiply by u + 1
    a, b = x
    return ((a - b) % PRIME, (a + b) % PRIME)


def fq2_inv(x):
    a, b = x
    d = _invert(a * a + b * b, PRIME)
    return (a * d % PRIME, -b * d % PRIME)


def fq2_batch_inv(items):
    # Montgomery trick: one field inversion for the whole batch
    n = len(items)
    prefix = [items[0]]
    for i in range(1, n):
        prefix.append(fq2_mul(prefix[-1], items[i]))
    acc = fq2_inv(prefix[-1])
    out = [None] * n
    for i in range(n - 1, 0, -1):
        out[i] = fq2_mul(acc, prefix[i - 1])
        acc = fq2_mul(acc, items[i])
    out[0] = acc
    return out


def fq2_pow(x, e):
    out = _FQ2_ONE
    for bit in bin(e)[2:]:
        out = fq2_sqr(out)
        if bit == "1":
            out = fq2_mul(out, x)
    return out


# ---------------------------------------------------------------------------
# Fq6 = Fq2[v] / (v^3 - xi), elements as (a0, a1, a2)

_FQ6_ZERO = (_FQ2_ZERO, _FQ2_ZERO, _FQ2_ZERO)
_FQ6_ONE = (_FQ2_ONE, _FQ2_ZERO, _FQ2_ZERO)


def fq6_add(x, y):
    return (fq2_add(x[0], y[0]), fq2_add(x[1], y[1]), fq2_add(x[2], y[2]))


def fq6_sub(x, y):
    return (fq2_sub(x[0], y[0]), fq2_sub(x[1], y[1]), fq2_sub(x[2], y[2]))


def fq6_neg(x):
    return (fq2_neg(x[0]), fq2_neg(x[1]), fq2_neg(x[2]))


def fq6_mul(x, y):
    # Karatsuba over three Fq2 coefficients, inlined down to integer ops;
    # reductions are deferred to the six output coordinates
    (a0r, a0i), (a1r, a1i), (a2r, a2i) = x
    (b0r, b0i), (b1r, b1i), (b2r, b2i) = y
    v0r = a0r * b0r - a0i * b0i
    v0i = a0r * b0i + a0i * b0r
    v1r = a1r * b1r - a1i * b1i
    v1i = a1r * b1i + a1i * b1r
    v2r = a2r * b2r - a2i * b2i
    v2i = a2r * b2i + a2i * b2r
    sr = a1r + a2r
    si = a1i + a2i
    tr = b1r + b2r
    ti = b1i + b2i
    m1r = sr * tr - si * ti - v1r - v2r  # (a1+a2)(b1+b2) - v1 - v2
    m1i = sr * ti + si * tr - v1i - v2i
    sr = a0r + a1r
    si = a0i + a1i
    tr = b0r + b1r
    ti = b0i + b1i
    m2r = sr * tr - si * ti - v0r - v1r
    m2i = sr * ti + si * tr - v0i - v1i
    sr = a0r + a2r
    si = a0i + a2i
    tr = b0r + b2r
    ti = b0i + b2i
    m3r = sr * tr - si * ti - v0r - v2r
    m3i = sr * ti + si * tr - v0i - v2i
    # c0 = v0 + xi*m1, c1 = m2 + xi*v2, c2 = m3 + v1 with xi = 1 + u
    return (
        ((v0r + m1r - m1i) % PRIME, (v0i + m1r + m1i) % PRIME),
        ((m2r + v2r - v2i) % PRIME, (m2i + v2r + v2i) % PRIME),
        ((m3r + v1r) % PRIME, (m3i + v1i) % PRIME),
    )


def fq6_mul_v(x):
    # multiply by v: (a0, a1, a2) -> (xi*a2, a0, a1)
    return (fq2_mul_xi(x[2]), x[0], x[1])


def fq6_inv(x):
    a0, a1, a2 = x
    t0 = fq2_sub(fq2_sqr(a0), fq2_mul_xi(fq2_mul(a1, a2)))
    t1 = fq2_sub(fq2_mul_xi(fq2_sqr(a2)), fq2_mul(a0, a1))
    t2 = fq2_sub(fq2_sqr(a1), fq2_mul(a0, a2))
    d = fq2_add(fq2_mul(a0, t0), fq2_mul_xi(fq2_add(fq2_mul(a1, t2), fq2_mul(a2, t1))))
    dinv = fq2_inv(d)
    return (fq2_mul(t0, dinv), fq2_mul(t1, dinv), fq2_mul(t2, dinv))


def _fq6_mul_sparse01(x, c0, c1):
    # x * (c0 + c1*v), inlined
    (a0r, a0i), (a1r, a1i), (a2r, a2i) = x
    c0r, c0i = c0
    c1r, c1i = c1
    m00r = a0r * c0r - a0i * c0i
    m00i = a0r * c0i + a0i * c0r
    m11r = a1r * c1r - a1i * c1i
    m11i = a1r * c1i + a1i * c1r
    m01r = a0r * c1r - a0i * c1i + a1r * c0r - a1i * c0i
    m01i = a0r * c1i + a0i * c1r + a1r * c0i + a1i * c0r
    m21r = a2r * c1r - a2i * c1i
    m21i = a2r * c1i + a2i * c1r
    m20r = a2r * c0r - a2i * c0i
    m20i = a2r * c0i + a2i * c0r
    return (
        ((m00r + m21r - m21i) % PRIME, (m00i + m21r + m21i) % PRIME),
        (m01r % PRIME, m01i % PRIME),
        ((m11r + m20r) % PRIME, (m11i + m20i) % PRIME),
    )


def _fq6_mul_sparse1(x, c1):
    # x * (c1*v), inlined
    (a0r, a0i), (a1r, a1i), (a2r, a2i) = x
    c1r, c1i = c1
    m2r = a2r * c1r - a2i * c1i
    m2i = a2r * c1i + a2i * c1r
    return (
        ((m2r - m2i) % PRIME, (m2r + m2i) % PRIME),
        ((a0r * c1r - a0i * c1i) % PRIME, (a0r * c1i + a0i * c1r) % PRIME),
        ((a1r * c1r - a1i * c1i) % PRIME, (a1r * c1i + a1i * c1r) % PRIME),
    )


# ---------------------------------------------------------------------------
# Fq12 = Fq6[w] / (w^2 - v), elements as (a, b) = a + b*w

FQ12_ONE = (_FQ6_ONE, _FQ6_ZERO)


def fq12_mul(x, y):
    a, b = x
    c, d = y
    t0 = fq6_mul(a, c)
    t1 = fq6_mul(b, d)
    hi = fq6_sub(fq6_mul(fq6_add(a, b), fq6_add(c, d)), fq6_add(t0, t1))
    return (fq6_add(t0, fq6_mul_v(t1)), hi)


def fq12_sqr(x):
    a, b = x
    t = fq6_mul(a, b)
    lo = fq6_sub(fq6_sub(fq6_mul(fq6_add(a, b), fq6_add(a, fq6_mul_v(b))), t), fq6_mul_v(t))
    return (lo, fq6_add(t, t))


def fq12_conj(x):
    return (x[0], fq6_neg(x[1]))


def fq12_inv(x):
    a, b = x
    d = fq6_inv(fq6_sub(fq6_mul(a, a), fq6_mul_v(fq6_mul(b, b))))
    return (fq6_mul(a, d), fq6_neg(fq6_mul(b, d)))


def fq12_pow(x, e):
    out = FQ12_ONE
    for bit in bin(e)[2:]:
        out = fq12_sqr(out)
        if bit == "1":
            out = fq12_mul(out, x)
    return out


def fq12_mul_by_014(f, c0, c1, c4):
    # f * (c0 + c1*v + c4*v*w), the shape of an untwisted line function
    a, b = f
    t0 = _fq6_mul_sparse01(a, c0, c1)
    t1 = _fq6_mul_sparse1(b, c4)
    t2 = _fq6_mul_sparse01(fq6_add(a, b), c0, fq2_add(c1, c4))
    return (fq6_add(t0, fq6_mul_v(t1)), fq6_sub(fq6_sub(t2, t0), t1))


# Frobenius: w^(p-1) = xi^((p-1)/6), applied per power-of-w coefficient
assert (PRIME - 1) % 6 == 0
_FROB1 = [_FQ2_ONE]
_gamma = fq2_pow(_XI, (PRIME - 1) // 6)
for _ in range(5):
    _FROB1.append(fq2_mul(_FROB1[-1], _gamma))


def fq12_frob(x):
    (c0, c2, c4), (c1, c3, c5) = x
    return (
        (fq2_conj(c0), fq2_mul(fq2_conj(c2), _FROB1[2]), fq2_mul(fq2_conj(c4), _FROB1[4])),
        (fq2_mul(fq2_conj(c1), _FROB1[1]), fq2_mul(fq2_conj(c3), _FROB1[3]), fq2_mul(fq2_conj(c5), _FROB1[5])),
    )


def fq12_frob2(x):
    return fq12_frob(fq12_frob(x))


# ---------------------------------------------------------------------------
# G1: y^2 = x^3 + 4 over Fq. Affine points are (x, y) tuples, None = identity.
# Jacobian triples (X, Y, Z) are used inside scalar multiplication.


def g1_on_curve(pt):
    if pt is None:
        return True
    x, y = pt
    return (y * y - x * x * x - 4) % PRIME == 0


def _j_double(X, Y, Z):
    A = X * X % PRIME
    B = Y * Y % PRIME
    C = B * B % PRIME
    D = 2 * ((X + B) * (X + B) - A - C) % PRIME
    E = 3 * A % PRIME
    X3 = (E * E - 2 * D) % PRIME
    Y3 = (E * (D - X3) - 8 * C) % PRIME
    Z3 = 2 * Y * Z % PRIME
    return (X3, Y3, Z3)


def _j_add_affine(X1, Y1, Z1, x2, y2):
    # mixed addition with an affine second operand
    if Z1 == 0:
        return (x2, y2, mpz(1))
    Z1Z1 = Z1 * Z1 % PRIME
    U2 = x2 * Z1Z1 % PRIME
    S2 = y2 * Z1 * Z1Z1 % PRIME
    H = (U2 - X1) % PRIME
    r = (S2 - Y1) % PRIME
    if H == 0:
        if r == 0:
            return _j_double(X1, Y1, Z1)
        return (mpz(0), mpz(1), mpz(0))
    HH = H * H % PRIME
    HHH = H * HH % PRIME
    V = X1 * HH % PRIME
    X3 = (r * r - HHH - 2 * V) % PRIME
    Y3 = (r * (V - X3) - Y1 * HHH) % PRIME
    Z3 = Z1 * H % PRIME
    return (X3, Y3, Z3)


def _j_normalize(X, Y, Z):
    if Z == 0:
        return None
    zi = _invert(Z, PRIME)
    zi2 = zi * zi % PRIME
    return (X * zi2 % PRIME, Y * zi2 * zi % PRIME)


def g1_neg(pt):
    if pt is None:
        return None
    return (pt[0], -pt[1] % PRIME)


def g1_add(p1, p2):
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2:
        if (y1 + y2) % PRIME == 0:
            return None
        lam = 3 * x1 * x1 * _invert(2 * y1, PRIME) % PRIME
    else:
        lam = (y2 - y1) * _invert(x2 - x1, PRIME) % PRIME
    x3 = (lam * lam - x1 - x2) % PRIME
    return (x3, (lam * (x1 - x3) - y1) % PRIME)


def g1_mul_plain(pt, k):
    if pt is None or k == 0:
        return None
    acc = (mpz(0), mpz(1), mpz(0))
    x, y = pt
    for bit in bin(int(k))[2:]:
        acc = _j_double(*acc)
        if bit == "1":
            acc = _j_add_affine(*acc, x, y)
    return _j_normalize(*acc)


# GLV: phi(x, y) = (beta*x, y) acts as multiplication by LAMBDA on the
# r-order subgroup. beta is the cube root of unity 2^(2(p-1)/3) in Fq that
# pairs with LAMBDA; test_glv_matches_plain checks beta^3 = 1 and
# phi(G) = [LAMBDA]G.
GLV_LAMBDA = X_CURVE * X_CURVE - 1
GLV_BETA = mpz(0x1A0111EA397FE699EC02408663D4DE85AA0D857D89759AD4897D29650FB85F9B409427EB4F49FFFD8BFD00000000AAAC)


def g1_mul(pt, k):
    k = int(k) % ORDER
    if pt is None or k == 0:
        return None
    k1, k2 = k % GLV_LAMBDA, k // GLV_LAMBDA
    x, y = pt
    phi = (x * GLV_BETA % PRIME, y)
    both = g1_add(pt, phi)
    table = (None, pt, phi, both)
    acc = (mpz(0), mpz(1), mpz(0))
    for i in range(max(k1.bit_length(), k2.bit_length()) - 1, -1, -1):
        acc = _j_double(*acc)
        sel = ((k1 >> i) & 1) | (((k2 >> i) & 1) << 1)
        if sel:
            t = table[sel]
            acc = _j_add_affine(*acc, t[0], t[1])
    return _j_normalize(*acc)


def g1_in_subgroup(pt):
    return pt is None or (g1_on_curve(pt) and g1_mul_plain(pt, ORDER) is None)


# ---------------------------------------------------------------------------
# G2: y^2 = x^3 + 4(u+1) over Fq2. Same shapes as G1 with Fq2 coordinates.

_B2 = (mpz(4), mpz(4))


def g2_on_curve(pt):
    if pt is None:
        return True
    x, y = pt
    return fq2_sub(fq2_sqr(y), fq2_add(fq2_mul(fq2_sqr(x), x), _B2)) == _FQ2_ZERO


def _j2_double(X, Y, Z):
    # same formulas as _j_double, inlined over Fq2 coordinates
    xr, xi = X
    yr, yi = Y
    zr, zi = Z
    ar = (xr + xi) * (xr - xi) % PRIME
    ai = 2 * xr * xi % PRIME
    br = (yr + yi) * (yr - yi) % PRIME
    bi = 2 * yr * yi % PRIME
    cr = (br + bi) * (br - bi) % PRIME
    ci = 2 * br * bi % PRIME
    tr = xr + br
    ti = xi + bi
    dr = 2 * ((tr + ti) * (tr - ti) - ar - cr) % PRIME
    di = 2 * (2 * tr * ti - ai - ci) % PRIME
    er = 3 * ar
    ei = 3 * ai
    x3r = ((er + ei) * (er - ei) - 2 * dr) % PRIME
    x3i = (2 * er * ei - 2 * di) % PRIME
    t2r = dr - x3r
    t2i = di - x3i
    y3r = (er * t2r - ei * t2i - 8 * cr) % PRIME
    y3i = (er * t2i + ei * t2r - 8 * ci) % PRIME
    z3r = 2 * (yr * zr - yi * zi) % PRIME
    z3i = 2 * (yr * zi + yi * zr) % PRIME
    return ((x3r, x3i), (y3r, y3i), ((z3r, z3i)))


def _j2_add_affine(X1, Y1, Z1, x2, y2):
    if Z1 == _FQ2_ZERO:
        return (x2, y2, _FQ2_ONE)
    x1r, x1i = X1
    y1r, y1i = Y1
    z1r, z1i = Z1
    x2r, x2i = x2
    y2r, y2i = y2
    zzr = (z1r + z1i) * (z1r - z1i) % PRIME
    zzi = 2 * z1r * z1i % PRIME
    u2r = x2r * zzr - x2i * zzi
    u2i = x2r * zzi + x2i * zzr
    t0r = y2r * z1r - y2i * z1i
    t0i = y2r * z1i + y2i * z1r
    s2r = t0r * zzr - t0i * zzi
    s2i = t0r * zzi + t0i * zzr
    hr = (u2r - x1r) % PRIME
    hi = (u2i - x1i) % PRIME
    rr = (s2r - y1r) % PRIME
    ri = (s2i - y1i) % PRIME
    if hr == 0 and hi == 0:
        if rr == 0 and ri == 0:
            return _j2_double(X1, Y1, Z1)
        return (_FQ2_ZERO, _FQ2_ONE, _FQ2_ZERO)
    hhr = (hr + hi) * (hr - hi) % PRIME
    hhi = 2 * hr * hi % PRIME
    h3r = hr * hhr - hi * hhi
    h3i = hr * hhi + hi * hhr
    vr = x1r * hhr - x1i * hhi
    vi = x1r * hhi + x1i * hhr
    x3r = ((rr + ri) * (rr - ri) - h3r - 2 * vr) % PRIME
    x3i = (2 * rr * ri - h3i - 2 * vi) % PRIME
    t1r = vr - x3r
    t1i = vi - x3i
    t2r = y1r * h3r - y1i * h3i
    t2i = y1r * h3i + y1i * h3r
    y3r = (rr * t1r - ri * t1i - t2r) % PRIME
    y3i = (rr * t1i + ri * t1r - t2i) % PRIME
    z3r = (z1r * hr - z1i * hi) % PRIME
    z3i = (z1r * hi + z1i * hr) % PRIME
    return ((x3r, x3i), (y3r, y3i), (z3r, z3i))


def g2_neg(pt):
    if pt is None:
        return None
    return (pt[0], fq2_neg(pt[1]))


def g2_add(p1, p2):
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2:
        if fq2_add(y1, y2) == _FQ2_ZERO:
            return None
        lam = fq2_mul(fq2_scale(fq2_sqr(x1), 3), fq2_inv(fq2_add(y1, y1)))
    else:
        lam = fq2_mul(fq2_sub(y2, y1), fq2_inv(fq2_sub(x2, x1)))
    x3 = fq2_sub(fq2_sub(fq2_sqr(lam), x1), x2)
    return (x3, fq2_sub(fq2_mul(lam, fq2_sub(x1, x3)), y1))


def g2_mul(pt, k):
    k = int(k) % ORDER
    if pt is None or k == 0:
        return None
    acc = (_FQ2_ZERO, _FQ2_ONE, _FQ2_ZERO)
    x, y = pt
    for bit in bin(k)[2:]:
        acc = _j2_double(*acc)
        if bit == "1":
            acc = _j2_add_affine(*acc, x, y)
    X, Y, Z = acc
    if Z == _FQ2_ZERO:
        return None
    zi = fq2_inv(Z)
    zi2 = fq2_sqr(zi)
    return (fq2_mul(X, zi2), fq2_mul(Y, fq2_mul(zi2, zi)))


def g2_in_subgroup(pt):
    return pt is None or (g2_on_curve(pt) and g2_mul(pt, ORDER) is None)


# ---------------------------------------------------------------------------
# Pairing: affine Miller loop with shared iteration across terms, untwisted
# line functions ((c0, c1, c4) sparse shape), and the cubed final
# exponentiation described in the module docstring.


def _miller_terms(pairs):
    # pairs: list of ((xp, yp) in Fq, (xq, yq) in Fq2); no identities
    f = FQ12_ONE
    ts = [q for _, q in pairs]
    n = len(pairs)
    for bit in _X_BITS:
        f = fq12_sqr(f)
        invs = fq2_batch_inv([fq2_add(t[1], t[1]) for t in ts])
        for i in range(n):
            xp, yp = pairs[i][0]
            xt, yt = ts[i]
            lam = fq2_mul(fq2_scale(fq2_sqr(xt), 3), invs[i])
            x3 = fq2_sub(fq2_sqr(lam), fq2_add(xt, xt))
            y3 = fq2_sub(fq2_mul(lam, fq2_sub(xt, x3)), yt)
            ts[i] = (x3, y3)
            c0 = fq2_sub(fq2_mul(lam, xt), yt)
            c1 = fq2_neg(fq2_scale(lam, xp))
            f = fq12_mul_by_014(f, c0, c1, (yp, mpz(0)))
        if bit:
            invs = fq2_batch_inv([fq2_sub(pairs[i][1][0], ts[i][0]) for i in range(n)])
            for i in range(n):
                xp, yp = pairs[i][0]
                xq, yq = pairs[i][1]
                xt, yt = ts[i]
                lam = fq2_mul(fq2_sub(yq, yt), invs[i])
                x3 = fq2_sub(fq2_sub(fq2_sqr(lam), xt), xq)
                y3 = fq2_sub(fq2_mul(lam, fq2_sub(xt, x3)), yt)
                ts[i] = (x3, y3)
                c0 = fq2_sub(fq2_mul(lam, xq), yq)
                c1 = fq2_neg(fq2_scale(lam, xp))
                f = fq12_mul_by_014(f, c0, c1, (yp, mpz(0)))
    return fq12_conj(f)  # the curve parameter is negative


def _pow_abs_x(f):
    out = f
    for bit in _X_BITS:
        out = fq12_sqr(out)
        if bit:
            out = fq12_mul(out, f)
    return out


def _exp_x_minus_1(f):
    # f^(x-1) in the cyclotomic subgroup (inverse = conjugate there)
    return fq12_mul(fq12_conj(_pow_abs_x(f)), fq12_conj(f))


def final_exponentiation(f):
    # easy part: f^((p^6-1)(p^2+1)); lands in the cyclotomic subgroup
    f = fq12_mul(fq12_conj(f), fq12_inv(f))
    f = fq12_mul(fq12_frob2(f), f)
    # hard part, cubed: exponent (x-1)^2 (x+p) (x^2+p^2-1) + 3
    t = _exp_x_minus_1(_exp_x_minus_1(f))
    t = fq12_mul(fq12_conj(_pow_abs_x(t)), fq12_frob(t))  # ^(x+p)
    t = fq12_mul(
        fq12_mul(_pow_abs_x(_pow_abs_x(t)), fq12_frob2(t)),  # ^(x^2+p^2)
        fq12_conj(t),  # ^(-1)
    )
    return fq12_mul(t, fq12_mul(fq12_sqr(f), f))


def multi_miller_loop(pairs):
    live = [(p, q) for p, q in pairs if p is not None and q is not None]
    if not live:
        return FQ12_ONE
    return _miller_terms(live)


# ---------------------------------------------------------------------------
# Square roots and hash-to-curve


def _fq_sqrt(a):
    y = pow(a, _SQRT_EXP, PRIME)
    if y * y % PRIME != a % PRIME:
        return None
    return y


def _fq2_sqrt(t):
    # via the norm: z = z0 + z1*u with z0^2 = (a +/- sqrt(a^2+b^2)) / 2
    a, b = t
    if b == 0:
        z0 = _fq_sqrt(a)
        if z0 is not None:
            return (z0, mpz(0))
        z1 = _fq_sqrt(-a % PRIME)
        if z1 is not None:
            return (mpz(0), z1)
        return None
    n = _fq_sqrt((a * a + b * b) % PRIME)
    if n is None:
        return None
    inv2 = _invert(mpz(2), PRIME)
    for root in (n, -n % PRIME):
        c = (a + root) * inv2 % PRIME
        z0 = _fq_sqrt(c)
        if z0 is None or z0 == 0:
            continue
        z1 = b * _invert(2 * z0, PRIME) % PRIME
        cand = (z0, z1)
        if fq2_sqr(cand) == (a % PRIME, b % PRIME):
            return cand
    return None


def hash_to_g1_point(tag: bytes, data: bytes):
    """Deterministic map {0,1}* -> G1: derive x candidates from a wide hash,
    take the first on-curve x, pick the y sign from one hash bit, then clear
    the cofactor. Rejection sampling keeps the output statistically close to
    uniform over the curve; cofactor clearing lands it in the r-subgroup."""
    for ctr in range(256):
        stream = expand_bytes(tag, struct.pack(">B", ctr) + data, 65)
        x = int.from_bytes(stream[:64], "big") % PRIME
        t = (x * x * x + 4) % PRIME
        y = _fq_sqrt(t)
        if y is None:
            continue
        if stream[64] & 1:
            y = -y % PRIME
        pt = g1_mul_plain((mpz(x), mpz(y)), H_EFF_G1)
        if pt is None:
            continue
        return pt
    raise RuntimeError("hash_to_g1 exhausted 256 counters")  # pragma: no cover


# ---------------------------------------------------------------------------
# Canonical encodings (compressed points, zcash-style flag bits)


def _fq_to_bytes(v):
    return int(v).to_bytes(48, "big")


def encode_g1_point(pt) -> bytes:
    if pt is None:
        return bytes([0xC0]) + bytes(47)
    x, y = pt
    flags = 0x80 | (0x20 if y > _HALF else 0)
    raw = bytearray(_fq_to_bytes(x))
    raw[0] |= flags
    return bytes(raw)


def decode_g1_point(data: bytes):
    if len(data) != 48:
        raise InvalidElement("G1 encodings are 48 bytes")
    flags = data[0] & 0xE0
    if not flags & 0x80:
        raise InvalidElement("uncompressed G1 encodings not supported")
    body = bytes([data[0] & 0x1F]) + data[1:]
    x = int.from_bytes(body, "big")
    if flags & 0x40:
        if x != 0 or flags & 0x20:
            raise InvalidElement("malformed G1 identity encoding")
        return None
    if x >= PRIME:
        raise InvalidElement("G1 x coordinate out of range")
    y = _fq_sqrt((x * x * x + 4) % PRIME)
    if y is None:
        raise InvalidElement("G1 x coordinate not on the curve")
    if bool(flags & 0x20) != (y > _HALF):
        y = -y % PRIME
    pt = (mpz(x), mpz(y))
    if not g1_in_subgroup(pt):
        raise InvalidElement("G1 point outside the prime-order subgroup")
    return pt


def encode_g2_point(pt) -> bytes:
    if pt is None:
        return bytes([0xC0]) + bytes(95)
    (x0, x1), (y0, y1) = pt
    larger = (int(y1), int(y0)) > (int(-y1 % PRIME), int(-y0 % PRIME))
    flags = 0x80 | (0x20 if larger else 0)
    raw = bytearray(_fq_to_bytes(x1) + _fq_to_bytes(x0))
    raw[0] |= flags
    return bytes(raw)


def decode_g2_point(data: bytes):
    if len(data) != 96:
        raise InvalidElement("G2 encodings are 96 bytes")
    flags = data[0] & 0xE0
    if not flags & 0x80:
        raise InvalidElement("uncompressed G2 encodings not supported")
    body = bytes([data[0] & 0x1F]) + data[1:]
    x1 = int.from_bytes(body[:48], "big")
    x0 = int.from_bytes(body[48:], "big")
    if flags & 0x40:
        if x0 != 0 or x1 != 0 or flags & 0x20:
            raise InvalidElement("malformed G2 identity encoding")
        return None
    if x0 >= PRIME or x1 >= PRIME:
        raise InvalidElement("G2 x coordinate out of range")
    x = (mpz(x0), mpz(x1))
    y = _fq2_sqrt(fq2_add(fq2_mul(fq2_sqr(x), x), _B2))
    if y is None:
        raise InvalidElement("G2 x coordinate not on the curve")
    larger = (int(y[1]), int(y[0])) > (int(-y[1] % PRIME), int(-y[0] % PRIME))
    if bool(flags & 0x20) != larger:
        y = fq2_neg(y)
    pt = (x, y)
    if not g2_in_subgroup(pt):
        raise InvalidElement("G2 point outside the prime-order subgroup")
    return pt


def encode_gt_value(f) -> bytes:
    (c0, c2, c4), (c1, c3, c5) = f
    out = bytearray()
    for pair in (c0, c2, c4, c1, c3, c5):
        out += _fq_to_bytes(pair[0]) + _fq_to_bytes(pair[1])
    return bytes(out)


# ---------------------------------------------------------------------------
# Element wrappers and the engine


class G1Point:
    __slots__ = ("pt",)

    def __init__(self, pt):
        self.pt = pt

    def __mul__(self, other):
        if type(other) is not G1Point:
            return NotImplemented
        return G1Point(g1_add(self.pt, other.pt))

    def __pow__(self, k: int):
        return G1Point(g1_mul(self.pt, k))

    def inverse(self):
        return G1Point(g1_neg(self.pt))

    def __eq__(self, other):
        # data-independent comparison over canonical encodings
        return type(other) is G1Point and hmac.compare_digest(
            encode_g1_point(self.pt), encode_g1_point(other.pt)
        )

    def __hash__(self):
        return hash(("G1", self.pt))

    def __repr__(self):
        return f"G1Point({encode_g1_point(self.pt).hex()})"


class G2Point:
    __slots__ = ("pt",)

    def __init__(self, pt):
        self.pt = pt

    def __mul__(self, other):
        if type(other) is not G2Point:
            return NotImplemented
        return G2Point(g2_add(self.pt, other.pt))

    def __pow__(self, k: int):
        return G2Point(g2_mul(self.pt, k))

    def inverse(self):
        return G2Point(g2_neg(self.pt))

    def __eq__(self, other):
        return type(other) is G2Point and hmac.compare_digest(
            encode_g2_point(self.pt), encode_g2_point(other.pt)
        )

    def __hash__(self):
        return hash(("G2", self.pt))

    def __repr__(self):
        return f"G2Point({encode_g2_point(self.pt).hex()})"


class GTElement:
    __slots__ = ("f",)

    def __init__(self, f):
        self.f = f

    def __mul__(self, other):
        if type(other) is not GTElement:
            return NotImplemented
        return GTElement(fq12_mul(self.f, other.f))

    def __pow__(self, k: int):
        k = int(k) % ORDER
        if k == 0:
            return GTElement(FQ12_ONE)
        return GTElement(fq12_pow(self.f, k))

    def inverse(self):
        # all GT values live in the order-r cyclotomic subgroup, where the
        # inverse is the conjugate
        return GTElement(fq12_conj(self.f))

    def __eq__(self, other):
        # verification accept/reject hinges on this comparison; keep it
        # data-independent
        return type(other) is GTElement and hmac.compare_digest(
            encode_gt_value(self.f), encode_gt_value(other.f)
        )

    def __hash__(self):
        return hash(("GT", self.f))

    def __repr__(self):
        return f"GTElement({encode_gt_value(self.f)[:8].hex()}...)"


class Bls12381Engine(PairingEngine):
    """Production PairingEngine over BLS12-381."""

    backend = "production"
    order = ORDER
    G1 = G1Point
    G2 = G2Point
    scalar_bytes = 32
    g1_bytes = 48
    g2_bytes = 96

    def __init__(self):
        super().__init__()
        self.g1 = G1Point((_G1X, _G1Y))
        self.g2 = G2Point((_G2X, _G2Y))
        self.identity_g1 = G1Point(None)
        self.identity_g2 = G2Point(None)
        self.identity_gt = GTElement(FQ12_ONE)
        # hash_to_g1 is a pure function of (tag, input); memoize it
        self._hash_g1 = lru_cache(maxsize=8192)(hash_to_g1_point)

    # pair, multi_pair, hash_to_g1 and the decoders stay in this class body:
    # the benchmark's tracer wraps them here by name

    def pair(self, p: G1Point, r: G2Point) -> GTElement:
        self._counted([(p, r)])
        return GTElement(final_exponentiation(multi_miller_loop([(p.pt, r.pt)])))

    def multi_pair(self, terms) -> GTElement:
        pairs = [(p.pt, r.pt) for p, r in self._counted(terms)]
        return GTElement(final_exponentiation(multi_miller_loop(pairs)))

    def hash_to_g1(self, tag: bytes, data: bytes) -> G1Point:
        # an empty tag raises ValueError in expand_bytes and is never cached
        return G1Point(self._hash_g1(bytes(tag), bytes(data)))

    def _encode_g1(self, e: G1Point) -> bytes:
        return encode_g1_point(e.pt)

    def decode_g1(self, data: bytes) -> G1Point:
        return G1Point(decode_g1_point(data))

    def _encode_g2(self, e: G2Point) -> bytes:
        return encode_g2_point(e.pt)

    def decode_g2(self, data: bytes) -> G2Point:
        return G2Point(decode_g2_point(data))
