"""BLS12-381 backend: Type-3 pairing at the 128-bit security level.

Everything is implemented over Python ints. Field towers use flat tuples
and curve arithmetic uses Jacobian coordinates. Variable-base G1 scalar
multiplication is one kernel, g1_msm: a multi-scalar multiplication that
splits each scalar with the GLV endomorphism phi into two halves, recodes
each half to width-5 w-NAF and interleaves every half of every point over
one chain of doublings (Moller, SAC 2001), each point with a table of
P, 3P, ..., 15P and their negatives, which phi's half reads as (beta*x, y);
g1_mul is its one-point case, and the G1 product a * b its two-point case
with both scalars 1. One batched normalization, one inversion for a whole
list, brings G1 tables and results to affine. g1_mul_plain, the
reference, is a double-and-add ladder.

The G1 formulas are dbl-2009-l and madd-2004-hmv of the Explicit-Formulas
Database, lazily reduced (Aranha-Karabina-Longa-Gebotys-Lopez, EUROCRYPT
2011): the doubling's C = B^2, X + B and E = 3A and the addition's
H = U2 - X1 and r = S2 - Y1 enter their next operation unreduced.
Every coordinate passed between formulas is in [0, p), which keeps H and
r in (-p, p), so the tests H == 0 and r == 0 that pick the doubling or
the identity stay exact.

On the twist E' over Fq2, psi (untwist, Frobenius, twist: two conjugations
and two products by constants) acts on G2 as [x] = -[|x|]. g2_mul splits
k mod r into four base-|x| digits of 64 bits (Galbraith-Lin-Scott,
EUROCRYPT 2009) over the bases Q, -psi(Q), psi^2(Q), -psi^3(Q): one chain
of 64 doublings and a 15-entry joint table, against 255 doublings for the
ladder. The subgroup checks are Scott's (ePrint 2021/1130): Q on E' is in
G2 iff psi(Q) = -[|x|]Q, and P on E is in G1 iff [x^2]P = -phi^2(P), Bowe's
test (ePrint 2019/814) with the GLV phi. Both multiply by the ladder, on
64 and 128 bits, as the endomorphism splits hold only on the subgroups.

The Miller loop is lines, then evaluation. The lines depend on the G2
argument Q alone: _g2_lines walks T from Q to [|x|]Q in affine coordinates,
tangent and chord alike, with one batched inversion per step across all the
points, and keeps each step's (lambda, lambda*x_T - y_T). The evaluation
loop squares f at each doubling step and multiplies in every term's line,
divided by y_P (never 0: E(Fq) has odd order) to the shape c0 + c1*v + v*w.
The division is free, as the final exponentiation sends every Fq factor to
1 (Barreto-Kim-Lynn-Scott, CRYPTO 2002). Both kernels are flat integer
formulas with one reduction per output coordinate: fq12_sqr as three Fq6
squarings, and fq12_mul_by_line, which takes the cached line and the
term's 1/y_P and -x_P/y_P and scales as it multiplies. multi_miller_loop
builds the lines of its distinct G2 points on each call; an engine's
first_failing, the one pairing check program code calls, and multi_pair
take them from a per-engine LRU of _LINE_CACHE_POINTS points, as the
scheme's G2 arguments (g2, y, each authority's y_i) recur (the
fixed-argument pairing of Costello-Stebila, LATINCRYPT 2010). All run the
same evaluation loop.

first_failing builds the fresh lines of several products together, then
multiplies their Miller values and pays one final exponentiation for them
all (Granger-Smart, ePrint 2006/172). That is sound when every product but
the last carries random weights (the small-exponent batch test of
Ferrara-Green-Hohenberger-Pedersen, CT-RSA 2009). Only when the combined
check fails does it final-exponentiate the products one at a time, in
order, up to the first that fails; the last is named without one.

The final exponentiation computes the cube of the pairing through the
decomposition
3*(p^4-p^2+1)/r = (x-1)^2 (x+p) (x^2+p^2-1) + 3, an integer identity
checked in the test suite. After its easy part every value lies in the
cyclotomic subgroup, so its squarings are Granger-Scott's (PKC 2010):
three Fq4 squarings in flat integer formulas, under half the products of
fq12_sqr. Cubing the reduced pairing preserves bilinearity and
non-degeneracy, so all protocol equations are unaffected; only raw GT byte
values differ from other libraries.

Points are encoded compressed, in the zcash style: x as 48-byte big-endian
Fq coordinates (an Fq2 x as c1 then c0, so G1 takes 48 bytes and G2 96),
with three flags in the top bits of the first byte. 0x80 marks the
compressed form and is always set; 0x40 marks the identity, whose other
bits are all zero; 0x20 is set when y is the larger of y and -y, comparing
coordinates in that same order. Decoding checks, in order, the length, the
compression flag, the identity form, x < p, the curve and the subgroup,
and raises InvalidElement at the first failure.

Every Fq square root (hash-to-G1's candidates, both decoders, each z0
candidate of an Fq2 root) is gated by a Jacobi symbol, about a seventh of
the cost of the exponentiation a^((p+1)/4): a non-square is rejected
without it, so each hash makes exactly one exponentiation.

There is no efficiently computable G2->G1 isomorphism here, so the
engine's psi (G2 -> G1, not the twist endomorphism above) is unsupported
on this backend.
"""

import hmac
import struct
from collections import OrderedDict

from ..encoding import expand_bytes
from ..errors import InvalidElement
from .engine import PairingEngine

PRIME = 0x1A0111EA397FE69A4B1BA7B6434BACD764774B84F38512BF6730D2A0F6B0F6241EABFFFEB153FFFFB9FEFFFFFFFFAAAB
ORDER = 0x73EDA753299D7D483339D80809A1D80553BDA402FFFE5BFEFFFFFFFF00000001
X_CURVE = -0xD201000000010000  # BLS parameter; r = x^4 - x^2 + 1
ABS_X = -X_CURVE
H_EFF_G1 = 0xD201000000010001  # 1 - x, effective G1 cofactor multiplier
_SQRT_EXP = (PRIME + 1) // 4  # p = 3 mod 4
_INV2 = (PRIME + 1) // 2  # 1/2 mod p

_G1X = 0x17F1D3A73197D7942695638C4FA9AC0FC3688C4F9774B905A14E3A3F171BAC586C55E83FF97A1AEFFB3AF00ADB22C6BB
_G1Y = 0x08B3F481E3AAA0F1A09E30ED741D8AE4FCF5E095D5D00AF600DB18CB2C04B3EDD03CC744A2888AE40CAA232946C5E7E1
_G2X = (
    0x024AA2B2F08F0A91260805272DC51051C6E47AD4FA403B02B4510B647AE3D1770BAC0326A805BBEFD48056C8C121BDB8,
    0x13E02B6052719F607DACD3A088274F65596BD0D09920B61AB5DA61BBDC7F5049334CF11213945D57E5AC7D055D042B7E,
)
_G2Y = (
    0x0CE5D527727D6E118CC9CDC6DA2E351AADFD9BAA8CBDD3A76D429A695160D12C923AC9CC3BACA289E193548608B82801,
    0x0606C4A02EA734CC32ACD2B02BC28B99CB3E287E85A763AF267492AB572E99AB3F370D275CEC1DA1AAA9075FF05F79BE,
)

# ---------------------------------------------------------------------------
# Fq2 = Fq[u] / (u^2 + 1), elements as (a, b) = a + b*u

_FQ2_ZERO = (0, 0)
_FQ2_ONE = (1, 0)
_XI = (1, 1)  # u + 1, the Fq6 non-residue


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
    d = pow(a * a + b * b, -1, PRIME)
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


def _pow(mul, sqr, one, x, e):
    # left-to-right square-and-multiply, starting from x at the top bit
    if e == 0:
        return one
    out = x
    for bit in bin(e)[3:]:
        out = sqr(out)
        if bit == "1":
            out = mul(out, x)
    return out


def fq2_pow(x, e):
    return _pow(fq2_mul, fq2_sqr, _FQ2_ONE, x, e)


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
    # (a + b*w)^2 = (a^2 + v*b^2) + ((a+b)^2 - a^2 - b^2)*w, as w^2 = v. Each
    # Fq6 square z^2 is Chung-Hasan's SQR2 (SAC 2006): with s0 = z0^2,
    # s1 = 2*z0*z1, s2 = (z0 - z1 + z2)^2, s3 = 2*z1*z2 and s4 = z2^2,
    # z^2 = (s0 + xi*s3) + (s1 + xi*s4)*v + (s1 + s2 + s3 - s0 - s4)*v^2,
    # three Fq2 squarings and two products. Reductions wait for the twelve
    # outputs.
    ((a0r, a0i), (a1r, a1i), (a2r, a2i)), ((b0r, b0i), (b1r, b1i), (b2r, b2i)) = x
    s0r = (a0r + a0i) * (a0r - a0i)  # A = a^2
    s0i = 2 * a0r * a0i
    s1r = 2 * (a0r * a1r - a0i * a1i)
    s1i = 2 * (a0r * a1i + a0i * a1r)
    tr = a0r - a1r + a2r
    ti = a0i - a1i + a2i
    s2r = (tr + ti) * (tr - ti)
    s2i = 2 * tr * ti
    s3r = 2 * (a1r * a2r - a1i * a2i)
    s3i = 2 * (a1r * a2i + a1i * a2r)
    s4r = (a2r + a2i) * (a2r - a2i)
    s4i = 2 * a2r * a2i
    A0r = s0r + s3r - s3i
    A0i = s0i + s3r + s3i
    A1r = s1r + s4r - s4i
    A1i = s1i + s4r + s4i
    A2r = s1r + s2r + s3r - s0r - s4r
    A2i = s1i + s2i + s3i - s0i - s4i
    s0r = (b0r + b0i) * (b0r - b0i)  # B = b^2
    s0i = 2 * b0r * b0i
    s1r = 2 * (b0r * b1r - b0i * b1i)
    s1i = 2 * (b0r * b1i + b0i * b1r)
    tr = b0r - b1r + b2r
    ti = b0i - b1i + b2i
    s2r = (tr + ti) * (tr - ti)
    s2i = 2 * tr * ti
    s3r = 2 * (b1r * b2r - b1i * b2i)
    s3i = 2 * (b1r * b2i + b1i * b2r)
    s4r = (b2r + b2i) * (b2r - b2i)
    s4i = 2 * b2r * b2i
    B0r = s0r + s3r - s3i
    B0i = s0i + s3r + s3i
    B1r = s1r + s4r - s4i
    B1i = s1i + s4r + s4i
    B2r = s1r + s2r + s3r - s0r - s4r
    B2i = s1i + s2i + s3i - s0i - s4i
    a0r += b0r  # C = (a + b)^2
    a0i += b0i
    a1r += b1r
    a1i += b1i
    a2r += b2r
    a2i += b2i
    s0r = (a0r + a0i) * (a0r - a0i)
    s0i = 2 * a0r * a0i
    s1r = 2 * (a0r * a1r - a0i * a1i)
    s1i = 2 * (a0r * a1i + a0i * a1r)
    tr = a0r - a1r + a2r
    ti = a0i - a1i + a2i
    s2r = (tr + ti) * (tr - ti)
    s2i = 2 * tr * ti
    s3r = 2 * (a1r * a2r - a1i * a2i)
    s3i = 2 * (a1r * a2i + a1i * a2r)
    s4r = (a2r + a2i) * (a2r - a2i)
    s4i = 2 * a2r * a2i
    # v*B = xi*B2 + B0*v + B1*v^2
    return (
        (((A0r + B2r - B2i) % PRIME, (A0i + B2r + B2i) % PRIME),
         ((A1r + B0r) % PRIME, (A1i + B0i) % PRIME),
         ((A2r + B1r) % PRIME, (A2i + B1i) % PRIME)),
        (((s0r + s3r - s3i - A0r - B0r) % PRIME, (s0i + s3r + s3i - A0i - B0i) % PRIME),
         ((s1r + s4r - s4i - A1r - B1r) % PRIME, (s1i + s4r + s4i - A1i - B1i) % PRIME),
         ((s1r + s2r + s3r - s0r - s4r - A2r - B2r) % PRIME, (s1i + s2i + s3i - s0i - s4i - A2i - B2i) % PRIME)),
    )


def fq12_conj(x):
    return (x[0], fq6_neg(x[1]))


def fq12_inv(x):
    a, b = x
    d = fq6_inv(fq6_sub(fq6_mul(a, a), fq6_mul_v(fq6_mul(b, b))))
    return (fq6_mul(a, d), fq6_neg(fq6_mul(b, d)))


def fq12_mul_by_line(f, c0, c1, s0, s1):
    # f * (l + v*w) with l = l0 + l1*v, l0 = s0*c0 and l1 = s1*c1 for Fq
    # factors s0 and s1, the shape of a line function scaled by 1/y_P:
    # (a + b*w)(l + v*w) = (a*l + b*v^2) + (a*v + b*l)*w, as w^2 = v. With
    # v^3 = xi, a*l = (a0*l0 + xi*a2*l1) + (a0*l1 + a1*l0)*v + (a1*l1 + a2*l0)*v^2,
    # whose middle coefficient is (a0 + a1)(l0 + l1) - a0*l0 - a1*l1, and
    # b*v^2 = xi*b1 + xi*b2*v + b0*v^2; likewise b*l and a*v. Each Fq2
    # product takes three multiplications, (xr + xi)(yr + yi) - xr*yr - xi*yi
    # giving its imaginary part, with the sums of l's coordinates shared.
    # Reductions wait for the twelve outputs.
    ((a0r, a0i), (a1r, a1i), (a2r, a2i)), ((b0r, b0i), (b1r, b1i), (b2r, b2i)) = f
    l0r = c0[0] * s0 % PRIME
    l0i = c0[1] * s0 % PRIME
    l1r = c1[0] * s1 % PRIME
    l1i = c1[1] * s1 % PRIME
    L0 = l0r + l0i
    L1 = l1r + l1i
    mr = l0r + l1r  # l0 + l1
    mi = l0i + l1i
    M = mr + mi
    t0 = a0r * l0r  # a*l + b*v^2
    t1 = a0i * l0i
    v0r = t0 - t1
    v0i = (a0r + a0i) * L0 - t0 - t1
    t0 = a1r * l1r
    t1 = a1i * l1i
    v1r = t0 - t1
    v1i = (a1r + a1i) * L1 - t0 - t1
    sr = a0r + a1r
    si = a0i + a1i
    t0 = sr * mr
    t1 = si * mi
    xr = t0 - t1 - v0r - v1r
    xi = (sr + si) * M - t0 - t1 - v0i - v1i
    t0 = a2r * l0r
    t1 = a2i * l0i
    v1r += t0 - t1 + b0r
    v1i += (a2r + a2i) * L0 - t0 - t1 + b0i
    t0 = a2r * l1r
    t1 = a2i * l1i
    tr = t0 - t1 + b1r
    ti = (a2r + a2i) * L1 - t0 - t1 + b1i
    lo = (((v0r + tr - ti) % PRIME, (v0i + tr + ti) % PRIME),
          ((xr + b2r - b2i) % PRIME, (xi + b2r + b2i) % PRIME),
          (v1r % PRIME, v1i % PRIME))
    t0 = b0r * l0r  # b*l + a*v
    t1 = b0i * l0i
    v0r = t0 - t1
    v0i = (b0r + b0i) * L0 - t0 - t1
    t0 = b1r * l1r
    t1 = b1i * l1i
    v1r = t0 - t1
    v1i = (b1r + b1i) * L1 - t0 - t1
    sr = b0r + b1r
    si = b0i + b1i
    t0 = sr * mr
    t1 = si * mi
    xr = t0 - t1 - v0r - v1r
    xi = (sr + si) * M - t0 - t1 - v0i - v1i
    t0 = b2r * l0r
    t1 = b2i * l0i
    v1r += t0 - t1 + a1r
    v1i += (b2r + b2i) * L0 - t0 - t1 + a1i
    t0 = b2r * l1r
    t1 = b2i * l1i
    tr = t0 - t1 + a2r
    ti = (b2r + b2i) * L1 - t0 - t1 + a2i
    return (lo, (((v0r + tr - ti) % PRIME, (v0i + tr + ti) % PRIME),
                 ((xr + a0r) % PRIME, (xi + a0i) % PRIME),
                 (v1r % PRIME, v1i % PRIME)))


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
    # dbl-2009-l; C, X + B and E enter their next products unreduced
    A = X * X % PRIME
    B = Y * Y % PRIME
    C = B * B
    D = 2 * ((X + B) * (X + B) - A - C) % PRIME
    E = 3 * A
    X3 = (E * E - 2 * D) % PRIME
    Y3 = (E * (D - X3) - 8 * C) % PRIME
    Z3 = 2 * Y * Z % PRIME
    return (X3, Y3, Z3)


def _j_add_affine(X1, Y1, Z1, x2, y2):
    # madd-2004-hmv, mixed addition with an affine second operand. H and r
    # stay unreduced, in (-p, p): every coordinate the G1 formulas take or
    # return is in [0, p), so H == 0 and r == 0 exactly when they are 0 mod p
    if Z1 == 0:
        return (x2, y2, 1)
    Z1Z1 = Z1 * Z1 % PRIME
    H = x2 * Z1Z1 % PRIME - X1
    r = y2 * Z1 * Z1Z1 % PRIME - Y1
    if H == 0:
        if r == 0:
            return _j_double(X1, Y1, Z1)
        return (0, 1, 0)
    HH = H * H % PRIME
    HHH = H * HH % PRIME
    V = X1 * HH % PRIME
    X3 = (r * r - HHH - 2 * V) % PRIME
    Y3 = (r * (V - X3) - Y1 * HHH) % PRIME
    Z3 = Z1 * H % PRIME
    return (X3, Y3, Z3)


def g1_neg(pt):
    if pt is None:
        return None
    return (pt[0], -pt[1] % PRIME)


def _ladder(double, add_affine, zero, pt, k):
    # left-to-right double-and-add of an affine point by k >= 1, with k used
    # as given, so it is valid on every curve point: the subgroup checks
    # multiply by x^2 and |x| with it
    acc = zero
    x, y = pt
    for bit in bin(k)[2:]:
        acc = double(*acc)
        if bit == "1":
            acc = add_affine(*acc, x, y)
    return acc


def g1_mul_plain(pt, k):
    if k < 0:
        raise ValueError("g1_mul_plain needs k >= 0")
    if pt is None or k == 0:
        return None
    return _j_batch_normalize([_ladder(_j_double, _j_add_affine, (0, 1, 0), pt, k)])[0]


# GLV: phi(x, y) = (beta*x, y) acts as multiplication by LAMBDA on the
# r-order subgroup. beta is the cube root of unity 2^(2(p-1)/3) in Fq that
# pairs with LAMBDA; test_glv_matches_plain checks beta^3 = 1 and
# phi(G) = [LAMBDA]G.
GLV_LAMBDA = X_CURVE * X_CURVE - 1
GLV_BETA = 0x1A0111EA397FE699EC02408663D4DE85AA0D857D89759AD4897D29650FB85F9B409427EB4F49FFFD8BFD00000000AAAC


def _j_batch_normalize(points):
    # Jacobian to affine with Montgomery's trick: one inversion for all the
    # Z coordinates; a point with Z = 0 is the identity and becomes None
    prefix = []
    acc = 1
    for _, _, Z in points:
        prefix.append(acc)
        acc = acc * (Z or 1) % PRIME
    inv = pow(acc, -1, PRIME)
    out = [None] * len(points)
    for i in range(len(points) - 1, -1, -1):
        X, Y, Z = points[i]
        if Z:
            zi = inv * prefix[i] % PRIME
            inv = inv * Z % PRIME
            zi2 = zi * zi % PRIME
            out[i] = (X * zi2 % PRIME, Y * zi2 * zi % PRIME)
    return out


# g1_msm's w-NAF width: every nonzero digit d is odd with |d| < _WNAF_HALF,
# that is in -15..15, and is read from a table of the _WNAF_HALF entries
# -15P, ..., -3P, -P, P, 3P, ..., 15P at index (d + _WNAF_HALF - 1) >> 1
_WNAF_WIDTH = 5
_WNAF_HALF = 1 << (_WNAF_WIDTH - 1)


def _wnaf(k):
    # width-5 non-adjacent form of k >= 0 as (position, digit) pairs, lowest
    # first: k = sum of d * 2^position, and any 5 consecutive positions hold
    # at most one digit (Hankerson-Menezes-Vanstone, Alg. 3.35); a run of
    # zeros is skipped in one shift
    out = []
    pos = 0
    while k:
        zeros = (k & -k).bit_length() - 1
        k >>= zeros
        pos += zeros
        d = k & (2 * _WNAF_HALF - 1)
        if d >= _WNAF_HALF:
            d -= 2 * _WNAF_HALF
        out.append((pos, d))
        k = (k - d) >> _WNAF_WIDTH
        pos += _WNAF_WIDTH
    return out


def g1_msm(pairs):
    """Sum of k*P over (P, k) pairs of r-subgroup points (None = identity).

    Interleaved w-NAF (Moller, SAC 2001) with the GLV split:
    k = k1 + k2*LAMBDA with k1, k2 of about 128 bits, each recoded by _wnaf
    to signed odd digits in -15..15, at most one nonzero in any five. Each
    point gets a table of P, 3P, ..., 15P and their negatives (y negated) in
    affine, one inversion for all points' tables; the phi half reads the
    same table as (beta*x, y), with no group operation. One chain of
    doublings is shared by every half of every point, with one mixed
    addition per nonzero digit. A point whose scalar is 1 needs no table; it
    is added after the last doubling.
    """
    ones = []
    terms = []
    for pt, k in pairs:
        k %= ORDER
        if pt is None or k == 0:
            continue
        if k == 1:
            ones.append(pt)
        else:
            terms.append((pt, k % GLV_LAMBDA, k // GLV_LAMBDA))
    X, Y, Z = 0, 1, 0
    if terms:
        # 3P, ..., 15P by adding 2P = (x2/c^2, y2/c^3) seven times. The map
        # (x, y) -> (x*c^2, y*c^3) carries E to y^2 = x^3 + 4*c^6, where 2P
        # is the affine (x2, y2), and the a = 0 formulas never read b; so the
        # sums run there with mixed additions, and Z*c maps each back to E.
        # For an r-subgroup point none of 2P, ..., 15P is the identity.
        n_odd = _WNAF_HALF // 2 - 1
        odd = []
        for (x, y), _, _ in terms:
            x2, y2, c = _j_double(x, y, 1)
            c2 = c * c % PRIME
            acc = (x * c2 % PRIME, y * c2 * c % PRIME, 1)
            for _ in range(n_odd):
                acc = _j_add_affine(*acc, x2, y2)
                odd.append((acc[0], acc[1], acc[2] * c % PRIME))
        odd = _j_batch_normalize(odd)
        steps = {}
        for t, (pt, k1, k2) in enumerate(terms):
            multiples = [pt] + odd[n_odd * t:n_odd * t + n_odd]
            table = [(x, -y % PRIME) for x, y in reversed(multiples)] + multiples
            for i, d in _wnaf(k1):
                steps.setdefault(i, []).append(table[(d + _WNAF_HALF - 1) >> 1])
            if k2:
                table = [(x * GLV_BETA % PRIME, y) for x, y in table]
                for i, d in _wnaf(k2):
                    steps.setdefault(i, []).append(table[(d + _WNAF_HALF - 1) >> 1])
        for i in range(max(steps), -1, -1):
            X, Y, Z = _j_double(X, Y, Z)
            for x, y in steps.get(i, ()):
                X, Y, Z = _j_add_affine(X, Y, Z, x, y)
    for x, y in ones:
        X, Y, Z = _j_add_affine(X, Y, Z, x, y)
    return _j_batch_normalize([(X, Y, Z)])[0]


def g1_mul(pt, k):
    return g1_msm([(pt, k)])


def g1_in_subgroup(pt):
    # Bowe's test (ePrint 2019/814) in Scott's form (ePrint 2021/1130): a
    # curve point P is in G1 iff [x^2]P = -phi(phi(P)) = (beta^2*x_P, -y_P),
    # with [x^2]P by the ladder, as the GLV split holds only on G1
    if pt is None:
        return True
    x, y = pt
    return g1_on_curve(pt) and g1_mul_plain(pt, X_CURVE * X_CURVE) == (GLV_BETA * GLV_BETA * x % PRIME, -y % PRIME)


# ---------------------------------------------------------------------------
# G2: y^2 = x^3 + 4(u+1) over Fq2. Same shapes as G1 with Fq2 coordinates.

_B2 = (4, 4)


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


# psi, the twist endomorphism of E' (untwist, Frobenius, twist):
# psi(x, y) = (conj(x)*c_x, conj(y)*c_y) with c_x = xi^-((p-1)/3) and
# c_y = xi^-((p-1)/2), the inverses of _FROB1[2] and _FROB1[3]. On G2 it
# acts as [p] = [x] (p = x mod r), that is as -[|x|]. test_psi_constants
# checks both against fq2_pow and psi(G2) = [x]G2.
_PSI_CX = fq2_inv(_FROB1[2])
_PSI_CY = fq2_inv(_FROB1[3])


def _g2_psi(pt):
    x, y = pt
    return (fq2_mul(fq2_conj(x), _PSI_CX), fq2_mul(fq2_conj(y), _PSI_CY))


def _j2_batch_normalize(points):
    # Jacobian to affine with one fq2_batch_inv; every Z must be nonzero
    out = []
    for (X, Y, _), zi in zip(points, fq2_batch_inv([Z for _, _, Z in points])):
        zi2 = fq2_sqr(zi)
        out.append((fq2_mul(X, zi2), fq2_mul(Y, fq2_mul(zi2, zi))))
    return out


def _gls_table(pt):
    # affine [m0 + m1*|x| + m2*|x|^2 + m3*|x|^3]Q at index m = 1..15, m_i the
    # bits of m: sums of the bases Q, -psi(Q), psi^2(Q), -psi^3(Q). For an
    # r-subgroup point none is the identity, as each multiple is below r.
    psis = [pt]
    for _ in range(3):
        psis.append(_g2_psi(psis[-1]))
    bases = [(x, fq2_neg(y) if i % 2 else y) for i, (x, y) in enumerate(psis)]
    jac = [None]
    for m in range(1, 16):
        low = m & -m
        x, y = bases[low.bit_length() - 1]
        jac.append((x, y, _FQ2_ONE) if m == low else _j2_add_affine(*jac[m ^ low], x, y))
    return [None] + _j2_batch_normalize(jac[1:])


def g2_mul(pt, k):
    """[k]Q for Q in G2 (None = identity), by Galbraith-Lin-Scott
    (EUROCRYPT 2009): k mod r < |x|^4 splits into four base-|x| digits of
    64 bits, and psi gives each power of |x| times Q for free, so one chain
    of 64 doublings adds one entry of _gls_table per nonzero column of digit
    bits. Valid only on the r-subgroup, where psi acts as [x]."""
    k %= ORDER
    if pt is None or k == 0:
        return None
    k, d0 = divmod(k, ABS_X)
    k, d1 = divmod(k, ABS_X)
    d3, d2 = divmod(k, ABS_X)
    table = _gls_table(pt)
    acc = (_FQ2_ZERO, _FQ2_ONE, _FQ2_ZERO)
    for shift in range(max(d0, d1, d2, d3).bit_length() - 1, -1, -1):
        acc = _j2_double(*acc)
        sel = ((d0 >> shift) & 1) | ((d1 >> shift) & 1) << 1 | ((d2 >> shift) & 1) << 2 | ((d3 >> shift) & 1) << 3
        if sel:
            acc = _j2_add_affine(*acc, *table[sel])
    if acc[2] == _FQ2_ZERO:
        return None
    return _j2_batch_normalize([acc])[0]


def g2_in_subgroup(pt):
    # Scott's test (ePrint 2021/1130): a curve point Q is in G2 iff
    # psi(Q) = [x]Q = -[|x|]Q, with [|x|]Q by the ladder, as g2_mul's split
    # holds only on G2
    if pt is None:
        return True
    if not g2_on_curve(pt):
        return False
    jac = _ladder(_j2_double, _j2_add_affine, (_FQ2_ZERO, _FQ2_ONE, _FQ2_ZERO), pt, ABS_X)
    if jac[2] == _FQ2_ZERO:
        return False
    x, y = _j2_batch_normalize([jac])[0]
    return _g2_psi(pt) == (x, fq2_neg(y))


# ---------------------------------------------------------------------------
# Pairing: the Miller loop as lines, then evaluation, with lines scaled by
# 1/y_P, and the cubed final exponentiation, as described in the module
# docstring.

# the Miller loop's steps over the bits of ABS_X below the top one: a
# doubling (True) for every bit, then an addition (False) for each set bit
_MILLER_STEPS = tuple(step for bit in bin(ABS_X)[3:] for step in ((True, False) if bit == "1" else (True,)))


def _g2_lines(qs):
    """The line coefficients of the Miller loop for distinct affine G2 points:
    per point, one (lambda, lambda*x_T - y_T) per step of _MILLER_STEPS, as T
    runs from Q to [|x|]Q by tangents (S = T) and chords (S = Q). They depend
    on Q alone. Each step inverts the slope denominators of all the points
    with one batched inversion."""
    ts = list(qs)
    tables = [[] for _ in qs]
    for double in _MILLER_STEPS:
        if double:
            nums = [fq2_scale(fq2_sqr(xt), 3) for xt, _ in ts]
            dens = [fq2_add(yt, yt) for _, yt in ts]
            xs = [xt for xt, _ in ts]
        else:
            nums = [fq2_sub(q[1], t[1]) for q, t in zip(qs, ts)]
            dens = [fq2_sub(q[0], t[0]) for q, t in zip(qs, ts)]
            xs = [xq for xq, _ in qs]
        for i, inv in enumerate(fq2_batch_inv(dens)):
            xt, yt = ts[i]
            lam = fq2_mul(nums[i], inv)
            x3 = fq2_sub(fq2_sub(fq2_sqr(lam), xt), xs[i])
            ts[i] = (x3, fq2_sub(fq2_mul(lam, fq2_sub(xt, x3)), yt))
            tables[i].append((lam, fq2_sub(fq2_mul(lam, xt), yt)))
    return tables


def _miller_loops(products, line_tables):
    # products: lists of pairs ((xp, yp) in Fq, (xq, yq) in Fq2), whose terms
    # with an identity drop out; one Miller value per product. One
    # line_tables(qs) call gives the _g2_lines tables of the distinct points
    # qs of all the products, so their fresh points share each step's
    # batched inversion. Each step squares f (doublings only) and multiplies
    # in every term's line ((lambda*x_T - y_T) - lambda*x_P*v) / y_P + v*w.
    products = [[(p, q) for p, q in pairs if p is not None and q is not None] for pairs in products]
    qs = list(dict.fromkeys(q for pairs in products for _, q in pairs))
    tables = dict(zip(qs, line_tables(qs))) if qs else {}
    values = []
    for pairs in products:
        terms = []
        for (xp, yp), q in pairs:
            inv_yp = pow(yp, -1, PRIME)
            terms.append((tables[q], inv_yp, -xp * inv_yp % PRIME))
        f = FQ12_ONE
        for k, double in enumerate(_MILLER_STEPS):
            if double:
                f = fq12_sqr(f)
            for lines, inv_yp, xp_over_yp in terms:
                lam, mu = lines[k]
                f = fq12_mul_by_line(f, mu, lam, inv_yp, xp_over_yp)
        values.append(fq12_conj(f))  # the curve parameter is negative
    return values


def multi_miller_loop(pairs):
    return _miller_loops([pairs], _g2_lines)[0]


def _cyclotomic_sqr(f):
    # Granger-Scott squaring, equal to fq12_sqr only in the cyclotomic
    # subgroup, where the conjugate is the inverse. With t = w^3 (t^2 = xi),
    # f = A + B*w + C*w^2 over Fq4 = Fq2[t], A = g0 + g3*t, B = g1 + g4*t and
    # C = g2 + g5*t for g_k the coefficient of w^k, and
    # f^2 = (3A^2 - 2conj(A)) + (3t*C^2 + 2conj(B))*w + (3B^2 - 2conj(C))*w^2.
    # Each Fq4 square (a + b*t)^2 = (a^2 + xi*b^2) + ((a+b)^2 - a^2 - b^2)*t
    # is three Fq2 squarings; reductions wait for the twelve outputs.
    ((g0r, g0i), (g2r, g2i), (g4r, g4i)), ((g1r, g1i), (g3r, g3i), (g5r, g5i)) = f
    a0r = (g0r + g0i) * (g0r - g0i)  # A^2 = (a0 + xi*a1) + (s - a0 - a1)*t
    a0i = 2 * g0r * g0i
    a1r = (g3r + g3i) * (g3r - g3i)
    a1i = 2 * g3r * g3i
    sr = g0r + g3r
    si = g0i + g3i
    sqr_r = (sr + si) * (sr - si)
    sqr_i = 2 * sr * si
    A0r = a0r + a1r - a1i
    A0i = a0i + a1r + a1i
    A1r = sqr_r - a0r - a1r
    A1i = sqr_i - a0i - a1i
    b0r = (g1r + g1i) * (g1r - g1i)  # B^2
    b0i = 2 * g1r * g1i
    b1r = (g4r + g4i) * (g4r - g4i)
    b1i = 2 * g4r * g4i
    sr = g1r + g4r
    si = g1i + g4i
    sqr_r = (sr + si) * (sr - si)
    sqr_i = 2 * sr * si
    B0r = b0r + b1r - b1i
    B0i = b0i + b1r + b1i
    B1r = sqr_r - b0r - b1r
    B1i = sqr_i - b0i - b1i
    c0r = (g2r + g2i) * (g2r - g2i)  # C^2
    c0i = 2 * g2r * g2i
    c1r = (g5r + g5i) * (g5r - g5i)
    c1i = 2 * g5r * g5i
    sr = g2r + g5r
    si = g2i + g5i
    sqr_r = (sr + si) * (sr - si)
    sqr_i = 2 * sr * si
    C0r = c0r + c1r - c1i
    C0i = c0i + c1r + c1i
    C1r = sqr_r - c0r - c1r
    C1i = sqr_i - c0i - c1i
    # t*C^2 = xi*C1 + C0*t
    return (
        (((3 * A0r - 2 * g0r) % PRIME, (3 * A0i - 2 * g0i) % PRIME),
         ((3 * B0r - 2 * g2r) % PRIME, (3 * B0i - 2 * g2i) % PRIME),
         ((3 * C0r - 2 * g4r) % PRIME, (3 * C0i - 2 * g4i) % PRIME)),
        (((3 * (C1r - C1i) + 2 * g1r) % PRIME, (3 * (C1r + C1i) + 2 * g1i) % PRIME),
         ((3 * A1r + 2 * g3r) % PRIME, (3 * A1i + 2 * g3i) % PRIME),
         ((3 * B1r + 2 * g5r) % PRIME, (3 * B1i + 2 * g5i) % PRIME)),
    )


def _cyclotomic_pow_x(f):
    # f^|x| for f in the cyclotomic subgroup
    return _pow(fq12_mul, _cyclotomic_sqr, FQ12_ONE, f, ABS_X)


def _exp_x_minus_1(f):
    # f^(x-1) in the cyclotomic subgroup (inverse = conjugate there)
    return fq12_mul(fq12_conj(_cyclotomic_pow_x(f)), fq12_conj(f))


def final_exponentiation(f):
    # easy part: f^((p^6-1)(p^2+1)); lands in the cyclotomic subgroup
    f = fq12_mul(fq12_conj(f), fq12_inv(f))
    f = fq12_mul(fq12_frob2(f), f)
    # hard part, cubed: exponent (x-1)^2 (x+p) (x^2+p^2-1) + 3
    t = _exp_x_minus_1(_exp_x_minus_1(f))
    t = fq12_mul(fq12_conj(_cyclotomic_pow_x(t)), fq12_frob(t))  # ^(x+p)
    t = fq12_mul(
        fq12_mul(_cyclotomic_pow_x(_cyclotomic_pow_x(t)), fq12_frob2(t)),  # ^(x^2+p^2)
        fq12_conj(t),  # ^(-1)
    )
    return fq12_mul(t, fq12_mul(_cyclotomic_sqr(f), f))


# ---------------------------------------------------------------------------
# Square roots and hash-to-curve


def _jacobi(a):
    # the Jacobi symbol (a/p), which for the prime p is Legendre's: 1 on a
    # nonzero square, -1 on a non-square, 0 on 0. Euclid's steps with
    # quadratic reciprocity (Cohen, Alg. 1.4.10), every factor 2 stripped
    # in one shift; (2/n) = -1 exactly when n = 3 or 5 mod 8.
    a %= PRIME
    n = PRIME
    s = 1
    while a:
        twos = (a & -a).bit_length() - 1
        a >>= twos
        if twos & 1 and n & 7 in (3, 5):
            s = -s
        if a & n & 2:  # a = n = 3 mod 4
            s = -s
        a, n = n % a, a
    return s if n == 1 else 0


def _fq_sqrt(a):
    # a non-square costs a Jacobi symbol, not the exponentiation; after the
    # gate the root always exists, so the exponentiation's value is it
    if _jacobi(a) == -1:
        return None
    return pow(a, _SQRT_EXP, PRIME)


def _fq2_sqrt(t):
    # via the norm: z = z0 + z1*u with z0^2 = (a +/- sqrt(a^2+b^2)) / 2
    a, b = t
    if b == 0:
        # -1 is a non-square for p = 3 mod 4, so a or -a has a root in Fq
        z0 = _fq_sqrt(a)
        return (z0, 0) if z0 is not None else (0, _fq_sqrt(-a % PRIME))
    n = _fq_sqrt((a * a + b * b) % PRIME)
    if n is None:
        return None
    for root in (n, -n % PRIME):
        c = (a + root) * _INV2 % PRIME
        z0 = _fq_sqrt(c)
        if z0 is None or z0 == 0:
            continue
        z1 = b * pow(2 * z0, -1, PRIME) % PRIME
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
        pt = g1_mul_plain((x, y), H_EFF_G1)
        if pt is None:
            continue
        return pt
    raise RuntimeError("hash_to_g1 exhausted 256 counters")  # pragma: no cover


# ---------------------------------------------------------------------------
# Canonical encodings, in the compressed form of the module docstring


class _PointCodec:
    """The compressed form of one group's points: the framing is written
    once here, and the group supplies the order of its x coordinates on the
    wire (``to_wire`` and its inverse ``from_wire``), the recovery of y from
    x (None when x is off the curve) and its membership check."""

    def __init__(self, group, width, to_wire, from_wire, y_from_x, in_subgroup):
        self.group, self.width = group, width
        self.to_wire, self.from_wire = to_wire, from_wire
        self.y_from_x, self.in_subgroup = y_from_x, in_subgroup

    def _neg(self, v):
        return self.from_wire(tuple(-c % PRIME for c in self.to_wire(v)))

    def _larger(self, y) -> bool:
        # the sign rule: y is the larger of y and -y, compared in wire order
        return self.to_wire(y) > self.to_wire(self._neg(y))

    def encode(self, pt) -> bytes:
        if pt is None:
            return bytes([0xC0]) + bytes(self.width - 1)
        x, y = pt
        raw = bytearray(b"".join(c.to_bytes(48, "big") for c in self.to_wire(x)))
        raw[0] |= 0x80 | (0x20 if self._larger(y) else 0)
        return bytes(raw)

    def decode(self, data: bytes):
        group = self.group
        if len(data) != self.width:
            raise InvalidElement(f"{group} encodings are {self.width} bytes")
        flags = data[0] & 0xE0
        if not flags & 0x80:
            raise InvalidElement(f"uncompressed {group} encodings not supported")
        body = bytes([data[0] & 0x1F]) + data[1:]
        wire = tuple(int.from_bytes(body[i:i + 48], "big") for i in range(0, self.width, 48))
        if flags & 0x40:
            if any(wire) or flags & 0x20:
                raise InvalidElement(f"malformed {group} identity encoding")
            return None
        if max(wire) >= PRIME:
            raise InvalidElement(f"{group} x coordinate out of range")
        x = self.from_wire(wire)
        y = self.y_from_x(x)
        if y is None:
            raise InvalidElement(f"{group} x coordinate not on the curve")
        if bool(flags & 0x20) != self._larger(y):
            y = self._neg(y)
        pt = (x, y)
        if not self.in_subgroup(pt):
            raise InvalidElement(f"{group} point outside the prime-order subgroup")
        return pt


_G1_CODEC = _PointCodec(
    "G1", 48, lambda v: (v,), lambda c: c[0],
    lambda x: _fq_sqrt((x * x * x + 4) % PRIME), g1_in_subgroup,
)
_G2_CODEC = _PointCodec(
    "G2", 96, lambda v: (v[1], v[0]), lambda c: (c[1], c[0]),
    lambda x: _fq2_sqrt(fq2_add(fq2_mul(fq2_sqr(x), x), _B2)), g2_in_subgroup,
)
encode_g1_point, decode_g1_point = _G1_CODEC.encode, _G1_CODEC.decode
encode_g2_point, decode_g2_point = _G2_CODEC.encode, _G2_CODEC.decode


def encode_gt_value(f) -> bytes:
    (c0, c2, c4), (c1, c3, c5) = f
    return b"".join(v.to_bytes(48, "big") for pair in (c0, c2, c4, c1, c3, c5) for v in pair)


# ---------------------------------------------------------------------------
# Element wrappers and the engine


class _Element:
    """A group element wrapping ``pt``: an affine point (None = identity)
    for G1 and G2, an Fq12 value for GT. Elements compare by their
    canonical encoding, ``encode()``, from the ``_encode`` each group sets."""

    __slots__ = ("pt",)

    def __init__(self, pt):
        self.pt = pt

    def encode(self) -> bytes:
        return self._encode(self.pt)

    def __eq__(self, other):
        # verification accept/reject hinges on this comparison; keep it
        # data-independent
        return type(other) is type(self) and hmac.compare_digest(self.encode(), other.encode())

    def __hash__(self):
        return hash((type(self).__name__, self.pt))

    def __repr__(self):
        return f"{type(self).__name__}({self.encode().hex()})"


class G1Point(_Element):
    __slots__ = ()
    _encode = staticmethod(encode_g1_point)

    def __mul__(self, other):
        if type(other) is not G1Point:
            return NotImplemented
        return G1Point(g1_msm([(self.pt, 1), (other.pt, 1)]))

    def __pow__(self, k: int):
        return G1Point(g1_mul(self.pt, k))

    def inverse(self):
        return G1Point(g1_neg(self.pt))


class G2Point(_Element):
    __slots__ = ()
    _encode = staticmethod(encode_g2_point)

    def __pow__(self, k: int):
        return G2Point(g2_mul(self.pt, k))


class GTElement(_Element):
    __slots__ = ()
    _encode = staticmethod(encode_gt_value)


# G2 points whose Miller lines (about 32 KB each) an engine keeps
_LINE_CACHE_POINTS = 16


class Bls12381Engine(PairingEngine):
    """Production PairingEngine over BLS12-381."""

    backend = "production"
    order = ORDER
    G1 = G1Point
    G2 = G2Point
    scalar_bytes = 32
    g1_bytes = 48

    def __init__(self):
        super().__init__()
        self.g1 = G1Point((_G1X, _G1Y))
        self.g2 = G2Point((_G2X, _G2Y))
        self.identity_g1 = G1Point(None)
        # the Miller lines of recent G2 arguments, least recently used first;
        # filled when pairing, so an engine that never pairs builds none
        self._lines = OrderedDict()

    # pair, multi_pair, hash_to_g1 and the decoders stay in this class body,
    # all but multi_pair bound from the base: the benchmark's tracer wraps
    # them here by name. The base memoizes the uncached _hash_to_g1,
    # _decode_g1 and _decode_g2.
    pair = PairingEngine.pair
    hash_to_g1 = PairingEngine.hash_to_g1
    decode_g1 = PairingEngine.decode_g1
    decode_g2 = PairingEngine.decode_g2
    _hash_to_g1 = staticmethod(hash_to_g1_point)
    _decode_g1 = staticmethod(decode_g1_point)
    _decode_g2 = staticmethod(decode_g2_point)

    def multi_pair(self, terms) -> GTElement:
        pairs = [(p.pt, r.pt) for p, r in self._counted_products([terms])[0]]
        return GTElement(final_exponentiation(_miller_loops([pairs], self._line_tables)[0]))

    def first_failing(self, products):
        # one final exponentiation of the product of all the Miller values;
        # only when it is not one, one more per product but the last
        products = [[(p.pt, r.pt) for p, r in terms] for terms in self._counted_products(products)]
        values = _miller_loops(products, self._line_tables)
        f = values[0]
        for value in values[1:]:
            f = fq12_mul(f, value)
        if final_exponentiation(f) == FQ12_ONE:
            return None
        for i, value in enumerate(values[:-1]):
            if final_exponentiation(value) != FQ12_ONE:
                return i
        return len(values) - 1

    def _line_tables(self, qs) -> list:
        """_g2_lines(qs) through the engine's LRU of _LINE_CACHE_POINTS
        points: g2, y and each y_i recur across the scheme's equations. The
        misses of one call are built together, under the engine's lock."""
        with self._lock:
            found = {}
            for q in qs:
                if q in self._lines:
                    self._lines.move_to_end(q)
                    found[q] = self._lines[q]
            fresh = [q for q in qs if q not in found]
            if fresh:
                for q, lines in zip(fresh, _g2_lines(fresh)):
                    self._lines[q] = found[q] = lines
                while len(self._lines) > _LINE_CACHE_POINTS:
                    self._lines.popitem(last=False)
            return [found[q] for q in qs]

    def g1_product(self, pairs) -> G1Point:
        return G1Point(g1_msm([(p.pt, k) for p, k in self._g1_terms(pairs)]))
