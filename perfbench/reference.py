"""The benchmark's reference loop, its unit of time.

On a shared 2-CPU cloud host (CPython 3.11.7, no gmpy2) the speed of each
CPU wandered by up to 1.8x over seconds and minutes: a fixed loop of G1
multiplications took 1.6 to 3.0 ms per call, with process time equal to
wall time. A run that times this loop next to each piece of work, in the
same process, can divide that drift out. The loop multiplies complex
numbers modulo a 381-bit odd number, the shape of the program's Fq2
products, in plain Python integers. It is the benchmark's own code and must
not change with the program. It imports nothing but ``time``, so a fresh
interpreter can run it before the import it times.
"""

import time

MODULUS = (1 << 381) - 1011
ROUNDS = 4000  # about 10 ms; a 2 ms loop tracked CLI commands half as well
NOMINAL_S = 0.010  # about the loop's time on that host


def seconds():
    """Wall time of one run of the reference loop."""
    a0, a1 = 0x1F2E3D4C5B6A79881726354453627180, 0x0123456789ABCDEF0123456789ABCDEF
    b0, b1 = MODULUS - 0x9E3779B97F4A7C15, MODULUS // 3
    t0 = time.perf_counter()
    for _ in range(ROUNDS):
        a0, a1 = (a0 * b0 - a1 * b1) % MODULUS, (a0 * b1 + a1 * b0) % MODULUS
    return time.perf_counter() - t0


def at_nominal_speed(timed):
    """Call timed(), which returns a time in seconds, between two runs of the
    loop, and scale that time to a machine on which the loop takes NOMINAL_S."""
    before = seconds()
    elapsed = timed()
    return NOMINAL_S * 2.0 * elapsed / (before + seconds())
