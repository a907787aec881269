"""Phase-space distributions of the fundamental coherence of one oscillator.

Classical, action-quantized semiclassical, and Wigner (quantum)
representations of the |1><0| coherence state.  All three share the angular
factor (w q - i p) ~ exp(i theta); they differ in their radial profiles:
a thermal Gaussian of width ~ sqrt(2 kT), a ring on the action shell J = hbar,
and a Gaussian of width ~ sqrt(hbar w).  The ring is smeared to the fixed
radial width DELTA_WIDTH sqrt(hbar w).

hbar = 1 throughout; grids are expressed in the oscillator natural units
sqrt(hbar/w) for q and sqrt(hbar w) for p.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .core import ModelError, Thermo

DELTA_WIDTH = 0.1  # radial width of the action-shell delta, in sqrt(hbar w)
FIGURE2_NAMES = ("classical", "semiclassical", "quantum")   # the order figure2 renders


@dataclass(frozen=True)
class PhaseGrid:
    """Complex-valued distribution sampled on a rectangular (q, p) grid.

    values[i, j] is the distribution at (q_values[i], p_values[j]); the
    coordinates are in natural oscillator units.
    """

    q_values: np.ndarray
    p_values: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        q = np.atleast_1d(np.asarray(self.q_values, dtype=float))
        p = np.atleast_1d(np.asarray(self.p_values, dtype=float))
        v = np.asarray(self.values)
        if q.size < 2 or p.size < 2:
            raise ModelError("grids need at least two points per axis")
        if v.shape != (q.size, p.size):
            raise ModelError("values shape does not match the grid")
        if not np.all(np.isfinite(v)):
            raise ModelError("grid contains non-finite values")
        object.__setattr__(self, "q_values", q)
        object.__setattr__(self, "p_values", p)
        object.__setattr__(self, "values", v)


def _amplitude(q, p, omega, scale):
    """The angular factor (omega q - i p) / scale, in a new complex array.

    q and p broadcast against each other; later factors are written into
    the returned array in place.
    """
    values = np.empty(np.broadcast_shapes(np.shape(q), np.shape(p)), dtype=complex)
    np.subtract(omega * q, 1j * p, out=values)
    return np.divide(values, scale, out=values)


def _radius2(q, p, omega):
    """omega^2 q^2 + p^2 on the broadcast (q, p) shape, in a new float array."""
    out = np.empty(np.broadcast_shapes(np.shape(q), np.shape(p)))
    return np.add(omega**2 * q**2, p**2, out=out)


def rho10_classical(q, p, omega, th: Thermo):
    """Classical |1><0| analog: thermal Gaussian times the angular factor."""
    kt = th.kt
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    values = _amplitude(q, p, omega, np.sqrt(2.0 * kt))
    # a new array, not in place: the grid-sized one it frees makes glibc's
    # malloc raise its mmap and trim thresholds before figure2's first write,
    # which renders this grid first, so write_grid_csv's block buffers stay
    # on the heap; in place, that write took about 7000 more page faults
    # (12-20 ms) in a fresh process
    values = np.asarray(omega / (2.0 * np.pi * kt) * values)
    gauss = _radius2(q, p, omega)
    np.negative(gauss, out=gauss)
    np.divide(gauss, 2.0 * kt, out=gauss)
    np.exp(gauss, out=gauss)
    return np.multiply(values, gauss, out=values)[()]


def rho10_semiclassical(q, p, omega):
    """Action-shell state: angular factor times a smeared delta at J = hbar.

    The radial width in the momentum-like coordinate sqrt(w^2 q^2 + p^2) is
    delta_width = DELTA_WIDTH sqrt(hbar w); the delta itself is realized as a
    normalized Gaussian in the action with
    sigma_J = delta_width * sqrt(2 hbar / w), which reproduces that radial
    thickness on the shell.
    """
    delta_width = DELTA_WIDTH * np.sqrt(omega)
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    values = _amplitude(q, p, omega, np.sqrt(2.0 * omega))
    gauss = _radius2(q, p, omega)
    np.divide(gauss, 2.0 * omega, out=gauss)   # the action
    sigma = delta_width * np.sqrt(2.0 / omega)
    np.subtract(gauss, 1.0, out=gauss)
    np.square(gauss, out=gauss)
    np.negative(gauss, out=gauss)
    np.divide(gauss, 2.0 * sigma**2, out=gauss)
    np.exp(gauss, out=gauss)
    np.divide(gauss, sigma * np.sqrt(2.0 * np.pi), out=gauss)
    return np.multiply(values, gauss, out=values)[()]


def rho10_quantum(q, p, omega):
    """Wigner transform of |1><0| for a harmonic oscillator."""
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    values = _amplitude(q, p, omega, np.sqrt(2.0 * omega))
    np.multiply(2.0 / np.pi, values, out=values)
    gauss = _radius2(q, p, omega)
    np.negative(gauss, out=gauss)
    np.divide(gauss, omega, out=gauss)
    np.exp(gauss, out=gauss)
    return np.multiply(values, gauss, out=values)[()]


def rho10_via_moyal(q, p, omega):
    """|1><0| Wigner function built from the phase-space product rule.

    Applies the raising-operator symbol to the ground-state Wigner function
    through the gradient series of the phase-space product.  The symbol is
    linear in (q, p), so the series terminates exactly at first order:

        [a^dag rho]_W = A W + (hbar / 2i) (dA/dp dW/dq - dA/dq dW/dp).

    Independent of rho10_quantum; the two must agree pointwise.
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    w0 = np.exp(-(omega**2 * q**2 + p**2) / omega) / np.pi
    a_sym = (omega * q - 1j * p) / np.sqrt(2.0 * omega)
    da_dp = -1j / np.sqrt(2.0 * omega)
    da_dq = omega / np.sqrt(2.0 * omega)
    dw_dq = -2.0 * omega * q * w0
    dw_dp = -(2.0 / omega) * p * w0
    return a_sym * w0 + (1.0 / 2j) * (da_dp * dw_dq - da_dq * dw_dp)


def _natural_grids(omega, n_grid, extent):
    coords = np.linspace(-extent, extent, n_grid)
    q_phys = coords / np.sqrt(omega)   # q in units of sqrt(hbar/w)
    p_phys = coords * np.sqrt(omega)   # p in units of sqrt(hbar w)
    return coords, q_phys, p_phys


def render_figure2(name, omega, th: Thermo, n_grid=241, extent=4.0):
    """Evaluate one distribution of FIGURE2_NAMES on the natural-units grid.

    Returns (grid, meta): grid is the PhaseGrid of ``name`` normalized to unit
    maximum |Re|, and meta's one key, width_ratio, is the expected ratio
    sqrt(2 kT / hbar w) of the classical to the quantum width.  The grid is
    built in place: at most two grid-sized arrays are held at once.
    The oscillator frequency ``omega`` must be positive and finite; a float
    overflow or invalid operation raises FloatingPointError, and a grid
    whose maximum |Re| is zero raises ModelError.

    figure2 renders the classical distribution first: it is the only one
    that depends on the temperature, and it evaluates omega^2 q^2 before the
    other two do, so a vanishing grid at 0.001 K and an overflow at
    omega = 1e200 or 1e300 fail there, before any grid is written.  A later
    grid can still fail alone (the ring and the Wigner Gaussian vanish at
    grid points far apart, e.g. extent = 1000 with n_grid = 3), which is why
    run_figure2 writes under temporary names.
    """
    if name not in FIGURE2_NAMES:
        raise ModelError(f"unknown figure2 distribution {name!r}")
    if not 0 < omega < np.inf:
        raise ModelError("oscillator frequency omega must be positive and finite")
    omega = np.float64(omega)   # numpy arithmetic throughout, so errstate sees it
    coords, q_phys, p_phys = _natural_grids(omega, n_grid, extent)
    q, p = q_phys[:, None], p_phys[None, :]   # broadcast to the (q, p) grid
    with np.errstate(over="raise", invalid="raise"):
        if name == "classical":
            values = rho10_classical(q, p, omega, th)
        elif name == "semiclassical":
            values = rho10_semiclassical(q, p, omega)
        else:
            values = rho10_quantum(q, p, omega)
    peak = float(np.max(np.abs(values.real)))
    if peak == 0.0:
        raise ModelError(f"{name} distribution vanished on the grid")
    values /= peak
    meta = {"width_ratio": float(np.sqrt(2.0 * th.kt / omega))}
    return PhaseGrid(q_values=coords, p_values=coords, values=values), meta


def grid_q_rms(grid: PhaseGrid):
    """Root-mean-square q of |Re values| over the grid (natural units)."""
    weight = np.abs(grid.values.real)
    total = float(np.sum(weight))
    mom2 = float(np.sum(weight * grid.q_values[:, None] ** 2))
    return np.sqrt(mom2 / total)


_TEXT_WIDTH = 24   # longest %.17g text of a finite float64: sign + 23 chars
_PAD = 0           # fills unused bytes of a text row; %.17g never prints a NUL
_FORMAT_CHUNK = 4096   # most values per _text_table call in write_grid_csv,
                       # unless one q row holds more

# _text_table's integer path knows D = |x| 10^(16 - X) to about 2^-45, so its
# rounding is decided unless the fraction part is within _TIE_MARGIN of 1/2
_TIE_MARGIN = 1e-9
_D_MIN, _D_MAX = 10**16, 10**17   # the 17-digit integers
_X_MIN, _X_MAX = -326, 310   # every decimal exponent of a float64, one to spare
_SPLIT = 134217729.0         # 2^27 + 1, Dekker's splitting constant


@functools.cache
def _scaling_tables():
    """10^(16 - X) = (hi + lo) 2^t for X in [_X_MIN, _X_MAX], indexed by X - _X_MIN.

    hi is an integer in [2^52, 2^53] and lo the rest, both correctly rounded
    (int / int), so |hi + lo - 10^(16 - X) 2^-t| <= 2^-54.  Built on first
    use.  Returns hi, its Dekker halves, lo and the biased exponent
    t - 53 + 1023 that scales a mantissa product to D.
    """
    hi, lo, t = [], [], []
    for x in range(_X_MIN, _X_MAX + 1):
        num, den = (10 ** (16 - x), 1) if x <= 16 else (1, 10 ** (x - 16))
        shift = num.bit_length() - 53 if x <= 16 else -den.bit_length() - 52
        if shift <= 0:
            num <<= -shift
        else:
            den <<= shift
        h = num / den
        hi.append(h)
        lo.append((num - int(h) * den) / den)
        t.append(shift)
    hi = np.array(hi)
    c = _SPLIT * hi
    hi_h = c - (c - hi)
    return _read_only(hi, hi_h, hi - hi_h, np.array(lo), np.array(t) - 53 + 1023)


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


@functools.cache
def _layout_tables():
    """Digit texts and the %g layout of every decimal exponent, built on first use.

    digits[g] is the 4-digit text of g as a uint32, first digit in the low
    byte, and digits[10000 + g] the same with trailing zeros as NULs.  The
    rest is indexed by X - _X_MIN.  A text row is "-" (or NUL) in column 0,
    ``prefix`` ("0." and zeros, fixed notation with X < 0), the first digit
    at bit ``lead_at``, a 16-byte field from column 2 holding the ``keep``
    further integer digits (fixed, X > 0) and a "." where ``dot`` has it,
    the trimmed remaining digits from bit ``at`` and ``exponent`` ("e+dd" or
    "e-ddd", scientific notation) in columns 19-23.
    """
    text = np.empty((2, 10, 10, 10, 10, 4), dtype=np.uint8)
    ten = np.arange(ord("0"), ord("0") + 10, dtype=np.uint8)
    for i in range(4):   # digit i of g runs along axis i + 1
        text[..., i] = ten.reshape([10 if axis == i else 1 for axis in range(4)])
    trimmed = text[1]   # a NUL for each zero with only zeros after it
    trimmed[..., 0, 3] = trimmed[..., 0, 0, 2] = trimmed[:, 0, 0, 0, 1] = 0
    trimmed[0, 0, 0, 0, 0] = 0
    digits = text.view(np.uint32).ravel()

    x = np.arange(_X_MIN, _X_MAX + 1)
    small = (x >= -4) & (x < 0)                    # fixed, "0.000ddd"
    integer = np.where((x > 0) & (x <= 16), x, 0)  # fixed, "ddd.ddd"
    scientific = (x < -4) | (x > 16)
    shift = np.where(small, 1 - x, 0).astype(np.uint64)
    # prefix: "0." then -x - 1 zeros, from column 1
    prefix = np.zeros((x.size, 8), dtype=np.uint8)
    prefix[small, 1:3] = np.frombuffer(b"0.", dtype=np.uint8)
    prefix[small, 3:6] = np.where(np.arange(3) < -x[small, None] - 1, ord("0"), 0)
    field = np.arange(16)
    keep = np.where(field < integer[:, None], 0xFF, 0).astype(np.uint8)
    dot = np.where((field == integer[:, None]) & ~small[:, None], ord("."), 0)
    # exponent: "e", its sign and at least two digits, from column 19
    mag = np.abs(x)
    three = mag >= 100
    exponent = np.zeros((x.size, 8), dtype=np.uint8)
    exponent[:, 3] = ord("e")
    exponent[:, 4] = np.where(x < 0, ord("-"), ord("+"))
    exponent[:, 5] = np.where(three, mag // 100, mag // 10 % 10) + ord("0")
    exponent[:, 6] = np.where(three, mag // 10 % 10, mag % 10) + ord("0")
    exponent[:, 7] = np.where(three, mag % 10 + ord("0"), 0)
    exponent[~scientific] = 0
    at = np.uint64(8) * (np.uint64(3) + shift)
    tables = {
        "digits": digits,
        "prefix": prefix.view(np.uint64).ravel(),
        "keep": keep.view(np.uint64),
        "dot": dot.astype(np.uint8).view(np.uint64),
        "exponent": exponent.view(np.uint64).ravel(),
        "at": at,
        "back": np.uint64(64) - at,
        "lead_at": at - np.uint64(16),
    }
    _read_only(*tables.values())
    return tables


def _text_table(values):
    """%.17g text of each float in ``values``, one NUL-padded uint8 row each.

    Exact and vectorized, after Loitsch (PLDI 2010): an integer path decides
    almost every value and CPython formats the rest.  With |x| = m 2^e (m a
    53-bit integer, from frexp) and the guess X = floor(log10 |x|), the 17
    significant digits are D = round(m 2^e 10^(16 - X)).  10^(16 - X) comes
    from a table as (hi + lo) 2^t; m hi is formed exactly by Dekker's
    product, so D is known to about 2^-45.  CPython formats a value when its
    fraction part is within _TIE_MARGIN of 1/2 (exact ties such as 2^-25
    included), when D lies outside [10^16, 10^17) (a wrong guess of X or a
    round-up to 10^17) and when it is not finite.  The digits are laid out
    by the %g rules: fixed notation for -4 <= X < 17, otherwise d.ddde+XX,
    trailing zeros dropped.  A row may hold NULs between its characters, not only
    after them.  All values go in one pass, so the temporaries grow with
    the input (a few hundred bytes per value); the lookup tables are built
    on first use.
    """
    x = np.asarray(values, dtype=float).ravel()
    out = np.empty((x.size, _TEXT_WIDTH), dtype=np.uint8)
    hi, hi_h, hi_l, lo, bias = _scaling_tables()
    lay = _layout_tables()
    digits = lay["digits"]
    a = np.abs(x)
    zero = a == 0
    finite = np.isfinite(a)
    a = np.where(finite & ~zero, a, 1.0)   # 0 is written as 1 with its digit lowered

    # D = |x| 10^(16 - X) = m (hi + lo) 2^s: m hi exactly by Dekker's product
    fraction, e = np.frexp(a)
    m = fraction * 2.0**53
    j = np.floor(np.log10(a)).astype(np.int64) - _X_MIN
    h, h_h, h_l = hi[j], hi_h[j], hi_l[j]
    p = m * h
    c = _SPLIT * m
    m_h = c - (c - m)
    m_l = m - m_h
    err = ((m_h * h_h - p) + m_h * h_l + m_l * h_h) + m_l * h_l
    scale = ((e + bias[j]) << 52).view(np.float64)   # 2^s, exactly
    whole = p * scale
    floor_whole = np.floor(whole)
    rest = (whole - floor_whole) + err * scale + m * lo[j] * scale
    floor_rest = np.floor(rest)
    frac = rest - floor_rest
    d = floor_whole.astype(np.int64) + floor_rest.astype(np.int64)
    exact = finite & (np.abs(frac - 0.5) > _TIE_MARGIN) & (d >= _D_MIN)
    d += frac > 0.5
    exact &= d < _D_MAX   # a wrong guess of X, or a round-up to 10^17

    # the 16 digits after the first, in 4-digit groups, as printed and with
    # trailing zeros as NULs; each pair of groups is one uint64 word
    lead = d // _D_MIN
    groups = np.empty((x.size, 4), dtype=np.int64)
    upper, lower = np.divmod(d - lead * _D_MIN, 10**8)
    np.divmod(upper, 10**4, out=(groups[:, 0], groups[:, 1]))
    np.divmod(lower, 10**4, out=(groups[:, 2], groups[:, 3]))
    printed = digits[groups].view(np.uint64)
    groups[:, 0] += 10000 * ((groups[:, 1] | lower) == 0)
    groups[:, 1] += 10000 * (lower == 0)
    groups[:, 2] += 10000 * (groups[:, 3] == 0)
    groups[:, 3] += 10000
    keep = np.take(lay["keep"], j, axis=0)
    trimmed = digits[groups].view(np.uint64) & ~keep
    has_dot = (trimmed[:, 0] | trimmed[:, 1]) != 0
    field = printed & keep | np.take(lay["dot"], j, axis=0) * has_dot[:, None]

    at, back = lay["at"][j], lay["back"][j]
    first = (lead + ord("0") - zero).astype(np.uint64)
    words = out.view(np.uint64)
    words[:, 0] = (
        (x.view(np.uint64) >> np.uint64(63)) * np.uint64(ord("-"))
        | lay["prefix"][j]
        | first << lay["lead_at"][j]
        | field[:, 0] << np.uint64(16)
        | trimmed[:, 0] << at
    )
    words[:, 1] = (
        field[:, 0] >> np.uint64(48) | field[:, 1] << np.uint64(16)
        | trimmed[:, 0] >> back | trimmed[:, 1] << at
    )
    words[:, 2] = (
        field[:, 1] >> np.uint64(48) | trimmed[:, 1] >> back | lay["exponent"][j]
    )
    slow = np.flatnonzero(~exact)
    if slow.size:
        out[slow] = _cpython_table(x[slow])
    return out


def _cpython_table(values):
    """Rows of CPython's %.17g of ``values``, NUL-padded, one %-format in all."""
    chunk = tuple(values.tolist())
    text = (f"%-{_TEXT_WIDTH}.17g" * len(chunk)) % chunk
    rows = np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(
        len(chunk), _TEXT_WIDTH
    )
    return np.where(rows == ord(" "), _PAD, rows)


def write_grid_csv(grid: PhaseGrid, path):
    """CSV dump: header q,p,re,im; row-major over q then p; 17 digits; LF.

    Every text is CPython's %.17g, byte for byte, from _text_table's
    vectorized kernel, which writes the "-" of a set sign bit itself (-0.0
    included).  Every value is formatted once per write: the interleaved
    (re, im) values of a block of q rows, at most _FORMAT_CHUNK values or
    one q row, go to _text_table in one call, and the block's lines are
    assembled as fixed-width bytes and written with their NUL padding
    dropped.  Memory besides the values is that block's line buffer and
    _text_table's temporaries.
    """
    values = np.ascontiguousarray(grid.values, dtype=complex)
    n_q, n_p = values.shape
    re_im = values.view(np.float64).reshape(n_q, 2 * n_p)
    block_rows = max(1, _FORMAT_CHUNK // (2 * n_p))
    q_texts = _text_table(grid.q_values)

    # line layout: q "," p "," then, for re and im, text and separator
    width = _TEXT_WIDTH
    lines = np.full((block_rows, n_p, 4 * width + 4), _PAD, dtype=np.uint8)
    lines[:, :, width] = lines[:, :, 2 * width + 1] = ord(",")
    lines[:, :, width + 1:2 * width + 1] = _text_table(grid.p_values)
    slots = lines[:, :, 2 * width + 2:].reshape(block_rows, n_p, 2, width + 1)
    slots[..., -1] = (ord(","), ord("\n"))
    pad = bytes([_PAD])
    with open(path, "wb") as fh:
        fh.write(b"q,p,re,im\n")
        for start in range(0, n_q, block_rows):
            block = re_im[start:start + block_rows]
            rows = block.shape[0]
            lines[:rows, :, :width] = q_texts[start:start + rows, None]
            slots[:rows, ..., :-1] = _text_table(block).reshape(rows, n_p, 2, width)
            fh.write(lines[:rows].tobytes().translate(None, pad))
