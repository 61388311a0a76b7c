"""Truncations of block Toeplitz operators and their structure checks.

Every symbol is a cosine series (samples are projected by
symbols.from_samples), so block (i, j) of the order-n truncation T_n is its
coefficient A_|i-j|.  One ladder route, _spectra, takes a list of orders
and writes their spectra into one output buffer, so szego.density_check
reads the buffer as the union of the spectra; szego.truncated_spectra hands
it a whole ladder, and truncation_spectrum is its one-order case.  Order 1
is A_0 at every degree, solved as the single matrix.  Every other order is
routed on one rule, _sine_diagonal: when the last nonzero coefficient is A_0
or A_1 (the trimmed degree is at most 1), T_n is block diagonal in the sine
basis, which is symplectic, with blocks a(pi j / (n + 1)), j = 1 .. n, and
those nodes go through symbols._walk, the walk of the symbol curves, as
stacks of core.symplectic_eigenvalues, exact, with no band and no flip; a
ladder's nodes are walked in chunks of core._STACK_CHUNK, so a whole ladder
is a few stacks.  Everything below is the route of every other symbol's
orders n >= 2 (_flip_spectrum, one order at a time).
A degree-q truncation with k modes is banded (lower
bandwidth at most 2k(q + 1) - 1), and _band writes its LAPACK lower band
straight from the coefficients.  T_n commutes with the block flip E (block
i to block n - 1 - i), and E with I_n (x) J, so _flip_spectrum solves
T_n as the two halves of E's eigenspaces, of orders h = n // 2 >= 1 and n - h.
_flip_bands builds each half in reversed block order, where, with the
block Hankel H[i, j] = A_{1 + n%2 + i + j} on the leading blocks, T-+ =
T_h -+ H for even n; for odd n, T+ is T_{h+1} with the middle block first,
coupled to block i by sqrt(2) A_i, and +H on its blocks 1..h.  One band,
that of T_{h + n%2} from _band, serves both halves, with a bandwidth at
most that of T_n, so a band reduction, O(N^2 b), costs about half as much
on the two halves as on T_n.
Each half goes to the core band kernel once its dimension is large enough
for the band to win (_band_limit), and to the dense chain of a single
matrix otherwise; the caller solves the two halves one after the other.
A half, or a sine node, that is not positive definite stops the solve with
one PositivityError, built here, that names the order.  The
covariance (G-chain) test is the one place where a complex matrix enters:
H_n = T_n + (i/2) J is the same band with J on the first subdiagonal.  The
test has one verdict, a band Cholesky factor of H_n + tol I (gchain_sweep);
since T_n is a leading principal submatrix of T_{n+1}, one factor decides
every order up to n.  gchain_check only measures: its witness is the
smallest eigenvalue of H_n (_lowest_eigenvalue, which also reports a
non-positive-definite half of T_n).  The G-chain is not split by the flip:
its verdict needs the nested leading minors of H_n.  _band writes every
entry A_|i-j| of every truncation band; _dense, the one band-to-dense
unpack, serves assemble (matrix dumps) and the dense fallbacks of bands
wider than the band rule.
"""

import math

import numpy as np
from scipy.linalg import cholesky_banded, lapack

from . import core, symbols
from .core import _check_integer
from .errors import DomainError, InvalidDimensionError, PositivityError, SymplitzError, TruncationSizeError
from .symbols import TrigMatrixPolynomial


# Crossover of the band route, dense (Cholesky, L^T (J L), svdvals) against
# band, in ms: random banded positive definite matrices, best of 3-15 runs
# in one process on 2 cores (OpenBLAS), each side's last loss and first win.
#
#   b    N: dense / band                      rule: band from N
#   3    60: 0.35 / 0.39    64: 0.37 / 0.36     60
#   7    90: 0.72 / 0.81   100: 0.97 / 0.90    108
#  15   102: 1.18 / 1.32   120: 2.08 / 1.68    204
#  23   250: 7.49 / 8.00   300: 13.1 / 12.1    313
#  31   594: 80.6 / 83.4   660:  111 / 102     545
#  47   980:  303 / 318   1176:  445 / 372    1201
#  83  2040: 2144 / 2216   (no win to 2048)    3613
#
# Up to b ~ 23 the band route wins from N / (b + 2) ~ 7-13; wider bands need
# N / (b + 2) to grow with b, about (b + 2) / 2.  Hence the rule
# max(12 (b + 2), (b + 2)^2 / 2) <= N.  On the flip halves (both halves of T_2h, each N x N, through
# truncation_spectrum's calls; k modes, degree q; best of 25, interleaved) the band wins at every N from:
#   b (k, q):   3 (1, 1)  5 (1, 2)  7 (1, 3)  7 (2, 1)  11 (2, 2)  15 (2, 3)  11 (3, 1)  17 (3, 2)  23 (3, 3)
#   measured:         46        62       106       108        148        180        114        150        318
#   rule:             60        84       108       108        156        204        156        228        313
# The rule holds at b = 7 and 23; elsewhere it switches late, at up to 1.5 times the measured N, where
# the band is up to a third faster.
def _band_limit(N: int) -> int:
    """Largest lower bandwidth b with which an N x N truncation is solved on its band.

    The rule is max(12 (b + 2), (b + 2)^2 / 2) <= N (the table above); the
    result is negative when no bandwidth qualifies.  _flip_spectrum and the
    G-chain witness both route on it.
    """
    return min(N // 12, math.isqrt(2 * N)) - 2


def _max_dim() -> int:
    """The size guard of a dense truncation: the side of a square of symbols.MAX_ENTRIES entries."""
    return math.isqrt(symbols.MAX_ENTRIES)


def truncation_dim(symbol: TrigMatrixPolynomial, n: int) -> int:
    """Dimension 2kn of the order-n truncation, checked against the size guard
    _max_dim(); an order that is not an integer >= 1 raises InvalidDimensionError."""
    _check_integer(n, "truncation order", 1)
    dim = symbol.block_dim * n
    if dim > _max_dim():
        raise TruncationSizeError(f"truncation dimension 2kn = {dim} exceeds the guard {_max_dim()}")
    return dim


def assemble(symbol: TrigMatrixPolynomial, n: int) -> np.ndarray:
    """Dense 2kn x 2kn truncation with (i, j) block given by coefficient |i - j|: _band unpacked.

    The result is symmetric, and the order-n truncation is exactly the leading
    principal submatrix of the order-(n+1) one.
    """
    return _dense(_band(symbol, n))


def _band(symbol: TrigMatrixPolynomial, n: int) -> np.ndarray:
    """LAPACK lower band ab[t, c] = T_n[c + t, c] of the order-n truncation, in O(N b).

    With m = 2k and q = min(degree, n - 1), entry (c + t, c) is entry
    ((c % m + t) % m, c % m) of block (c % m + t) // m <= q + 1, so each
    diagonal repeats with period m: one period, padded by a zero block q + 1
    (which also holds every first-period slot past the last row), is tiled.
    A period row is nonzero exactly when its diagonal is, so trimming the
    trailing zero rows there makes b = ab.shape[0] - 1 the largest offset of
    a nonzero entry.  The coefficients were checked finite when the symbol
    was built, so every entry written here is finite.
    """
    N = truncation_dim(symbol, n)
    m = symbol.block_dim
    q = min(symbol.degree, n - 1)
    blocks = np.zeros((q + 2, m, m))
    blocks[: q + 1] = symbol.coeffs[: q + 1]
    s = np.arange(m) + np.arange(m * (q + 1))[:, None]
    period = blocks[s // m, s % m, np.arange(m)]
    rows = np.flatnonzero(period.any(axis=1))
    b = int(rows[-1]) if rows.size else 0
    ab = np.tile(period[: b + 1], n)
    for t in range(1, b + 1):
        ab[t, N - t :] = 0.0
    return ab


def _dense(ab: np.ndarray) -> np.ndarray:
    """Full Hermitian matrix H of a real or complex LAPACK lower band ab[t, c] = H[c + t, c].

    Diagonal t is a strided view (step N + 1) of the flat H, from entry t N
    below and from entry t above; the lower write comes last, so t = 0 keeps ab[0].
    """
    N = ab.shape[1]
    H = np.zeros((N, N), dtype=ab.dtype)
    flat = H.reshape(-1)
    for t in range(ab.shape[0]):
        flat[t : N * (N - t) : N + 1] = ab[t, : N - t].conj()
        flat[t * N :: N + 1] = ab[t, : N - t]
    return H


def _lowest_eigenvalue(ab: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian matrix with real or complex lower band ab.

    Under the band rule, b <= _band_limit(N), it is a bisection on band
    factors with a Rayleigh-quotient endgame (core._lowest_band_eigenvalue);
    otherwise a dense eigensolve of the band unpacked (_dense).
    """
    if ab.shape[0] - 1 <= _band_limit(ab.shape[1]):
        return core._lowest_band_eigenvalue(ab)
    return float(np.linalg.eigvalsh(_dense(ab))[0])


def _flip_bands(symbol: TrigMatrixPolynomial, n: int) -> list:
    """Lower bands of the flip halves [T-, T+] of T_n, n >= 2, in reversed block order.

    T_n commutes with the block flip E (block i to block n - 1 - i) and E
    with I_n (x) J, so in the orthonormal bases (e_i +- e_{n-1-i}) / sqrt(2)
    (x) I_2k, i < h = n // 2, of the eigenspaces of E, with the middle block
    e_h (x) I_2k added to the +1 one for odd n, T_n splits into T- and T+
    and J into the form of their own size.  Each half is built in reversed
    block order (block i to size - 1 - i), a block permutation that commutes
    with I (x) J and so keeps its spectrum.  In that order, with A_s the
    coefficients (zero past the degree q), T+- = T_h +- H for even n, where
    H is the fixed block Hankel matrix H[i, j] = A_{1 + n%2 + i + j} on the
    leading blocks (nonzero only for i + j < q - n%2).  For odd n, T+ is
    T_{h+1} with the middle block first: +H on its blocks 1..h, and its
    block-0 coupling A_i scaled by sqrt(2); T- is the same band from block 1
    on, with -H at the same place.  So one _band call, at h + n%2, serves
    both halves.  H is one fancy index of the zero-padded coefficients,
    added with each half's sign by one diagonal view per corner diagonal.
    The corner entry of A_s sits on a diagonal nearer the main one than A_s
    does in T_n, so each half keeps a bandwidth of at most that of T_n.
    Each half is checked for finite entries where it was changed and
    trimmed to its last nonzero diagonal.  T_1 = A_0 has no T-, and _spectra
    solves it as the single matrix, so every call here has h >= 1.
    """
    truncation_dim(symbol, n)
    h, middle = divmod(n, 2)
    m = symbol.block_dim
    r = max(min(symbol.degree - middle, h), 0)  # blocks of H with a nonzero coefficient
    w = m * r
    band = _band(symbol, h + middle)
    if band.shape[0] < w:  # H may reach diagonals past the band's last nonzero one
        band = np.vstack([band, np.zeros((w - band.shape[0], band.shape[1]))])
    coeffs = np.zeros((2 * r, m, m))  # A_{1+middle} on, zero past the degree
    tail = symbol.coeffs[1 + middle : 1 + middle + 2 * r]
    coeffs[: len(tail)] = tail
    hankel = coeffs[np.add.outer(np.arange(r), np.arange(r))].transpose(0, 2, 1, 3).reshape(w, w)
    bands = []
    # T-: the band from T+'s middle block on (all of it at even n), minus H; T+: the band, H after its middle block
    for ab, corner, start in [(band[:, m * middle :].copy(), -hankel, 0), (band, hankel, m * middle)]:
        with np.errstate(over="ignore", invalid="ignore"):
            for c in range(start):  # T+'s middle block 0, coupled to the blocks after it
                ab[m - c :, c] *= math.sqrt(2.0)
            for t in range(w):
                ab[t, start : start + w - t] += corner.diagonal(-t)
        core._require_finite(ab[:, : start + w], f"flip half of the order-{n} truncation")
        rows = np.flatnonzero(ab.any(axis=1))
        bands.append(ab[: int(rows[-1]) + 1 if rows.size else 1])
    return bands


def _sine_diagonal(symbol: TrigMatrixPolynomial) -> bool:
    """Whether every truncation of the symbol is block diagonal in the sine basis: its trimmed
    degree, the index of its last nonzero coefficient, is at most 1.

    A zero block past the last nonzero one adds nothing to a truncation (_band
    trims its band by the same test), so trailing zero blocks do not count,
    and a symbol with A_1 = 0 and A_2 != 0 is of degree 2.  At trimmed degree
    <= 1, T_n = I_n (x) A_0 + (S + S^T) (x) A_1 with S the shift, and the
    orthonormal DST-I matrix U[j, l] = sqrt(2 / (n + 1)) sin(pi j l / (n + 1))
    diagonalises S + S^T with eigenvalues 2 cos(theta_j), theta_j =
    pi j / (n + 1).  U (x) I_2k is orthogonal and commutes with I_n (x) J, so
    it is symplectic, and it turns T_n into diag(a(theta_1), ..., a(theta_n)):
    the symplectic spectrum of T_n is the union of those of its n nodes (the
    tau algebra of Bini & Capovani, LAA 52/53, 1983).  This is the one rule
    by which a truncation leaves the band.
    """
    return not symbol.coeffs[2:].any()


def _spectra(symbol: TrigMatrixPolynomial, ns: list) -> tuple:
    """Symplectic spectra {n: spectrum, ascending} of the order-n truncations, n in ns, and the
    one buffer that holds them.

    ns holds distinct orders, ascending, each checked by truncation_dim.  The
    spectra go into one output array, order after order, and each order's
    spectrum is its slice of it, so the array is the union of the spectra in
    ascending order of n (szego.density_check reads it as such, with no
    copy).  This is the one ladder route, and truncation_spectrum its
    one-order case.  Order 1 is T_1 = A_0 at every degree, solved first as
    a single matrix with the bits of symplectic_eigenvalues(A_0); a breakdown
    raises the PositivityError of order 1 with the lowest eigenvalue of A_0.
    Every other order is routed by _sine_diagonal.  A symbol of trimmed
    degree > 1 has each order solved by its flip split (_flip_spectrum),
    ascending, and written into its slice.  At trimmed degree <= 1 each
    order is the sorted union of the spectra of its sine nodes a(theta_j),
    theta_j = pi j / (n + 1), j = 1 .. n (order 1 is not taken on its node:
    cos(pi / 2) is not 0 in floats).  The angles of every order > 1 go, in
    that order, through one
    symbols._walk, in chunks of core._STACK_CHUNK nodes written as entry rows
    into one workspace, and each order's slice is then sorted in place, so a
    ladder holds its spectra and one workspace, and pays the stack's fixed
    cost once a chunk, not once an order.  Each order's angles are formed as
    for that order alone, so the spectra have the bits of one stack per
    order.  When a chunk fails, every order > 1 is solved again, ascending,
    as one stack of its own nodes (symbol.evaluate), so an error is that of
    the first failing order: a node value outside the float range raises DomainError naming
    the order, and a breakdown one PositivityError that names the order,
    carries where = n and reports min_j lambda_min(a(theta_j)), which is
    lambda_min(T_n).
    """
    k = symbol.k
    out = np.empty(k * sum(ns))
    spectra, start = {}, 0
    for n in ns:
        spectra[n], start = out[start : start + k * n], start + k * n
    ladder = ns[1:] if ns[0] == 1 else ns
    if ns[0] == 1:
        spectra[1][:] = _node_stack_spectrum(symbol.coeffs[0], 1)
    if not _sine_diagonal(symbol):
        for n in ladder:
            spectra[n][:] = _flip_spectrum(symbol, n)
        return spectra, out
    try:
        symbols._walk(symbol, map(_sine_nodes, ladder), out[out.size - k * sum(ladder) :].reshape(-1, k))
    except SymplitzError:
        for n in ladder:
            values = symbol.evaluate(_sine_nodes(n))
            core._require_finite(values, f"sine-node stack of the order-{n} truncation")
            spectra[n][:] = _node_stack_spectrum(values, n)
        return spectra, out
    for n in ladder:
        spectra[n].sort()
    return spectra, out


def _sine_nodes(n: int) -> np.ndarray:
    """The angles theta_j = pi j / (n + 1), j = 1 .. n, of the sine nodes of the order-n truncation."""
    return np.pi * np.arange(1, n + 1) / (n + 1)


def _node_stack_spectrum(values: np.ndarray, n: int) -> np.ndarray:
    """The sorted union of the spectra of the order-n truncation's node values, solved as one stack;
    a breakdown raises the PositivityError of order n, with the lowest eigenvalue of the nodes."""
    try:
        d = core.symplectic_eigenvalues(values)
    except PositivityError:
        low = float(np.linalg.eigvalsh(values)[..., 0].min())
        raise PositivityError.report(f"truncation of order n = {n}", low, n) from None
    return np.sort(d, axis=None)


def truncation_spectrum(symbol: TrigMatrixPolynomial, n: int) -> np.ndarray:
    """Symplectic spectrum of the order-n truncation, ascending: the one-order case of _spectra.

    Order 1 is A_0, solved as the single matrix at every degree.  At n >= 2,
    a symbol of trimmed degree <= 1 (_sine_diagonal) is solved exactly on its
    n sine nodes: T_n is block diagonal in the sine basis, so its spectrum is
    the union of those of the n blocks a(theta_j).  Every other symbol is
    solved by its flip split (_flip_spectrum).
    """
    truncation_dim(symbol, n)
    return _spectra(symbol, [n])[0][n]


def _flip_spectrum(symbol: TrigMatrixPolynomial, n: int) -> np.ndarray:
    """Symplectic spectrum of the order-n truncation, n >= 2, ascending, from its flip split.

    The spectrum is the sorted union of the spectra of the two
    flip halves of T_n (_flip_bands: in reversed block order, T_{h + n%2}'s
    band plus or minus the block Hankel H[i, j] = A_{1 + n%2 + i + j} on the
    leading blocks), each of dimension about N / 2, so band reduction,
    O(N^2 b), costs about half as much as on T_n.  Each half is routed on its
    own dimension: to the band (core._band_spectrum) when its bandwidth b
    satisfies b <= _band_limit, which builds no dense array, and otherwise
    to the dense chain of its band unpacked (core._factor_spectrum), the
    chain a single matrix takes.  Both halves are factored before either is
    solved, and then solved one after the other in the caller, T- first;
    when a factor breaks down, the PositivityError names the order, reports
    the smaller of the two halves' lowest eigenvalues (_lowest_eigenvalue),
    which is lambda_min(T_n), and carries where = n.
    """
    halves = [(ab, ab.shape[0] - 1 <= _band_limit(ab.shape[1])) for ab in _flip_bands(symbol, n)]
    try:
        factors = [
            cholesky_banded(ab, lower=True, check_finite=False) if band else np.linalg.cholesky(_dense(ab))
            for ab, band in halves
        ]
    except np.linalg.LinAlgError:
        low = min(_lowest_eigenvalue(ab) for ab, _ in halves)
        raise PositivityError.report(f"truncation of order n = {n}", low, n) from None
    spectra = [core._band_spectrum(L) if band else core._factor_spectrum(L) for L, (_, band) in zip(factors, halves)]
    return np.sort(np.concatenate(spectra))


def _shifted_band(symbol: TrigMatrixPolynomial, n: int) -> np.ndarray:
    """LAPACK lower band of H = T_n + (i/2) J: the band of T_n, with -i/2 at
    the even columns of the first subdiagonal, which is added when T_n has none."""
    ab = _band(symbol, n)
    H = np.zeros((max(ab.shape[0], 2), ab.shape[1]), dtype=complex)
    H[: ab.shape[0]] = ab
    H[1, ::2] -= 0.5j
    return H


def gchain_check(symbol: TrigMatrixPolynomial, n: int) -> float:
    """Witness of the G-chain test at order n: the smallest eigenvalue of T_n + (i/2) J.

    A measurement, not a verdict: the verdict is gchain_sweep's pivot.  The
    witness equals the smallest eigenvalue of the real symmetric embedding
    [[T_n, -J/2], [J/2, T_n]], at half its size.  _lowest_eigenvalue solves
    it from the lower band under the rule of the truncation spectrum: by
    bisection on band factors with a Rayleigh-quotient endgame (about 22-25
    factors of O(N b^2) each, accurate to about 2 eps ||H||_1) when
    b <= _band_limit(N), otherwise by a dense Hermitian eigensolve.  That
    rule was not measured for the witness.  On random complex bands (2
    cores, best of 5-15 in one process) the factors and the dense solve
    are about even at b = 31, N = 256 (13-14 ms, 22 factors, against
    15-21 ms), and above the rule the factors win at b = 80, N = 1024
    (138-144 ms, 25 factors, against 332-407 ms).
    """
    return _lowest_eigenvalue(_shifted_band(symbol, n))


def gchain_sweep(symbol: TrigMatrixPolynomial, n_max: int, tol: float):
    """Find the smallest failing truncation order up to n_max, at tolerance tol.

    tol has no default: the caller sets it (the CLI's gchain-check field
    tolerance), so the tolerance policy lives in one place.

    Returns (first_failing_n or None, witness).  T_n is the leading principal
    submatrix of T_{n+1} and J is block diagonal, so one band Cholesky factor
    (zpbtrf) of H_m = T_m + (i/2) J + tol I decides every order up to m: it
    breaks down at the first leading minor that is not positive definite, and
    that pivot lies in the block of the first failing order.  This pivot is
    the G-chain verdict.  The orders m = 1, 2, 4, ... and finally n_max are
    factored until one breaks down.
    A doubled order is capped at the guard order _max_dim() // 2k, so a failure
    below the guard is found even when n_max lies beyond it.  One factor at
    min(n_max, guard) would stop at the same pivot, but only after writing
    the whole band: for a k = 1 symbol of degree 2047 with every coefficient
    nonzero and its first failure at order 3 (2 cores, best of 3), the
    doubling takes 0.05 ms against 8.0 ms for one factor at n_max = 512 and
    353 ms at n_max = 2048 (b = 4095, a 268 MB band).  On a band of b = 4 up
    to order 256 the doubling costs 0.19 ms more than one factor, next to a
    2.4 ms witness.

    witness is the smallest eigenvalue of T_m + (i/2) J that gchain_check
    measures at the reported order m (n_max when every order passes).
    n_max is checked by truncation_dim's order rule before the first factor,
    but not against the guard.  A tol that is not one finite real number
    (read by core._number: a string, a complex number, an array, None, a
    bool or numpy bool), raises DomainError: shifted by NaN or +inf every
    pivot passes, and by -inf the first fails.
    """
    _check_integer(n_max, "n_max", 1)
    if not math.isfinite(core._number(tol, "tol")):
        raise DomainError(f"tol must be a finite number, got {tol!r}")
    guard = _max_dim() // symbol.block_dim
    orders = []
    m = 1
    while m < n_max:
        orders.append(m)
        m = min(2 * m, guard) if m < guard else n_max
    orders.append(n_max)
    first_fail = None
    for m in orders:
        ab = _shifted_band(symbol, m)
        ab[0] += tol
        _, info = lapack.zpbtrf(ab, lower=1)
        if info > 0:
            # info is the 1-based order of the first leading minor that fails
            first_fail = (info - 1) // symbol.block_dim + 1
            break
    return first_fail, gchain_check(symbol, n_max if first_fail is None else first_fail)


def matrix_csv_bytes(T) -> bytes:
    """Locale-independent CSV dump of a dense matrix.

    One row per line, scientific notation with 17 significant digits, LF
    line endings: the bytes of ``format(v, ".16e")`` per entry, but the work
    grows with the number of distinct row spans, not with the N^2 entries.
    A row's span runs from its first to its last entry whose bit pattern is
    not +0.0 (its int64 view is nonzero), so -0.0 and NaN stay in the span
    and keep their own text.  The +0.0 runs on either side are copies of the
    one token ``b"%.16e" % 0.0``, sliced from a run of N of them.  Each
    distinct span is formatted once by a single %-format of the span and
    reused by every later row that holds the same bytes.  A span is looked
    up by the hash of its bytes and matched by comparing byte views of the
    two spans in T, so the lookup keeps no copy of a span: a dense matrix,
    with one distinct span per row, holds no second copy of its entries.
    A span whose hash collides with an earlier, different one is formatted
    on its own.  A degree-q truncation repeats its spans every 2k rows away from
    its first and last q block rows, so a dump of any order formats at most
    2k (2q + 1) distinct spans; what grows with N is one span lookup per row
    and the copy of the N^2 entries' bytes into the result.  A dense matrix
    formats each row once, as one %-format per row did before.  An all-+0.0
    row is one span of N zeros.  T is read through ``core._real``, so a
    complex entry raises DomainError, and anything but one matrix
    InvalidDimensionError.
    """
    T = np.ascontiguousarray(core._real(T, "matrix"))
    if T.ndim != 2:
        raise InvalidDimensionError(f"expected one matrix, got shape {T.shape}")
    n = T.shape[1]
    cell = b"%.16e,"
    formats = cell * n
    zero = b"%.16e" % 0.0
    width = len(zero) + 1
    lead = memoryview((zero + b",") * n)  # a +0.0 run before a span
    trail = memoryview((b"," + zero) * n)  # a +0.0 run after a span
    nonzero = T.view(np.int64) != 0
    starts = nonzero.argmax(axis=1).tolist()  # 0 for an all-+0.0 row
    stops = (n - nonzero[:, ::-1].argmax(axis=1)).tolist()
    raw = memoryview(T).cast("B")  # the bytes of T, row after row, not copied
    spans = {}  # hash of a span's bytes -> (byte view of the span in T, its text)
    pieces = []
    for r, (start, stop) in enumerate(zip(starts, stops)):
        view = raw[8 * (n * r + start) : 8 * (n * r + stop)]
        key = hash(view.tobytes())
        seen = spans.get(key)
        if seen is not None and seen[0] == view:
            text = seen[1]
        else:  # a new span, or one whose hash collides with an earlier one: formatted
            text = formats[: len(cell) * (stop - start) - 1] % tuple(T[r, start:stop].tolist())
            spans.setdefault(key, (view, text))
        pieces += (lead[: width * start], text, trail[: width * (n - stop)], b"\n")
    return b"".join(pieces)
