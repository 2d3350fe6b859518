"""Two-layer homogeneous ReLU networks and their univariate piecewise-linear form.

A network is x -> sum_j v_j * max(0, w_j . x + b_j).  Scaling every parameter
by a factor c scales the output by c**2, so the architecture is homogeneous of
degree 2.  For one-dimensional inputs the function is piecewise linear with
kinks at -b_j / w_j; this module exposes that structure explicitly because the
reconstruction attack operates on it.  The module also owns the on-disk
convention that every CSV and JSON file of the package follows.
"""
from __future__ import annotations

import binascii
import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionMismatchError, FileFormatError

MODEL_FORMAT_VERSION = 2

# A neuron only defines a breakpoint when its input weight is meaningfully
# nonzero; below this (relative) threshold -b/w is numerically meaningless.
DEAD_WEIGHT_REL_TOL = 1e-12

# Breakpoints closer than this fraction of the total breakpoint range are
# collapsed into a single segment boundary.  Coinciding breakpoints are the
# generic outcome at stationarity, and exact float equality is unreliable.
BREAKPOINT_MERGE_REL_TOL = 1e-9

CONTINUITY_REL_TOL = 1e-9


def _readonly(a: np.ndarray) -> np.ndarray:
    arr = np.array(a, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class NetworkParams:
    """Parameters of a width-k network on d-dimensional inputs.

    ``weights`` has shape (k, d); ``biases`` and ``out_weights`` have shape
    (k,).  Instances are immutable: the arrays are stored read-only.
    """

    weights: np.ndarray
    biases: np.ndarray
    out_weights: np.ndarray

    def __post_init__(self):
        w = _readonly(self.weights)
        if w.ndim != 2:
            raise ValueError(f"weights must be 2-d (k, d), got shape {w.shape}")
        b = _readonly(self.biases)
        v = _readonly(self.out_weights)
        k = w.shape[0]
        if b.shape != (k,) or v.shape != (k,):
            raise ValueError(
                f"biases/out_weights must have shape ({k},), got {b.shape} and {v.shape}"
            )
        if k < 1 or w.shape[1] < 1:
            raise ValueError("network needs width >= 1 and input_dim >= 1")
        for arr in (w, b, v):
            if not np.all(np.isfinite(arr)):
                raise ValueError("network parameters must be finite")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "biases", b)
        object.__setattr__(self, "out_weights", v)

    @property
    def input_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def width(self) -> int:
        return self.weights.shape[0]


@dataclass(frozen=True)
class LabeledDataset:
    """Binary-classification data: points (n, d), labels in {-1, +1}."""

    points: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        x = _readonly(self.points)
        if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
            raise ValueError(f"points must be a nonempty (n, d) array, got {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ValueError("points must be finite")
        y = np.array(self.labels, dtype=float)
        if y.shape != (x.shape[0],):
            raise ValueError(f"labels must have shape ({x.shape[0]},), got {y.shape}")
        if not np.all(np.isin(y, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")
        y.setflags(write=False)
        object.__setattr__(self, "points", x)
        object.__setattr__(self, "labels", y)

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def _check_inputs(net: NetworkParams, xs) -> np.ndarray:
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != net.input_dim:
        raise DimensionMismatchError(
            f"inputs have shape {xs.shape}, network expects (n, {net.input_dim})"
        )
    return xs


def _forward_arrays(lin, offset, out_weights, act=None):
    # (pre-activations, activations, outputs) from an array holding the
    # linear part xs @ weights.T; ``offset`` (the biases, or in training the
    # whole initial pre-activation) is added into it in place, and the
    # activations go to ``act`` when given.  No validation: the training
    # loop calls this at every step.  ``dot`` calls the BLAS routine that
    # ``@`` calls, with less overhead per call: the same bits.
    pre = np.add(lin, offset, out=lin)
    act = np.maximum(pre, 0.0, out=act)
    return pre, act, act.dot(out_weights)


# Row blocks hold at most this many float64 values (1 MiB), so scoring needs
# O(block * width) memory whatever the number of rows.
_BLOCK_VALUES = 1 << 17


def _block_rows(width: int) -> int:
    # The largest power of two, at least 16, with rows * width within the
    # budget.  Powers of two suit how the BLAS kernel tiles rows: such blocks
    # gave the bits of one whole-batch product on every desk and benchmark
    # shape measured, and 250-row blocks did not.
    return 1 << max(4, (_BLOCK_VALUES // width).bit_length() - 1)


def _row_blocks(rows: int, width: int):
    """(start, stop) of each row block of a (rows, width) product.

    Blocks hold ``_block_rows(width)`` rows, so an output that fits in one
    block is one product, and a 1-row tail joins the block before it: numpy
    computes a 1-row product with a matrix-vector routine that rounds
    differently.
    """
    step = _block_rows(width)
    bounds = [0, *range(step, rows - 1, step), rows]
    return zip(bounds, bounds[1:])


def _forward_rows(net: NetworkParams, xs: np.ndarray) -> np.ndarray:
    # The fresh linear part also takes the activations: one (rows, k) array.
    lin = xs @ net.weights.T
    return _forward_arrays(lin, net.biases, net.out_weights, act=lin)[2]


def forward_batch(net: NetworkParams, xs: np.ndarray) -> np.ndarray:
    """Evaluate the network at every row of ``xs`` (shape (n, d)).

    Rows go through in the blocks of :func:`_row_blocks`, so no (n, k) array
    is formed.
    """
    xs = _check_inputs(net, xs)
    return np.concatenate([_forward_rows(net, xs[i:j])
                           for i, j in _row_blocks(len(xs), net.width)])


def _require_univariate(net: NetworkParams) -> None:
    if net.input_dim != 1:
        raise DimensionMismatchError(
            f"operation requires a univariate network, got input_dim={net.input_dim}"
        )


@dataclass(frozen=True)
class PiecewiseLinear:
    """A continuous piecewise-linear function on the real line.

    ``breakpoints`` is strictly increasing with B entries; ``slopes`` and
    ``intercepts`` have B + 1 entries, segment i covering
    (breakpoints[i-1], breakpoints[i]) with the two unbounded end segments.
    Segment values are slope * x + intercept in global coordinates.
    """

    breakpoints: np.ndarray
    slopes: np.ndarray
    intercepts: np.ndarray

    def __post_init__(self):
        bp = _readonly(np.atleast_1d(self.breakpoints))
        sl = _readonly(np.atleast_1d(self.slopes))
        ic = _readonly(np.atleast_1d(self.intercepts))
        if sl.shape != ic.shape or sl.shape != (bp.shape[0] + 1,):
            raise ValueError(
                f"need len(slopes) == len(intercepts) == len(breakpoints) + 1, "
                f"got {sl.shape}, {ic.shape}, {bp.shape}"
            )
        if bp.size > 1 and not np.all(np.diff(bp) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        for arr in (bp, sl, ic):
            if not np.all(np.isfinite(arr)):
                raise ValueError("piecewise-linear data must be finite")
        # The relative scale includes slope * span: a boundary that merged
        # several nearly coincident kinks carries a value mismatch up to
        # slope * merge-radius, which is CONTINUITY_REL_TOL * slope * span.
        span = float(bp[-1] - bp[0]) if bp.size > 1 else 0.0
        for i, x in enumerate(bp):
            left = sl[i] * x + ic[i]
            right = sl[i + 1] * x + ic[i + 1]
            scale = max(
                1.0, abs(left), abs(right),
                (abs(sl[i]) + abs(sl[i + 1])) * max(1.0, span),
            )
            if abs(left - right) > CONTINUITY_REL_TOL * scale:
                raise ValueError(
                    f"discontinuity at breakpoint {x}: {left} vs {right}"
                )
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "slopes", sl)
        object.__setattr__(self, "intercepts", ic)

    @property
    def n_segments(self) -> int:
        return self.slopes.shape[0]

    def segment_bounds(self, i: int) -> tuple[float, float]:
        """(left, right) endpoints of segment i; end segments are unbounded."""
        left = -np.inf if i == 0 else float(self.breakpoints[i - 1])
        right = np.inf if i == self.n_segments - 1 else float(self.breakpoints[i])
        return left, right


def _merge_locations(locs: np.ndarray) -> np.ndarray:
    """Collapse locations closer than the merge tolerance into their mean."""
    if locs.size == 0:
        return locs
    locs = np.sort(locs)
    tol = BREAKPOINT_MERGE_REL_TOL * float(locs[-1] - locs[0])
    clusters = np.split(locs, np.flatnonzero(np.diff(locs) > tol) + 1)
    return np.array([float(np.mean(cluster)) for cluster in clusters])


def to_piecewise_linear(net: NetworkParams) -> PiecewiseLinear:
    """Exact piecewise-linear form of a univariate network.

    Breakpoints come from neurons with nonzero input weight and nonzero
    output weight; boundaries across which the function does not actually
    change (slope and intercept both equal) are dropped.
    """
    _require_univariate(net)
    w = net.weights[:, 0]
    b = net.biases
    v = net.out_weights
    live = (np.abs(w) > DEAD_WEIGHT_REL_TOL * max(1.0, float(np.max(np.abs(w))))) & (v != 0.0)
    locs = _merge_locations(-b[live] / w[live])

    def segment_at(x_rep: float) -> tuple[float, float]:
        active = w * x_rep + b > 0.0
        return float(np.sum(v[active] * w[active])), float(np.sum(v[active] * b[active]))

    if locs.size == 0:
        slope, intercept = segment_at(0.0)
        return PiecewiseLinear(np.empty(0), np.array([slope]), np.array([intercept]))

    span = max(1.0, float(locs[-1] - locs[0]))
    reps = [float(locs[0]) - span, *((locs[:-1] + locs[1:]) / 2.0), float(locs[-1]) + span]
    slopes, intercepts = np.array([segment_at(r) for r in reps]).T

    # Drop boundaries with no actual change of linearity (e.g. neurons whose
    # contributions cancel); tolerance is relative to the overall scale.
    sl_tol = 1e-12 * max(1.0, float(np.max(np.abs(slopes))))
    ic_tol = 1e-12 * max(1.0, float(np.max(np.abs(intercepts))))
    keep_bp = np.flatnonzero((np.abs(np.diff(slopes)) > sl_tol)
                             | (np.abs(np.diff(intercepts)) > ic_tol))
    seg_keep = np.concatenate([[0], keep_bp + 1])
    return PiecewiseLinear(locs[keep_bp], slopes[seg_keep], intercepts[seg_keep])


# --- on-disk formats ---------------------------------------------------------
# A CSV file is an optional "# ..." metadata line ending in "\n", then a
# header and data rows with the csv module's bytes, each ending in "\r\n".
# Float cells are written with repr (full round-trip precision).  Rows that
# hold only numbers are joined directly (_write_number_csv): the repr of a
# float and the text of an int hold no delimiter, quote or line break, so
# the csv module would write the same bytes.  Readers skip blank lines and
# lines starting with "#".  A JSON document is written with indent=1 and a
# trailing newline, NaN and infinities as NaN/Infinity; the model document
# holds its arrays as base64 float64 bytes (see save_network).  The helpers
# are underscore-named so that their time counts toward the public reader
# or writer calling them.


def _write_csv(path, header, rows, comment: str | None = None) -> None:
    """Write ``# comment`` (when given), the header, then the rows."""
    with Path(path).open("w", newline="") as fh:
        if comment is not None:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_number_csv(path, header, rows, comment: str) -> None:
    """:func:`_write_csv` for rows of Python floats and ints, joined directly."""
    with Path(path).open("w", newline="") as fh:
        fh.write(f"# {comment}\n")
        csv.writer(fh).writerow(header)
        fh.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)


def _read_csv(path):
    """(header, lines) of a CSV file, skipping blank and ``#`` lines.

    ``header`` is the first remaining row as a list of strings, None when no
    line is left; ``lines`` iterates over the text of the lines after it.
    The file is read one line at a time and closed once ``lines`` is
    exhausted (or discarded).  Text that is not UTF-8 raises
    ``UnicodeDecodeError``, a ``ValueError``, from either.
    """
    def lines():
        with Path(path).open() as fh:
            yield from (ln for ln in fh if ln.strip() and not ln.startswith("#"))

    rest = lines()
    return next(csv.reader(rest), None), rest


def _write_json(path, doc) -> None:
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def _decode_array(doc, key: str, shape: tuple[int, ...]) -> np.ndarray:
    """The array :func:`save_network` wrote under ``doc[key]``, of ``shape``.

    The text is popped from ``doc``, so it is freed once decoded.
    """
    try:
        # base64.b64decode(text, validate=True) without its ASCII copy of
        # the text: the same bytes, and the same errors.
        raw = binascii.a2b_base64(doc.pop(key), strict_mode=True)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"{key} is not base64 text: {exc}") from exc
    want = 8 * math.prod(shape)
    if len(raw) != want:
        raise FileFormatError(f"{key} holds {len(raw)} bytes, expected {want} for shape {shape}")
    return np.frombuffer(raw, dtype="<f8").reshape(shape)


def _positive_int(doc, key: str) -> int:
    value = doc[key]
    if type(value) is not int or value < 1:
        raise FileFormatError(f"{key} must be an integer >= 1, got {value!r}")
    return value


# Arrays are encoded in chunks of this many bytes.  It is a multiple of 3, so
# the encodings of the chunks concatenate to the encoding of the whole array.
_B64_CHUNK = 3 << 16


def save_network(net: NetworkParams, path) -> None:
    """Write the versioned model document (format 2, bit-exact).

    Each array is stored as base64 of its little-endian IEEE-754 float64
    bytes in C order: ``weights`` of shape (width, input_dim), ``biases`` and
    ``out_weights`` of shape (width,).  The file holds the bytes of
    :func:`_write_json` for that document, written as they are encoded, so
    no copy of the document is formed.
    """
    with Path(path).open("wb") as fh:
        fh.write(f'{{\n "format_version": {MODEL_FORMAT_VERSION},\n'
                 f' "input_dim": {net.input_dim},\n "width": {net.width}'.encode())
        for key in ("weights", "biases", "out_weights"):
            raw = memoryview(np.ascontiguousarray(getattr(net, key), dtype="<f8")).cast("B")
            fh.write(f',\n "{key}": "'.encode())
            for i in range(0, len(raw), _B64_CHUNK):
                fh.write(binascii.b2a_base64(raw[i:i + _B64_CHUNK], newline=False))
            fh.write(b'"')
        fh.write(b"\n}\n")


def load_network(path) -> NetworkParams:
    """Read a model document of format 2 (:func:`save_network`).

    Any other ``format_version``, format 1 included, and any malformed
    document, non-finite parameters included, raise :class:`FileFormatError`.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:  # invalid JSON or text that is not UTF-8
        raise FileFormatError(f"not a valid model document: {exc}") from exc
    try:
        version = doc["format_version"]
        if type(version) is not int or version != MODEL_FORMAT_VERSION:
            raise FileFormatError(f"unsupported model format_version {version!r}")
        d, k = _positive_int(doc, "input_dim"), _positive_int(doc, "width")
        return NetworkParams(_decode_array(doc, "weights", (k, d)),
                             _decode_array(doc, "biases", (k,)),
                             _decode_array(doc, "out_weights", (k,)))
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"malformed model document: {exc}") from exc
