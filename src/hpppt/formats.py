"""Instance file formats: the native .hpt text format and a TSPLIB subset.

Native format, whitespace separated, '#' starts a comment:

    NAME <str>
    N <int>
    START <int>
    SEED <u64>            (optional)
    PROB <n reals>
    COORDS                (followed by n lines "x y")
    MATRIX FULL           (alternative: followed by n rows of n reals)

Each record appears once, COORDS and MATRIX not both, and a record line
holds nothing past its value.

Reals are written with repr, the shortest form that round-trips exactly.
"""

import math
import os

import numpy as np

from .instance import (Instance, InvalidPathError, MetricViolationError,
                       check_path, euclidean_costs, has_euclidean_costs,
                       require_metric)
from .instance import metric_closure as _closure


class FormatError(ValueError):
    pass


class UnsupportedFormatError(ValueError):
    pass


def _fmt(x: float) -> str:
    return repr(float(x))


def write_hpt(inst: Instance) -> str:
    name = "-".join(str(inst.name).split()) or "instance"
    lines = [f"NAME {name}", f"N {inst.n}", f"START {inst.start}"]
    if inst.seed is not None:
        lines.append(f"SEED {inst.seed}")
    lines.append("PROB " + " ".join(_fmt(p) for p in inst.prob))
    # COORDS only when parse_hpt would derive exactly these costs again
    if has_euclidean_costs(inst):
        lines.append("COORDS")
        for x, y in inst.coords:
            lines.append(f"{_fmt(x)} {_fmt(y)}")
    else:
        lines.append("MATRIX FULL")
        for row in inst.cost:
            lines.append(" ".join(_fmt(c) for c in row))
    return "\n".join(lines) + "\n"


def save_instance(inst: Instance, path) -> None:
    with open(path, "w") as fh:
        fh.write(write_hpt(inst))


def _content_lines(text: str):
    """Yield (line_number, tokens) with comments and blanks stripped."""
    for i, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield i, line.split()


def _floats(tokens, lineno, what):
    out = []
    for t in tokens:
        try:
            out.append(float(t))
        except ValueError:
            raise FormatError(f"line {lineno}: bad {what} value {t!r}") from None
    return out


# each record, with the number of tokens its line holds; a PROB line holds
# as many reals as fit, and the next lines go on with them
_RECORDS = {"NAME": 2, "N": 2, "START": 2, "SEED": 2, "PROB": None,
            "COORDS": 1, "MATRIX": 2}


def _reals(lines, i, vals, count, what, noun):
    """vals, extended by the reals of the lines after lines[i] up to the
    next record until it holds count, and the index of the last line read.
    """
    lineno = lines[i][0]
    while (len(vals) < count and i + 1 < len(lines)
           and lines[i + 1][1][0].upper() not in _RECORDS):
        i += 1
        vals.extend(_floats(lines[i][1], lines[i][0], what))
    if len(vals) != count:
        raise FormatError(
            f"line {lineno}: expected {count} {noun}, got {len(vals)}")
    return vals, i


def parse_hpt(text: str) -> Instance:
    name = ""
    ints = {}  # N, START and SEED
    prob = None
    coords = None
    matrix = None
    first = {}  # the line of each record, COORDS and MATRIX as one
    lines = list(_content_lines(text))
    i = 0
    while i < len(lines):
        lineno, toks = lines[i]
        key = toks[0].upper()
        if key not in _RECORDS:
            raise FormatError(f"line {lineno}: unknown record {toks[0]!r}")
        slot = "COORDS or MATRIX" if key in ("COORDS", "MATRIX") else key
        if slot in first:
            raise FormatError(f"line {lineno}: a second {slot} record, "
                              f"after line {first[slot]}")
        first[slot] = lineno
        keep = _RECORDS[key]
        if keep and len(toks) > keep:
            extra = " ".join(toks[keep:])
            raise FormatError(f"line {lineno}: unexpected {extra!r} after "
                              f"{' '.join(toks[:keep])}")
        n = ints.get("N")
        if n is None and key in ("PROB", "COORDS", "MATRIX"):
            raise FormatError(f"line {lineno}: {key} before N")
        if key == "NAME":
            name = toks[1] if len(toks) > 1 else ""
        elif key in ("N", "START", "SEED"):
            try:
                ints[key] = int(toks[1])
            except (IndexError, ValueError):
                raise FormatError(f"line {lineno}: bad {key} record") from None
            if key == "N" and ints["N"] < 1:
                raise FormatError(f"line {lineno}: N must be positive")
        elif key == "PROB":
            prob = _floats(toks[1:], lineno, "probability")
            prob, i = _reals(lines, i, prob, n, "probability", "probabilities")
        elif key == "COORDS":
            vals, i = _reals(lines, i, [], 2 * n, "coordinate",
                             "coordinate values")
            if not all(map(math.isfinite, vals)):
                raise FormatError(f"line {lineno}: coordinates must be finite")
            coords = np.array(vals, dtype=np.float64).reshape(n, 2)
        else:
            if len(toks) < 2 or toks[1].upper() != "FULL":
                raise FormatError(f"line {lineno}: only MATRIX FULL is defined")
            vals, i = _reals(lines, i, [], n * n, "cost", "matrix values")
            matrix = np.array(vals, dtype=np.float64).reshape(n, n)
        i += 1
    n = ints.get("N")
    start = ints.get("START")
    if n is None:
        raise FormatError("missing N record")
    if start is None:
        raise FormatError("missing START record")
    if prob is None:
        raise FormatError("missing PROB record")
    if coords is not None:
        with np.errstate(over="ignore"):
            cost = euclidean_costs(coords)
        if not np.isfinite(cost).all():
            raise FormatError(f"line {first['COORDS or MATRIX']}: a distance "
                              "between coordinates overflows")
    elif matrix is not None:
        cost = matrix
    else:
        raise FormatError("missing COORDS or MATRIX section")
    return Instance(cost, prob, start, name, coords, ints.get("SEED"))


def _tsplib_nint(x: float) -> float:
    return float(int(x + 0.5))


def parse_tsplib(text: str) -> Instance:
    """Parse a TSPLIB file: EUC_2D, or EXPLICIT with LOWER_DIAG_ROW or
    FULL_MATRIX. Anything else raises UnsupportedFormatError naming the
    offending keyword. Probabilities are zero, start is vertex 0.
    """
    name = ""
    dim = None
    ewt = None
    ewf = None
    coord_vals = []
    weight_vals = []
    section = None
    for lineno, toks in _content_lines(text):
        joined = " ".join(toks)
        if ":" in joined:
            key, _, val = joined.partition(":")
            key = key.strip().upper()
            val = val.strip()
            section = None
            if key == "NAME":
                name = val
            elif key == "DIMENSION":
                try:
                    dim = int(val)
                except ValueError:
                    raise FormatError(f"line {lineno}: bad DIMENSION") from None
                if dim < 1:
                    raise FormatError(
                        f"line {lineno}: DIMENSION must be positive")
            elif key == "EDGE_WEIGHT_TYPE":
                ewt = val.upper()
            elif key == "EDGE_WEIGHT_FORMAT":
                ewf = val.upper()
            # TYPE, COMMENT and display hints are irrelevant here
            continue
        key = toks[0].upper()
        if key == "NODE_COORD_SECTION":
            section = "coords"
            continue
        if key == "EDGE_WEIGHT_SECTION":
            section = "weights"
            continue
        if key == "EOF":
            section = None
            continue
        if key in ("DISPLAY_DATA_SECTION",):
            section = "skip"
            continue
        if section == "coords":
            vals = _floats(toks, lineno, "coordinate")
            if len(vals) != 3:
                raise FormatError(
                    f"line {lineno}: coordinate rows are 'index x y'")
            coord_vals.append((vals[1], vals[2]))
        elif section == "weights":
            weight_vals.extend(_floats(toks, lineno, "edge weight"))
        elif section == "skip":
            continue
        else:
            raise FormatError(f"line {lineno}: unexpected data {joined!r}")
    if dim is None:
        raise FormatError("missing DIMENSION")
    n = dim
    if ewt == "EUC_2D":
        if len(coord_vals) != n:
            raise FormatError(
                f"expected {n} coordinate rows, got {len(coord_vals)}")
        coords = np.array(coord_vals, dtype=np.float64)
        cost = np.zeros((n, n))
        # Python floats, whose subtraction overflows to inf without a warning
        pts = coords.tolist()
        for i in range(n):
            for j in range(i + 1, n):
                d = math.hypot(pts[i][0] - pts[j][0], pts[i][1] - pts[j][1])
                if not math.isfinite(d):
                    raise FormatError(
                        f"nodes {i + 1} and {j + 1} are {d} apart under "
                        "EUC_2D; costs must be finite")
                w = _tsplib_nint(d)
                if w == 0.0:
                    raise FormatError(
                        f"nodes {i + 1} and {j + 1} are {d:.6g} apart, which "
                        "rounds to 0 under EUC_2D; distinct nodes need a "
                        "positive cost")
                cost[i, j] = cost[j, i] = w
        return Instance(cost, np.zeros(n), 0, name, coords)
    if ewt == "EXPLICIT":
        if ewf == "LOWER_DIAG_ROW":
            need = n * (n + 1) // 2
            if len(weight_vals) != need:
                raise FormatError(
                    f"expected {need} weights, got {len(weight_vals)}")
            cost = np.zeros((n, n))
            it = iter(weight_vals)
            for i in range(n):
                for j in range(i + 1):
                    w = next(it)
                    cost[i, j] = cost[j, i] = w
            return Instance(cost, np.zeros(n), 0, name)
        if ewf == "FULL_MATRIX":
            if len(weight_vals) != n * n:
                raise FormatError(
                    f"expected {n * n} weights, got {len(weight_vals)}")
            cost = np.array(weight_vals, dtype=np.float64).reshape(n, n)
            return Instance(cost, np.zeros(n), 0, name)
        raise UnsupportedFormatError(
            f"EDGE_WEIGHT_FORMAT {ewf or '(missing)'} is not supported")
    raise UnsupportedFormatError(
        f"EDGE_WEIGHT_TYPE {ewt or '(missing)'} is not supported")


def _looks_like_tsplib(text: str) -> bool:
    head = text[:4096].upper()
    return "EDGE_WEIGHT_TYPE" in head or "DIMENSION" in head and ":" in head


def load_instance(path, metric_closure: bool = False) -> Instance:
    """Load .hpt or TSPLIB by extension (content sniff as fallback).

    Costs must satisfy the triangle inequality; violations raise unless
    metric_closure=True, which repairs them with shortest relay paths.
    """
    with open(path) as fh:
        text = fh.read()
    ext = os.path.splitext(str(path))[1].lower()
    if ext == ".hpt":
        inst = parse_hpt(text)
    elif ext in (".tsp", ".tsplib", ".atsp"):
        inst = parse_tsplib(text)
    elif _looks_like_tsplib(text):
        inst = parse_tsplib(text)
    else:
        inst = parse_hpt(text)
    if metric_closure:
        return _closure(inst)
    try:
        require_metric(inst)
    except MetricViolationError as exc:
        raise MetricViolationError(
            f"{path}: {exc}: pass metric_closure=True to load_instance, "
            "or --metric-closure to hpppt") from None
    return inst


def read_tour(path, inst: Instance) -> tuple:
    """Read a precomputed tour: one line of space-separated vertex indices.

    Must be a solution path for inst (starts at inst.start, covers every
    vertex exactly once).
    """
    with open(path) as fh:
        tokens = fh.read().split()
    try:
        order = [int(t) for t in tokens]
    except ValueError as exc:
        raise FormatError(f"bad tour entry: {exc}") from None
    try:
        return check_path(inst, order, full=True)
    except InvalidPathError as exc:
        raise FormatError(f"tour is not a valid solution path: {exc}") from None
