"""Seeded request streams for the orbitcharts benchmark, and their oracles.

A workload turns a seed into one pass: an ordered list of CLI requests.
Each request carries what an independent oracle expects of its output:
the exit code, the case tag, the orbit dimension, and, for sl elements with
a nonzero semisimple part, the eigenvalues of that part. Orbit dimensions
come from the partition formulas in Collingwood-McGovern, *Nilpotent Orbits
in Semisimple Lie Algebras*, 6.1, and from the centralizer of a diagonal
element; nothing here imports orbitcharts.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

SAMPLES = 10


@dataclass(frozen=True)
class Request:
    command: str
    family: str
    size: int
    rows: Tuple[Tuple[int, ...], ...]
    cli_seed: int
    expect_exit: int = 0
    case: Optional[str] = None
    orbit_dim: Optional[int] = None
    eigenvalues: Optional[Tuple[int, ...]] = None  # of x_s, with multiplicity

    def argv(self) -> List[str]:
        element = json.dumps({"matrix": [[str(v) for v in row] for row in self.rows]})
        argv = [self.command, "--family", self.family, "--size", str(self.size),
                "--element", element]
        if self.command in ("chart", "verify"):
            argv += ["--seed", str(self.cli_seed)]
        if self.command == "verify":
            argv += ["--samples", str(SAMPLES)]
        return argv


@dataclass(frozen=True)
class Workload:
    name: str
    algebras: Tuple[Tuple[str, int], ...]  # every (family, size) a pass uses
    build: Callable[[random.Random], List[Request]]


# ---------------------------------------------------------------------------
# Partitions and orbit dimensions
# ---------------------------------------------------------------------------


def partitions(n: int):
    """Partitions of n, largest part first, in a fixed order."""
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in partitions(n - first):
            if not rest or rest[0] <= first:
                yield (first,) + rest


def conjugate(partition) -> List[int]:
    return [sum(1 for p in partition if p > k) for k in range(max(partition, default=0))]


def nilpotent_orbit_dim(family: str, n: int, partition) -> int:
    """Orbit dimension of a nilpotent of Jordan type ``partition``
    (Collingwood-McGovern, Cor. 6.1.4; for sl, n^2 - sum of squared dual parts)."""
    squares = sum(c * c for c in conjugate(partition))
    odd = sum(1 for p in partition if p % 2)
    if family == "sl":
        return n * n - squares
    if family == "so":
        return (n * n - n) // 2 - (squares - odd) // 2
    return (n * n + n) // 2 - (squares + odd) // 2


def split_diagonal_orbit_dim(family: str, half: Tuple[int, ...], n: int) -> int:
    """Orbit dimension of diag(a_1..a_k, [0], -a_k..-a_1) in so(n) or sp(n).

    The centralizer is gl(m_c) for each eigenvalue c > 0, where m_c counts
    the i with |a_i| = c, plus so(m_0) or sp(m_0) on the zero eigenspace.
    """
    mults: Dict[int, int] = {}
    for a in half:
        if a:
            mults[abs(a)] = mults.get(abs(a), 0) + 1
    m0 = 2 * sum(1 for a in half if a == 0) + n % 2
    zero_part = m0 * (m0 - 1) // 2 if family == "so" else m0 * (m0 + 1) // 2
    full = (n * n - n) // 2 if family == "so" else (n * n + n) // 2
    return full - sum(m * m for m in mults.values()) - zero_part


# ---------------------------------------------------------------------------
# Exact matrix helpers (Fraction Gaussian elimination, small sizes only)
# ---------------------------------------------------------------------------


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def _rank(rows) -> int:
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c] / m[rank][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def nilpotent_partition(rows) -> Tuple[int, ...]:
    """Jordan type of a nilpotent matrix from the ranks of its powers."""
    n = len(rows)
    ranks = [n]
    power = [list(r) for r in rows]
    while ranks[-1]:
        ranks.append(_rank(power))
        power = _matmul(power, rows)
    dual = [ranks[k] - ranks[k + 1] for k in range(len(ranks) - 1)]
    return tuple(conjugate(dual))


def _jordan_rows(n: int, blocks) -> List[List[int]]:
    """Zero matrix with one nilpotent Jordan block per entry of ``blocks``,
    laid out along the diagonal in order."""
    rows = [[0] * n for _ in range(n)]
    pos = 0
    for size in blocks:
        for k in range(size - 1):
            rows[pos + k][pos + k + 1] = 1
        pos += size
    return rows


def _frozen(rows) -> Tuple[Tuple[int, ...], ...]:
    return tuple(tuple(r) for r in rows)


# ---------------------------------------------------------------------------
# so / sp in split antidiagonal form
# ---------------------------------------------------------------------------


def _form(family: str, n: int) -> List[List[int]]:
    s = [[0] * n for _ in range(n)]
    for i in range(n):
        s[i][n - 1 - i] = 1 if family == "so" or i < n // 2 else -1
    return s


def _preserves_form(family: str, a) -> bool:
    s = _form(family, len(a))
    left = _matmul([list(c) for c in zip(*a)], s)
    right = _matmul(s, a)
    return all(x + y == 0 for lr, rr in zip(left, right) for x, y in zip(lr, rr))


def upper_nilpotent_basis(family: str, n: int) -> List[List[List[int]]]:
    """Strictly upper-triangular basis of so(n) or sp(n): E_ij, paired with
    its mirror entry across the antidiagonal when that is a different entry."""
    basis = []
    for i in range(n):
        for j in range(i + 1, n):
            mirror = (n - 1 - j, n - 1 - i)
            if mirror < (i, j):
                continue
            for sign in ((0,) if mirror == (i, j) else (1, -1)):
                e = [[0] * n for _ in range(n)]
                e[i][j] = 1
                if sign:
                    e[mirror[0]][mirror[1]] = sign
                if _preserves_form(family, e):
                    basis.append(e)
                    break
    return basis


# ---------------------------------------------------------------------------
# Element generators
# ---------------------------------------------------------------------------


def _cli_seed(rng: random.Random) -> int:
    return rng.randrange(1, 1 << 31)


def _block_eigenvalues(rng: random.Random, blocks) -> List[int]:
    """Distinct integers, one per block, with sum(block * value) == 0."""
    while True:
        values = [rng.randint(-4, 4) for _ in blocks[:-1]]
        rest = -sum(m * v for m, v in zip(blocks, values))
        if rest % blocks[-1]:
            continue
        values.append(rest // blocks[-1])
        if len(set(values)) == len(values):
            return values


def _expand(blocks, values) -> Tuple[int, ...]:
    return tuple(v for m, v in zip(blocks, values) for _ in range(m))


def _diag_rows(diag) -> List[List[int]]:
    n = len(diag)
    return [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]


def _sl_nilpotents(rng):
    for n in (3, 4, 5, 6):
        for part in partitions(n):
            if part[0] >= 2:
                yield Request("verify", "sl", n, _frozen(_jordan_rows(n, part)),
                              _cli_seed(rng), case="nilpotent",
                              orbit_dim=nilpotent_orbit_dim("sl", n, part))


def _split_nilpotents(rng, family, n, count):
    """Seeded regular nilpotents of so(n) or sp(n): every coefficient on the
    strictly upper-triangular basis is nonzero, so each simple root vector
    appears. The oracle still reads the Jordan type off the matrix."""
    basis = upper_nilpotent_basis(family, n)
    for _ in range(count):
        coeffs = [rng.choice((-2, -1, 1, 2)) for _ in basis]
        rows = [[sum(c * b[i][j] for c, b in zip(coeffs, basis)) for j in range(n)]
                for i in range(n)]
        part = nilpotent_partition(rows)
        yield Request("verify", family, n, _frozen(rows), _cli_seed(rng),
                      case="nilpotent", orbit_dim=nilpotent_orbit_dim(family, n, part))


def build_nilpotent_verify(rng: random.Random) -> List[Request]:
    requests = list(_sl_nilpotents(rng))
    for family, n in (("so", 5), ("so", 6), ("sp", 4), ("sp", 6)):
        requests += _split_nilpotents(rng, family, n, 2)
    rng.shuffle(requests)
    return requests


# One diagonal element per multiplicity pattern of sl3 and sl4, two per sl5
# pattern. sl5 (2,2,1), (2,1,1,1) and (1,1,1,1,1) are left out: their witness
# search on the seed code takes from one second to minutes depending on the
# CLI seed, more than one pass can hold. The non-split rejections run the
# same search to exhaustion, 64 draws each, which averages its cost.
_SEMISIMPLE_PATTERNS = {
    3: ((2, 1), (1, 1, 1)),
    4: ((3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)),
    5: ((4, 1), (3, 2), (3, 1, 1)),
}
_REJECTS = 8


def _sl_diagonals(rng):
    for n, patterns in _SEMISIMPLE_PATTERNS.items():
        for pattern in patterns:
            for _ in range(2 if n == 5 else 1):
                diag = _expand(pattern, _block_eigenvalues(rng, pattern))
                yield Request("verify", "sl", n, _frozen(_diag_rows(diag)),
                              _cli_seed(rng), case="semisimple",
                              orbit_dim=n * n - sum(m * m for m in pattern),
                              eigenvalues=diag)


def _split_diagonals(rng, family, n, repeated):
    """diag(a_1..a_k, [0], -a_k..-a_1) in so(n) or sp(n) with seeded values,
    signs and order: the |a_i| are distinct, or, with ``repeated``, the
    first two agree."""
    sizes = rng.sample(range(1, 5), n // 2)
    if repeated:
        sizes[1] = sizes[0]
    half = [a * rng.choice((1, -1)) for a in sizes]
    rng.shuffle(half)
    diag = tuple(half) + (0,) * (n % 2) + tuple(-a for a in reversed(half))
    return Request("verify", family, n, _frozen(_diag_rows(diag)), _cli_seed(rng),
                   case="semisimple",
                   orbit_dim=split_diagonal_orbit_dim(family, tuple(half), n))


def _has_integer_root(p: int, q: int) -> bool:
    """Whether t^3 + p t + q has a rational (hence integer) root."""
    return any((r ** 3 + p * r + q) == 0
               for d in range(1, abs(q) + 1) if q % d == 0 for r in (d, -d))


def _nonsplit_cubics(rng, count):
    """sl3 companion matrices of t^3 + p t + q with no rational root: x_s does
    not split over Q, so no rational witness exists and verify must exit 4."""
    for _ in range(count):
        while True:
            p, q = rng.randint(-3, 3), rng.randint(1, 5) * rng.choice((1, -1))
            if not _has_integer_root(p, q):
                break
        rows = ((0, 0, -q), (1, 0, -p), (0, 1, 0))
        yield Request("verify", "sl", 3, rows, _cli_seed(rng), expect_exit=4)


def build_semisimple_witness(rng: random.Random) -> List[Request]:
    requests = list(_sl_diagonals(rng))
    for family, n, repeated in (("so", 5, False), ("sp", 4, False),
                                ("so", 6, False), ("so", 6, True)):
        requests.append(_split_diagonals(rng, family, n, repeated))
    requests += _nonsplit_cubics(rng, _REJECTS)
    rng.shuffle(requests)
    return requests


# Block compositions of the acceptance suite's mixed corpus, extended to sl5
# with compositions whose Levi witness is the first candidate tried, so the
# cost of a request does not hinge on the witness draws; `semisimple-witness`
# measures those.
_MIXED_COMPOSITIONS = (
    (3, (2, 1)), (3, (1, 2)),
    (4, (2, 2)), (4, (2, 1, 1)), (4, (3, 1)),
    (5, (4, 1)), (5, (3, 2)), (5, (2, 3)), (5, (3, 1, 1)), (5, (2, 1, 2)),
    (5, (1, 3, 1)),
)
_COMMANDS = ("analyze", "classify", "chart", "verify")


def _mixed_element(rng, n, blocks):
    """x_s block-diagonal with distinct eigenvalues, x_n a single
    superdiagonal 1 in the first block of size >= 2, as in the acceptance
    corpus; returns (rows, eigenvalues, orbit dimension)."""
    values = _block_eigenvalues(rng, blocks)
    rows = _diag_rows(_expand(blocks, values))
    first = next(k for k, m in enumerate(blocks) if m >= 2)
    pos = sum(blocks[:first])
    rows[pos][pos + 1] = 1
    types = [(2,) + (1,) * (m - 2) if k == first else (1,) * m
             for k, m in enumerate(blocks)]
    cent = sum(c * c for t in types for c in conjugate(t))
    return rows, _expand(blocks, values), n * n - cent


def build_command_mix(rng: random.Random) -> List[Request]:
    requests = []
    for n, blocks in _MIXED_COMPOSITIONS:
        rows, eigenvalues, dim = _mixed_element(rng, n, blocks)
        cli_seed = _cli_seed(rng)
        for command in _COMMANDS:
            requests.append(Request(command, "sl", n, _frozen(rows), cli_seed,
                                    case="mixed", orbit_dim=dim,
                                    eigenvalues=eigenvalues))
    rng.shuffle(requests)
    return requests


_SL = tuple(("sl", n) for n in (3, 4, 5))
WORKLOADS = {
    w.name: w for w in (
        Workload("nilpotent-verify",
                 _SL + (("sl", 6), ("so", 5), ("so", 6), ("sp", 4), ("sp", 6)),
                 build_nilpotent_verify),
        Workload("semisimple-witness", _SL + (("so", 5), ("so", 6), ("sp", 4)),
                 build_semisimple_witness),
        Workload("command-mix", _SL, build_command_mix),
    )
}


def build_pass(name: str, seed: int) -> List[Request]:
    return WORKLOADS[name].build(random.Random(f"{name}/{seed}"))


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def _invariants(eigenvalues) -> List[Fraction]:
    """(c_(n-2), ..., c_0) of prod (t - lambda_i)."""
    coeffs = [Fraction(1)]  # highest degree first
    for lam in eigenvalues:
        coeffs = [a - lam * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs[2:]


def _class_id_error(req: Request, class_id) -> Optional[str]:
    if [Fraction(c) for c in class_id] != _invariants(req.eigenvalues):
        return "class id disagrees with the characteristic polynomial of x_s"
    return None


def _trace_powers_error(req: Request, matrix) -> Optional[str]:
    """The representative lies in the class iff tr(R^k) = sum lambda_i^k, k = 1..n."""
    rep = [[Fraction(v) for v in row] for row in matrix]
    power = rep
    for k in range(1, req.size + 1):
        if sum(power[i][i] for i in range(req.size)) != sum(
                Fraction(lam) ** k for lam in req.eigenvalues):
            return f"representative has the wrong trace of its power {k}"
        power = _matmul(power, rep)
    return None


def _check_by_name(checks, name):
    return next(c for c in checks if c["name"] == name)


def _verify_error(req: Request, data) -> Optional[str]:
    if data["overall_pass"] is not True:
        return "overall_pass is not true"
    report = data["chart_verification"]
    if report["subject"]["case"] != req.case:
        return f"case {report['subject']['case']!r}, expected {req.case!r}"
    dim = _check_by_name(report["checks"], "dimension_identity")
    if dim["expected"] != req.orbit_dim or dim["observed"] != req.orbit_dim:
        return f"orbit dimension {dim['observed']}, expected {req.orbit_dim}"
    return None


def _param_count(chart) -> int:
    count = sum(len(f["basis"]) for f in chart["factors"])
    if chart["case_tag"] == "nilpotent":
        count += len(chart["slice_basis"])
    if chart["inner"] is not None:
        count += _param_count(chart["inner"])
    return count


def _chart_error(req: Request, data) -> Optional[str]:
    if data["case_tag"] != req.case:
        return f"case {data['case_tag']!r}, expected {req.case!r}"
    if data["expected_orbit_dim"] != req.orbit_dim or _param_count(data) != req.orbit_dim:
        return f"chart dimension {data['expected_orbit_dim']}, expected {req.orbit_dim}"
    return None


def _analyze_error(req: Request, data) -> Optional[str]:
    if data["case"] != req.case:
        return f"case {data['case']!r}, expected {req.case!r}"
    if data["orbit_dim"] != req.orbit_dim \
            or data["centralizer_dim"] + data["orbit_dim"] != req.size ** 2 - 1:
        return f"orbit dimension {data['orbit_dim']}, expected {req.orbit_dim}"
    return _class_id_error(req, data["class_id"])


def _classify_error(req: Request, data) -> Optional[str]:
    return (_class_id_error(req, data["class_id"])
            or _trace_powers_error(req, data["kostant_representative"]))


_ORACLES = {
    "analyze": _analyze_error,
    "chart": _chart_error,
    "classify": _classify_error,
    "verify": _verify_error,
}


def check(req: Request, code: Optional[int], stdout: str) -> Optional[str]:
    """Why the response to ``req`` is wrong, or None when it is right."""
    if code != req.expect_exit:
        return f"exit code {code}, expected {req.expect_exit}"
    if req.expect_exit != 0:
        return None if stdout == "" else "output printed on a rejected request"
    try:
        data = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not JSON"
    try:
        return _ORACLES[req.command](req, data)
    except (KeyError, TypeError, ValueError, StopIteration, ZeroDivisionError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
