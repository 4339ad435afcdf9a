"""``osprof db sql``: a small SQL dialect over the warehouse.

The paper's analysis workflow is comparative — which operation's peak
moved, which layer grew — and at fleet scale those questions span many
sources, epochs and tiers at once.  This module turns the warehouse's
columnar postings into one relation and runs
``SELECT / WHERE / GROUP BY / ORDER BY / LIMIT`` queries with
profile-aware aggregates over it, so "top 10 ops by p99 drift across
sources this hour" is one command instead of a script.

The relation has one row per stored operation profile (or one row per
occupied bucket when the query references the ``bucket``/``count``
columns), with dimensions::

    source  layer  op  epoch  epoch_end  tier  [bucket  count]

Referencing any of the ``state`` / ``wait_site`` / ``samples`` columns
switches the scan to the *sampling* family instead: one row per
``(state, layer, op, wait_site)`` cell of every stored wait-state
sample segment (``Warehouse.ingest_state``), and ``count()`` sums the
``samples`` column.  Latency aggregates are rejected there — sample
segments carry occupancy counts, not latencies — and the two families
never mix in one query.

Aggregates: ``count()``, ``total_latency()``, ``mean_latency()``,
``min_latency()``, ``max_latency()``, ``pNN()`` (e.g. ``p50()``,
``p99()``, ``p99.9()`` — the bucket-midpoint latency where the
cumulative distribution crosses NN%), ``peak_bucket()`` (modal bucket,
ties to the lowest index), ``emd('baseline')`` and
``pNN_drift('baseline')`` (distribution distance / signed percentile
shift against a named warehouse baseline's same-operation profile).

Determinism contract: on profile-level queries (no ``bucket``/``count``
reference), ``total_latency()`` folds the same encoded totals and
commit-log residuals the columnar merge folds, so a single-group
``SELECT total_latency()`` over some filter equals the
``Warehouse.query`` / ``ProfileSet.merged`` total for that filter
bit-for-bit — through compaction and reopen.  Bucket-level queries
estimate latency from bucket midpoints instead (the encoding carries no
per-bucket exact latency), and ``min_latency()``/``max_latency()`` are
rejected there rather than silently estimated.

Grammar (keywords case-insensitive; strings single-quoted)::

    query   := SELECT item ("," item)*
               [WHERE expr]
               [GROUP BY dim ("," dim)*]
               [ORDER BY key [ASC|DESC] ("," key [ASC|DESC])*]
               [LIMIT n]
    item    := dim | func "(" [string] ")"
    expr    := expr OR expr | expr AND expr | NOT expr | "(" expr ")"
             | dim ("=" | "!=" | "<" | "<=" | ">" | ">=") literal
             | dim [NOT] IN "(" literal ("," literal)* ")"

Malformed queries raise :class:`QueryError` (a ``ValueError``), which
the CLI reports as a clean one-line error with a nonzero exit.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..analysis.compare import earth_movers_distance
from ..core.buckets import BucketSpec, _grow_expansion
from .columnar import group_histogram

__all__ = [
    "DIMENSIONS",
    "BUCKET_DIMENSIONS",
    "SAMPLE_DIMENSIONS",
    "QueryError",
    "QueryResult",
    "SelectStatement",
    "execute_sql",
    "parse_sql",
]

#: Profile-level dimension columns, in canonical order.
DIMENSIONS = ("source", "layer", "op", "epoch", "epoch_end", "tier")

#: Extra columns available when the query drills into buckets.
BUCKET_DIMENSIONS = ("bucket", "count")

#: Columns that switch the scan to wait-state sample segments.
SAMPLE_DIMENSIONS = ("state", "wait_site", "samples")

_STRING_DIMS = frozenset(("source", "layer", "op", "state", "wait_site"))
_ALL_DIMS = frozenset(DIMENSIONS) | frozenset(BUCKET_DIMENSIONS) \
    | frozenset(SAMPLE_DIMENSIONS)

#: Zero-argument aggregates (name only); percentile forms are parsed
#: structurally (``p<NN>`` / ``p<NN>_drift``).
_PLAIN_AGGS = frozenset(("count", "total_latency", "mean_latency",
                         "min_latency", "max_latency", "peak_bucket"))
_PERCENTILE_RE = re.compile(r"p(\d+(?:\.\d+)?)(_drift)?\Z")


class QueryError(ValueError):
    """A malformed or unsupported SQL query (clean CLI error, exit 1)."""


@dataclass(frozen=True)
class SelectItem:
    """One projected column: a dimension or an aggregate call."""

    kind: str                       #: ``dim`` or ``agg``
    name: str                       #: dimension or function name
    q: Optional[float] = None       #: percentile (``pNN`` forms)
    baseline: Optional[str] = None  #: baseline argument, if any

    @property
    def label(self) -> str:
        if self.kind == "dim":
            return self.name
        if self.baseline is not None:
            return f"{self.name}('{self.baseline}')"
        return f"{self.name}()"


@dataclass
class SelectStatement:
    """A parsed query, ready for :func:`execute_sql`."""

    items: List[SelectItem]
    where: Optional[tuple] = None
    group_by: List[str] = field(default_factory=list)
    order_by: List[Tuple[SelectItem, bool]] = field(default_factory=list)
    limit: Optional[int] = None


@dataclass
class QueryResult:
    """Column labels plus result rows (lists of str/int/float/None)."""

    columns: List[str]
    rows: List[List]

    def as_dict(self) -> Dict:
        return {"columns": list(self.columns),
                "rows": [list(r) for r in self.rows]}


# -- lexing -------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<number>\d+(?:\.\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*(?:\.\d+)?)
  | (?P<string>'[^']*')
  | (?P<op><=|>=|!=|<>|=|<|>)
  | (?P<punct>[(),])
""", re.VERBOSE)


def _tokenize(text: str) -> List[Tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise QueryError(
                f"unexpected character {text[pos]!r} at position {pos}")
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    # -- token plumbing ------------------------------------------------------

    def _peek(self) -> Optional[Tuple[str, str, int]]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self) -> Tuple[str, str, int]:
        tok = self._peek()
        if tok is None:
            raise QueryError("unexpected end of query")
        self.pos += 1
        return tok

    def _at_keyword(self, *words: str) -> bool:
        tok = self._peek()
        return (tok is not None and tok[0] == "ident"
                and tok[1].lower() in words)

    def _expect_keyword(self, word: str) -> None:
        tok = self._next()
        if tok[0] != "ident" or tok[1].lower() != word:
            raise QueryError(
                f"expected {word.upper()} at position {tok[2]}, "
                f"got {tok[1]!r}")

    def _expect_punct(self, char: str) -> None:
        tok = self._next()
        if tok[0] != "punct" or tok[1] != char:
            raise QueryError(
                f"expected {char!r} at position {tok[2]}, got {tok[1]!r}")

    # -- grammar -------------------------------------------------------------

    def parse(self) -> SelectStatement:
        self._expect_keyword("select")
        items = [self._select_item()]
        while self._peek() is not None and self._peek()[1] == ",":
            self._next()
            items.append(self._select_item())
        stmt = SelectStatement(items=items)
        if self._at_keyword("where"):
            self._next()
            stmt.where = self._or_expr()
        if self._at_keyword("group"):
            self._next()
            self._expect_keyword("by")
            stmt.group_by.append(self._dimension())
            while self._peek() is not None and self._peek()[1] == ",":
                self._next()
                stmt.group_by.append(self._dimension())
        if self._at_keyword("order"):
            self._next()
            self._expect_keyword("by")
            stmt.order_by.append(self._order_key())
            while self._peek() is not None and self._peek()[1] == ",":
                self._next()
                stmt.order_by.append(self._order_key())
        if self._at_keyword("limit"):
            self._next()
            tok = self._next()
            if tok[0] != "number" or "." in tok[1]:
                raise QueryError(
                    f"LIMIT expects a non-negative integer, got {tok[1]!r}")
            stmt.limit = int(tok[1])
        tok = self._peek()
        if tok is not None:
            raise QueryError(
                f"unexpected trailing input at position {tok[2]}: "
                f"{tok[1]!r}")
        return stmt

    def _dimension(self) -> str:
        tok = self._next()
        if tok[0] != "ident":
            raise QueryError(
                f"expected a column name at position {tok[2]}, "
                f"got {tok[1]!r}")
        name = tok[1].lower()
        if name not in _ALL_DIMS:
            raise QueryError(
                f"unknown column {tok[1]!r} (columns: "
                f"{', '.join(DIMENSIONS + BUCKET_DIMENSIONS + SAMPLE_DIMENSIONS)})")
        return name

    def _select_item(self) -> SelectItem:
        tok = self._next()
        if tok[0] != "ident":
            raise QueryError(
                f"expected a column or aggregate at position {tok[2]}, "
                f"got {tok[1]!r}")
        name = tok[1].lower()
        nxt = self._peek()
        if nxt is not None and nxt[1] == "(":
            self._next()
            baseline = None
            if self._peek() is not None and self._peek()[0] == "string":
                baseline = self._next()[1][1:-1]
            self._expect_punct(")")
            return self._aggregate(name, baseline, tok[2])
        if name not in _ALL_DIMS:
            raise QueryError(
                f"unknown column {tok[1]!r} (columns: "
                f"{', '.join(DIMENSIONS + BUCKET_DIMENSIONS + SAMPLE_DIMENSIONS)}; "
                f"aggregates are called, e.g. p99())")
        return SelectItem(kind="dim", name=name)

    def _aggregate(self, name: str, baseline: Optional[str],
                   pos: int) -> SelectItem:
        q = None
        drift = False
        if name not in _PLAIN_AGGS and name != "emd":
            m = _PERCENTILE_RE.match(name)
            if m is None:
                raise QueryError(
                    f"unknown aggregate {name!r} at position {pos} "
                    f"(have: count, total_latency, mean_latency, "
                    f"min_latency, max_latency, pNN, pNN_drift, "
                    f"peak_bucket, emd)")
            q = float(m.group(1))
            if not 0 < q < 100:
                raise QueryError(
                    f"percentile {name!r} out of range (0, 100)")
            drift = bool(m.group(2))
            name = f"p{q:g}_drift" if drift else f"p{q:g}"
        needs_baseline = drift or name == "emd"
        if needs_baseline and baseline is None:
            raise QueryError(
                f"{name} requires a baseline name argument, e.g. "
                f"emd('clean')")
        if not needs_baseline and baseline is not None:
            raise QueryError(f"aggregate {name}() takes no argument")
        return SelectItem(kind="agg", name=name, q=q, baseline=baseline)

    def _order_key(self) -> Tuple[SelectItem, bool]:
        item = self._select_item()
        descending = False
        if self._at_keyword("asc", "desc"):
            descending = self._next()[1].lower() == "desc"
        return item, descending

    # -- WHERE expressions ---------------------------------------------------

    def _or_expr(self) -> tuple:
        left = self._and_expr()
        while self._at_keyword("or"):
            self._next()
            left = ("or", left, self._and_expr())
        return left

    def _and_expr(self) -> tuple:
        left = self._unary_expr()
        while self._at_keyword("and"):
            self._next()
            left = ("and", left, self._unary_expr())
        return left

    def _unary_expr(self) -> tuple:
        if self._at_keyword("not"):
            self._next()
            return ("not", self._unary_expr())
        tok = self._peek()
        if tok is not None and tok[1] == "(":
            self._next()
            expr = self._or_expr()
            self._expect_punct(")")
            return expr
        return self._comparison()

    def _literal(self, dim: str):
        tok = self._next()
        if tok[0] == "number":
            value = float(tok[1]) if "." in tok[1] else int(tok[1])
            if dim in _STRING_DIMS:
                raise QueryError(
                    f"type mismatch: column {dim!r} holds strings, "
                    f"got number {tok[1]}")
            return value
        if tok[0] == "string":
            if dim not in _STRING_DIMS:
                raise QueryError(
                    f"type mismatch: column {dim!r} is numeric, "
                    f"got string {tok[1]}")
            return tok[1][1:-1]
        raise QueryError(
            f"expected a literal at position {tok[2]}, got {tok[1]!r}")

    def _comparison(self) -> tuple:
        dim = self._dimension()
        negate = False
        if self._at_keyword("not"):
            self._next()
            negate = True
        if self._at_keyword("in"):
            self._next()
            self._expect_punct("(")
            values = [self._literal(dim)]
            while self._peek() is not None and self._peek()[1] == ",":
                self._next()
                values.append(self._literal(dim))
            self._expect_punct(")")
            expr = ("in", dim, frozenset(values))
            return ("not", expr) if negate else expr
        if negate:
            raise QueryError(f"expected IN after NOT following {dim!r}")
        tok = self._next()
        if tok[0] != "op":
            raise QueryError(
                f"expected a comparison operator after {dim!r} at "
                f"position {tok[2]}, got {tok[1]!r}")
        op = "!=" if tok[1] == "<>" else tok[1]
        return ("cmp", op, dim, self._literal(dim))


def parse_sql(text: str) -> SelectStatement:
    """Parse one query; raises :class:`QueryError` on malformed input.

    Static shape checks (GROUP BY consistency, baseline aggregates
    needing ``op``, bucket-level restrictions) run here too, so a bad
    query fails before any segment is decoded.
    """
    if not text or not text.strip():
        raise QueryError("empty query")
    stmt = _Parser(text).parse()
    _validate(stmt)
    return stmt


# -- execution ----------------------------------------------------------------

_CMP = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _eval(expr: tuple, row: Dict) -> bool:
    kind = expr[0]
    if kind == "and":
        return _eval(expr[1], row) and _eval(expr[2], row)
    if kind == "or":
        return _eval(expr[1], row) or _eval(expr[2], row)
    if kind == "not":
        return not _eval(expr[1], row)
    if kind == "in":
        return row[expr[1]] in expr[2]
    return _CMP[expr[1]](row[expr[2]], expr[3])


def _referenced_dims(expr: Optional[tuple]) -> frozenset:
    if expr is None:
        return frozenset()
    kind = expr[0]
    if kind in ("and", "or"):
        return _referenced_dims(expr[1]) | _referenced_dims(expr[2])
    if kind == "not":
        return _referenced_dims(expr[1])
    if kind == "in":
        return frozenset((expr[1],))
    return frozenset((expr[2],))


class _GroupState:
    """Accumulated merge state of one result group."""

    __slots__ = ("key", "nops", "partials", "counts", "mn", "mx", "est")

    def __init__(self, key: tuple):
        self.key = key
        self.nops = 0
        self.partials: List[float] = []
        self.counts: Dict[int, int] = {}
        self.mn: Optional[float] = None
        self.mx: Optional[float] = None
        self.est = 0.0  # bucket-midpoint latency estimate

    def percentile_bucket(self, q: float) -> Optional[int]:
        if self.nops == 0:
            return None
        target = q / 100.0 * self.nops
        cum = 0
        for b in sorted(self.counts):
            cum += self.counts[b]
            if cum >= target:
                return b
        return max(self.counts)

    def peak_bucket(self) -> Optional[int]:
        if not self.counts:
            return None
        best = None
        best_count = -1
        for b in sorted(self.counts):
            if self.counts[b] > best_count:
                best, best_count = b, self.counts[b]
        return best


def _validate(stmt: SelectStatement) -> Tuple[bool, bool, bool]:
    """Static checks; returns ``(has_aggregates, bucket_level,
    sample_level)``."""
    has_agg = any(item.kind == "agg" for item in stmt.items)
    order_items = [item for item, _ in stmt.order_by]
    referenced = set(item.name for item in stmt.items if item.kind == "dim")
    referenced |= set(item.name for item in order_items
                      if item.kind == "dim")
    referenced |= set(stmt.group_by)
    referenced |= _referenced_dims(stmt.where)
    bucket_level = bool(referenced & set(BUCKET_DIMENSIONS))
    sample_level = bool(referenced & set(SAMPLE_DIMENSIONS))
    if sample_level and bucket_level:
        raise QueryError(
            "bucket/count and state/wait_site/samples columns scan "
            "different segment families; query them separately")
    agg_items = [i for i in stmt.items + order_items if i.kind == "agg"]
    if sample_level:
        for item in agg_items:
            if item.name != "count":
                raise QueryError(
                    f"{item.label} needs latency profiles and is "
                    f"unavailable over sample columns "
                    f"(state/wait_site/samples); count() sums samples")
    if stmt.group_by:
        for item in stmt.items:
            if item.kind == "dim" and item.name not in stmt.group_by:
                raise QueryError(
                    f"column {item.name!r} must appear in GROUP BY or "
                    f"inside an aggregate")
        for item in order_items:
            if item.kind == "dim" and item.name not in stmt.group_by:
                raise QueryError(
                    f"ORDER BY column {item.name!r} must appear in "
                    f"GROUP BY or inside an aggregate")
    elif has_agg:
        bare = [i.name for i in stmt.items if i.kind == "dim"]
        if bare:
            raise QueryError(
                f"column {bare[0]!r} must appear in GROUP BY or inside "
                f"an aggregate")
    else:
        for item in order_items:
            if item.kind == "agg":
                raise QueryError(
                    "ORDER BY aggregate requires GROUP BY or an "
                    "all-aggregate SELECT")
    for item in agg_items:
        if item.baseline is not None and "op" not in stmt.group_by:
            raise QueryError(
                f"{item.label} compares per operation: add op to "
                f"GROUP BY")
        if bucket_level and item.name in ("min_latency", "max_latency"):
            raise QueryError(
                f"{item.name}() is exact per profile and unavailable in "
                f"bucket-level queries (drop the bucket/count reference)")
    return has_agg, bucket_level, sample_level


def _scan_rows(view, stmt: SelectStatement, bucket_level: bool,
               sample_level: bool = False):
    """Yield ``(row_dict, contribution)`` over a warehouse snapshot.

    *view* is ``Warehouse.snapshot`` output, so the scan order is
    deterministic.  *contribution* is ``(cols, i, resid_components)``
    for profile-level rows (the exact accumulation inputs),
    ``(bucket, count)`` for bucket-level rows, or the cell's sample
    count for sample-level rows.
    """
    for meta, seg in view:
        base = {"source": meta.source, "epoch": meta.epoch,
                "epoch_end": meta.epoch_end, "tier": meta.tier}
        if sample_level:
            for (state, layer, op, site), count in seg:
                row = dict(base, layer=layer, op=op, state=state,
                           wait_site=site, samples=count)
                if stmt.where is None or _eval(stmt.where, row):
                    yield row, count
            continue
        resid = dict(meta.resid)
        for i, operation in enumerate(seg.ops):
            row = dict(base, op=operation, layer=seg.layers[i])
            if not bucket_level:
                if stmt.where is None or _eval(stmt.where, row):
                    yield row, (seg, i, resid.get(operation))
                continue
            for j in range(seg.row_start[i], seg.row_start[i + 1]):
                brow = dict(row, bucket=seg.bucket_ids[j],
                            count=seg.bucket_counts[j])
                if stmt.where is None or _eval(stmt.where, brow):
                    yield brow, (seg.bucket_ids[j], seg.bucket_counts[j])


def _aggregate_value(item: SelectItem, group: _GroupState,
                     spec: BucketSpec, bucket_level: bool,
                     baselines: Dict[str, Dict], group_op: Optional[str]):
    name = item.name
    if name == "count":
        return group.nops
    if name == "total_latency":
        return group.est if bucket_level else math.fsum(group.partials)
    if name == "mean_latency":
        if group.nops == 0:
            return 0.0
        total = group.est if bucket_level else math.fsum(group.partials)
        return total / group.nops
    if name == "min_latency":
        return group.mn
    if name == "max_latency":
        return group.mx
    if name == "peak_bucket":
        return group.peak_bucket()
    if name.startswith("p") and item.baseline is None:
        b = group.percentile_bucket(item.q)
        return None if b is None else spec.mid(b)
    # Baseline-relative aggregates: compare against the named
    # baseline's profile for this group's operation.
    profiles = baselines[item.baseline]
    ref = profiles.get(group_op)
    if ref is None:
        return None
    if name == "emd":
        return earth_movers_distance(
            group_histogram(group.counts, spec), ref.histogram)
    b = group.percentile_bucket(item.q)
    if b is None:
        return None
    ref_state = _GroupState(())
    ref_state.counts = ref.histogram.counts()
    ref_state.nops = ref.histogram.total_ops
    rb = ref_state.percentile_bucket(item.q)
    if rb is None:
        return None
    return spec.mid(b) - spec.mid(rb)


def execute_sql(warehouse, query) -> QueryResult:
    """Run one query (text or parsed statement) against a warehouse.

    Scans one ``Warehouse.snapshot`` (latency segments come through
    the decoded-columns cache, so repeated analytics never re-decode):
    one committed state across all sources, even while compaction or
    gc runs on another thread.  The bucket spec comes from that view;
    aggregation runs outside the warehouse lock.  Raises
    :class:`QueryError` for malformed or statically invalid queries
    and ``WarehouseError`` for a missing baseline.
    """
    stmt = parse_sql(query) if isinstance(query, str) else query
    has_agg, bucket_level, sample_level = _validate(stmt)
    labels = [item.label for item in stmt.items]

    baselines: Dict[str, Dict] = {}
    for item in stmt.items + [it for it, _ in stmt.order_by]:
        if item.kind == "agg" and item.baseline is not None \
                and item.baseline not in baselines:
            pset = warehouse.load_baseline(item.baseline)
            baselines[item.baseline] = {p.operation: p for p in pset}

    view = warehouse.snapshot(kind="samples" if sample_level
                              else "profile")
    resolutions = set() if sample_level \
        else {cols.resolution for _, cols in view}
    if len(resolutions) > 1:
        raise QueryError("segments disagree on bucket resolution; query "
                         "them separately")
    spec = BucketSpec(*resolutions)
    grouped = has_agg or bool(stmt.group_by)
    if not grouped:
        rows = []
        sort_keys = []
        for row, _ in _scan_rows(view, stmt, bucket_level, sample_level):
            rows.append([row[item.name] for item in stmt.items])
            sort_keys.append([row[item.name]
                              for item, _ in stmt.order_by])
        if stmt.order_by:
            rows = _ordered(sort_keys, rows, stmt)
        if stmt.limit is not None:
            rows = rows[:stmt.limit]
        return QueryResult(columns=labels, rows=rows)

    groups: Dict[tuple, _GroupState] = {}
    if not stmt.group_by:
        # One implicit group, present even over an empty scan — so
        # SELECT count() on an empty warehouse answers 0, not nothing.
        groups[()] = _GroupState(())
    for row, contribution in _scan_rows(view, stmt, bucket_level,
                                        sample_level):
        key = tuple(row[d] for d in stmt.group_by)
        group = groups.get(key)
        if group is None:
            group = groups[key] = _GroupState(key)
        if sample_level:
            # count() over sample rows sums the samples column.
            group.nops += contribution
        elif bucket_level:
            bucket, count = contribution
            group.nops += count
            group.counts[bucket] = group.counts.get(bucket, 0) + count
            group.est += spec.mid(bucket) * count
        else:
            cols, i, components = contribution
            group.nops += cols.total_ops[i]
            _grow_expansion(group.partials, cols.enc_total[i])
            if components:
                for c in components:
                    _grow_expansion(group.partials, c)
            for j in range(cols.row_start[i], cols.row_start[i + 1]):
                b = cols.bucket_ids[j]
                group.counts[b] = group.counts.get(b, 0) \
                    + cols.bucket_counts[j]
            mn, mx = cols.mins[i], cols.maxs[i]
            if mn is not None and (group.mn is None or mn < group.mn):
                group.mn = mn
            if mx is not None and (group.mx is None or mx > group.mx):
                group.mx = mx

    def value_of(item: SelectItem, group: _GroupState):
        if item.kind == "dim":
            return group.key[stmt.group_by.index(item.name)]
        group_op = group.key[stmt.group_by.index("op")] \
            if "op" in stmt.group_by else None
        return _aggregate_value(item, group, spec, bucket_level,
                                baselines, group_op)

    ordered_keys = sorted(groups)
    rows = []
    sort_keys = []
    for key in ordered_keys:
        group = groups[key]
        rows.append([value_of(item, group) for item in stmt.items])
        sort_keys.append([value_of(item, group)
                          for item, _ in stmt.order_by])
    if stmt.order_by:
        rows = _ordered(sort_keys, rows, stmt)
    if stmt.limit is not None:
        rows = rows[:stmt.limit]
    return QueryResult(columns=labels, rows=rows)


def _ordered(sort_keys: List[List], rows: List[List],
             stmt: SelectStatement) -> List[List]:
    """Stable multi-key sort; None sorts last regardless of direction."""
    indexed = list(range(len(rows)))
    for pos in range(len(stmt.order_by) - 1, -1, -1):
        _, descending = stmt.order_by[pos]

        def keyfn(i, pos=pos, descending=descending):
            v = sort_keys[i][pos]
            return (v is None, v)

        none_last = sorted(
            (i for i in indexed if sort_keys[i][pos] is not None),
            key=keyfn, reverse=descending)
        nones = [i for i in indexed if sort_keys[i][pos] is None]
        indexed = none_last + nones
    return [rows[i] for i in indexed]
