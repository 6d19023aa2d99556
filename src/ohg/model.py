"""Core oriented-hypergraph model.

An oriented hypergraph is a finite incidence structure: vertices, edges,
and a list of incidences, each incidence tying one vertex to one edge and
carrying a sign (+1 entering, -1 exiting).  Parallel incidences between the
same vertex/edge pair are allowed and are how entries of magnitude >= 2
arise in the incidence matrix.

The node-keyed ``gamma_adjacency`` of the bipartite representation lives
here only as the reference order of ``gamma.sorted_adjacency``; spanning
forests, blocks, flows, components and the cyclomatic number, on the one
integer index and the one union-find (``DisjointSets``), live in
``gamma``, and the one walk-sign rule (``walk_sign``) lives in ``balance``.

Validation happens where data enters, by one checker, ``_check_rows``:
the ``OrientedHypergraph`` constructor (and so ``build``) and ``parse``
(and so ``load`` and the CLI) call it on the ids, references and signs.
It walks the entries once, in order, and names the first fault, with its
source line when it has the text; ``parse`` checks the JSON shape first
and then builds without validating again.  Views derived
from a valid hypergraph (``edge_induced``, ``weak_delete``, ``with_signs``,
``reverse_incidences``, ``contract_degree2_vertex`` and the block views of
``balance``) check only the arguments they are given, such as unknown ids
or new sign values, and are then built without re-validating what they
keep.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, starmap
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import InputError, ResourceError
from .linalg import Domain


@dataclass(frozen=True)
class Incidence:
    id: str
    vertex: str
    edge: str
    sign: int

    @classmethod
    def _trusted(cls, id: str, vertex: str, edge: str, sign: int) -> Incidence:
        """Construct without the frozen dataclass's four guarded setattrs.

        Only for fields that library code has already checked, as ``parse``
        and ``OrientedHypergraph.with_signs`` have.
        """
        inc = object.__new__(cls)
        fields = inc.__dict__
        fields["id"] = id
        fields["vertex"] = vertex
        fields["edge"] = edge
        fields["sign"] = sign
        return inc


@dataclass(frozen=True)
class OrientedHypergraph:
    """Immutable oriented hypergraph with ordered vertex/edge/incidence lists."""

    vertices: tuple[str, ...]
    edges: tuple[str, ...]
    incidences: tuple[Incidence, ...]

    def __post_init__(self):
        _check_rows(self.vertices, self.edges,
                    list(map(_incidence_row, self.incidences)))

    @classmethod
    def build(cls, vertices: Iterable[str], edges: Iterable[str],
              incidences: Iterable) -> OrientedHypergraph:
        """Construct from plain ids and (id, vertex, edge, sign) tuples."""
        incs = tuple(i if isinstance(i, Incidence) else Incidence(*i)
                     for i in incidences)
        return cls(tuple(vertices), tuple(edges), incs)

    @classmethod
    def _trusted(cls, vertices: tuple[str, ...], edges: tuple[str, ...],
                 incidences: tuple[Incidence, ...]) -> OrientedHypergraph:
        """Construct without validation.

        Only for views that library code derives from a valid hypergraph:
        they keep a subset of its ids, in its order, with every incidence's
        vertex and edge kept too.  Outside data goes through ``build``,
        ``parse`` or the constructor, which validate.
        """
        g = object.__new__(cls)
        g.__dict__.update(vertices=vertices, edges=edges, incidences=incidences)
        return g

    @cached_property
    def _incidence_by_id(self) -> dict[str, Incidence]:
        # Built on first lookup; a frozen dataclass without slots keeps it
        # in the instance dict, outside the compared and hashed fields.
        return {inc.id: inc for inc in self.incidences}

    def incidence(self, incidence_id: str) -> Incidence:
        try:
            return self._incidence_by_id[incidence_id]
        except (KeyError, TypeError):
            raise InputError(f"unknown incidence id {incidence_id!r}") from None

    def incidences_at(self, vertex: str) -> tuple[Incidence, ...]:
        return tuple(i for i in self.incidences if i.vertex == vertex)

    def incidences_of(self, edge: str) -> tuple[Incidence, ...]:
        return tuple(i for i in self.incidences if i.edge == edge)

    def degree(self, vertex: str) -> int:
        return len(self.incidences_at(vertex))

    def edge_size(self, edge: str) -> int:
        return len(self.incidences_of(edge))

    def sign_of(self, incidence_id: str) -> int:
        return self.incidence(incidence_id).sign

    def with_signs(self, new_signs: Mapping[str, int]) -> OrientedHypergraph:
        """Copy with the listed incidence signs replaced; each new sign
        must be 1 or -1."""
        unknown = set(new_signs) - {i.id for i in self.incidences}
        if unknown:
            raise InputError(f"unknown incidence ids {sorted(unknown)}")
        incs = []
        for i in self.incidences:
            sign = new_signs.get(i.id, i.sign)
            if isinstance(sign, bool) or sign not in (1, -1):
                raise InputError(f"incidence {i.id!r} has sign {sign!r}, "
                                 "expected 1 or -1")
            incs.append(Incidence._trusted(i.id, i.vertex, i.edge, sign))
        return OrientedHypergraph._trusted(self.vertices, self.edges, tuple(incs))

    def is_two_uniform(self) -> bool:
        """True when every edge has exactly two incidences (signed graph).

        Counts in one pass: each ``edge_size`` call scans every incidence.
        """
        size = dict.fromkeys(self.edges, 0)
        for inc in self.incidences:
            size[inc.edge] += 1
        return all(n == 2 for n in size.values())


def reverse_incidences(g: OrientedHypergraph,
                       incidence_ids: Iterable[str]) -> OrientedHypergraph:
    """Flip the sign of each listed incidence."""
    ids = set(incidence_ids)
    unknown = ids - {i.id for i in g.incidences}
    if unknown:
        raise InputError(f"unknown incidence ids {sorted(unknown)}")
    return g.with_signs({i.id: -i.sign for i in g.incidences if i.id in ids})


# ---------------------------------------------------------------------------
# Validation


_incidence_row = attrgetter("id", "vertex", "edge", "sign")


def _check_rows(vertices: Sequence, edges: Sequence,
                rows: Sequence[tuple], text: str = "") -> None:
    """Raise InputError unless every vertex, edge and incidence id is a
    distinct string, each (id, vertex, edge, sign) row references a listed
    vertex and edge, and every sign is 1 or -1 (not a bool).

    The one set of validation rules, for the constructor and ``parse``, in
    one walk over the vertex ids, the edge ids and then the rows, in order.
    Each value's type is checked before it is put in a set, so no value
    that cannot be hashed reaches one.  The first fault is named, with its
    line in ``text`` when the source text is given.  A float sign equal to
    1 or -1 passes.
    """
    vset, eset = set(), set()
    for kind, names, seen in (("vertex", vertices, vset),
                              ("edge", edges, eset)):
        for name in names:
            if not isinstance(name, str):
                raise InputError(f"{kind} id {name!r} must be a string")
            if name in seen:
                raise InputError(
                    f"duplicate {kind} id {name!r}{_located(text, name, 2)}")
            seen.add(name)
    seen = set()
    for iid, vertex, edge, sign in rows:
        if not isinstance(iid, str):
            raise InputError(f"incidence id {iid!r} must be a string")
        if iid in seen:
            raise InputError(
                f"duplicate incidence id {iid!r}{_located(text, iid, 2)}")
        seen.add(iid)
        if not isinstance(vertex, str) or vertex not in vset:
            raise InputError(f"incidence {iid!r} references unknown vertex "
                             f"{vertex!r}{_located(text, iid)}")
        if not isinstance(edge, str) or edge not in eset:
            raise InputError(f"incidence {iid!r} references unknown edge "
                             f"{edge!r}{_located(text, iid)}")
        if isinstance(sign, bool) or sign not in (1, -1):
            raise InputError(f"incidence {iid!r} has sign {sign!r}, "
                             f"expected 1 or -1{_located(text, iid)}")


def _line_of(text: str, token: str, occurrence: int = 1) -> int | None:
    """1-based line of the n-th occurrence of a token in the source text."""
    pos = -1
    for _ in range(occurrence):
        pos = text.find(token, pos + 1)
        if pos < 0:
            return None
    return text.count("\n", 0, pos) + 1


def _located(text: str, token_value, occurrence: int = 1) -> str:
    line = _line_of(text, json.dumps(token_value), occurrence)
    return f" (line {line})" if line is not None else ""


# ---------------------------------------------------------------------------
# JSON serialization


_INCIDENCE_FIELDS = frozenset(("id", "vertex", "edge", "sign"))
_entry_row = itemgetter("id", "vertex", "edge", "sign")


def parse(text: str) -> OrientedHypergraph:
    """Parse the JSON interchange form.

    Expected shape: {"vertices": [...], "edges": [...], "incidences":
    [{"id","vertex","edge","sign"}, ...]} with signs in {1, -1}.  The shape
    is checked here, every entry's over the whole list first; ids,
    references and signs by ``_check_rows``, as the constructor checks
    them.  Errors name the offending id and its line in the source text.
    """
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as err:
        # ValueError covers bad syntax and integers past Python's digit
        # limit; RecursionError, nesting past the recursion limit.
        raise InputError(f"malformed JSON: {err}") from None
    if not isinstance(data, dict):
        raise InputError("top level must be a JSON object")
    extra = set(data) - {"vertices", "edges", "incidences"}
    if extra:
        raise InputError(f"unexpected top-level keys {sorted(extra)}")
    for key in ("vertices", "edges", "incidences"):
        if key not in data:
            raise InputError(f"missing top-level key {key!r}")
        if not isinstance(data[key], list):
            raise InputError(f"{key!r} must be a list")
    vertices, edges, entries = data["vertices"], data["edges"], data["incidences"]
    rows = None
    if (set(map(type, entries)) <= {dict}
            and set(map(len, entries)) <= {len(_INCIDENCE_FIELDS)}):
        try:
            rows = list(map(_entry_row, entries))  # four keys, all fields
        except KeyError:
            pass
    if rows is None:  # some entry is at fault: name the first
        for raw in entries:
            if not isinstance(raw, dict):
                raise InputError(f"incidence entry {raw!r} must be an object")
            if raw.keys() != _INCIDENCE_FIELDS:
                raise InputError("incidence entry must have exactly "
                                 f"id/vertex/edge/sign, got {sorted(raw)}")
    _check_rows(vertices, edges, rows, text)
    return OrientedHypergraph._trusted(
        tuple(vertices), tuple(edges), tuple(starmap(Incidence._trusted, rows)))


def serialize(g: OrientedHypergraph) -> str:
    """Emit the JSON interchange form; parse(serialize(g)) == g exactly.

    The text of ``json.dumps(doc, indent=2)`` and a newline, joined from one
    quoted string per id: ``indent`` would force the pure-Python encoder.
    A sign that is not an int (1.0 parses as one) goes through ``json.dumps``.
    """
    def items(lines: list[str]) -> str:
        return "[\n" + ",\n".join(lines) + "\n  ]" if lines else "[]"

    q = _quote
    vertices = items([f"    {q(v)}" for v in g.vertices])
    edges = items([f"    {q(e)}" for e in g.edges])
    incidences = items([
        f'    {{\n      "id": {q(i.id)},\n      "vertex": {q(i.vertex)},\n'
        f'      "edge": {q(i.edge)},\n      "sign": '
        f'{i.sign if type(i.sign) is int else json.dumps(i.sign)}\n    }}'
        for i in g.incidences])
    return (f'{{\n  "vertices": {vertices},\n  "edges": {edges},\n'
            f'  "incidences": {incidences}\n}}\n')


def load(path) -> OrientedHypergraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def dump(g: OrientedHypergraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(g))


# ---------------------------------------------------------------------------
# Bipartite representation


VERTEX, EDGE = "v", "e"


def gamma_nodes(g: OrientedHypergraph) -> list[tuple[str, str]]:
    """Nodes of the bipartite representation: tagged vertices then edges."""
    return [(VERTEX, v) for v in g.vertices] + [(EDGE, e) for e in g.edges]


def gamma_adjacency(g: OrientedHypergraph):
    """Adjacency of the bipartite representation.

    Maps each tagged node to the ordered list of (incidence id, other node);
    one entry per incidence, so parallel incidences give parallel links.
    """
    adj = {node: [] for node in gamma_nodes(g)}
    for inc in g.incidences:
        vnode, enode = (VERTEX, inc.vertex), (EDGE, inc.edge)
        adj[vnode].append((inc.id, enode))
        adj[enode].append((inc.id, vnode))
    return adj


# ---------------------------------------------------------------------------
# Operations


def dual(g: OrientedHypergraph) -> OrientedHypergraph:
    """Swap vertex and edge roles; incidence ids and signs are kept."""
    return OrientedHypergraph.build(
        g.edges, g.vertices,
        [(i.id, i.edge, i.vertex, i.sign) for i in g.incidences])


@dataclass
class SwitchingFunction:
    """Signs attached to every vertex and every edge."""

    vertices: dict[str, int]
    edges: dict[str, int]

    @classmethod
    def flipping(cls, g: OrientedHypergraph, vertices: Iterable[str] = (),
                 edges: Iterable[str] = ()) -> SwitchingFunction:
        """Total function that is -1 on the listed elements and +1 elsewhere."""
        vflip, eflip = set(vertices), set(edges)
        unknown = (vflip - set(g.vertices)) | (eflip - set(g.edges))
        if unknown:
            raise InputError(f"unknown ids {sorted(unknown)}")
        return cls({v: -1 if v in vflip else 1 for v in g.vertices},
                   {e: -1 if e in eflip else 1 for e in g.edges})


def switch(g: OrientedHypergraph, sf: SwitchingFunction) -> OrientedHypergraph:
    """Reorient by a switching function: sign' = sf(vertex) * sign * sf(edge)."""
    for v in g.vertices:
        if sf.vertices.get(v) not in (1, -1):
            raise InputError(f"switching function missing vertex {v!r}")
    for e in g.edges:
        if sf.edges.get(e) not in (1, -1):
            raise InputError(f"switching function missing edge {e!r}")
    return g.with_signs({
        i.id: sf.vertices[i.vertex] * i.sign * sf.edges[i.edge]
        for i in g.incidences})


def _fresh(base: str, taken) -> str:
    if base not in taken:
        return base
    n = 2
    while f"{base}#{n}" in taken:
        n += 1
    return f"{base}#{n}"


@dataclass(frozen=True)
class SubdivisionResult:
    hypergraph: OrientedHypergraph
    compatible: bool
    new_vertex: str
    new_edges: tuple[str, str]
    new_incidences: tuple[str, str]


def subdivide(g: OrientedHypergraph, edge: str,
              split: tuple[Iterable[str], Iterable[str]],
              j1_sign: int, j2_sign: int) -> SubdivisionResult:
    """Split an edge in two across a new internal vertex.

    The two split cells partition the edge's incidences between the halves;
    two fresh incidences join each half to the new vertex.  The subdivision
    is compatible exactly when the fresh signs multiply to -1.
    """
    if edge not in g.edges:
        raise InputError(f"unknown edge {edge!r}")
    if j1_sign not in (1, -1) or j2_sign not in (1, -1):
        raise InputError("subdivision signs must be 1 or -1")
    cell1, cell2 = set(split[0]), set(split[1])
    own = {i.id for i in g.incidences_of(edge)}
    if not cell1 or not cell2:
        raise InputError("subdivision split has an empty cell")
    if cell1 & cell2:
        raise InputError(f"split cells overlap on {sorted(cell1 & cell2)}")
    if cell1 | cell2 != own:
        raise InputError(
            f"split does not partition the incidences of {edge!r}")

    taken_edges = set(g.edges)
    e1 = _fresh(f"{edge}·1", taken_edges)
    e2 = _fresh(f"{edge}·2", taken_edges | {e1})
    w = _fresh(f"w({edge})", set(g.vertices))
    taken_incs = {i.id for i in g.incidences}
    j1 = _fresh(f"j1({edge})", taken_incs)
    j2 = _fresh(f"j2({edge})", taken_incs | {j1})

    pos = g.edges.index(edge)
    edges = g.edges[:pos] + (e1, e2) + g.edges[pos + 1:]
    incs = []
    for i in g.incidences:
        if i.edge == edge:
            half = e1 if i.id in cell1 else e2
            incs.append(Incidence(i.id, i.vertex, half, i.sign))
        else:
            incs.append(i)
    incs.append(Incidence(j1, w, e1, j1_sign))
    incs.append(Incidence(j2, w, e2, j2_sign))
    out = OrientedHypergraph(g.vertices + (w,), edges, tuple(incs))
    return SubdivisionResult(out, j1_sign * j2_sign == -1, w, (e1, e2), (j1, j2))


def contract_degree2_vertex(g: OrientedHypergraph, w: str) -> OrientedHypergraph:
    """Merge the two edges meeting at a degree-2 vertex, deleting the vertex.

    When the incidence signs at the vertex multiply to +1 the later edge is
    switched first, so circle signs are preserved either way; composing with
    a compatible subdivision restores the original hypergraph exactly.
    """
    if w not in g.vertices:
        raise InputError(f"unknown vertex {w!r}")
    at = g.incidences_at(w)
    if len(at) != 2:
        raise InputError(f"vertex {w!r} has degree {len(at)}, expected 2")
    i1, i2 = at
    if i1.edge == i2.edge:
        raise InputError(
            f"both incidences at {w!r} lie in edge {i1.edge!r}; not contractible")
    if i1.sign * i2.sign == 1:
        g = switch(g, SwitchingFunction.flipping(g, edges=[i2.edge]))
        i1, i2 = g.incidences_at(w)

    e1, e2 = i1.edge, i2.edge
    p1, p2 = g.edges.index(e1), g.edges.index(e2)
    stem = None
    for a, b in ((e1, e2), (e2, e1)):
        if a.endswith("·1") and b.endswith("·2") and a[:-2] == b[:-2]:
            stem = a[:-2]
    if stem is None or stem in set(g.edges) - {e1, e2}:
        merged = g.edges[min(p1, p2)]
    else:
        merged = stem

    edges = tuple(merged if e == g.edges[min(p1, p2)] else e
                  for e in g.edges if e != g.edges[max(p1, p2)])
    incs = tuple(
        Incidence(i.id, i.vertex, merged if i.edge in (e1, e2) else i.edge, i.sign)
        for i in g.incidences if i.id not in (i1.id, i2.id))
    vertices = tuple(v for v in g.vertices if v != w)
    return OrientedHypergraph._trusted(vertices, edges, incs)


def edge_induced(g: OrientedHypergraph, edges: Iterable[str],
                 keep_vertices: Iterable[str] = ()) -> OrientedHypergraph:
    """Subhypergraph on the listed edges, their vertices, and any extras."""
    keep_e = set(edges)
    unknown = keep_e - set(g.edges)
    if unknown:
        raise InputError(f"unknown edge ids {sorted(unknown)}")
    keep_v = set(keep_vertices)
    unknown = keep_v - set(g.vertices)
    if unknown:
        raise InputError(f"unknown vertex ids {sorted(unknown)}")
    incs = tuple(i for i in g.incidences if i.edge in keep_e)
    keep_v.update(i.vertex for i in incs)
    return OrientedHypergraph._trusted(
        tuple(v for v in g.vertices if v in keep_v),
        tuple(e for e in g.edges if e in keep_e), incs)


def weak_delete(g: OrientedHypergraph, vertices: Iterable[str] = (),
                edges: Iterable[str] = ()) -> OrientedHypergraph:
    """Remove the listed elements and their incidences, keeping the rest.

    Edges losing vertices keep their identity (possibly with fewer
    incidences); vertices losing all edges stay as isolated vertices.
    """
    del_v, del_e = set(vertices), set(edges)
    unknown = (del_v - set(g.vertices)) | (del_e - set(g.edges))
    if unknown:
        raise InputError(f"unknown ids {sorted(unknown)}")
    return OrientedHypergraph._trusted(
        tuple(v for v in g.vertices if v not in del_v),
        tuple(e for e in g.edges if e not in del_e),
        tuple(i for i in g.incidences
              if i.vertex not in del_v and i.edge not in del_e))


# ---------------------------------------------------------------------------
# Subset search


def minimal_subsets(items: Sequence, accept: Callable[[tuple], bool],
                    sizes: range, visit=None) -> Iterator[tuple]:
    """Accepted subsets that contain no subset yielded before them.

    ``sizes`` is one ascending run ``range(a, b)``.  Candidates come size
    by size, each size in ``itertools.combinations`` order over ``items``;
    ``visit`` sees every candidate before the containment check.  With an
    ``accept`` closed under supersets, the yield is exactly the minimal
    accepted subsets, in ascending order.

    A candidate of size k > a contains an earlier yield exactly when one
    of its k one-smaller subsets was yielded or pruned itself, so the
    check is k lookups among the previous size's bitmasks that were
    neither; only that size's masks are kept.
    """
    if not isinstance(sizes, range) or sizes.step != 1:
        raise ValueError("sizes must be a range of consecutive sizes")
    bits = [1 << i for i in range(len(items))]
    alive = None  # previous size's masks neither yielded nor pruned
    for size in sizes:
        survivors = set()
        for combo, combo_bits in zip(combinations(items, size),
                                     combinations(bits, size)):
            if visit is not None:
                visit(combo)
            mask = sum(combo_bits)
            if alive is not None and not alive.issuperset(
                    [mask - b for b in combo_bits]):
                continue
            if accept(combo):
                yield combo
            else:
                survivors.add(mask)
        alive = survivors


# ---------------------------------------------------------------------------
# Generators


def make_Lk(k: int, entrant: int) -> OrientedHypergraph:
    """One vertex, one edge, k parallel incidences, the first `entrant` of
    them entering (+1) and the rest exiting (-1)."""
    if k < 1:
        raise InputError("k must be at least 1")
    if not 0 <= entrant <= k:
        raise InputError("entrant count must lie between 0 and k")
    incs = [(f"i{n}", "v1", "e1", 1 if n <= entrant else -1)
            for n in range(1, k + 1)]
    return OrientedHypergraph.build(("v1",), ("e1",), incs)


def make_complete_hypergraph(n: int, sign: int = 1) -> OrientedHypergraph:
    """One edge per nonempty vertex subset, ordered by (size, index order);
    every incidence carries the given sign."""
    if n < 1:
        raise InputError("n must be at least 1")
    if sign not in (1, -1):
        raise InputError("sign must be 1 or -1")
    vertices = tuple(f"v{i}" for i in range(1, n + 1))
    edges, incs = [], []
    e_count = i_count = 0
    for size in range(1, n + 1):
        for combo in combinations(range(1, n + 1), size):
            e_count += 1
            eid = f"e{e_count}"
            edges.append(eid)
            for vi in combo:
                i_count += 1
                incs.append((f"i{i_count}", f"v{vi}", eid, sign))
    return OrientedHypergraph.build(vertices, tuple(edges), incs)


# ---------------------------------------------------------------------------
# Exports


@dataclass(frozen=True)
class IncidenceMatrix:
    """Vertex-by-edge matrix of signed incidence sums in a fixed domain."""

    rows: tuple[str, ...]
    cols: tuple[str, ...]
    entries: tuple[tuple[int, ...], ...]
    domain: Domain


def incidence_matrix(g: OrientedHypergraph, domain=None) -> IncidenceMatrix:
    """The (vertex, edge) entry is the sum of signs of their incidences,
    reduced into the requested domain (rationals by default)."""
    dom = Domain.coerce(domain)
    vidx = {v: i for i, v in enumerate(g.vertices)}
    eidx = {e: j for j, e in enumerate(g.edges)}
    grid = [[0] * len(g.edges) for _ in g.vertices]
    for inc in g.incidences:
        grid[vidx[inc.vertex]][eidx[inc.edge]] += inc.sign
    entries = tuple(tuple(dom.reduce(x) for x in row) for row in grid)
    return IncidenceMatrix(g.vertices, g.edges, entries, dom)


def matrix_csv(g: OrientedHypergraph, domain=None) -> str:
    """CSV rendering: header row of edge ids, one row per vertex."""
    import csv
    import io

    mat = incidence_matrix(g, domain)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([""] + list(mat.cols))
    for v, row in zip(mat.rows, mat.entries):
        writer.writerow([v] + list(row))
    return buf.getvalue()


def to_dot(g: OrientedHypergraph) -> str:
    """DOT rendering of the bipartite representation.

    Vertices are circles, edges are boxes; solid links are +1 incidences,
    dashed links -1, each labeled by its incidence id.
    """
    lines = ["graph gamma {"]
    for v in g.vertices:
        lines.append(f'  "v:{v}" [shape=circle, label={json.dumps(v)}];')
    for e in g.edges:
        lines.append(f'  "e:{e}" [shape=box, label={json.dumps(e)}];')
    for i in g.incidences:
        style = "" if i.sign == 1 else ", style=dashed"
        lines.append(
            f'  "v:{i.vertex}" -- "e:{i.edge}" [label={json.dumps(i.id)}{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
