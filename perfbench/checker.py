"""Independent answer checks for the benchmark.

Nothing here calls into ``ohg``: verdicts are compared with answers known
by construction, certificates are re-verified from the raw incidence
lists, and every answer is also compared with the digest recorded from
the seed commit, because CLI output and certificates must stay
byte-for-byte the same.  The checker runs outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import combinations

VERTEX, EDGE = "v", "e"


def digest(canonical) -> str:
    """Short stable hash of a JSON-able canonical answer."""
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


class Judge:
    """Decides pass or fail for each answer and keeps the failure tally.

    An answer fails when the query raised, when its digest differs from
    the recorded one, or when the deep checks find a problem.  Deep checks
    run once per distinct answer: a repeat of an answer already verified
    only needs its digest compared.
    """

    def __init__(self, recorded: dict[str, str]):
        self.recorded = recorded
        self.verified: dict[str, str] = {}
        self.problems: list[str] = []

    def judge(self, query, answer, error) -> bool:
        if error is not None:
            return self._fail(query.key, f"raised {type(error).__name__}: {error}")
        canon = query.canon(answer)
        got = digest(canon)
        want = self.recorded.get(query.key)
        if want is None:
            return self._fail(query.key, "no recorded digest")
        if got != want:
            return self._fail(query.key, f"digest {got} differs from recorded {want}")
        if self.verified.get(query.key) == got:
            return True
        found = query.check(answer)
        if found:
            return self._fail(query.key, "; ".join(found))
        self.verified[query.key] = got
        return True

    def _fail(self, key: str, why: str) -> bool:
        self.problems.append(f"{key}: {why}")
        return False


# ---------------------------------------------------------------------------
# Incidence structure helpers


class Structure:
    """Incidences of a hypergraph document, indexed by id."""

    def __init__(self, doc: dict):
        self.vertices = list(doc["vertices"])
        self.edges = list(doc["edges"])
        self.inc = {i["id"]: (i["vertex"], i["edge"], i["sign"])
                    for i in doc["incidences"]}

    def ends(self, inc_id: str):
        v, e, _ = self.inc[inc_id]
        return (VERTEX, v), (EDGE, e)

    def sign(self, inc_id: str) -> int:
        return self.inc[inc_id][2]


def walk_sign(signs: list[int]) -> int:
    """(-1)^floor(n/2) times the product of n incidence signs."""
    prod = 1
    for s in signs:
        prod *= s
    return (-1) ** (len(signs) // 2) * prod


def _forest(st: Structure):
    """BFS spanning forest of the bipartite form: parent links and depths."""
    adj: dict = {}
    for iid in st.inc:
        a, b = st.ends(iid)
        adj.setdefault(a, []).append((iid, b))
        adj.setdefault(b, []).append((iid, a))
    parent, depth = {}, {}
    for root in [(VERTEX, v) for v in st.vertices] + [(EDGE, e) for e in st.edges]:
        if root in depth:
            continue
        parent[root], depth[root] = None, 0
        queue, head = [root], 0
        while head < len(queue):
            node = queue[head]
            head += 1
            for iid, other in adj.get(node, ()):
                if other not in depth:
                    parent[other] = (iid, node)
                    depth[other] = depth[node] + 1
                    queue.append(other)
    return parent, depth


def _tree_path(parent, depth, a, b) -> list[str]:
    left, right = [], []
    while a != b:
        if depth[a] >= depth[b]:
            iid, a = parent[a]
            left.append(iid)
        else:
            iid, b = parent[b]
            right.append(iid)
    return left + right[::-1]


def balanced_if_balanceable(doc: dict) -> bool:
    """Balance of a document whose structure is known to be balanceable.

    For a balanceable structure the fundamental circles of any spanning
    forest decide balance, so one BFS forest suffices.
    """
    st = Structure(doc)
    parent, depth = _forest(st)
    tree = {step[0] for step in parent.values() if step is not None}
    for iid in st.inc:
        if iid in tree:
            continue
        a, b = st.ends(iid)
        path = _tree_path(parent, depth, a, b) + [iid]
        if walk_sign([st.sign(x) for x in path]) != 1:
            return False
    return True


def check_theta(doc: dict, cert: dict) -> list[str]:
    """Three paths between a vertex and an edge: real incidences, right
    endpoints, no repeats, pairwise disjoint interiors."""
    st = Structure(doc)
    problems = []
    if cert.get("kind") != "cross":
        problems.append(f"theta kind {cert.get('kind')!r}")
    ends = [tuple(x) for x in cert.get("endpoints", [])]
    if len(ends) != 2 or {ends[0][0], ends[1][0]} != {VERTEX, EDGE}:
        return problems + [f"theta endpoints {ends!r}"]
    a, b = ends
    paths = cert.get("paths", [])
    if len(paths) != 3:
        return problems + [f"{len(paths)} theta paths"]
    interiors = []
    for path in paths:
        node, nodes = a, [a]
        for iid in path:
            if iid not in st.inc:
                return problems + [f"theta path uses unknown incidence {iid!r}"]
            x, y = st.ends(iid)
            if node not in (x, y):
                return problems + [f"incidence {iid!r} does not touch {node!r}"]
            node = y if node == x else x
            nodes.append(node)
        if node != b:
            problems.append(f"theta path ends at {node!r}, not {b!r}")
        if len(set(nodes)) != len(nodes) or len(set(path)) != len(path):
            problems.append("theta path repeats a node or an incidence")
        interiors.append(set(nodes[1:-1]))
    for i, j in combinations(range(3), 2):
        if interiors[i] & interiors[j]:
            problems.append(f"theta paths {i} and {j} share interior nodes")
    return problems


def check_negative_circle(doc: dict, nodes, incidences, sign) -> list[str]:
    """A closed walk through distinct nodes and incidences with sign -1."""
    st = Structure(doc)
    if len(incidences) < 2 or len(nodes) != len(incidences):
        return [f"circle with {len(nodes)} nodes and {len(incidences)} incidences"]
    unknown = [i for i in incidences if i not in st.inc]
    if unknown:
        return [f"circle uses unknown incidence {unknown[0]!r}"]
    problems = check_circle(st, nodes, incidences, sign)
    if not problems and sign != -1:
        problems.append(f"certificate circle has sign {sign}, not -1")
    return problems


# ---------------------------------------------------------------------------
# CLI answers


def check_cli(command: str, doc: dict, truth: dict, rc: int, stdout: str,
              stderr: str, out_doc: dict | None) -> list[str]:
    """Check one CLI answer against the answers known by construction.

    ``truth`` holds ``balanced``, ``balanceable`` and, for inputs with a
    planted trap edge, ``trap_paths``.
    """
    balanced, balanceable = truth["balanced"], truth["balanceable"]
    if command == "frustration" and not balanceable:
        expected_rc = 2
    elif command == "info":
        expected_rc = 0
    elif command == "balance":
        expected_rc = 0 if balanced else 1
    else:
        expected_rc = 0 if balanceable else 1
    if rc != expected_rc:
        return [f"exit code {rc}, expected {expected_rc}"]
    if expected_rc == 2:
        try:
            err = json.loads(stderr)
        except ValueError:
            return ["stderr is not a JSON error"]
        if stdout or err.get("kind") != "input":
            return ["unbalanceable frustration did not report an input error"]
        return []
    try:
        payload = json.loads(stdout)
    except ValueError:
        return ["stdout is not JSON"]
    if payload.get("command") != command:
        return [f"payload command {payload.get('command')!r}"]
    check = _CLI_CHECKS[command]
    return check(doc, truth, payload, out_doc)


def _check_info(doc, truth, payload, out_doc):
    st = Structure(doc)
    sizes = {}
    for _, e, _ in st.inc.values():
        sizes[e] = sizes.get(e, 0) + 1
    want = {
        "vertices": len(st.vertices), "edges": len(st.edges),
        "incidences": len(st.inc), "components": 1,
        "cyclomatic_number": len(st.inc) - len(st.vertices) - len(st.edges) + 1,
        "two_uniform": all(sizes.get(e) == 2 for e in st.edges),
        "balanced": truth["balanced"], "balanceable": truth["balanceable"],
    }
    return [f"info {k} = {payload.get(k)!r}, expected {v!r}"
            for k, v in want.items() if payload.get(k) != v]


def _check_balanceable(doc, truth, payload, out_doc):
    if payload.get("balanceable") != truth["balanceable"]:
        return [f"balanceable = {payload.get('balanceable')!r}"]
    cert = payload.get("certificate")
    if truth["balanceable"]:
        return ["certificate on a balanceable input"] if cert else []
    if cert is None:
        return ["no theta certificate"]
    return check_theta(doc, cert)


def _check_balance(doc, truth, payload, out_doc):
    if payload.get("balanced") != truth["balanced"]:
        return [f"balanced = {payload.get('balanced')!r}"]
    cert = payload.get("certificate")
    if truth["balanced"]:
        return ["certificate on a balanced input"] if cert else []
    if cert is None:
        return ["no negative circle certificate"]
    return check_negative_circle(doc, cert["nodes"], cert["incidences"],
                                 cert["sign"])


def _check_camion(doc, truth, payload, out_doc):
    if out_doc is None:
        return ["camion wrote no output file"]
    st, out = Structure(doc), Structure(out_doc)
    if (out.vertices != st.vertices or out.edges != st.edges
            or {k: v[:2] for k, v in out.inc.items()}
            != {k: v[:2] for k, v in st.inc.items()}):
        return ["camion output changed more than incidence signs"]
    flipped = sorted(k for k in st.inc if st.sign(k) != out.sign(k))
    problems = []
    if payload.get("changed") != flipped:
        problems.append("reported changed set differs from the written file")
    if payload.get("balanced") != truth["balanceable"]:
        problems.append(f"camion balanced = {payload.get('balanced')!r}")
    if truth["balanceable"]:
        if not balanced_if_balanceable(out_doc):
            problems.append("camion output of a balanceable input is unbalanced")
    elif not all(p in out.inc for path in truth["trap_paths"] for p in path):
        # The planted theta always carries a negative circle, whatever the
        # signs, so an output that keeps it cannot be balanced.
        problems.append("camion output lost the planted theta")
    return problems


def _check_frustration(doc, truth, payload, out_doc):
    witness = payload.get("witness", [])
    st = Structure(doc)
    problems = []
    if payload.get("value") != len(witness):
        problems.append("frustration value differs from the witness size")
    if payload.get("exact") != (len(witness) == 0):
        problems.append("local search claimed exactness for a non-zero value")
    if not 0 < payload.get("evaluations", 0) <= payload.get("budget", 0):
        problems.append("evaluations outside the budget")
    if any(w not in st.inc for w in witness):
        return problems + ["witness names an unknown incidence"]
    flipped = json.loads(json.dumps(doc))
    for inc in flipped["incidences"]:
        if inc["id"] in witness:
            inc["sign"] = -inc["sign"]
    if not balanced_if_balanceable(flipped):
        problems.append("reversing the witness does not balance the input")
    return problems


_CLI_CHECKS = {
    "info": _check_info,
    "balanceable": _check_balanceable,
    "balance": _check_balance,
    "camion": _check_camion,
    "frustration": _check_frustration,
}


# ---------------------------------------------------------------------------
# Linear algebra and circuits


def columns(doc: dict, edges, p: int) -> list[list[int]]:
    """Vertex-by-edge incidence sums restricted to ``edges``, reduced mod p
    (p == 0 means the rationals)."""
    vindex = {v: r for r, v in enumerate(doc["vertices"])}
    eindex = {e: c for c, e in enumerate(edges)}
    rows = [[0] * len(eindex) for _ in vindex]
    for inc in doc["incidences"]:
        c = eindex.get(inc["edge"])
        if c is not None:
            rows[vindex[inc["vertex"]]][c] += inc["sign"]
    if p:
        rows = [[x % p for x in row] for row in rows]
    return rows


def rank(rows: list[list[int]], p: int) -> int:
    """Rank by Gaussian elimination over Q (p == 0) or GF(p)."""
    m = [[Fraction(x) if p == 0 else x % p for x in row] for row in rows]
    ncols = len(m[0]) if m else 0
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c] if p == 0 else pow(m[r][c], -1, p)
        for i in range(r + 1, len(m)):
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [a - f * b if p == 0 else (a - f * b) % p
                        for a, b in zip(m[i], m[r])]
        r += 1
    return r


def field_char(label: str) -> int:
    return 0 if label == "Q" else int(label[3:-1])


def check_circuit(doc: dict, edges, label: str, witness) -> list[str]:
    """A circuit: nullity exactly one, every one-smaller subset independent,
    and a full-support witness the column submatrix sends to zero."""
    p = field_char(label)
    edges = list(edges)
    cols = columns(doc, edges, p)
    if rank(cols, p) != len(edges) - 1:
        return [f"{edges} is not a minimal dependency over {label}"]
    for drop in range(len(edges)):
        smaller = [[x for c, x in enumerate(row) if c != drop] for row in cols]
        if rank(smaller, p) != len(edges) - 1:
            return [f"{edges} has a dependent proper subset over {label}"]
    if witness is None or len(witness) != len(edges):
        return [f"{edges} has no witness of the right length"]
    vec = [Fraction(x) for x in witness]
    if any(x == 0 or (p and x % p == 0) for x in vec):
        return [f"witness of {edges} lacks full support"]
    for row in cols:
        total = sum(a * b for a, b in zip(row, vec))
        if (total % p if p else total) != 0:
            return [f"witness of {edges} is not in the nullspace over {label}"]
    return []


def check_circuit_list(doc: dict, label: str, reports, max_size) -> list[str]:
    """Every report is a verified circuit, sizes ascend, none contains another."""
    problems = []
    sets = [frozenset(edges) for edges, _ in reports]
    sizes = [len(s) for s in sets]
    if sizes != sorted(sizes):
        problems.append("circuits are not in ascending size order")
    if max_size is not None and sizes and sizes[-1] > max_size:
        problems.append("a circuit exceeds max_size")
    if len(set(sets)) != len(sets):
        problems.append("a circuit is listed twice")
    for i, small in enumerate(sets):
        if any(small < big for big in sets[i + 1:]):
            problems.append(f"circuit {sorted(small)} lies inside another")
            break
    for edges, witness in reports:
        found = check_circuit(doc, edges, label, witness)
        if found:
            problems.extend(found)
            break
    return problems


# ---------------------------------------------------------------------------
# Signed-graph census


def circle_subsets(edges, subset) -> bool:
    """Whether the chosen edges form one circle: connected, all degrees 2."""
    deg: dict[int, int] = {}
    for k in subset:
        u, v = edges[k]
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    return (len(deg) == len(subset) and all(d == 2 for d in deg.values())
            and subset_connected(edges, subset))


def subset_connected(edges, subset) -> bool:
    verts = {w for k in subset for w in edges[k]}
    seen = {edges[subset[0]][0]}
    grew = True
    while grew:
        grew = False
        for k in subset:
            u, v = edges[k]
            if (u in seen) != (v in seen):
                seen.update((u, v))
                grew = True
    return seen == verts


def zaslavsky_circuits(edges, eps) -> set[frozenset[int]]:
    """Circuits of the signed-graphic frame matroid (Zaslavsky 1982).

    They are the positive circles and the bicycles without a positive
    circle: a connected subgraph of minimum degree two with one more edge
    than vertices whose circles are all negative (a handcuff; a theta
    always holds a positive circle).
    """
    m = len(edges)
    circles = {}
    for r in range(1, m + 1):
        for sub in combinations(range(m), r):
            if circle_subsets(edges, sub):
                sign = 1
                for k in sub:
                    sign *= eps[k]
                circles[frozenset(sub)] = sign
    out = {c for c, s in circles.items() if s == 1}
    for r in range(2, m + 1):
        for sub in combinations(range(m), r):
            deg: dict[int, int] = {}
            for k in sub:
                for w in edges[k]:
                    deg[w] = deg.get(w, 0) + 1
            if (len(sub) != len(deg) + 1 or min(deg.values()) < 2
                    or not subset_connected(edges, sub)):
                continue
            inside = [s for c, s in circles.items() if c <= set(sub)]
            if inside and all(s == -1 for s in inside):
                out.add(frozenset(sub))
    return out


def check_census(inst, circuits, circles, verdicts) -> list[str]:
    """One census instance: circuits against Zaslavsky's description and
    their witnesses against the matrix, circles against the circle
    subsets with recomputed signs, and each shunting verdict against the
    circuit set (criterion 7: a connected subset that is not a positive
    circle is a circuit exactly when a shunting decomposition exists)."""
    edges, eps, doc = inst.edges, inst.eps, inst.doc
    problems = []
    want = zaslavsky_circuits(edges, eps)
    got = {frozenset(int(e[1:]) for e in names) for names, _ in circuits}
    if got != want:
        problems.append(f"circuit set differs from Zaslavsky's: {len(got)} vs {len(want)}")
    for names, witness in circuits:
        found = check_circuit(doc, names, "Q", witness)
        if found:
            problems.extend(found)
            break
    st = Structure(doc)
    own = {frozenset(sub) for r in range(1, len(edges) + 1)
           for sub in combinations(range(len(edges)), r)
           if circle_subsets(edges, sub)}
    seen = set()
    for nodes, incs, sign in circles:
        found = check_circle(st, nodes, incs, sign)
        if found:
            problems.extend(found)
            break
        seen.add(frozenset(int(st.inc[i][1][1:]) for i in incs))
    if seen != own or len(circles) != len(own):
        problems.append(f"{len(circles)} circles listed, {len(own)} expected")
    for subset, verdict in verdicts.items():
        if verdict != (frozenset(subset) in want):
            problems.append(f"shunting verdict {verdict} on {subset} contradicts the circuit set")
            break
    return problems


def check_circle(st: Structure, nodes, incs, sign) -> list[str]:
    """A closed walk through distinct nodes and incidences, with its sign."""
    n = len(incs)
    for k, iid in enumerate(incs):
        if set(st.ends(iid)) != {tuple(nodes[k]), tuple(nodes[(k + 1) % n])}:
            return [f"circle incidence {iid!r} does not join its neighbours"]
    if len(set(map(tuple, nodes))) != n or len(set(incs)) != n:
        return ["circle repeats a node or an incidence"]
    own = walk_sign([st.sign(i) for i in incs])
    if own != sign:
        return [f"circle sign {sign}, recomputed {own}"]
    return []
