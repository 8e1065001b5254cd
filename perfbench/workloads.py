"""The four benchmark workloads.

Each workload has a set-up, which builds the fields it needs and produces
its instances, and a per-instance step, which makes the workload's calls
into ``gf``, ``linalg``, ``graph`` and ``predict`` and checks every result.
The layers are driven directly, as the suites drive them, and never
through ``suites.instance_omega``: its cache would hide repeated work.

A check that fails is returned as a problem string; the instance then
counts as failed.  Probe calls (the greedy seed outside the solve, and a
``U.contains(v*v)`` probe over every vertex) run only when tracing, in
spans of their own after the instance span has closed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from paleyvec.errors import CapExceeded
from paleyvec.gf import build_field
from paleyvec.graph import (
    build_graph,
    clique_number_exact,
    decompose_clique,
    enumerate_maximal_cliques,
    greedy_seed_clique,
)
from paleyvec.linalg import (
    D_invariant,
    all_hyperplanes,
    all_subspaces,
    contains_nonzero_square,
    s_invariant,
    trace_zero_hyperplane,
)
from paleyvec.predict import bounds_report, hyperplane_omega, predict_omega

# guard against a hung solve; the slowest instance here takes about 2 s
SOLVE_TIME_LIMIT = 60.0
# maximal cliques decomposed per instance, the same cap as the main1 suite
CLIQUE_CAP = 4000

# Instance sets, as (p, m, n) with q = p^m.  "tiny" is the self-test size.
SIZES = {
    "full": {
        # the prop-basic grid: every (q, n) with q in {2, 3, 4, 5} and q^n <= 1024
        "lowdim_fields": [
            (2, 1, 2), (2, 1, 3), (2, 1, 4), (3, 1, 2), (3, 1, 3), (3, 1, 4),
            (2, 2, 2), (2, 2, 3), (2, 2, 4), (5, 1, 2), (5, 1, 3), (5, 1, 4),
        ],
        # fields whose dimension-2 subspaces are left out: the 806 of 5^1^4
        # take 11 s, too long to repeat a round several times in a run
        "lowdim_dim1_only": [(5, 1, 4)],
        # (field, how many hyperplanes, taken in all_hyperplanes order); with
        # the two sign-class picks, the median instance is a fixed 2^3^4 one
        "hard_hyperplanes": [((2, 1, 9), 1), ((5, 1, 5), 1), ((2, 3, 4), 3)],
        # one seed-chosen hyperplane from each sign class of this field
        "sign_class_field": (7, 1, 4),
        "structure_fields": [(2, 1, 5), (3, 1, 3), (2, 2, 3), (5, 1, 2), (7, 1, 2)],
        # seed-chosen subspaces of this field, so many per (dim, omega) stratum
        "sample_field": (3, 1, 4),
        "per_stratum": 2,
        # 2^1^12 stands in for 2^1^16, whose 47 s build is too slow to repeat;
        # 2^1^13 and 3^1^8 made a round too long to repeat often enough for
        # steady figures on a machine whose speed drifts
        "ladder_fields": [(2, 1, 12), (2, 2, 6), (3, 2, 4), (5, 1, 5), (7, 1, 4)],
    },
    "tiny": {
        "lowdim_fields": [(2, 1, 3), (3, 1, 3)],
        "lowdim_dim1_only": [(3, 1, 3)],
        "hard_hyperplanes": [((2, 1, 5), 1)],
        "sign_class_field": (3, 1, 4),
        "structure_fields": [(2, 1, 3)],
        "sample_field": (3, 1, 3),
        "per_stratum": 1,
        "ladder_fields": [(2, 1, 6), (3, 1, 3)],
    },
}


def field_name(f) -> str:
    return "^".join(map(str, f))


def subspace_key(U) -> str:
    return ",".join(map(str, U.basis))


@dataclass
class Instance:
    key: str
    field: tuple
    U: object = None  # the subspace; field-ladder builds its own
    golden: object = None  # the golden omega, or field-ladder's golden record
    probe_contains: bool = False


def _golden_omega(golden, f, U):
    return golden["omega"].get(field_name(f), {}).get(subspace_key(U))


def _build(t, f):
    ctx = t.call("gf.build_field", build_field, *f)
    t.count("gf.fields_built")
    return ctx


def _family(t, fn):
    return t.call("linalg.family", lambda: list(fn()))


def _instances(f, subspaces, golden):
    out = []
    for i, U in enumerate(subspaces):
        out.append(Instance(f"{field_name(f)}:{subspace_key(U)}", f, U,
                            _golden_omega(golden, f, U), probe_contains=i == 0))
    return out


# -- set-up ---------------------------------------------------------------


def setup_sweep(t, rng, golden, size):
    insts = []
    for f in size["lowdim_fields"]:
        ctx = _build(t, f)
        subs = []
        for d in (1,) if f in size["lowdim_dim1_only"] else (1, 2):
            if d < ctx.n:
                subs += _family(t, lambda: all_subspaces(ctx, d))
        insts += _instances(f, subs, golden)
    rng.shuffle(insts)
    return insts


def setup_hard(t, rng, golden, size):
    insts = []
    for f, k in size["hard_hyperplanes"]:
        ctx = _build(t, f)
        hs = _family(t, lambda: (U for _, U in itertools.islice(all_hyperplanes(ctx), k)))
        insts += _instances(f, hs, golden)
    f = size["sign_class_field"]
    ctx = _build(t, f)
    classes = {1: [], -1: []}
    for U in _family(t, lambda: (U for _, U in all_hyperplanes(ctx))):
        classes[t.call("linalg.s_invariant", s_invariant, U)].append(U)
    insts += _instances(f, [rng.choice(classes[1]), rng.choice(classes[-1])], golden)
    rng.shuffle(insts)
    return insts


def setup_structure(t, rng, golden, size):
    insts = []
    for f in size["structure_fields"]:
        ctx = _build(t, f)
        subs = []
        for d in range(1, ctx.n):
            subs += _family(t, lambda: all_subspaces(ctx, d))
        insts += _instances(f, subs, golden)
    # stratified by (dim, exact omega), so every seed samples the same mix
    f = size["sample_field"]
    ctx = _build(t, f)
    strata: dict[tuple, list] = {}
    for d in range(1, ctx.n):
        for U in _family(t, lambda: all_subspaces(ctx, d)):
            strata.setdefault((d, _golden_omega(golden, f, U)), []).append(U)
    sample = []
    for key in sorted(strata, key=str):
        sample += rng.sample(strata[key], min(size["per_stratum"], len(strata[key])))
    insts += _instances(f, sample, golden)
    rng.shuffle(insts)
    return insts


def setup_ladder(t, rng, golden, size):
    # not shuffled: the order of the big allocations sets peak memory
    return [Instance(field_name(f), f, golden=golden["fields"].get(field_name(f)),
                     probe_contains=True)
            for f in size["ladder_fields"]]


# -- per-instance steps ---------------------------------------------------


def _graph(t, ctx, U):
    G = t.call("graph.build_graph", build_graph, ctx, U)
    if t.enabled:
        t.count("graph.vertices", G.n_vertices)
        t.count("graph.edges", sum(G.degrees) // 2)
    return G


def _check_clique(G, witness, omega, problems):
    vs = sorted(set(witness))
    if len(vs) != omega:
        problems.append(f"witness has {len(vs)} vertices, omega is {omega}")
    elif any(not G.has_edge(a, b) for i, a in enumerate(vs) for b in vs[i + 1:]):
        problems.append("witness is not a clique")


def _check_golden(inst, omega, problems):
    if inst.golden is None:
        problems.append("no golden omega for this instance")
    elif omega != inst.golden:
        problems.append(f"omega {omega} != golden {inst.golden}")


def _contains_probe(t, U):
    ctx = U.ctx
    squares = [ctx.mul(v, v) for v in range(ctx.order)]
    with t.span("linalg.contains"):
        for x in squares:
            U.contains(x)
    t.count("linalg.contains_calls", len(squares))


def _seed_probe(t, G, omega):
    seed = t.call("graph.greedy_seed_clique", greedy_seed_clique, G)
    t.count("graph.seed_probes")
    t.count("graph.seed_gap", omega - len(seed))
    t.count("graph.seed_optimal", len(seed) == omega)


def run_sweep(t, inst):
    """predict_omega, build_graph, clique_number_exact and bounds_report,
    with the invariants predict_omega rests on cross-checked."""
    U, problems = inst.U, []
    with t.span("instance", inst.key):
        ctx = U.ctx
        pred = t.call("predict.predict_omega", predict_omega, U)
        has_sq = t.call("linalg.contains_nonzero_square", contains_nonzero_square, U)
        D = t.call("linalg.D_invariant", D_invariant, U) if has_sq else None
        elems = t.call("linalg.enumerate_elements", U.enumerate_elements)
        G = _graph(t, ctx, U)
        omega, witness = t.call("graph.clique_number_exact", clique_number_exact, G,
                                time_limit=SOLVE_TIME_LIMIT)
        report = t.call("predict.bounds_report", bounds_report, U, omega)
    if has_sq != pred.has_square or D != pred.D_U:
        problems.append(f"invariants (has_square={has_sq}, D={D}) disagree with "
                        f"the prediction ({pred.has_square}, {pred.D_U})")
    if len(elems) != U.size or len(set(elems)) != U.size:
        problems.append(f"enumerate_elements gave {len(elems)} elements, size is {U.size}")
    if pred.kind != "exact" or pred.value != omega:
        problems.append(f"prediction {pred.describe()} != omega {omega}")
    if not pred.admits(omega):
        problems.append(f"prediction does not admit omega {omega}")
    if not report["ok"]:
        problems.append(f"bounds report failed: {report['checks']}")
    _check_clique(G, witness, omega, problems)
    _check_golden(inst, omega, problems)
    if t.enabled:
        _seed_probe(t, G, omega)
        if inst.probe_contains:
            _contains_probe(t, U)
    return problems


def run_hard(t, inst):
    """Exact clique number of a hyperplane against the closed form."""
    U, problems = inst.U, []
    with t.span("instance", inst.key):
        G = _graph(t, U.ctx, U)
        omega, witness = t.call("graph.clique_number_exact", clique_number_exact, G,
                                time_limit=SOLVE_TIME_LIMIT)
        want = t.call("predict.hyperplane_omega", hyperplane_omega, U)
    if omega != want:
        problems.append(f"omega {omega} != closed form {want}")
    _check_clique(G, witness, omega, problems)
    _check_golden(inst, omega, problems)
    if t.enabled:
        _seed_probe(t, G, omega)
        if inst.probe_contains:
            _contains_probe(t, U)
    return problems


def _maximal_cliques(G):
    cliques = []
    try:
        for clique in enumerate_maximal_cliques(G, cap=CLIQUE_CAP):
            cliques.append(clique)
    except CapExceeded:
        return cliques, True
    return cliques, False


def run_structure(t, inst):
    """Maximal cliques by enumeration, each decomposed and validated."""
    U, problems = inst.U, []
    with t.span("instance", inst.key):
        G = _graph(t, U.ctx, U)
        cliques, truncated = t.call("graph.enumerate_maximal_cliques", _maximal_cliques, G)
        for clique in cliques:
            t.call("graph.decompose_clique", decompose_clique, G, clique)
    t.count("graph.maximal_cliques", len(cliques))
    best = max(map(len, cliques), default=0)
    if inst.golden is None:
        problems.append("no golden omega for this instance")
    elif truncated and best > inst.golden:
        problems.append(f"enumeration found {best} > golden omega {inst.golden}")
    elif not truncated and best != inst.golden:
        problems.append(f"enumeration maximum {best} != golden omega {inst.golden}")
    if t.enabled and inst.probe_contains:
        _contains_probe(t, U)
    return problems


def run_ladder(t, inst):
    """Cold field build, then the trace-zero hyperplane, its graph and its
    prediction: what a user pays before any solve."""
    problems, want = [], inst.golden
    with t.span("instance", inst.key):
        ctx = _build(t, inst.field)
        U = t.call("linalg.trace_zero_hyperplane", trace_zero_hyperplane, ctx)
        G = _graph(t, ctx, U)
        pred = t.call("predict.predict_omega", predict_omega, U)
    got = {
        "base_modulus": list(ctx.base_modulus),
        "ext_modulus": list(ctx.ext_modulus),
        "generator": ctx.generator,
        "vertices": G.n_vertices,
        "edges": sum(G.degrees) // 2,
        "omega": pred.value if pred.kind == "exact" else None,
    }
    if want is None:
        problems.append("no golden record for this field")
    else:
        problems += [f"{k} {got[k]} != golden {want[k]}" for k in want if got.get(k) != want[k]]
    del G
    if t.enabled:
        _contains_probe(t, U)
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: object
    run: object


WORKLOADS = {
    w.name: w
    for w in [
        Workload("sweep-lowdim",
                 "subspaces of dimension 1 and 2 (1 only for 5^1^4) of the prop-basic "
                 "fields: many ms-scale solves, mostly filter set-up via scalar contains",
                 setup_sweep, run_sweep),
        Workload("solve-hard",
                 "hyperplanes where proving optimality dominates: the branch-and-bound "
                 "search, with q = 2 and odd q; bypasses membership and prediction",
                 setup_hard, run_hard),
        Workload("structure",
                 "maximal-clique enumeration and decomposition over the survey family "
                 "and a seeded 3^1^4 sample: span and membership over W, no solve",
                 setup_structure, run_structure),
        Workload("field-ladder",
                 "cold build_field of large fields, then the trace-zero hyperplane, its "
                 "graph and prediction: gf at scale and graph memory, no search",
                 setup_ladder, run_ladder),
    ]
}
