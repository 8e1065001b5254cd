"""Regenerate perfbench/golden.json from the current program.

    python3 perfbench/make_golden.py

The golden file holds the exact clique number of every subspace any seed
of any workload can select, and for each field-ladder field its moduli,
generator, vertex and edge counts of the trace-zero hyperplane graph and
its predicted clique number.  It is regenerated only on purpose: the
benchmark counts an instance as failed when a result differs from it.
Takes about five minutes on one core.
"""

from __future__ import annotations

import itertools
import json
import sys

from run import HERE, load_program


def main():
    workloads = load_program()
    from paleyvec.gf import build_field
    from paleyvec.graph import build_graph, clique_number_exact
    from paleyvec.linalg import all_hyperplanes, all_subspaces, trace_zero_hyperplane
    from paleyvec.predict import predict_omega

    subspaces = {}  # (field, basis) -> subspace

    def add(f, family):
        for U in family:
            subspaces[(f, U.basis)] = U

    ladder = set()
    for size in workloads.SIZES.values():
        for f in size["lowdim_fields"]:
            ctx = build_field(*f)
            for d in (1, 2):
                if d < ctx.n:
                    add(f, all_subspaces(ctx, d))
        for f in size["structure_fields"] + [size["sample_field"]]:
            ctx = build_field(*f)
            for d in range(1, ctx.n):
                add(f, all_subspaces(ctx, d))
        for f, k in size["hard_hyperplanes"]:
            add(f, (U for _, U in itertools.islice(all_hyperplanes(build_field(*f)), k)))
        f = size["sign_class_field"]
        add(f, (U for _, U in all_hyperplanes(build_field(*f))))
        ladder.update(size["ladder_fields"])

    omega: dict[str, dict[str, int]] = {}
    for i, ((f, _), U) in enumerate(sorted(subspaces.items())):
        w, _ = clique_number_exact(build_graph(U.ctx, U))
        omega.setdefault(workloads.field_name(f), {})[workloads.subspace_key(U)] = w
        if i % 200 == 0:
            print(f"{i}/{len(subspaces)}", file=sys.stderr)

    fields = {}
    for f in sorted(ladder):
        ctx = build_field(*f)
        U = trace_zero_hyperplane(ctx)
        G = build_graph(ctx, U)
        fields[workloads.field_name(f)] = {
            "base_modulus": list(ctx.base_modulus),
            "ext_modulus": list(ctx.ext_modulus),
            "generator": ctx.generator,
            "vertices": G.n_vertices,
            "edges": sum(G.degrees) // 2,
            "omega": predict_omega(U).value,
        }
        del G

    with open(HERE / "golden.json", "w") as fh:
        json.dump({"omega": omega, "fields": fields}, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
