#!/usr/bin/env python3
"""Walk through the abnormal analysis of the Martinet system.

The reference trajectory runs along the x2 axis where the input bracket
degenerates.  The script builds the constraint ladder, extracts the
annihilating covector, transports it as a biextremal, audits the necessary
conditions against the sampled perturbation cone and searches a momentum
grid for a normal lift.
"""

from geocon.cone import assemble_cone, find_supporting_covector
from geocon.ocp import (
    audit_necessary_conditions,
    build_control_affine,
    extend_system,
    integrate_biextremal,
    integrate_trajectory,
    piecewise_schedule,
    search_normal_lift,
)
from geocon.pca import abnormal_verdict, annihilator_at, ladder_pairings, run_algorithm


def main():
    sys_ = build_control_affine(
        ("x1", "x2", "x3"),
        ["0", "0", "0"],
        [["1", "0", "0"], ["0", "1", "x1^2"]],
        [(-2.0, 2.0), (-2.0, 2.0)],
    )
    ext = extend_system(sys_, "0.5*(u1^2 + u2^2)")
    sched = piecewise_schedule([0.0], [[0.0, 1.0]])
    ref = integrate_trajectory(sys_, [0.0, 0.0, 0.0], sched, (0.0, 1.0), 1e-3)
    print(f"reference endpoint: {ref.xs[-1]}")

    ladder = run_algorithm(sys_, ref)
    print(f"ladder stabilized at level {ladder.stabilized_at}; {abnormal_verdict(ladder)}")
    for lvl in ladder.levels:
        names = [g.name for g in lvl.generators] or ["(none adopted)"]
        print(f"  level {lvl.index}: {', '.join(names)}  spans {lvl.span_dims}")

    basis = annihilator_at(ref.point_at(0.5), ladder)
    lam = basis[0].components
    print(f"annihilator basis at the midpoint: {lam}")

    bx = integrate_biextremal(sys_, [0.0, 0.0, 0.0], lam, sched, (0.0, 1.0), "reduced")
    pairings = ladder_pairings(ladder, bx)
    print(f"worst transported pairing: {max(pairings.values()):.3e}")

    cone = assemble_cone(sys_, ref, 1.0, [0.25, 0.5, 0.75, 1.0])
    support = find_supporting_covector(cone)
    print(
        f"cone: {len(cone.generators)} generators; supporting covector "
        f"{support.covector.components} (max pairing {support.max_pairing:.3e})"
    )

    audit = audit_necessary_conditions(bx, cone, sys_)
    for cond in audit.conditions:
        print(f"  [{'pass' if cond.passed else 'FAIL'}] {cond.id}: {cond.detail}")

    search = search_normal_lift(ext, ref)
    print(
        f"normal-lift search over {search.candidates} momenta ({search.grid_description}): "
        f"{'found ' + str(search.found) if search.found is not None else 'none found'} "
        f"(best residual {search.best_residual:.3e})"
    )
    print("conclusion: abnormal candidate confirmed; strict abnormality left inconclusive")


if __name__ == "__main__":
    main()
