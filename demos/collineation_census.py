"""Count every line-preserving bijection of the m-grid on the 2-torus.

At prime m each grid point lies on m+1 discrete lines and the exhaustive
backtracking search finds nothing beyond the affine maps.  At m = 4 the
incidence structure is looser: the search returns four times more
collineations than there are affine maps, and the census below shows what
the extra maps give up -- every single one of them breaks parallelism.
"""

from torusaffine import (
    GridMap,
    affine_group_order,
    check_paper_properties,
    collineation_group,
    is_affine_perm,
)

for m in (3, 4, 5):
    summary = collineation_group(2, m)
    affine = affine_group_order(2, m)
    print(
        f"m={m}: collineations {summary.order}, affine {affine}, "
        f"index {summary.order // affine}  ({summary.nodes} search nodes)"
    )

print("\nthe m=4 stabilizer of 0, sorted into affine and exotic maps:")
summary = collineation_group(2, 4)
stabilizer = list(summary.stabilizer())
affine = [im for im in stabilizer if is_affine_perm(2, 4, im) is not None]
exotic = [im for im in stabilizer if is_affine_perm(2, 4, im) is None]
print(f"  {len(affine)} affine, {len(exotic)} exotic")

for images in exotic:
    report = check_paper_properties(GridMap(2, 4, images))
    assert not report.parallels_preserved
print(f"  all {len(exotic)} exotic maps send some parallel pair to a crossing pair")
report = check_paper_properties(GridMap(2, 4, exotic[0]))
print(
    f"  sample exotic map: parallels_preserved={report.parallels_preserved}, "
    f"blocks_preserved={report.blocks_preserved}"
)
