"""Count every line-preserving bijection of the m-grid on the 2-torus.

The search counts the group orbit by orbit along a base, so it finds one
map per new orbit point rather than every map; each line's image, once
known, must meet every other known image in as many points as the lines
themselves meet, which keeps every modulus up to 17 to a fraction of a
second.  At prime m it finds nothing beyond the affine maps.  At m = 4, 8,
9 and 16 the incidence structure is looser: the index over the affine maps
is 4, 256, 27 and 1024, and m = 12 has index 4, the product of the indices
at 3 and 4.  The census below shows what the extra maps at m = 4 give up
-- every single one of them breaks parallelism.
"""

from torusaffine import (
    GridMap,
    affine_group_order,
    check_paper_properties,
    collineation_group,
    is_affine_perm,
)

for m in range(3, 18):
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
