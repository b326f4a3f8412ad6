"""Color a planar graph and inspect the result.

Builds an embedding two ways (by rotation system and from a face list),
colors each with five colors, and shows where the fifth color went.
"""

from fivecolor import build, check_coloring, color_planar, named, RunStats

# A triangular prism, entered as counterclockwise neighbor lists.
prism = build([
    (1, 2, 3),
    (2, 0, 4),
    (0, 1, 5),
    (0, 5, 4),
    (1, 3, 5),
    (2, 4, 3),
])

colors = color_planar(prism)
sizes = check_coloring(prism, colors)
print("prism:", dict(sorted(colors.items())))
print("class sizes:", sizes)

# The icosahedron is the smallest instance where plain peeling is not
# enough: every vertex has degree 5, so a wheel configuration fires.
ico = named("icosahedron")
stats = RunStats()
colors = color_planar(ico, stats)
sizes = check_coloring(ico, colors)
print()
print("icosahedron class sizes:", sizes)
print("low-degree deletions:", stats.f1_steps)
print("configuration reductions:", dict(stats.occ_steps))
print(f"color 5 used on {sizes[5]} of {ico.n} vertices (bound {ico.n // 6})")

assert 6 * sizes[5] <= ico.n
