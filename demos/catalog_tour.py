"""Walk through the reducible-configuration catalog.

Lists the built-in entries with the number of blocked sets the
certificate checks for each, then runs the reducer's own candidate loop
on one of them to show what "reducible" means operationally: however
the outside coloring blocks candidates, some choice of fifth color (or
none) still leaves the rest of the pattern peelable for recoloring.
"""

from fivecolor import builtin_catalog, get_entry, validate_entry
from fivecolor.catalog import choose_fifth

entries = builtin_catalog()
print(f"{len(entries)} entries")
for e in entries:
    kind = type(e.scheme).__name__
    states = validate_entry(e)
    print(f"  {e.family:3} {e.name:16} size={len(e.caps)} scheme={kind:13} states={states}")

print()
name = "wheel-adjacent"
entry = get_entry(name)
order = entry.scheme.order
print(f"{name} (degree caps {entry.caps}), each candidate with the ones before it blocked:")
for i in range(len(order)):
    blocked = set(order[:i])

    # the certificate's worst case: cap, less pattern neighbors gone, less
    # one token per blocked vertex
    def load(v, gone):
        near = sum(1 for a, b in entry.edges if v in (a, b) and a + b - v in gone)
        return entry.caps[v] - near - (v in blocked)

    fifth, peel = choose_fifth(order, set(range(6)), blocked.__contains__, load)
    print(f"  blocked {sorted(blocked)!s:10} fifth={fifth} peel {','.join(map(str, peel))}")
    assert fifth == order[i]

# The hub's neighbors are all inside the pattern, so it is never blocked:
# the certificate checks the 2**5 subsets of the rim.
assert validate_entry(entry) == 2**5
