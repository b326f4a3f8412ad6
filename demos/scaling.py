"""Measure how reading and coloring time grow with instance size.

Runs `fivecolor bench` on random triangulations of 250, 500, 1000 and
2000 vertices (seeds 20 to 23, 2n diagonal flips each).  Per size it
prints `n read_s color_s`: `read` of the graph's pg/1 text (with
`build`'s checks) and `color_planar` on the graph read, each the best of
three runs.  Then it prints the log-log slope of each column,
`read_slope=` and `color_slope=`.  The descent peels the smallest degree
first and the ascent searches the Kempe chains from all four blockers in
turn, swapping the first complete one, so the growth is close to linear;
on this family the matcher almost never runs.
"""

import sys

from fivecolor.cli import main

sys.exit(main(["bench", "--sizes", "250,500,1000,2000", "--seed", "20"]))
