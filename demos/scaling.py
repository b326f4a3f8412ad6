"""Measure how coloring time grows with instance size.

Runs `fivecolor bench` on random triangulations of 250, 500, 1000 and
2000 vertices (seeds 20 to 23, 2n diagonal flips each), keeping the best
of three runs per size, and prints the log-log slope it fits.  The
descent peels the smallest degree first and the ascent searches the
Kempe chains from all four blockers in turn, swapping the first complete
one, so the growth is close to linear; on this family the matcher almost
never runs.
"""

import sys

from fivecolor.cli import main

sys.exit(main(["bench", "--sizes", "250,500,1000,2000", "--seed", "20"]))
