"""Fixed reference work that measures how fast the host runs right now.

`run.py` times this script in a fresh interpreter between passes of the
timed phase.  Neighbours on a shared host slow every process by 30-50% for
minutes at a time; this script slows with them, and it does not touch
`oamch`, so no change to the program can move it.  It mixes what the CLI
spends its time on: interpreter start, the numpy import, scalar complex
arithmetic in Python, number formatting, and small numpy operations.
"""

import cmath

import numpy

z = 0j
for i in range(60000):
    z += cmath.exp(1j * (i % 97) * 0.01) * (6.283 - (i % 13) * 0.1)
    text = format(z.real, ".9g")
a = numpy.arange(64.0)
for _ in range(2000):
    a = numpy.sqrt(a * a + 1.0) - 0.5
