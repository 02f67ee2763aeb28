"""Derived triangles from rotated side lines.

Rotate each side line of a triangle by an angle phi (pi/2 for the
perpendicular case) about a chosen vertex.  The three rotated lines bound a
derived triangle similar to the original, and at phi = pi/2 the area ratio
equals the squared cotangent sum (cot A + cot B + cot Gamma)^2 -- at least 3
for any triangle, at least 4 when a right angle is pinned at A.  This package
constructs the derived triangle, verifies the ratio identity and every
intermediate identity it rests on, and confirms the extremal values both in
closed form and numerically.

Each name lives in the module that defines it and is imported from there
(`from perptri.sweep import run_sweep`).  Importing the package imports none
of its modules, so a command pays only for the modules it runs; numpy is
loaded only by the array code: the sweep, its corpora and the lattice.
"""

__version__ = "0.1.0"
