"""Parse a specification, inspect it, and extract its counting sequence.

Run:  python demos/01_specifications_and_series.py
"""

from juxtaspec import (
    builtin_names,
    builtin_spec,
    classify,
    count_series,
    format_series,
    parse_spec,
    productivity_check,
    render_spec,
)

# A specification is a system of equations over atoms (E, Z, ZL, ZR, ZLR),
# class names, products (juxtaposition), sums (+) and Seq(...).  The first
# equation names the root class.
text = """
D = E + D D Z        # one equation per line, '#' starts a comment
"""
spec = parse_spec(text)
print("parsed:")
print(render_spec(spec))
print("counting sequence:", format_series(count_series(spec, 10)))
print("classification:", classify(spec).label)
print()

# Marker atoms ZL / ZR / ZLR single out the leftmost / rightmost entry of
# each nonempty object.  Tracking is inferred, never declared:
mono = parse_spec("M = ZLR + ZL Seq(Z) ZR")
print("monotone line tracking:", dict(mono.tracking))
print()

# Built-in specifications ship with the library:
for name in builtin_names():
    sp = builtin_spec(name)
    kind = sp.root_tracking()
    marks = "".join(c for c, flag in (("L", kind.has_l), ("R", kind.has_r)) if flag)
    print(f"{name:10s} tracks [{marks:2s}]  {format_series(count_series(sp, 9))}")
print()

# Ill-formed systems are diagnosed rather than looping forever:
bad = parse_spec("A = A Z")
print("A = A Z  ->", productivity_check(bad))
