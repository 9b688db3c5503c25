"""Signed enumeration as combinatorial reciprocity.

Outside its defining domain the counting polynomial no longer counts --
it weighs.  Each generalized monotone triangle carries the sign
(-1)**(newcomers + sign-changing pairs), and the weighted total reproduces
the polynomial exactly.  The admissible-row machinery exposes the same
structure level by level.
"""

from monotri import (
    alpha,
    enumerate_gmt,
    gmt_admissible_rows,
    row_sign_changes,
    sc_statistic,
    signed_gmt_count,
)

row = (4, 2, 1, 3)
print(f"Admissible penultimate rows above {row}:")
for sub in gmt_admissible_rows(row):
    print(f"  {sub}  contributes sign {(-1) ** row_sign_changes(row, sub):+d}")

print(f"\nSign-weighted triangle census for bottom row {row}:")
total = 0
for t in enumerate_gmt(row):
    sign = sc_statistic(t).sign
    total += sign
    print(f"  rows {t.rows}  sign {sign:+d}")
print(f"  total {total}  =  polynomial value {alpha(row)}")

print("\nThe running-sum evaluator never materializes triangles:")
big = (9, 2, 7, 1, 8)
print(f"  signed count at {big} = {signed_gmt_count(big)}")
print(f"  objects in the class   = {sum(1 for _ in enumerate_gmt(big))}")

print("\nThe cyclic shift identity relates values across the whole lattice:")
k = (1, 2, 3)
shifted = k[1:] + (k[0] - len(k),)
print(f"  value{k} = {alpha(k)},  value{shifted} = {alpha(shifted)}"
      f"  (equal up to the sign (-1)**(n-1) = {(-1) ** (len(k) - 1):+d})")
