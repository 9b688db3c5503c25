"""Decorated triangles and the sign-reversing involution.

The inclusion-exclusion route enumerates a larger class: triangles with
marked special entries (equal to both parents) and inversions.  A
sign-reversing involution cancels everything that violates the interior
strict-increase condition; the surviving fixed points are exactly the
generalized monotone triangles, with specials turning into sign-changing
pairs and inversions into newcomers.
"""

from monotri import (
    enumerate_tn,
    involution_step,
    sc_statistic,
    signed_gmt_count,
    signed_tn_count,
    verify_reduction,
)

row = (4, 2, 1, 3)
objects = list(enumerate_tn(row))
print(f"Decorated triangles with bottom row {row}: {len(objects)} objects\n")
for o in objects:
    partner = involution_step(o)
    role = "fixed point" if partner is None else "cancelled"
    print(f"  rows {o.triangle.rows}")
    print(f"    specials {sorted(o.special) or '-'}  weight {o.weight}"
          f"  sign {o.sign:+d}  [{role}]")

print(f"\nSigned totals agree: decorated {signed_tn_count(row)}"
      f" = plain {signed_gmt_count(row)}")

print("\nFixed points inherit the sign statistic exactly:")
for o in objects:
    if involution_step(o) is None:
        print(f"  weight {o.weight} = sign-change count"
              f" {sc_statistic(o.triangle).sc}  for rows {o.triangle.rows}")

print("\nFull mechanical check of the reduction:")
report = verify_reduction(row)
print(f"  {report.name}: {report.claim()}  {report.metadata}")
