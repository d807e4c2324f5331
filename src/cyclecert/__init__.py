"""Certificate-producing short-cycle algorithms with brute-force oracles.

Three layers: constructive procedures (potential-based peeling for
directed girth, the recursive greedy-subgraph rainbow-cycle builder),
independent exponential oracles for ground truth, and an enumeration
harness that checks every proved bound over whole instance populations.
All arithmetic on the potentials is exact rational; every result is a
certificate that re-validates independently of its producer.

The package re-exports nothing: import each name from its module, as in
``from cyclecert.peeling import peel``.
"""
