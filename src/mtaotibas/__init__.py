"""Multi-authority one-time identity-based aggregate signatures.

A two-level authority hierarchy (one root, many lower-level authorities)
issues identity-bound one-time signing keys. Signatures from signers across
different authorities aggregate into a single group element that verifies
with a number of pairings proportional to the number of authorities, not
signers. The package also ships a security harness that runs the scheme's
unforgeability game and reduction machinery at desk scale.
"""
