"""Symmetric private information retrieval over MDS-coded storage.

A user retrieves one of k files striped across n nodes by an (n, m)
erasure code, without revealing which file (user privacy) and without
learning anything about the others (database privacy).  The package
implements the capacity-achieving scheme (download n*m symbols per
(n-m)*m-symbol file, blinded by m^2 node-shared random symbols) plus an
auditor that verifies both privacy guarantees *exactly* on desk-scale
instances by exhaustive enumeration and integer counting.
"""

__version__ = "0.1.0"
