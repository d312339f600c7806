"""Symmetric private information retrieval over MDS-coded storage.

A user retrieves one of k files striped across n nodes by an (n, m)
erasure code, without revealing which file (user privacy) and without
learning anything about the others (database privacy).  The package
implements the capacity-achieving scheme (download n*m symbols per
(n-m)*m-symbol file, blinded by m^2 node-shared random symbols) plus an
auditor that verifies correctness and both privacy guarantees *exactly*
by linear certificates and rank gaps, with no sweep of the universe.
"""

__version__ = "0.1.0"
