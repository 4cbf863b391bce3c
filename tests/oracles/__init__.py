"""Pre-rewrite kernel bodies and the tests pinning the rewrites to them.

An oracle pins an *exact* rewrite: the rewrite must reproduce the
oracle's outputs bit for bit, and the oracle's body is not tidied. A
rewrite that changes records on purpose (a new draw order, say)
replaces the oracle instead: the new oracle states the new behaviour in
plain code, the old body stays as a second oracle where the two must
still agree (exactly where they coincide, in distribution elsewhere),
the paper's orderings and the invariants stay green, and the change
reports which ``sim.*`` benchmark metrics moved and by how much.
"""
