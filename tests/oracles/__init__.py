"""Verbatim pre-rewrite kernel bodies and the tests pinning the rewrites to them."""
