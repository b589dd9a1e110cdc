"""Executable security harness: the unforgeability game, its challenger,
a scripted perfect adversary, and numeric validation of the success
probability bound."""
