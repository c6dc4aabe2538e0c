"""The repository's one layered benchmark (see bench/README.md).

Everything here drives ``repro`` through its public API only and times
it from outside; nothing in ``src/`` knows this package exists.
"""
