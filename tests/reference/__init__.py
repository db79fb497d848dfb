"""Deliberately simple reference implementations the suite compares the
product code against (one definition of "correct" per layer)."""
