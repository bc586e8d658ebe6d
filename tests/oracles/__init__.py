"""Reference implementations that only the tests call.

Each module mirrors the package module whose results it checks: the
prolate route of the paper's comparison (`pswf`, with the spherical Bessel
functions of its adjoint images), the weak-form and residual checks of the
commuting operator, the forward map and the factorisation self-check, and
the parameter rescaling identity. No module of the package imports them.
"""
