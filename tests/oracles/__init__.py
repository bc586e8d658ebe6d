"""Reference implementations that only the tests call.

Each module mirrors the package module whose results it checks: the
prolate route of the paper's comparison (`pswf`, with the spherical Bessel
functions of its adjoint images), the commuting operator's checks (the
weak form solved whole, the paper's route through the Liouville map,
rho from the endpoint identity, the residual of the equation), the
forward transform and the factorisation self-check, and the parameter
rescaling identity. No module of the package imports them.
"""
