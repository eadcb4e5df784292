"""Input profiles given as callables, as the set that output_maps and
integrate_extrapolated read."""


def function_set(profiles):
    """``light`` and ``spin`` of a list of ((xi1, xi2), (jz, jy)) callables:
    item p of ``light(t)`` is profile p's (xi1(t), xi2(t)), of ``spin(z)``
    its (jz(z), jy(z))."""
    def light(t):
        return [(xi1(t), xi2(t)) for (xi1, xi2), _ in profiles]

    def spin(z):
        return [(jz(z), jy(z)) for _, (jz, jy) in profiles]

    return light, spin
