from fractions import Fraction

import pytest

from cgva.fields import QQ
from cgva.lie import algebra_from_dict, algebra_from_name, algebra_to_dict


def _scaled_sl3(field):
    """sl3 in the basis a'_0 = a_0/2, a'_3 = 3 a_3/5, a'_i = a_i otherwise,
    through the JSON loader, with the scales as field elements.  Its bracket
    constants and form values are not all integers, so its integer lift
    has t > 1 over Q."""
    sl3 = algebra_from_name("sl3", QQ)
    scale = [Fraction(1)] * sl3.dim
    scale[0], scale[3] = Fraction(1, 2), Fraction(3, 5)
    # [a'_i, a'_j] = sum_k s_i s_j c_ij^k / s_k a'_k,  <a'_i, a'_j> = s_i s_j k_ij
    data = algebra_to_dict(sl3)
    data["brackets"] = [
        [i, j, [[k, str(scale[i] * scale[j] * Fraction(c) / scale[k])]
                for k, c in terms]]
        for i, j, terms in data["brackets"]]
    data["form"]["entries"] = [[r, c, str(scale[r] * scale[c] * Fraction(v))]
                               for r, c, v in data["form"]["entries"]]
    return (algebra_from_dict(data, field), algebra_from_name("sl3", field),
            [field.from_fraction(s) for s in scale])


@pytest.fixture(scope="session")
def scaled_sl3():
    """(field) -> (rescaled sl3, sl3, the scales), as _scaled_sl3."""
    return _scaled_sl3


@pytest.fixture(scope="session")
def algebra_by_name():
    """(name, field) -> a builtin such as "sl3", or "scaled-sl3", the first
    algebra of _scaled_sl3."""
    def make(name, field):
        if name == "scaled-sl3":
            return _scaled_sl3(field)[0]
        return algebra_from_name(name, field)
    return make
