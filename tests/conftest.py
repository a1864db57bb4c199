import numpy as np
import pytest

from cgkit import MatrixSPD, QuadraticProblem


@pytest.fixture
def worked_problem() -> QuadraticProblem:
    """The hand-checkable 2x2 instance: A=diag(2,1), b=(-2,-1), x*=(1,1).

    From x_0 = 0 the iteration gives alpha_0 = 5/9, beta_1 = 4/81,
    alpha_1 = 9/10, x_2 = (1, 1), g_2 = 0.
    """
    a = MatrixSPD.from_dense(np.diag([2.0, 1.0]))
    return QuadraticProblem(a, np.array([-2.0, -1.0]))


def make_spd_problem(lams, seed: int) -> QuadraticProblem:
    """Random-basis SPD problem with the given spectrum and a seeded b."""
    from cgkit import SpectrumSpec, generate_spd

    lams = np.asarray(lams, dtype=np.float64)
    n = lams.size
    a = generate_spd(n, SpectrumSpec(eigenvalues=tuple(lams)), seed)
    b = np.random.default_rng(seed + 1).standard_normal(n)
    return QuadraticProblem(a, b)


def assert_refused(call, error: type, message: str) -> None:
    """``call()`` raises an exception of exactly the type ``error`` whose
    first argument is ``message``, or starts with it when ``message`` ends
    in ``: `` (the rest is a library's wording)."""
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    text = caught.value.args[0]
    assert text.startswith(message) if message.endswith(": ") else text == message
