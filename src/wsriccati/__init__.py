"""Weighted stochastic Riccati design for linear systems with i.i.d. random matrices.

The package designs linear state-feedback gains that are optimal for a
weighted quadratic cost, where the weight reshapes the distribution of the
random system matrices around the candidate policy. Risk-neutral,
exponential risk-sensitive, and sigmoid robust risk-sensitive policies are
all instances of one weight family choice.

Each module's ``__all__`` is the one declaration of its public names; the
package exports their concatenation. ``config`` and ``cli`` are not imported
here, so ``import wsriccati`` loads neither YAML nor argparse.
"""

# Each import also binds its module in this namespace, for ``__all__`` below.
from .ensemble import *  # noqa: F403
from .errors import *  # noqa: F403
from .matops import *  # noqa: F403
from .riccati import *  # noqa: F403
from .simulate import *  # noqa: F403
from .stability import *  # noqa: F403
from .weights import *  # noqa: F403

__version__ = "0.1.0"

__all__ = (
    ensemble.__all__
    + errors.__all__
    + matops.__all__
    + riccati.__all__
    + simulate.__all__
    + stability.__all__
    + weights.__all__
)
