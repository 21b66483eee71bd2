"""Multi-task learning with a Kronecker-structured task-relationship prior.

The package trains one classifier per task with shared trunk layers and
task-specific layer stacks, placing a tensor normal prior over each
stacked parameter tensor.  Alternating between SGD on the network and
closed-form covariance refits learns how strongly tasks relate, and the
task-mode covariance factor doubles as an interpretable relationship
matrix.

The package exports exactly the names in the ``__all__`` of
:mod:`~relnet.data`, :mod:`~relnet.network`, :mod:`~relnet.tensor`,
:mod:`~relnet.tensor_normal` and :mod:`~relnet.trainer`, in that order.
"""

from . import data, network, tensor, tensor_normal, trainer
from .data import *
from .network import *
from .tensor import *
from .tensor_normal import *
from .trainer import *

__version__ = "0.1.0"

__all__ = [
    *data.__all__,
    *network.__all__,
    *tensor.__all__,
    *tensor_normal.__all__,
    *trainer.__all__,
    "__version__",
]
