"""DeepCAT reproduction library.

Implements the full stack of "DeepCAT: A Cost-Efficient Online
Configuration Auto-Tuning Approach for Big Data Frameworks" (ICPP 2022):
the DeepCAT tuner (TD3 + RDPER + Twin-Q Optimizer), the CDBTune and
OtterTune baselines, and the simulated Spark/YARN/HDFS cluster substrate
they tune.

Quickstart
----------
>>> from repro import DeepCAT, make_env
>>> env = make_env("TS", "D1", seed=7)
>>> tuner = DeepCAT.from_env(env, seed=7)
>>> tuner.train_offline(env, iterations=400)      # doctest: +SKIP
>>> session = tuner.tune_online(env, steps=5)     # doctest: +SKIP
>>> session.best_duration_s                       # doctest: +SKIP

Importing the package pins BLAS to one thread process-wide (and
exports the standard variables, so worker processes inherit it) unless
``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS`` or ``MKL_NUM_THREADS`` is
already set; see :mod:`repro.parallel.pinning`.
"""

from repro.parallel.pinning import pin_default_blas_threads

pin_default_blas_threads()

from repro.baselines.cdbtune import CDBTune  # noqa: E402
from repro.baselines.ottertune.tuner import OtterTune  # noqa: E402
from repro.cluster.hardware import CLUSTER_A, CLUSTER_B  # noqa: E402
from repro.config.pipeline import build_pipeline_space  # noqa: E402
from repro.core.deepcat import DeepCAT  # noqa: E402
from repro.core.persistence import load_tuner, save_tuner  # noqa: E402
from repro.envs.tuning_env import TuningEnv  # noqa: E402
from repro.factory import make_env  # noqa: E402
from repro.telemetry import RunContext, RunManifest  # noqa: E402

__version__ = "1.0.0"

__all__ = [
    "DeepCAT",
    "CDBTune",
    "OtterTune",
    "TuningEnv",
    "CLUSTER_A",
    "CLUSTER_B",
    "build_pipeline_space",
    "make_env",
    "save_tuner",
    "load_tuner",
    "RunContext",
    "RunManifest",
    "__version__",
]
