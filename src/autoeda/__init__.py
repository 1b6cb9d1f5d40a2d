"""Imitation-learned exploratory data analysis over tabular datasets.

Subpackages: `tabular` (dataset/display engine), `env` (episodes, state and
action encodings), `measures` (interestingness scores), `synth` (synthetic
data and expert sessions), `nn` (networks and optimizer), `train` (cloning
plus adversarial training), `evaluation` (session metrics), `cli`. Import
them by name; the package imports none of them, so `autoeda.cli` can pin
BLAS threads before numpy loads.
"""

__version__ = "0.1.0"
