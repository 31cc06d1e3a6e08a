from setuptools import setup

# Offline environments lack the 'wheel' package that PEP 517 editable
# installs require; this shim lets `pip install -e . --no-use-pep517`
# (and plain `python setup.py develop`) work without network access.
# The workloads' kernels use scipy.special, scipy.sparse and scipy.ndimage,
# imported where they compute, so a timing-only run never loads scipy.
setup(install_requires=["numpy", "scipy"])
