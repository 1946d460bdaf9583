from setuptools import setup

# The C kernel is compiled from its source at first use.
setup(package_data={"repro.flitsim": ["_kernel.c", "_kernel.h"]})
