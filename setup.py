from setuptools import Extension, setup

# optional: without a C compiler the build skips the extension, and
# vcut.maxflow falls back to the pure-Python twin vcut._pyflow.
setup(ext_modules=[Extension("vcut._core", ["src/vcut/_core.c"], optional=True)])
