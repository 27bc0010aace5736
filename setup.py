"""Build script: compiles the optional kernel extension.

The extension is generated from `_ckernels.pyx` when Cython is
importable, and otherwise built from the shipped `_ckernels.c`, which
needs only a C compiler.  The package is fully functional without the
extension (a pure-Python fallback is selected at import time), so the
extension is optional: a failed compilation is reported and skipped
rather than aborting the install.
"""

from setuptools import setup
from setuptools.extension import Extension


def _kernels(source: str) -> Extension:
    return Extension("cyclat._ckernels", sources=[source],
                     extra_compile_args=["-O2"], optional=True)


try:
    from Cython.Build import cythonize
except ImportError:
    ext_modules = [_kernels("src/cyclat/_ckernels.c")]
else:
    ext_modules = cythonize([_kernels("src/cyclat/_ckernels.pyx")],
                            language_level=3)

setup(ext_modules=ext_modules)
