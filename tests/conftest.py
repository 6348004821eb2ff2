"""Shared test helpers: central finite differences against analytic
gradients, and a checksum of a parameter dict."""

import hashlib

import numpy as np


def params_checksum(params):
    """sha256 over the sorted keys and each array's raw bytes."""
    h = hashlib.sha256()
    for key in sorted(params):
        h.update(key.encode())
        h.update(np.ascontiguousarray(params[key]).tobytes())
    return h.hexdigest()


def central_diff(f, x, eps=1e-6):
    """Central finite-difference gradient of scalar f at array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(x)
        flat[i] = orig - eps
        fm = f(x)
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * eps)
    return g


def rel_err(a, b):
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return float(np.linalg.norm(a - b) / denom)
