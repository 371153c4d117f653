"""The step operator against the hand-written operator copies it replaced,
which live here as references: the face diffusivities and div(D grad .)
used by the explicit step and the residual, the padded conjugate-gradient
apply, the diagonal loop, the boundary right-hand side and the 1D
tridiagonal couplings.

The operator folds scale / h^2 into its couplings, so in 2D and 3D its
results regroup the same products and agree to 1e-13 of the size of one
term. In 1D the tridiagonal step matrix (diagonal, off-diagonal, end
couplings) is the reference's, bit for bit, so 1D semi-implicit solves are
unchanged.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from plaplab.solver import _StepOperator

REL = 1e-13


# ---------------------------------------------------------------------------
# the replaced implementations

def _face_diffusivities(u_slice, h, p, eps):
    n = u_slice.ndim
    grads = np.gradient(u_slice, h) if n > 1 else [np.gradient(u_slice, h)]
    g2 = sum(g * g for g in grads)
    d_node = (g2 + eps * eps) ** ((p - 2.0) / 2.0)
    faces = []
    for ax in range(n):
        sl_lo = [slice(None)] * n
        sl_hi = [slice(None)] * n
        sl_lo[ax] = slice(0, -1)
        sl_hi[ax] = slice(1, None)
        faces.append(0.5 * (d_node[tuple(sl_lo)] + d_node[tuple(sl_hi)]))
    return faces


def _div_flux(v, faces, h):
    n = v.ndim
    out = np.zeros_like(v)
    inner = tuple(slice(1, -1) for _ in range(n))
    acc = np.zeros_like(v[inner])
    for ax in range(n):
        lo = [slice(1, -1)] * n
        hi = [slice(1, -1)] * n
        lo[ax] = slice(0, -2)
        hi[ax] = slice(2, None)
        f_lo = [slice(1, -1)] * n
        f_hi = [slice(1, -1)] * n
        f_lo[ax] = slice(0, -1)
        f_hi[ax] = slice(1, None)
        D = faces[ax]
        acc = acc + (
            D[tuple(f_hi)] * (v[tuple(hi)] - v[inner])
            - D[tuple(f_lo)] * (v[inner] - v[tuple(lo)])
        ) / (h * h)
    out[inner] = acc
    return out


def _boundary_frame_mask(shape):
    mask = np.zeros(shape, dtype=bool)
    for ax in range(len(shape)):
        sl = [slice(None)] * len(shape)
        sl[ax] = 0
        mask[tuple(sl)] = True
        sl[ax] = -1
        mask[tuple(sl)] = True
    return mask


def _apply_padded(w, faces, dt, h, shape):
    inner = tuple(slice(1, -1) for _ in shape)
    wf = np.zeros(shape)
    wf[inner] = w
    return w - dt * _div_flux(wf, faces, h)[inner]


def _diag_loop(faces, dt, h, shape):
    n = len(shape)
    inner = tuple(slice(1, -1) for _ in shape)
    diag = np.ones(shape)[inner].copy()
    for ax in range(n):
        f_lo = [slice(1, -1)] * n
        f_hi = [slice(1, -1)] * n
        f_lo[ax] = slice(0, -1)
        f_hi[ax] = slice(1, None)
        diag += dt * (faces[ax][tuple(f_lo)] + faces[ax][tuple(f_hi)]) / (h * h)
    return diag


def _boundary_rhs(b, faces, dt, h):
    inner = tuple(slice(1, -1) for _ in b.shape)
    bmask = _boundary_frame_mask(b.shape)
    vb = np.zeros_like(b)
    vb[bmask] = b[bmask]
    return dt * _div_flux(vb, faces, h)[inner]


def _tridiagonal_1d(u, h, p, eps, dt, b):
    c = (dt / (h * h)) * _face_diffusivities(u, h, p, eps)[0]
    return 1.0 + c[:-1] + c[1:], -c[1:-1], c[0] * b[0], c[-1] * b[-1]


# ---------------------------------------------------------------------------

def _assert_close(got, want, size):
    assert got.shape == want.shape
    assert float(np.max(np.abs(got - want), initial=0.0)) <= REL * size


@settings(max_examples=120, deadline=None)
@given(n=st.integers(1, 3), p=st.sampled_from([1.5, 2.0, 3.0]),
       nodes=st.integers(3, 10), seed=st.integers(0, 2**32 - 1),
       scale=st.floats(1e-3, 10.0), eps_factor=st.floats(0.1, 2.0))
def test_step_operator_matches_the_hand_written_copies(n, p, nodes, seed, scale, eps_factor):
    rng = np.random.default_rng(seed)
    shape = (nodes,) * n
    h = 2.0 / (nodes - 1)
    eps = eps_factor * h
    u, v, b = (rng.standard_normal(shape) for _ in range(3))
    inner = tuple(slice(1, -1) for _ in shape)
    w = v[inner]

    op = _StepOperator(u, n, h, p, eps, scale)
    faces = _face_diffusivities(u, h, p, eps)
    # the size of one term of a sum: the largest coupling times the largest value
    coupling = scale * max(float(f.max()) for f in faces) / (h * h)
    amp = max(float(np.abs(v).max()), float(np.abs(b).max()))

    _assert_close(op.flux(v), scale * _div_flux(v, faces, h)[inner], coupling * amp)
    _assert_close(op.apply(w), _apply_padded(w, faces, scale, h, shape), (1.0 + coupling) * amp)
    _assert_close(op.diag, _diag_loop(faces, scale, h, shape), 1.0 + coupling)
    rhs = np.zeros(w.shape)
    op.add_boundary(rhs, b)
    _assert_close(rhs, _boundary_rhs(b, faces, scale, h), coupling * amp)

    if n == 1:
        diag, off, first, last = _tridiagonal_1d(u, h, p, eps, scale, b)
        c = op.couplings[0]
        assert np.array_equal(op.diag, diag)
        assert np.array_equal(-c[1:-1], off)
        assert c[0] * b[0] == first and c[-1] * b[-1] == last


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 3), p=st.sampled_from([1.5, 2.0, 3.0]),
       nodes=st.integers(3, 8), batch=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_leading_axes_are_a_batch_of_slices(n, p, nodes, batch, seed):
    # the semi-discrete residual builds one operator over all interior slices
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((batch,) + (nodes,) * n)
    v = rng.standard_normal(u.shape)
    h = 2.0 / (nodes - 1)
    whole = _StepOperator(u, n, h, p, h, 1.0)
    per_slice = [_StepOperator(u[j], n, h, p, h, 1.0) for j in range(batch)]
    assert np.array_equal(whole.flux(v), np.stack([op.flux(v[j]) for j, op in enumerate(per_slice)]))
    assert np.array_equal(whole.diag, np.stack([op.diag for op in per_slice]))
