"""Assembly tests: FEM against symbolic element integration, FV against
hand stencils, boundary freezing, and the L2 quadrature weights."""

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp
import sympy as sy

from setd import sparse
from setd.errors import InvalidArgumentError
from setd.grid import BoundaryTag, boundary_sites, build_grid
from setd.harness import advection_study, build_problem, linear_additive_study
from setd.operators import (
    FaceVelocities,
    apply_dirichlet,
    assemble_fem,
    assemble_fv,
    quadrature_weights,
)
from setd.sparse import SparseOperator, save_matrix_market


# ---------------------------------------------------------------------------
# symbolic P1 element oracle
# ---------------------------------------------------------------------------

def _symbolic_local(vertices, D, q, c0):
    """Exact 3x3 element matrix for stiffness + c0*mass + advection.

    Integrates the P1 shape functions over the triangle with sympy via the
    affine map to the unit triangle; shares no formulas with the assembler.
    """
    x, y, u, v = sy.symbols("x y u v")
    V = sy.Matrix([[1, vx, vy] for vx, vy in vertices])
    Cinv = V.inv()
    phis = [Cinv[0, a] + Cinv[1, a] * x + Cinv[2, a] * y for a in range(3)]
    grads = [sy.Matrix([Cinv[1, a], Cinv[2, a]]) for a in range(3)]

    (x1, y1), (x2, y2), (x3, y3) = vertices
    xm = x1 + u * (x2 - x1) + v * (x3 - x1)
    ym = y1 + u * (y2 - y1) + v * (y3 - y1)
    jac = sy.Abs((x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1))

    def tri_integral(expr):
        mapped = expr.subs({x: xm, y: ym}, simultaneous=True) * jac
        return sy.integrate(sy.integrate(mapped, (v, 0, 1 - u)), (u, 0, 1))

    Dm = sy.Matrix(2, 2, [sy.nsimplify(d) for d in np.asarray(D).ravel()])
    qm = sy.Matrix([sy.nsimplify(q[0]), sy.nsimplify(q[1])])
    out = sy.zeros(3, 3)
    for a in range(3):
        for b in range(3):
            stiff = tri_integral((grads[a].T * Dm * grads[b])[0, 0])
            mass = tri_integral(phis[a] * phis[b])
            adv = tri_integral((qm.T * grads[b])[0, 0] * phis[a])
            out[a, b] = stiff + sy.nsimplify(c0) * mass + adv
    return out


def _oracle_fem_matrix(grid, D, q, c0):
    """Global K assembled from symbolic local matrices and the documented
    node ordering (x fastest), independently of the package's connectivity."""
    dx = sy.Rational(1, 1) * sy.nsimplify(grid.L1) / grid.nx
    dy = sy.Rational(1, 1) * sy.nsimplify(grid.L2) / grid.ny
    lower = _symbolic_local([(0, 0), (dx, 0), (dx, dy)], D, q, c0)
    upper = _symbolic_local([(0, 0), (dx, dy), (0, dy)], D, q, c0)

    n = grid.node_count
    K = np.zeros((n, n))
    nxp = grid.nx + 1
    for j in range(grid.ny):
        for i in range(grid.nx):
            n00 = j * nxp + i
            n10 = n00 + 1
            n01 = n00 + nxp
            n11 = n01 + 1
            for conn, local in (((n00, n10, n11), lower), ((n00, n11, n01), upper)):
                for a in range(3):
                    for b in range(3):
                        K[conn[a], conn[b]] += float(local[a, b])
    return K


@pytest.mark.parametrize("D,q,c0", [
    (1.0, (0.0, 0.0), 0.0),
    (np.array([[2.0, 0.5], [0.5, 1.0]]), (0.0, 0.0), 0.3),
    (np.array([1e-2, 1e-3]), (1.0, 0.25), 0.5),
])
def test_fem_matrix_matches_symbolic_integration(D, q, c0):
    grid = build_grid(2, 3, 1.0, 0.9)
    vel = None if q == (0.0, 0.0) else q
    prob = assemble_fem(grid, D, velocity=vel, c0=c0)
    Dfull = np.atleast_1d(np.asarray(D, dtype=float))
    if Dfull.ndim == 1:
        Dfull = np.diag(Dfull if Dfull.size == 2 else [Dfull[0], Dfull[0]])
    K_oracle = _oracle_fem_matrix(grid, Dfull, q, c0)
    K = prob.K.to_scipy().toarray()
    np.testing.assert_allclose(K, K_oracle, rtol=1e-13, atol=1e-14)
    # generator rows: A = -K / lumped_mass (all-Neumann: no zeroed rows)
    A = prob.A.to_scipy().toarray()
    np.testing.assert_allclose(A, -K / prob.mass[:, None], rtol=1e-13, atol=1e-14)


def test_fem_lumped_mass():
    grid = build_grid(4, 5, 2.0, 1.0)
    prob = assemble_fem(grid, 1.0)
    # lumped masses sum to the domain area; interior node carries 6 triangles
    assert prob.mass.sum() == pytest.approx(2.0, rel=1e-14)
    interior = (grid.nx + 1) + 1  # node (1, 1)
    assert prob.mass[interior] == pytest.approx(6 * 0.5 * grid.dx * grid.dy / 3, rel=1e-14)


def test_fv_interior_stencil():
    # interior cell of a 4x4 grid: classic 5-point TPFA plus upwind advection
    grid = build_grid(4, 4, 1.0, 1.0)
    Dx, Dy = 1e-2, 1e-3
    qx, qy = 1.0, 0.0
    prob = assemble_fv(grid, np.array([Dx, Dy]), q_faces=FaceVelocities.constant(grid, qx, qy))
    A = prob.A.to_scipy().toarray()
    h = grid.dx
    c = 1 * grid.nx + 1  # cell (1, 1)
    left, right, down, up = c - 1, c + 1, c - grid.nx, c + grid.nx
    # A = -K/vol: diffusion gives D/h^2 couplings; qx>0 upwinds from the left
    assert A[c, left] == pytest.approx(Dx / h**2 + qx / h, rel=1e-12)
    assert A[c, right] == pytest.approx(Dx / h**2, rel=1e-12)
    assert A[c, down] == pytest.approx(Dy / h**2, rel=1e-12)
    assert A[c, up] == pytest.approx(Dy / h**2, rel=1e-12)
    assert A[c, c] == pytest.approx(-(2 * Dx + 2 * Dy) / h**2 - qx / h, rel=1e-12)


def test_fv_conservation_and_outflow():
    grid = build_grid(5, 4, 1.0, 1.0)
    # pure Neumann diffusion: every row of A sums to zero (no mass created)
    prob = assemble_fv(grid, 1.0)
    A = prob.A.to_scipy().toarray()
    np.testing.assert_allclose(A.sum(axis=1), 0.0, atol=1e-12)
    # with advection, a constant field is transported without net change
    # everywhere except the inflow column, whose boundary face carries zero
    # outside concentration: the left column drains at rate qx/dx
    prob = assemble_fv(grid, np.array([1e-2, 1e-3]),
                       q_faces=FaceVelocities.constant(grid, 1.0, 0.0))
    A = prob.A.to_scipy().toarray()
    rowsum = A.sum(axis=1)
    left = boundary_sites(grid, BoundaryTag.LEFT, "cells")
    rest = np.setdiff1d(np.arange(grid.cell_count), left)
    np.testing.assert_allclose(rowsum[rest], 0.0, atol=1e-12)
    np.testing.assert_allclose(rowsum[left], -1.0 / grid.dx, rtol=1e-12)


def test_generator_spectrum_nonpositive_real_part():
    # dense eigen-solve oracle on small grids (n <= 100)
    grid = build_grid(6, 6, 1.0, 1.0)
    fem = assemble_fem(grid, 1.0, c0=0.5)
    lam = np.linalg.eigvals(fem.A.to_scipy().toarray())
    assert lam.real.max() <= 1e-10
    grid = build_grid(8, 8, 1.0, 1.0)
    fv = assemble_fv(
        grid, np.array([1e-2, 1e-3]), q_faces=FaceVelocities.constant(grid, 1.0, 0.0),
        dirichlet={BoundaryTag.LEFT: 1.0}, c0=0.5,
    )
    lam = np.linalg.eigvals(fv.A.to_scipy().toarray())
    assert lam.real.max() <= 1e-10


def test_dirichlet_rows_frozen():
    grid = build_grid(4, 3, 1.0, 1.0)
    edges = {BoundaryTag.LEFT: 1.0, BoundaryTag.TOP: 0.25}
    for prob in (assemble_fem(grid, 1.0, dirichlet=edges), assemble_fv(grid, 1.0, dirichlet=edges)):
        A = prob.A.to_scipy().toarray()
        frozen = np.where(prob.dirichlet_mask)[0]
        np.testing.assert_array_equal(A[frozen, :], 0.0)
        left = set(boundary_sites(grid, BoundaryTag.LEFT, prob.where))
        top = set(boundary_sites(grid, BoundaryTag.TOP, prob.where))
        assert set(frozen) == left | top
        # shared corner takes TOP's value (TOP assembles after LEFT in the
        # fixed tag order); the rest of LEFT keeps its own value
        corner = left & top
        for k in left:
            assert prob.dirichlet_values[k] == (0.25 if k in corner else 1.0)
        # interior rows keep their couplings into the frozen DOFs
        assert np.abs(A[:, frozen]).sum() > 0


def test_apply_dirichlet_idempotent():
    grid = build_grid(4, 4, 1.0, 1.0)
    prob = assemble_fv(grid, 1.0, dirichlet={BoundaryTag.LEFT: 2.0})
    state = np.arange(prob.ndof, dtype=float)
    once = apply_dirichlet(prob, state)
    np.testing.assert_array_equal(once, apply_dirichlet(prob, once))
    assert np.all(once[prob.dirichlet_mask] == 2.0)
    untouched = ~prob.dirichlet_mask
    np.testing.assert_array_equal(once[untouched], state[untouched])
    with pytest.raises(InvalidArgumentError):
        apply_dirichlet(prob, np.zeros(3))


def test_quadrature_weights():
    grid = build_grid(5, 3, 2.0, 1.5)
    wn = quadrature_weights(grid, grid.node_count)
    wc = quadrature_weights(grid, grid.cell_count)
    assert wn.sum() == pytest.approx(3.0, rel=1e-14)
    assert wc.sum() == pytest.approx(3.0, rel=1e-14)
    # trapezoid: corner = 1/4 interior weight, edge = 1/2
    assert wn[0] == pytest.approx(0.25 * grid.dx * grid.dy)
    assert wn[1] == pytest.approx(0.5 * grid.dx * grid.dy)
    assert wn[grid.nx + 2] == pytest.approx(grid.dx * grid.dy)
    with pytest.raises(InvalidArgumentError):
        quadrature_weights(grid, 7)


def test_matrix_market_round_trip(tmp_path):
    grid = build_grid(5, 5, 1.0, 1.0)
    prob = assemble_fv(grid, np.array([1e-2, 1e-3]),
                       q_faces=FaceVelocities.constant(grid, 1.0, 0.25),
                       dirichlet={BoundaryTag.LEFT: 1.0})
    path = tmp_path / "A.mtx"
    save_matrix_market(prob.A, path, comment="generator")
    loaded = SparseOperator(scipy.io.mmread(path))
    np.testing.assert_allclose(loaded.to_scipy().toarray(),
                               prob.A.to_scipy().toarray(), rtol=0, atol=0)


def _with_int64_indices(A):
    """A copy of A whose CSR index arrays are int64 (the canonical
    constructor keeps int32 while the indices fit)."""
    B = SparseOperator(A.to_scipy())
    csr = B.to_scipy()
    csr.indptr, csr.indices = csr.indptr.astype(np.int64), csr.indices.astype(np.int64)
    return B


def test_matvec_bit_identical_to_csr_product():
    # SparseOperator.matvec accumulates into zeros with the operator's
    # compiled product kernel; it must give the bits of scipy's own product
    # csr @ x on the study generators, with int32 and int64 index arrays,
    # and on a strided operand too
    grid = build_grid(32, 32, 1.0, 1.0)
    fem = assemble_fem(grid, 1.0).A
    fv = assemble_fv(grid, np.array([1e-2, 1e-3]),
                     q_faces=FaceVelocities.constant(grid, 1.0, 0.25),
                     dirichlet={BoundaryTag.LEFT: 1.0}).A
    assert np.any(np.diff(fv.indptr) == 0)  # frozen Dirichlet rows are empty
    rng = np.random.default_rng(11)
    for A32 in (fem, fv):
        A64 = _with_int64_indices(A32)
        assert (A32.indices.dtype, A64.indices.dtype) == (np.int32, np.int64)
        for A in (A32, A64):
            for scale in (1e-6, 1.0, 1e6):
                x = scale * rng.standard_normal(A.n_cols)
                strided = np.repeat(x, 2)[::2]
                assert not strided.flags.c_contiguous
                want = A.to_scipy() @ x
                for got in (A.matvec(x), A.matvec(strided)):
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert got.tobytes() == want.tobytes()
        with pytest.raises(InvalidArgumentError):
            A32.matvec(np.zeros(A32.n_cols + 1))


def test_matvec_rejects_non_finite_operands():
    # the diagonal kernel multiplies its padding zeros by every operand
    # entry: on the 8x8 P1 generator an Inf at entry 8 would give a NaN row
    # that csr @ x does not, so matvec rejects the operand as the phi
    # actions do
    A = assemble_fem(build_grid(8, 8, 1.0, 1.0), 1.0).A
    assert A.add_product.func is sparse._dia_matvec
    for bad in (np.inf, -np.inf, np.nan):
        x = np.ones(A.n_cols)
        x[8] = bad
        with pytest.raises(InvalidArgumentError, match="NaN/Inf"):
            A.matvec(x)


def _banded_forms():
    """The uniformized form P of each study generator and of the P1
    generators with a consistent-mass shift and with advection: 5 and 7
    diagonals."""
    grid = build_grid(32, 32, 1.0, 1.0)
    generators = [build_problem(study).discrete.A for study in (
        linear_additive_study(), advection_study(), advection_study(heterogeneous=True))]
    generators += [assemble_fem(grid, 1.0, c0=0.5).A,
                   assemble_fem(grid, 1.0, velocity=(50.0, 20.0)).A]
    return [A.uniformized_form[0] for A in generators]


def test_product_kernels_give_the_csr_product_bits():
    # banded operators (d diagonals with d * n <= 2 nnz) take scipy's
    # diagonal kernel, unstructured ones its CSR kernel; either kernel gives
    # the bits of csr @ x accumulated from zero, and both kernels give the
    # same bits accumulated into a buffer holding stale values, with int32
    # and int64 index arrays
    rng = np.random.default_rng(12)
    unstructured = SparseOperator(
        sp.random(200, 200, density=0.1, random_state=rng) - sp.identity(200))
    for A, diagonals in zip(_banded_forms() + [unstructured], (5, 5, 5, 7, 7, None)):
        coo = A.to_scipy().tocoo()
        count = np.unique(coo.col - coo.row).size
        banded = diagonals is not None
        assert count == diagonals if banded else count * A.n_cols > 2 * A.nnz
        assert A.add_product.func is (sparse._dia_matvec if banded else sparse._csr_matvec)
        for B in (A, _with_int64_indices(A)):
            csr = B.to_scipy()
            candidates = (sparse._csr_kernel(csr), sparse._dia_kernel(csr), B.add_product)
            x = rng.standard_normal(B.n_cols)
            want = (csr @ x).tobytes()
            stale = rng.standard_normal(B.n_rows)
            accumulated = []
            for kernel in candidates:
                out = np.zeros(B.n_rows)
                kernel(x, out)
                assert out.tobytes() == want
                out = stale.copy()
                kernel(x, out)
                accumulated.append(out.tobytes())
            assert len(set(accumulated)) == 1
            np.testing.assert_allclose(np.frombuffer(accumulated[0]), stale + csr @ x,
                                       rtol=1e-14, atol=1e-14)
    empty = SparseOperator(sp.csr_matrix((4, 4)))
    assert empty.matvec(np.ones(4)).tobytes() == np.zeros(4).tobytes()


def test_assembly_validation():
    grid = build_grid(3, 3, 1.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        assemble_fem(grid, np.array([[1.0, 0.5], [0.2, 1.0]]))  # not symmetric
    with pytest.raises(InvalidArgumentError):
        assemble_fem(grid, np.array([[1.0, 2.0], [2.0, 1.0]]))  # not PD
    with pytest.raises(InvalidArgumentError):
        assemble_fv(grid, np.array([[1.0, 0.1], [0.1, 1.0]]))   # off-diagonal FV
    with pytest.raises(InvalidArgumentError):
        assemble_fv(grid, np.array([1.0, -1.0]))                # negative Dy
    with pytest.raises(InvalidArgumentError):
        FaceVelocities(np.zeros((3, 3)), np.zeros((3, 3))).validate(grid)


def test_dirichlet_takes_finite_values_on_known_tags():
    # Dirichlet values come as {BoundaryTag: value}; any other key, and a
    # value that is not a finite number, raises before assembly
    grid = build_grid(3, 3, 1.0, 1.0)
    for assemble in (assemble_fem, assemble_fv):
        for edges in ({"left": 1.0},                          # not a BoundaryTag
                      {BoundaryTag.LEFT: 1.0, 3: 0.0},
                      {BoundaryTag.LEFT: "dirichlet"},
                      {BoundaryTag.LEFT: None},
                      {BoundaryTag.TOP: np.nan},
                      {BoundaryTag.RIGHT: np.inf},
                      {BoundaryTag.LEFT: 1.0, BoundaryTag.BOTTOM: -np.inf}):
            with pytest.raises(InvalidArgumentError):
                assemble(grid, 1.0, dirichlet=edges)
        # integers and numpy scalars are numbers; an empty mapping freezes nothing
        prob = assemble(grid, 1.0, dirichlet={BoundaryTag.LEFT: 2, BoundaryTag.TOP: np.float64(0.5)})
        assert set(prob.dirichlet_values[prob.dirichlet_mask]) == {2.0, 0.5}
        assert not assemble(grid, 1.0, dirichlet={}).dirichlet_mask.any()


def test_velocity_is_one_constant_pair():
    # assemble_fem takes None or one finite (qx, qy) pair, assemble_fv None
    # or FaceVelocities; every other form raises
    grid = build_grid(3, 3, 1.0, 1.0)
    for velocity in (lambda x, y: (0.7 + 0.0 * x, -0.2 + 0.0 * y), (1.0,), (1.0, 0.5, 0.0),
                     "ab", 1.0, np.ones((2, 2)), (np.nan, 0.0), (0.0, np.inf), ("1", "2")):
        with pytest.raises(InvalidArgumentError):
            assemble_fem(grid, 1.0, velocity=velocity)
    for q_faces in ((1.0, 0.0), [1.0, 0.0], 1.0):
        with pytest.raises(InvalidArgumentError):
            assemble_fv(grid, 1.0, q_faces=q_faces)
    # a list, an array and numpy scalars give the tuple's bits
    want = assemble_fem(grid, 1.0, velocity=(0.7, -0.2)).K.data.tobytes()
    for velocity in ([0.7, -0.2], np.array([0.7, -0.2]), (np.float64(0.7), np.float64(-0.2))):
        assert assemble_fem(grid, 1.0, velocity=velocity).K.data.tobytes() == want


def test_rows_scaled_by_zero_come_out_empty():
    # the assemblers freeze Dirichlet rows by scaling them with 0: those
    # rows must hold no stored entries, explicit zeros included
    grid = build_grid(4, 4, 1.0, 1.0)
    K = assemble_fem(grid, 1.0, velocity=(1.0, 0.5)).K
    mask = np.zeros(K.n_rows, dtype=bool)
    mask[[0, 5, K.n_rows - 1]] = True
    factors = np.where(mask, 0.0, -2.0)
    A = K.scale_rows(factors)
    counts = np.diff(A.indptr)
    assert np.all(counts[mask] == 0) and np.all(counts[~mask] == np.diff(K.indptr)[~mask])
    assert np.all(A.data != 0)
    np.testing.assert_array_equal(A.dense(), factors[:, None] * K.dense())


def test_operator_rejects_non_finite_entries(tmp_path):
    # a NaN or Inf entry would reach the phi actions' step count and series
    # length as a bare ValueError or OverflowError; the constructor, and so
    # every entry point, raises the typed error instead
    nan_diagonal = np.diag([-1.0, np.nan, -1.0])
    inf_entry = np.array([[-1.0, np.inf], [0.0, -1.0]])
    for mat in (nan_diagonal, inf_entry, sp.csr_matrix(inf_entry)):
        with pytest.raises(InvalidArgumentError, match="NaN/Inf"):
            SparseOperator(mat)
    with pytest.raises(InvalidArgumentError, match="NaN/Inf"):   # inf + -inf = nan
        SparseOperator.from_coo(2, 2, [0, 0], [1, 1], [np.inf, -np.inf])
    path = tmp_path / "nan.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "2 2 2\n1 1 -1.0\n2 2 nan\n")
    with pytest.raises(InvalidArgumentError, match="NaN/Inf"):
        SparseOperator(scipy.io.mmread(path))
    # scale_rows builds through the constructor too
    A = SparseOperator(np.array([[-1.0, 1e300], [0.0, -1.0]]))
    with np.errstate(over="ignore"), pytest.raises(InvalidArgumentError, match="NaN/Inf"):
        A.scale_rows(np.array([1e10, 1.0]))
