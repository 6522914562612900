from fractions import Fraction

import numpy as np
import pytest

from hvisolve import (
    Mesh1D,
    MeshNorms,
    SingularSystemError,
    TridiagonalSystem,
    assemble_mass,
    assemble_stiffness,
    factor_tridiagonal,
    solve_tridiagonal,
)
from oracles import dense_dual_norm, dense_mass_and_stiffness, to_dense


def test_mesh_validation():
    with pytest.raises(ValueError):
        Mesh1D(1, 1.0)
    with pytest.raises(ValueError):
        Mesh1D(4, 0.3)
    mesh = Mesh1D.uniform(5)
    assert mesh.nodes == pytest.approx([0.2, 0.4, 0.6, 0.8, 1.0])


def test_mass_entries():
    mesh = Mesh1D(4, 0.25)
    m = assemble_mass(mesh)
    assert np.allclose(m.diag, [1 / 6, 1 / 6, 1 / 6, 1 / 12])
    assert np.allclose(m.lower, 0.25 / 6)
    assert np.allclose(m.upper, 0.25 / 6)


def test_stiffness_entries_small_mesh():
    m = assemble_stiffness(Mesh1D(2, 0.5))
    assert np.allclose(m.diag, [4.0, 2.0])
    assert np.allclose(m.lower, [-2.0])
    assert np.allclose(m.upper, [-2.0])


def test_assembly_matches_closed_form_oracle():
    # the oracles build M and K from the closed-form entries, not from this assembly
    for n in (2, 7, 100):
        mesh = Mesh1D.uniform(n)
        m, k = dense_mass_and_stiffness(mesh)
        assert np.array_equal(to_dense(assemble_mass(mesh)), m)
        assert np.array_equal(to_dense(assemble_stiffness(mesh)), k)


def test_stiffness_interior_row_sums_vanish():
    sys_ = assemble_stiffness(Mesh1D.uniform(9))
    for i in range(1, sys_.size - 1):
        lo, dg, up = sys_.row(i)
        assert lo + dg + up == pytest.approx(0.0, abs=1e-12)


def test_stiffness_kills_linear_interpolant_in_interior():
    mesh = Mesh1D.uniform(17)
    k = assemble_stiffness(mesh)
    y = k.matvec(mesh.nodes)
    dense = to_dense(k) @ mesh.nodes  # dense matrix-vector oracle
    assert np.allclose(y, dense, atol=1e-12)
    assert np.max(np.abs(y[:-1])) <= 1e-12
    assert y[-1] == pytest.approx(1.0, abs=1e-12)


def test_scaled_galerkin_rows_exact_rational():
    # scale row j of (M/dt + K) by dt/dx: interior (1/6-d, 2/3+2d, 1/6-d),
    # last (1/6-d, 1/3+d), first (2/3+2d, 1/6-d), with d = dt/dx^2
    dx, dt = Fraction(1, 8), Fraction(1, 12)
    mesh = Mesh1D(8, dx)
    m, k = assemble_mass(mesh), assemble_stiffness(mesh)
    d = dt / dx**2
    scale = dt / dx

    def scaled(value_m, value_k):
        return value_m / dt * scale + value_k * scale

    for i in range(1, mesh.n - 1):
        (ml, md, mu), (kl, kd, ku) = m.row(i), k.row(i)
        assert scaled(ml, kl) == Fraction(1, 6) - d
        assert scaled(md, kd) == Fraction(2, 3) + 2 * d
        assert scaled(mu, ku) == Fraction(1, 6) - d
    (ml, md, _), (kl, kd, _) = m.row(mesh.n - 1), k.row(mesh.n - 1)
    assert scaled(ml, kl) == Fraction(1, 6) - d
    assert scaled(md, kd) == Fraction(1, 3) + d
    (_, md, mu), (_, kd, ku) = m.row(0), k.row(0)
    assert scaled(md, kd) == Fraction(2, 3) + 2 * d
    assert scaled(mu, ku) == Fraction(1, 6) - d


def test_solve_identity_system():
    sys_ = TridiagonalSystem(np.zeros(2), np.ones(3), np.zeros(2))
    assert np.allclose(solve_tridiagonal(sys_, np.array([1.0, 2.0, 3.0])), [1, 2, 3])


def test_solve_matches_dense_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = 8
        lower, upper = rng.uniform(-1, 1, n - 1), rng.uniform(-1, 1, n - 1)
        diag = 3.0 + rng.uniform(0, 1, n)  # diagonally dominant
        sys_ = TridiagonalSystem(lower, diag, upper)
        rhs = rng.uniform(-2, 2, n)
        x = solve_tridiagonal(sys_, rhs)
        assert np.allclose(x, np.linalg.solve(to_dense(sys_), rhs), atol=1e-10)
        residual = np.max(np.abs(sys_.matvec(x) - rhs))
        assert residual <= 1e-10 * (np.max(np.abs(rhs)) + 1.0)


def test_solve_mass_consistency():
    mesh = Mesh1D.uniform(13)
    m = assemble_mass(mesh)
    ones = np.ones(mesh.n)
    assert np.allclose(solve_tridiagonal(m, m.matvec(ones)), ones, atol=1e-12)


def test_solve_rejects_singular_pivot():
    sys_ = TridiagonalSystem(np.array([1.0]), np.array([0.0, 1.0]), np.array([1.0]))
    with pytest.raises(SingularSystemError):
        solve_tridiagonal(sys_, np.array([1.0, 1.0]))


def test_solve_multi_column_matches_vector_and_dense_solves():
    rng = np.random.default_rng(11)
    for n in (2, 3, 8, 17):
        lower, upper = rng.uniform(-1, 1, n - 1), rng.uniform(-1, 1, n - 1)
        diag = 3.0 + rng.uniform(0, 1, n)  # diagonally dominant
        sys_ = TridiagonalSystem(lower, diag, upper)
        factor = factor_tridiagonal(sys_)
        rhs = rng.uniform(-2, 2, (n, 5))
        x = solve_tridiagonal(sys_, rhs)
        assert x.shape == (n, 5)
        for j in range(5):
            assert np.array_equal(x[:, j], solve_tridiagonal(sys_, rhs[:, j]))
        dense = np.linalg.solve(to_dense(sys_), rhs)
        assert np.max(np.abs(x - dense)) <= 1e-12 * np.max(np.abs(dense))
        # one factor serves many solves, vectors and arrays alike, and each
        # equals a fresh elimination bit for bit
        for _ in range(20):
            b = rng.uniform(-2, 2, (n, 3))
            assert np.array_equal(factor.solve(b), solve_tridiagonal(sys_, b))
            assert np.array_equal(factor.solve(b[:, 0]), solve_tridiagonal(sys_, b[:, 0]))
        assert np.array_equal(factor.solve(rhs), x)
        # an (n, 1) array takes the one-column sweep, in the shape given, with
        # the bits of the vector solve and of that column of a wider solve
        one = factor.solve(rhs[:, :1])
        assert one.shape == (n, 1)
        assert one[:, 0].tobytes() == factor.solve(rhs[:, 0]).tobytes() == x[:, 0].tobytes()


def test_solve_multi_column_rejects_singular_pivot():
    first = TridiagonalSystem(np.array([1.0]), np.array([0.0, 1.0]), np.array([1.0]))
    second = TridiagonalSystem(np.array([1.0]), np.array([1.0, 1.0]), np.array([1.0]))
    for row, sys_ in enumerate((first, second)):
        with pytest.raises(SingularSystemError):
            solve_tridiagonal(sys_, np.ones((2, 3)))
        # the factor raises before any right-hand side is seen
        with pytest.raises(SingularSystemError, match="row %d" % row):
            factor_tridiagonal(sys_)


def test_factor_of_fraction_mesh_matches_float_mesh():
    # dx = 1/8: every float entry is the rounded exact one, so the Fraction
    # matrices factor and solve exactly like the float ones
    exact, rounded = Mesh1D(8, Fraction(1, 8)), Mesh1D(8, 0.125)
    rhs = np.random.default_rng(13).uniform(-2, 2, (8, 3))
    for assemble in (assemble_mass, assemble_stiffness):
        sys_ = assemble(exact)
        assert sys_.diag.dtype == object
        factor, want = factor_tridiagonal(sys_), factor_tridiagonal(assemble(rounded))
        assert factor == want
        assert np.array_equal(factor.solve(rhs), want.solve(rhs))
        assert np.array_equal(solve_tridiagonal(sys_, rhs[:, 0]), want.solve(rhs[:, 0]))


def test_solve_rejects_mismatched_rhs():
    sys_ = TridiagonalSystem(np.zeros(2), np.ones(3), np.zeros(2))
    for rhs in (np.ones(2), np.ones((4, 2)), np.ones((3, 2, 2))):
        with pytest.raises(ValueError):
            solve_tridiagonal(sys_, rhs)


def test_ldl_factor_reconstructs_and_whitens():
    mesh = Mesh1D.uniform(9)
    mk = assemble_mass(mesh) + assemble_stiffness(mesh)
    norms = MeshNorms(mesh)
    l_dense, d = to_dense(norms.L), norms.sqrt_d**2
    assert np.array_equal(np.diag(l_dense), np.ones(mesh.n))
    assert np.allclose(l_dense @ np.diag(d) @ l_dense.T, to_dense(mk), rtol=0, atol=1e-12)
    g = np.random.default_rng(4).uniform(-1, 1, (mesh.n, 3))
    assert np.allclose(solve_tridiagonal(norms.L, g), np.linalg.solve(l_dense, g),
                       rtol=0, atol=1e-12)


def test_matvec_row_stack_matches_rows():
    rng = np.random.default_rng(41)
    mesh = Mesh1D.uniform(9)
    stack = rng.uniform(-2, 2, (7, mesh.n))
    for sys_ in (assemble_mass(mesh), assemble_stiffness(mesh)):
        want = np.array([sys_.matvec(row) for row in stack])
        assert np.array_equal(sys_.matvec(stack), want)


def test_norms_of_row_stack_match_rows_and_dense():
    rng = np.random.default_rng(43)
    for n in (2, 5, 17):
        mesh = Mesh1D.uniform(n)
        kit = MeshNorms(mesh)
        m = to_dense(assemble_mass(mesh)).astype(float)
        mk = m + to_dense(assemble_stiffness(mesh)).astype(float)
        stack = rng.uniform(-2, 2, (6, n))
        h, v_sq = kit.h(stack), kit.v_sq(stack)
        assert h.shape == v_sq.shape == (6,)
        for c, h_c, v_c in zip(stack, h, v_sq):
            assert h_c == pytest.approx(kit.h(c), rel=1e-12)
            assert v_c == pytest.approx(kit.v_sq(c), rel=1e-12)
            assert h_c == pytest.approx(np.sqrt(c @ m @ c), rel=1e-12)
            assert v_c == pytest.approx(c @ mk @ c, rel=1e-12)


def test_norms_propagate_nan():
    kit = MeshNorms(Mesh1D.uniform(4))
    stack = np.array([[1.0, 2.0, 3.0, 4.0], [1.0, np.nan, 3.0, 4.0]])
    for norms in (kit.h(stack), kit.v_sq(stack)):
        assert np.isfinite(norms[0]) and np.isnan(norms[1])
    assert np.isnan(kit.h(stack[1])) and np.isnan(kit.v_sq(stack[1]))


def test_norms_zero_vector():
    mesh = Mesh1D.uniform(6)
    kit = MeshNorms(mesh)
    z = np.zeros(6)
    assert kit.h(z) == 0.0
    assert kit.v_sq(z) == 0.0
    assert np.linalg.norm(kit.whiten(z)) == 0.0


def test_norms_of_linear_interpolant():
    mesh = Mesh1D.uniform(200)
    kit = MeshNorms(mesh)
    c = mesh.nodes  # interpolates v(x) = x
    # exact: |v|_{L2}^2 = 1/3 and |v'|_{L2}^2 = 1 (P1 interpolation is exact here)
    assert kit.h(c) == pytest.approx(1 / np.sqrt(3), abs=1e-3)
    assert kit.v_sq(c) - kit.h(c) ** 2 == pytest.approx(1.0, abs=1e-3)


def test_dual_norm_riesz_isometry():
    mesh = Mesh1D.uniform(6)
    kit = MeshNorms(mesh)
    rng = np.random.default_rng(1)
    mk = assemble_mass(mesh) + assemble_stiffness(mesh)
    for _ in range(10):
        c = rng.uniform(-1, 1, mesh.n)
        g = mk.matvec(c)
        assert np.linalg.norm(kit.whiten(g)) == pytest.approx(np.sqrt(kit.v_sq(c)), rel=1e-10)


def test_dual_norm_matches_dense_oracle():
    mesh = Mesh1D.uniform(6)
    kit = MeshNorms(mesh)
    rng = np.random.default_rng(2)
    for _ in range(10):
        g = rng.uniform(-1, 1, mesh.n)
        assert np.linalg.norm(kit.whiten(g)) == pytest.approx(dense_dual_norm(mesh, g), abs=1e-10)


@pytest.mark.parametrize("n", range(2, 13))
def test_matrices_positive_definite(n):
    mesh = Mesh1D.uniform(n)
    for sys_ in (assemble_mass(mesh), assemble_stiffness(mesh)):
        assert np.min(np.linalg.eigvalsh(to_dense(sys_))) > 0


def test_dual_norm_of_h_functional_bounded_by_h_norm():
    # continuous embedding H into V*: |(c, .)_H|_{V*} <= |c|_H
    mesh = Mesh1D.uniform(11)
    kit = MeshNorms(mesh)
    m = assemble_mass(mesh)
    rng = np.random.default_rng(9)
    for _ in range(20):
        c = rng.uniform(-3, 3, mesh.n)
        assert np.linalg.norm(kit.whiten(m.matvec(c))) <= kit.h(c) * (1 + 1e-12)
