"""No module of the package calls an arithmetic kernel whose rounding
depends on the host's CPU: BLAS and LAPACK (the ``@`` operator, ``np.dot``
and its kin, ``np.linalg``, ``Generator.multivariate_normal``) or numpy's
SIMD ``exp``.  ``test_golden.py`` runs the demo under other kernels to show
the outputs do not move; this guard names the site that would move them.
It is also what lets ``cli.main`` load numpy with a one-thread OpenBLAS
pool: with no BLAS call, OpenBLAS's thread count moves no output byte."""

import ast
from pathlib import Path

import miscuq

SRC = Path(miscuq.__file__).resolve().parent
BANNED = {"np.dot", "np.matmul", "np.inner", "np.vdot", "np.tensordot", "np.exp", "np.linalg"}


def dotted(node) -> str:
    """``a.b.c`` for an attribute chain on a name, '' for any other chain."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else ""


def host_kernel_sites(source: str) -> list[tuple[int, str]]:
    """(line, what) of each host-dependent kernel that ``source`` calls or names."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            sites.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr == "multivariate_normal":
            sites.append((node.lineno, ".multivariate_normal"))
        elif isinstance(node, ast.Attribute) and dotted(node) in BANNED:
            sites.append((node.lineno, dotted(node)))
    return sorted(sites)


def test_no_module_calls_blas_lapack_or_simd_exp():
    sites = [f"{path.name}:{line}: {what}" for path in sorted(SRC.glob("*.py"))
             for line, what in host_kernel_sites(path.read_text(encoding="utf-8"))]
    assert not sites, f"host-dependent kernels in miscuq: {sites}"


def test_guard_names_each_kind_of_site():
    source = "\n".join(["x = a @ b", "x @= b", "np.linalg.svd(m)", "np.dot(a, b)",
                        "gen.multivariate_normal(m, c)", "np.exp(x)", "np.tensordot(a, b)",
                        "np.einsum('i,i->', a, a)", "math.exp(1.0)", "np.linalg"])
    assert host_kernel_sites(source) == [
        (1, "@"), (2, "@"), (3, "np.linalg"), (4, "np.dot"), (5, ".multivariate_normal"),
        (6, "np.exp"), (7, "np.tensordot"), (10, "np.linalg")]
