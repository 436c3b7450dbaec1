import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# id -> path: package modules by file name, tests and tools with their folder
MODULES = {p.name: p for p in sorted((ROOT / "src" / "stfr").glob("*.py"))
           if p.name != "__init__.py"}
MODULES.update({f"{d}/{p.name}": p for d in ("tests", "tools")
                for p in sorted((ROOT / d).glob("*.py"))})


def unused_imports(source: str) -> list:
    """Names bound by an import statement that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                imported.setdefault(alias.asname or alias.name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_detector_flags_unused_and_keeps_used():
    src = ("import math\nimport os.path\nfrom a import b as c, d\n"
           "def f():\n    from e import g\n    return os.path.join(d)\n")
    assert unused_imports(src) == ["c (line 3)", "g (line 5)", "math (line 1)"]


@pytest.mark.parametrize("path", list(MODULES.values()), ids=list(MODULES))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# module-level names of src/stfr that nothing in the package, its tools or
# its benchmark reads, and why each stays
UNREAD_BY_DESIGN = {
    "write_mesh": "writes the mesh file format that read_mesh parses",
    "gcl_residual": "GCL residual the geometry gates assert; ROADMAP item 8 "
                    "reports it per slab",
}


def unread_definitions(package: Path, readers: list) -> list:
    """Module-level functions and classes of `package`/*.py that no file of
    `readers` reads as a name or an attribute."""
    defined = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = f"{path.name}:{node.lineno}"
    read = set()
    for path in readers:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{name} ({where})" for name, where in defined.items()
                  if name not in read)


def test_unread_detector(tmp_path):
    (tmp_path / "a.py").write_text("class C:\n    pass\n\n\ndef f():\n"
                                   "    return g\n\n\ndef h():\n    pass\n")
    (tmp_path / "b.py").write_text("import a\n\nx = a.C()\n")
    package = list(tmp_path.glob("*.py"))
    assert unread_definitions(tmp_path, package) == ["f (a.py:5)", "h (a.py:9)"]


def test_every_package_name_is_read_outside_the_tests():
    # the allowed list holds exactly the names still unread
    package = ROOT / "src" / "stfr"
    readers = [p for d in (package, ROOT / "tools", ROOT / "stfrbench")
               for p in sorted(d.glob("*.py"))]
    unread = unread_definitions(package, readers)
    assert [u.split()[0] for u in unread] == sorted(UNREAD_BY_DESIGN), unread


# names deleted from src/stfr, and what does their job now
DELETED = {
    "grid_velocity_step": "spatial_geometry forms V_g from the step's end "
                          "positions, inside its own span",
    "_on_grid": "geometry._point_sets is the one cached table of corner "
                "shapes on tensor Gauss grids",
    "_tensor": "analysis._rule builds the tensor weights and interpolation",
    "st_quadrature_data": "analysis._quadrature, for the slab rule",
    "spatial_quadrature_data": "analysis._quadrature, for the spatial rule",
    "_complex": "the eigen-tables stay complex until _shared_bases forms the "
                "real tables the apply reads",
    "run_checks": "tier-1 gates its four properties: the gcl_residual gates "
                  "of test_geometry, test_freestream_marching_all_prescriptions, "
                  "test_freestream_deforming_100_steps and "
                  "test_equivalence_200_random_cases",
    "fvmol_step": "the FV-MOL oracle of test_stfv.py, which "
                  "test_equivalence_200_random_cases checks stfv_step_explicit "
                  "against",
    "MolField": "march_mol's steps pass the bare nodal array; StateField "
                "holds the final one",
    "MolMarchResult": "march_mol returns st_solver.MarchResult",
    "_stfv_run": "stfv.march_stfv marches the FV scheme and returns "
                 "st_solver.MarchResult; analysis.l2_error_cells measures it",
    "_stfv_interfaces": "stfv.interfaces, the one statement of the FV cells",
    "_cell_averages": "stfv.cell_averages, the seed and the exact averages "
                      "of the norm",
    "_vars_first": "solver states are variables-first end to end, so the "
                   "residuals run the kernels on them as they are",
    "_vars_last": "the residuals divide by -|J| in place, in their input's "
                  "layout",
}


def test_deleted_names_stay_gone():
    found = set()
    for path in sorted((ROOT / "src" / "stfr").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found.add(node.name)
            elif isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
    assert sorted(found & set(DELETED)) == []
