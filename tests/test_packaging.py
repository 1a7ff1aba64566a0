"""CI installs the runtime the byte pins were taken on, and pyproject.toml's ranges admit it."""

import operator
import re
import tomllib

import cli_contract

ROOT = cli_contract.TESTS.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
COMPARE = {">=": operator.ge, "<=": operator.le, ">": operator.gt, "<": operator.lt,
           "==": operator.eq, "!=": operator.ne}


def canonical(name: str) -> str:
    return re.sub(r"[-_.]+", "-", name).lower()


def release(version: str) -> tuple[int, ...]:
    """A plain release "2.4" as (2, 4, 0, 0), so that releases of any length compare."""
    parts = tuple(int(part) for part in version.strip().split("."))
    return parts + (0,) * (4 - len(parts))


def admits(specifier: str, version: str) -> bool:
    """Whether `version` meets every clause of a specifier such as ">=2.4,<3" ("" admits all)."""
    clauses = [re.fullmatch(r"\s*([<>=!]=?)\s*([\d.]+)\s*", clause)
               for clause in specifier.split(",") if clause.strip()]
    assert all(clauses), f"unsupported specifier {specifier!r}"
    return all(COMPARE[op](release(version), release(bound)) for op, bound in (c.groups() for c in clauses))


def test_ci_installs_the_pins_and_the_declared_ranges_admit_them():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = [re.fullmatch(r"([A-Za-z0-9_.-]+)(.*)", requirement).groups()
                for requirement in project["dependencies"] + project["optional-dependencies"]["test"]]
    pinned = {}
    for name, sep, version in cli_contract.pins():
        assert sep == "==", f"constraints.txt: {name!r} is not a name==version line"
        pinned.setdefault(canonical(name), []).append(version)
    for name, specifier in declared:
        versions = pinned.get(canonical(name), [])
        assert len(versions) == 1, f"constraints.txt pins {name} {len(versions)} times, not once"
        assert admits(specifier, versions[0]), f"{name}=={versions[0]} is outside {name}{specifier}"

    workflow = WORKFLOW.read_text()
    installs = [line for line in workflow.splitlines() if "pip install" in line]
    assert installs and all("-c constraints.txt" in line for line in installs), installs

    floor = project["requires-python"]
    pythons = [version for line in workflow.splitlines() if "python-version:" in line
               for version in re.findall(r"\d+\.\d+", line)]
    assert pythons and all(admits(floor, version) for version in pythons), (floor, pythons)
