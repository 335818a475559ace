"""README's tables and commands name exactly what the code registers."""
import importlib
import re
import shlex
from pathlib import Path

from odolab import cli, space
from odolab.criteria import _RULES

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def section(title: str) -> str:
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_criterion_table_names_every_rule():
    rows = [line.split("|") for line in section("Criterion ids").splitlines()
            if line.startswith("| `")]
    ids = [i for row in rows for i in re.findall(r"`([^`]+)`", row[1])]
    assert sorted(ids) == sorted(_RULES)
    # rows marked "criteria.evaluate only" are the ids classify never runs
    classified = set(cli.ODOMETER_CRITERIA + cli.TRANSLATION_CRITERIA
                     + cli.SHIFT_CRITERIA)
    api_only = {i for row in rows if "`criteria.evaluate` only" in row[2]
                for i in re.findall(r"`([^`]+)`", row[1])}
    assert api_only == set(_RULES) - classified


def test_readme_witness_list_names_every_cli_witness():
    items = section("Witness constructions").split("\n- ")[1:]
    names = [n for item in items
             for n in re.findall(r"`([^`]+)`", item.split(" — ", 1)[0])]
    assert sorted(names) == sorted(cli.WITNESSES)


def test_readme_command_block_parses_and_loads_its_specs():
    block = section("Command line").split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("odolab ")]
    assert len(lines) == 8
    parser = cli.build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        if getattr(args, "spec", None) is not None:
            cli.load_spec(args.spec)


def test_readme_dotted_names_resolve():
    # `module.name` for an odolab module, `Class.name` for a space class;
    # other dotted names (`fractions.Fraction`) are not odolab's
    modules = {p.stem for p in Path(cli.__file__).parent.glob("[!_]*.py")}
    checked, missing = 0, []
    for name in sorted(set(re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)`", README))):
        head, *rest = name.split(".")
        if head in modules:
            obj = importlib.import_module(f"odolab.{head}")
        elif isinstance(getattr(space, head, None), type):
            obj = getattr(space, head)
        else:
            continue
        checked += 1
        for part in rest:
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(name)
    assert checked and missing == []
