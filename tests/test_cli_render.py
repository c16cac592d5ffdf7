"""CLI subcommands end to end, plus the SVG renderer."""

import hashlib
import io
import json
import sys
import time
import xml.etree.ElementTree as ET

import pytest

from convexblockers import (
    BlockerSpec,
    Context,
    Edge,
    SimplePath,
    parse_edge_set,
    realize,
    render_svg,
)
from convexblockers import cli, verification
from convexblockers.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------ basics


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_missing_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 1


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, "enumerate", "--m", "3", "--family", "spm", "--frob")
    assert code == 1


def test_missing_required_option(capsys):
    code, _, err = run(capsys, "enumerate", "--family", "spm")
    assert code == 1
    assert "--m" in err


def test_domain_error_exit_code(capsys):
    code, _, err = run(capsys, "enumerate", "--m", "1", "--family", "spm")
    assert code == 2
    assert "m" in err


def test_huge_m_is_domain_error(capsys):
    # too large for the range of vertex labels: an error message, not a traceback
    code, out, err = run(
        capsys, "enumerate", "--m", "99999999999999999999999", "--family", "spm", "--count-only"
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--m", "99999999999999999999999"),
        ("enumerate", "--m", "99999999999999999999999", "--family", "shp", "--count-only"),
        ("render", "--m", "99999999999999999999999", "--layer", "0-1"),
    ],
)
def test_huge_m_fails_before_any_work(capsys, monkeypatch, argv):
    # Context rejects an m whose edge indices exceed sys.maxsize, so none of
    # the work that grows with m starts
    def work(*args, **kwargs):
        raise AssertionError("work started for a huge m")

    for name in ("enumerate_spm", "enumerate_shp", "render_svg"):
        monkeypatch.setattr(cli, name, work)
    monkeypatch.setattr(verification, "family_system", work)
    monkeypatch.setattr(Context, "all_edges", property(work))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: half-order m=99999999999999999999999 is too large")


@pytest.mark.parametrize(
    "argv",
    [("enumerate", "--family", "shp", "--count-only"), ("blockers", "exact", "--family", "shp"), ("verify",)],
)
def test_shp_beyond_byte_offsets_is_domain_error(capsys, monkeypatch, argv):
    # H's vertex offsets are bytes, so 2m <= 256. enumerate_shp checks this
    # when it is called and verify builds H before M, so from m = 129 up
    # neither M nor the edge table is built first
    def work(*args, **kwargs):
        raise AssertionError("work started beyond H's cap")

    monkeypatch.setattr(verification, "enumerate_spm", work)
    monkeypatch.setattr(Context, "all_edges", property(work))
    for m in ("129", "2000000000"):
        code, out, err = run(capsys, *argv, "--m", m)
        assert code == 2 and out == ""
        assert err == f"error: H is enumerated with vertex offsets as bytes, so 2m <= 256; got m={m}\n"


FORMULA_REFUSAL = "the caterpillar family at m={} has more than 131072 members, the most realized at once (m <= 14)"
SYSTEM_REFUSAL = "family {} at m={} has more than 16777216 members, the most a set system is built from (m <= {})"
H_REFUSAL = SYSTEM_REFUSAL.format("shp", 12, 11)


@pytest.mark.parametrize(
    "argv, refusal",
    [
        (("blockers", "formula", "--m", "40"), FORMULA_REFUSAL.format(40)),
        (("blockers", "formula", "--m", "2000000000"), FORMULA_REFUSAL.format(2000000000)),
        (("verify", "--m", "12"), H_REFUSAL),
        (("blockers", "exact", "--m", "12", "--family", "shp"), H_REFUSAL),
    ],
)
def test_family_too_large_to_hold_is_refused_at_once(capsys, argv, refusal):
    # the refusal is decided by m alone, before any member is built
    started = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - started < 2
    assert (code, out, err) == (2, "", f"error: {refusal}\n")


def test_verify_keeps_the_reports_before_a_refused_m(capsys, monkeypatch, tmp_path):
    # a family cap of H at m = 3 stands in for the real one at m = 11
    monkeypatch.setitem(verification._MAX_M, "shp", 3)
    out_file = tmp_path / "reports.jsonl"
    code, out, err = run(capsys, "verify", "--m", "2", "--to", "5", "--out", str(out_file))
    assert code == 2 and out == ""
    assert err.endswith(f"error: {SYSTEM_REFUSAL.format('shp', 4, 3)}\n")
    assert [json.loads(line)["m"] for line in out_file.read_text().splitlines()] == [2, 3]


DRAWN_REFUSAL = "{} at m={} holds more than 65536 {}, the most built at once (m <= {})"


@pytest.mark.parametrize(
    "argv, refusal",
    [
        (("render", "--m", "2000000000", "--layer", "0-1"), DRAWN_REFUSAL.format("a figure", 2000000000, "vertices", 32768)),
        (("render", "--m", "32769", "--path", "0,1"), DRAWN_REFUSAL.format("a figure", 32769, "vertices", 32768)),
        (
            ("render", "--m", "100000", "--background", "dotted"),
            DRAWN_REFUSAL.format("a figure with --background", 100000, "vertices and edges", 180),
        ),
        (
            ("render", "--m", "181", "--background", "dotted", "--layer", "0-1"),
            DRAWN_REFUSAL.format("a figure with --background", 181, "vertices and edges", 180),
        ),
        (
            ("witness", "p0", "--m", "2000000000", "--j", "0", "--s", "0", "--t", "1"),
            DRAWN_REFUSAL.format("a witness path", 2000000000, "vertices", 32768),
        ),
        (
            ("witness", "prop1", "--m", "32769", "--k", "2", "--i", "1"),
            DRAWN_REFUSAL.format("a witness path", 32769, "vertices", 32768),
        ),
    ],
)
def test_figure_or_witness_too_large_is_refused_at_once(capsys, monkeypatch, argv, refusal):
    # decided by m and --background alone: no vertex, edge or path is built
    def work(*args, **kwargs):
        raise AssertionError("work started beyond the drawing bound")

    monkeypatch.setattr(cli, "render_svg", work)
    monkeypatch.setattr(Context, "all_edges", property(work))
    for kind, (_, names) in cli._WITNESSES.items():
        monkeypatch.setitem(cli._WITNESSES, kind, (work, names))
    started = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - started < 1
    assert (code, out, err) == (2, "", f"error: {refusal}\n")


def test_drawing_bound_is_the_largest_m_that_fits():
    # 2m vertices, and with a background 2m + m(2m - 1) vertices and edges
    assert 2 * cli._MAX_DRAWN_M == cli._MAX_DRAWN
    m = cli._MAX_BACKGROUND_M
    assert m * (2 * m + 1) <= cli._MAX_DRAWN < (m + 1) * (2 * m + 3)
    for background, largest in ((False, cli._MAX_DRAWN_M), (True, m)):
        cli._check_drawn("a figure", largest, background)
        with pytest.raises(ValueError, match=f"m <= {largest}"):
            cli._check_drawn("a figure", largest + 1, background)


def test_out_of_memory_is_domain_error(capsys, monkeypatch):
    def exhaust(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "verify_theorems", exhaust)
    code, out, err = run(capsys, "verify", "--m", "3")
    assert (code, out, err) == (2, "", "error: out of memory\n")


def test_too_deep_recursion_is_domain_error(capsys, monkeypatch):
    # M's enumerator nests one generator per chord, so from m = 992 on the
    # default recursion limit stops it before its first matching. Each level
    # slices a range, not a copy of the vertices, and the edge table is read
    # only for a first member, so even m = 2000000000 fails at once. A set
    # system of M is refused by its member cap before any of this starts.
    def work(*args, **kwargs):
        raise AssertionError("edge table built before M's first member")

    monkeypatch.setattr(Context, "all_edges", property(work))
    for m in ("992", "5000", "2000000000"):
        code, out, err = run(capsys, "enumerate", "--m", m, "--family", "spm", "--count-only")
        assert code == 2 and out == ""
        assert err.startswith("error: maximum recursion depth exceeded") and "Traceback" not in err
        code, out, err = run(capsys, "blockers", "exact", "--family", "spm", "--m", m)
        assert code == 2 and out == ""
        assert err == f"error: {SYSTEM_REFUSAL.format('spm', m, 15)}\n"


# --------------------------------------------------------------- enumerate


def test_enumerate_spm_count(capsys):
    code, out, _ = run(capsys, "enumerate", "--m", "6", "--family", "spm", "--count-only")
    assert code == 0
    assert out.strip() == "132"


def test_enumerate_shp_lines(capsys):
    code, out, _ = run(capsys, "enumerate", "--m", "2", "--family", "shp")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 8
    rec = json.loads(lines[0])
    assert rec["kind"] == "shp" and rec["m"] == 2
    assert len(rec["vertices"]) == 4
    assert len(rec["edges"]) == 3


def test_enumerate_spm_lines_valid_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--m", "3", "--family", "spm")
    lines = out.strip().split("\n")
    assert code == 0 and len(lines) == 5
    for line in lines:
        rec = json.loads(line)
        assert rec["kind"] == "spm"
        assert len(rec["edges"]) == 3


def test_enumerate_out_file(tmp_path, capsys):
    target = tmp_path / "spms.jsonl"
    code, out, _ = run(
        capsys, "enumerate", "--m", "2", "--family", "spm", "--out", str(target)
    )
    assert code == 0 and out == ""
    assert len(target.read_text().strip().split("\n")) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--m", "2", "--to", "9"),
        ("blockers", "exact", "--m", "9", "--family", "shp"),
        ("enumerate", "--m", "9", "--family", "spm"),
    ],
)
def test_unwritable_out_fails_before_any_work(tmp_path, capsys, monkeypatch, argv):
    # the --out file is opened before the first enumeration or solve, so a
    # path in a missing directory is a domain error at once, with no progress
    def work(*args, **kwargs):
        raise AssertionError("work started before --out was opened")

    for name in ("enumerate_spm", "enumerate_shp", "family_system", "verify_theorems"):
        monkeypatch.setattr(cli, name, work)
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "missing" / "x.jsonl"))
    assert code == 2 and out == ""
    assert "No such file or directory" in err
    assert "m=" not in err


# ------------------------------------------------------------------ output

# SHA-256 of the whole stdout of each command: every line and its bytes.
PINNED_STDOUT = {
    "enumerate --m 4 --family spm": "9ac78a0604082eb2a05c38c3abce2dbf147bd06f867daa5afc4c055b8d5e047e",
    "enumerate --m 4 --family shp": "b7214a991fd2b69249739cad90e1c687825954e74ad4e4ce3f003353ae2ef102",
    "blockers formula --m 4": "e04d5243a87a59d2c1962ee80a2f9b5e1e027ffacd8d73793b1b6d2d2d1e2e9e",
    "blockers exact --m 4 --family spm": "7ca69d8f65aaca4d12138ec1954c7c45d459b4b5ff897ec6789b3ce7984eb8ee",
    "blockers exact --m 4 --family shp": "1cfe26ec321bc07b8e85b85bd5957ff0afc7dd53b32d9990b6b359e4615e721e",
    "verify --m 2 --to 4": "5aa382aadc8d806327303fb9f4aadf4ba3ae16898ebc1d9192bc6dbd17a01191",
}


@pytest.mark.parametrize("command", list(PINNED_STDOUT))
def test_pinned_stdout(capsys, command):
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[command]


def test_enumerate_writes_each_line_as_it_is_made(monkeypatch):
    buf = io.StringIO()
    monkeypatch.setattr(sys, "stdout", buf)
    made = cli.enumerate_shp

    def watched(ctx):
        for i, path in enumerate(made(ctx)):
            # the lines of paths 0..i-1 are written before path i is made
            assert buf.getvalue().count("\n") == i
            yield path

    monkeypatch.setattr(cli, "enumerate_shp", watched)
    assert main(["enumerate", "--m", "3", "--family", "shp"]) == 0
    assert buf.getvalue().count("\n") == 48


def test_verify_writes_each_report_before_the_next_m(monkeypatch):
    buf = io.StringIO()
    monkeypatch.setattr(sys, "stdout", buf)
    verify = cli.verify_theorems
    started = []

    def watched(m, config=None):
        # the reports of the m values already done are written
        assert buf.getvalue().count("\n") == len(started)
        started.append(m)
        return verify(m, config)

    monkeypatch.setattr(cli, "verify_theorems", watched)
    assert main(["verify", "--m", "2", "--to", "4"]) == 0
    assert started == [2, 3, 4]
    assert [json.loads(line)["m"] for line in buf.getvalue().splitlines()] == [2, 3, 4]


# ---------------------------------------------------------------- blockers


def test_blockers_formula_single_spec(capsys):
    code, out, _ = run(capsys, "blockers", "formula", "--m", "6", "--spec", "0:3:1,2,4")
    assert code == 0
    assert out.strip() == "0-1,1-2,1-10,2-3,2-5,2-7"


@pytest.mark.parametrize("spec", ["4:2", "5:2", "0:3", "", "1:2:a"])
def test_blockers_formula_bad_spec_is_domain_error(capsys, spec):
    # the 4-gon has rotations 0..3 only, and t = 3 exceeds m = 2; an empty
    # spec is a malformed one, not a missing one, and a spec that is not all
    # integers is named in the message
    code, out, err = run(capsys, "blockers", "formula", "--m", "2", "--spec", spec)
    assert code == 2 and out == ""
    assert (f"bad spec text {spec!r}" if spec in ("", "1:2:a") else "out of range") in err


def test_blockers_formula_family_lines(capsys):
    code, out, _ = run(capsys, "blockers", "formula", "--m", "2")
    assert code == 0
    lines = [json.loads(x) for x in out.strip().split("\n")]
    assert len(lines) == 4
    for rec in lines:
        assert set(rec) == {"m", "spec", "edges"}
        assert rec["spec"]["t"] == 2
    rendered = {",".join(f"{a}-{b}" for a, b in rec["edges"]) for rec in lines}
    assert rendered == {"0-1,0-3", "0-1,1-2", "0-3,2-3", "1-2,2-3"}


@pytest.mark.parametrize("m", range(2, 8))
def test_blockers_formula_spec_realizes_its_edges(capsys, m):
    # each line's spec, read off its member's edges, realizes those edges
    code, out, _ = run(capsys, "blockers", "formula", "--m", str(m))
    assert code == 0
    ctx = Context(m)
    for rec in map(json.loads, out.splitlines()):
        edges = frozenset(Edge(a, b) for a, b in rec["edges"])
        assert realize(BlockerSpec(**rec["spec"]), ctx) == edges


def test_blockers_exact_generic(capsys):
    code, out, _ = run(capsys, "blockers", "exact", "--m", "3", "--family", "spm")
    assert code == 0
    rec = json.loads(out)
    assert rec["min_size"] == 3
    assert rec["status"] == "complete"
    assert len(rec["solutions"]) == 12
    assert rec["nodes"] > 0


def test_blockers_exact_shp_complete(capsys):
    code, out, _ = run(capsys, "blockers", "exact", "--m", "3", "--family", "shp")
    assert code == 0
    shp = json.loads(out)
    assert shp["status"] == "complete" and shp["min_size"] == 3
    code, out, _ = run(capsys, "blockers", "exact", "--m", "3", "--family", "spm")
    assert code == 0
    assert shp["solutions"] == json.loads(out)["solutions"]


def test_blockers_exact_has_no_algorithm_flag(capsys):
    code, _, err = run(
        capsys, "blockers", "exact", "--m", "3", "--family", "shp", "--algorithm", "generic"
    )
    assert code == 1
    assert "--algorithm" in err


def test_blockers_exact_node_limit_exit_code(capsys):
    code, out, _ = run(
        capsys,
        "blockers", "exact", "--m", "4", "--family", "spm", "--node-limit", "2",
    )
    assert code == 4
    assert json.loads(out)["status"] == "incomplete"


# ------------------------------------------------------------------ verify


def test_verify_single_m(capsys):
    code, out, err = run(capsys, "verify", "--m", "2")
    assert code == 0
    rec = json.loads(out)
    assert rec["m"] == 2 and rec["status"] == "pass"
    assert "m=2: status=pass" in err


def test_verify_range_and_determinism(capsys):
    code1, out1, err1 = run(capsys, "verify", "--m", "2", "--to", "3")
    code2, out2, err2 = run(capsys, "verify", "--m", "2", "--to", "3")
    assert code1 == code2 == 0
    assert out1 == out2  # stdout carries no timing
    assert len(out1.strip().split("\n")) == 2
    assert err1 != "" and err2 != ""  # timing lives on stderr


def test_verify_bad_range(capsys):
    code, _, err = run(capsys, "verify", "--m", "4", "--to", "3")
    assert code == 1


def test_verify_node_limit_incomplete(capsys):
    code, out, _ = run(capsys, "verify", "--m", "3", "--node-limit", "2")
    assert code == 4
    assert json.loads(out)["status"] == "inconclusive"


@pytest.mark.parametrize(
    "argv",
    [("verify", "--m", "2"), ("blockers", "exact", "--m", "2", "--family", "spm")],
)
def test_negative_node_limit_is_domain_error(capsys, argv):
    code, out, err = run(capsys, *argv, "--node-limit", "-1")
    assert code == 2
    assert out == ""
    assert "node_limit must be nonnegative" in err


# ----------------------------------------------------------------- witness


def test_witness_prop1(capsys):
    code, out, _ = run(capsys, "witness", "prop1", "--m", "6", "--k", "3", "--i", "1")
    assert code == 0
    rec = json.loads(out)
    assert rec["vertices"] == [1, 2, 0, 11, 3, 10, 4, 9, 5, 8, 6, 7]
    assert rec["checks"]["is_shp"] is True
    assert rec["checks"]["contains"] == ["0-11"]
    assert sorted(rec["checks"]["avoids"]) == ["0-1", "8-9"]


def test_witness_p0(capsys):
    code, out, _ = run(
        capsys, "witness", "p0", "--m", "6", "--j", "3", "--s", "4", "--t", "7"
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["vertices"] == [4, 5, 6, 7, 3, 8, 2, 9, 1, 10, 0, 11]
    assert rec["checks"]["avoids"] == ["4-7"]


def test_witness_p1(capsys):
    code, out, _ = run(
        capsys,
        "witness", "p1", "--m", "6", "--j", "3",
        "--alpha", "1", "--alpha-prime", "2", "--beta", "6", "--beta-prime", "7",
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["vertices"] == [4, 3, 5, 2, 6, 7, 8, 1, 9, 0, 10, 11]
    assert sorted(rec["checks"]["avoids"]) == ["1-6", "2-7"]


def test_witness_bad_params_domain_error(capsys):
    code, _, _ = run(capsys, "witness", "prop1", "--m", "6", "--k", "6", "--i", "1")
    assert code == 2
    code, _, _ = run(capsys, "witness", "p0", "--m", "6", "--j", "3", "--s", "4", "--t", "6")
    assert code == 2


def test_witness_missing_params_usage_error(capsys):
    code, _, err = run(capsys, "witness", "prop1", "--m", "6")
    assert code == 1
    assert "--k" in err


# ------------------------------------------------------------------ config


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": 3, "family": "spm", "count_only": True}))
    code, out, _ = run(capsys, "--config", str(cfg), "enumerate")
    assert code == 0
    assert out.strip() == "5"


def test_config_flags_override_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": 3}))
    code, out, _ = run(
        capsys, "--config", str(cfg), "enumerate", "--m", "2", "--family", "spm",
        "--count-only",
    )
    assert code == 0
    assert out.strip() == "2"


def test_config_missing_file(tmp_path, capsys):
    code, _, _ = run(
        capsys, "--config", str(tmp_path / "nope.json"), "enumerate", "--m", "2",
        "--family", "spm",
    )
    assert code == 2


@pytest.mark.parametrize(
    "content, needle",
    [
        (b"nope", "Expecting value"),
        (b'{"m": 3}\xff', "can't decode byte 0xff"),
        (b"[3]", "must hold a JSON object"),
    ],
)
def test_config_error_names_the_file(tmp_path, capsys, content, needle):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(content)
    code, out, err = run(capsys, "--config", str(cfg), "verify")
    assert code == 2 and out == ""
    assert err.startswith(f"error: config file {cfg}") and needle in err


@pytest.mark.parametrize(
    "config, needle",
    [
        ({"m": 3, "node-limit": 2}, "'node-limit'"),
        ({"m": 3, "frobnicate": True}, "'frobnicate'"),
        ({"m": 3.5}, "'m'"),
        ({"m": "3"}, "'m'"),
        ({"m": 3, "node_limit": True}, "'node_limit'"),
        ({"m": 3, "family": "xyz"}, "'family'"),
        ({"m": 3, "count_only": 1}, "'count_only'"),
        ({"m": 3, "layer": "0-1"}, "'layer'"),
        ({"m": 3, "handler": "verify"}, "'handler'"),
    ],
)
def test_config_rejects_unknown_keys_and_bad_values(tmp_path, capsys, config, needle):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run(capsys, "--config", str(cfg), "verify")
    assert code == 1
    assert out == ""
    assert needle in err and len(err.strip().splitlines()) == 1


def test_config_accepts_every_option_kind(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"m": 2, "node_limit": 1000, "family": "spm", "labels": False, "layer": ["0-1"]})
    )
    code, out, _ = run(capsys, "--config", str(cfg), "verify")
    assert code == 0
    assert json.loads(out)["status"] == "pass"


# ------------------------------------------------------------------ render


def test_render_svg_structure():
    ctx = Context(6)
    layers = [
        (ctx.all_edges, "dotted"),
        (sorted(parse_edge_set("0-1,1-2,1-10,2-3,2-5,2-7")), "bold"),
        (SimplePath((1, 2, 0, 11, 3, 10, 4, 9, 5, 8, 6, 7)).edges(), "punctured"),
    ]
    svg = render_svg(6, layers)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    ns = {"s": "http://www.w3.org/2000/svg"}
    groups = root.findall("s:g", ns)
    assert [len(g.findall("s:line", ns)) for g in groups] == [66, 6, 11]
    texts = root.findall(".//s:text", ns)
    assert len(texts) >= 12  # vertex labels at least


def test_render_labels_off():
    svg = render_svg(2, [(sorted(parse_edge_set("0-1")), "solid")], show_labels=False)
    root = ET.fromstring(svg)
    ns = {"s": "http://www.w3.org/2000/svg"}
    assert root.findall(".//s:text", ns) == []


def test_render_rejects_unknown_style():
    with pytest.raises(ValueError, match="unknown style 'wavy'"):
        render_svg(2, [(sorted(parse_edge_set("0-1")), "wavy")])


def test_render_rejects_out_of_range_vertices():
    with pytest.raises(ValueError, match="layer 0 uses vertex labels outside 0..3"):
        render_svg(2, [(sorted(parse_edge_set("0-9")), "solid")])


def test_render_deterministic():
    layers = [(sorted(parse_edge_set("0-1,2-5")), "bold")]
    assert render_svg(3, layers, highlight_angles=True) == render_svg(3, layers, highlight_angles=True)


def test_render_cli_file_and_stdout(tmp_path, capsys):
    code, out, _ = run(
        capsys, "render", "--m", "6",
        "--layer", "0-1,1-2,1-10,2-3,2-5,2-7:bold",
        "--path", "1,2,0,11,3,10,4,9,5,8,6,7:punctured",
        "--background", "dotted",
    )
    assert code == 0
    assert out.startswith("<?xml")
    ET.fromstring(out)
    target = tmp_path / "fig.svg"
    code2, out2, _ = run(
        capsys, "render", "--m", "6", "--layer", "0-1:bold", "--out", str(target)
    )
    assert code2 == 0 and out2 == ""
    ET.fromstring(target.read_text())


def test_render_cli_requires_content(capsys):
    code, _, _ = run(capsys, "render", "--m", "3")
    assert code == 1


@pytest.mark.parametrize("path", ["0,x", "0,,1", ""])
def test_render_cli_bad_path_names_its_text(capsys, path):
    code, out, err = run(capsys, "render", "--m", "3", "--path", path)
    assert code == 2 and out == ""
    assert f"bad path text {path!r}" in err


@pytest.mark.parametrize("path", ["9", "1,9"])
def test_render_cli_names_an_out_of_range_path_vertex(capsys, path):
    code, out, err = run(capsys, "render", "--m", "3", "--path", path)
    assert code == 2 and out == ""
    assert "vertex label 9 out of range 0..5" in err


def test_render_cli_empty_background_is_domain_error(capsys):
    code, out, err = run(capsys, "render", "--m", "3", "--layer", "0-1", "--background", "")
    assert code == 2 and out == ""
    assert "unknown style ''" in err


def test_render_cli_no_labels(capsys):
    code, out, _ = run(capsys, "render", "--m", "2", "--layer", "0-1", "--no-labels")
    assert code == 0
    assert "<text" not in out
