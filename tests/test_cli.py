"""CLI tests (``python -m repro``)."""

import pytest

from repro.cli import build_parser, main


def run_cli(*argv):
    return main(list(argv))


def test_datasets_listing(capsys):
    assert run_cli("datasets") == 0
    out = capsys.readouterr().out
    for name in ("soc", "bitcoin", "kron", "roadnet"):
        assert name in out


def test_info_generated(capsys):
    assert run_cli("info", "--generate", "kron:8") == 0
    out = capsys.readouterr().out
    assert "vertices" in out and "pseudo-diameter" in out


@pytest.mark.parametrize("prim", ["bfs", "sssp", "bc", "pagerank", "cc",
                                  "mst", "mis", "color", "triangles",
                                  "kcore", "labelprop"])
def test_run_every_primitive(capsys, prim):
    assert run_cli("run", prim, "--generate", "kron:8") == 0
    out = capsys.readouterr().out
    assert "simulated" in out


def test_run_named_dataset(capsys):
    assert run_cli("run", "bfs", "--dataset", "kron", "--scale", "0.0005") == 0
    assert "reached" in capsys.readouterr().out


def test_compare(capsys):
    assert run_cli("compare", "bfs", "--generate", "kron:8") == 0
    out = capsys.readouterr().out
    for fw in ("BGL", "Gunrock", "MapGraph"):
        assert fw in out


def test_generate_roundtrip(tmp_path, capsys):
    path = str(tmp_path / "g.mtx")
    assert run_cli("generate", "--generate", "road:10x10",
                   "--output", path) == 0
    assert run_cli("info", path) == 0
    assert "vertices" in capsys.readouterr().out


def test_generate_weighted_dimacs(tmp_path):
    path = str(tmp_path / "g.gr")
    assert run_cli("generate", "--generate", "kron:7", "--weighted",
                   "--output", path) == 0
    from repro.graph import io

    g = io.read_dimacs(path)
    assert g.edge_values is not None


def test_generator_specs():
    for spec in ("kron:8", "road:12x8", "hub:500", "powerlaw:500",
                 "random:500"):
        assert run_cli("info", "--generate", spec) == 0


def test_bad_generator_spec():
    with pytest.raises(SystemExit):
        run_cli("info", "--generate", "nope:1")


def test_missing_graph_source():
    with pytest.raises(SystemExit):
        run_cli("info")


def test_parser_has_all_commands():
    parser = build_parser()
    text = parser.format_help()
    for cmd in ("info", "generate", "run", "compare", "datasets"):
        assert cmd in text


def test_parser_has_serve_command():
    text = build_parser().format_help()
    assert "serve" in text


def test_run_json_output(capsys):
    import json

    assert run_cli("run", "bfs", "--generate", "kron:8", "--json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["primitive"] == "bfs"
    assert payload["counters"]["kernel_launches"] > 0
    assert set(payload["arrays"]) == {"labels", "preds"}
    for arr in payload["arrays"].values():
        assert set(arr) == {"dtype", "shape", "crc32"}


def test_run_json_deterministic(capsys):
    assert run_cli("run", "sssp", "--generate", "kron:8", "--json") == 0
    first = capsys.readouterr().out
    assert run_cli("run", "sssp", "--generate", "kron:8", "--json") == 0
    assert capsys.readouterr().out == first


def test_serve_text_report(capsys):
    assert run_cli("serve", "--generate", "kron:9", "--requests", "80",
                   "--seed", "5") == 0
    out = capsys.readouterr().out
    assert "cache hit rate" in out
    assert "batch sizes per primitive" in out


def test_serve_json_deterministic(capsys):
    import json

    args = ("serve", "--generate", "kron:9", "--requests", "80",
            "--seed", "5", "--json")
    assert run_cli(*args) == 0
    first = capsys.readouterr().out
    assert run_cli(*args) == 0
    assert capsys.readouterr().out == first
    payload = json.loads(first)
    assert payload["requests"] == 80
    assert payload["stale_hits"] == 0
    assert payload["hit_rate"] > 0


@pytest.mark.parametrize("extra", [("--engine", "fused"), ("--devices", "2")])
def test_serve_shards_rejects_single_pool_flags(extra, capsys):
    """--shards used to ignore these silently; now it is a usage error."""
    with pytest.raises(SystemExit) as exc:
        run_cli("serve", "--generate", "kron:8", "--requests", "10",
                "--shards", "2", *extra)
    assert exc.value.code == 2
    assert f"{extra[0]} has no effect with --shards" in capsys.readouterr().err


def test_serve_closed_loop_with_faults(capsys):
    assert run_cli("serve", "--generate", "kron:9", "--requests", "60",
                   "--seed", "3", "--mode", "closed", "--clients", "4",
                   "--updates", "1", "--fault-rate", "0.2") == 0
    assert "requests" in capsys.readouterr().out
