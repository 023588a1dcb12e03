import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

from edgeideals.cli import (
    EXIT_BAD_INPUT,
    EXIT_MISMATCH,
    EXIT_NOT_CLOSED,
    EXIT_OK,
    EXIT_RESOURCE,
    RunConfig,
    config_from_argv,
    run,
)
from edgeideals.closed import IntervalFacets, build_graph, format_facet_text
from edgeideals.enumerators import enumerate_closed_connected, random_closed
from edgeideals.errors import GraphInputError
from edgeideals.graphs import from_edge_list

from conftest import NINE_SCM, SEVEN_NOT_SCM, claw, format_edge_list, path_graph, relabel

SEVEN_EDGE_TEXT = b"""7
1 2
1 3
2 3
2 4
2 5
3 4
3 5
4 5
3 6
4 6
5 6
5 7
6 7
"""


def run_argv(argv, data=b""):
    return run(config_from_argv(argv), data)


def test_classify_nine_vertex_example():
    code, out, err = run_argv(["classify"], format_facet_text(NINE_SCM).encode())
    assert code == EXIT_OK and err == b""
    doc = json.loads(out)
    assert doc["schema"] == "1"
    assert doc["scm"] is True and doc["almost_cm"] is False and doc["dim"] == 10


def test_classify_edge_list_input():
    code, out, _ = run_argv(["classify"], SEVEN_EDGE_TEXT)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["facets"] == [[1, 3], [2, 5], [3, 6], [5, 7]]
    assert doc["scm"] is False


def test_recognize_claw_exit_2():
    code, out, err = run_argv(["recognize"], format_edge_list(claw()).encode())
    assert code == EXIT_NOT_CLOSED
    assert err.startswith(b"error 2 ")
    assert err.count(b"\n") == 1  # single-line diagnostic


def test_input_with_a_byte_order_mark():
    # a BOM before "closed" made the facet file read as a malformed edge list
    bom = b"\xef\xbb\xbf"
    for text in (SEVEN_EDGE_TEXT, b"closed 2 1\n1 2\n"):
        code, out, err = run_argv(["classify"], bom + text)
        assert (code, err) == (EXIT_OK, b"")
        assert out == run_argv(["classify"], text)[1]


def test_format_is_read_off_the_first_line_that_is_not_blank_or_a_comment():
    # blank lines, comments and line breaks of any kind may come first, after
    # a BOM or not; input with no such line is empty
    bom = b"\xef\xbb\xbf"
    for text in ("closed 3 2\n1 2\n2 3\n", "3\n1 2\n2 3\n"):
        want = run_argv(["facets"], text.encode())
        assert want[0] == EXIT_OK
        for lead in ("\n", " \t\n", "# 1 2\n", "#closed\n\n  # x\n", "\x0b", "\x85", "\u2028"):
            for head in (b"", bom):
                assert run_argv(["facets"], head + (lead + text).encode()) == want, (lead, text)
    for text in ("", " ", "\n\n", "\x0b\x85 \t\u2028", "# only a comment\n"):
        for head in (b"", bom):
            assert run_argv(["facets"], head + text.encode()) == (EXIT_BAD_INPUT, b"", b"error 1 empty input\n")


def test_malformed_input_exit_1():
    code, _, err = run_argv(["classify"], b"banana\n")
    assert code == EXIT_BAD_INPUT and err.startswith(b"error 1 ")
    code, _, err = run_argv(["classify"], b"")
    assert code == EXIT_BAD_INPUT
    code, _, err = run_argv(["classify"], b"closed 3 2\n1 2\n")
    assert code == EXIT_BAD_INPUT


def test_resource_cap_exit_3():
    big = format_facet_text_for(10)
    code, _, err = run_argv(["oracle"], big)
    assert code == EXIT_RESOURCE and err.startswith(b"error 3 ")


def format_facet_text_for(n):
    return f"closed {n} 1\n1 {n}\n".encode()


def test_oracle_variable_cap_comes_before_the_complex(monkeypatch):
    # the Stanley-Reisner complex of a path has exponentially many facets,
    # so the 2n <= max_vars cap must be checked before it is built
    import edgeideals.oracle as oracle_mod

    def refuse(*args, **kwargs):
        raise AssertionError("complex built past the variable cap")

    monkeypatch.setattr(oracle_mod, "stanley_reisner_complex", refuse)
    for command in ("oracle", "verify"):
        code, out, err = run_argv([command], format_edge_list(path_graph(10)).encode())
        assert code == EXIT_RESOURCE and out == b""
        assert err == b"error 3 depth sweep capped at 18 variables (got 20)\n"


def test_oracle_variable_cap_above_32_is_bad_input(monkeypatch):
    # the depth tables hold 32-bit masks, so a larger cap is refused before
    # any complex is built; 32 itself is accepted
    import edgeideals.oracle as oracle_mod

    k2 = b"closed 2 1\n1 2\n"
    code, out, _ = run_argv(["oracle", "--max-vars", "32"], k2)
    assert code == EXIT_OK and json.loads(out)["depth"] == 3

    def refuse(*args, **kwargs):
        raise AssertionError("complex built past a refused variable cap")

    monkeypatch.setattr(oracle_mod, "stanley_reisner_complex", refuse)
    for command in ("oracle", "verify"):
        code, out, err = run_argv([command, "--max-vars", "33"], k2)
        assert code == EXIT_BAD_INPUT and out == b""
        assert err == b"error 1 variable cap 33 exceeds the depth sweep's limit of 32\n"



def test_caps_below_one_are_bad_input(monkeypatch):
    # a cap below 1 is malformed input, refused before the graph is read,
    # through the argv front door and through a RunConfig alike
    import edgeideals.cli as cli_mod

    def refuse(*args, **kwargs):
        raise AssertionError("work started under a refused cap")

    monkeypatch.setattr(cli_mod, "_detect_and_parse", refuse)
    k2 = b"closed 2 1\n1 2\n"
    for command in ("oracle", "verify"):
        for flag, field in (("--max-vars", "max_vars"), ("--max-faces", "max_faces")):
            for value in (-1, 0):
                want = f"error 1 {flag} must be >= 1, got {value}\n".encode()
                assert run_argv([command, flag, str(value)], k2) == (EXIT_BAD_INPUT, b"", want)
                cfg = RunConfig(command, **{field: value})
                assert run(cfg, k2) == (EXIT_BAD_INPUT, b"", want)


def test_cutsets_json(seven_graph):
    code, out, _ = run_argv(["cutsets"], format_edge_list(seven_graph).encode())
    assert code == EXIT_OK
    doc = json.loads(out)
    assert {tuple(c["W"]) for c in doc["cutsets"]} == {
        (), (2, 3), (3, 4, 5), (5, 6), (2, 3, 5, 6),
    }
    for c in doc["cutsets"]:
        assert c["dim"] == 7 - len(c["W"]) + c["c"]


def test_facets_text_output():
    code, out, _ = run_argv(["facets", "--facet-text"], SEVEN_EDGE_TEXT)
    assert code == EXIT_OK
    assert out == format_facet_text(SEVEN_NOT_SCM).encode()


def test_verify_small_sweep_exit_0():
    from edgeideals.enumerators import enumerate_closed_connected, random_closed

    for F in enumerate_closed_connected(5):
        code, out, err = run_argv(["verify"], format_facet_text(F).encode())
        assert code == EXIT_OK, (F.facets, err)
        assert json.loads(out)["agree"] is True


def test_verify_catches_corrupted_classifier(monkeypatch):
    # a classifier build that lies about sequential CM-ness must trip exit 4
    import edgeideals.cli as cli_mod
    from edgeideals.classify import classify_facets as real

    def corrupted(F):
        c = real(F)
        object.__setattr__(c, "scm", not c.scm)
        return c

    monkeypatch.setattr(cli_mod, "classify_facets", corrupted)
    code, out, err = run_argv(["verify"], format_facet_text(SEVEN_NOT_SCM).encode())
    assert code == EXIT_MISMATCH
    assert err.startswith(b"error 4 ")
    doc = json.loads(out)
    assert doc["agree"] is False
    assert any(m["field"] == "scm" for m in doc["mismatches"])


def test_verify_checks_two_clique_depth(monkeypatch):
    import edgeideals.cli as cli_mod
    from edgeideals.oracle import oracle_classify_facets as real

    def corrupted(F, **kw):
        rep = real(F, **kw)
        object.__setattr__(rep, "depth", rep.depth - 1)
        object.__setattr__(rep, "almost_cm", rep.depth >= rep.dim_quotient - 1)
        object.__setattr__(rep, "approx_cm", rep.almost_cm and rep.scm)
        return rep

    monkeypatch.setattr(cli_mod, "oracle_classify_facets", corrupted)
    code, out, err = run_argv(["verify"], b"closed 4 2\n1 3\n2 4\n")
    assert code == EXIT_MISMATCH
    doc = json.loads(out)
    assert any(m["field"] == "depth" for m in doc["mismatches"])


def test_enumerate_outputs():
    code, out, _ = run_argv(["enumerate", "--n", "4"])
    doc = json.loads(out)
    assert doc["count"] == 5
    code, out, _ = run_argv(["enumerate", "--n", "4", "--indecomposable"])
    assert json.loads(out)["count"] == 2
    # the one-facet chain is indecomposable at n = 1 too
    code, out, _ = run_argv(["enumerate", "--n", "1", "--indecomposable"])
    assert code == EXIT_OK and json.loads(out)["facets_list"] == [[[1, 1]]]
    code, out, err = run_argv(["enumerate", "--n", "5", "--random", "2", "--bias", "2.5"])
    assert code == EXIT_BAD_INPUT and out == b""
    assert err == b"error 1 density_bias must be in [0, 1], got 2.5\n"
    # refused whatever COUNT is, also when no chain is drawn, NaN included
    for extra, bias in ((["--random", "0"], "5"), ([], "5"), ([], "-0.5"),
                        (["--random", "1"], "nan"), ([], "nan"), (["--indecomposable"], "5")):
        code, out, err = run_argv(["enumerate", "--n", "4", "--bias", bias] + extra)
        assert code == EXIT_BAD_INPUT and out == b""
        assert err == f"error 1 density_bias must be in [0, 1], got {float(bias)}\n".encode()
    # the COUNT checks come first
    code, out, err = run_argv(["enumerate", "--n", "4", "--random", "20001", "--bias", "5"])
    assert code == EXIT_RESOURCE and out == b""
    code, out, err = run_argv(["enumerate", "--n", "4", "--random", "-1", "--bias", "5"])
    assert code == EXIT_BAD_INPUT and err == b"error 1 --random COUNT must be >= 0, got -1\n"
    # random chains are drawn without the indecomposability filter, so the
    # combination is refused instead of ignoring --indecomposable
    code, out, err = run_argv(["enumerate", "--n", "8", "--random", "5", "--indecomposable"])
    assert code == EXIT_BAD_INPUT and out == b""
    assert err == b"error 1 --indecomposable lists chains exhaustively; it cannot take --random\n"
    code, out, _ = run_argv(["enumerate", "--n", "4", "--facet-text"])
    assert out.startswith(b"closed 4 3\n")
    code, out, _ = run_argv(["enumerate", "--n", "6", "--random", "3", "--seed", "9"])
    doc = json.loads(out)
    assert doc["count"] == 3


def test_enumerate_exhaustive_cap(monkeypatch):
    # exhaustive enumeration holds all Catalan(n-1) chains in memory, so it
    # stops at ENUMERATE_CAP before building any; --random has its own cap
    import edgeideals.cli as cli_mod

    assert cli_mod.ENUMERATE_CAP == 12
    monkeypatch.setattr(cli_mod, "enumerate_closed_connected", lambda n: iter(()))
    assert run_argv(["enumerate", "--n", "12"])[0] == EXIT_OK
    for extra in ([], ["--indecomposable"], ["--facet-text"]):
        code, out, err = run_argv(["enumerate", "--n", "13"] + extra)
        assert code == EXIT_RESOURCE and out == b""
        assert err == (b"error 3 exhaustive enumeration capped at n <= 12 (got n = 13); "
                       b"use --random for larger n\n")
    code, out, _ = run_argv(["enumerate", "--n", "64", "--random", "2"])
    assert code == EXIT_OK and json.loads(out)["count"] == 2


def test_enumerate_random_count_cap(monkeypatch):
    # --random COUNT holds COUNT chains in memory, so it stops at
    # RANDOM_COUNT_CAP before building any
    import edgeideals.cli as cli_mod

    assert cli_mod.RANDOM_COUNT_CAP == 20_000
    built = []
    chain = IntervalFacets(5, ((1, 5),))
    monkeypatch.setattr(cli_mod, "random_closed",
                        lambda n, seed, bias: built.append(seed) or chain)
    code, out, _ = run_argv(["enumerate", "--n", "5", "--random", "20000", "--facet-text"])
    assert code == EXIT_OK and out == b"closed 5 1\n1 5\n" * 20_000
    assert built == list(range(20_000))
    built.clear()
    for extra in ([], ["--facet-text"], ["--indecomposable"]):
        code, out, err = run_argv(["enumerate", "--n", "64", "--random", "20001"] + extra)
        assert code == EXIT_RESOURCE and out == b"" and built == []
        assert err == b"error 3 random enumeration capped at COUNT <= 20000 (got COUNT = 20001)\n"
    code, out, err = run_argv(["enumerate", "--n", "65", "--random", "10000000"])
    assert code == EXIT_BAD_INPUT and err == b"error 1 vertex count 65 outside 1..64\n"


def test_enumerate_rejects_vertex_counts_outside_1_to_64():
    for n in ("0", "-2", "65", "100"):
        for extra in ([], ["--random", "2"], ["--random", "2", "--facet-text"]):
            code, out, err = run_argv(["enumerate", "--n", n] + extra)
            assert code == EXIT_BAD_INPUT and out == b""
            assert err == f"error 1 vertex count {n} outside 1..64\n".encode()


def test_enumerate_rejects_negative_random_count():
    code, out, err = run_argv(["enumerate", "--n", "5", "--random", "-3"])
    assert code == EXIT_BAD_INPUT and out == b""
    assert err == b"error 1 --random COUNT must be >= 0, got -3\n"
    code, out, _ = run_argv(["enumerate", "--n", "5", "--random", "0"])
    assert code == EXIT_OK and json.loads(out)["count"] == 0


def test_recognize_output_pinned_on_shuffled_closed_graphs():
    # the whole stdout of `recognize`, labeling included, on every connected
    # closed graph with n <= 7 under a seeded label shuffle
    rng = random.Random(8)
    digest = hashlib.sha256()
    for n in range(1, 8):
        for F in enumerate_closed_connected(n):
            p = list(range(1, n + 1))
            rng.shuffle(p)
            H = relabel(build_graph(F), {v: p[v - 1] for v in range(1, n + 1)})
            code, out, err = run_argv(["recognize"], format_edge_list(H).encode())
            assert code == EXIT_OK, err
            digest.update(out)
    assert digest.hexdigest() == "784563b847c5e0ed4d4eb90d4fe93552792bed8367ffcb3f89c81494b709f46e"


def test_classify_output_pinned():
    # the whole stdout of `classify` over the corpus of the pinned `recognize`
    # digest: every connected closed graph with n <= 7, seeded label shuffle
    rng = random.Random(8)
    digest = hashlib.sha256()
    count = 0
    for n in range(1, 8):
        for F in enumerate_closed_connected(n):
            p = list(range(1, n + 1))
            rng.shuffle(p)
            H = relabel(build_graph(F), {v: p[v - 1] for v in range(1, n + 1)})
            code, out, err = run_argv(["classify"], format_edge_list(H).encode())
            assert code == EXIT_OK, err
            digest.update(out)
            count += 1
    assert count == 197
    assert digest.hexdigest() == "fd6df926e717efc4c210a8413bb78fc24e836b33692491e87195ef356d665394"

def disconnected_corpus():
    """Edge-list inputs for the pinned disconnected digest: 120 disjoint
    unions of 2-5 connected closed graphs with n <= 60, isolated vertices
    and single edges among the pieces, under a seeded label shuffle; then
    64 isolated vertices and a shuffled perfect matching on 64 vertices."""
    rng = random.Random(13)
    for _ in range(120):
        edges, n = [], 0
        for _ in range(rng.randint(2, 5)):
            kind = rng.random()
            size = 1 if kind < 0.2 else 2 if kind < 0.4 else rng.randint(1, 12)
            piece = build_graph(random_closed(size, rng.getrandbits(64), rng.random()))
            edges += [(u + n, v + n) for u, v in piece.edges()]
            n += size
        p = list(range(1, n + 1))
        rng.shuffle(p)
        yield from_edge_list(n, [(p[u - 1], p[v - 1]) for u, v in edges])
    yield from_edge_list(64, [])
    p = list(range(1, 65))
    rng.shuffle(p)
    yield from_edge_list(64, [(p[i], p[i + 1]) for i in range(0, 64, 2)])


def test_disconnected_output_pinned():
    # the whole stdout of `recognize`, `classify` and `facets --facet-text`
    # on disjoint unions: component order, labeling, blocks and dimension
    digest = hashlib.sha256()
    count = 0
    for G in disconnected_corpus():
        data = format_edge_list(G).encode()
        for argv in (["recognize"], ["classify"], ["facets", "--facet-text"]):
            code, out, err = run_argv(argv, data)
            assert code == EXIT_OK, err
            digest.update(out)
        count += 1
    assert count == 122
    assert digest.hexdigest() == "1d7fac37e56f868627f56f808c6dc3195ebdac9617423b7bdf72c526e7bd6617"


def test_verify_output_pinned():
    # the whole stdout of `verify` on every connected closed graph with n <= 6
    digest = hashlib.sha256()
    count = 0
    for n in range(1, 7):
        for F in enumerate_closed_connected(n):
            code, out, err = run_argv(["verify"], format_facet_text(F).encode())
            assert code == EXIT_OK, err
            digest.update(out)
            count += 1
    assert count == 65
    assert digest.hexdigest() == "55be89eb00bdef0fe53fab36e81ad3b450dce0ae15f23401ef07ee4dcaddca7b"


def cutsets_corpus():
    """Edge-list inputs for the pinned `cutsets` digest: every connected closed
    graph with n <= 7 under a seeded shuffle, 50 seeded G(n, p) with n <= 12,
    and the cycles C_5..C_9."""
    rng = random.Random(9)
    for n in range(1, 8):
        for F in enumerate_closed_connected(n):
            p = list(range(1, n + 1))
            rng.shuffle(p)
            yield relabel(build_graph(F), {v: p[v - 1] for v in range(1, n + 1)})
    for _ in range(50):
        n = rng.randint(1, 12)
        p = rng.random()
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        yield from_edge_list(n, [e for e in pairs if rng.random() < p])
    for n in range(5, 10):
        yield from_edge_list(n, [(i, i % n + 1) for i in range(1, n + 1)])


def test_cutsets_output_pinned():
    # the whole stdout of `cutsets`, closed and non-closed input alike
    digest = hashlib.sha256()
    for G in cutsets_corpus():
        code, out, err = run_argv(["cutsets"], format_edge_list(G).encode())
        assert code == EXIT_OK, err
        digest.update(out)
    assert digest.hexdigest() == "5eeb7eca0db4308f2ddae57b741de08331ca288351f1275e0d9f5e15a0d16447"


def test_byte_identical_reruns():
    for argv, data in [
        (["classify"], SEVEN_EDGE_TEXT),
        (["cutsets"], SEVEN_EDGE_TEXT),
        (["enumerate", "--n", "5"], b""),
    ]:
        a = run_argv(argv, data)
        b = run_argv(argv, data)
        assert a == b


def test_unknown_flag_is_input_error():
    with pytest.raises(Exception):
        config_from_argv(["classify", "--bogus"])


def test_each_subcommand_accepts_only_the_flags_it_reads():
    accepted = {
        "recognize": [], "cutsets": [], "classify": [], "facets": ["--facet-text"],
        "oracle": ["--max-vars", "--max-faces"], "verify": ["--max-vars", "--max-faces"],
    }
    for command, flags in accepted.items():
        for flag in ("--json", "--facet-text", "--max-vars", "--max-faces"):
            argv = [command, "--input", "g.txt", flag] + ([] if flag == "--facet-text" else ["5"])
            if flag in flags:
                config_from_argv(argv)
            else:
                with pytest.raises(GraphInputError, match="unrecognized arguments"):
                    config_from_argv(argv)
    with pytest.raises(GraphInputError, match="unrecognized arguments"):
        config_from_argv(["enumerate", "--n", "4", "--json"])
    cfg = config_from_argv(["enumerate", "--n", "4", "--random", "2", "--facet-text"])
    assert (cfg.n, cfg.random_count, cfg.facet_text, cfg.input_path) == (4, 2, True, None)
    cfg = config_from_argv(["oracle", "--max-vars", "8", "--max-faces", "64"])
    assert (cfg.input_path, cfg.max_vars, cfg.max_faces) == ("-", 8, 64)


def test_cli_import_leaves_out_fractions():
    import edgeideals

    src = os.path.dirname(os.path.dirname(os.path.abspath(edgeideals.__file__)))
    code = (f"import sys; sys.path.insert(0, {src!r}); import edgeideals.cli; "
            "print('fractions' in sys.modules, 'decimal' in sys.modules)")
    proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def test_subprocess_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "edgeideals", "classify"],
        input=format_facet_text(NINE_SCM).encode(),
        capture_output=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["scm"] is True

    proc = subprocess.run(
        [sys.executable, "-m", "edgeideals", "recognize"],
        input=format_edge_list(claw()).encode(),
        capture_output=True,
    )
    assert proc.returncode == EXIT_NOT_CLOSED


def test_cutsets_accepts_non_closed_graphs():
    # cut sets are defined for any graph; the claw has the single cut set {1}
    code, out, _ = run_argv(["cutsets"], format_edge_list(claw()).encode())
    assert code == EXIT_OK
    doc = json.loads(out)
    assert {tuple(c["W"]) for c in doc["cutsets"]} == {(), (1,)}
    rec = next(c for c in doc["cutsets"] if c["W"] == [1])
    assert rec["c"] == 3 and rec["dim"] == 4 - 1 + 3
