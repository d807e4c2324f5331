"""End-to-end command-line behavior: documents, exit codes, determinism."""

import hashlib
import json
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

TRIANGLE = "digraph 3 3\n0 1\n1 2\n2 0\n"
BI_TRIANGLE = "digraph 3 6\n0 1\n0 2\n1 0\n1 2\n2 0\n2 1\n"
PATH = "digraph 3 2\n0 1\n1 2\n"
DAG = "digraph 3 3\n0 1\n0 2\n1 2\n"
RAINBOW4 = "rainbow 4 4\n0-1\n2-3\n0-2,1-2\n0-3,1-3\n"


def run_cli(*args, files=None, tmp_path=None, timeout=60):
    """Run the CLI in a subprocess; one that outlives timeout seconds
    raises subprocess.TimeoutExpired, so a hang fails the test."""
    argv = [sys.executable, "-m", "cyclecert"]
    for a in args:
        if files and a in files:
            path = tmp_path / f"{abs(hash(a))}.txt"
            path.write_text(files[a])
            argv.append(str(path))
        else:
            argv.append(a)
    return subprocess.run(argv, capture_output=True, text=True, timeout=timeout)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestGirth:
    def test_triangle(self, tmp_path):
        r = run_cli("girth", write(tmp_path, "d.txt", TRIANGLE))
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["girth"] == 3
        assert doc["certificate"]["vertices"] == [0, 1, 2]
        assert doc["certificate"]["kind"] == "exact-girth"

    def test_acyclic(self, tmp_path):
        r = run_cli("girth", write(tmp_path, "d.txt", DAG))
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["girth"] == "inf"
        assert "certificate" not in doc

    def test_stdout_is_one_json_document(self, tmp_path):
        r = run_cli("girth", write(tmp_path, "d.txt", BI_TRIANGLE))
        assert json.loads(r.stdout)["girth"] == 2
        assert r.stdout == json.dumps(json.loads(r.stdout), indent=2, sort_keys=True) + "\n"


    def test_certificate_that_fails_revalidation_is_not_printed(self, tmp_path, monkeypatch, capsys):
        # In process, so the gate itself runs: a certificate the validator
        # refuses exits 1 with nothing on stdout.
        from cyclecert import cli

        monkeypatch.setattr(cli, "validate_cycle", lambda d, cert: False)
        assert cli.main(["girth", write(tmp_path, "d.txt", BI_TRIANGLE)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "counterexample: girth certificate failed re-validation before output\n"

class TestPeel:
    def test_bidirected_triangle(self, tmp_path):
        r = run_cli("peel", write(tmp_path, "d.txt", BI_TRIANGLE))
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["trace"]["phi_initial"] == {"num": 1, "den": 1}
        assert [s["vertex"] for s in doc["trace"]["steps"]] == [0]
        assert doc["certificate"]["kind"] == "two-phi"
        assert doc["certificate"]["vertices"] == [1, 2]
        assert doc["certificate"]["bound"] == {"num": 2, "den": 1}

    def test_peels_once(self, tmp_path, monkeypatch, capsys):
        # The certificate comes from the trace's own run.
        from cyclecert import cli, peeling

        calls = []
        run = peeling._run_peel

        def counting(*args, **kwargs):
            calls.append(args)
            return run(*args, **kwargs)

        monkeypatch.setattr(peeling, "_run_peel", counting)
        assert cli.main(["peel", write(tmp_path, "d.txt", BI_TRIANGLE)]) == 0
        assert json.loads(capsys.readouterr().out)["certificate"]["vertices"] == [1, 2]
        assert len(calls) == 1

    def test_sink_is_usage_error(self, tmp_path):
        r = run_cli("peel", write(tmp_path, "d.txt", PATH))
        assert r.returncode == 2
        assert r.stdout == ""
        assert "sink" in r.stderr


def rainbow_document(steps, **fields):
    """The CLI's stdout for a rainbow certificate of (edge, color) steps."""
    cert = {
        "kind": "rainbow",
        "length": len(steps),
        "steps": [{"color": c, "edge": list(e)} for e, c in steps],
    }
    return json.dumps({"certificate": cert, **fields}, indent=2, sort_keys=True) + "\n"


class TestRainbow:
    # The whole document is pinned, so a change in which certificate the
    # construction or the oracle prints fails here.
    def test_constructive(self, tmp_path):
        r = run_cli("rainbow", write(tmp_path, "r.txt", RAINBOW4))
        assert r.returncode == 0
        assert r.stdout == rainbow_document((((2, 3), 1), ((0, 3), 3), ((0, 2), 2)), bound=3)

    def test_oracle_mode(self, tmp_path):
        r = run_cli("rainbow", "--oracle", write(tmp_path, "r.txt", RAINBOW4))
        assert r.returncode == 0
        assert r.stdout == rainbow_document((((0, 2), 2), ((2, 3), 1), ((0, 3), 3)), rg=3)

    def test_family_count_mismatch_is_usage_error(self, tmp_path):
        r = run_cli("rainbow", write(tmp_path, "r.txt", "rainbow 3 2\n0-1\n1-2\n"))
        assert r.returncode == 2

    def test_oracle_mode_accepts_any_family_count(self, tmp_path):
        r = run_cli(
            "rainbow", "--oracle", write(tmp_path, "r.txt", "rainbow 3 2\n0-1\n1-2\n")
        )
        assert r.returncode == 0
        assert json.loads(r.stdout)["rg"] == "inf"


class TestTwoCycles:
    def test_bidirected_triangle(self, tmp_path):
        r = run_cli("two-cycles", write(tmp_path, "d.txt", BI_TRIANGLE))
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["intersection"] == [0]
        assert doc["p"] == 0
        assert not doc["degenerate"]

    def test_acyclic_is_usage_error(self, tmp_path):
        r = run_cli("two-cycles", write(tmp_path, "d.txt", DAG))
        assert r.returncode == 2

    @staticmethod
    def complete(n):
        arcs = [f"{u} {v}\n" for u in range(n) for v in range(n) if u != v]
        return f"digraph {n} {len(arcs)}\n" + "".join(arcs)

    def test_k7_runs_unchanged(self, tmp_path):
        # 2,365 cycles, under the pair oracle's cap; sha256 of its document
        # from before the cap existed.
        r = run_cli("two-cycles", write(tmp_path, "d.txt", self.complete(7)))
        assert r.returncode == 0
        assert hashlib.sha256(r.stdout.encode()).hexdigest() == (
            "07c281d28806a6d5b113b7cb44e2e1917a23509200c2d9ba1438b2c4e20ba362"
        )

    def test_k8_is_refused_at_the_cycle_cap(self, tmp_path):
        # 16,064 cycles: comparing every pair took about 30 s; the cap
        # refuses it while enumerating.
        r = run_cli("two-cycles", write(tmp_path, "d.txt", self.complete(8)), timeout=10)
        assert r.returncode == 3
        assert r.stdout == ""


class TestVerify:
    def test_small_labeled_run(self):
        r = run_cli(
            "verify", "--generator", "labeled", "--n", "1-3",
            "--checks", "two-phi,two-psi-strict",
        )
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["checked"] == {"two-phi": 28, "two-psi-strict": 28}
        assert doc["violations"] == []

    def test_default_checks_cover_generator(self):
        r = run_cli("verify", "--generator", "outmaps:1:1", "--n", "3")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["instances_generated"] == 8
        assert set(doc["checked"]) == {
            "two-phi", "two-psi-strict", "chc", "two-cycles",
            "deg2-girth", "eq1-identity",
        }

    def test_rainbow_generator(self):
        r = run_cli(
            "verify", "--generator", "rainbow:20", "--n", "4-5", "--seed", "3"
        )
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["checked"]["rainbow-bound"] == 40
        assert doc["violations"] == []

    def test_byte_stable_across_runs(self):
        args = (
            "verify", "--generator", "labeled", "--n", "1-3",
            "--checks", "two-phi,eq1-identity", "--seed", "0",
        )
        a = run_cli(*args)
        b = run_cli(*args)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_jobs_keep_stdout_and_report_progress_in_order(self):
        args = ("verify", "--generator", "labeled", "--n", "1-3", "--checks", "two-phi,chc")
        one = run_cli(*args, "--jobs", "1")
        two = run_cli(*args, "--jobs", "2")
        assert one.returncode == two.returncode == 0
        # The config's worker count is the only difference.
        assert one.stdout.count('"workers": 1') == 1
        assert two.stdout == one.stdout.replace('"workers": 1', '"workers": 2')
        # Serial: one shard per n; jobs 2: up to 8 per n, in task order.
        sizes = [(1, 1), (2, 1), (3, 1)], [(1, 1), (2, 4), (3, 8)]
        for r, per_n in zip((one, two), sizes):
            ns = [n for n, k in per_n for _ in range(k)]
            assert r.stderr.splitlines() == [
                f"progress: shard {i}/{len(ns)} done (n={n})" for i, n in enumerate(ns, 1)
            ]

    def test_cap_exit_code(self):
        r = run_cli("verify", "--generator", "labeled", "--n", "1-9")
        assert r.returncode == 3
        assert r.stdout == ""

    def test_unknown_filter_is_refused_before_any_shard(self):
        # The labeled population takes no VALUE, so a filter such as strong
        # is refused before a worker starts or a shard runs.
        r = run_cli("verify", "--generator", "labeled:strong", "--n", "1-4", "--jobs", "2")
        assert r.returncode == 2
        assert r.stdout == ""
        assert "error: bad generator 'labeled:strong'; use labeled" in r.stderr
        assert "Traceback" not in r.stderr
        assert "progress:" not in r.stderr

    def test_zero_jobs_is_usage_error(self):
        r = run_cli("verify", "--generator", "labeled", "--n", "2", "--jobs", "0")
        assert r.returncode == 2
        assert r.stdout == ""
        assert "workers must be >= 1" in r.stderr
        assert "Traceback" not in r.stderr

    def test_bad_check_name_is_usage_error(self):
        r = run_cli("verify", "--generator", "labeled", "--n", "2", "--checks", "nope")
        assert r.returncode == 2
        # A name given twice would run once yet be listed twice in the config.
        r = run_cli("verify", "--generator", "labeled", "--n", "2", "--checks", "two-phi,two-phi")
        assert r.returncode == 2
        assert r.stdout == ""
        assert "Traceback" not in r.stderr

    DIGRAPH = ["chc", "deg2-girth", "eq1-identity", "two-cycles", "two-phi", "two-psi-strict"]

    @pytest.mark.parametrize(
        "spelling, config",
        [
            ("nope", None),
            ("outmaps:1", None),
            ("outmaps:a:b", None),
            ("outmaps:1:2:3", None),
            ("rainbow:x", None),
            ("rainbow:0", None),
            ("labeled:odd", None),
            ("outmaps:0:2", None),
            ("outmaps:3:2", None),
            ("labeled:", {"generator": "labeled", "checks": DIGRAPH, "filter": "sinkless"}),
            ("outmaps:", {"generator": "outmaps", "checks": DIGRAPH, "dmin": 1, "dmax": 2}),
            ("labeled:strong", None),
            ("outmaps:1:3", {"generator": "outmaps", "checks": DIGRAPH, "dmin": 1, "dmax": 3}),
            ("rainbow:7", {"generator": "rainbow", "checks": ["rainbow-bound", "rd-claim"], "count": 7}),
            ("labeled:none", None),
            ("labeled:sinkless", None),
        ],
    )
    def test_generator_spellings(self, spelling, config):
        # Malformed or out-of-range spellings are usage errors; the rest
        # fill the report's config, defaults included.
        r = run_cli("verify", "--n", "2", "--generator", spelling)
        assert "Traceback" not in r.stderr
        if config is None:
            assert r.returncode == 2
            assert r.stdout == ""
        else:
            assert r.returncode == 0
            base = {"n_lo": 2, "n_hi": 2, "seed": 0, "workers": 1}
            assert json.loads(r.stdout)["config"] == {**base, **config}

    def test_mismatched_checks_are_usage_error(self):
        r = run_cli(
            "verify", "--generator", "labeled", "--n", "2",
            "--checks", "rainbow-bound",
        )
        assert r.returncode == 2


class TestSearchRatio:
    def test_exhaustive_small(self):
        r = run_cli("search-ratio", "--n", "3", "--budget", "1000")
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        top = doc["extremal"]["max_girth_psi_ratio"]
        assert top["ratio"] == {"num": 4, "den": 3}

    @pytest.mark.parametrize("budget", ["1", "2", "3"])
    def test_n2_small_budgets_finish(self, budget):
        # Every arc flip at n = 2 makes a sink, so a hill-climb here never
        # counted a step; the single sink-less digraph is searched exhaustively.
        r = run_cli("search-ratio", "--n", "2", "--budget", budget, timeout=30)
        assert r.returncode == 0
        doc = json.loads(r.stdout)
        assert doc["config"]["mode"] == "exhaustive"
        assert doc["instances_generated"] == 1

    def test_budget_zero(self):
        r = run_cli("search-ratio", "--n", "6", "--budget", "0")
        assert r.returncode == 0
        assert json.loads(r.stdout)["extremal"] == {}

    def test_bad_n_is_usage_error(self):
        r = run_cli("search-ratio", "--n", "1")
        assert r.returncode == 2

    def test_n_above_cap_is_refused(self):
        r = run_cli("search-ratio", "--n", "513", "--budget", "1")
        assert r.returncode == 3
        assert r.stdout == ""
        assert "Traceback" not in r.stderr


class TestUsage:
    def test_missing_file(self):
        r = run_cli("girth", "/nonexistent/file.txt")
        assert r.returncode == 2
        assert r.stdout == ""

    def test_malformed_input(self, tmp_path):
        r = run_cli("girth", write(tmp_path, "d.txt", "not a digraph\n"))
        assert r.returncode == 2

    def test_oversized_digraph_header_is_usage_error(self, tmp_path):
        r = run_cli("girth", write(tmp_path, "d.txt", "digraph 1000000000000000 0\n"))
        assert r.returncode == 2
        assert r.stdout == ""
        assert "Traceback" not in r.stderr

    def test_format_option_is_gone(self, tmp_path):
        r = run_cli("girth", "--format", "json", write(tmp_path, "d.txt", TRIANGLE))
        assert r.returncode == 2
        assert r.stdout == ""

    def test_bad_n_syntax(self):
        r = run_cli("verify", "--generator", "labeled", "--n", "x-y")
        assert r.returncode == 2

    def test_no_command_is_usage_error(self):
        r = run_cli()
        assert r.returncode == 2


def directed_cycle(n):
    """The cycle 0 -> 1 -> .. -> n-1 -> 0 in digraph text."""
    return f"digraph {n} {n}\n" + "".join(f"{v} {(v + 1) % n}\n" for v in range(n))


def out_degree_two(n, seed):
    """A seeded random digraph on n vertices, every out-degree 2, in text."""
    rng = random.Random(seed)
    arcs = []
    for u in range(n):
        arcs += [f"{u} {v}\n" for v in sorted(rng.sample([v for v in range(n) if v != u], 2))]
    return f"digraph {n} {len(arcs)}\n" + "".join(arcs)


class TestSizeRefusals:
    """Files no command could finish are refused with exit 2 or 3, never
    with a traceback; a 512-vertex file still runs."""

    @staticmethod
    def assert_refused(r, code):
        assert r.returncode == code
        assert r.stdout == ""
        assert "Traceback" not in r.stderr

    def test_2000_vertex_cycle_is_refused(self, tmp_path):
        r = run_cli("two-cycles", write(tmp_path, "d.txt", directed_cycle(2000)))
        self.assert_refused(r, 2)

    def test_1500_family_rainbow_is_refused(self, tmp_path):
        n = 1500
        fams = "".join(f"{min(v, (v + 1) % n)}-{max(v, (v + 1) % n)}\n" for v in range(n))
        r = run_cli("rainbow", write(tmp_path, "r.txt", f"rainbow {n} {n}\n{fams}"))
        self.assert_refused(r, 2)

    def test_long_cycle_search_is_refused_at_its_step_cap(self, tmp_path):
        # Its anchored search finds one cycle in 10^6 path extensions.
        r = run_cli("two-cycles", write(tmp_path, "d.txt", out_degree_two(512, 3)), timeout=10)
        self.assert_refused(r, 3)
        assert "path extensions" in r.stderr

    def test_17_vertex_all_size2_rainbow_is_refused(self, tmp_path):
        # Family v is {v-(v+1), v-(v+2)} mod 17: all size 2, no edge shared,
        # so the construction's base case asks the exact search, which is
        # capped at 16 vertices.
        n = 17
        fams = "".join(
            ",".join(f"{min(v, (v + k) % n)}-{max(v, (v + k) % n)}" for k in (1, 2)) + "\n"
            for v in range(n)
        )
        r = run_cli("rainbow", write(tmp_path, "r.txt", f"rainbow {n} {n}\n{fams}"))
        self.assert_refused(r, 3)
        assert "capped at 16 vertices" in r.stderr

    @pytest.mark.parametrize("command", ["girth", "peel", "two-cycles"])
    def test_512_vertex_cycle_runs(self, tmp_path, command):
        r = run_cli(command, write(tmp_path, "d.txt", directed_cycle(512)))
        assert r.returncode == 0
        assert json.loads(r.stdout)


README = (Path(__file__).parent.parent / "README.md").read_text()


class TestReadme:
    """The README's library example and command lines run as written."""

    def test_library_example(self, capsys):
        (code,) = re.findall(r"```python\n(.*?)```", README, re.S)
        exec(code, {})
        assert capsys.readouterr().out == "(1, 2) <= 2\n"

    def test_single_instance_commands(self, tmp_path):
        (block,) = re.findall(r"```sh\n(# digraph format.*?)```", README, re.S)
        ran = []
        for line in block.splitlines():
            if line.startswith("printf "):
                subprocess.run(line, shell=True, cwd=tmp_path, check=True)
            elif line.startswith("cyclecert "):
                argv = shlex.split(line.partition("#")[0])[1:]
                if argv[0] in ("girth", "peel", "two-cycles", "rainbow"):
                    argv = [str(tmp_path / a) if (tmp_path / a).exists() else a for a in argv]
                    r = run_cli(*argv)
                    assert r.returncode == 0, line
                    assert json.loads(r.stdout)
                    ran.append(" ".join(argv[:-1]))
        assert ran == ["girth", "peel", "two-cycles", "rainbow", "rainbow --oracle"]
