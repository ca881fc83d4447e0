"""The ``repro`` command line: its parser surface and the commands no
other test drives (``faults list|explain``, ``fuzz shrink``).

``SURFACE`` pins, for every subcommand path, each option's flags, dest,
default, choices, nargs and ``required``, so a change to how the parser is
built cannot silently change what it accepts.  ``--app`` is exempt from
the choices check: it takes prefixed ids (``fuzz:SEED``, ``trace:PATH``)
on every subcommand, so it has no ``choices``; ``APPS`` records the preset
list it once offered.
"""
import argparse
import glob
import json
import os

import pytest

from repro.harness.cli import build_parser, main as cli_main

PROTOS = ("adsm", "aec", "aec-broken", "aec-nolap", "munin", "munin-lap",
          "sc", "tmk", "tmk-lh")
SCALES = ("paper", "bench", "test")
APPS = ("is", "raytrace", "water-ns", "fft", "ocean", "water-sp")

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")

#: the rest of a minimal command line, per subcommand taking --app / --faults
APP_COMMANDS = {"run": [], "compare": [], "explain": [],
                "trace record": ["out"]}
FAULTS_COMMANDS = {"run": ["--app", "is"], "check": [],
                   "explain": ["--app", "is"],
                   "trace record": ["out", "--app", "is"],
                   "fuzz replay": ["3"], "fuzz shrink": ["3"], "sweep": []}

#: subcommand path -> option -> (dest, default, choices, nargs, required)
SURFACE = {
    '': {
        '<command>':
            ('command', None, ('run', 'check', 'compare', 'explain', 'trace',
             'fuzz', 'experiment', 'sweep', 'faults', 'cache'), None, True),
    },
    'cache': {
        '--cache-dir': ('cache_dir', None, None, None, True),
        'action': ('action', None, ('inspect', 'clear'), None, True),
    },
    'check': {
        '--faults': ('faults', None, None, None, False),
        '--json': ('json', None, None, None, False),
        '--protocols': ('protocols', ['aec', 'tmk'], PROTOS, '+', False),
        '--scale': ('scale', 'test', SCALES, None, False),
        '--update-set-size': ('update_set_size', 2, None, None, False),
        '--verbose -v': ('verbose', False, None, 0, False),
        'apps': ('apps', None, None, '*', True),
    },
    'compare': {
        '--app': ('app', None, APPS, None, True),
        '--protocols':
            ('protocols', ['tmk', 'aec-nolap', 'aec'], PROTOS, '+', False),
        '--scale': ('scale', 'test', SCALES, None, False),
        '--update-set-size': ('update_set_size', 2, None, None, False),
    },
    'experiment': {
        '--cache-dir': ('cache_dir', None, None, None, False),
        '--jobs': ('jobs', 1, None, None, False),
        '--scale': ('scale', 'test', SCALES, None, False),
        'name':
            ('name', None, ('table1', 'table2', 'table3', 'table4', 'fig3',
             'fig4', 'fig5', 'fig6', 'ablation-upset', 'ablation-traffic',
             'ablation-scalability', 'ablation-sensitivity',
             'ablation-robustness', 'all'), None, True),
    },
    'explain': {
        '--app': ('app', None, APPS, None, True),
        '--faults': ('faults', None, None, None, False),
        '--folded': ('folded', None, None, None, False),
        '--json': ('json', None, None, None, False),
        '--protocol': ('protocol', 'aec', PROTOS, None, False),
        '--scale': ('scale', 'test', SCALES, None, False),
        '--trace-out': ('trace_out', None, None, None, False),
        '--update-set-size': ('update_set_size', 2, None, None, False),
    },
    'faults': {
        'action': ('action', None, ('list', 'explain'), None, True),
        'plan': ('plan', None, None, '?', False),
    },
    'fuzz': {
        '<command>':
            ('fuzz_cmd', None, ('run', 'replay', 'shrink', 'corpus'), None,
             True),
    },
    'fuzz corpus': {
        '--protocols': ('protocols', ['aec', 'tmk'], PROTOS, '+', False),
        'dir': ('dir', 'tests/corpus', None, '?', False),
    },
    'fuzz replay': {
        '--faults': ('faults', None, None, None, False),
        '--protocol': ('protocol', None, PROTOS, None, False),
        '--scale': ('scale', 'test', SCALES, None, False),
        'spec': ('spec', None, None, None, True),
    },
    'fuzz run': {
        '--cache-dir': ('cache_dir', None, None, None, False),
        '--corpus-dir': ('corpus_dir', None, None, None, False),
        '--jobs': ('jobs', 1, None, None, False),
        '--json': ('json', None, None, None, False),
        '--max-shrink-runs': ('max_shrink_runs', 300, None, None, False),
        '--no-shrink': ('no_shrink', False, None, 0, False),
        '--plans':
            ('plans', ['none', 'lossy-1pct', 'crash-one-node'], None, '+',
             False),
        '--protocols': ('protocols', ['aec', 'tmk'], PROTOS, '+', False),
        '--scale': ('scale', 'test', SCALES, None, False),
        '--seed-start': ('seed_start', 0, None, None, False),
        '--seeds': ('seeds', 25, None, None, False),
        '--verbose -v': ('verbose', False, None, 0, False),
    },
    'fuzz shrink': {
        '--faults': ('faults', None, None, None, False),
        '--max-runs': ('max_runs', 400, None, None, False),
        '--out': ('out', None, None, None, False),
        '--protocol': ('protocol', None, PROTOS, None, False),
        '--scale': ('scale', 'test', SCALES, None, False),
        '--verbose -v': ('verbose', False, None, 0, False),
        'spec': ('spec', None, None, None, True),
    },
    'run': {
        '--app': ('app', None, None, None, True),
        '--check-consistency': ('check_consistency', False, None, 0, False),
        '--faults': ('faults', None, None, None, False),
        '--protocol': ('protocol', 'aec', PROTOS, None, False),
        '--scale': ('scale', 'test', SCALES, None, False),
        '--update-set-size': ('update_set_size', 2, None, None, False),
        '--verbose -v': ('verbose', False, None, 0, False),
    },
    'sweep': {
        '--cache-dir': ('cache_dir', None, None, None, False),
        '--check-consistency': ('check_consistency', False, None, 0, False),
        '--faults': ('faults', None, None, None, False),
        '--jobs': ('jobs', 1, None, None, False),
        '--metrics': ('metrics', False, None, 0, False),
        '--scale': ('scale', 'test', SCALES, None, False),
        '--verbose -v': ('verbose', False, None, 0, False),
        'experiments': ('experiments', None, None, '*', True),
    },
    'trace': {
        '<command>':
            ('trace_cmd', None, ('record', 'replay'), None, True),
    },
    'trace record': {
        '--app': ('app', None, None, None, True),
        '--faults': ('faults', None, None, None, False),
        '--protocol': ('protocol', 'aec', PROTOS, None, False),
        '--scale': ('scale', 'test', SCALES, None, False),
        '--update-set-size': ('update_set_size', 2, None, None, False),
        'out': ('out', None, None, None, True),
    },
    'trace replay': {
        '--protocol': ('protocol', None, PROTOS, None, False),
        '--verify': ('verify', False, None, 0, False),
        'trace': ('trace', None, None, None, True),
    },
}


def _surface(parser, path=()):
    """``SURFACE``'s shape, read back from a live parser."""
    rows = {}
    out = {" ".join(path): rows}
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if isinstance(action, argparse._SubParsersAction):
            rows["<command>"] = (action.dest, None, tuple(action.choices),
                                 None, action.required)
            for name, sub in action.choices.items():
                out.update(_surface(sub, path + (name,)))
            continue
        choices = action.choices
        rows[" ".join(action.option_strings) or action.dest] = (
            action.dest, action.default,
            None if choices is None else tuple(choices), action.nargs,
            action.required)
    return out


class TestParserSurface:
    def test_every_subcommand_and_option_is_pinned(self):
        got = _surface(build_parser())
        assert sorted(got) == sorted(SURFACE)
        for path, options in SURFACE.items():
            assert sorted(got[path]) == sorted(options), path
            for flag, want in options.items():
                have = got[path][flag]
                if flag == "--app":  # choices widened on purpose, below
                    have, want = have[:2] + have[3:], want[:2] + want[3:]
                assert have == want, (path, flag)

    def test_app_takes_prefixed_ids_everywhere(self):
        assert set(APP_COMMANDS) == {path for path, options in SURFACE.items()
                                     if "--app" in options}
        parser = build_parser()
        for path, rest in APP_COMMANDS.items():
            argv = path.split() + rest + ["--app", "fuzz:3"]
            assert parser.parse_args(argv).app == "fuzz:3", path



class TestFuzzArguments:
    """The fuzz commands validate protocols and plans as every other
    command does: a bad one is an argparse error (exit 2) before any
    run, not a failed cell or a traceback."""

    @pytest.mark.parametrize("argv", [
        ["fuzz", "run", "--protocols", "nope"],
        ["fuzz", "replay", "3", "--protocol", "nope"],
        ["fuzz", "run", "--plans", "nope"],
    ], ids=["run-protocols", "replay-protocol", "run-plans"])
    def test_bad_argument_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        assert "nope" in capsys.readouterr().err


class TestFaultsNone:
    def test_none_is_accepted_wherever_faults_is(self):
        assert set(FAULTS_COMMANDS) == {
            path for path, options in SURFACE.items() if "--faults" in options}
        parser = build_parser()
        for path, rest in FAULTS_COMMANDS.items():
            argv = path.split() + rest + ["--faults", "none"]
            assert parser.parse_args(argv).faults == "none", path

    def test_run_with_faults_none_is_fault_free(self, capsys):
        assert cli_main(["run", "--app", "is", "--faults", "none"]) == 0
        plain = capsys.readouterr().out
        assert cli_main(["run", "--app", "is"]) == 0
        assert plain == capsys.readouterr().out


class TestFaultsCommand:
    def test_list(self, capsys):
        assert cli_main(["faults", "list"]) == 0
        out = capsys.readouterr().out
        assert "lossy-1pct" in out and "crash-one-node" in out
        assert "NAME@SEED" in out

    def test_explain(self, capsys):
        assert cli_main(["faults", "explain", "lossy-1pct"]) == 0
        assert "lossy-1pct" in capsys.readouterr().out

    def test_explain_needs_a_known_plan(self, capsys):
        assert cli_main(["faults", "explain"]) == 2
        assert cli_main(["faults", "explain", "no-such-plan"]) == 2
        assert "unknown fault plan" in capsys.readouterr().err


class TestFuzzShrink:
    def test_shrinks_corpus_entry_and_writes_reproducer(self, tmp_path,
                                                        capsys):
        entry = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))[0]
        out = tmp_path / "min.json"
        rc = cli_main(["fuzz", "shrink", entry, "--max-runs", "20",
                       "--out", str(out)])
        assert rc == 0
        assert "minimal:" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert doc["found"]["protocol"] == "aec-broken"
        assert doc["found"]["plan"] == "none"

    def test_healthy_spec_is_a_usage_error(self, capsys):
        rc = cli_main(["fuzz", "shrink", "3", "--protocol", "aec",
                       "--max-runs", "5"])
        assert rc == 2
        assert "does not fail" in capsys.readouterr().err

    def test_missing_spec_file_is_a_usage_error(self, tmp_path):
        missing = str(tmp_path / "missing.json")
        assert cli_main(["fuzz", "shrink", missing]) == 2
