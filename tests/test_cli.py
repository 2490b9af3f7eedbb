"""Config validation, experiment dispatch, serialization, CLI exit codes."""

import csv
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blmix
from blmix.cli import main
from blmix.config import (EXPERIMENTS, ResultRecord, _sniff, emit,
                          format_value, parse_config, render_csv, render_json,
                          run)
from blmix.errors import ConfigError


def parse_csv(text: str) -> ResultRecord:
    """A record read back from ``render_csv``'s text, each cell typed as
    ``render_json`` types it."""
    reader = csv.reader(io.StringIO(text))
    header = tuple(next(reader))
    rows = tuple(tuple(_sniff(v) for v in row) for row in reader)
    digest = rows[0][-1] if rows else ""
    return ResultRecord("", str(digest), header, rows)


def parse_json(text: str) -> ResultRecord:
    """A record read back from ``render_json``'s text."""
    objs = json.loads(text)
    header = tuple(objs[0]) if objs else ()
    rows = tuple(tuple(o[c] for c in header) for o in objs)
    digest = rows[0][-1] if rows else ""
    return ResultRecord("", str(digest), header, rows)


def minimal(experiment="schedule", **extra) -> str:
    doc = {"experiment": experiment, "n": 100, "lambda": 0.25}
    doc.update(extra)
    return json.dumps(doc)


# ------------------------------------------------------------------- parsing

def test_parse_minimal_applies_defaults():
    cfg = parse_config(minimal())
    assert cfg.experiment == "schedule"
    assert cfg.n_grid == (100,)
    assert cfg.epsilons == (0.25, 0.5, 0.75)
    assert cfg.replicas == 10_000
    assert cfg.kappa1 == cfg.kappa4 == 10.0
    assert cfg.k_for(100) == 25


def test_parse_rejects_unknown_fields():
    with pytest.raises(ConfigError, match="unknown config fields"):
        parse_config(minimal(replics=5))


def test_parse_rejects_boundary_lambda():
    with pytest.raises(ConfigError, match=r"open interval \(0, 1/2\)"):
        parse_config(minimal(**{"lambda": 0.5}))
    with pytest.raises(ConfigError):
        parse_config('{"experiment":"schedule","n":100,"lambda":0.0}')
    with pytest.raises(ConfigError):
        parse_config('{"experiment":"schedule","n":100}')


def test_parse_grid_rules():
    with pytest.raises(ConfigError, match="not both"):
        parse_config(minimal(n_grid=[10, 20]))
    with pytest.raises(ConfigError):
        parse_config('{"experiment":"schedule","lambda":0.25}')
    with pytest.warns(UserWarning, match="duplicate n=100"):
        cfg = parse_config(
            '{"experiment":"schedule","n_grid":[100,200,100],"lambda":0.25}')
    assert cfg.n_grid == (100, 200)


def test_parse_value_validation():
    with pytest.raises(ConfigError, match="epsilons"):
        parse_config(minimal(epsilons=[0.5, 1.5]))
    with pytest.raises(ConfigError, match="replicas"):
        parse_config(minimal(replicas=0))
    with pytest.raises(ConfigError, match="explicit"):
        parse_config(minimal(k_rule="explicit"))
    with pytest.raises(ConfigError, match="kappa2"):
        parse_config(minimal(kappa2=-1.0))
    for name, value in [("n", True), ("replicas", True), ("master_seed", "abc"),
                        ("kappa1", "x"), ("x0", -1), ("k", 2.5)]:
        with pytest.raises(ConfigError, match=name):
            parse_config(minimal(**{name: value}))
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config("{nope")


def test_digest_is_stable_and_sensitive():
    a = parse_config(minimal())
    b = parse_config(minimal())
    c = parse_config(minimal(master_seed=999))
    assert a.digest == b.digest
    assert len(a.digest) == 8
    assert a.digest != c.digest


def test_digest_is_hashlib_sha256_of_the_canonical_blob():
    """The digest, from CPython's built-in SHA-256 module, is the first 8 hex
    digits of hashlib's SHA-256 of the canonical JSON, for every experiment
    and for strings outside ASCII, so file names and config_digest cells
    join with outputs written through hashlib."""
    configs = [parse_config(minimal(e)) for e in EXPERIMENTS]
    configs += [parse_config(json.dumps({
        "experiment": "coupling", "n_grid": [10, 2**53], "lambda": 0.125,
        "epsilons": [0.1], "master_seed": -7, "output_dir": "d\u00e9j\u00e0"}))]
    configs += [dataclasses.replace(configs[0], kind=kind)
                for kind in ("\u00e9t\u00e9", "\u6df7\u5408", "\U0001f3b2")]
    for cfg in configs:
        blob = json.dumps(cfg.canonical(), sort_keys=True,
                          separators=(",", ":"))
        assert cfg.digest == hashlib.sha256(blob.encode()).hexdigest()[:8]
    assert len({cfg.digest for cfg in configs}) == len(configs)


# ----------------------------------------------------------------- rendering

def test_format_value_contract():
    assert format_value(None) == ""
    assert format_value(True) == "true" and format_value(False) == "false"
    assert format_value(3) == "3"
    x = 0.1 + 0.2
    assert float(format_value(x)) == x  # 17 significant digits round-trip


def test_schedule_record_columns_and_digest_column():
    record = run(parse_config(minimal()))
    assert record.columns == ("n", "k", "lambda", "delta_n", "t_n", "s_n",
                              "p_lambda", "r_n", "config_digest")
    assert all(row[-1] == record.config_digest for row in record.rows)


def test_csv_json_csv_round_trip_is_byte_identical():
    record = run(parse_config(
        '{"experiment":"mixtime","n_grid":[100,200],"lambda":0.25}'))
    first = render_csv(record)
    assert first.endswith("\r\n")
    via_json = parse_json(render_json(parse_csv(first)))
    assert render_csv(via_json) == first


def test_emit_file_naming(tmp_path):
    record = run(parse_config(minimal()))
    paths = emit(record, str(tmp_path))
    names = sorted(os.path.basename(p) for p in paths)
    assert names == [f"schedule-{record.config_digest}.csv",
                     f"schedule-{record.config_digest}.json"]
    for p in paths:
        assert os.path.getsize(p) > 0


# --------------------------------------------------------------- CLI surface

def write_config(tmp_path, text: str) -> str:
    path = tmp_path / "config.json"
    path.write_text(text)
    return str(path)


def coupling_config(tmp_path, out_dir, seed=1, **extra) -> str:
    doc = {"experiment": "coupling", "n": 60, "lambda": 0.25, "replicas": 300,
           "horizon": 8, "master_seed": seed, "output_dir": str(out_dir)}
    doc.update(extra)
    return write_config(tmp_path, json.dumps(doc))


def test_cli_success_and_output(tmp_path, capsys):
    cfg = coupling_config(tmp_path, tmp_path)
    assert main(["coupling", "--config", cfg]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 2
    assert all(os.path.exists(p) for p in out)


def test_cli_exit_codes(tmp_path):
    bad = write_config(tmp_path, minimal(**{"lambda": 0.9}))
    assert main(["schedule", "--config", bad]) == 2
    big = write_config(tmp_path, json.dumps(
        {"experiment": "profile", "n": 5000, "lambda": 0.25,
         "start_policy": "all_states", "output_dir": str(tmp_path)}))
    assert main(["profile", "--config", big]) == 3
    # numpy's hypergeometric sampler takes urn counts below 10**9 only, and
    # approx builds laws of k + 1 points, so it stops at n = 10**7
    for experiment, n in (("coupling", 10**9), ("approx", 10**7 + 1)):
        cfg = write_config(tmp_path, json.dumps(
            {"experiment": experiment, "n": n, "lambda": 0.25, "replicas": 10,
             "horizon": 3, "output_dir": str(tmp_path)}))
        assert main([experiment, "--config", cfg]) == 3
    assert os.listdir(tmp_path) == ["config.json"]
    assert main(["schedule", "--config", str(tmp_path / "missing.json")]) == 4
    gone = write_config(tmp_path, minimal(output_dir=str(tmp_path / "nope")))
    assert main(["schedule", "--config", gone]) == 4


def read_output(out_dir) -> bytes:
    csvs = [p for p in os.listdir(out_dir) if p.endswith(".csv")]
    assert len(csvs) == 1
    with open(os.path.join(out_dir, csvs[0]), "rb") as fh:
        return fh.read()


def test_cli_seed_precedence(tmp_path, monkeypatch):
    """config < BLMIX_SEED < --seed, verified through the emitted payloads."""
    outs = {name: tmp_path / name for name in ("a", "b", "c", "d")}
    for d in outs.values():
        d.mkdir()

    monkeypatch.delenv("BLMIX_SEED", raising=False)
    main(["coupling", "--config", coupling_config(tmp_path, outs["a"], seed=2)])
    monkeypatch.setenv("BLMIX_SEED", "2")
    main(["coupling", "--config", coupling_config(tmp_path, outs["b"], seed=1)])
    main(["coupling", "--config", coupling_config(tmp_path, outs["c"], seed=1),
          "--seed", "3"])
    monkeypatch.delenv("BLMIX_SEED")
    main(["coupling", "--config", coupling_config(tmp_path, outs["d"], seed=3)])

    payload = {k: read_output(v) for k, v in outs.items()}
    assert payload["a"] == payload["b"]  # env overrode the config seed
    assert payload["c"] == payload["d"]  # flag overrode the env seed
    assert payload["a"] != payload["c"]


def test_cli_bad_env_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("BLMIX_SEED", "not-a-number")
    cfg = coupling_config(tmp_path, tmp_path)
    assert main(["coupling", "--config", cfg]) == 2


def test_cli_threads_do_not_change_bytes(tmp_path):
    # enough replicas for three chunks, so that the threads have work
    cfg = coupling_config(tmp_path, tmp_path, seed=77, replicas=12_300)
    assert main(["coupling", "--config", cfg, "--threads", "1"]) == 0
    first = read_output(tmp_path)
    for threads in (["--threads", "2"], ["--threads", "7"], []):
        assert main(["coupling", "--config", cfg] + threads) == 0
        assert read_output(tmp_path) == first


@pytest.mark.parametrize("threads", ["0", "-5", "two"])
def test_cli_rejects_bad_threads(tmp_path, capsys, threads):
    """A thread count below 1, or not an integer, exits 2 with a message
    and writes nothing."""
    cfg = coupling_config(tmp_path, tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["coupling", "--config", cfg, "--threads", threads])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["config.json"]


@pytest.mark.parametrize("horizon", [-3, 2.5, True])
def test_cli_rejects_bad_horizon(tmp_path, horizon):
    cfg = write_config(tmp_path, minimal(
        "profile", horizon=horizon, output_dir=str(tmp_path)))
    assert main(["profile", "--config", cfg]) == 2
    assert os.listdir(tmp_path) == ["config.json"]


@pytest.mark.parametrize("experiment, extra", [
    ("coupling", {"x0": 100}),
    ("schedule", {"n": 2}),
    ("schedule", {"master_seed": "abc"}),
    ("schedule", {"k_rule": "explicit", "k": 500}),
    ("schedule", {"n": True}),
    ("mixtime", {"horizon": 1}),
    ("approx", {"ell": 0}),
    ("coupling", {"kind": "tau1", "kappa1": "x"}),
    ("coupling", {"replicas": True}),
    ("coupling", {"r": -1}),
    ("mixtime", {"lambda": 1e-300}),
    ("profile", {"n": 50, "horizon": 10**15}),
    ("coupling", {"replicas": 10**15}),
    ("profile", {"n": 50, "lambda": 1e-15}),
    ("coupling", {"kind": "tau1", "lambda": 1e-15}),
    ("profile", {"n": 50, "lambda": 1e-5}),
    ("profile", {"k_rule": "explicit", "k": 0}),
    ("coupling", {"n": 3}),
    ("schedule", {"experiment": "coupling"}),
    ("schedule", {"experiment": [[["schedule"]]]}),
    ("schedule", {"n": 2**53 + 1}),
    ("lowerbound", {"n": 10**400}),
    ("schedule", {"k": 5}),
])
def test_cli_bad_values_exit_2(tmp_path, experiment, extra):
    """Malformed values, values outside a chain's domain, a horizon too
    short for an epsilon, a horizon or replica count too large to allocate,
    an n beyond 2**53, a lambda too small for the schedule, a k of 0 (lambda < 1/n or an
    explicit 0), a k given without k_rule=explicit and a config naming
    another experiment than the command, or a malformed one, all end in exit
    2 and write nothing."""
    doc = {"experiment": experiment, "n": 60 if experiment == "coupling" else 100,
           "lambda": 0.25, "replicas": 50, "output_dir": str(tmp_path)}
    doc.update(extra)
    cfg = write_config(tmp_path, json.dumps(doc))
    assert main([experiment, "--config", cfg]) == 2
    assert os.listdir(tmp_path) == ["config.json"]


@pytest.mark.parametrize("text", [
    pytest.param(b'{"lambda": 0.25, "n": 50\xff}', id="not-utf8"),
    pytest.param(b"[" * 200_000 + b"]" * 200_000, id="deep"),
    pytest.param(b'{"lambda": 0.25, "n": 50, "lambda": 0.3}', id="repeated"),
    pytest.param(b'{"lambda": 0.25, "n": 1' + b"0" * 5000 + b"}",
                 id="too-many-digits"),
])
def test_cli_undecodable_config_exits_2(tmp_path, text):
    """A config the JSON decoder cannot read (one an integer of more digits
    than Python converts included), or one that repeats a key, ends in exit
    2 and writes nothing."""
    path = tmp_path / "config.json"
    path.write_bytes(text)
    assert main(["schedule", "--config", str(path),
                 "--output-dir", str(tmp_path)]) == 2
    assert os.listdir(tmp_path) == ["config.json"]


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this blmix."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(blmix.__file__)))
    path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True)


def test_cli_import_loads_no_scipy():
    """scipy takes longer to import than the rest of the package, so the
    CLI starts without it."""
    out = run_python("import sys, blmix.cli; print(sorted(m for m in "
                     "sys.modules if m.split('.')[0] == 'scipy'))")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("preset,imports,expected", [
    (None, "blmix", "20"), ("28", "blmix", "28"), (None, "numpy, blmix", "None")])
def test_import_sets_the_openblas_thread_timeout(monkeypatch, preset, imports,
                                                 expected):
    """Imported before numpy, blmix sets OPENBLAS_THREAD_TIMEOUT to 20 where
    it is unset, so OpenBLAS's idle worker spins 2**20 cycles, not 2**28,
    before it sleeps; a value already set is kept; and after numpy, whose
    OpenBLAS has read its environment already, it is left unset."""
    monkeypatch.delenv("OPENBLAS_THREAD_TIMEOUT", raising=False)
    if preset is not None:
        monkeypatch.setenv("OPENBLAS_THREAD_TIMEOUT", preset)
    out = run_python(f"import os, {imports}\n"
                     "print(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == expected


def test_exact_runs_load_no_openssl(tmp_path):
    """The config digest comes from CPython's built-in SHA-256, so no exact
    experiment loads hashlib's OpenSSL module (_hashlib, about 3.5 MiB of
    memory); only coupling does, through numpy.random."""
    runs = [("schedule", {"n": 1000}), ("lowerbound", {}),
            ("approx", {"n": 200}), ("mixtime", {}),
            ("profile", {"n": 300, "start_policy": "all_states"}),
            ("profile", {"n": 2000, "start_policy": "state_zero"})]
    configs = []
    for i, (experiment, extra) in enumerate(runs):
        out_dir = tmp_path / str(i)
        out_dir.mkdir()
        configs += [experiment, write_config(out_dir, minimal(
            experiment, **extra, output_dir=str(out_dir)))]
    code = ("import sys\n"
            "from blmix.cli import main\n"
            "for experiment, cfg in zip(sys.argv[1::2], sys.argv[2::2]):\n"
            "    code = main([experiment, '--config', cfg])\n"
            "    print('ran', experiment, code, '_hashlib' in sys.modules)\n")
    out = run_python(code, *configs)
    assert out.returncode == 0, out.stderr
    ran = [line for line in out.stdout.split("\n") if line.startswith("ran")]
    assert ran == [f"ran {e} 0 False" for e, _ in runs]


def test_cli_import_loads_the_traced_layers():
    """The benchmark's traced runs (perfbench/child.py --trace 1) import
    blmix.cli and blmix.config, wrap every public function of the seven
    layer modules found in sys.modules, and read distance_profile's first
    three arguments by position or name: all of these must hold."""
    out = run_python(
        "import inspect, sys, blmix.cli, blmix.config\n"
        "layers = ('pmf', 'chain', 'coupling', 'schedule', 'approx',"
        " 'config', 'cli')\n"
        "print(sorted(m for m in layers if f'blmix.{m}' not in sys.modules))\n"
        "chain = sys.modules['blmix.chain']\n"
        "print(list(inspect.signature(chain.distance_profile).parameters)[:3])")
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n")[:2] == [
        "[]", "['params', 't_max', 'start_policy']"]


@pytest.mark.parametrize("n,policy",[(5000, "state_zero"), (40, "all_states")])
def test_cli_profile_needs_no_scipy(tmp_path, n, policy):
    """With every scipy import made to fail, a trimmed state-zero profile
    and an all-states one exit 0 and write the bytes they write with scipy
    importable."""
    code = ("import sys\n"
            "if sys.argv[1] == 'blocked':\n"
            "    sys.modules['scipy'] = None  # any scipy import raises\n"
            "from blmix.cli import main\n"
            "sys.exit(main(['profile', '--config', sys.argv[2]]))\n")
    csv = {}
    for mode in ("blocked", "free"):
        out_dir = tmp_path / mode
        out_dir.mkdir()
        cfg = write_config(out_dir, minimal(
            "profile", n=n, start_policy=policy, output_dir=str(out_dir)))
        done = run_python(code, mode, cfg)
        assert done.returncode == 0, done.stderr
        csv[mode] = read_output(out_dir)
    assert csv["blocked"] == csv["free"]


def test_cli_zero_horizon_emits_only_t0(tmp_path):
    cfg = write_config(tmp_path, minimal(
        "profile", horizon=0, output_dir=str(tmp_path)))
    assert main(["profile", "--config", cfg]) == 0
    rows = parse_csv(read_output(tmp_path).decode()).rows
    assert len(rows) == 1
    assert rows[0][3] == 0  # the t column


def test_cli_explicit_k_horizon_follows_k_over_n(tmp_path):
    """An explicit k with 0 < k/n < 1/2 unties the chain from lambda, so its
    default horizon comes from k/n: at n = 64 and k = 16 it is t = 0..31,
    not the 531,557 steps lambda = 1e-5 would set."""
    cfg = write_config(tmp_path, json.dumps({
        "experiment": "profile", "n": 64, "k_rule": "explicit", "k": 16,
        "lambda": 1e-5, "output_dir": str(tmp_path)}))
    assert main(["profile", "--config", cfg]) == 0
    rows = parse_csv(read_output(tmp_path).decode()).rows
    assert [row[3] for row in rows] == list(range(32))  # the t column


@pytest.mark.parametrize("kind, steps", [("tau1", 4), ("tau3", 7),
                                         ("tau4", 13), ("tau_couple", 22)])
def test_cli_explicit_k_coupling_horizon_follows_k_over_n(tmp_path, kind,
                                                          steps):
    """The stopping-time tails take their default horizons from k/n too:
    t_n, s_n, 2 s_n and t_n + 3 s_n at k/n = 1/4, not the 10**5 steps and
    more that lambda = 1e-5 would set."""
    cfg = write_config(tmp_path, json.dumps({
        "experiment": "coupling", "n": 64, "k_rule": "explicit", "k": 16,
        "lambda": 1e-5, "replicas": 50, "kind": kind,
        "output_dir": str(tmp_path)}))
    assert main(["coupling", "--config", cfg]) == 0
    rows = parse_csv(read_output(tmp_path).decode()).rows
    assert [row[3] for row in rows] == list(range(steps))  # the t column


def test_cli_auto_start_policy_switches_above_512(tmp_path):
    """The auto start policy runs the profile from every state up to
    n = 512 and from state 0 above it, and the start_policy column says
    which."""
    cfg = write_config(tmp_path, json.dumps({
        "experiment": "profile", "n_grid": [512, 513], "lambda": 0.25,
        "horizon": 2, "output_dir": str(tmp_path)}))
    assert main(["profile", "--config", cfg]) == 0
    rows = parse_csv(read_output(tmp_path).decode()).rows
    assert sorted({(row[0], row[5]) for row in rows}) == [
        (512, "all_states"), (513, "state_zero")]


def test_cli_approx_takes_no_schedule(tmp_path):
    """approx is not timed by lambda, which only sets its k: under an
    explicit k, a lambda so small that 1 - 2 lambda rounds to 1 (which the
    schedule refuses) writes the rows that lambda = 1/4 writes."""
    bodies = set()
    for lam in (1e-300, 0.25):
        out = tmp_path / str(lam)
        out.mkdir()
        cfg = write_config(out, json.dumps({
            "experiment": "approx", "n": 1000, "lambda": lam,
            "k_rule": "explicit", "k": 250, "output_dir": str(out)}))
        assert main(["approx", "--config", cfg]) == 0
        lines = read_output(out).decode().split("\r\n")
        bodies.add(tuple(line.rsplit(",", 1)[0] for line in lines))
    assert len(bodies) == 1


def test_cli_largest_n(tmp_path):
    """n = 2**53 is the largest n a config may give: the closed forms run at
    it, and the exact profile refuses it as an infeasible size."""
    for experiment, code in (("schedule", 0), ("lowerbound", 0),
                             ("profile", 3)):
        out = tmp_path / experiment
        out.mkdir()
        cfg = write_config(tmp_path, json.dumps({
            "experiment": experiment, "n": 2**53, "lambda": 0.25,
            "output_dir": str(out)}))
        assert main([experiment, "--config", cfg]) == code
        assert len(os.listdir(out)) == (2 if code == 0 else 0)


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


def test_cli_sweep_without_complement_time_writes_strict_json(tmp_path):
    """When t_mix(1 - epsilon) is 0 the cutoff ratio is undefined: it is an
    empty CSV cell and a JSON null, never Infinity, which is not JSON."""
    cfg = write_config(tmp_path, json.dumps({
        "experiment": "sweep", "n": 3, "k_rule": "explicit", "k": 1,
        "lambda": 0.25, "epsilons": [0.04], "output_dir": str(tmp_path)}))
    assert main(["sweep", "--config", cfg]) == 0
    [path] = [p for p in os.listdir(tmp_path) if p.endswith(".json")
              and p != "config.json"]
    [row] = json.loads((tmp_path / path).read_text(), parse_constant=_refuse)
    assert (row["t_mix_complement"], row["cutoff_ratio"]) == (0, None)
    assert read_output(tmp_path).decode().splitlines()[1].split(",")[6] == ""


# ------------------------------------------------------------- config fuzzing

def _in_range(lo, hi):
    return st.floats(lo, hi, exclude_min=True, exclude_max=True)


# values of the right type, mostly in range; edges such as k = 0, k > n or a
# start state above n are left in
_FUZZ_FIELDS = {
    "lambda": st.one_of(_in_range(0.01, 0.5),
                        st.sampled_from([1e-300, 1e-5, 0.01])),
    "n": st.integers(1, 64),
    "n_grid": st.lists(st.integers(1, 64), min_size=1, max_size=3),
    "k_rule": st.sampled_from(["floor_lambda_n", "explicit"]),
    "k": st.integers(0, 64),
    "epsilons": st.lists(_in_range(0.0, 1.0), min_size=1, max_size=3),
    "replicas": st.integers(1, 50),
    "master_seed": st.integers(-2**40, 2**40),
    "start_policy": st.sampled_from(["auto", "all_states", "state_zero"]),
    "kind": st.sampled_from(["tau_couple", "tau1", "tau3", "tau4"]),
    "r": _in_range(0.0, 50.0),
    "kappa1": _in_range(0.0, 20.0),
    "kappa3": _in_range(0.0, 20.0),
    "kappa4": _in_range(0.0, 20.0),
    "x0": st.integers(0, 64),
    "y0": st.integers(0, 64),
    "ell": st.integers(1, 64),
}
_BAD_VALUES = st.sampled_from([True, None, "x", 2.5, -1, 1e300, [1], {}])


@st.composite
def _config_docs(draw):
    grid = draw(st.sampled_from(["n", "n_grid"]))
    doc = draw(st.fixed_dictionaries(
        {"lambda": _FUZZ_FIELDS["lambda"], grid: _FUZZ_FIELDS[grid]},
        optional={k: v for k, v in _FUZZ_FIELDS.items()
                  if k not in ("lambda", "n", "n_grid")}))
    # An explicit k with 2k >= n keeps the default horizon of lambda, and a
    # small lambda then sets up to 10^6 steps: a valid but slow run.  Such
    # documents always carry a horizon.
    ns = doc["n_grid"] if grid == "n_grid" else [doc["n"]]
    if doc.get("k_rule") == "explicit":
        doc.setdefault("k", draw(_FUZZ_FIELDS["k"]))
    if (doc.get("k_rule") == "explicit"
            and any(2 * doc["k"] >= n for n in ns)):
        doc["horizon"] = draw(st.integers(0, 20))
    elif draw(st.booleans()):
        doc["horizon"] = draw(st.integers(0, 20))
    if draw(st.booleans()):
        key = draw(st.sampled_from([*_FUZZ_FIELDS, "horizon", "unknown"]))
        doc[key] = draw(_BAD_VALUES)
    return doc


@pytest.mark.filterwarnings("ignore:duplicate n")
@settings(max_examples=150, deadline=None)
@given(experiment=st.sampled_from(EXPERIMENTS), doc=_config_docs())
def test_cli_fuzzed_configs_exit_cleanly(experiment, doc):
    """Any config document with n <= 64, at most 50 replicas and a horizon
    of at most 20 ends in a documented exit code, never a traceback, and a
    failed run writes no payload."""
    with tempfile.TemporaryDirectory() as root:
        out_dir = os.path.join(root, "out")
        os.mkdir(out_dir)
        path = os.path.join(root, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(doc, output_dir=out_dir), fh)
        code = main([experiment, "--config", path])
        assert code in (0, 2, 3, 4)
        if code != 0:
            assert os.listdir(out_dir) == []
