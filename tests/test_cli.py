"""Command-line surface: subcommands, exit codes, identity mapping, logs."""

import argparse
import hashlib
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from pakelab import cli as cli_module, proposed as proposed_module
from pakelab.cli import load_params_file, main
from pakelab.core import (
    NAMED_GROUPS,
    TOY_PARAMS,
    TOYSUM,
    HashSpec,
    generate_params,
    validate_params,
)
from pakelab.errors import AuthFail
from pakelab.netio import service as service_module
from pakelab.netio.service import ServeConfig, Service
from pakelab.netio.store import VerifierStore

ROOT = Path(__file__).resolve().parent.parent

# subprocesses find the package in src/ without an install, as pytest does
SUBPROCESS_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def run_cli(*argv):
    return main(list(argv))


# -- params ---------------------------------------------------------------------


def test_params_gen_and_check(tmp_path, capsys):
    out = tmp_path / "group.params"
    assert run_cli("params", "gen", "--bits", "16", "--seed", "7",
                   "--out", str(out)) == 0
    params = load_params_file(str(out))
    assert params.q.bit_length() == 16
    validate_params(params)
    assert run_cli("params", "check", str(out)) == 0
    assert "ok: q=" in capsys.readouterr().out


def test_params_gen_is_deterministic(capsys):
    assert run_cli("params", "gen", "--bits", "10", "--seed", "3") == 0
    first = capsys.readouterr().out
    assert run_cli("params", "gen", "--bits", "10", "--seed", "3") == 0
    assert capsys.readouterr().out == first


def test_custom_groups_stop_at_64_bits(tmp_path, capsys):
    assert run_cli("params", "gen", "--bits", "64", "--seed", "0") == 0
    assert capsys.readouterr().out == "9625328367889806653\n2\n"
    group = tmp_path / "group70.params"
    group.write_text("952030781924686401347\n2\n")      # a 70-bit safe prime
    for argv in (("params", "gen", "--bits", "65", "--seed", "0"),
                 ("params", "check", str(group)),
                 ("simulate", "--params", str(group))):
        assert run_cli(*argv) == 3, argv
        out, err = capsys.readouterr()
        assert "use a named group (modp1536|modp2048|modp3072)" in err, argv
        assert out == "", argv


def test_params_takes_a_named_group(capsys):
    assert run_cli("params", "check", "modp2048") == 0
    out = capsys.readouterr().out
    assert f"q={NAMED_GROUPS['modp2048'].q}, g=11 generates Z_q^*" in out
    assert "named RFC 3526 group modp2048" in out and "Pocklington" not in out
    assert run_cli("simulate", "--params", "modp2048", "--hash", "digest256",
                   "--seed", "1") == 0
    assert "server->client not checked" in capsys.readouterr().out
    # an explicit nonce may still take the whole range [1, q-2]
    top = str(NAMED_GROUPS["modp2048"].q - 2)
    for scheme in ("proposed", "lky"):
        assert run_cli("simulate", "--params", "modp2048", "--hash", "digest256",
                       "--scheme", scheme, "--x", top, "--y", top) == 0
        assert "auth: client->server ok" in capsys.readouterr().out


def test_params_check_rejects_bad_files(tmp_path, capsys):
    garbled = tmp_path / "garbled.params"
    garbled.write_text("13 six\n")
    assert run_cli("params", "check", str(garbled)) == 2
    non_gen = tmp_path / "nongen.params"
    non_gen.write_text("13\n12\n")
    assert run_cli("params", "check", str(non_gen)) == 3
    assert run_cli("params", "check", str(tmp_path / "void.params")) == 3


# -- simulate --------------------------------------------------------------------


def test_simulate_toy_run(capsys):
    assert run_cli("simulate", "--scheme", "proposed", "--x", "3",
                   "--y", "4") == 0
    out = capsys.readouterr().out
    assert "key: 9" in out
    assert "auth: client->server ok, server->client ok" in out
    assert "msg1" in out and "msg4" in out


def test_simulate_json_line(capsys):
    assert run_cli("simulate", "--scheme", "lky", "--x", "3", "--y", "4",
                   "--json") == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["kind"] == "session"
    assert obj["key_a"] == obj["key_b"] == "1"


def test_simulate_reports_failed_runs_with_exit_1(capsys):
    assert run_cli("simulate", "--scheme", "lky", "--x", "7", "--y", "4") == 1
    assert "retry nonce" in capsys.readouterr().out


def test_simulate_above_the_desk_bound_reports_the_skipped_check(tmp_path,
                                                                 capsys):
    group = tmp_path / "group24.params"
    assert run_cli("params", "gen", "--bits", "24", "--seed", "1",
                   "--out", str(group)) == 0
    args = ("simulate", "--params", str(group), "--hash", "digest256",
            "--seed", "3")
    capsys.readouterr()
    assert run_cli(*args) == 0
    out = capsys.readouterr().out
    assert ("auth: client->server ok, server->client not checked "
            "(q above 2^20)") in out
    assert "flags: server unauthenticated" in out
    assert run_cli(*args, "--json") == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["auth_a_ok"] is False and obj["auth_b_ok"] is True


def test_simulate_above_the_desk_bound_still_fails_a_rejection(tmp_path, capsys,
                                                              monkeypatch):
    group = tmp_path / "group24.params"
    assert run_cli("params", "gen", "--bits", "24", "--seed", "1",
                   "--out", str(group)) == 0

    def server_rejects(msg3, state):
        raise AuthFail("client confirmation d_A does not match F_A")

    monkeypatch.setattr(proposed_module, "prop_server_finish", server_rejects)
    capsys.readouterr()
    assert run_cli("simulate", "--params", str(group), "--hash", "digest256",
                   "--seed", "3") == 1
    out = capsys.readouterr().out
    assert "auth: client->server FAILED, server->client FAILED" in out
    assert "not checked" not in out


def test_simulate_needs_nonces_or_seed():
    assert run_cli("simulate", "--scheme", "lky", "--x", "3") == 3


def test_simulate_golden(capsys):
    assert run_cli("simulate", "--golden") == 0
    out = capsys.readouterr().out
    assert "golden proposed-toy: ok" in out
    assert "golden lky-toy: ok" in out


def test_simulate_golden_bless_prints_without_mutating(capsys):
    assert run_cli("simulate", "--golden", "--bless") == 0
    out = capsys.readouterr().out
    assert out.count("regenerated:") == 2


def test_bless_requires_golden():
    assert run_cli("simulate", "--bless") == 3


# -- attacks ----------------------------------------------------------------------


def test_attack_stolen_verifier_lky(capsys):
    assert run_cli("attack", "stolen-verifier-lky", "--trials", "20",
                   "--seed", "1") == 0
    assert "20/20 impersonations accepted" in capsys.readouterr().out


def test_attack_stolen_verifier_proposed_prints_claim_and_verdict(capsys):
    assert run_cli("attack", "stolen-verifier-proposed", "--trials", "20",
                   "--seed", "1") == 0
    out = capsys.readouterr().out
    assert "20/20 impersonations accepted" in out
    assert "claimed: verifier theft alone" in out
    assert "measured verdict: claim does not hold on a 4-bit group" in out


@pytest.mark.parametrize("trials", ["0", "-3"])
@pytest.mark.parametrize("attack", ["stolen-verifier-lky",
                                    "stolen-verifier-proposed"])
def test_attack_sweeps_refuse_fewer_than_one_trial(attack, trials, capsys):
    assert run_cli("attack", attack, f"--trials={trials}") == 3
    out, err = capsys.readouterr()
    assert err == "error: trials must be >= 1\n"
    assert out == ""


def test_stolen_verifier_verdict_names_the_group_it_ran_on(tmp_path, capsys):
    params = generate_params(24, 1)
    group = tmp_path / "group24.params"
    group.write_text(f"{params.q}\n{params.g}\n")
    assert run_cli("attack", "stolen-verifier-proposed", "--params", str(group),
                   "--trials", "3", "--seed", "1") == 0
    out = capsys.readouterr().out
    assert "3/3 impersonations accepted" in out
    assert "measured verdict: claim does not hold on a 24-bit group" in out


def test_attack_mitm(capsys):
    assert run_cli("attack", "mitm", "--scheme", "proposed", "--field", "e_b",
                   "--value", "8") == 0
    out = capsys.readouterr().out
    assert "no impersonation" in out
    assert "client rejected" in out


def test_attack_census(capsys):
    assert run_cli("attack", "census", "--dictionary", "10,11",
                   "--x", "3", "--y", "4") == 0
    out = capsys.readouterr().out
    assert "10: consistent (witness x'=3, y'=4)" in out
    assert "11: ruled out" in out


@pytest.mark.parametrize("argv", [
    ("connect", "--addr", "127.0.0.1:1", "--id-a", "9", "--id-b", "12",
     "--password", "10", "--skip-server-auth"),
    ("attack", "census", "--dict", "10,11", "--method", "dlog"),
])
def test_flags_the_program_decides_itself_are_usage_errors(argv, capsys):
    # the server check follows q, and the census has one algorithm
    with pytest.raises(SystemExit) as exit_info:
        run_cli(*argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_attack_census_above_the_desk_bound_is_a_usage_error(tmp_path, capsys):
    group = tmp_path / "group24.params"
    params = generate_params(24, 1)
    group.write_text(f"{params.q}\n{params.g}\n")
    assert run_cli("attack", "census", "--params", str(group),
                   "--dictionary", "10,11", "--seed", "3") == 3
    assert "census needs q <= 1048576" in capsys.readouterr().err


# -- register ---------------------------------------------------------------------


def test_register_builds_a_store(tmp_path, capsys):
    store_path = tmp_path / "verifiers.tsv"
    args = ("register", "--store", str(store_path), "--hash", "toysum",
            "--id-a", "9", "--id-b", "12", "--password", "10")
    assert run_cli(*args) == 0
    assert "registered id_a=9 id_b=12 v=0x7" in capsys.readouterr().out
    assert VerifierStore.load(store_path).lookup(9, 12).v == 7
    assert run_cli(*args) == 3              # duplicate pair
    assert run_cli(*args, "--replace") == 0


def test_register_compacts_the_store_to_v2(tmp_path):
    store_path = tmp_path / "verifiers.tsv"
    store_path.write_text("# pake-verifiers v1\n9\t15\tb\n")
    assert run_cli("register", "--store", str(store_path), "--hash", "toysum",
                   "--id-a", "9", "--id-b", "12", "--password", "10") == 0
    assert store_path.read_text() == ("# pake-verifiers v2 q=13 g=6 hash=toysum\n"
                                      "9\t12\t7\n9\t15\tb\n")


def test_register_appends_to_a_v2_store(tmp_path, capsys, monkeypatch):
    store_path = tmp_path / "verifiers.tsv"
    args = ("register", "--store", str(store_path), "--hash", "toysum",
            "--password", "10")
    assert run_cli(*args, "--id-a", "9", "--id-b", "12") == 0
    # a running `serve --enroll` appends a row between register's load and write
    real_load = VerifierStore.load

    def load_then_server_appends(path, *rest):
        store = real_load(path, *rest)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("30\t12\t2\n")
        return store

    monkeypatch.setattr(VerifierStore, "load", load_then_server_appends)
    assert run_cli(*args, "--id-a", "20", "--id-b", "12") == 0
    monkeypatch.undo()
    assert store_path.read_text() == ("# pake-verifiers v2 q=13 g=6 hash=toysum\n"
                                      "9\t12\t7\n30\t12\t2\n20\t12\t7\n")
    before = store_path.read_bytes()
    capsys.readouterr()
    assert run_cli(*args, "--id-a", "9", "--id-b", "12") == 3
    assert ("pair id_a=9, id_b=12 is already enrolled"
            in capsys.readouterr().err)
    assert store_path.read_bytes() == before
    assert run_cli(*args[:-1], "11", "--id-a", "9", "--id-b", "12",
                   "--replace") == 0
    assert store_path.read_bytes() == before + b"9\t12\tb\n"
    assert VerifierStore.load(store_path).lookup(9, 12).v == 11


def test_register_refuses_a_store_held_by_an_enrolling_server(tmp_path, capsys):
    store_path = tmp_path / "verifiers.tsv"
    args = ("register", "--store", str(store_path), "--hash", "toysum",
            "--id-a", "9", "--id-b", "12", "--password", "10")
    config = ServeConfig(params=TOY_PARAMS, store_path=store_path,
                         hash_spec=HashSpec(TOYSUM), enroll=True)
    with Service(config):
        before = store_path.read_bytes()
        assert run_cli(*args) == 3
        assert "held by a running `serve --enroll`" in capsys.readouterr().err
        assert store_path.read_bytes() == before
    assert run_cli(*args) == 0
    assert store_path.read_bytes() == before + b"9\t12\t7\n"


def test_only_a_live_enrolling_server_holds_the_store(tmp_path, monkeypatch):
    store_path = tmp_path / "verifiers.tsv"
    args = ("register", "--store", str(store_path), "--hash", "toysum",
            "--password", "10", "--id-b", "12")
    assert run_cli(*args, "--id-a", "9") == 0
    plain = ServeConfig(params=TOY_PARAMS, store_path=store_path,
                        hash_spec=HashSpec(TOYSUM))
    with Service(plain):
        assert run_cli(*args, "--id-a", "20") == 0
    # a service whose listener cannot bind lets go of the store it locked

    def no_listener(*args):
        raise OSError("address already in use")

    monkeypatch.setattr(service_module, "_Server", no_listener)
    with pytest.raises(OSError):
        Service(ServeConfig(params=TOY_PARAMS, store_path=store_path,
                            hash_spec=HashSpec(TOYSUM), enroll=True))
    assert run_cli(*args, "--id-a", "30") == 0
    assert len(VerifierStore.load(store_path)) == 3


def test_stopping_a_never_started_service_releases_the_store(tmp_path):
    store_path = tmp_path / "verifiers.tsv"
    service = Service(ServeConfig(params=TOY_PARAMS, store_path=store_path,
                                  hash_spec=HashSpec(TOYSUM), enroll=True))
    stopper = threading.Thread(target=service.stop, daemon=True)
    stopper.start()
    stopper.join(5)
    assert not stopper.is_alive()
    assert run_cli("register", "--store", str(store_path), "--hash", "toysum",
                   "--id-a", "9", "--id-b", "12", "--password", "10") == 0


def test_serve_validates_the_group_once(tmp_path, monkeypatch):
    group = tmp_path / "group24.params"
    params = generate_params(24, 1)
    group.write_text(f"{params.q}\n{params.g}\n")
    checked = []
    for module in (cli_module, service_module):
        monkeypatch.setattr(module, "validate_params",
                            lambda p: checked.append(p) or validate_params(p))
    # serve_blocking still runs, and its cleanup releases the store lock
    monkeypatch.setattr(service_module._Server, "serve_forever",
                        lambda self, poll_interval: None)
    assert run_cli("serve", "--listen", "127.0.0.1:0", "--enroll", "--params",
                   str(group), "--store", str(tmp_path / "verifiers.tsv")) == 0
    assert checked == [params]


def test_serve_refuses_a_bad_params_file_before_binding(tmp_path, capsys,
                                                        monkeypatch):
    monkeypatch.setattr(service_module, "_Server",
                        lambda *args: pytest.fail("a listener was bound"))
    cases = (("13 six\n", 2, "must hold two decimal integers (q, then g)"),
             ("13\n12\n", 3, "12 has order dividing 6 mod 13"),
             ("15\n2\n", 3, "15 is not prime"),
             ("13\n13\n", 3, "generator 13 outside (1, 13)"))
    for text, code, message in cases:
        group = tmp_path / "bad.params"
        group.write_text(text)
        assert run_cli("serve", "--listen", "127.0.0.1:0", "--enroll", "--params",
                       str(group), "--store", str(tmp_path / "verifiers.tsv")) == code
        assert message in capsys.readouterr().err
    assert not (tmp_path / "verifiers.tsv").exists()


def test_serve_and_register_refuse_a_store_for_another_group(tmp_path, capsys,
                                                            monkeypatch):
    store_path = tmp_path / "verifiers.tsv"
    assert run_cli("register", "--store", str(store_path), "--hash", "toysum",
                   "--id-a", "9", "--id-b", "12", "--password", "10") == 0
    before = store_path.read_bytes()
    other = tmp_path / "q23.params"
    other.write_text("23\n5\n")
    capsys.readouterr()
    monkeypatch.setattr(service_module, "_Server",
                        lambda *args: pytest.fail("a listener was bound"))
    for flags, theirs in ((["--params", str(other), "--hash", "toysum"],
                           "q=23, g=5, hash=toysum"),
                          (["--hash", "digest256"], "q=13, g=6, hash=digest256")):
        assert run_cli("serve", "--listen", "127.0.0.1:0", "--enroll",
                       "--store", str(store_path), *flags) == 2
        assert run_cli("register", "--store", str(store_path), "--id-a", "20",
                       "--id-b", "12", "--password", "3", *flags) == 2
        err = capsys.readouterr().err
        assert err.count("line 1: store was written for q=13, g=6, hash=toysum, "
                         f"not for {theirs}") == 2
    assert store_path.read_bytes() == before


def test_importing_the_cli_leaves_sympy_out():
    code = "import sys, pakelab.cli; print('sympy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         env=SUBPROCESS_ENV, text=True, check=True,
                         timeout=60).stdout
    assert out.strip() == "False"


@pytest.mark.parametrize("module", [
    "core", "errors", "transcript", "lky", "proposed", "drivers", "harness",
    "attacks", "cli", "netio.frames", "netio.store", "netio.service"])
def test_each_module_imports_on_its_own(module):
    result = subprocess.run([sys.executable, "-c", f"import pakelab.{module}"],
                            env=SUBPROCESS_ENV, capture_output=True, text=True,
                            timeout=60)
    assert result.returncode == 0, result.stderr


def test_a_desk_scale_session_leaves_ctypes_out():
    code = ("import sys, pakelab.cli\n"
            "from pakelab.core import generate_params\n"
            "from pakelab.harness import Scenario, run_honest_session\n"
            "for scheme in ('lky', 'proposed'):\n"
            "    report = run_honest_session(Scenario(\n"
            "        scheme, params=generate_params(20, 1), seed=3))\n"
            "    assert report.auth_a_ok and report.auth_b_ok\n"
            "print('ctypes' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         env=SUBPROCESS_ENV, text=True, check=True,
                         timeout=60).stdout
    assert out.strip() == "False"


def test_register_maps_string_identities(tmp_path, capsys):
    store_path = tmp_path / "verifiers.tsv"
    assert run_cli("register", "--store", str(store_path),
                   "--id-a", "alice", "--id-b", "bob",
                   "--password", "hunter2") == 0
    err = capsys.readouterr().err
    assert "mapped to integer" in err
    alice = int.from_bytes(hashlib.sha256(b"alice").digest(), "big")
    bob = int.from_bytes(hashlib.sha256(b"bob").digest(), "big")
    assert VerifierStore.load(store_path).lookup(alice, bob) is not None


# -- bench -----------------------------------------------------------------------


def test_bench_renders_table_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "costs.csv"
    assert run_cli("bench", "--trials", "5", "--seed", "0",
                   "--csv", str(csv_path)) == 0
    out = capsys.readouterr().out
    assert "modexp_client" in out
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "scheme,metric,measured,claimed"
    assert len(lines) == 15


def test_bench_rejects_zero_trials():
    assert run_cli("bench", "--trials", "0", "--seed", "0") == 3


# -- session log via environment -----------------------------------------------------


def test_pake_log_env_appends_session_lines(tmp_path, monkeypatch):
    log = tmp_path / "sessions.jsonl"
    monkeypatch.setenv("PAKE_LOG", str(log))
    assert run_cli("simulate", "--scheme", "proposed", "--x", "3",
                   "--y", "4") == 0
    obj = json.loads(log.read_text().splitlines()[-1])
    assert obj["kind"] == "session"
    assert obj["key_a"] == "9"


# -- serve/connect over a real socket ---------------------------------------------------


@pytest.fixture
def served_store(tmp_path):
    store_path = tmp_path / "verifiers.tsv"
    assert run_cli("register", "--store", str(store_path), "--hash", "toysum",
                   "--id-a", "9", "--id-b", "12", "--password", "10") == 0
    return store_path


def test_serve_and_connect_via_cli(served_store, capsys):
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "pakelab.cli", "serve",
         "--listen", "127.0.0.1:0", "--store", str(served_store),
         "--hash", "toysum", "--y-override", "4"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=SUBPROCESS_ENV)
    try:
        banner = proc.stdout.readline()
        match = re.search(r"serving proposed on 127\.0\.0\.1:(\d+)", banner)
        assert match, banner
        addr = f"127.0.0.1:{match.group(1)}"

        assert run_cli("connect", "--addr", addr, "--hash", "toysum",
                       "--id-a", "9", "--id-b", "12", "--password", "10",
                       "--x", "3") == 0
        assert "session key: 9" in capsys.readouterr().out

        # wrong password: authentication refusals exit 1
        assert run_cli("connect", "--addr", addr, "--hash", "toysum",
                       "--id-a", "9", "--id-b", "12", "--password", "11",
                       "--x", "5") == 1
        assert "server refused" in capsys.readouterr().err
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()


def test_serve_stops_on_sigterm_like_on_sigint(served_store):
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "pakelab.cli", "serve",
         "--listen", "127.0.0.1:0", "--store", str(served_store),
         "--hash", "toysum"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=SUBPROCESS_ENV)
    try:
        banner = proc.stdout.readline()
        port = int(re.search(r"on 127\.0\.0\.1:(\d+)", banner).group(1))
        # logged once the handler is in place, just before serving
        assert "listening on" in proc.stdout.readline()
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=10) == 0
        assert "Traceback" not in proc.stdout.read()
    finally:
        proc.kill()
        proc.wait(timeout=10)
        proc.stdout.close()
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(("127.0.0.1", port), timeout=2).close()


def test_connect_refused_port_exits_3(capsys):
    # nothing listens on a fresh ephemeral port that was never opened
    assert run_cli("connect", "--addr", "127.0.0.1:1", "--hash", "toysum",
                   "--id-a", "9", "--id-b", "12", "--password", "10") == 3
    assert capsys.readouterr().err.startswith("error: connection failed: ")


def test_connect_whose_nonce_draws_never_fit_exits_1(tmp_path, capsys,
                                                    monkeypatch):
    # in Z_3^* every baseline client draw gives g^x = v
    monkeypatch.setattr(service_module.socket, "create_connection",
                        lambda *args, **kwargs: pytest.fail("a port was dialed"))
    group = tmp_path / "q3.params"
    group.write_text("3\n2\n")
    assert run_cli("connect", "--addr", "127.0.0.1:1", "--params", str(group),
                   "--hash", "toysum", "--scheme", "lky", "--seed", "1",
                   "--id-a", "9", "--id-b", "12", "--password", "10") == 1
    assert capsys.readouterr().err == (
        "error: could not pick a usable client nonce\n")


def test_serve_refuses_a_port_out_of_range_before_binding(tmp_path, capsys,
                                                         monkeypatch):
    monkeypatch.setattr(service_module, "_Server",
                        lambda *args: pytest.fail("a listener was bound"))
    assert run_cli("serve", "--listen", "127.0.0.1:99999", "--enroll",
                   "--store", str(tmp_path / "verifiers.tsv")) == 3
    assert "port 99999 is out of range" in capsys.readouterr().err


def test_serve_refuses_a_log_it_cannot_open_before_binding(tmp_path, capsys,
                                                          monkeypatch):
    monkeypatch.setattr(service_module, "_Server",
                        lambda *args: pytest.fail("a listener was bound"))
    for log_path in (tmp_path / "missing" / "server.jsonl", tmp_path):
        assert run_cli("serve", "--listen", "127.0.0.1:0", "--enroll",
                       "--store", str(tmp_path / "verifiers.tsv"),
                       "--log", str(log_path)) == 3
        err = capsys.readouterr().err
        assert str(log_path) in err and "connection failed" not in err
    assert "Is a directory" in err
    assert not (tmp_path / "verifiers.tsv").exists()


def test_connect_refuses_a_port_out_of_range_before_dialing(capsys, monkeypatch):
    monkeypatch.setattr(service_module.socket, "create_connection",
                        lambda *args, **kwargs: pytest.fail("a port was dialed"))
    assert run_cli("connect", "--addr", "127.0.0.1:99999", "--hash", "toysum",
                   "--id-a", "9", "--id-b", "12", "--password", "10") == 3
    assert "port 99999 is out of range" in capsys.readouterr().err


def test_serve_requires_an_existing_store(tmp_path):
    assert run_cli("serve", "--listen", "127.0.0.1:0",
                   "--store", str(tmp_path / "absent.tsv")) == 3


def test_serve_rejects_a_corrupt_store(tmp_path):
    bad = tmp_path / "verifiers.tsv"
    bad.write_text("not a store\n")
    assert run_cli("serve", "--listen", "127.0.0.1:0",
                   "--store", str(bad)) == 2


def test_serve_and_register_reject_a_verifier_outside_the_group(tmp_path, capsys):
    bad = tmp_path / "verifiers.tsv"
    bad.write_text("# pake-verifiers v1\n9\t12\t1d\n")
    assert run_cli("serve", "--listen", "127.0.0.1:0",
                   "--store", str(bad)) == 2
    assert "line 2" in capsys.readouterr().err
    assert run_cli("register", "--store", str(bad), "--hash", "toysum",
                   "--id-a", "20", "--id-b", "12", "--password", "3") == 2
    assert bad.read_text() == "# pake-verifiers v1\n9\t12\t1d\n"


# -- the README names only flags that exist -------------------------------------------


def test_every_flag_the_readme_names_belongs_to_a_subcommand():
    named = {flag
             for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
             if "pip install" not in line
             for flag in re.findall(r"--[a-z][a-z0-9-]*", line)}
    known, parsers = set(), [cli_module.build_parser()]
    while parsers:
        for action in parsers.pop()._actions:
            known.update(action.option_strings)
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    assert "--params" in named
    assert named <= known, sorted(named - known)
