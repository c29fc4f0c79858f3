"""Command-line front end for the workbench.

Subcommands:

  params gen | params check      make or vet a group (a file, or a named group)
  register                       derive a verifier and add it to a store file
  serve                          run the TCP server (entity B)
  connect                        run one TCP session as entity A
  simulate                       in-memory honest run, or golden-vector check
  attack                         stolen-verifier sweeps, mitm tamper, census
  bench                          per-scheme cost table over seeded runs

Identities and passwords are integers on the wire; string arguments are
accepted and mapped through SHA-256 of their UTF-8 bytes, with the mapping
announced on stderr and in the session log.

The session log is one JSON object per line, appended to the path in the
PAKE_LOG environment variable (or --log where offered); unset means no log.

Exit codes: 0 success, 1 authentication failure (including remote refusals
for identity, credential, or throttling reasons), 2 protocol or parse
error, 3 configuration error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import random
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Optional

from .attacks import (
    ATTACK_MITM,
    ATTACK_STOLEN_VERIFIER_LKY,
    ATTACK_STOLEN_VERIFIER_PROPOSED,
    PROPOSED_RESISTANCE_CLAIM,
    TamperSpec,
    dictionary_census,
    mitm_tamper_experiment,
    stolen_verifier_attack_lky,
    stolen_verifier_attack_proposed,
)
from .core import (
    DIGEST256,
    TOYSUM,
    Credentials,
    GroupParams,
    HashSpec,
    NAMED_GROUPS,
    SCHEME_LKY,
    SCHEME_PROPOSED,
    TOY_CREDS,
    TOY_PARAMS,
    VerifierRecord,
    derive_verifier,
    generate_params,
    validate_params,
)
from .errors import (
    AuthFail,
    CounterDrift,
    DuplicateEntry,
    GroupTooLarge,
    MalformedFrame,
    PakeError,
    RemoteError,
    RetryNonce,
    ScenarioError,
    SearchExhausted,
    StoreLocked,
    StoreParseError,
    UnknownIdentity,
    ValidationError,
    VersionMismatch,
)
from .harness import (
    Scenario,
    append_log_line,
    attack_report_to_json,
    check_golden,
    compare_efficiency,
    golden_vectors,
    run_honest_session,
)
from .netio.frames import ERR_AUTH_FAIL, ERR_THROTTLED, ERR_UNKNOWN_IDENTITY
from .netio.service import (
    DEFAULT_MAX_FAIL,
    ClientOptions,
    ServeConfig,
    Service,
    client_connect,
    parse_address,
)
from .netio.store import VerifierStore, lock_store
from .proposed import FLAG_UNAUTHENTICATED

log = logging.getLogger("pakelab.cli")

_AUTH_ERROR_CODES = (ERR_AUTH_FAIL, ERR_UNKNOWN_IDENTITY, ERR_THROTTLED)


def _log_path(args) -> Optional[str]:
    explicit = getattr(args, "log", None)
    return explicit if explicit else os.environ.get("PAKE_LOG") or None


def _maybe_log(args, obj: dict):
    path = _log_path(args)
    if path:
        append_log_line(path, obj)


def parse_identity(text: str, role: str, args) -> int:
    """Decimal digits pass through; anything else maps via SHA-256."""
    if text.isdigit():
        return int(text)
    value = int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest(), "big")
    print(f"note: {role} {text!r} mapped to integer {value} "
          "(sha-256 of utf-8 bytes)", file=sys.stderr)
    _maybe_log(args, {"kind": "identity-map", "role": role, "text": text,
                      "value": str(value)})
    return value


def _credentials(args) -> Credentials:
    return Credentials(id_a=parse_identity(args.id_a, "id-a", args),
                       id_b=parse_identity(args.id_b, "id-b", args),
                       password=parse_identity(args.password, "password", args))


def _read_params_file(path: str) -> GroupParams:
    """The group of core.NAMED_GROUPS that path names, else the file's q, g."""
    if path in NAMED_GROUPS:
        return NAMED_GROUPS[path]
    lines = Path(path).read_text(encoding="utf-8").split()
    if len(lines) != 2 or not all(tok.isdigit() for tok in lines):
        raise MalformedFrame(
            f"params file {path} must hold two decimal integers (q, then g)")
    return GroupParams(q=int(lines[0]), g=int(lines[1]))


def load_params_file(path: str) -> GroupParams:
    params = _read_params_file(path)
    validate_params(params)
    return params


def _params(args) -> GroupParams:
    if getattr(args, "params", None):
        return load_params_file(args.params)
    return TOY_PARAMS


def _hash_spec(args) -> HashSpec:
    return HashSpec(args.hash)


def _add_common(p, default_hash: str = DIGEST256, creds: Optional[str] = None,
                log: bool = True, password_help: Optional[str] = None):
    """--params, --hash and --log, plus credentials: "required" or "toy" defaults."""
    p.add_argument("--params", metavar="NAME|FILE",
                   help=f"a named group ({'|'.join(NAMED_GROUPS)}) or a "
                        "group-parameter file (two decimal lines: q, g); "
                        "default is the toy group q=13, g=6")
    p.add_argument("--hash", choices=[TOYSUM, DIGEST256], default=default_hash,
                   help="hash mode (default: %(default)s)")
    if creds == "required":
        p.add_argument("--id-a", required=True, help="client identity")
        p.add_argument("--id-b", required=True, help="server identity")
        p.add_argument("--password", required=True, help="client password")
    elif creds == "toy":
        p.add_argument("--id-a", default=str(TOY_CREDS.id_a))
        p.add_argument("--id-b", default=str(TOY_CREDS.id_b))
        p.add_argument("--password", default=str(TOY_CREDS.password),
                       help=password_help)
    if log:
        p.add_argument("--log", metavar="FILE")


# -- subcommand bodies --------------------------------------------------------


def cmd_params_gen(args) -> int:
    params = generate_params(args.bits, args.seed)
    text = f"{params.q}\n{params.g}\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote q ({args.bits} bits) and g to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_params_check(args) -> int:
    params = load_params_file(args.path)
    named = [name for name, group in NAMED_GROUPS.items() if group == params]
    if named:
        certainty = f"named RFC 3526 group {named[0]}, certified by the test suite"
    else:
        certainty = "order certified by factoring q-1"
    print(f"ok: q={params.q}, g={params.g} generates Z_q^* ({certainty})")
    return 0


def cmd_register(args) -> int:
    params = _params(args)
    creds = _credentials(args)
    v = derive_verifier(creds, params, _hash_spec(args))
    record = VerifierRecord(id_a=creds.id_a, id_b=creds.id_b, v=v)
    path = Path(args.store)
    exists = path.exists()
    # a store that a running `serve --enroll` holds is refused: a pair the
    # server enrolls after this load would be overridden, and it would
    # never see this row until a restart
    with lock_store(path, exclusive=True) if exists else nullcontext():
        store = (VerifierStore.load(path, params, args.hash) if exists
                 else VerifierStore(params, args.hash))
        store.add(record, replace=args.replace)     # refuses a duplicate before any write
        if store.version == 2:
            store.append(path, record)          # one row, as REGISTER writes it
        else:
            store.save(path)
    print(f"registered id_a={creds.id_a} id_b={creds.id_b} v={v:#x} "
          f"in {path} (q={params.q}, g={params.g})")
    _maybe_log(args, {"kind": "register", "id_a": str(creds.id_a),
                      "id_b": str(creds.id_b), "store": str(path)})
    return 0


def cmd_serve(args) -> int:
    logging.getLogger("pakelab").setLevel(logging.INFO)
    # read but not validated here: Service validates the group it serves
    params = _read_params_file(args.params) if args.params else TOY_PARAMS
    config = ServeConfig(
        params=params,
        store_path=args.store,
        listen=parse_address(args.listen),
        hash_spec=_hash_spec(args),
        max_fail=args.max_fail,
        insecure_lky=args.insecure_lky,
        enroll=args.enroll,
        log_path=_log_path(args),
        rng_seed=args.seed,
        y_override=args.y_override,
    )
    service = Service(config)
    host, port = service.address
    print(f"serving {service.scheme} on {host}:{port} "
          f"(q={config.params.q}, g={config.params.g}, hash={args.hash})")
    if args.enroll:
        print("warning: enrollment mode accepts verifiers in the clear",
              file=sys.stderr)
    service.serve_blocking()
    return 0


def cmd_connect(args) -> int:
    params = _params(args)
    creds = _credentials(args)
    options = ClientOptions(hash_spec=_hash_spec(args), scheme=args.scheme,
                            x=args.x, seed=args.seed, log_path=_log_path(args))
    key, report = client_connect(parse_address(args.addr), creds, params,
                                 options)
    print(f"session key: {key.value:x}")
    if not report.auth_a_ok:
        print("warning: server was not authenticated", file=sys.stderr)
    return 0


def cmd_simulate(args) -> int:
    if args.bless and not args.golden:
        raise ScenarioError("--bless only applies to --golden")
    if args.golden:
        return _simulate_golden(args)
    params = _params(args)
    scenario = Scenario(scheme=args.scheme, params=params, creds=_credentials(args),
                        hash_spec=_hash_spec(args), x=args.x, y=args.y,
                        seed=args.seed)
    report = run_honest_session(scenario)
    _maybe_log(args, report.to_json_obj())
    # above the desk-scale bound the client skips the pairing check and flags it
    skipped = report.key_a is not None and FLAG_UNAUTHENTICATED in report.flags
    if args.json:
        print(report.to_json_line())
    else:
        print(f"scheme: {report.scheme}")
        print(f"params: q={params.q} g={params.g} hash={args.hash}")
        for entry in report.transcript:
            print(f"  {entry.direction}  {entry.label:<8} {entry.hex}")
        key = report.key_a.value if report.key_a else None
        server_auth = ("ok" if report.auth_a_ok
                       else "not checked (q above 2^20)" if skipped else "FAILED")
        print(f"auth: client->server "
              f"{'ok' if report.auth_b_ok else 'FAILED'}, server->client "
              f"{server_auth}")
        print(f"key: {key if key is not None else '(none)'}")
        print(f"counters: {report.counters.as_dict()}")
        if report.flags:
            print(f"flags: {', '.join(report.flags)}")
        if report.error:
            print(f"error: {report.error}")
    return 0 if report.auth_b_ok and (report.auth_a_ok or skipped) else 1


def _simulate_golden(args) -> int:
    all_ok = True
    for vector in golden_vectors():
        ok, observed = check_golden(vector)
        all_ok = all_ok and ok
        print(f"golden {vector.name}: {'ok' if ok else 'MISMATCH'}")
        if args.bless:
            print(f"  regenerated: {json.dumps(observed, sort_keys=True)}")
        elif not ok:
            print(f"  expected: {json.dumps(vector.expected, sort_keys=True)}")
            print(f"  observed: {json.dumps(observed, sort_keys=True)}")
    return 0 if all_ok else 2


def _attack_stolen(args) -> int:
    if args.trials < 1:
        raise ScenarioError("trials must be >= 1")
    params = _params(args)
    creds = _credentials(args)
    hash_spec = _hash_spec(args)
    v = derive_verifier(creds, params, hash_spec)
    rng = random.Random(args.seed)
    lky_mode = args.attack_name == ATTACK_STOLEN_VERIFIER_LKY
    attack_fn = (stolen_verifier_attack_lky if lky_mode
                 else stolen_verifier_attack_proposed)
    successes = 0
    last_report = None
    for _ in range(args.trials):
        x_att = rng.randrange(2, params.q - 1)
        y_srv = rng.randrange(2, params.q - 1)
        report = attack_fn(v, (creds.id_a, creds.id_b), params, hash_spec,
                           x_att, y_srv)
        successes += report.succeeded
        last_report = report
    print(f"{args.attack_name}: {successes}/{args.trials} impersonations "
          f"accepted by the server (attacker held only the verifier)")
    if not lky_mode:
        print(PROPOSED_RESISTANCE_CLAIM)
        verdict = (f"claim does not hold on a {params.q.bit_length()}-bit group"
                   if successes else "claim held in every trial")
        print(f"measured verdict: {verdict}")
    if last_report is not None:
        _maybe_log(args, attack_report_to_json(last_report))
    return 0


def _attack_mitm(args) -> int:
    params = _params(args)
    creds = _credentials(args)
    report = mitm_tamper_experiment(args.scheme,
                                    TamperSpec(field=args.field, value=args.value),
                                    params, _hash_spec(args), (args.x, args.y),
                                    creds)
    print(f"mitm on {args.scheme} ({args.field} -> {args.value}): "
          f"{'SUCCEEDED' if report.succeeded else 'no impersonation'}")
    print(f"  {report.notes}")
    _maybe_log(args, attack_report_to_json(report))
    return 0


def _attack_census(args) -> int:
    params = _params(args)
    creds = _credentials(args)
    hash_spec = _hash_spec(args)
    scenario = Scenario(scheme=SCHEME_PROPOSED, params=params, creds=creds,
                        hash_spec=hash_spec, x=args.x, y=args.y, seed=args.seed)
    wiretap = run_honest_session(scenario)
    if wiretap.error:
        raise ScenarioError(f"could not produce a wiretap session: {wiretap.error}")
    dictionary = [parse_identity(tok.strip(), "candidate", args)
                  for tok in args.dictionary.split(",") if tok.strip()]
    census = dictionary_census(wiretap.transcript, dictionary, params,
                               hash_spec, id_b=creds.id_b)
    print(f"census over {len(dictionary)} candidates "
          f"(search space {census.enumeration_bound} nonce pairs):")
    for candidate in dictionary:
        if candidate in census.consistent:
            x_w, y_w = census.witnesses[candidate]
            print(f"  {candidate}: consistent (witness x'={x_w}, y'={y_w})")
        else:
            print(f"  {candidate}: ruled out ({census.rejections[candidate]})")
    _maybe_log(args, {"kind": "census",
                      "dictionary": [str(c) for c in dictionary],
                      "consistent": [str(c) for c in census.consistent]})
    return 0


def cmd_bench(args) -> int:
    params = _params(args)
    table = compare_efficiency(params, args.trials, args.seed,
                               hash_spec=_hash_spec(args))
    print(table.render_text())
    if args.csv:
        Path(args.csv).write_text(table.render_csv(), encoding="utf-8")
        print(f"wrote CSV to {args.csv}")
    return 0


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pakelab",
        description="Workbench for two verifier-based password-authenticated "
                    "key agreement schemes")
    sub = parser.add_subparsers(dest="command", required=True)

    p_params = sub.add_parser("params", help="make or vet group parameters")
    params_sub = p_params.add_subparsers(dest="params_command", required=True)
    p_gen = params_sub.add_parser("gen", help="generate a prime group")
    p_gen.add_argument("--bits", type=int, required=True,
                       help="size of q in bits, 4..64")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--out", metavar="FILE")
    p_gen.set_defaults(func=cmd_params_gen)
    p_check = params_sub.add_parser("check",
                                    help="validate a params file or a named group")
    p_check.add_argument("path", metavar="NAME|FILE",
                         help=f"{'|'.join(NAMED_GROUPS)}, or a params file")
    p_check.set_defaults(func=cmd_params_check)

    p_reg = sub.add_parser("register", help="derive a verifier into a store file")
    _add_common(p_reg, creds="required")
    p_reg.add_argument("--store", required=True, metavar="FILE")
    p_reg.add_argument("--replace", action="store_true",
                       help="overwrite an existing entry for the same pair")
    p_reg.set_defaults(func=cmd_register)

    p_serve = sub.add_parser("serve", help="run the TCP server (entity B)")
    _add_common(p_serve)
    p_serve.add_argument("--listen", required=True, metavar="HOST:PORT")
    p_serve.add_argument("--store", required=True, metavar="FILE")
    p_serve.add_argument("--max-fail", type=int, default=DEFAULT_MAX_FAIL,
                         help="consecutive failures before throttling "
                              "(default: %(default)s)")
    p_serve.add_argument("--insecure-lky", action="store_true",
                         help="serve the broken baseline scheme (attack demos)")
    p_serve.add_argument("--enroll", action="store_true",
                         help="accept REGISTER frames (verifier in the clear)")
    p_serve.add_argument("--seed", type=int, help="server nonce RNG seed")
    p_serve.add_argument("--y-override", type=int, help=argparse.SUPPRESS)
    p_serve.set_defaults(func=cmd_serve)

    p_conn = sub.add_parser("connect", help="run one session as entity A")
    _add_common(p_conn, creds="required")
    p_conn.add_argument("--addr", required=True, metavar="HOST:PORT")
    p_conn.add_argument("--scheme", choices=[SCHEME_PROPOSED, SCHEME_LKY],
                        default=SCHEME_PROPOSED)
    p_conn.add_argument("--x", type=int, help="explicit client nonce")
    p_conn.add_argument("--seed", type=int, help="client nonce RNG seed")
    p_conn.set_defaults(func=cmd_connect)

    p_sim = sub.add_parser("simulate", help="in-memory honest run")
    _add_common(p_sim, default_hash=TOYSUM, creds="toy")
    p_sim.add_argument("--scheme", choices=[SCHEME_PROPOSED, SCHEME_LKY],
                       default=SCHEME_PROPOSED)
    p_sim.add_argument("--x", type=int)
    p_sim.add_argument("--y", type=int)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--json", action="store_true",
                       help="print the session-log JSON line")
    p_sim.add_argument("--golden", action="store_true",
                       help="check the pinned toy-group vectors")
    p_sim.add_argument("--bless", action="store_true",
                       help="with --golden: print regenerated vectors")
    p_sim.set_defaults(func=cmd_simulate)

    p_att = sub.add_parser("attack", help="run an adversary experiment")
    att_sub = p_att.add_subparsers(dest="attack_name", required=True)
    for name in (ATTACK_STOLEN_VERIFIER_LKY, ATTACK_STOLEN_VERIFIER_PROPOSED):
        p = att_sub.add_parser(name, help="impersonation with a stolen verifier")
        _add_common(p, default_hash=TOYSUM, creds="toy",
                    password_help="victim password used only to enroll the verifier")
        p.add_argument("--trials", type=int, default=100)
        p.add_argument("--seed", type=int, default=0)
        p.set_defaults(func=_attack_stolen)
    p_mitm = att_sub.add_parser(ATTACK_MITM, help="in-flight field substitution")
    _add_common(p_mitm, default_hash=TOYSUM, creds="toy")
    p_mitm.add_argument("--scheme", choices=[SCHEME_PROPOSED, SCHEME_LKY],
                        default=SCHEME_PROPOSED)
    p_mitm.add_argument("--field", required=True,
                        help="message field to replace (e.g. t_a, e_b)")
    p_mitm.add_argument("--value", type=int, required=True)
    p_mitm.add_argument("--x", type=int, default=3)
    p_mitm.add_argument("--y", type=int, default=4)
    p_mitm.set_defaults(func=_attack_mitm)
    p_cen = att_sub.add_parser("census", help="offline dictionary consistency")
    _add_common(p_cen, default_hash=TOYSUM, creds="toy")
    p_cen.add_argument("--dictionary", "--dict", required=True,
                       help="comma-separated candidate passwords")
    p_cen.add_argument("--x", type=int)
    p_cen.add_argument("--y", type=int)
    p_cen.add_argument("--seed", type=int)
    p_cen.set_defaults(func=_attack_census)

    p_bench = sub.add_parser("bench", help="cost table over seeded honest runs")
    _add_common(p_bench, log=False)
    p_bench.add_argument("--trials", type=int, required=True)
    p_bench.add_argument("--seed", type=int, required=True)
    p_bench.add_argument("--csv", metavar="FILE")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RemoteError as exc:
        print(f"error: server refused: {exc}", file=sys.stderr)
        return 1 if exc.code in _AUTH_ERROR_CODES else 2
    except (AuthFail, UnknownIdentity, RetryNonce) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MalformedFrame, VersionMismatch, StoreParseError,
            CounterDrift) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, ScenarioError, SearchExhausted, GroupTooLarge,
            DuplicateEntry, StoreLocked, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PakeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # a local file's error names its path; a socket's names none
        where = "" if exc.filename is not None else "connection failed: "
        print(f"error: {where}{exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
