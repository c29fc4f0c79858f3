"""The traced benchmark run's hooks still reach pakelab.

perfbench/tracing.py replaces functions and methods by name, and tags each
server connection with the client's port; a rename in pakelab, or a server
that stops dispatching through those names, would otherwise surface only
when the traced benchmark runs.
"""

import importlib
import importlib.util
from pathlib import Path

from pakelab.core import (
    TOY_CREDS,
    TOY_PARAMS,
    TOYSUM,
    HashSpec,
    VerifierRecord,
    derive_verifier,
)
from pakelab.netio import service as service_module
from pakelab.netio.service import ClientOptions, ServeConfig, Service
from pakelab.netio.store import VerifierStore

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_traced_run_wraps_resolves():
    tracing = _tracing()
    for module_name, attr, *_ in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), \
            f"{module_name}.{attr}"
    for module_name, cls_name, attr, *_ in tracing.METHODS:
        cls = getattr(importlib.import_module(module_name), cls_name)
        assert attr in cls.__dict__, f"{module_name}.{cls_name}.{attr}"
    assert "_handle_connection" in Service.__dict__


def test_the_traced_server_tags_each_connection_with_the_client_port(tmp_path):
    spec = HashSpec(TOYSUM)
    store = VerifierStore()
    store.add(VerifierRecord(id_a=9, id_b=12,
                             v=derive_verifier(TOY_CREDS, TOY_PARAMS, spec)))
    store.save(tmp_path / "verifiers.tsv")
    config = ServeConfig(params=TOY_PARAMS, store_path=tmp_path / "verifiers.tsv",
                         hash_spec=spec, y_override=4)
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        with Service(config) as service:
            # through the module, as the load generator calls it
            key, _ = service_module.client_connect(
                service.address, TOY_CREDS, TOY_PARAMS,
                ClientOptions(hash_spec=spec, x=3))
    finally:
        tracer.uninstall()
    assert key.value == 9

    def named(name):
        return [s for s in tracer.spans if s[2] == name]

    # (span_id, parent_id, name, start_ns, end_ns, op, note, error)
    [connect] = named("netio.service.connect")
    [connection] = named("netio.service.connection")
    [client] = named("netio.service.client_connect")
    assert connection[5] == connect[6]          # op: the client's local port
    server_reads = [s for s in named("netio.frames.read_frame")
                    if s[1] != client[0]]
    assert len(server_reads) == 2               # MSG1, MSG3
    assert all(s[1] == connection[0] and s[5] == connect[6] for s in server_reads)
