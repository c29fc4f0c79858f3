"""pakelab: a workbench for two verifier-based password-authenticated
key agreement schemes.

The package implements the broken three-message baseline (pakelab.lky),
its four-message revision with a pairing-based server-authentication step
(pakelab.proposed), executable adversaries against both (pakelab.attacks),
a deterministic scenario runner with cost accounting (pakelab.harness),
and a bit-exact TCP transport with verifier persistence (pakelab.netio).

Everything runs at desk scale by default: on the toy group q=13, g=6 with
the plain integer-sum hash every intermediate value can be checked by hand,
and generated parameter sets up to 2**20 keep the exhaustive discrete-log
oracle (and with it the toy pairing) available.
"""

__version__ = "0.1.0"
