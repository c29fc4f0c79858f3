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

from .core import (  # noqa: F401
    DESK_SCALE_BOUND,
    DIGEST256,
    ORDER_CHECK_BOUND,
    SCHEME_LKY,
    SCHEME_PROPOSED,
    TOYSUM,
    TOY_CREDS,
    TOY_PARAMS,
    Credentials,
    DlogTable,
    GroupParams,
    HashSpec,
    SessionKey,
    Tally,
    VerifierRecord,
    derive_verifier,
    generate_params,
    hash_to_exponent,
    mod_exp,
    mod_inverse,
    sample_nonce,
    toy_pairing,
    validate_params,
)
from .errors import PakeError  # noqa: F401
from .harness import (  # noqa: F401
    Counters,
    Scenario,
    SessionReport,
    compare_efficiency,
    golden_vectors,
    run_honest_session,
)

__version__ = "0.1.0"
