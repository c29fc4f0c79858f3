"""Walk both key-agreement schemes through the pinned toy group, one value
at a time.

Everything here runs on q=13, g=6 with identities 9 and 12 and password 10,
the same numbers the golden vectors pin, so you can follow each quantity by
hand with nothing more than a times table mod 13.
"""

from pakelab.core import (
    TOY_CREDS,
    TOY_PARAMS,
    TOYSUM,
    HashSpec,
    VerifierRecord,
    derive_verifier,
)
from pakelab.harness import Scenario, check_golden, golden_vectors, run_honest_session
from pakelab.lky import lky_client_finish, lky_client_start, lky_server_finish, lky_server_respond
from pakelab.proposed import (
    prop_client_confirm,
    prop_client_finish,
    prop_client_start,
    prop_server_finish,
    prop_server_respond,
)

params, creds = TOY_PARAMS, TOY_CREDS
spec = HashSpec(TOYSUM)

print(f"group: q={params.q}, g={params.g}")
print(f"identities: A={creds.id_a}, B={creds.id_b}, password P={creds.password}")

# registration: the server never stores P, only v = g^h(A,B,P)
v = derive_verifier(creds, params, spec)
record = VerifierRecord(id_a=creds.id_a, id_b=creds.id_b, v=v)
print(f"\nregistration: v = g^h(9,12,10) = {v}")

# ---- revised scheme, nonces x=3, y=4 ------------------------------------------

print("\n--- revised scheme (4 messages, 2 round trips) ---")
msg1, client = prop_client_start(creds, params, spec, x=3)
print(f"A -> B  MSG1: T_A = g^3 = {msg1.t_a}")

msg2, server = prop_server_respond(msg1, record, params, spec, y=4)
print(f"B -> A  MSG2: T_B = v^4 = {msg2.t_b}")

msg3 = prop_client_confirm(msg2, client)
print(f"A -> B  MSG3: r = T_B^(3*h^-1) = {client.r}, d_A = h(r) mod q = {msg3.d_a}")

msg4, key_b = prop_server_finish(msg3, server)
print(f"B -> A  MSG4: F_A = h(T_A^4) mod q = {server.f_a} (matches d_A),"
      f" E_B = v^(4^2) = {msg4.e_b}")

key_a = prop_client_finish(msg4, client)
print(f"A checks e(E_B, T_A) == e(T_B, r), then both sides hold"
      f" h(9,12,g^12) mod q = {key_a.value} / {key_b.value}")

# ---- baseline scheme, same nonces ----------------------------------------------

print("\n--- baseline scheme (3 messages, masked shares) ---")
m1, lc = lky_client_start(creds, params, spec, x=3)
print(f"A -> B  T_A (+) v = {m1.t_a}    (g^3 = 8 xored with v = 7)")

m2, ls = lky_server_respond(m1, record, params, spec, y=4)
print(f"B -> A  T_B (+) v = {m2.t_b_masked}, d_B = {m2.d_b}")

m3, key_a = lky_client_finish(m2, lc)
print(f"A -> B  d_A = {m3.d_a}")

key_b = lky_server_finish(m3, ls)
print(f"both sides now hold h(r) mod q = {key_a.value} / {key_b.value}")

# ---- the pinned vectors stay pinned ----------------------------------------------

print("\n--- golden check ---")
for vector in golden_vectors():
    ok, values = check_golden(vector)
    print(f"{vector.name}: {'ok' if ok else 'DRIFTED'} {values}")

report = run_honest_session(Scenario(scheme="proposed", x=3, y=4))
print(f"\nharness one-liner: key_a={report.key_a.value},"
      f" key_b={report.key_b.value}, counters={report.counters.as_dict()}")
