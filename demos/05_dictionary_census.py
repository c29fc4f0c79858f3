"""Grind a recorded session against a password dictionary, offline.

The wiretapper saw four frames and knows the group, the identities, and the
hash. For each candidate password it asks: does ANY nonce pair make this
transcript? On a 13-element group the census is exhaustive, so whatever
survives is genuinely indistinguishable from the truth given the tap. Small
groups leave little room: several wrong passwords share the real verifier's
orbit and survive with it, which is the whole argument for big groups.
"""

from pakelab.attacks import dictionary_census
from pakelab.core import TOY_CREDS, TOY_PARAMS, TOYSUM, HashSpec
from pakelab.harness import Scenario, run_honest_session

spec = HashSpec(TOYSUM)

# the victim runs one honest session; the attacker records it
report = run_honest_session(Scenario(scheme="proposed", x=3, y=4))
print("wiretap, four frames:")
for entry in report.transcript:
    print(f"  {entry.direction} {entry.label:8s} {entry.hex}")

# a two-word dictionary: the real password and a decoy
census = dictionary_census(report.transcript, [10, 11], TOY_PARAMS, spec,
                           id_b=TOY_CREDS.id_b)
print(f"\ndictionary [10, 11] -> consistent: {census.consistent}")
print(f"witness nonces for 10: x'={census.witnesses[10][0]},"
      f" y'={census.witnesses[10][1]}")
print(f"rejected: {census.rejections}")
print(f"nonce pairs per candidate: {census.enumeration_bound}, settled by"
      " one dlog-table lookup each for x' and y'")

# a wider net: everything in [0, 30)
wide = dictionary_census(report.transcript, list(range(30)), TOY_PARAMS, spec,
                         id_b=TOY_CREDS.id_b)
print(f"\ndictionary range(30) -> consistent: {wide.consistent}")
print("(the survivors all hash into the same two verifier exponents;"
      " q=13 cannot separate them)")
