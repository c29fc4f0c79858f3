"""Wire framing, verifier persistence, and the TCP service layer."""
