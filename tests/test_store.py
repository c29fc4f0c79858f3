"""Verifier store: file format, strict parsing, pair keys, failure counters."""

import os

import pytest

from pakelab.core import DIGEST256, TOY_PARAMS, TOYSUM, GroupParams, VerifierRecord
from pakelab.errors import DuplicateEntry, StoreParseError, UnknownIdentity
from pakelab.netio.store import HEADER, VerifierStore

V2_HEADER = "# pake-verifiers v2 q=13 g=6 hash=toysum"


def sample_store():
    store = VerifierStore()
    store.add(VerifierRecord(id_a=9, id_b=12, v=7))
    store.add(VerifierRecord(id_a=9, id_b=15, v=11))
    store.add(VerifierRecord(id_a=2 ** 80, id_b=3, v=2 ** 70 + 1))
    return store


def test_round_trip(tmp_path):
    path = tmp_path / "verifiers.tsv"
    store = sample_store()
    store.save(path)
    loaded = VerifierStore.load(path)
    assert len(loaded) == 3
    assert loaded.lookup(9, 12).v == 7
    assert loaded.lookup(9, 15).v == 11
    assert loaded.lookup(2 ** 80, 3).v == 2 ** 70 + 1


def test_file_shape(tmp_path):
    path = tmp_path / "verifiers.tsv"
    sample_store().save(path)
    lines = path.read_text().splitlines()
    assert lines[0] == HEADER
    assert lines[1] == "9\t12\t7"
    assert lines[2] == f"9\t15\t{11:x}"      # b, not 11: hex column
    assert all(len(line.split("\t")) == 3 for line in lines[1:])


def test_entries_are_keyed_by_the_identity_pair():
    store = sample_store()
    assert (9, 12) in store
    assert (9, 14) not in store
    with pytest.raises(UnknownIdentity):
        store.lookup(9, 14)
    with pytest.raises(UnknownIdentity):
        store.lookup(4, 12)
    assert {r.id_b for r in store.records_for(9)} == {12, 15}
    assert store.records_for(4) == []


def test_duplicate_pairs_are_refused_without_replace():
    store = sample_store()
    with pytest.raises(DuplicateEntry):
        store.add(VerifierRecord(id_a=9, id_b=12, v=3))
    assert store.lookup(9, 12).v == 7
    store.add(VerifierRecord(id_a=9, id_b=12, v=3), replace=True)
    assert store.lookup(9, 12).v == 3


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        VerifierStore.load(tmp_path / "absent.tsv")


@pytest.mark.parametrize("content,bad_line", [
    ("", 1),                                        # no header
    ("# pake-verifiers v2\n9\t12\t7\n", 1),         # wrong header
    (HEADER + "\n\n", 2),                           # blank line
    (HEADER + "\n9\t12\n", 2),                      # missing column
    (HEADER + "\n9\t12\t7\tX\n", 2),                # extra column
    (HEADER + "\nnine\t12\t7\n", 2),                # non-decimal identity
    (HEADER + "\n\u00b2\t12\t7\n", 2),              # superscript two: int() refuses it
    (HEADER + "\n9\t\u0669\t7\n", 2),              # Arabic-Indic nine: int() reads 9
    (HEADER + "\n9\t12\t0x7\n", 2),                 # hex with a prefix,
    (HEADER + "\n9\t12\t+7\n", 2),                  # a sign,
    (HEADER + "\n9\t12\t 7\n", 2),                  # a space,
    (HEADER + "\n9\t12\t0_7\n", 2),                 # an underscore,
    (HEADER + "\n9\t12\t\u0667\n", 2),              # or a non-ASCII digit
    ("# pake-verifiers v2 q=\u0661\u0663 g=\u0666 hash=toysum\n9\t12\t7\n",
     1),                                            # Arabic-Indic 13 and 6 in a v2 header
    (HEADER + "\n9\t12\tzz\n", 2),                  # non-hex verifier
    (HEADER + "\n9\t12\t0\n", 2),                   # verifier below 1
    (HEADER + "\n9\t12\t7\n9\t12\t7\n", 3),         # duplicate pair
    (V2_HEADER, 1),                                 # v2 header without a newline
    (V2_HEADER + "\n9\t12\t7", 2),                  # torn single row
    (V2_HEADER + "\n9\t12\t7\n9\t15\tb", 3),        # torn appended row
])
def test_load_rejects_malformed_files(tmp_path, content, bad_line):
    path = tmp_path / "verifiers.tsv"
    path.write_text(content)
    with pytest.raises(StoreParseError) as exc:
        VerifierStore.load(path)
    assert exc.value.line == bad_line


def test_iteration_order_is_sorted(tmp_path):
    store = VerifierStore()
    store.add(VerifierRecord(id_a=9, id_b=15, v=11))
    store.add(VerifierRecord(id_a=2, id_b=3, v=5))
    store.add(VerifierRecord(id_a=9, id_b=12, v=7))
    path = tmp_path / "verifiers.tsv"
    store.save(path)
    lines = path.read_text().splitlines()[1:]
    assert lines == sorted(lines, key=lambda l: tuple(
        int(tok, 16 if i == 2 else 10) for i, tok in enumerate(l.split("\t"))))


def test_save_writes_the_pinned_text_for_out_of_order_adds(tmp_path):
    store = VerifierStore()
    store.add(VerifierRecord(id_a=9, id_b=15, v=11))
    store.add(VerifierRecord(id_a=2 ** 80, id_b=3, v=2 ** 70 + 1))
    store.add(VerifierRecord(id_a=2, id_b=3, v=5))
    store.add(VerifierRecord(id_a=9, id_b=12, v=255))
    path = tmp_path / "verifiers.tsv"
    store.save(path)
    assert path.read_bytes() == (
        b"# pake-verifiers v1\n"
        b"2\t3\t5\n"
        b"9\t12\tff\n"
        b"9\t15\tb\n"
        b"1208925819614629174706176\t3\t400000000000000001\n")


def test_records_for_is_ordered_by_server_identity():
    store = VerifierStore()
    for id_b in (15, 3, 12):
        store.add(VerifierRecord(id_a=9, id_b=id_b, v=id_b + 1))
    store.add(VerifierRecord(id_a=4, id_b=1, v=2))
    assert [r.id_b for r in store.records_for(9)] == [3, 12, 15]
    store.add(VerifierRecord(id_a=9, id_b=12, v=99), replace=True)
    assert [r.v for r in store.records_for(9)] == [4, 99, 16]
    assert len(store) == 4


def test_records_for_on_a_loaded_store(tmp_path):
    path = tmp_path / "verifiers.tsv"
    sample_store().save(path)
    loaded = VerifierStore.load(path)
    assert loaded.records_for(9) == [VerifierRecord(id_a=9, id_b=12, v=7),
                                     VerifierRecord(id_a=9, id_b=15, v=11)]
    assert loaded.records_for(2 ** 80) == [
        VerifierRecord(id_a=2 ** 80, id_b=3, v=2 ** 70 + 1)]
    assert loaded.records_for(12) == []


def test_records_for_returns_a_copy():
    store = sample_store()
    records = store.records_for(9)
    records.clear()
    store.records_for(4).append(VerifierRecord(id_a=4, id_b=1, v=2))
    assert len(store.records_for(9)) == 2
    assert store.records_for(4) == []
    assert len(store) == 3


def test_load_with_a_group_rejects_verifiers_outside_it(tmp_path):
    path = tmp_path / "verifiers.tsv"
    path.write_text(HEADER + "\n9\t12\t7\n9\t15\t1d\n")
    assert len(VerifierStore.load(path)) == 2      # no group, no range check
    with pytest.raises(StoreParseError) as exc:
        VerifierStore.load(path, TOY_PARAMS)
    assert exc.value.line == 3
    path.write_text(HEADER + "\n9\t12\tc\n")      # q - 1 is the largest element
    assert VerifierStore.load(path, TOY_PARAMS).lookup(9, 12).v == 12


def test_a_failed_save_leaves_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "verifiers.tsv"
    sample_store().save(path)
    before = path.read_bytes()
    store = sample_store()
    store.add(VerifierRecord(id_a=5, id_b=6, v=3))

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError):
        store.save(path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["verifiers.tsv"]


# -- v2: a header naming the group and hash mode, appended rows ---------------


def toy_v2_store():
    store = VerifierStore(TOY_PARAMS, TOYSUM)
    store.add(VerifierRecord(id_a=9, id_b=15, v=11))
    store.add(VerifierRecord(id_a=2, id_b=3, v=5))
    store.add(VerifierRecord(id_a=9, id_b=12, v=7))
    return store


def test_a_v1_file_stays_v1_without_a_group_and_compacts_to_v2_with_one(tmp_path):
    path = tmp_path / "verifiers.tsv"
    path.write_text(HEADER + "\n9\t12\t7\n")
    loaded = VerifierStore.load(path)
    assert (loaded.version, loaded.params, loaded.hash_mode) == (1, None, None)
    loaded.save(path)
    assert path.read_text() == HEADER + "\n9\t12\t7\n"
    loaded = VerifierStore.load(path, TOY_PARAMS, TOYSUM)
    assert loaded.version == 1
    loaded.save(path)
    assert path.read_text() == V2_HEADER + "\n9\t12\t7\n"


def test_v2_round_trip(tmp_path):
    path = tmp_path / "verifiers.tsv"
    toy_v2_store().save(path)
    loaded = VerifierStore.load(path)
    assert loaded.version == 2
    assert (loaded.params, loaded.hash_mode) == (TOY_PARAMS, TOYSUM)
    assert sorted((r.id_a, r.id_b, r.v) for r in loaded) == [
        (2, 3, 5), (9, 12, 7), (9, 15, 11)]
    assert VerifierStore.load(path, TOY_PARAMS, TOYSUM).lookup(9, 15).v == 11


def test_v2_compaction_is_byte_stable(tmp_path):
    path = tmp_path / "verifiers.tsv"
    toy_v2_store().save(path)
    pinned = (b"# pake-verifiers v2 q=13 g=6 hash=toysum\n"
              b"2\t3\t5\n"
              b"9\t12\t7\n"
              b"9\t15\tb\n")
    assert path.read_bytes() == pinned
    VerifierStore.load(path).save(path)
    assert path.read_bytes() == pinned
    # appended rows that change nothing compact back to the same bytes
    store = VerifierStore.load(path)
    store.append(path, VerifierRecord(id_a=9, id_b=12, v=3))
    store.append(path, VerifierRecord(id_a=9, id_b=12, v=7))
    VerifierStore.load(path).save(path)
    assert path.read_bytes() == pinned


def test_append_writes_one_row_and_the_last_row_wins(tmp_path):
    path = tmp_path / "verifiers.tsv"
    toy_v2_store().save(path)
    before = path.read_bytes()
    store = VerifierStore.load(path)
    store.append(path, VerifierRecord(id_a=9, id_b=12, v=3))
    store.append(path, VerifierRecord(id_a=4, id_b=12, v=10))
    assert path.read_bytes() == before + b"9\t12\t3\n4\t12\ta\n"
    assert store.lookup(9, 12).v == 3 and len(store) == 4
    reloaded = VerifierStore.load(path, TOY_PARAMS, TOYSUM)
    assert reloaded.lookup(9, 12).v == 3
    assert reloaded.lookup(4, 12).v == 10
    assert len(reloaded) == 4
    reloaded.save(path)
    assert path.read_text().splitlines() == [
        V2_HEADER, "2\t3\t5", "4\t12\ta", "9\t12\t3", "9\t15\tb"]


def test_append_to_a_missing_file_raises_and_changes_nothing(tmp_path):
    store = toy_v2_store()
    with pytest.raises(FileNotFoundError):
        store.append(tmp_path / "absent.tsv", VerifierRecord(id_a=4, id_b=12, v=10))
    assert (4, 12) not in store
    assert not (tmp_path / "absent.tsv").exists()


@pytest.mark.parametrize("params,mode", [
    (GroupParams(q=23, g=5), TOYSUM),
    (TOY_PARAMS, DIGEST256),
])
def test_v2_refuses_another_group_or_hash_mode(tmp_path, params, mode):
    path = tmp_path / "verifiers.tsv"
    toy_v2_store().save(path)
    with pytest.raises(StoreParseError) as exc:
        VerifierStore.load(path, params, mode)
    assert exc.value.line == 1
    assert "q=13, g=6, hash=toysum" in str(exc.value)
    assert f"q={params.q}, g={params.g}, hash={mode}" in str(exc.value)


def test_v2_checks_rows_against_its_own_group(tmp_path):
    path = tmp_path / "verifiers.tsv"
    path.write_text(V2_HEADER + "\n9\t12\t7\n9\t15\td\n")     # 13 is not in Z_13^*
    with pytest.raises(StoreParseError) as exc:
        VerifierStore.load(path)
    assert exc.value.line == 3
